"""Command-line interface: ``python -m repro`` / the ``repro`` script."""

# Bound eagerly: ``main`` is also the submodule's name (see repro._lazy).
from repro.cli.main import main

__all__ = ["main"]
