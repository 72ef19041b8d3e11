"""Lazy re-exports (PEP 562): public names without eager submodule imports.

A package ``__init__`` never imports a submodule; it declares which
module defines each public name and this helper loads that module on
first attribute access, so a command pays only for the layers it runs.
One caveat: a name equal to a submodule's (``repro.mc.explore``) is
shadowed by the submodule once anything imports it, so the package
binds such a name eagerly instead of listing it here.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from importlib import import_module


def lazy_exports(
    namespace: dict[str, object], exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair serving ``exports``.

    ``namespace`` is the caller's ``globals()``; ``exports`` maps a
    module path relative to the caller's package (``"events"``,
    ``"core.report"``) to the names it defines.  A resolved name is
    bound into ``namespace``, so each is looked up once.
    """
    package = namespace["__package__"]
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(import_module("." + home[name], package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
