"""``__all__`` still means what it says under lazy re-exports.

Every package whose ``__init__`` serves its public names through
:func:`repro._lazy.lazy_exports` must behave, attribute for attribute,
like the eager ``from repro.x.y import name`` block it replaced.  (The
three names that cannot be lazy — they collide with a submodule — need
fresh interpreters and are checked in ``tests/test_startup.py``.)
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import repro


def _lazy_modules() -> list[str]:
    """Every module in the tree that installs the shared helper."""
    root = Path(repro.__file__).parent
    names = []
    for source in sorted(root.rglob("*.py")):
        if source.name != "_lazy.py" and "lazy_exports(" in source.read_text(
            encoding="utf-8"
        ):
            parts = source.relative_to(root.parent).with_suffix("").parts
            names.append(".".join(p for p in parts if p != "__init__"))
    return names


LAZY_MODULES = _lazy_modules()


def test_the_converted_packages_are_the_ones_the_commands_cross():
    assert set(LAZY_MODULES) >= {
        "repro",
        *(
            f"repro.{name}"
            for name in (
                "obs runtime fuzz failures analysis core vector mc rounds "
                "consensus emulation models simulation sdd commit"
            ).split()
        ),
    }


@pytest.mark.parametrize("module_name", LAZY_MODULES)
class TestLazyModule:
    def test_all_resolves_to_the_defining_modules_objects(self, module_name):
        module = importlib.import_module(module_name)
        public = getattr(module, "__all__", None)
        if public is None:  # a plain module forwarding a few names
            public = [n for n in dir(module) if not n.startswith("_")]
        assert public
        for name in public:
            value = getattr(module, name)
            # Bound into the module after first use: the next access is
            # a plain dict hit on the very same object.
            assert vars(module)[name] is value
            home = getattr(value, "__module__", None)
            if isinstance(home, str) and home in sys.modules:
                assert getattr(sys.modules[home], name, value) is value

    def test_dir_covers_all(self, module_name):
        module = importlib.import_module(module_name)
        assert set(dir(module)) >= set(getattr(module, "__all__", ()))

    def test_unknown_attribute_names_module_and_attribute(self, module_name):
        module = importlib.import_module(module_name)
        with pytest.raises(AttributeError) as raised:
            module.no_such_name
        assert module_name in str(raised.value)
        assert "no_such_name" in str(raised.value)

    def test_star_import_serves_all(self, module_name):
        module = importlib.import_module(module_name)
        if not hasattr(module, "__all__"):
            pytest.skip("no __all__: star-import takes the bound globals")
        namespace: dict = {}
        exec(f"from {module_name} import *", namespace)
        assert set(namespace) >= set(module.__all__)
