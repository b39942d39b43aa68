"""Every exported name resolves, so a deletion cannot leave a stale export.

perfbench's traced run wraps the functions each module lists in __all__.
"""

import importlib
import pkgutil

import pytest

import renyi_rearrange

MODULES = sorted(m.name for m in pkgutil.iter_modules(renyi_rearrange.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"renyi_rearrange.{name}")
    exported = getattr(mod, "__all__", [])
    assert [a for a in exported if not hasattr(mod, a)] == []
    assert len(set(exported)) == len(exported)


def test_package_exports_resolve_once():
    exported = renyi_rearrange.__all__
    assert [a for a in exported if not hasattr(renyi_rearrange, a)] == []
    assert sorted(a for a in set(exported) if exported.count(a) > 1) == []
