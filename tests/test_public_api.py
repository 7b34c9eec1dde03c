"""The package's public names: ``__all__`` is read off the import block."""

from types import ModuleType

import flagsphere as fs


def test_every_export_is_bound_and_not_a_module():
    assert fs.__all__
    for name in fs.__all__:
        assert not isinstance(getattr(fs, name), ModuleType), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from flagsphere import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fs.__all__)


def test_all_is_every_public_non_module_global():
    public = [
        name
        for name, value in vars(fs).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    assert sorted(fs.__all__) == sorted(public)
