"""The package's public names: each resolves, and none is a submodule."""

import types

import filtration_lab


def test_exported_names_resolve_and_none_is_a_module():
    names = filtration_lab.__all__
    assert len(set(names)) == len(names)
    for name in names:
        value = getattr(filtration_lab, name)
        assert not isinstance(value, types.ModuleType), name

