"""The package namespace and __all__ describe the same public surface."""

import types

import opintegral


def test_all_names_resolve_and_every_public_attribute_is_listed():
    listed = set(opintegral.__all__)
    assert len(listed) == len(opintegral.__all__), "duplicate names in __all__"
    missing = sorted(n for n in listed if not hasattr(opintegral, n))
    assert not missing, f"__all__ names that do not resolve: {missing}"
    public = {n for n, v in vars(opintegral).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert not public - listed, f"public names missing from __all__: {sorted(public - listed)}"
