import importlib

import pytest


@pytest.mark.parametrize("name", ["bounds", "circle", "complexes", "eqmaps", "numbercert", "plmaps"])
def test_all_names_resolve(name):
    """`from tverberg.<module> import *` fails on a name __all__ lists but the module lacks."""
    module = importlib.import_module(f"tverberg.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
