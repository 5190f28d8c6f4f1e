"""The public names of the package and of each layer module."""

import importlib
import pkgutil
from collections import Counter

import pytest

import minscore

MODULES = ["minscore"] + [
    f"minscore.{info.name}"
    for info in pkgutil.iter_modules(minscore.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    # tooling that walks __all__ (e.g. tracing wrappers) calls getattr on each
    # entry, so a name left behind after a deletion must fail here
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n, count in Counter(exported).items() if count > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []
