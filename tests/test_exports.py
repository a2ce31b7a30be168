"""Every name a package module exports in ``__all__`` exists.

A stale entry (a name deleted but left in ``__all__``) breaks
``from module import *`` although a plain import still succeeds.
"""

import importlib
import pkgutil

import pytest

import invariantlab

MODULES = ["invariantlab"] + [
    f"invariantlab.{info.name}"
    for info in pkgutil.iter_modules(invariantlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
