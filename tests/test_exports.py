"""Every name a package exports in ``__all__`` resolves.

A deletion that leaves a stale export behind fails here rather than in a
user's ``from rvikit.problems import *``.
"""

import importlib

import pytest

PACKAGES = ["rvikit", "rvikit.manifolds", "rvikit.problems", "rvikit.geometry",
            "rvikit.solvers", "rvikit.harness"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"
