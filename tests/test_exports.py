import importlib
import pkgutil

import pytest

import bisect_bayes

MODULES = sorted(info.name for info in pkgutil.iter_modules(bisect_bayes.__path__))


def test_every_module_is_listed():
    assert {"cli", "inference", "model", "posterior"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"bisect_bayes.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_all_resolves_and_star_import_runs():
    exported = getattr(bisect_bayes, "__all__", [])
    assert [attr for attr in exported if not hasattr(bisect_bayes, attr)] == []
    namespace = {}
    exec("from bisect_bayes import *", namespace)
    assert "exact_posterior" in namespace
