import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_bench_trace_targets_resolve():
    # the bench's tracer skips a target the package no longer has, with no
    # error, so a renamed or deleted function would silently drop the
    # per-layer metrics the benchmark declares for it
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    unresolved = []
    for name, module, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"bisect_bayes.{module}")
        *cls, fn = attr.split(".")
        scope = vars(getattr(owner, cls[0], object)) if cls else vars(owner)
        if fn not in scope:
            unresolved.append(name)
    assert unresolved == []
