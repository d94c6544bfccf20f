import ast
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


# The functions that print or take every labeling in index order, the only
# readers of the canonical index in the package
INDEX_READERS = {"write_csv", "inclusion_probabilities", "_plant_complement", "words",
                 "class_sizes"}


def index_reads(tree):
    """(innermost enclosing function, line) of each read of the name
    canonical_words or of an attribute ``words``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.Name) and node.id == "canonical_words"
                or isinstance(node, ast.Attribute) and node.attr == "words"):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_index_read_only_where_labelings_are_printed():
    src = Path(bisect_bayes.__file__).resolve().parent
    stray = []
    for path in sorted(src.glob("*.py")):
        for scope, line in index_reads(ast.parse(path.read_text())):
            if scope not in INDEX_READERS:
                stray.append(f"{path.name}:{line} in {scope}")
    assert stray == []


def test_index_scan_sees_reads():
    tree = ast.parse("def f(t):\n    return canonical_words(3), t.words\n"
                     "x = table.words\n")
    assert index_reads(tree) == [("f", 2), ("f", 2), (None, 3)]
