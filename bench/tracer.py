"""Outside-in layer tracing for the benchmark.

Spans are recorded around calls into the package's public functions by
patching module attributes from the benchmark's own code; nothing inside
``src/`` is edited. ``from`` imports copy bindings, so a function is
replaced in every package module that binds the same object (for example
``cli.exact_posterior`` and ``experiments.enlarge``), and methods are
replaced on their class.

A span holds its name, start, end, parent span, item id and thread. A span
opened on a pool thread with no open span of its own takes as parent the
innermost open span of the thread that installed the tracer, so the work a
pool does is charged as children of the call that started it. Self time is
a span's duration minus the union of its children's intervals, which stays
correct when children on several threads overlap.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import threading
import time
from typing import Callable, Optional


def _edge_tests(args, state, result) -> dict:
    x, words = args[0], args[1]
    return {"edge_tests": x.num_edges * len(words)}


def _enlarge_counts(args, state, result) -> dict:
    base = args[0]
    n = base.n
    return {
        "members": len(result.members),
        "scan_pairs": len(base.members) << (n - 1),
    }


def _hpd_counts(args, state, result) -> dict:
    return {"members": len(result.members)}


def _mcmc_counts(args, state, result) -> dict:
    cfg = args[3]
    return {
        "steps": cfg.burn_in + cfg.samples * cfg.thin,
        "acceptance_sum": result.acceptance_rate,
    }


def _tell_before(args):
    return args[1].tell()


def _csv_counts(args, state, result) -> dict:
    return {"rows": len(args[0]), "bytes": args[1].tell() - state}


# (span name, module, attribute path, state taken before the call,
#  counts taken after it). Counts come from the arguments and results only,
# so they repeat exactly for the same inputs.
TARGETS = (
    ("model.canonical_words", "model", "canonical_words", None, None),
    ("model.sample_graph", "model", "sample_graph", None, None),
    ("posterior.within_edge_counts", "posterior", "within_edge_counts", None, _edge_tests),
    ("posterior.exact_posterior", "posterior", "exact_posterior", None, None),
    ("posterior.mcmc_posterior", "posterior", "mcmc_posterior", None, _mcmc_counts),
    ("posterior.write_csv", "posterior", "PosteriorTable.write_csv", _tell_before, _csv_counts),
    ("posterior.inclusion_probabilities", "posterior",
     "PosteriorTable.inclusion_probabilities", None, None),
    ("posterior.probability", "posterior", "PosteriorTable.probability", None, None),
    ("inference.hpd_credible_set", "inference", "hpd_credible_set", None, _hpd_counts),
    ("inference.enlarge", "inference", "enlarge", None, _enlarge_counts),
    ("inference.class_size_test", "inference", "class_size_test", None, None),
    ("experiments.run_experiment", "experiments", "run_experiment", None, None),
    ("cli.main", "cli", "main", None, None),
)


def _package_modules(package: str) -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def patch_everywhere(package: str, module: str, attr: str,
                     make: Callable[[Callable], Callable]) -> Optional[Callable[[], None]]:
    """Replace ``package.module.attr`` by ``make(original)`` wherever the
    package binds it. ``attr`` may be ``Class.method``, patched on the
    class. Returns an undo function, or None when the name does not exist."""
    owner = sys.modules.get(f"{package}.{module}")
    if owner is None:
        return None
    if "." in attr:
        cls_name, meth = attr.split(".", 1)
        cls = getattr(owner, cls_name, None)
        if cls is None or meth not in vars(cls):
            return None
        original = vars(cls)[meth]
        setattr(cls, meth, make(original))
        return lambda: setattr(cls, meth, original)
    original = getattr(owner, attr, None)
    if original is None:
        return None
    replacement = make(original)
    bound = [(mod, name) for mod in _package_modules(package)
             for name, value in list(vars(mod).items()) if value is original]
    for mod, name in bound:
        setattr(mod, name, replacement)

    def undo() -> None:
        for mod, name in bound:
            setattr(mod, name, original)

    return undo


class Tracer:
    """In-memory span recorder. ``item`` tags every span opened while it
    is set; set it before each benchmark item."""

    def __init__(self, package: str = "bisect_bayes"):
        self.package = package
        self.item = None
        self.spans: list[dict] = []
        self.installed_names: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._home_stack and tracer._home_stack:
                parent = tracer._home_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            state = before(args) if before else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            record = {"id": sid, "name": name, "start": start, "end": end,
                      "parent": parent, "item": tracer.item,
                      "thread": threading.get_ident()}
            if after:
                record["counts"] = after(args, state, result)
            tracer.spans.append(record)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target the package still has; missing names are
        skipped, so their metrics are absent rather than an error."""
        self.installed_names = []
        for name, module, attr, before, after in TARGETS:
            undo = patch_everywhere(
                self.package, module, attr,
                lambda fn, name=name, before=before, after=after:
                    self.span(name, fn, before, after),
            )
            if undo is not None:
                self._undo.append(undo)
                self.installed_names.append(name)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def call(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside a span opened by the benchmark itself."""
        return self.span(name, fn)(*args)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for record in self.spans:
                f.write(json.dumps(record, sort_keys=True))
                f.write("\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = max(0.0, (s["end"] - s["start"]) - covered)
    return out


def layer_summary(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total self time, summed counts and duration."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[s["id"]]
        agg["total_s"] += s["end"] - s["start"]
        for key, value in s.get("counts", {}).items():
            agg[key] = agg.get(key, 0) + value
    return out


def shares(summary: dict[str, dict]) -> dict[str, float]:
    """Each layer's self time as a share of all self time recorded."""
    total = math.fsum(agg["self_s"] for agg in summary.values())
    if total <= 0:
        return {}
    return {name: agg["self_s"] / total for name, agg in summary.items()}
