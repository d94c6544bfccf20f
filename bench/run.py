"""Benchmark for bisect-bayes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from ``src/``.
Each workload runs in its own process as a closed loop: one client issues
the next item when the previous one has returned. Replication workloads
hand each item to the package's worker pool with ``nproc`` workers.

``--trace 0`` measures the end-to-end metrics with nothing patched:
set-up time (median of this process and two fresh ones), items per second,
median and tail item latency, and peak RSS. A run makes one or more passes
over the same items (a pass is whole cycles, at least 20 items); an item's
latency is the lowest of its passes, and items per second is the pass's
item count over the sum of those latencies. On a shared 2-vCPU host,
interpreter-bound items run up to twice as slow during spells of a few
seconds when neighbours are busy; the lowest of a few passes is far less
moved by such spells than one pass (slower drifts of the host, over
minutes, move every pass alike). ``--trace 1`` runs one pass untraced and
then traced, and reports per-layer metrics from spans recorded around
calls into the package (see ``tracer.py``); the replication workloads are
repeated at one worker for the pool speed-up.

Every output is checked (see ``workloads.py``) right after its item,
outside the item's time, and then released, so that output files do not
pile up on disk during the run; an item fails if it raises, exits non-zero
or gives a wrong output. The last line of standard output is the result
as JSON; the line before it is a report with the environment, the tail
percentile used and, when tracing, each layer's share of self time.
Reports and span files go to ``.bench_out/``.

``--record`` rewrites ``bench/reference/NAME.json`` from the default
seed's outputs.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference"

sys.path.insert(0, str(HERE))

from tracer import TARGETS, Tracer, layer_summary, shares  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, compare_digest  # noqa: E402

MIN_ITEMS = 20  # the tail percentile needs at least ten items beyond it
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 150


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_package():
    sys.path.insert(0, str(SRC))
    import bisect_bayes
    import bisect_bayes.cli  # noqa: F401  (not imported by the package)

    return bisect_bayes


def setup(name: str, seed: int, workdir: Path, tracer: Tracer | None = None):
    """Import the package, draw the inputs and run one warm-up item per
    input size. Returns the workload, its warm-up outputs and the time."""
    start = time.perf_counter()
    bb = load_package()
    if tracer is not None:
        tracer.install()
        tracer.item = "setup"
    workload = WORKLOADS[name](bb, seed, str(workdir), nproc())
    workload.make_inputs()
    warm = [(item, workload.run(item, -1 - k)) for k, item in enumerate(workload.warmups)]
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return workload, warm, elapsed


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def plan(workload, seconds: int) -> tuple[list[dict], int]:
    """One pass: whole cycles, at least MIN_ITEMS items. Passes: about
    ``seconds`` of work, but never fewer than the workload's minimum."""
    cycles = math.ceil(MIN_ITEMS / len(workload.cycle))
    passes = round(seconds / (workload.nominal_cycle_s * cycles))
    return workload.cycle * cycles, max(workload.min_passes, passes)


def load_reference(name: str, seed: int):
    path = REFERENCE / f"{name}.json"
    if seed != DEFAULT_SEED or not path.exists():
        return None
    return json.loads(path.read_text())


def check(workload, item: dict, output, error: str | None, reference) -> list[str]:
    """Errors of one item's output, which is released afterwards."""
    if error:
        return [error]
    try:
        errors = workload.check(item, output)
        if not errors and reference is not None:
            errors = compare_digest(workload.digest(item, output),
                                    reference[item["key"]], item["key"])
    except Exception as exc:  # a malformed output fails its item
        errors = [f"check raised {type(exc).__name__}: {exc}"]
    finally:
        workload.release(output)
    return errors


def timed_loop(workload, items: list[dict], passes: int = 1, reference=None,
               tracer: Tracer | None = None) -> dict:
    """Run ``items`` ``passes`` times over. Returns each item's latency in
    every pass, the failures, output bytes, and the wall and CPU time spent
    inside items (checks are not counted)."""
    seconds: list[list[float]] = [[] for _ in items]
    failures = []
    wall = cpu = 0.0
    output_bytes = 0
    for p in range(passes):
        for k, item in enumerate(items):
            index = p * len(items) + k
            cpu0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = workload.run(item, index)
                else:
                    tracer.item = index
                    output = tracer.call("bench.item", workload.run, item, index)
                error = None
            except Exception as exc:  # an item that raises is a failed item
                output, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            cpu1 = resource.getrusage(resource.RUSAGE_SELF)
            seconds[k].append(elapsed)
            wall += elapsed
            cpu += (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
            if tracer is not None:
                tracer.item = "check"  # spans opened by checks are left out
            if error is None:
                output_bytes += workload.output_bytes(output)
            errors = check(workload, item, output, error, reference)
            if errors:
                failures.append(f"item {index} ({item['key']}): {'; '.join(errors[:3])}")
    return {"seconds": seconds, "failures": failures, "bytes": output_bytes,
            "wall": wall, "cpu": cpu, "attempted": len(items) * passes}


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten items beyond it, by the
    nearest-rank rule, and its value."""
    ordered = sorted(latencies)
    count = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * count / 100)
        if count - rank >= 10:
            return pct, ordered[rank - 1]
    raise ValueError(f"{count} items leave no percentile with ten beyond it")


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        **versions,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "platform": platform.platform(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value if unit in ("count", "B") else float(value), "unit": unit}


def end_to_end(loop: dict, setup_s: float) -> tuple[dict, dict]:
    # each item's latency is the lowest of its passes
    latencies = [min(per_pass) for per_pass in loop["seconds"]]
    pct, tail_value = tail(latencies)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "items_per_s": metric(len(latencies) / math.fsum(latencies), "items/s"),
        "item_s_p50": metric(statistics.median(latencies), "s"),
        "item_s_tail": metric(tail_value, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    pass_s = [math.fsum(column) for column in zip(*loop["seconds"])]
    return metrics, {"tail_percentile": pct, "items": len(latencies), "pass_s": pass_s}


# (metric suffix, unit) per layer; counts are summed over the traced loop
LAYER_METRICS = {
    "posterior.within_edge_counts": [("self_s", "s"), ("edge_tests", "count")],
    "posterior.exact_posterior": [("calls", "count"), ("self_s", "s")],
    "posterior.write_csv": [("self_s", "s"), ("rows", "count"), ("bytes", "B")],
    "posterior.inclusion_probabilities": [("self_s", "s")],
    "inference.enlarge": [("self_s", "s"), ("members", "count"), ("scan_pairs", "count")],
    "inference.hpd_credible_set": [("self_s", "s"), ("members", "count")],
    "inference.class_size_test": [("self_s", "s")],
    "posterior.mcmc_posterior": [("calls", "count"), ("self_s", "s"), ("steps", "count")],
    "experiments.run_experiment": [("calls", "count"), ("self_s", "s")],
    "posterior.probability": [("calls", "count"), ("self_s", "s")],
    "model.sample_graph": [("calls", "count"), ("self_s", "s")],
    "cli.main": [("calls", "count"), ("self_s", "s")],
}


def per_layer(tracer: Tracer, workload, untraced: dict, traced: dict,
              single: dict | None, failed: int, attempted: int) -> tuple[dict, dict]:
    spans = [s for s in tracer.spans if s["item"] != "check"]
    summary = layer_summary([s for s in spans if s["item"] != "setup"])
    setup_summary = layer_summary([s for s in spans if s["item"] == "setup"])
    # The CLI workloads draw their graphs and fill the canonical-word
    # cache during set-up, so the model layer is summed over set-up too.
    with_setup = layer_summary(spans)
    installed = set(tracer.installed_names)
    metrics = {}

    def get(layer: str, key: str, source=summary):
        return source.get(layer, {}).get(key, 0)

    for layer, fields in LAYER_METRICS.items():
        if layer not in installed:
            continue
        source = with_setup if layer.startswith("model.") else summary
        for key, unit in fields:
            metrics[f"{layer}.{key}"] = metric(get(layer, key, source), unit)
    if "posterior.within_edge_counts" in installed:
        busy = get("posterior.within_edge_counts", "self_s")
        rate = get("posterior.within_edge_counts", "edge_tests") / busy if busy else 0.0
        metrics["posterior.within_edge_counts.edge_tests_per_s"] = metric(rate, "1/s")
    if "posterior.mcmc_posterior" in installed:
        busy = get("posterior.mcmc_posterior", "self_s")
        calls = get("posterior.mcmc_posterior", "calls")
        metrics["posterior.mcmc_posterior.steps_per_s"] = metric(
            get("posterior.mcmc_posterior", "steps") / busy if busy else 0.0, "1/s")
        metrics["posterior.mcmc_posterior.acceptance_rate"] = metric(
            get("posterior.mcmc_posterior", "acceptance_sum") / calls if calls else 0.0,
            "ratio")
    if "model.canonical_words" in installed:
        # the cache starts empty at set-up, so this is the cold build time
        metrics["model.canonical_words.cold_s"] = metric(
            get("model.canonical_words", "total_s", setup_summary), "s")
    k = len(untraced["seconds"])

    def head_seconds(loop: dict) -> float:
        return math.fsum(per_pass[0] for per_pass in loop["seconds"][:k])

    speedup = head_seconds(single) / head_seconds(untraced) if single else 1.0
    metrics["experiments.pool.workers"] = metric(workload.workers if workload.pool else 1,
                                                 "count")
    metrics["experiments.pool.cpu_per_wall"] = metric(untraced["cpu"] / untraced["wall"],
                                                      "ratio")
    metrics["experiments.pool.speedup"] = metric(speedup, "ratio")
    metrics["cli.output_bytes"] = metric(traced["bytes"], "B")
    metrics["trace.overhead_frac"] = metric(head_seconds(traced) / head_seconds(untraced) - 1.0,
                                            "ratio")
    metrics["failed_frac"] = metric(failed / attempted, "ratio")
    layer_shares = dict(sorted(shares(summary).items(), key=lambda kv: -kv[1]))
    return metrics, {"self_time_shares": layer_shares,
                     "dominant_layer": next(iter(layer_shares), None),
                     "traced_layers": sorted(installed),
                     "missing_layers": sorted({t[0] for t in TARGETS} - installed)}


def run(args) -> dict:
    name, seed = args.workload, args.seed
    workdir = OUT / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    report = {"workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
              "loadavg_start": os.getloadavg()}
    try:
        tracer = Tracer() if args.trace else None
        workload, warm, setup_in = setup(name, seed, workdir, tracer)
        reference = load_reference(name, seed)
        # warm-up items are checked for invariants only
        for item, output in warm:
            errors = check(workload, item, output, None, None)
            if errors:
                raise RuntimeError(f"warm-up item {item['key']} failed: {errors[0]}")
        workload.prepare()
        items, passes = plan(workload, args.seconds)
        report.update(workers=workload.workers if workload.pool else 1,
                      cycle_items=len(workload.cycle), items=len(items))
        if not args.trace:
            samples = [setup_in] + [probe_setup(name, seed) for _ in range(SETUP_SAMPLES - 1)]
            loop = timed_loop(workload, items, passes, reference)
            loops = [loop]
            metrics, extra = end_to_end(loop, statistics.median(samples))
            report.update(extra, passes=passes, setup_samples_s=samples,
                          loop_wall_s=loop["wall"])
        else:
            # The untraced and one-worker loops repeat only the first half of
            # the items; overhead and speed-up compare those same items.
            head = items[:max(MIN_ITEMS // 2, len(items) // 2)]
            untraced = timed_loop(workload, head, 1, reference)
            tracer.install()
            traced = timed_loop(workload, items, 1, reference, tracer)
            tracer.uninstall()
            loops = [untraced, traced]
            single = None
            if workload.pool and workload.workers > 1:
                workload.workers, pooled_workers = 1, workload.workers
                single = timed_loop(workload, head, 1, reference)
                workload.workers = pooled_workers
                loops.append(single)
        failures = [f for loop in loops for f in loop["failures"]]
        attempted = sum(loop["attempted"] for loop in loops)
        if args.trace:
            metrics, extra = per_layer(tracer, workload, untraced, traced, single,
                                       len(failures), attempted)
            report.update(extra, untraced_wall_s=untraced["wall"], traced_wall_s=traced["wall"])
            tracer.write_jsonl(str(OUT / f"trace-{name}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(loadavg_end=os.getloadavg(), environment=environment(),
                  reference_checked=reference is not None, failures=failures[:10])
    with open(OUT / f"report-{name}-seed{seed}-trace{args.trace}.json", "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print(json.dumps({"report": report}, sort_keys=True))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def record(name: str) -> None:
    workdir = OUT / f"record-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        workload, _, _ = setup(name, DEFAULT_SEED, workdir)
        workload.prepare()
        for k, item in enumerate(workload.cycle):
            output = workload.run(item, k)
            try:
                errors = workload.check(item, output)
                if errors:
                    raise RuntimeError(f"not recording a wrong output: {errors[0]}")
                digest = workload.digest(item, output)
            finally:
                workload.release(output)
            if digest is not None:
                digests[item["key"]] = digest
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if digests:
        REFERENCE.mkdir(exist_ok=True)
        with open(REFERENCE / f"{name}.json", "w") as f:
            json.dump(digests, f, indent=1, sort_keys=True)
            f.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference outputs from the default seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "bisect_bayes" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'bisect_bayes'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.setup_probe:
            workdir = OUT / f"probe-{args.workload}-{os.getpid()}"
            workdir.mkdir()
            try:
                print(json.dumps({"setup_s": setup(args.workload, args.seed, workdir)[2]}))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        elif args.record:
            record(args.workload)
        else:
            print(json.dumps(run(args), sort_keys=True))
    except Exception:
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
