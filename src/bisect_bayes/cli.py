"""Command-line interface: sample / posterior / credible / test / bounds /
experiment / verify.

Exit codes: 0 on success, 1 when a verification run finds violations,
2 on any validation error (one-line diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from . import bounds as bnd
from .experiments import ExperimentConfig, run_experiment, write_result
from .inference import class_size_test, enlarge, hpd_credible_set
from .model import EdgeModel, Graph, LabelVector, label_lines, sample_graph
from .posterior import McmcConfig, exact_posterior, mcmc_posterior
from .priors import (
    bernoulli_ratio_sandwich_violations,
    beta_ratio_bound_violations,
    parse_prior,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D401 - argparse contract
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _add_edge_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=float, required=True, help="within-class edge probability, in (0,1)")
    p.add_argument("--q", type=float, required=True, help="between-class edge probability, in (0,1)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bisect-bayes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("sample",
                       help="draw a two-community graph")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    _add_edge_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int, help="smaller-class size; labels the last m vertices 1")
    group.add_argument("--labeling", help="explicit 0/1 labeling string")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="graph JSON output path")
    p.add_argument("--labeling-out", help="also write the planted labeling string here")

    p = sub.add_parser("posterior",
                       help="posterior over labelings for an observed graph")
    p.add_argument("--graph", required=True, help="graph JSON input path")
    p.add_argument("--prior", required=True,
                   help="bernoulli:r=0.5 | beta:alpha=1,beta=1 | uniform-m")
    _add_edge_flags(p)
    p.add_argument("--mode", choices=["exact", "mcmc"], default="exact")
    p.add_argument("--burn-in", type=int, help="sampler burn-in (mcmc mode)")
    p.add_argument("--samples", type=int, help="sampler emission count (mcmc mode)")
    p.add_argument("--thin", type=int, help="sampler thinning (mcmc mode)")
    p.add_argument("--seed", type=int, default=0, help="sampler seed (mcmc mode)")
    p.add_argument("--out", required=True, help="posterior CSV output path")
    p.add_argument("--marginals-out", help="per-vertex inclusion-probability CSV path")

    p = sub.add_parser("credible",
                       help="highest-posterior-density credible set")
    p.add_argument("--graph", required=True)
    p.add_argument("--prior", required=True)
    _add_edge_flags(p)
    p.add_argument("--gamma", type=float, required=True, help="credible deficiency in (0,1)")
    p.add_argument("--enlarge", type=int, default=0, metavar="K",
                   help="widen by folded distance K for frequentist coverage")
    p.add_argument("--out", help="JSON output path (default: stdout)")

    p = sub.add_parser("test",
                       help="posterior-odds test between class sizes")
    p.add_argument("--graph", required=True)
    p.add_argument("--prior", required=True)
    _add_edge_flags(p)
    p.add_argument("--m0", type=int, required=True, help="null smaller-class size")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m1", type=int, help="alternative smaller-class size")
    group.add_argument("--complement", action="store_true",
                       help="test against every other labeling")
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--a-n", type=float, help="rate for the error bounds, if known")
    p.add_argument("--b-n", type=float, help="second rate for the two-term bound")
    p.add_argument("--out", help="JSON output path (default: stdout)")

    p = sub.add_parser("bounds",
                       help="evaluate a closed-form bound, print JSON")
    p.add_argument("name", choices=[
        "affinity", "affinity-upper", "point-tail-uniform", "point-tail-dense",
        "ch-recovery-margin", "ball-tail", "ball-tail-ks",
        "detectability-sandwich",
    ])
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--g", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--out", help="JSON output path (default: stdout)")

    p = sub.add_parser("experiment",
                       help="run a Monte Carlo experiment from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the config's output CSV path")
    p.add_argument("--threads", type=int,
                   help="worker count, checked but not used: replications run "
                        "serially, with the same output for every count "
                        "(default: BISECT_BAYES_THREADS or 1)")

    sub.add_parser("verify",
                   help="run the inequality and prior-ratio grid checks")

    return parser


def _require(args: argparse.Namespace, names: Sequence[str], context: str) -> list:
    values = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise ValueError(f"{context} requires --{name}")
        values.append(value)
    return values


def _read_graph(path: str) -> Graph:
    try:
        with open(path) as f:
            return Graph.from_json(f.read())
    except FileNotFoundError:
        raise ValueError(f"graph file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"graph file {path} is not valid JSON: {exc}") from None


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text)
            if not text.endswith("\n"):
                f.write("\n")
    else:
        print(text)


def _cmd_sample(args) -> int:
    model = EdgeModel(args.p, args.q)
    if args.labeling is not None:
        theta = LabelVector.from_string(args.labeling)
        if theta.n != args.n:
            raise ValueError(
                f"labeling length {theta.n} does not match --n {args.n}"
            )
    else:
        if not (0 <= args.m <= args.n // 2):
            raise ValueError(f"--m {args.m} out of range for n={args.n}")
        theta = LabelVector.from_bits(
            [0] * (args.n - args.m) + [1] * args.m
        )
    graph = sample_graph(theta, model, args.seed)
    with open(args.out, "w") as f:
        f.write(graph.to_json())
        f.write("\n")
    if args.labeling_out:
        with open(args.labeling_out, "w") as f:
            f.write(theta.to_string())
            f.write("\n")
    return 0


def _cmd_posterior(args) -> int:
    model = EdgeModel(args.p, args.q)
    prior = parse_prior(args.prior)
    graph = _read_graph(args.graph)
    if args.mode == "exact":
        table = exact_posterior(graph, prior, model)
        with open(args.out, "w", newline="") as f:
            table.write_csv(f)
        inclusion = table.inclusion_probabilities()
    else:
        given = {name: getattr(args, name) for name in ("burn_in", "samples", "thin")
                 if getattr(args, name) is not None}
        cfg = dataclasses.replace(McmcConfig.default(graph.n, args.seed), **given)
        result = mcmc_posterior(graph, prior, model, cfg)
        _write_sampled_csv(args.out, graph, prior, model, result)
        inclusion = result.inclusion_probabilities
    if args.marginals_out:
        with open(args.marginals_out, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["vertex", "inclusion_probability"])
            for v, prob in enumerate(inclusion):
                writer.writerow([v, repr(float(prob))])
    return 0


def _write_sampled_csv(path, graph, prior, model, result) -> None:
    from collections import Counter

    from .model import log_likelihood
    from .priors import log_prior_mass

    counts = Counter(result.samples)
    total = len(result.samples)
    rows = []
    for theta, count in counts.items():
        log_u = log_prior_mass(theta, prior) + log_likelihood(theta, graph, model)
        rows.append((theta.to_string(), log_u, count / total))
    rows.sort(key=lambda r: (-r[2], r[0]))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["labeling", "log_unnormalized", "probability"])
        for labeling, log_u, prob in rows:
            writer.writerow([labeling, repr(log_u), repr(prob)])


def _cmd_credible(args) -> int:
    model = EdgeModel(args.p, args.q)
    prior = parse_prior(args.prior)
    graph = _read_graph(args.graph)
    table = exact_posterior(graph, prior, model)
    hpd = hpd_credible_set(table, args.gamma)
    # index order is lexicographic
    words = enlarge(hpd, args.enlarge).member_words()
    payload = {
        "achieved_mass": hpd.achieved_mass,
        "gamma": args.gamma,
        "radius": args.enlarge,
    }
    _emit(_credible_json(payload, words, table.n), args.out)
    return 0


def _credible_json(payload: dict, words, n: int) -> str:
    """json.dumps of the payload with the members' labels (a credible set
    is never empty) under "members", indent=2 and sort_keys=True. The
    labels are 0/1 strings that need no escaping, so the members list is
    written as one block by model.label_lines; json's indented encoder is
    pure Python, about half a microsecond per member."""
    text = json.dumps({**payload, "members": []}, indent=2, sort_keys=True)
    head, tail = text.split('"members": []')
    return "".join([head, '"members": [\n    "', label_lines(words, n, '",\n    "'),
                    '"\n  ]', tail])


def _cmd_test(args) -> int:
    model = EdgeModel(args.p, args.q)
    prior = parse_prior(args.prior)
    graph = _read_graph(args.graph)
    m1 = None if args.complement else args.m1
    result = class_size_test(
        graph, prior, model, m0=args.m0, m1=m1, threshold=args.threshold,
        a_n=args.a_n, b_n=args.b_n,
    )
    _emit(json.dumps(result.to_json_dict(), indent=2, sort_keys=True), args.out)
    return 0


def _cmd_bounds(args) -> int:
    name = args.name
    if name == "affinity":
        p, q = _require(args, ["p", "q"], name)
        report = bnd.BoundReport("affinity", bnd.hellinger_affinity(p, q),
                                 {"p": p, "q": q})
    elif name == "affinity-upper":
        p, q = _require(args, ["p", "q"], name)
        report = bnd.BoundReport("affinity-upper", bnd.rho_upper_bound(p, q),
                                 {"p": p, "q": q})
    elif name == "point-tail-uniform":
        n, alpha = _require(args, ["n", "alpha"], name)
        report = bnd.point_tail_bound_uniform(n, alpha)
    elif name == "point-tail-dense":
        n, c = _require(args, ["n", "c"], name)
        g = args.g if args.g is not None else 0.0
        report = bnd.point_tail_bound_dense(n, c, g)
    elif name == "ch-recovery-margin":
        a, b, n = _require(args, ["a", "b", "n"], name)
        report = bnd.BoundReport(
            "ch-recovery-margin", max(bnd.ch_recovery_margin(a, b, n), 0.0),
            {"a": a, "b": b, "n": n, "raw": bnd.ch_recovery_margin(a, b, n)},
        )
    elif name == "ball-tail":
        n, alpha, beta = _require(args, ["n", "alpha", "beta"], name)
        g = args.g if args.g is not None else 0.0
        report = bnd.ball_tail_bound(n, alpha, beta, g)
    elif name == "ball-tail-ks":
        n, alpha, c, d = _require(args, ["n", "alpha", "c", "d"], name)
        g = args.g if args.g is not None else 0.0
        report = bnd.ball_tail_bound_ks(n, alpha, c, d, g)
    elif name == "detectability-sandwich":
        c, d = _require(args, ["c", "d"], name)
        lower, mid, upper = bnd.detectability_sandwich(c, d)
        payload = {"name": name, "lower": lower, "mid": mid, "upper": upper,
                   "inputs": {"c": c, "d": d}}
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown bound {name!r}")
    _emit(json.dumps(report.to_json_dict(), indent=2, sort_keys=True), args.out)
    return 0


def _resolve_threads(value: Optional[int]) -> int:
    if value is not None:
        threads = value
    else:
        env = os.environ.get("BISECT_BAYES_THREADS", "")
        try:
            threads = int(env) if env else 1
        except ValueError:
            raise ValueError(
                f"BISECT_BAYES_THREADS={env!r} is not an integer"
            ) from None
    if threads < 1:
        raise ValueError(f"thread count must be positive, got {threads}")
    return threads


def _cmd_experiment(args) -> int:
    threads = _resolve_threads(args.threads)
    try:
        with open(args.config) as f:
            obj = json.load(f)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {args.config}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from None
    cfg = ExperimentConfig.from_json_dict(obj)
    out = args.out or cfg.out
    if not out:
        raise ValueError("no output path: set --out or the config's out field")
    result = run_experiment(cfg, threads=threads)
    write_result(result, out)
    return 0


def _cmd_verify(args) -> int:
    checks = bnd.inequality_suite()
    report = {
        "checks": [
            {"name": c.name, "grid_points": c.grid_points,
             "violations": len(c.violations)}
            for c in checks
        ],
    }
    prior_checks = {
        "bernoulli-ratio-sandwich": bernoulli_ratio_sandwich_violations(),
        "beta-ratio-bound": beta_ratio_bound_violations(),
    }
    for name, bad in prior_checks.items():
        report["checks"].append({"name": name, "violations": len(bad)})
    ok = all(c["violations"] == 0 for c in report["checks"])
    report["ok"] = ok
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if ok else 1


_COMMANDS = {
    "sample": _cmd_sample,
    "posterior": _cmd_posterior,
    "credible": _cmd_credible,
    "test": _cmd_test,
    "bounds": _cmd_bounds,
    "experiment": _cmd_experiment,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
