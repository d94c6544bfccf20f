"""Monte Carlo harnesses: recovery, coverage, test error, phase sweeps.

Every replication draws its RNG stream from (master_seed, cell, rep), and
results are reduced in fixed cell-then-replication order, so output bytes
do not depend on the worker count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Optional, TextIO

import numpy as np

from . import bounds as bnd
from .inference import enlarge, hpd_credible_set
from .model import (
    CHERNOFF_HELLINGER,
    ENUMERATION_CAP,
    KESTEN_STIGUM,
    EdgeModel,
    LabelVector,
    SparsityParams,
    canonical_words,
    canonicalize_word,
    derive_rng,
    edge_probs_from_sparsity,
    enumerate_labelings,
    sample_graph,
)
from .posterior import (
    McmcConfig,
    exact_posterior,
    log_sum_exp,
    mcmc_posterior,
    posterior_mode,
)
from .priors import PriorSpec, g_constant, parse_prior, prior_to_string

__all__ = [
    "SCHEMA_VERSION",
    "KINDS",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "run_recovery",
    "run_coverage",
    "run_test_error",
    "run_phase_diagram",
    "run_bound_check",
    "write_result",
]

SCHEMA_VERSION = 1

RECOVERY = "recovery"
COVERAGE = "coverage"
TEST_ERROR = "test-error"
PHASE_DIAGRAM = "phase-diagram"
BOUND_CHECK = "bound-check"
KINDS = (RECOVERY, COVERAGE, TEST_ERROR, PHASE_DIAGRAM, BOUND_CHECK)

_COLUMNS = [
    "kind", "cell", "n", "p", "q", "prior", "planted_m", "regime", "first",
    "second", "gamma", "threshold", "radius", "metric", "estimate",
    "std_error", "replications", "bound_name", "bound", "bound_inputs",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run.

    planted_m None plants a labeling drawn uniformly from the whole
    canonical space; an integer plants uniformly within that class size.
    """

    kind: str
    n: int
    prior: PriorSpec
    replications: int
    master_seed: int
    p: Optional[float] = None
    q: Optional[float] = None
    regime: Optional[str] = None
    first_values: tuple[float, ...] = ()
    second_values: tuple[float, ...] = ()
    planted_m: Optional[int] = None
    gamma: float = 0.05
    thresholds: tuple[float, ...] = (1.0,)
    radius: int = 1
    ball_radius: Optional[int] = None
    m0: Optional[int] = None
    m1: Optional[int] = None
    out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.kind == PHASE_DIAGRAM:
            if self.regime not in (CHERNOFF_HELLINGER, KESTEN_STIGUM):
                raise ValueError(
                    f"phase diagram needs a sparsity regime, got {self.regime!r}"
                )
            if not self.first_values or not self.second_values:
                raise ValueError("phase diagram needs nonempty parameter grids")
            for a in self.first_values:
                for b in self.second_values:
                    edge_probs_from_sparsity(
                        SparsityParams(self.regime, a, b, self.n)
                    )
        else:
            if self.p is None or self.q is None:
                raise ValueError(f"{self.kind} experiment needs explicit p and q")
            EdgeModel(self.p, self.q)
        if self.kind == TEST_ERROR:
            if self.m0 is None:
                raise ValueError("test-error experiment needs m0")
            if self.m0 == self.m1:
                raise ValueError("m0 and m1 must differ")
        if self.planted_m is not None and not (0 <= self.planted_m <= self.n // 2):
            raise ValueError(f"planted_m={self.planted_m} out of range for n={self.n}")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma={self.gamma} must lie in (0, 1)")
        if self.kind != RECOVERY and self.n > ENUMERATION_CAP:
            raise ValueError(
                f"{self.kind} requires the exact posterior; n={self.n} exceeds "
                f"cap {ENUMERATION_CAP}"
            )
        if self.n > ENUMERATION_CAP and self.planted_m is None:
            raise ValueError("planting uniformly over all labelings needs n <= cap")

    @property
    def approximate(self) -> bool:
        """True when the posterior is sampled rather than enumerated."""
        return self.n > ENUMERATION_CAP

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "n": self.n,
            "prior": prior_to_string(self.prior),
            "replications": self.replications,
            "master_seed": self.master_seed,
            "gamma": self.gamma,
            "thresholds": list(self.thresholds),
            "radius": self.radius,
        }
        for name in ("p", "q", "regime", "planted_m", "ball_radius", "m0", "m1", "out"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.first_values:
            out["first_values"] = list(self.first_values)
        if self.second_values:
            out["second_values"] = list(self.second_values)
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ValueError("experiment config must be a JSON object")
        version = obj.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported config schema_version {version!r}; expected {SCHEMA_VERSION}"
            )
        known = {
            "schema_version", "kind", "n", "prior", "replications", "master_seed",
            "p", "q", "regime", "first_values", "second_values", "planted_m",
            "gamma", "thresholds", "radius", "ball_radius", "m0", "m1", "out",
        }
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        required = ("kind", "n", "prior", "replications", "master_seed")
        for name in required:
            if name not in obj:
                raise ValueError(f"config is missing required field {name!r}")
        kwargs = dict(
            kind=obj["kind"],
            n=int(obj["n"]),
            prior=parse_prior(obj["prior"]),
            replications=int(obj["replications"]),
            master_seed=int(obj["master_seed"]),
        )
        for name in ("p", "q", "gamma"):
            if name in obj:
                kwargs[name] = float(obj[name])
        for name in ("planted_m", "ball_radius", "m0", "m1", "radius"):
            if name in obj and obj[name] is not None:
                kwargs[name] = int(obj[name])
        for name in ("regime", "out"):
            if name in obj:
                kwargs[name] = obj[name]
        if "thresholds" in obj:
            kwargs["thresholds"] = tuple(float(t) for t in obj["thresholds"])
        for name in ("first_values", "second_values"):
            if name in obj:
                kwargs[name] = tuple(float(v) for v in obj[name])
        return cls(**kwargs)


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[dict, ...]

    def write_csv(self, f: TextIO) -> None:
        writer = csv.DictWriter(f, fieldnames=_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: _format_cell(row.get(k)) for k in _COLUMNS})

    def csv_text(self) -> str:
        import io

        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _freq_se(p_hat: float, count: int) -> float:
    return math.sqrt(p_hat * (1.0 - p_hat) / count)


def _mean_se(values: list[float]) -> tuple[float, float]:
    arr = np.array(values)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(len(arr)))


def _parallel(fn: Callable[[int], object], count: int, threads: int) -> list:
    if threads <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def _plant(rng: np.random.Generator, n: int, planted_m: Optional[int]) -> LabelVector:
    if planted_m is None:
        words, _ = canonical_words(n)
        return LabelVector(n, int(words[int(rng.integers(len(words)))]))
    positions = rng.choice(n, size=planted_m, replace=False)
    word = 0
    for v in positions.tolist():
        word |= 1 << v
    return LabelVector(n, canonicalize_word(word, n))


def _plant_complement(
    rng: np.random.Generator, n: int, excluded_m: int
) -> LabelVector:
    words, ms = canonical_words(n)
    words = words[ms != excluded_m]
    return LabelVector(n, int(words[int(rng.integers(len(words)))]))


def _base_row(cfg: ExperimentConfig, **extra) -> dict:
    row = {
        "kind": cfg.kind,
        "cell": 0,
        "n": cfg.n,
        "p": cfg.p,
        "q": cfg.q,
        "prior": prior_to_string(cfg.prior),
        "planted_m": cfg.planted_m,
        "gamma": None,
        "threshold": None,
        "radius": None,
        "regime": None,
        "first": None,
        "second": None,
        "replications": cfg.replications,
    }
    row.update(extra)
    return row


def run_recovery(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Plant, sample, infer; report recovery frequency and posterior mass
    at and around the planted labeling, with the matching tail bounds."""
    if cfg.kind != RECOVERY:
        raise ValueError(f"config kind {cfg.kind!r} is not {RECOVERY!r}")
    model = EdgeModel(cfg.p, cfg.q)

    def one(rep: int) -> tuple[bool, float, float]:
        rng = derive_rng(cfg.master_seed, 0, rep)
        theta0 = _plant(rng, cfg.n, cfg.planted_m)
        graph = sample_graph(theta0, model, rng)
        if cfg.approximate:
            mcfg = McmcConfig.default(cfg.n, seed=int(rng.integers(1 << 62)))
            result = mcmc_posterior(graph, cfg.prior, model, mcfg)
            mode = posterior_mode(result.samples)
            hits = sum(1 for s in result.samples if s == theta0)
            point = hits / len(result.samples)
            ball = _sample_ball_mass(result, theta0, cfg.ball_radius)
        else:
            table = exact_posterior(graph, cfg.prior, model)
            mode = table.mode()
            point = table.probability(theta0)
            ball = (
                table.mass_of_ball(theta0, cfg.ball_radius)
                if cfg.ball_radius
                else None
            )
        return mode == theta0, point, ball

    records = _parallel(one, cfg.replications, threads)
    match_rate = sum(1 for hit, _, _ in records if hit) / cfg.replications
    point_mean, point_se = _mean_se([pt for _, pt, _ in records])
    tail_mean, tail_se = _mean_se([1.0 - pt for _, pt, _ in records])

    g = g_constant(cfg.prior).value
    c = bnd.neg_log_affinity(model)
    dense = bnd.point_tail_bound_dense(cfg.n, c, g)
    rows = [
        _base_row(cfg, metric="mode-match-rate", estimate=match_rate,
                  std_error=_freq_se(match_rate, cfg.replications)),
        _base_row(cfg, metric="mean-point-mass", estimate=point_mean,
                  std_error=point_se),
        _base_row(cfg, metric="mean-point-tail", estimate=tail_mean,
                  std_error=tail_se, bound_name=dense.name, bound=dense.value,
                  bound_inputs=dense.inputs),
    ]
    if cfg.ball_radius:
        ball_mean, ball_se = _mean_se([1.0 - b for _, _, b in records])
        ball = bnd.ball_tail_bound(
            cfg.n, alpha=cfg.ball_radius / cfg.n, beta=cfg.n * c, g=g
        )
        rows.append(
            _base_row(cfg, metric="mean-ball-tail", estimate=ball_mean,
                      std_error=ball_se, radius=cfg.ball_radius,
                      bound_name=ball.name, bound=ball.value,
                      bound_inputs=ball.inputs)
        )
    return ExperimentResult(config=cfg, rows=tuple(rows))


def _sample_ball_mass(result, theta0: LabelVector, radius: Optional[int]):
    if not radius:
        return None
    n = theta0.n
    hits = 0
    for s in result.samples:
        k = (s.word ^ theta0.word).bit_count()
        if min(k, n - k) < radius:
            hits += 1
    return hits / len(result.samples)


def run_coverage(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Empirical coverage of greedy credible sets and their enlargement,
    against the conversion lower bounds (clipped at 0)."""
    if cfg.kind != COVERAGE:
        raise ValueError(f"config kind {cfg.kind!r} is not {COVERAGE!r}")
    model = EdgeModel(cfg.p, cfg.q)

    def one(rep: int) -> tuple[bool, bool, float]:
        rng = derive_rng(cfg.master_seed, 0, rep)
        theta0 = _plant(rng, cfg.n, cfg.planted_m)
        graph = sample_graph(theta0, model, rng)
        table = exact_posterior(graph, cfg.prior, model)
        hpd = hpd_credible_set(table, cfg.gamma)
        enlarged = enlarge(hpd, cfg.radius)
        return theta0 in hpd, theta0 in enlarged, 1.0 - table.probability(theta0)

    records = _parallel(one, cfg.replications, threads)
    cov = sum(1 for c, _, _ in records if c) / cfg.replications
    cov_enl = sum(1 for _, c, _ in records if c) / cfg.replications

    g = g_constant(cfg.prior).value
    c = bnd.neg_log_affinity(model)
    dense = bnd.point_tail_bound_dense(cfg.n, c, g)
    ball = bnd.ball_tail_bound(
        cfg.n, alpha=max(cfg.radius, 1) / cfg.n, beta=cfg.n * c, g=g
    )
    rows = [
        _base_row(cfg, metric="hpd-coverage", estimate=cov,
                  std_error=_freq_se(cov, cfg.replications), gamma=cfg.gamma,
                  bound_name="coverage-from-point-tail",
                  bound=max(0.0, 1.0 - dense.value / (1.0 - cfg.gamma)),
                  bound_inputs={**dense.inputs, "gamma": cfg.gamma}),
        _base_row(cfg, metric="enlarged-coverage", estimate=cov_enl,
                  std_error=_freq_se(cov_enl, cfg.replications), gamma=cfg.gamma,
                  radius=cfg.radius,
                  bound_name="coverage-from-ball-tail",
                  bound=max(0.0, 1.0 - ball.value / (1.0 - cfg.gamma)),
                  bound_inputs={**ball.inputs, "gamma": cfg.gamma}),
    ]
    return ExperimentResult(config=cfg, rows=tuple(rows))


def run_test_error(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Type I/II frequencies of the posterior-odds test, with the error
    bounds evaluated at rates estimated from the same replications."""
    if cfg.kind != TEST_ERROR:
        raise ValueError(f"config kind {cfg.kind!r} is not {TEST_ERROR!r}")
    model = EdgeModel(cfg.p, cfg.q)
    words, ms = canonical_words(cfg.n)

    def one_side(side: int, planted: Callable) -> list[tuple[float, float, float]]:
        def one(rep: int):
            rng = derive_rng(cfg.master_seed, side, rep)
            theta0 = planted(rng)
            graph = sample_graph(theta0, model, rng)
            table = exact_posterior(graph, cfg.prior, model)
            sel_a = table.class_sizes == cfg.m0
            sel_b = (table.class_sizes == cfg.m1) if cfg.m1 is not None else ~sel_a
            log_f = (log_sum_exp(table.log_unnormalized[sel_b])
                     - log_sum_exp(table.log_unnormalized[sel_a]))
            return (
                log_f,
                float(table.probabilities[sel_a].sum()),
                float(table.probabilities[sel_b].sum()),
            )

        return _parallel(one, cfg.replications, threads)

    def plant_null(rng):
        return _plant(rng, cfg.n, cfg.m0)

    def plant_alt(rng):
        if cfg.m1 is not None:
            return _plant(rng, cfg.n, cfg.m1)
        return _plant_complement(rng, cfg.n, cfg.m0)

    null_records = one_side(0, plant_null)
    alt_records = one_side(1, plant_alt)

    a_hat = float(np.mean([1.0 - pa for _, pa, _ in null_records]))
    b_hat = float(np.mean([pb for _, _, pb in null_records]))
    a_hat_alt = float(np.mean([1.0 - pb for _, _, pb in alt_records]))

    rows = []
    for t in cfg.thresholds:
        log_t = math.log(t)
        type1 = sum(1 for lf, _, _ in null_records if lf > log_t) / cfg.replications
        type2 = sum(1 for lf, _, _ in alt_records if lf <= log_t) / cfg.replications
        rows.append(
            _base_row(cfg, metric="type1-rate", threshold=t, estimate=type1,
                      std_error=_freq_se(type1, cfg.replications),
                      bound_name="odds-error-one-sided",
                      bound=2.0 * a_hat * (1.0 + 1.0 / t),
                      bound_inputs={"a_hat": a_hat, "b_hat": b_hat, "t": t,
                                    "m0": cfg.m0, "m1": cfg.m1})
        )
        rows.append(
            _base_row(cfg, metric="type2-rate", threshold=t, estimate=type2,
                      std_error=_freq_se(type2, cfg.replications),
                      bound_name="odds-error-one-sided-reversed",
                      bound=2.0 * a_hat_alt * (1.0 + t),
                      bound_inputs={"a_hat_alt": a_hat_alt, "t": t,
                                    "m0": cfg.m0, "m1": cfg.m1})
        )
    return ExperimentResult(config=cfg, rows=tuple(rows))


def run_phase_diagram(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Sweep a sparsity grid; per cell, recovery frequency and ball mass
    with the theoretical separation statistic for overlay."""
    if cfg.kind != PHASE_DIAGRAM:
        raise ValueError(f"config kind {cfg.kind!r} is not {PHASE_DIAGRAM!r}")
    cells = [
        (a, b) for a in cfg.first_values for b in cfg.second_values
    ]
    radius = cfg.ball_radius or 1

    def one(task: int):
        cell, rep = divmod(task, cfg.replications)
        a, b = cells[cell]
        model = edge_probs_from_sparsity(SparsityParams(cfg.regime, a, b, cfg.n))
        rng = derive_rng(cfg.master_seed, cell, rep)
        theta0 = _plant(rng, cfg.n, cfg.planted_m)
        graph = sample_graph(theta0, model, rng)
        table = exact_posterior(graph, cfg.prior, model)
        return table.mode() == theta0, table.mass_of_ball(theta0, radius)

    records = _parallel(one, len(cells) * cfg.replications, threads)
    rows = []
    for cell, (a, b) in enumerate(cells):
        chunk = records[cell * cfg.replications:(cell + 1) * cfg.replications]
        rate = sum(1 for hit, _ in chunk if hit) / cfg.replications
        ball_mean, ball_se = _mean_se([bm for _, bm in chunk])
        if cfg.regime == CHERNOFF_HELLINGER:
            cond_name = "ch-recovery-margin"
            cond = bnd.ch_recovery_margin(a, b, cfg.n)
        else:
            cond_name = "ks-separation"
            cond = (math.sqrt(a) - math.sqrt(b)) ** 2
        common = dict(cell=cell, regime=cfg.regime, first=a, second=b,
                      p=None, q=None)
        rows.append(
            _base_row(cfg, metric="recovery-rate", estimate=rate,
                      std_error=_freq_se(rate, cfg.replications),
                      bound_name=cond_name, bound=cond,
                      bound_inputs={"first": a, "second": b, "n": cfg.n},
                      **common)
        )
        rows.append(
            _base_row(cfg, metric="mean-ball-mass", estimate=ball_mean,
                      std_error=ball_se, radius=radius, **common)
        )
    return ExperimentResult(config=cfg, rows=tuple(rows))


def run_bound_check(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Monte Carlo tail masses next to the closed-form bounds that are
    supposed to dominate them."""
    if cfg.kind != BOUND_CHECK:
        raise ValueError(f"config kind {cfg.kind!r} is not {BOUND_CHECK!r}")
    model = EdgeModel(cfg.p, cfg.q)

    def one(rep: int):
        rng = derive_rng(cfg.master_seed, 0, rep)
        theta0 = _plant(rng, cfg.n, cfg.planted_m)
        graph = sample_graph(theta0, model, rng)
        table = exact_posterior(graph, cfg.prior, model)
        point_tail = 1.0 - table.probability(theta0)
        ball_tail = (
            1.0 - table.mass_of_ball(theta0, cfg.ball_radius)
            if cfg.ball_radius
            else None
        )
        return point_tail, ball_tail

    records = _parallel(one, cfg.replications, threads)
    tail_mean, tail_se = _mean_se([pt for pt, _ in records])

    # the pairwise bound depends on the planted labeling only through its
    # class size, so one representative is enough
    rep_rng = derive_rng(cfg.master_seed, 0, 0)
    theta_rep = _plant(rep_rng, cfg.n, cfg.planted_m)
    others = [th for th in enumerate_labelings(cfg.n) if th != theta_rep]
    pairwise = bnd.expected_mass_bound(theta_rep, others, cfg.prior, model)

    g = g_constant(cfg.prior).value
    c = bnd.neg_log_affinity(model)
    dense = bnd.point_tail_bound_dense(cfg.n, c, g)
    rows = [
        _base_row(cfg, metric="mean-point-tail", estimate=tail_mean,
                  std_error=tail_se, bound_name="pairwise-expected-mass",
                  bound=pairwise,
                  bound_inputs={"n": cfg.n, "p": cfg.p, "q": cfg.q,
                                "planted_m": theta_rep.m}),
        _base_row(cfg, metric="mean-point-tail", estimate=tail_mean,
                  std_error=tail_se, bound_name=dense.name, bound=dense.value,
                  bound_inputs=dense.inputs),
    ]
    if cfg.ball_radius:
        ball_mean, ball_se = _mean_se([bt for _, bt in records])
        ball = bnd.ball_tail_bound(
            cfg.n, alpha=cfg.ball_radius / cfg.n, beta=cfg.n * c, g=g
        )
        rows.append(
            _base_row(cfg, metric="mean-ball-tail", estimate=ball_mean,
                      std_error=ball_se, radius=cfg.ball_radius,
                      bound_name=ball.name, bound=ball.value,
                      bound_inputs=ball.inputs)
        )
    return ExperimentResult(config=cfg, rows=tuple(rows))


_RUNNERS = {
    RECOVERY: run_recovery,
    COVERAGE: run_coverage,
    TEST_ERROR: run_test_error,
    PHASE_DIAGRAM: run_phase_diagram,
    BOUND_CHECK: run_bound_check,
}


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    return _RUNNERS[cfg.kind](cfg, threads)


def write_result(result: ExperimentResult, csv_path: str) -> str:
    """Write the result CSV plus a metadata sidecar; returns sidecar path.

    The sidecar records the config echo and a hash of the CSV bytes; its
    timestamp is informational and not part of the determinism contract.
    """
    text = result.csv_text()
    with open(csv_path, "w", newline="") as f:
        f.write(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    meta = {
        "schema_version": SCHEMA_VERSION,
        "config": result.config.to_json_dict(),
        "csv_sha256": digest,
        "approximate": result.config.approximate,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    meta_path = csv_path + ".meta.json"
    with open(meta_path, "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    return meta_path
