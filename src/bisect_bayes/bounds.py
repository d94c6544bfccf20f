"""Closed-form concentration bounds and the supporting inequality grids.

Bound values are reported unclipped (they may exceed 1); consumers clip at
1 when reading them as probabilities. All formulas are evaluated in log
space and exponentiated last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .model import EdgeModel, LabelVector, hamming, num_labelings
from .posterior import log_sum_exp
from .priors import PriorSpec, log_mass_by_class_size

__all__ = [
    "BoundReport",
    "InequalityCheck",
    "hellinger_affinity",
    "rho_upper_bound",
    "neg_log_affinity",
    "expected_mass_bound",
    "pairwise_mass_bound",
    "point_tail_bound_uniform",
    "point_tail_bound_dense",
    "ch_recovery_margin",
    "ball_tail_bound",
    "ball_tail_bound_ks",
    "detectability_sandwich",
    "inequality_suite",
]

_LOG_2SQRT2 = math.log(2.0) + 0.5 * math.log(2.0)


@dataclass(frozen=True)
class BoundReport:
    """A named bound value with the parameters that produced it."""

    name: str
    value: float
    inputs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (self.value >= 0.0):
            raise ValueError(f"bound value must be nonnegative, got {self.value}")

    @property
    def value_clipped(self) -> float:
        """Bound clipped at 1 for interpretation as a probability."""
        return min(self.value, 1.0)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "value_clipped": self.value_clipped,
            "inputs": dict(self.inputs),
        }


def _check_open_unit(name: str, value: float) -> None:
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name}={value} must lie strictly in (0, 1)")


def hellinger_affinity(p: float, q: float) -> float:
    """sqrt(pq) + sqrt((1-p)(1-q)); 1 exactly when p == q."""
    _check_open_unit("p", p)
    _check_open_unit("q", q)
    return math.sqrt(p * q) + math.sqrt((1.0 - p) * (1.0 - q))


def rho_upper_bound(p: float, q: float) -> float:
    """1 - (sqrt(p)-sqrt(q))^2/2 + pq/4, dominating the affinity pointwise."""
    _check_open_unit("p", p)
    _check_open_unit("q", q)
    return 1.0 - 0.5 * (math.sqrt(p) - math.sqrt(q)) ** 2 + p * q / 4.0


def neg_log_affinity(model: EdgeModel) -> float:
    """-log of the edge-distribution affinity; default rate constant c."""
    return -math.log(hellinger_affinity(model.p, model.q))


def _mass_bound(
    theta: LabelVector, b: int, counts: np.ndarray, prior: PriorSpec, model: EdgeModel
) -> float:
    """affinity^b times the sum of sqrt prior-mass ratios to theta over a
    set holding counts[m'] labelings of each class size m'."""
    log_mass = np.asarray(log_mass_by_class_size(prior, theta.n))
    half = 0.5 * (log_mass - log_mass[theta.m])
    rho = hellinger_affinity(model.p, model.q)
    return math.exp(b * math.log(rho) + log_sum_exp(half, counts))


def expected_mass_bound(
    theta: LabelVector,
    s: Iterable[LabelVector],
    prior: PriorSpec,
    model: EdgeModel,
) -> float:
    """Bound on the expected posterior mass of the set s under theta.

    affinity^B times the sum over s of sqrt prior-mass ratios, with B the
    minimum over s of k(n - k) (the discrepancy pair count at Hamming
    distance k).
    """
    members = list(s)
    if not members:
        raise ValueError("target set must be nonempty")
    n = theta.n
    distances = [hamming(theta, eta) for eta in members]
    if 0 in distances:
        raise ValueError("target set must not contain theta")
    b = min(k * (n - k) for k in distances)
    counts = np.bincount([eta.m for eta in members], minlength=n // 2 + 1)
    return _mass_bound(theta, b, counts, prior, model)


def pairwise_mass_bound(theta: LabelVector, prior: PriorSpec, model: EdgeModel) -> float:
    """expected_mass_bound over every canonical labeling other than theta,
    summed over class sizes.

    The prior mass of a labeling depends on it only through its class size,
    so the sum runs over the n//2 + 1 class sizes, each weighted by its
    number of labelings. B is n - 1: flipping one vertex of theta gives a
    labeling whose canonical form lies one flip or n - 1 flips away, and
    every other labeling lies at a distance k with k(n - k) >= n - 1.
    """
    n = theta.n
    # float64, since the counts leave the int64 range past n = 66
    counts = np.array([num_labelings(n, m) - (m == theta.m) for m in range(n // 2 + 1)],
                      dtype=np.float64)
    if not counts.any():
        raise ValueError("target set must be nonempty")
    return _mass_bound(theta, n - 1, counts, prior, model)


def point_tail_bound_uniform(n: int, alpha: float) -> BoundReport:
    """Expected posterior mass off the true labeling, uniform prior,
    rate alpha from -log(affinity) >= alpha log(n)/n:
    2 n^(1-alpha/2) exp(n^(1-alpha/2))."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    power = math.exp((1.0 - alpha / 2.0) * math.log(n))
    log_value = math.log(2.0) + (1.0 - alpha / 2.0) * math.log(n) + power
    return BoundReport(
        name="point-tail-uniform",
        value=math.exp(log_value),
        inputs={"n": n, "alpha": alpha},
    )


def point_tail_bound_dense(n: int, c: float, g: float) -> BoundReport:
    """Expected posterior mass off the true labeling, any supported prior
    with tilt constant g, rate c >= -log(affinity):
    2 sqrt(2) n exp(-(2c-g)n/4) exp(n exp(-cn/2))."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    log_value = (
        _LOG_2SQRT2
        + math.log(n)
        - (2.0 * c - g) * n / 4.0
        + n * math.exp(-c * n / 2.0)
    )
    return BoundReport(
        name="point-tail-dense",
        value=math.exp(log_value),
        inputs={"n": n, "c": c, "g": g},
    )


def ch_recovery_margin(a: float, b: float, n: int) -> float:
    """Sufficient-condition margin in the log-degree sparsity regime:
    ((sqrt(a)-sqrt(b))^2 - 4 - ab log(n)/(2n)) log(n).

    Positive, growing values indicate the exact-recovery phase.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    log_n = math.log(n)
    return ((math.sqrt(a) - math.sqrt(b)) ** 2 - 4.0 - a * b * log_n / (2.0 * n)) * log_n


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"ball radius fraction alpha={alpha} must lie in (0, 1)")


def ball_tail_bound(n: int, alpha: float, beta: float, g: float) -> BoundReport:
    """Expected posterior mass outside the radius-ceil(alpha n) ball, with
    rate beta from -log(affinity) >= beta/n:
    2 sqrt(2) exp(-alpha n (log(alpha) + beta/2 - 1 - g/alpha)/4)."""
    _check_alpha(alpha)
    log_value = _LOG_2SQRT2 - alpha * n * (
        math.log(alpha) + beta / 2.0 - 1.0 - g / alpha
    ) / 4.0
    return BoundReport(
        name="ball-tail",
        value=math.exp(log_value),
        inputs={"n": n, "alpha": alpha, "beta": beta, "g": g},
    )


def ball_tail_bound_ks(
    n: int, alpha: float, c: float, d: float, g: float
) -> BoundReport:
    """Ball-tail bound in the constant-degree regime p = c/n, q = d/n:
    2 sqrt(2) exp(-alpha n (log(alpha) + (sqrt(c)-sqrt(d))^2/4
                            - cd/(8n) - 1 - g/alpha)/4)."""
    _check_alpha(alpha)
    sep = (math.sqrt(c) - math.sqrt(d)) ** 2
    log_value = _LOG_2SQRT2 - 0.25 * alpha * n * (
        math.log(alpha) + 0.25 * sep - c * d / (8.0 * n) - 1.0 - g / alpha
    )
    return BoundReport(
        name="ball-tail-ks",
        value=math.exp(log_value),
        inputs={"n": n, "alpha": alpha, "c": c, "d": d, "g": g},
    )


def detectability_sandwich(c: float, d: float) -> tuple[float, float, float]:
    """((sqrt(c)-sqrt(d))^2, (c-d)^2/(c+d), 2(sqrt(c)-sqrt(d))^2).

    The middle term is the classic detectability statistic; the outer terms
    show the separation criterion is equivalent to it.
    """
    if c <= 0 or d <= 0:
        raise ValueError(f"rates must be positive, got c={c}, d={d}")
    lower = (math.sqrt(c) - math.sqrt(d)) ** 2
    mid = (c - d) ** 2 / (c + d)
    upper = 2.0 * lower
    if not (lower <= mid * (1 + 1e-12) + 1e-15 and mid <= upper * (1 + 1e-12) + 1e-15):
        raise AssertionError(f"sandwich violated: {lower} <= {mid} <= {upper}")
    return lower, mid, upper


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    grid_points: int
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


# Grid resolutions are fixed so CI runs are deterministic.
_UNIT_STEP = 0.01
_REL_TOL = 1e-12


def _leq(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return lhs <= rhs * (1 + _REL_TOL) + 1e-15


def _check_geometric_tail() -> InequalityCheck:
    """exp(-Cx)/(1-exp(-x)) <= exp(-Cx/4) for C >= 2, x >= sqrt(2/C)."""
    total = 0
    bad = []
    for c in np.arange(2.0, 100.0 + 1e-9, 0.5):
        x = np.arange(math.sqrt(2.0 / c), 10.0 + 1e-9, _UNIT_STEP)
        lhs = np.exp(-c * x) / -np.expm1(-x)
        rhs = np.exp(-c * x / 4.0)
        total += len(x)
        for i in np.nonzero(~_leq(lhs, rhs))[0]:
            bad.append((float(c), float(x[i]), float(lhs[i]), float(rhs[i])))
    return InequalityCheck("geometric-tail", total, tuple(bad))


def _check_sqrt_upper() -> InequalityCheck:
    """sqrt(1-x) <= 1 - x/2 on [0, 1]."""
    x = np.arange(0.0, 1.0 + 1e-9, _UNIT_STEP)
    lhs = np.sqrt(1.0 - x)
    rhs = 1.0 - x / 2.0
    bad = [(float(x[i]), float(lhs[i]), float(rhs[i]))
           for i in np.nonzero(~_leq(lhs, rhs))[0]]
    return InequalityCheck("sqrt-upper", len(x), tuple(bad))


def _check_compound_exp() -> InequalityCheck:
    """(1 + x/r)^r <= exp(x) for integer r >= 1 and x > -r."""
    total = 0
    bad = []
    for r in range(1, 51):
        x = np.arange(-r + _UNIT_STEP, 50.0 + 1e-9, _UNIT_STEP)
        lhs = (1.0 + x / r) ** r
        rhs = np.exp(x)
        total += len(x)
        for i in np.nonzero(~_leq(lhs, rhs))[0]:
            bad.append((r, float(x[i]), float(lhs[i]), float(rhs[i])))
    return InequalityCheck("compound-exp", total, tuple(bad))


def _check_binomial_profile_sum() -> InequalityCheck:
    """sum_k C(n,k) x^(k(n-k)) over 1..n-1 is at most 2((1+x^(n/2))^n - 1),
    which is at most 2n x^(n/2) exp(n x^(n/2)), for x in [0, 1]."""
    total = 0
    bad = []
    x = np.arange(0.0, 1.0 + 1e-9, _UNIT_STEP)
    for n in range(2, 41):
        direct = np.zeros_like(x)
        for k in range(1, n):
            direct += math.comb(n, k) * x ** (k * (n - k))
        half_pow = x ** (n / 2.0)
        # expm1/log1p form of 2((1+y)^n - 1): the naive power cancels
        # catastrophically for tiny y
        middle = 2.0 * np.expm1(n * np.log1p(half_pow))
        outer = 2.0 * n * half_pow * np.exp(n * half_pow)
        total += len(x)
        for i in np.nonzero(~(_leq(direct, middle) & _leq(middle, outer)))[0]:
            bad.append((n, float(x[i]), float(direct[i]), float(middle[i]), float(outer[i])))
    return InequalityCheck("binomial-profile-sum", total, tuple(bad))


def _check_detectability_sandwich_grid() -> InequalityCheck:
    """Sandwich ordering on a dense rate grid (0, 50]^2."""
    vals = np.arange(0.5, 50.0 + 1e-9, 0.5)
    total = 0
    bad = []
    for c in vals:
        sqrt_diff = (math.sqrt(c) - np.sqrt(vals)) ** 2
        mid = (c - vals) ** 2 / (c + vals)
        total += len(vals)
        okmask = _leq(sqrt_diff, mid) & _leq(mid, 2.0 * sqrt_diff)
        for i in np.nonzero(~okmask)[0]:
            bad.append((float(c), float(vals[i])))
    return InequalityCheck("detectability-sandwich", total, tuple(bad))


def inequality_suite() -> list[InequalityCheck]:
    """Deterministic grid verification of the auxiliary inequalities the
    bound derivations rest on. Any violation is a build-breaking defect."""
    return [
        _check_geometric_tail(),
        _check_sqrt_upper(),
        _check_compound_exp(),
        _check_binomial_profile_sum(),
        _check_detectability_sandwich_grid(),
    ]
