"""Hierarchical priors on canonical labelings.

All three families put a distribution on the smaller-class size m and the
uniform distribution on labelings given m. Masses are folded over the
global label complement so they normalize over canonical labelings, and
every computation runs in the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .model import LabelVector

__all__ = [
    "FixedBernoulli",
    "BetaBernoulli",
    "UniformClassSize",
    "PriorSpec",
    "GConstant",
    "parse_prior",
    "prior_to_string",
    "log_prior_mass",
    "log_mass_by_class_size",
    "class_size_marginal",
    "g_constant",
    "prior_mass_ratio_bound",
    "bernoulli_ratio_sandwich_violations",
    "beta_ratio_bound_violations",
]


@dataclass(frozen=True)
class FixedBernoulli:
    """Each vertex label iid Bernoulli(r), folded to canonical form."""

    r: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0):
            raise ValueError(f"Bernoulli rate r={self.r} must lie strictly in (0, 1)")


@dataclass(frozen=True)
class BetaBernoulli:
    """Bernoulli rate drawn from Beta(alpha, beta), then labels iid, folded."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError(
                f"Beta parameters must be positive, got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class UniformClassSize:
    """Uniform on the smaller-class size, uniform on labelings given size."""


PriorSpec = Union[FixedBernoulli, BetaBernoulli, UniformClassSize]


def parse_prior(text: str) -> PriorSpec:
    """Parse the CLI prior syntax.

    bernoulli:r=0.5 | beta:alpha=1,beta=1 | uniform-m
    """
    if text == "uniform-m":
        return UniformClassSize()
    kind, sep, args = text.partition(":")
    if not sep:
        raise ValueError(f"unrecognized prior {text!r}")
    kv = {}
    for part in args.split(","):
        key, eq, val = part.partition("=")
        if not eq:
            raise ValueError(f"bad prior argument {part!r} in {text!r}")
        try:
            kv[key.strip()] = float(val)
        except ValueError:
            raise ValueError(f"bad numeric value {val!r} in prior {text!r}") from None
    if kind == "bernoulli":
        if set(kv) != {"r"}:
            raise ValueError(f"bernoulli prior takes exactly r=..., got {text!r}")
        return FixedBernoulli(r=kv["r"])
    if kind == "beta":
        if set(kv) != {"alpha", "beta"}:
            raise ValueError(f"beta prior takes alpha=...,beta=..., got {text!r}")
        return BetaBernoulli(alpha=kv["alpha"], beta=kv["beta"])
    raise ValueError(f"unrecognized prior {text!r}")


def prior_to_string(prior: PriorSpec) -> str:
    if isinstance(prior, FixedBernoulli):
        return f"bernoulli:r={prior.r!r}"
    if isinstance(prior, BetaBernoulli):
        return f"beta:alpha={prior.alpha!r},beta={prior.beta!r}"
    return "uniform-m"


def _log_canonical_count(n: int, m: int) -> float:
    """log of the number of canonical labelings with smaller-class size m."""
    if m < 0 or 2 * m > n:
        return -math.inf
    log_comb = math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
    if 2 * m == n:
        log_comb -= math.log(2.0)
    return log_comb


def _folded_bernoulli_log_mass(m: np.ndarray, n: int, r: float) -> np.ndarray:
    lr, l1r = math.log(r), math.log1p(-r)
    return np.logaddexp(m * lr + (n - m) * l1r, (n - m) * lr + m * l1r)


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0, from three math.lgamma values."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _folded_beta_log_mass(
    m: np.ndarray, n: int, alpha: float, beta: float
) -> np.ndarray:
    ks = m.tolist()
    return np.logaddexp(
        np.array([_log_beta(k + alpha, n - k + beta) for k in ks]),
        np.array([_log_beta(n - k + alpha, k + beta) for k in ks]),
    ) - _log_beta(alpha, beta)


@lru_cache(maxsize=64)
def log_mass_by_class_size(prior: PriorSpec, n: int) -> np.ndarray:
    """Per-labeling log prior mass, indexed by smaller-class size 0..n//2.

    The folded complement term is included at every m, including m == n/2
    where it doubles the unfolded mass; this is what makes the prior sum to
    one over the halved top slice.
    """
    m = np.arange(n // 2 + 1, dtype=np.float64)
    if isinstance(prior, FixedBernoulli):
        out = _folded_bernoulli_log_mass(m, n, prior.r)
    elif isinstance(prior, BetaBernoulli):
        out = _folded_beta_log_mass(m, n, prior.alpha, prior.beta)
    elif isinstance(prior, UniformClassSize):
        counts = np.array([_log_canonical_count(n, k) for k in range(n // 2 + 1)])
        out = -math.log(1 + n // 2) - counts
    else:
        raise TypeError(f"unknown prior {prior!r}")
    out.setflags(write=False)
    return out


def log_prior_mass(theta: LabelVector, prior: PriorSpec) -> float:
    """Log prior mass of a single canonical labeling."""
    return float(log_mass_by_class_size(prior, theta.n)[theta.m])


def class_size_marginal(prior: PriorSpec, n: int) -> np.ndarray:
    """Prior probability of each smaller-class size 0..n//2."""
    log_mass = log_mass_by_class_size(prior, n)
    log_counts = np.array([_log_canonical_count(n, m) for m in range(n // 2 + 1)])
    return np.exp(log_counts + log_mass)


@dataclass(frozen=True)
class GConstant:
    """Prior tilt constant g entering the concentration bounds."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"g must be nonnegative, got {self.value}")


def g_constant(prior: PriorSpec) -> GConstant:
    """Minimal admissible g for the given prior family."""
    if isinstance(prior, FixedBernoulli):
        # |log r - log(1-r)| rather than log(max(odds)) for numerical symmetry
        return GConstant(abs(math.log(prior.r) - math.log1p(-prior.r)))
    if isinstance(prior, BetaBernoulli):
        return GConstant(2.0 + 2.0 * math.log(2.0))
    if isinstance(prior, UniformClassSize):
        return GConstant(1.0 + math.log(2.0))
    raise TypeError(f"unknown prior {prior!r}")


def prior_mass_ratio_bound(prior: PriorSpec, n: int) -> float:
    """Upper bound on max over labeling pairs of the prior mass ratio."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if isinstance(prior, FixedBernoulli):
        log_odds = abs(math.log(prior.r) - math.log1p(-prior.r))
        if log_odds == 0.0:
            return 1.0
        return 2.0 * math.exp(log_odds * (n // 2))
    if isinstance(prior, BetaBernoulli):
        return math.exp(n * math.log(2.0 * math.e))
    if isinstance(prior, UniformClassSize):
        return math.exp(0.5 * n * math.log(2.0 * math.e))
    raise TypeError(f"unknown prior {prior!r}")


def bernoulli_ratio_sandwich_violations(
    rates: np.ndarray | None = None, n_values: range | None = None
) -> list[tuple]:
    """Grid check: the folded Bernoulli mass ratio mass(m1)/mass(m2) lies in
    [R/2, 2R] with R = max(r/(1-r), (1-r)/r) ** (m2 - m1).

    Returns the violating grid points (empty on success).
    """
    if rates is None:
        rates = np.arange(0.05, 0.951, 0.05)
    if n_values is None:
        n_values = range(2, 31)
    bad = []
    for n in n_values:
        ms = np.arange(n // 2 + 1, dtype=np.float64)
        for r in rates:
            log_mass = _folded_bernoulli_log_mass(ms, n, float(r))
            log_odds = abs(math.log(r) - math.log1p(-r))
            for m1 in range(n // 2 + 1):
                # vectorized over m2
                log_ratio = log_mass[m1] - log_mass
                log_r_bound = log_odds * (ms - m1)
                lo = log_r_bound - math.log(2.0) - 1e-9
                hi = log_r_bound + math.log(2.0) + 1e-9
                viol = (log_ratio < lo) | (log_ratio > hi)
                for m2 in np.nonzero(viol)[0]:
                    bad.append((n, float(r), m1, int(m2)))
    return bad


def beta_ratio_bound_violations(
    params: list[tuple[float, float]] | None = None, n_max: int = 30
) -> list[tuple]:
    """Grid check: folded Beta mass ratios are at most (2e)^n whenever
    n >= alpha + beta - 2. Returns violating grid points.
    """
    if params is None:
        params = [(a, b) for a in (0.5, 1.0, 2.0, 5.0) for b in (0.5, 1.0, 2.0, 5.0)]
    bad = []
    for alpha, beta in params:
        n_min = max(2, math.ceil(alpha + beta - 2))
        for n in range(n_min, n_max + 1):
            ms = np.arange(n // 2 + 1, dtype=np.float64)
            log_mass = _folded_beta_log_mass(ms, n, alpha, beta)
            log_limit = n * math.log(2.0 * math.e)
            spread = float(log_mass.max() - log_mass.min())
            if spread > log_limit + 1e-9:
                bad.append((alpha, beta, n, spread, log_limit))
    return bad
