"""Credible sets, their enlargement and confidence conversion, and
posterior-odds testing between label-vector hypotheses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import EdgeModel, Graph, LabelVector, canonical_words
from .posterior import PosteriorTable, exact_posterior, log_sum_exp
from .priors import PriorSpec

__all__ = [
    "CredibleSet",
    "EnlargedSet",
    "OddsTestResult",
    "hpd_credible_set",
    "enlarge",
    "confidence_lower_bound",
    "posterior_odds",
    "odds_error_bounds",
    "class_size_test",
]


@dataclass(frozen=True)
class CredibleSet:
    """Set of labelings with posterior mass at least 1 - gamma."""

    members: frozenset[LabelVector]
    gamma: float
    achieved_mass: float

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("credible set must be nonempty")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma={self.gamma} must lie in (0, 1)")
        if self.achieved_mass < 1.0 - self.gamma - 1e-12:
            raise ValueError(
                f"achieved mass {self.achieved_mass} below credible level "
                f"{1.0 - self.gamma}"
            )

    def __contains__(self, theta: LabelVector) -> bool:
        return theta in self.members

    @property
    def n(self) -> int:
        return next(iter(self.members)).n


@dataclass(frozen=True)
class EnlargedSet:
    """A credible set widened by a distance radius, for frequentist coverage."""

    base: CredibleSet
    radius: int
    members: frozenset[LabelVector]

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"radius must be nonnegative, got {self.radius}")
        if not self.base.members <= self.members:
            raise ValueError("enlargement must contain its base")

    def __contains__(self, theta: LabelVector) -> bool:
        return theta in self.members


# Relative rounding of the level mass sums is at most about 1e-16 times the
# number of labelings, below 1e-9 up to the enumeration cap.
_HPD_MARGIN = 1e-9


def hpd_credible_set(table: PosteriorTable, gamma: float) -> CredibleSet:
    """Greedy highest-posterior-density set: add labelings in decreasing
    mass (ties lexicographic) until the cumulative mass reaches 1 - gamma.

    Only labelings at or above a cutoff are sorted. Equal probabilities are
    all above the cutoff or all below it, so those labelings are a prefix
    of the full order. The cutoff is the first level, taken in decreasing
    mass, at which the level masses clear 1 - gamma with a margin for
    rounding; should the greedy sum still run out, the full order is used.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma={gamma} must lie in (0, 1)")
    target = 1.0 - gamma
    prob, count = table.level_masses()
    by_mass = np.argsort(-prob, kind="stable")
    reached = np.cumsum(prob[by_mass] * count[by_mass])
    cut = min(int(np.searchsorted(reached, target + _HPD_MARGIN)), len(by_mass) - 1)
    candidates = np.flatnonzero(table.probabilities >= prob[by_mass[cut]])
    members, mass = _greedy(table, candidates, target)
    if mass < target and len(candidates) < len(table):
        members, mass = _greedy(table, np.arange(len(table)), target)
    return CredibleSet(members=frozenset(members), gamma=gamma, achieved_mass=mass)


def _greedy(table: PosteriorTable, indices: np.ndarray,
            target: float) -> tuple[list[LabelVector], float]:
    """Add labelings from ``indices`` in decreasing probability, ties in
    index order, until their mass reaches ``target``."""
    order = indices[np.argsort(-table.probabilities[indices], kind="stable")]
    members = []
    mass = 0.0
    for k in order:
        members.append(LabelVector(table.n, int(table.words[k])))
        mass += float(table.probabilities[k])
        if mass >= target:
            break
    return members, mass


def enlarge(credible: CredibleSet, radius: int) -> EnlargedSet:
    """All labelings within complement-folded distance < radius of some
    member, together with the set itself. radius 0 adds nothing."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    n = credible.n
    if radius == 0:
        return EnlargedSet(base=credible, radius=0, members=credible.members)
    words, _ = canonical_words(n)
    keep = np.zeros(len(words), dtype=bool)
    for member in credible.members:
        k = np.bitwise_count(words ^ np.uint32(member.word)).astype(np.int64)
        keep |= np.minimum(k, n - k) < radius
    members = {LabelVector(n, int(w)) for w in words[keep]}
    members.update(credible.members)
    return EnlargedSet(base=credible, radius=radius, members=frozenset(members))


def confidence_lower_bound(x_n: float, gamma: float) -> float:
    """Frequentist coverage lower bound 1 - x_n/(1 - gamma) for a
    1 - gamma credible set, given the expected off-target posterior mass
    x_n. May be nonpositive (vacuous); returned unclipped."""
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma={gamma} must lie in (0, 1)")
    return 1.0 - x_n / (1.0 - gamma)


def posterior_odds(
    table: PosteriorTable,
    a_set: Callable[[LabelVector], bool],
    b_set: Callable[[LabelVector], bool],
) -> float:
    """log posterior odds of b_set against a_set.

    The sets must be disjoint and a_set must carry positive mass. Computed
    via log-sum-exp over unnormalized masses, so the normalizer cancels.
    """
    sel_a = np.zeros(len(table), dtype=bool)
    sel_b = np.zeros(len(table), dtype=bool)
    for k, theta in enumerate(table.labelings()):
        in_a = bool(a_set(theta))
        in_b = bool(b_set(theta))
        if in_a and in_b:
            raise ValueError(f"hypothesis sets overlap at {theta}")
        sel_a[k] = in_a
        sel_b[k] = in_b
    if not sel_a.any():
        raise ValueError("null set carries no posterior mass")
    lu = table.log_unnormalized
    return log_sum_exp(lu[sel_b]) - log_sum_exp(lu[sel_a])


def odds_error_bounds(
    a_n: float, t_n: float, b_n: Optional[float] = None
) -> tuple[float, Optional[float]]:
    """Frequentist error bounds for the posterior-odds test at threshold t:
    2 a (1 + 1/t), and 2a + 2b/t when a bound b on the alternative's
    expected mass is available."""
    if not (0.0 < a_n < 1.0):
        raise ValueError(f"a_n={a_n} must lie in (0, 1)")
    if t_n <= 0:
        raise ValueError(f"threshold t_n={t_n} must be positive")
    one_sided = 2.0 * a_n * (1.0 + 1.0 / t_n)
    two_term = None
    if b_n is not None:
        if not (0.0 < b_n < 1.0):
            raise ValueError(f"b_n={b_n} must lie in (0, 1)")
        two_term = 2.0 * a_n + 2.0 * b_n / t_n
    return one_sided, two_term


@dataclass(frozen=True)
class OddsTestResult:
    """Outcome of a posterior-odds test of H0 against H1."""

    log_f: float
    threshold: float
    reject_null: bool
    error_bound_one_sided: Optional[float] = None
    error_bound_two_term: Optional[float] = None
    mass_h0: Optional[float] = None
    mass_h1: Optional[float] = None

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.reject_null != (self.log_f > math.log(self.threshold)):
            raise ValueError("rejection flag inconsistent with log odds")

    def to_json_dict(self) -> dict:
        return {
            "log_f": self.log_f,
            "threshold": self.threshold,
            "reject_null": self.reject_null,
            "error_bound_one_sided": self.error_bound_one_sided,
            "error_bound_two_term": self.error_bound_two_term,
            "mass_h0": self.mass_h0,
            "mass_h1": self.mass_h1,
        }


def class_size_test(
    x: Graph,
    prior: PriorSpec,
    model: EdgeModel,
    m0: int,
    m1: Optional[int],
    threshold: float,
    a_n: Optional[float] = None,
    b_n: Optional[float] = None,
) -> OddsTestResult:
    """Posterior-odds test of smaller-class size m0 against m1.

    m1 None tests against the complement (every other labeling). Error
    bound fields are filled only when the rate inputs a_n (and optionally
    b_n) are supplied, e.g. as Monte Carlo estimates from a harness.
    """
    n = x.n
    if not (0 <= m0 <= n // 2):
        raise ValueError(f"m0={m0} out of range for n={n}")
    if m1 is not None and not (0 <= m1 <= n // 2):
        raise ValueError(f"m1={m1} out of range for n={n}")
    if m1 == m0:
        raise ValueError("hypotheses must name different class sizes")
    table = exact_posterior(x, prior, model)
    sel_a = table.class_sizes == m0
    sel_b = (table.class_sizes == m1) if m1 is not None else ~sel_a
    lu = table.log_unnormalized
    log_f = log_sum_exp(lu[sel_b]) - log_sum_exp(lu[sel_a])
    one_sided = two_term = None
    if a_n is not None:
        one_sided, two_term = odds_error_bounds(a_n, threshold, b_n)
    return OddsTestResult(
        log_f=log_f,
        threshold=threshold,
        reject_null=log_f > math.log(threshold),
        error_bound_one_sided=one_sided,
        error_bound_two_term=two_term,
        mass_h0=float(table.probabilities[sel_a].sum()),
        mass_h1=float(table.probabilities[sel_b].sum()),
    )
