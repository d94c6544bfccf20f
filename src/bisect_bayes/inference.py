"""Credible sets, their enlargement and confidence conversion, and
posterior-odds testing between label-vector hypotheses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .model import EdgeModel, Graph, LabelVector, canonical_index, canonical_words
from .posterior import PosteriorTable, exact_posterior
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
    "class_size_odds",
    "class_size_test",
]


class _LabelingMask:
    """A set of canonical labelings on ``n`` vertices, held as a read-only
    boolean ``mask`` over canonical_words(n)."""

    def _freeze_mask(self) -> None:
        """Check the mask's type and length, and make it read-only."""
        if self.mask.dtype != bool or self.mask.shape != (1 << (self.n - 1),):
            raise ValueError(f"mask must be a boolean array over the "
                             f"{1 << (self.n - 1)} canonical labelings")
        self.mask.setflags(write=False)

    def __contains__(self, theta: LabelVector) -> bool:
        return theta.n == self.n and bool(self.mask[canonical_index(theta)])

    @cached_property
    def members(self) -> frozenset[LabelVector]:
        words, _ = canonical_words(self.n)
        return frozenset(LabelVector(self.n, int(w)) for w in words[self.mask])


@dataclass(frozen=True, eq=False)
class CredibleSet(_LabelingMask):
    """Set of labelings with posterior mass at least 1 - gamma."""

    n: int
    mask: np.ndarray
    gamma: float
    achieved_mass: float

    def __post_init__(self) -> None:
        self._freeze_mask()
        if not self.mask.any():
            raise ValueError("credible set must be nonempty")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma={self.gamma} must lie in (0, 1)")
        if self.achieved_mass < 1.0 - self.gamma - 1e-12:
            raise ValueError(
                f"achieved mass {self.achieved_mass} below credible level "
                f"{1.0 - self.gamma}"
            )


@dataclass(frozen=True, eq=False)
class EnlargedSet(_LabelingMask):
    """A credible set widened by a distance radius, for frequentist coverage."""

    base: CredibleSet
    radius: int
    mask: np.ndarray

    @property
    def n(self) -> int:
        return self.base.n

    def __post_init__(self) -> None:
        self._freeze_mask()
        if self.radius < 0:
            raise ValueError(f"radius must be nonnegative, got {self.radius}")
        if (self.base.mask & ~self.mask).any():
            raise ValueError("enlargement must contain its base")


# A credible set whose probability groups hold at most one labeling in
# _SMALL_SET is found from the key-order levels; a larger one is gathered
# through the canonical level of every labeling, a cheaper pass per member.
# Timed on flat graphs, the scatter is the faster below a share of about
# 1/10 at n = 18 and 22, and within about 10% of the gather up to 1/32 at
# n = 14; at a share of 3/4 (coverage-flat) the gather takes half the time.
_SMALL_SET = 32

# Relative rounding of the group mass sums is at most about 1e-16 times the
# number of labelings, below 1e-9 up to the enumeration cap.
_HPD_MARGIN = 1e-9


def hpd_credible_set(table: PosteriorTable, gamma: float) -> CredibleSet:
    """Greedy highest-posterior-density set: add labelings in decreasing
    mass (ties lexicographic) until the cumulative mass reaches 1 - gamma.

    Labelings are taken in groups of equal probability, read from the
    level table, so nothing is sorted per labeling. Only the groups down
    to a cutoff are summed one labeling at a time: the first group, taken
    in decreasing mass, at which the group masses clear 1 - gamma with a
    margin for rounding. Should that sum still run out, every group is.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma={gamma} must lie in (0, 1)")
    target = 1.0 - gamma
    values, sizes = _probability_groups(table)
    cut = min(int(np.searchsorted(np.cumsum(values * sizes), target + _HPD_MARGIN)),
              len(values) - 1)
    mask, mass = _greedy(table, values[:cut + 1], sizes[:cut + 1], target)
    if mass < target and cut + 1 < len(values):
        mask, mass = _greedy(table, values, sizes, target)
    return CredibleSet(n=table.n, mask=mask, gamma=gamma, achieved_mass=mass)


def _probability_groups(table: PosteriorTable) -> tuple[np.ndarray, np.ndarray]:
    """The distinct probabilities of the table's labelings, in decreasing
    order, and how many labelings carry each."""
    prob, count = table.level_masses()
    reached = count > 0
    values, group = np.unique(prob[reached], return_inverse=True)
    sizes = np.bincount(group, weights=count[reached]).astype(np.int64)
    return values[::-1], sizes[::-1]


def _greedy(table: PosteriorTable, values: np.ndarray, sizes: np.ndarray,
            target: float) -> tuple[np.ndarray, float]:
    """Take labelings from the leading probability groups (``values`` in
    decreasing order, ``sizes`` labelings each), in decreasing probability
    with ties in index order, until their mass reaches ``target``. Returns
    the mask of the labelings taken and their mass.

    The running sum adds each group's value once per labeling, the same
    float64 additions as a sum over the labelings sorted by probability;
    its prefix sums never decrease, so searchsorted finds the first one
    that reaches the target. The last group taken contributes its first
    labelings in index order.

    When the groups taken hold at most 1/_SMALL_SET of the labelings, their
    positions are found from the levels and scattered into an empty mask;
    otherwise the mask is gathered through the canonical level of every
    labeling.
    """
    reached = np.cumsum(np.repeat(values, sizes))
    k = min(int(np.searchsorted(reached, target)), len(reached) - 1)
    ends = np.cumsum(sizes)
    last = int(np.searchsorted(ends, k, side="right"))
    prob = table.level_masses()[0]
    if _SMALL_SET * ends[last] <= len(table):
        positions, level = table.labelings_in(prob >= values[last])
        tied = prob[level] == values[last]
        mask = np.zeros(len(table), dtype=bool)
        mask[positions[~tied]] = True
        mask[np.sort(positions[tied])[:k + 1 - ends[last] + sizes[last]]] = True
    else:
        mask = (prob >= values[last])[table.level]
        if k + 1 < ends[last]:
            tied = np.flatnonzero((prob == values[last])[table.level])
            mask[tied[k + 1 - ends[last]:]] = False
    return mask, float(reached[k])


def enlarge(credible: CredibleSet, radius: int) -> EnlargedSet:
    """All labelings within complement-folded distance < radius of some
    member, together with the set itself. Radii 0 and 1 add nothing.

    A labeling lies within folded distance d of a member when it lies
    within Hamming distance d of the member or of its complement. So the
    members and their complements are marked on the raw cube of all 2^n
    labelings, the marks are dilated radius - 1 times by single-bit flips,
    and the result is read back at the canonical words. Folded distances
    never exceed n // 2, so more dilations than that change nothing.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    n = credible.n
    mask = credible.mask
    steps = min(radius - 1, n // 2)
    if steps > 0:
        words, _ = canonical_words(n)
        marked = words[mask]
        raw = np.zeros(1 << n, dtype=bool)
        raw[marked] = True
        raw[marked ^ np.uint32((1 << n) - 1)] = True
        for _ in range(steps):
            grown = raw.copy()
            for v in range(n):
                # the middle axis is bit v of the raw index: reversing it
                # flips that bit
                view = grown.reshape(-1, 2, 1 << v)
                view |= raw.reshape(-1, 2, 1 << v)[:, ::-1]
            raw = grown
        mask = raw[words]
    return EnlargedSet(base=credible, radius=radius, mask=mask)


def confidence_lower_bound(x_n: float, gamma: float) -> float:
    """Frequentist coverage lower bound 1 - x_n/(1 - gamma) for a
    1 - gamma credible set, given the expected off-target posterior mass
    x_n. May be nonpositive (vacuous); returned unclipped."""
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma={gamma} must lie in (0, 1)")
    return 1.0 - x_n / (1.0 - gamma)


Selection = Union[np.ndarray, Callable[[LabelVector], bool]]


def _as_mask(table: PosteriorTable, selection: Selection) -> np.ndarray:
    if callable(selection):
        return table.select(selection)
    mask = np.asarray(selection)
    if mask.dtype != bool or mask.shape != (len(table),):
        raise ValueError(f"a selection must be a predicate or a boolean mask "
                         f"over the table's {len(table)} labelings")
    return mask


def posterior_odds(table: PosteriorTable, a_set: Selection, b_set: Selection) -> float:
    """log posterior odds of b_set against a_set.

    Each set is a boolean mask over the table's index, or a predicate on
    labelings. The sets must be disjoint and a_set must carry positive
    mass. Computed via log-sum-exp over unnormalized masses, so the
    normalizer cancels.
    """
    return _odds(table, _as_mask(table, a_set), _as_mask(table, b_set))[0]


def _odds(table: PosteriorTable, sel_a: np.ndarray,
          sel_b: np.ndarray) -> tuple[float, float, float]:
    """log posterior odds of sel_b against sel_a, with the posterior mass
    of each."""
    overlap = np.flatnonzero(sel_a & sel_b)
    if len(overlap):
        theta = LabelVector(table.n, int(table.words[overlap[0]]))
        raise ValueError(f"hypothesis sets overlap at {theta}")
    if not sel_a.any():
        raise ValueError("null set carries no posterior mass")
    log_a, mass_a = table.masked_mass(sel_a)
    log_b, mass_b = table.masked_mass(sel_b)
    return log_b - log_a, mass_a, mass_b


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


def _check_threshold(threshold: float) -> None:
    if not 0 < threshold < math.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold}")


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
        _check_threshold(self.threshold)
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


def class_size_odds(table: PosteriorTable, m0: int,
                    m1: Optional[int]) -> tuple[float, float, float]:
    """log posterior odds of smaller-class size m1 (None: every other
    labeling) against m0, with the posterior masses of m0 and of m1. Read
    from the table's level counts, without a per-labeling array."""
    sizes = np.arange(table.n // 2 + 1)
    in_a = sizes == m0
    in_b = ~in_a if m1 is None else sizes == m1
    if (in_a & in_b).any():
        raise ValueError(f"hypothesis sets overlap at class size {m0}")
    if not in_a.any():
        raise ValueError("null set carries no posterior mass")
    log_a, mass_a = table.class_size_mass(in_a)
    log_b, mass_b = table.class_size_mass(in_b)
    return log_b - log_a, mass_a, mass_b


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
    _check_threshold(threshold)
    n = x.n
    if not (0 <= m0 <= n // 2):
        raise ValueError(f"m0={m0} out of range for n={n}")
    if m1 is not None and not (0 <= m1 <= n // 2):
        raise ValueError(f"m1={m1} out of range for n={n}")
    if m1 == m0:
        raise ValueError("hypotheses must name different class sizes")
    table = exact_posterior(x, prior, model)
    log_f, mass_h0, mass_h1 = class_size_odds(table, m0, m1)
    one_sided = two_term = None
    if a_n is not None:
        one_sided, two_term = odds_error_bounds(a_n, threshold, b_n)
    return OddsTestResult(
        log_f=log_f,
        threshold=threshold,
        reject_null=log_f > math.log(threshold),
        error_bound_one_sided=one_sided,
        error_bound_two_term=two_term,
        mass_h0=mass_h0,
        mass_h1=mass_h1,
    )
