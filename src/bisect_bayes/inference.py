"""Credible sets, their enlargement and confidence conversion, and
posterior-odds testing between label-vector hypotheses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .model import (
    EdgeModel,
    Graph,
    LabelVector,
    _half_split,
    canonical_index,
    canonical_order,
    canonical_positions,
    canonical_words,
    half_cube_words,
)
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


class _LabelingSet:
    """A set of canonical labelings on ``n`` vertices, given by a rule.
    ``theta in S`` is answered by the rule (``_holds``). The read-only
    boolean ``mask`` over canonical_words(n) is built by ``_build_mask``
    when it is first read, and the member words are read through it."""

    n: int

    @cached_property
    def mask(self) -> np.ndarray:
        mask = self._build_mask()
        mask.setflags(write=False)
        return mask

    def __contains__(self, theta: LabelVector) -> bool:
        return theta.n == self.n and self._holds(theta)

    def member_words(self) -> np.ndarray:
        """The members' packed words (uint32), in index order."""
        words, _ = canonical_words(self.n)
        return words[self.mask]

    @cached_property
    def members(self) -> frozenset[LabelVector]:
        return frozenset(LabelVector(self.n, w) for w in self.member_words().tolist())


@dataclass(frozen=True, eq=False)
class CredibleSet(_LabelingSet):
    """An HPD set of labelings with posterior mass at least 1 - gamma, as
    built by hpd_credible_set. The set is its own selection rule: every
    labeling of ``table`` more probable than ``cutoff`` (``above`` of
    them), and of the ``tied`` labelings exactly as probable, the first
    ``taken`` in index order. Membership is read from the table's levels,
    and the mask is built only when it is read.
    """

    table: PosteriorTable
    cutoff: float
    above: int
    tied: int
    taken: int
    gamma: float
    achieved_mass: float

    def __post_init__(self) -> None:
        if self.above + self.taken == 0:
            raise ValueError("credible set must be nonempty")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma={self.gamma} must lie in (0, 1)")
        if self.achieved_mass < 1.0 - self.gamma - 1e-12:
            raise ValueError(f"achieved mass {self.achieved_mass} "
                             f"below credible level {1.0 - self.gamma}")

    @property
    def n(self) -> int:
        return self.table.n

    @cached_property
    def last_tied(self) -> int:
        """Index position of the last labeling taken at the cutoff, or the
        length of the index when all of them are taken."""
        if self.taken == self.tied:
            return len(self.table)
        prob = self.table.level_masses()[0]
        keys, _ = self.table.labelings_in(prob == self.cutoff)
        positions = canonical_positions(keys, self.n)
        return int(np.partition(positions, self.taken - 1)[self.taken - 1])

    @property
    def small(self) -> bool:
        """Whether the groups taken from hold at most 1/_SMALL_SET of the
        labelings, so that the set is listed from the key-order levels."""
        return _SMALL_SET * (self.above + self.tied) <= len(self.table)

    def listed(self) -> tuple[np.ndarray, np.ndarray]:
        """The half-cube keys of the labelings taken and their index
        positions, both in index order: every labeling of the groups taken
        from, less the tied ones after the first ``taken``."""
        prob = self.table.level_masses()[0]
        keys, level = self.table.labelings_in(prob >= self.cutoff)
        positions = canonical_positions(keys, self.n)
        order = np.argsort(positions)
        tied = np.flatnonzero(prob[level[order]] == self.cutoff)
        order = np.delete(order, tied[self.taken:])
        return keys[order], positions[order]

    def _holds(self, theta: LabelVector) -> bool:
        p = self.table.probability(theta)
        return p > self.cutoff or (p == self.cutoff
                                   and canonical_index(theta) <= self.last_tied)

    def holds(self, keys: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Per labeling, given by its half-cube key (intp) and its level,
        whether it is taken."""
        prob = self.table.level_masses()[0][levels]
        held = prob > self.cutoff
        at = np.flatnonzero(prob == self.cutoff)
        held[at] = canonical_positions(keys[at], self.n) <= self.last_tied
        return held

    def _build_mask(self) -> np.ndarray:
        """A small set's positions are listed (see ``listed``) and
        scattered into an empty mask; otherwise the mask is gathered
        through the canonical level of every labeling."""
        table = self.table
        prob = table.level_masses()[0]
        if self.small:
            mask = np.zeros(len(table), dtype=bool)
            mask[self.listed()[1]] = True
        else:
            mask = (prob >= self.cutoff)[table.level]
            if self.taken < self.tied:
                tied = np.flatnonzero((prob == self.cutoff)[table.level])
                mask[tied[self.taken:]] = False
        return mask

    def member_words(self) -> np.ndarray:
        """The members' packed words, in index order; a small set's are
        converted from its listed keys, and no index is built."""
        if self.small:
            return half_cube_words(self.listed()[0], self.n)
        return super().member_words()


class EnlargedSet(_LabelingSet):
    """A credible set widened by a distance radius, for frequentist coverage:
    every labeling within complement-folded distance < radius of a member,
    together with the set itself. Membership of theta is read from the
    base at the labelings of theta's ball, one chunk of half-cube keys at a
    time (PosteriorTable.ball), up to the first chunk that holds a member.
    When read, the mask is dilated from the base's over the half-cube
    keys; only the member words of a set wider than its base read the
    canonical index.
    """

    def __init__(self, base: CredibleSet, radius: int):
        if radius < 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        self.base = base
        self.radius = radius
        self.n = base.n

    def _holds(self, theta: LabelVector) -> bool:
        if self.radius <= 1:
            return theta in self.base
        if self.radius > self.n // 2:
            # no folded distance exceeds n // 2, so the ball is everything
            return True
        return any(self.base.holds(keys, levels).any()
                   for keys, levels in self.base.table.ball(theta, self.radius))

    def member_words(self) -> np.ndarray:
        if self.radius <= 1:
            return self.base.member_words()
        return super().member_words()

    def _build_mask(self) -> np.ndarray:
        """The base's mask, put in half-cube key order (the inverse of
        model.canonical_order), is dilated radius - 1 times by flipping
        each vertex: vertex v >= 1 flips key bit n - 1 - v, and vertex 0
        maps key h to 2^(n-1) - 1 - h, which reverses the array. Folded
        distances never exceed n // 2, so more dilations than that change
        nothing; with none, the base's mask is shared."""
        n = self.n
        steps = min(self.radius - 1, n // 2)
        if steps <= 0:
            return self.base.mask
        low = _half_split(n)
        count = np.count_nonzero(low)
        keys = np.empty(len(low), dtype=bool)
        keys[low] = self.base.mask[:count]
        keys[~low] = self.base.mask[count:][::-1]
        for _ in range(steps):
            grown = keys | keys[::-1]
            for b in range(n - 1):
                # the middle axis is key bit b: reversing it flips that bit
                view = grown.reshape(-1, 2, 1 << b)
                view |= keys.reshape(-1, 2, 1 << b)[:, ::-1]
            keys = grown
        return canonical_order(keys, n)


# A credible set whose probability groups hold at most one labeling in
# _SMALL_SET is listed from the key-order levels, its mask scattered from
# the list and its member words converted from its keys; a larger one is
# gathered through the canonical level of every labeling, a cheaper pass
# per member, and its words are read from the canonical index.
# Timed on flat graphs, the scatter is the faster below a share of about
# 1/10 at n = 18 and 22, and within about 10% of the gather up to 1/32 at
# n = 14; at a share of 3/4 (coverage-flat) the gather takes half the time.
# For member words, converting the listed keys against reading words[mask]
# (the mask built by the rule), timed likewise with a fresh table each run:
# with the index cached, the listing is the faster below a share of about
# 1/10 at n = 22 (0.8x at 0.09), even or faster at n = 18 up to 1/20, and
# 1.4-1.6x slower at n = 14 up to 1/27 (0.13 against 0.08 ms); with the
# index built in the call, it is the faster below about 1/5 at n = 18 and
# 22 (0.01-0.8x). From a share of about 1/3 it takes 1.6-4.4x as long at
# every size (at n = 22 and 0.64, 126 ms against 29-53 ms).
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
    The set is the rule found (see _greedy) and builds its mask only when
    the mask is read.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma={gamma} must lie in (0, 1)")
    target = 1.0 - gamma
    values, sizes = _probability_groups(table)
    cut = min(int(np.searchsorted(np.cumsum(values * sizes), target + _HPD_MARGIN)),
              len(values) - 1)
    *rule, mass = _greedy(values[:cut + 1], sizes[:cut + 1], target)
    if mass < target and cut + 1 < len(values):
        *rule, mass = _greedy(values, sizes, target)
    return CredibleSet(table, *rule, gamma, mass)


def _probability_groups(table: PosteriorTable) -> tuple[np.ndarray, np.ndarray]:
    """The distinct probabilities of the table's labelings, in decreasing
    order, and how many labelings carry each."""
    prob, count = table.level_masses()
    reached = count > 0
    values, group = np.unique(prob[reached], return_inverse=True)
    sizes = np.bincount(group, weights=count[reached]).astype(np.int64)
    return values[::-1], sizes[::-1]


def _greedy(values: np.ndarray, sizes: np.ndarray,
            target: float) -> tuple[float, int, int, int, float]:
    """Take labelings from the leading probability groups (``values`` in
    decreasing order, ``sizes`` labelings each), in decreasing probability
    with ties in index order, until their mass reaches ``target``. Returns
    the rule that selects them (CredibleSet's cutoff, above, tied and
    taken), and their mass.

    The running sum adds each group's value once per labeling, the same
    float64 additions as a sum over the labelings sorted by probability;
    its prefix sums never decrease, so searchsorted finds the first one
    that reaches the target. The last group taken contributes its first
    labelings in index order.
    """
    reached = np.repeat(values, sizes)
    np.cumsum(reached, out=reached)
    k = min(int(np.searchsorted(reached, target)), len(reached) - 1)
    ends = np.cumsum(sizes)
    last = int(np.searchsorted(ends, k, side="right"))
    above = int(ends[last] - sizes[last])
    return (float(values[last]), above, int(sizes[last]), k + 1 - above,
            float(reached[k]))


def enlarge(credible: CredibleSet, radius: int) -> EnlargedSet:
    """All labelings within complement-folded distance < radius of some
    member, together with the set itself. Radii 0 and 1 add nothing.

    A labeling lies within folded distance d of a member when it lies
    within Hamming distance d of the member or of its complement. So
    theta is a member when some labeling of its ball of radius ``radius``
    is in the credible set; the mask, built when read, is a dilation of
    the credible set's over the half-cube keys, on which a labeling and
    its complement are one entry (see EnlargedSet).
    """
    return EnlargedSet(credible, radius)


def confidence_lower_bound(x_n: float, gamma: float) -> float:
    """Frequentist coverage lower bound 1 - x_n/(1 - gamma) for a
    1 - gamma credible set, given the expected off-target posterior mass
    x_n. May be nonpositive (vacuous); returned unclipped."""
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma={gamma} must lie in (0, 1)")
    return 1.0 - x_n / (1.0 - gamma)


def _as_mask(table: PosteriorTable, selection: np.ndarray) -> np.ndarray:
    mask = np.asarray(selection)
    if mask.dtype != bool or mask.shape != (len(table),):
        raise ValueError(f"a selection must be a boolean mask "
                         f"over the table's {len(table)} labelings")
    return mask


def posterior_odds(table: PosteriorTable, a_set: np.ndarray, b_set: np.ndarray) -> float:
    """log posterior odds of b_set against a_set.

    Each set is a boolean mask over the table's index. The sets must be
    disjoint and a_set must carry positive mass. Computed via log-sum-exp
    over unnormalized masses, so the normalizer cancels.
    """
    sel_a, sel_b = _as_mask(table, a_set), _as_mask(table, b_set)
    overlap = np.flatnonzero(sel_a & sel_b)
    if len(overlap):
        theta = LabelVector(table.n, int(table.words[overlap[0]]))
        raise ValueError(f"hypothesis sets overlap at {theta}")
    if not sel_a.any():
        raise ValueError("null set carries no posterior mass")
    return table.masked_mass(sel_b)[0] - table.masked_mass(sel_a)[0]


def odds_error_bounds(
    a_n: float, t_n: float, b_n: Optional[float] = None
) -> tuple[float, Optional[float]]:
    """Frequentist error bounds for the posterior-odds test at threshold t:
    2 a (1 + 1/t), and 2a + 2b/t when a bound b on the alternative's
    expected mass is available."""
    if not (0.0 < a_n < 1.0):
        raise ValueError(f"a_n={a_n} must lie in (0, 1)")
    _check_threshold(t_n)
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
