"""Posterior over canonical labelings: exact by enumeration, or MCMC.

The exact table is built by scoring every canonical labeling; the sampler
is a single-site flip Metropolis chain on the full raw cube (where the
proposal is exactly symmetric) with canonical projection at emission.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .model import (
    ENUMERATION_CAP,
    EdgeModel,
    Graph,
    LabelVector,
    canonical_index,
    canonical_order,
    canonical_words,
    canonicalize_word,
    derive_rng,
    half_cube_class_sizes,
    half_cube_keys,
    label_strings,
)
from .priors import PriorSpec, log_mass_by_class_size, log_mass_by_popcount

__all__ = [
    "PosteriorTable",
    "McmcConfig",
    "McmcResult",
    "exact_posterior",
    "posterior_mass",
    "posterior_mode",
    "mcmc_posterior",
    "within_edge_counts",
    "log_sum_exp",
]


def _half_cube_within_counts(x: Graph) -> np.ndarray:
    """Within-class edge count of every half-cube labeling, in key order.

    Key bit n-1-v is the label of vertex v, so vertex 0 stays at label 0.
    Counts are built by vertex doubling from the last vertex down: with the
    vertices before v at label 0, giving vertex v label 1 makes its edges
    to the 1-labelled later vertices within-class and all its other edges
    split. So the counts for keys h + 2^b (h < 2^b, b = n-1-v) are those
    for h plus 2·popcount(h & later neighbours of v) − deg(v): n-1
    vectorised passes over 2^(n-1) counts. int16 holds the n(n-1)/2 edges
    of every n that uint32 keys allow.
    """
    n = x.n
    s = np.empty(1 << (n - 1), dtype=np.int16)
    s[0] = x.num_edges
    h = np.arange(len(s) // 2, dtype=np.uint32)
    for b in range(n - 1):
        v = n - 1 - b
        half = 1 << b
        # neighbours of v on key bits below b, i.e. the vertices after v
        mask = x.neighbor_masks[v]
        later = int(format(mask, f"0{n}b")[::-1], 2) & (half - 1)
        lower = np.bitwise_count(h[:half] & np.uint32(later))
        s[half:2 * half] = s[:half] + 2 * lower - mask.bit_count()
    return s


def within_edge_counts(x: Graph, words: np.ndarray) -> np.ndarray:
    """Within-class edge count for each packed labeling word (any words of
    n bits, canonical or not): the half-cube counts read at each word's
    key, a labeling and its complement splitting the same edges."""
    return _half_cube_within_counts(x)[half_cube_keys(words, x.n)]


def log_sum_exp(values: np.ndarray, counts: np.ndarray | None = None) -> float:
    """log(sum(exp(terms))), shifted by the maximum and summed by
    math.fsum; -inf when there are no terms.

    With ``counts``, values[i] stands for counts[i] equal terms: it adds
    counts[i]·exp(values[i] − max), rounded once, to the exact sum, and
    values with count 0 are left out. So the result depends only on which
    terms occur how often, not on their order.
    """
    if counts is not None:
        kept = counts > 0
        values, counts = values[kept], counts[kept]
    if len(values) == 0:
        return -math.inf
    mx = float(values.max())
    terms = np.exp(values - mx)
    if counts is not None:
        terms *= counts
    return mx + math.log(math.fsum(terms.tolist()))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _within_pair_counts(ms: np.ndarray, n: int) -> np.ndarray:
    m = ms.astype(np.int64)
    return m * (m - 1) // 2 + (n - m) * (n - m - 1) // 2


class PosteriorTable:
    """Exact normalized posterior over all canonical labelings.

    Stores packed words in lexicographic bit order. Labelings fall into
    levels that share one class size and one log mass; for an exact
    posterior a level is a pair (m, s) of smaller-class size and
    within-class edge count. The table keeps per level its log mass,
    probability, class size and labeling count, and reports the mass of a
    set of labelings as a count-weighted sum over levels (see masked_mass).
    The per-labeling arrays ``level``, ``log_unnormalized`` and
    ``probabilities`` are built only when first read. Immutable after
    construction.
    """

    def __init__(self, n: int, words: np.ndarray, class_sizes: np.ndarray,
                 log_unnormalized: np.ndarray | None,
                 levels: tuple[np.ndarray, np.ndarray] | None = None):
        """``levels`` is (level, level_log_mass), with log_unnormalized equal
        to level_log_mass[level] and each level holding one class size;
        given it, log_unnormalized may be None. Without it every distinct
        pair of class size and log_unnormalized value is a level."""
        if levels is None:
            pairs, level = np.unique(np.column_stack((class_sizes, log_unnormalized)),
                                     axis=0, return_inverse=True)
            levels = level.reshape(-1), pairs[:, 1]
        level, level_log_mass = levels
        level = _read_only(np.array(level, dtype=np.intp))
        level_class_size = np.zeros(len(level_log_mass), dtype=class_sizes.dtype)
        level_class_size[level] = class_sizes
        if not np.array_equal(level_class_size[level], class_sizes):
            raise ValueError("each level must hold labelings of one class size")
        self.level = level
        if log_unnormalized is not None:
            self.log_unnormalized = log_unnormalized
        self._set_levels(n, words, class_sizes, level_log_mass, level_class_size,
                         np.bincount(level, minlength=len(level_log_mass)))

    @classmethod
    def _from_half_cube(cls, n: int, words: np.ndarray, class_sizes: np.ndarray,
                        half_level: np.ndarray, level_log_mass: np.ndarray,
                        level_class_size: np.ndarray) -> "PosteriorTable":
        """The table over canonical_words(n) whose labeling with half-cube
        key h lies in level half_level[h]. Its levels are counted in key
        order; the canonical ``level`` is built only when read."""
        table = cls.__new__(cls)
        table._half_level = half_level
        table._set_levels(n, words, class_sizes, level_log_mass, level_class_size,
                          np.bincount(half_level, minlength=len(level_log_mass)))
        return table

    def _set_levels(self, n: int, words: np.ndarray, class_sizes: np.ndarray,
                    level_log_mass: np.ndarray, level_class_size: np.ndarray,
                    level_count: np.ndarray) -> None:
        self.n = n
        self.words = words
        self.class_sizes = class_sizes
        self._level_class_size = level_class_size
        self._level_count = level_count
        # a level no labeling reaches may lie far above the normalizer; it
        # gets no mass, so that exp neither overflows nor warns on it
        self._level_log_mass = np.where(level_count > 0, level_log_mass, -np.inf)
        self.log_normalizer = log_sum_exp(self._level_log_mass, level_count)
        self._level_prob = _read_only(np.exp(self._level_log_mass - self.log_normalizer))

    @cached_property
    def level(self) -> np.ndarray:
        """Per labeling, the index of its level (intp, so that gathers by
        level need no index cast)."""
        return _read_only(canonical_order(self._half_level, self.n).astype(np.intp))

    @cached_property
    def log_unnormalized(self) -> np.ndarray:
        """Per labeling, the log of its unnormalized posterior mass."""
        return _read_only(self._level_log_mass[self.level])

    @cached_property
    def probabilities(self) -> np.ndarray:
        """Per labeling, its posterior probability."""
        return _read_only(self._level_prob[self.level])

    def masked_mass(self, mask: np.ndarray) -> tuple[float, float]:
        """For the labelings a boolean mask over the index selects: the log
        of their unnormalized mass and their probability.

        Both are sums over levels, weighted by how many selected labelings
        each level holds: log_sum_exp with counts, and math.fsum of count
        times probability. Exact sums rounded once, so the result depends
        only on those counts. (-inf, 0.0) when nothing is selected.
        """
        return self._level_sums(np.bincount(self.level[mask],
                                            minlength=len(self._level_count)))

    def class_size_mass(self, sizes: np.ndarray) -> tuple[float, float]:
        """masked_mass of the labelings whose class size m has sizes[m]
        True (a boolean mask over 0..n//2), read from the level counts
        without touching a per-labeling array."""
        counts = np.where(sizes[self._level_class_size], self._level_count, 0)
        return self._level_sums(counts)

    def _level_sums(self, counts: np.ndarray) -> tuple[float, float]:
        kept = np.flatnonzero(counts)
        prob = math.fsum((counts[kept] * self._level_prob[kept]).tolist())
        return log_sum_exp(self._level_log_mass, counts), prob

    def __len__(self) -> int:
        return len(self.words)

    def _lookup(self, theta: LabelVector) -> int:
        if theta.n != self.n:
            raise ValueError(f"vertex counts differ: {theta.n} vs {self.n}")
        k = canonical_index(theta)
        if k >= len(self.words) or int(self.words[k]) != theta.word:
            raise KeyError(theta)
        return k

    def level_masses(self) -> tuple[np.ndarray, np.ndarray]:
        """Per level: the probability of each of its labelings, and how
        many labelings it holds (both 0 for levels no labeling reaches)."""
        return self._level_prob, self._level_count

    def probability(self, theta: LabelVector) -> float:
        return float(self._level_prob[self.level[self._lookup(theta)]])

    def labelings(self) -> Iterator[LabelVector]:
        for w in self.words:
            yield LabelVector(self.n, int(w))

    def items(self) -> Iterator[tuple[LabelVector, float]]:
        for k, w in enumerate(self.words):
            yield LabelVector(self.n, int(w)), float(self.probabilities[k])

    def mode(self) -> LabelVector:
        # words are in lexicographic order, so the first argmax breaks ties
        # lexicographically
        return LabelVector(self.n, int(self.words[int(np.argmax(self.probabilities))]))

    def select(self, predicate: Callable[[LabelVector], bool]) -> np.ndarray:
        """Boolean mask over the table's index of the labelings satisfying
        the predicate."""
        return np.fromiter(
            (predicate(th) for th in self.labelings()), dtype=bool, count=len(self)
        )

    def mass(self, predicate: Callable[[LabelVector], bool]) -> float:
        return self.masked_mass(self.select(predicate))[1]

    def mass_of_class_size(self, m: int) -> float:
        return self.class_size_mass(np.arange(self.n // 2 + 1) == m)[1]

    def mass_of_ball(self, center: LabelVector, radius: int) -> float:
        """Mass of labelings with complement-folded distance < radius."""
        if center.n != self.n:
            raise ValueError(f"vertex counts differ: {center.n} vs {self.n}")
        k = np.bitwise_count(self.words ^ np.uint32(center.word)).astype(np.int64)
        sym = np.minimum(k, self.n - k)
        return float(self.probabilities[sym < radius].sum())

    def inclusion_probabilities(self) -> np.ndarray:
        """Posterior probability that each vertex carries label 1."""
        out = np.zeros(self.n)
        for v in range(self.n):
            bit = (self.words >> np.uint32(v)) & np.uint32(1)
            out[v] = float(self.probabilities[bit == 1].sum())
        return out

    def class_size_probabilities(self) -> np.ndarray:
        return np.array(
            [self.mass_of_class_size(m) for m in range(self.n // 2 + 1)]
        )

    def write_csv(self, f: TextIO) -> None:
        """Rows labeling,log_unnormalized,probability sorted by probability
        descending, ties lexicographic."""
        order = np.argsort(-self.probabilities, kind="stable")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["labeling", "log_unnormalized", "probability"])
        writer.writerows(zip(
            label_strings(self.words[order], self.n),
            map(repr, self.log_unnormalized[order].tolist()),
            map(repr, self.probabilities[order].tolist()),
        ))


def exact_posterior(
    x: Graph, prior: PriorSpec, model: EdgeModel, cap: int = ENUMERATION_CAP
) -> PosteriorTable:
    """Score every canonical labeling: mass proportional to prior times
    likelihood, normalized by a max-shifted log-sum-exp.

    Prior and likelihood depend on a labeling only through its level: its
    smaller-class size m and within-class edge count s. So the log mass is
    evaluated once on the (n//2 + 1) x (E + 1) grid of levels, and the
    table keeps each labeling's level: level m·(E + 1) + s.
    """
    n = x.n
    words, ms = canonical_words(n, cap)
    e = x.num_edges
    # (n//2)(E + 1) + E levels fit int16 for every n that uint32 words allow
    half_level = np.multiply(half_cube_class_sizes(n), e + 1, dtype=np.int16)
    half_level += _half_cube_within_counts(x)
    we = np.arange(e + 1, dtype=np.int64)[np.newaxis, :]
    wp = _within_pair_counts(np.arange(n // 2 + 1), n)[:, np.newaxis]
    total_pairs = n * (n - 1) // 2
    ll = (
        we * math.log(model.p)
        + (wp - we) * math.log1p(-model.p)
        + (e - we) * math.log(model.q)
        + ((total_pairs - wp) - (e - we)) * math.log1p(-model.q)
    )
    lp = np.asarray(log_mass_by_class_size(prior, n))[:, np.newaxis]
    level_log_mass = (lp + ll).ravel()
    level_class_size = np.repeat(np.arange(n // 2 + 1), e + 1)
    return PosteriorTable._from_half_cube(n, words, ms, half_level, level_log_mass,
                                          level_class_size)


def posterior_mass(
    table: PosteriorTable, predicate: Callable[[LabelVector], bool]
) -> float:
    """Posterior mass of the labelings satisfying the predicate."""
    return table.mass(predicate)


def posterior_mode(
    source: PosteriorTable | Iterable[LabelVector],
) -> LabelVector:
    """Highest-mass labeling; ties broken lexicographically.

    Accepts an exact table or a stream of samples (where mass means
    empirical frequency).
    """
    if isinstance(source, PosteriorTable):
        return source.mode()
    counts = Counter(source)
    if not counts:
        raise ValueError("empty sample stream")
    best = max(counts.items(), key=lambda kv: (kv[1], tuple(-b for b in kv[0].bits)))
    return best[0]


@dataclass(frozen=True)
class McmcConfig:
    """Chain length controls. All counts must be positive."""

    burn_in: int
    samples: int
    thin: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("burn_in", "samples", "thin"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @classmethod
    def default(cls, n: int, seed: int) -> "McmcConfig":
        # single-flip mixing heuristic, validated against enumeration
        return cls(burn_in=10 * n * n, samples=10_000, thin=n, seed=seed)


@dataclass(frozen=True)
class McmcResult:
    samples: tuple[LabelVector, ...]
    inclusion_probabilities: np.ndarray
    class_size_probabilities: np.ndarray
    acceptance_rate: float

    def sampled_words(self) -> list[int]:
        return [s.word for s in self.samples]


_BLOCK = 1 << 14


def mcmc_posterior(
    x: Graph, prior: PriorSpec, model: EdgeModel, cfg: McmcConfig
) -> McmcResult:
    """Single-site flip Metropolis sampler for the labeling posterior.

    The chain lives on all 2^n raw label vectors, targeting prior mass of
    the canonical representative times likelihood (which is invariant under
    global complement, so the projected chain targets the posterior).
    Emitted samples are canonicalized. Deterministic given cfg.seed.

    One move in n+1 is a hold: without it the walk is periodic whenever
    every flip is accepted (each flip changes label-count parity), which
    would bias even-stride thinning on near-flat targets.
    """
    n = x.n
    if n < 2:
        raise ValueError(f"sampler needs at least two vertices, got n={n}")
    rng = derive_rng(cfg.seed)
    lp = np.asarray(log_mass_by_popcount(prior, n))
    masks = x.neighbor_masks
    degs = [mk.bit_count() for mk in masks]
    e = x.num_edges
    total_pairs = n * (n - 1) // 2
    wtab = [m * (m - 1) // 2 + (n - m) * (n - m - 1) // 2 for m in range(n + 1)]
    log_p, log_1p = math.log(model.p), math.log1p(-model.p)
    log_q, log_1q = math.log(model.q), math.log1p(-model.q)

    def score(s: int, m: int) -> float:
        within_pairs = wtab[m]
        return (
            s * log_p
            + (within_pairs - s) * log_1p
            + (e - s) * log_q
            + ((total_pairs - within_pairs) - (e - s)) * log_1q
            + float(lp[m])
        )

    start_bits = rng.integers(0, 2, size=n)
    w = 0
    for i, b in enumerate(start_bits.tolist()):
        w |= b << i
    m = w.bit_count()
    s = 0
    for i, j in x.edges:
        s += ((w >> i) ^ (w >> j)) & 1 == 0

    total_steps = cfg.burn_in + cfg.samples * cfg.thin
    accepted = 0
    proposals = 0
    emitted: list[int] = []
    step = 0
    current_score = score(s, m)
    while step < total_steps:
        block = min(_BLOCK, total_steps - step)
        vs = rng.integers(0, n + 1, size=block)  # n means hold
        log_us = np.log(rng.random(size=block))
        for b in range(block):
            v = int(vs[b])
            if v < n:
                proposals += 1
                bit = (w >> v) & 1
                ones = (masks[v] & w).bit_count()
                e_same = ones if bit else degs[v] - ones
                s_new = s + degs[v] - 2 * e_same
                m_new = m - 1 if bit else m + 1
                new_score = score(s_new, m_new)
                if new_score - current_score > log_us[b]:
                    w ^= 1 << v
                    s, m, current_score = s_new, m_new, new_score
                    accepted += 1
            step += 1
            if step > cfg.burn_in and (step - cfg.burn_in) % cfg.thin == 0:
                emitted.append(canonicalize_word(w, n))

    samples = tuple(LabelVector(n, cw) for cw in emitted)
    incl = np.zeros(n)
    class_counts = np.zeros(n // 2 + 1)
    for cw in emitted:
        class_counts[cw.bit_count()] += 1
        for v in range(n):
            incl[v] += (cw >> v) & 1
    count = len(emitted)
    return McmcResult(
        samples=samples,
        inclusion_probabilities=incl / count,
        class_size_probabilities=class_counts / count,
        acceptance_rate=accepted / proposals if proposals else 0.0,
    )
