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
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .model import (
    ENUMERATION_CAP,
    EdgeModel,
    Graph,
    LabelVector,
    canonical_keys,
    canonical_words,
    canonicalize_word,
    derive_rng,
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


def within_edge_counts(x: Graph, words: np.ndarray) -> np.ndarray:
    """Within-class edge count for each packed labeling word.

    Counts every raw labeling of the n vertices by vertex doubling, then
    gathers ``words``. With the vertices from k up at label 0, giving
    vertex k label 1 makes its edges to the 1-labelled lower vertices
    within-class and all its other edges split. So the counts for labelings
    j + 2^k (j < 2^k) are those for j plus
    2·popcount(j & mask_<k) − deg(k): n vectorised passes over 2^n counts.
    int16 holds the n(n-1)/2 edges of every n that uint32 words allow.
    """
    n = x.n
    s = np.empty(1 << n, dtype=np.int16)
    s[0] = x.num_edges
    j = np.arange(1 << (n - 1), dtype=np.uint32)
    for k, mask in enumerate(x.neighbor_masks):
        half = 1 << k
        lower = np.bitwise_count(j[:half] & np.uint32(mask & (half - 1)))
        s[half:2 * half] = s[:half] + 2 * lower - mask.bit_count()
    return s[words]


def log_sum_exp(values: np.ndarray) -> float:
    """log(sum(exp(values))), shifted by the maximum; -inf when empty."""
    if len(values) == 0:
        return -math.inf
    mx = float(values.max())
    return mx + math.log(float(np.sum(np.exp(values - mx))))


def _within_pair_counts(ms: np.ndarray, n: int) -> np.ndarray:
    m = ms.astype(np.int64)
    return m * (m - 1) // 2 + (n - m) * (n - m - 1) // 2


class PosteriorTable:
    """Exact normalized posterior over all canonical labelings.

    Stores packed words in lexicographic bit order with parallel arrays of
    log unnormalized mass and probability. Labelings fall into levels that
    share one log mass; for an exact posterior a level is a pair (m, s) of
    smaller-class size and within-class edge count. Immutable after
    construction.
    """

    __slots__ = ("n", "words", "class_sizes", "log_unnormalized", "log_normalizer",
                 "probabilities", "_level", "_level_log_mass", "_level_count")

    def __init__(self, n: int, words: np.ndarray, class_sizes: np.ndarray,
                 log_unnormalized: np.ndarray,
                 levels: tuple[np.ndarray, np.ndarray] | None = None):
        """``levels`` is (level, level_log_mass), with log_unnormalized equal
        to level_log_mass[level]. Without it every distinct value of
        log_unnormalized is a level."""
        self.n = n
        self.words = words
        self.class_sizes = class_sizes
        if levels is None:
            level_log_mass, level = np.unique(log_unnormalized, return_inverse=True)
            levels = level, level_log_mass
        self._level, level_log_mass = levels
        self._level_count = np.bincount(self._level, minlength=len(level_log_mass))
        # a level no labeling reaches may lie far above the normalizer; it
        # gets no mass, so that exp neither overflows nor warns on it
        self._level_log_mass = np.where(self._level_count > 0, level_log_mass, -np.inf)
        self.log_unnormalized = log_unnormalized
        self.log_normalizer = log_sum_exp(log_unnormalized)
        # one exp per level; elementwise the same values as exp over labelings
        self.probabilities = np.exp(self._level_log_mass - self.log_normalizer)[self._level]

    def __len__(self) -> int:
        return len(self.words)

    def _lookup(self, theta: LabelVector) -> int:
        if theta.n != self.n:
            raise ValueError(f"vertex counts differ: {theta.n} vs {self.n}")
        k = int(np.searchsorted(canonical_keys(self.n), int(theta.to_string(), 2)))
        if k >= len(self.words) or int(self.words[k]) != theta.word:
            raise KeyError(theta)
        return k

    def level_masses(self) -> tuple[np.ndarray, np.ndarray]:
        """Per level: the probability of each of its labelings, and how
        many labelings it holds (both 0 for levels no labeling reaches)."""
        return np.exp(self._level_log_mass - self.log_normalizer), self._level_count

    def probability(self, theta: LabelVector) -> float:
        return float(self.probabilities[self._lookup(theta)])

    def labelings(self) -> Iterator[LabelVector]:
        for w in self.words:
            yield LabelVector(self.n, int(w))

    def items(self) -> Iterator[tuple[LabelVector, float]]:
        for k, w in enumerate(self.words):
            yield LabelVector(self.n, int(w)), float(self.probabilities[k])

    @property
    def entries(self) -> dict[LabelVector, float]:
        return dict(self.items())

    def mode(self) -> LabelVector:
        # words are in lexicographic order, so the first argmax breaks ties
        # lexicographically
        return LabelVector(self.n, int(self.words[int(np.argmax(self.probabilities))]))

    def mass(self, predicate: Callable[[LabelVector], bool]) -> float:
        sel = np.fromiter(
            (predicate(th) for th in self.labelings()), dtype=bool, count=len(self)
        )
        return float(self.probabilities[sel].sum())

    def mass_of_point(self, theta: LabelVector) -> float:
        return self.probability(theta)

    def mass_of_class_size(self, m: int) -> float:
        return float(self.probabilities[self.class_sizes == m].sum())

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
        for k in order:
            writer.writerow([
                LabelVector(self.n, int(self.words[k])).to_string(),
                repr(float(self.log_unnormalized[k])),
                repr(float(self.probabilities[k])),
            ])


def exact_posterior(
    x: Graph, prior: PriorSpec, model: EdgeModel, cap: int = ENUMERATION_CAP
) -> PosteriorTable:
    """Score every canonical labeling: mass proportional to prior times
    likelihood, normalized by a max-shifted log-sum-exp.

    Prior and likelihood depend on a labeling only through its level: its
    smaller-class size m and within-class edge count s. So the log mass is
    evaluated once on the (n//2 + 1) x (E + 1) grid of levels and gathered.
    """
    n = x.n
    words, ms = canonical_words(n, cap)
    e = x.num_edges
    level = ms.astype(np.int32) * (e + 1) + within_edge_counts(x, words)
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
    return PosteriorTable(n, words, ms.astype(np.int64), level_log_mass[level],
                          levels=(level, level_log_mass))


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
