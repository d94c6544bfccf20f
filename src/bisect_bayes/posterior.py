"""Posterior over canonical labelings: exact by enumeration, or MCMC.

A labeling's log mass depends on it only through its level: its
smaller-class size m and within-class edge count s. Both the exact table
and the sampler read that mass from one (m, s) grid, level_log_mass, so
the table is scored once per level, not per labeling. The sampler is a
single-site flip Metropolis chain on the full raw cube (where the
proposal is exactly symmetric) with canonical projection at emission.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, TextIO

import numpy as np

from .model import (
    _STRING_CHUNK,
    EdgeModel,
    Graph,
    LabelVector,
    canonical_order,
    canonical_words,
    canonicalize_word,
    check_enumerable,
    derive_rng,
    half_cube_key,
    half_cube_keys,
    half_cube_words,
    index_order,
    label_strings,
)
from .priors import PriorSpec, log_mass_by_class_size

__all__ = [
    "PosteriorTable",
    "McmcConfig",
    "McmcResult",
    "exact_posterior",
    "level_log_mass",
    "posterior_mode",
    "mcmc_posterior",
    "within_edge_counts",
    "log_sum_exp",
]


# The half cube is scored one chunk at a time: a chunk is the 2^L keys that
# share their bits from L up (L = min(n - 1, _CHUNK_BITS)), small enough
# that its levels are still in cache when they are counted, and that its
# count of any one level fits uint16.
_CHUNK_BITS = 14


@lru_cache(maxsize=8)
def _chunk_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The graph-independent rows of a chunk of n-vertex keys, read-only:
    its low keys l < 2^L (uint32), and per count k of high bits set, the
    class size min(t, n - t) of each key, t = k + popcount(l) (int16, one
    row per k <= n - 1 - L)."""
    bits = min(n - 1, _CHUNK_BITS)
    low = np.arange(1 << bits, dtype=np.uint32)
    t = np.arange(n - bits, dtype=np.int16)[:, np.newaxis] + np.bitwise_count(low)
    sizes = np.minimum(t, n - t)
    for a in (low, sizes):
        a.setflags(write=False)
    return low, sizes


class _HalfCubeStream:
    """The level m·(E+1) + s of every half-cube labeling of a graph, served
    one chunk of 2^L keys at a time; m is the smaller-class size and s the
    within-class edge count. It keeps O(n·2^L) rows and no level per key.

    Key bit n-1-v is the label of vertex v, so vertex 0 stays at label 0.
    With the vertices before v at label 0, giving vertex v label 1 makes
    its edges to the 1-labelled later vertices within-class and all its
    other edges split: the keys h + 2^b (h < 2^b, b = n-1-v) have s of h
    plus 2·popcount(h & later neighbours of v) − deg(v). Summed over the
    set bits of a key c·2^L + l, its level is

        s0(l) + sum over bits b of c of w_b(l) + k(c) + (E+1)·min(t, n−t)

    with t = popcount(l) + popcount(c): s0 is the first chunk's s, built
    bit by bit; w_b(l) is 2·popcount of l & the low-bit later neighbours of
    the vertex on key bit L+b; and k(c), per chunk, sums over the bits of c
    2·popcount of the lower bits of c & that vertex's later neighbours,
    minus its degree. The levels, at most (n//2)(E+1) + E, fit int16 for
    every n that uint32 keys allow.
    """

    def __init__(self, x: Graph):
        n, e = x.n, x.num_edges
        low, sizes = _chunk_tables(n)
        self.n, self.size = n, len(low)
        bits = self.size.bit_length() - 1
        self._e, self._masks = e, x.neighbor_masks
        # neighbour masks over key bits: bit n-1-u for neighbour u; entry b
        # is the mask of the vertex on key bit b
        key_masks = [int(format(mask, f"0{n}b")[::-1], 2) for mask in reversed(self._masks)]
        degree = [mask.bit_count() for mask in key_masks]
        first = np.empty(self.size, dtype=np.int16)
        first[0] = e
        for b in range(bits):
            half = 1 << b
            lower = np.bitwise_count(low[:half] & np.uint32(key_masks[b] & (half - 1)))
            first[half:2 * half] = first[:half] + 2 * lower - degree[b]
        self._first = first
        high = range(bits, n - 1)
        self._cross = np.empty((len(high), self.size), dtype=np.int16)
        for row, b in zip(self._cross, high):
            np.multiply(np.bitwise_count(low & np.uint32(key_masks[b] & (self.size - 1))),
                        2, out=row)
        self._class = sizes * np.int16(e + 1)
        offset = [0]
        for b in high:
            above = key_masks[b] >> bits
            offset += [k + 2 * (c & above).bit_count() - degree[b]
                       for c, k in enumerate(offset)]
        self._offset = offset

    def level(self, theta: LabelVector) -> int:
        """The level of theta, in O(n): each edge it splits is counted from
        its endpoint labelled 1, one set bit of its word at a time."""
        word = rest = theta.word
        split = 0
        while rest:
            bit = rest & -rest
            split += (self._masks[bit.bit_length() - 1] & ~word).bit_count()
            rest ^= bit
        return theta.m * (self._e + 1) + self._e - split

    def chunk(self, c: int, at=slice(None)) -> np.ndarray:
        """The levels of chunk c (keys c·2^L to (c + 1)·2^L − 1), or of its
        keys at the positions ``at`` only, built from the first chunk's by
        one row per set bit of c (int16)."""
        levels = self._first[at] + self._class[c.bit_count()][at]
        for j in range(len(self._cross)):
            if c >> j & 1:
                levels += self._cross[j][at]
        levels += self._offset[c]
        return levels

    def walk(self) -> Iterator[tuple[int, np.ndarray]]:
        """Every chunk once, as (c, its levels), in Gray-code order of c,
        so that each step adds or takes away one row. The levels are one
        buffer, overwritten at the next step."""
        within = self._first.copy()
        levels = np.empty_like(within)
        c = 0
        for i in range(len(self._offset)):
            if i:
                j = (i & -i).bit_length() - 1
                c ^= 1 << j
                if c >> j & 1:
                    within += self._cross[j]
                else:
                    within -= self._cross[j]
            np.add(within, self._class[c.bit_count()], out=levels)
            levels += self._offset[c]
            yield c, levels


def _key_order_levels(stream) -> np.ndarray:
    """The level of every half-cube key, in key order (int16, read-only),
    filled chunk by chunk from ``stream`` (see _HalfCubeStream)."""
    levels = np.empty(1 << (stream.n - 1), dtype=np.int16)
    for c, chunk in stream.walk():
        levels[c * stream.size:(c + 1) * stream.size] = chunk
    return _read_only(levels)


def within_edge_counts(x: Graph, words: np.ndarray) -> np.ndarray:
    """Within-class edge count for each packed labeling word (any words of
    n bits, canonical or not): the half-cube levels read at each word's
    key, a labeling and its complement splitting the same edges.

    Nothing in the package calls it; it stays here, exported, because the
    benchmark's tracer still reads a per-layer row from it by this name."""
    levels = _key_order_levels(_HalfCubeStream(x))
    return levels[half_cube_keys(words, x.n)] % (x.num_edges + 1)


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


class PosteriorTable:
    """Exact normalized posterior over all canonical labelings, as built by
    exact_posterior.

    Labelings fall into levels that share one class size and one log mass;
    exact_posterior makes a level of each pair (m, s) of smaller-class size
    and within-class edge count. The table keeps per chunk of half-cube
    keys how many of its labelings each level holds, per level its log
    mass, probability, class size and labeling count, and the stream that
    serves the key-order levels one chunk at a time (see _HalfCubeStream),
    but no level per key. It reports the mass of a set of labelings as a
    count-weighted sum over levels (see masked_mass).

    Class-size masses read the level counts; a point lookup computes its
    labeling's level; the mode and small credible sets rebuild only the
    chunks whose histogram holds a level they take, a ball (``ball``) only
    its keys in the chunks it reaches, and a large set's key mask is filled
    by one more walk (``walk``). The arrays over the canonical index, its
    ``words`` and ``class_sizes`` and the canonical ``level``, are built
    when first read, by the outputs that take every labeling in index
    order (write_csv, inclusion_probabilities and masked_mass). No
    per-labeling float is kept: a labeling's log mass and probability are
    its level's. Immutable after construction.
    """

    def __init__(self, stream, level_log_mass: np.ndarray, level_class_size: np.ndarray):
        """The table over the canonical labelings of stream.n vertices,
        which lie in the levels ``stream`` gives them. The stream serves ``level(theta)``
        for one labeling, ``chunk(c, at)`` for the half-cube keys c·2^L to
        (c + 1)·2^L − 1 (L = log2 stream.size), or for those at the
        positions ``at`` among them, and ``walk()``, every
        chunk once as (c, levels). Each chunk of the walk is counted into
        its own histogram row (uint16, as a chunk holds at most 2^14 keys);
        the level counts are its column sums (at most 2^(n-1), summed in
        uint32)."""
        self.n = stream.n
        self._stream = stream
        chunk_count = np.empty((len(self) // stream.size, len(level_log_mass)),
                               dtype=np.uint16)
        for c, levels in stream.walk():
            chunk_count[c] = np.bincount(levels, minlength=chunk_count.shape[1])
        self._chunk_count = _read_only(chunk_count)
        self._level_class_size = level_class_size
        level_count = chunk_count.sum(axis=0, dtype=np.uint32).astype(np.int64)
        self._level_count = level_count
        # a level no labeling reaches may lie far above the normalizer; it
        # gets no mass, so that exp neither overflows nor warns on it
        self._level_log_mass = np.where(level_count > 0, level_log_mass, -np.inf)
        self.log_normalizer = log_sum_exp(self._level_log_mass, level_count)
        self._level_prob = _read_only(np.exp(self._level_log_mass - self.log_normalizer))

    @cached_property
    def words(self) -> np.ndarray:
        """Per labeling, its packed word: canonical_words(n)."""
        return canonical_words(self.n)[0]

    @cached_property
    def class_sizes(self) -> np.ndarray:
        """Per labeling, its smaller-class size."""
        return canonical_words(self.n)[1]

    @cached_property
    def level(self) -> np.ndarray:
        """Per labeling, the index of its level (intp, so that gathers by
        level need no index cast)."""
        levels = _key_order_levels(self._stream)
        return _read_only(canonical_order(levels, self.n).astype(np.intp))

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
        return 1 << (self.n - 1)

    def level_masses(self) -> tuple[np.ndarray, np.ndarray]:
        """Per level: the probability of each of its labelings, and how
        many labelings it holds (both 0 for levels no labeling reaches)."""
        return self._level_prob, self._level_count

    def probability(self, theta: LabelVector) -> float:
        if theta.n != self.n:
            raise ValueError(f"vertex counts differ: {theta.n} vs {self.n}")
        return float(self._level_prob[self._stream.level(theta)])

    def labelings_in(self, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For a boolean mask over the levels: the half-cube keys (intp) of
        the labelings in the levels it selects, in key order, and the level
        of each. Only the chunks whose histogram holds a selected level are
        rebuilt, and nothing over the canonical index is built
        (model.index_order puts the keys in index order)."""
        stream = self._stream
        held = self._chunk_count.compress(levels, axis=1).sum(axis=1, dtype=np.intp)
        keys = np.empty(int(held.sum()), dtype=np.intp)
        level = np.empty(len(keys), dtype=np.intp)
        index = np.empty(stream.size, dtype=np.intp)
        hit = np.empty(stream.size, dtype=bool)
        end = 0
        for c in np.flatnonzero(held).tolist():
            # an intp index, so that the gather casts nothing
            np.copyto(index, stream.chunk(c))
            np.take(levels, index, out=hit)
            found = np.flatnonzero(hit)
            np.add(found, c * stream.size, out=keys[end:end + len(found)])
            np.take(index, found, out=level[end:end + len(found)])
            end += len(found)
        return keys, level

    def walk(self) -> Iterator[tuple[int, np.ndarray]]:
        """Every chunk of half-cube keys once, in no set order, as (its first
        key, its keys' levels), the levels overwritten at the next step."""
        return ((c * self._stream.size, levels) for c, levels in self._stream.walk())

    def mode(self) -> LabelVector:
        """The most probable labeling; ties go to the first in index
        order, i.e. lexicographically."""
        keys, _ = self.labelings_in(self._level_prob == self._level_prob.max())
        first = keys[index_order(keys, self.n)[:1]]
        return LabelVector(self.n, int(half_cube_words(first, self.n)[0]))

    def mass_of_class_size(self, m: int) -> float:
        return self.class_size_mass(np.arange(self.n // 2 + 1) == m)[1]

    def ball(self, center: LabelVector,
             radius: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The labelings within complement-folded distance < radius of
        center, one chunk of half-cube keys at a time in key order: for
        each chunk that holds any, their keys (intp, ascending) and levels.

        A key and center's key both keep vertex 0 at label 0, so their
        folded distance is min(d, n − d) with d the popcount of their XOR.
        That d is the distance h between the chunks' high bits plus that
        between the low bits. So only the chunks with h < radius or
        h > n − radius − L are rebuilt, and only at the positions the
        ball takes in them, which depend on h alone.
        """
        if center.n != self.n:
            raise ValueError(f"vertex counts differ: {center.n} vs {self.n}")
        n, size = self.n, self._stream.size
        bits = size.bit_length() - 1
        key = half_cube_key(center)
        d_low = np.bitwise_count(_chunk_tables(n)[0] ^ np.uint32(key & (size - 1)))
        d_high = np.bitwise_count(np.arange(len(self) >> bits) ^ (key >> bits))
        positions = {}
        for c in np.flatnonzero((d_high < radius) | (d_high > n - radius - bits)).tolist():
            h = int(d_high[c])
            if h not in positions:
                d = d_low + h
                positions[h] = np.flatnonzero(np.minimum(d, n - d) < radius)
            yield positions[h] + c * size, self._stream.chunk(c, positions[h])

    def mass_of_ball(self, center: LabelVector, radius: int) -> float:
        """Mass of labelings with complement-folded distance < radius.

        The ball's levels (see ``ball``) are put in index order by
        model.canonical_order's rule, low keys ascending and then the
        others descending, and their probabilities are summed in that
        order. Its memory is one level and one float per labeling of the
        ball, and no canonical index is read.
        """
        low, high = [], []
        for keys, levels in self.ball(center, radius):
            split = 2 * np.bitwise_count(keys) <= self.n
            low.append(levels[split])
            high.append(levels[~split])
        if not low:
            return 0.0
        levels = np.concatenate(low + [np.concatenate(high)[::-1]])
        return float(self._level_prob[levels].sum())

    def inclusion_probabilities(self) -> np.ndarray:
        """Posterior probability that each vertex carries label 1."""
        out = np.zeros(self.n)
        for v in range(self.n):
            bit = (self.words >> np.uint32(v)) & np.uint32(1)
            out[v] = float(self._level_prob[self.level[bit == 1]].sum())
        return out

    def class_size_probabilities(self) -> np.ndarray:
        return np.array(
            [self.mass_of_class_size(m) for m in range(self.n // 2 + 1)]
        )

    def write_csv(self, f: TextIO) -> None:
        """Rows labeling,log_unnormalized,probability sorted by probability
        descending, ties lexicographic. Each level's two floats are written
        as one repr'd string, and the rows go out in chunks."""
        text = [f",{mass!r},{prob!r}\n" for mass, prob in
                zip(self._level_log_mass.tolist(), self._level_prob.tolist())]
        order = np.argsort(-self._level_prob[self.level], kind="stable")
        f.write("labeling,log_unnormalized,probability\n")
        for start in range(0, len(order), _STRING_CHUNK):
            chunk = order[start:start + _STRING_CHUNK]
            rows = zip(label_strings(self.words[chunk], self.n), self.level[chunk].tolist())
            f.write("".join([label + text[i] for label, i in rows]))


def level_log_mass(n: int, e: int, prior: PriorSpec, model: EdgeModel) -> np.ndarray:
    """Log prior times likelihood of a labeling of n vertices on a graph of
    e edges, per level: entry [m, s] for smaller-class size m and s
    within-class edges, on the read-only float64 (n//2 + 1) x (e + 1) grid.
    """
    we = np.arange(e + 1, dtype=np.int64)[np.newaxis, :]
    m = np.arange(n // 2 + 1, dtype=np.int64)[:, np.newaxis]
    wp = m * (m - 1) // 2 + (n - m) * (n - m - 1) // 2
    total_pairs = n * (n - 1) // 2
    ll = (
        we * math.log(model.p)
        + (wp - we) * math.log1p(-model.p)
        + (e - we) * math.log(model.q)
        + ((total_pairs - wp) - (e - we)) * math.log1p(-model.q)
    )
    lp = np.asarray(log_mass_by_class_size(prior, n))[:, np.newaxis]
    return _read_only(lp + ll)


def exact_posterior(x: Graph, prior: PriorSpec, model: EdgeModel) -> PosteriorTable:
    """The posterior over every canonical labeling: mass proportional to
    prior times likelihood, normalized by a max-shifted log-sum-exp.

    The log mass is read from the level_log_mass grid, and the table keeps
    the stream of the labelings' levels, level m·(E + 1) + s.
    """
    n = x.n
    check_enumerable(n)
    e = x.num_edges
    level_class_size = np.repeat(np.arange(n // 2 + 1), e + 1)
    return PosteriorTable(_HalfCubeStream(x),
                          level_log_mass(n, e, prior, model).ravel(), level_class_size)


def posterior_mode(samples: Iterable[LabelVector]) -> LabelVector:
    """The most frequent labeling in a stream of samples; ties broken
    lexicographically. The exact mode is PosteriorTable.mode()."""
    counts = Counter(samples)
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
    masks = x.neighbor_masks
    degs = [mk.bit_count() for mk in masks]
    # log mass by raw 1-count m and within-class edge count s: the grid's
    # row for the canonical class size min(m, n - m)
    rows = level_log_mass(n, x.num_edges, prior, model).tolist()
    by_count = [rows[min(k, n - k)] for k in range(n + 1)]

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
    current_score = by_count[m][s]
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
                new_score = by_count[m_new][s_new]
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
