"""Two-community random graph model: labelings, graphs, sampling, likelihood.

Vertices carry binary labels. Label 1 always marks the smaller class; ties
at class size n/2 are broken by forcing the first label to 0 so that each
assignment and its global complement (which induce the same edge law) are
represented by a single canonical vector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ENUMERATION_CAP",
    "LabelVector",
    "Graph",
    "EdgeModel",
    "SparsityParams",
    "LikelihoodRatioStats",
    "canonicalize",
    "label_strings",
    "canonical_words",
    "canonical_order",
    "check_enumerable",
    "half_cube_key",
    "half_cube_keys",
    "half_cube_words",
    "canonical_index",
    "canonical_positions",
    "num_labelings",
    "hamming",
    "sym_distance",
    "discrepancy_sets",
    "sample_graph",
    "log_likelihood",
    "log_likelihood_ratio",
    "edge_probs_from_sparsity",
    "derive_rng",
]

# Exact inference scores the 2^(n-1) labelings of the half cube one chunk
# at a time and keeps a level histogram per chunk, so each extra vertex
# doubles its time; ball queries rebuild only the chunks a ball reaches.
# The canonical index (words and class sizes), the canonical levels and the
# per-labeling floats are arrays over all 2^(n-1) labelings, built only by
# the queries that read them. The cap keeps one exact query well under a
# second and a few hundred MB.
ENUMERATION_CAP = 22


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based RNG stream keyed by (seed, *stream).

    Philox generator seeded through SeedSequence entropy, so streams for
    distinct (seed, replication, ...) paths are independent and the mapping
    is reproducible across runs and worker counts.
    """
    entropy = tuple(int(s) & 0xFFFFFFFFFFFFFFFF for s in (seed, *stream))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return derive_rng(seed)


@total_ordering
@dataclass(frozen=True)
class LabelVector:
    """Canonical class assignment on n vertices, packed into an int.

    Bit i of ``word`` is the label of vertex i. Invariants: the number of
    1-labels m satisfies m <= n//2, and when n is even and m == n/2 the
    first label is 0.
    """

    n: int
    word: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        if self.word < 0 or self.word >> self.n:
            raise ValueError("label word out of range for vertex count")
        m = self.word.bit_count()
        if 2 * m > self.n or (2 * m == self.n and self.word & 1):
            raise ValueError("labels are not in canonical form")

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "LabelVector":
        word = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"labels must be 0/1, got {b!r}")
            word |= b << i
        return cls(len(bits), word)

    @classmethod
    def from_string(cls, text: str) -> "LabelVector":
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"labeling string must be nonempty 0/1, got {text!r}")
        return cls.from_bits([int(c) for c in text])

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.word >> i) & 1 for i in range(self.n))

    @property
    def m(self) -> int:
        """Size of the smaller class (number of 1-labels)."""
        return self.word.bit_count()

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __lt__(self, other: "LabelVector") -> bool:
        if self.n != other.n:
            return self.n < other.n
        return self.bits < other.bits

    def __repr__(self) -> str:
        return f"LabelVector({self.to_string()!r})"


def canonicalize(raw_bits: Sequence[int]) -> LabelVector:
    """Map a raw 0/1 sequence to its canonical representative.

    Returns the sequence itself if it already satisfies the invariants,
    otherwise its componentwise complement. Total on binary sequences.
    """
    n = len(raw_bits)
    word = 0
    for i, b in enumerate(raw_bits):
        if b not in (0, 1):
            raise ValueError(f"labels must be 0/1, got {b!r}")
        word |= b << i
    return LabelVector(n, canonicalize_word(word, n))


_STRING_CHUNK = 1 << 16


def label_strings(words: np.ndarray, n: int) -> list[str]:
    """The 0/1 string of each packed word, as LabelVector.to_string writes
    it (character i is bit i), built by array operations in chunks."""
    words = np.asarray(words, dtype=np.uint32)
    shifts = np.arange(n, dtype=np.uint32)
    out: list[str] = []
    for start in range(0, len(words), _STRING_CHUNK):
        chunk = words[start:start + _STRING_CHUNK, np.newaxis]
        chars = ((chunk >> shifts) & np.uint32(1)).astype(np.uint8)
        chars += np.uint8(ord("0"))
        out += chars.view(f"S{n}").ravel().astype(str).tolist()
    return out


def canonicalize_word(word: int, n: int) -> int:
    """Packed-word form of canonicalize: bit i is vertex i's label."""
    m = word.bit_count()
    if 2 * m > n or (2 * m == n and word & 1):
        return word ^ ((1 << n) - 1)
    return word


def _bit_reverse(u: np.ndarray, n: int) -> np.ndarray:
    """Reverse the low n bits of each uint32 element."""
    v = ((u & np.uint32(0x55555555)) << 1) | ((u >> 1) & np.uint32(0x55555555))
    v = ((v & np.uint32(0x33333333)) << 2) | ((v >> 2) & np.uint32(0x33333333))
    v = ((v & np.uint32(0x0F0F0F0F)) << 4) | ((v >> 4) & np.uint32(0x0F0F0F0F))
    v = ((v & np.uint32(0x00FF00FF)) << 8) | ((v >> 8) & np.uint32(0x00FF00FF))
    v = (v << 16) | (v >> 16)
    return v >> np.uint32(32 - n)


def canonical_words(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All canonical label words for n vertices, in lexicographic bit order.

    Returns (words, m) where words[k] packs the k-th labeling (bit i =
    vertex i) and m[k] is its smaller-class size. Read-only arrays, cached.
    """
    check_enumerable(n)
    return _canonical_words(n)


def check_enumerable(n: int) -> None:
    """Raise ValueError unless the labelings of n vertices can be
    enumerated: n must be positive and at most ENUMERATION_CAP."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if n > ENUMERATION_CAP:
        raise ValueError(f"n={n} exceeds enumeration cap {ENUMERATION_CAP}")


# The canonical index is built from the half cube: the keys h < 2^(n-1) of
# the labelings with vertex 0 at label 0, a key being the labeling string
# read as a binary number. Each labeling or its complement is such a key.
# Where popcount(h) <= n/2 the key h is itself canonical; elsewhere its
# complement 2^n - 1 - h is, and those complements lie above 2^(n-1) in
# reverse order of h. So the canonical keys ascend as h over the low keys
# followed by the complements of the others, taken in reverse.


@lru_cache(maxsize=8)
def _half_split(n: int) -> np.ndarray:
    """Per half-cube key h: whether popcount(h) <= n/2. Read-only, cached."""
    low = 2 * np.bitwise_count(np.arange(1 << (n - 1), dtype=np.uint32)) <= n
    low.setflags(write=False)
    return low


def canonical_order(values: np.ndarray, n: int) -> np.ndarray:
    """Reorder an array over the half cube, in key order, into canonical
    order: entry k of the result belongs to canonical_words(n)[k]. Suits
    any quantity a labeling shares with its complement."""
    low = _half_split(n)
    return np.concatenate((values[low], values[~low][::-1]))


@lru_cache(maxsize=8)
def _canonical_words(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the word of half-cube key h, by vertex doubling: key bit b is the
    # label of vertex n-1-b, so the words of keys h + 2^b (h < 2^b) are
    # those of h with bit n-1-b set
    rev = np.zeros(1 << (n - 1), dtype=np.uint32)
    for b in range(n - 1):
        half = 1 << b
        np.bitwise_or(rev[:half], np.uint32(1 << (n - 1 - b)), out=rev[half:2 * half])
    words = canonical_order(rev, n)
    words[np.count_nonzero(_half_split(n)):] ^= np.uint32((1 << n) - 1)
    # a canonical word's popcount is its smaller-class size
    mm = np.bitwise_count(words)
    words.setflags(write=False)
    mm.setflags(write=False)
    return words, mm


def half_cube_keys(words: np.ndarray, n: int) -> np.ndarray:
    """The half-cube key of each packed word: its labeling string read as a
    binary number, or that of its complement where vertex 0 has label 1."""
    keys = _bit_reverse(np.asarray(words, dtype=np.uint32), n)
    high = keys >= np.uint32(1 << (n - 1))
    keys[high] ^= np.uint32((1 << n) - 1)
    return keys


def half_cube_words(keys: np.ndarray, n: int) -> np.ndarray:
    """The canonical word (uint32) of the labeling with each half-cube key,
    the inverse of half_cube_keys: the key's bits reversed, complemented
    where more than n/2 of them are set."""
    keys = np.asarray(keys, dtype=np.uint32)
    words = _bit_reverse(keys, n)
    words[2 * np.bitwise_count(keys) > n] ^= np.uint32((1 << n) - 1)
    return words


# A low key's position in canonical order is its rank among the low keys;
# a high key's complement follows the low keys in reverse order of the
# high keys, so with R = 2^(n-1) keys its position is R - 1 - h + rank(h).
# The rank of h among the low keys splits at bit B: the low keys below its
# prefix (h >> B) << B, plus those that share its prefix and have a smaller
# suffix, which depends only on the prefix's popcount. Both tables have at
# most 2^11 entries per row up to n = 23.


@lru_cache(maxsize=8)
def _rank_tables(n: int) -> tuple[int, memoryview, memoryview]:
    """(B, prefix, suffix) for the rank of a half-cube key h among the low
    keys: prefix[p] counts the low keys below p << B, and suffix[k << B | s]
    the suffixes s' < s with 2(k + popcount(s')) <= n. Read-only views of
    int64 arrays, cached; indexing them gives Python ints."""
    bits = n // 2
    suffixes = np.bitwise_count(np.arange(1 << bits, dtype=np.int64))
    low = 2 * (np.arange(n - bits)[:, np.newaxis] + suffixes) <= n
    suffix = np.cumsum(low, axis=1) - low
    below = np.count_nonzero(low, axis=1)[
        np.bitwise_count(np.arange(1 << (n - 1 - bits), dtype=np.int64))]
    prefix = np.cumsum(below) - below
    suffix = suffix.ravel()
    prefix.setflags(write=False)
    suffix.setflags(write=False)
    return bits, memoryview(prefix), memoryview(suffix)


def canonical_positions(keys: np.ndarray, n: int) -> np.ndarray:
    """Position in canonical_words(n) of the labeling with each half-cube
    key (intp keys below 2^(n-1); a labeling and its complement share one)."""
    bits, prefix, suffix = _rank_tables(n)
    high = keys >> bits
    counts = np.bitwise_count(high).astype(np.intp)
    rank = np.asarray(prefix)[high] + np.asarray(suffix)[
        (counts << bits) | (keys & ((1 << bits) - 1))]
    complemented = 2 * np.bitwise_count(keys) > n
    rank[complemented] += (1 << (n - 1)) - 1 - keys[complemented]
    return rank


def half_cube_key(theta: LabelVector) -> int:
    """The half-cube key of theta: its labeling string read as a binary
    number, or that of its complement where vertex 0 has label 1."""
    n = theta.n
    key = int(format(theta.word, f"0{n}b")[::-1], 2)
    return key ^ ((1 << n) - 1) if key >> (n - 1) else key


def canonical_index(theta: LabelVector) -> int:
    """Position of theta in canonical_words(theta.n): canonical_positions
    for one key, in Python-int arithmetic, since a numpy call per lookup
    costs about ten times as much (1-2 us against 10-17 us)."""
    n = theta.n
    key = half_cube_key(theta)
    bits, prefix, suffix = _rank_tables(n)
    high = key >> bits
    rank = prefix[high] + suffix[(high.bit_count() << bits) | (key & ((1 << bits) - 1))]
    if 2 * key.bit_count() > n:
        rank += (1 << (n - 1)) - 1 - key
    return rank


def num_labelings(n: int, m: int | None = None) -> int:
    """Number of canonical labelings, optionally restricted to class size m."""
    if m is None:
        return 1 << (n - 1)
    if m < 0 or 2 * m > n:
        return 0
    if 2 * m == n:
        return math.comb(n, m) // 2
    return math.comb(n, m)


def _check_same_n(theta: LabelVector, eta: LabelVector) -> None:
    if theta.n != eta.n:
        raise ValueError(f"vertex counts differ: {theta.n} vs {eta.n}")


def _word_and_n(labels: LabelVector | Sequence[int]) -> tuple[int, int]:
    if isinstance(labels, LabelVector):
        return labels.word, labels.n
    word = 0
    for i, b in enumerate(labels):
        if b not in (0, 1):
            raise ValueError(f"labels must be 0/1, got {b!r}")
        word |= b << i
    return word, len(labels)


def hamming(theta: LabelVector | Sequence[int], eta: LabelVector | Sequence[int]) -> int:
    """Number of coordinates where the two labelings differ.

    Accepts canonical labelings or raw 0/1 sequences.
    """
    tw, tn = _word_and_n(theta)
    ew, en = _word_and_n(eta)
    if tn != en:
        raise ValueError(f"vertex counts differ: {tn} vs {en}")
    return (tw ^ ew).bit_count()


def sym_distance(
    theta: LabelVector | Sequence[int], eta: LabelVector | Sequence[int]
) -> int:
    """Hamming distance folded under global complement: min(k, n-k)."""
    k = hamming(theta, eta)
    _, n = _word_and_n(theta)
    return min(k, n - k)


def discrepancy_sets(theta: LabelVector, eta: LabelVector) -> tuple[int, int]:
    """Sizes (d1, d2) of the pair sets where the labelings disagree.

    d1 counts unordered pairs within-class under theta but split under eta;
    d2 the reverse. Computed from the four-way vertex partition by
    (theta-label, eta-label); d1 + d2 == k(n - k) with k the Hamming
    distance.
    """
    _check_same_n(theta, eta)
    tw, ew = theta.word, eta.word
    n = theta.n
    v11 = (tw & ew).bit_count()
    v10 = (tw & ~ew).bit_count()
    v01 = (~tw & ew & ((1 << n) - 1)).bit_count()
    v00 = n - v11 - v10 - v01
    d1 = v00 * v01 + v11 * v10
    d2 = v00 * v10 + v01 * v11
    return d1, d2


@dataclass(frozen=True)
class EdgeModel:
    """Within-class (p) and between-class (q) edge probabilities.

    Both must lie strictly inside (0, 1); boundary values would make
    log-likelihoods infinite and are rejected at construction.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        for name, value in (("p", self.p), ("q", self.q)):
            if not (0.0 < value < 1.0):
                raise ValueError(
                    f"edge probability {name}={value} must lie strictly in (0, 1)"
                )


CHERNOFF_HELLINGER = "chernoff-hellinger"
KESTEN_STIGUM = "kesten-stigum"


@dataclass(frozen=True)
class SparsityParams:
    """Sparsity reparametrization of the edge probabilities.

    chernoff-hellinger: p = first * log(n)/n, q = second * log(n)/n
    kesten-stigum:      p = first / n,        q = second / n
    """

    regime: str
    first: float
    second: float
    n: int

    def __post_init__(self) -> None:
        if self.regime not in (CHERNOFF_HELLINGER, KESTEN_STIGUM):
            raise ValueError(f"unknown sparsity regime {self.regime!r}")
        if self.n < 2:
            raise ValueError(f"vertex count must be >= 2, got {self.n}")


def edge_probs_from_sparsity(sp: SparsityParams) -> EdgeModel:
    """Resolve sparsity parameters to concrete edge probabilities."""
    if sp.regime == CHERNOFF_HELLINGER:
        scale = math.log(sp.n) / sp.n
    else:
        scale = 1.0 / sp.n
    p = sp.first * scale
    q = sp.second * scale
    for name, value in (("p", p), ("q", q)):
        if not (0.0 < value < 1.0):
            raise ValueError(
                f"sparsity parameters give {name}={value}, outside (0, 1)"
            )
    return EdgeModel(p=p, q=q)


def _is_json_int(value) -> bool:
    """Whether a decoded JSON value is an integer (true and false are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


class Graph:
    """Undirected simple graph on n vertices. Immutable after construction.

    Edges are unordered pairs {i, j}, i != j, stored sorted. Exposes
    per-vertex neighbor bitmasks for the likelihood hot paths.
    """

    __slots__ = ("n", "edges", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        norm = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            norm.add((i, j) if i < j else (j, i))
        self.n = n
        self.edges = tuple(sorted(norm))
        masks = [0] * n
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self._masks = tuple(masks)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        return self._masks

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[i, j] for i, j in self.edges]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Graph":
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise ValueError('graph JSON must be {"n": int, "edges": [[i, j], ...]}')
        n = obj["n"]
        if not _is_json_int(n):
            raise ValueError(f"graph JSON field n must be an integer, got {n!r}")
        if not isinstance(obj["edges"], list):
            raise ValueError(f"graph JSON field edges must be a list, got {obj['edges']!r}")
        edges = []
        for e in obj["edges"]:
            if not (isinstance(e, list) and len(e) == 2 and all(map(_is_json_int, e))):
                raise ValueError(f"bad edge entry {e!r}: need a pair of integer vertices")
            edges.append((e[0], e[1]))
        return cls(n, edges)

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        return cls.from_json_dict(json.loads(text))


def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    iu = np.triu_indices(n, k=1)
    return iu[0], iu[1]


def sample_graph(
    theta: LabelVector, model: EdgeModel, seed: int | np.random.Generator
) -> Graph:
    """Draw a graph: each pair {i,j} is an edge independently, with
    probability p when the labels agree and q otherwise. Deterministic
    given the seed; pairs are consumed in lexicographic order.
    """
    rng = _as_generator(seed)
    n = theta.n
    pi, pj = _pair_indices(n)
    bits = np.array(theta.bits, dtype=np.uint8)
    same = bits[pi] == bits[pj]
    prob = np.where(same, model.p, model.q)
    u = rng.random(len(prob))
    present = u < prob
    return Graph(n, list(zip(pi[present].tolist(), pj[present].tolist())))


def _edge_split(theta: LabelVector, x: Graph) -> tuple[int, int]:
    """(within-class edge count, within-class pair count) for theta on x."""
    w = theta.word
    # each split edge has one endpoint labeled 1; count it from there
    split_edges = sum((mask & ~w).bit_count()
                      for v, mask in enumerate(x.neighbor_masks) if w >> v & 1)
    m = theta.m
    n = theta.n
    within_pairs = m * (m - 1) // 2 + (n - m) * (n - m - 1) // 2
    return x.num_edges - split_edges, within_pairs


def log_likelihood(theta: LabelVector, x: Graph, model: EdgeModel) -> float:
    """Log-probability of the observed graph under the labeling.

    Sum over unordered pairs of the Bernoulli log-mass with parameter p for
    same-class pairs and q for split pairs. Finite for p, q in (0, 1).
    """
    if theta.n != x.n:
        raise ValueError(f"vertex counts differ: labeling {theta.n}, graph {x.n}")
    we, wp = _edge_split(theta, x)
    n = theta.n
    total_pairs = n * (n - 1) // 2
    be = x.num_edges - we
    bp = total_pairs - wp
    return (
        we * math.log(model.p)
        + (wp - we) * math.log1p(-model.p)
        + be * math.log(model.q)
        + (bp - be) * math.log1p(-model.q)
    )


@dataclass(frozen=True)
class LikelihoodRatioStats:
    """Sufficient statistics of the two-labeling likelihood ratio.

    s and t count present edges over the two discrepancy pair sets (sizes
    d1, d2); lam is log((1-p)/p) + log(q/(1-q)).
    """

    s: int
    t: int
    d1: int
    d2: int
    lam: float

    def __post_init__(self) -> None:
        if not (0 <= self.s <= self.d1 and 0 <= self.t <= self.d2):
            raise ValueError("edge counts exceed discrepancy set sizes")


def log_likelihood_ratio(
    theta: LabelVector, eta: LabelVector, x: Graph, model: EdgeModel
) -> tuple[float, LikelihoodRatioStats]:
    """log p_eta(x) - log p_theta(x) via sufficient statistics.

    Equals (s - t) * lam + (d1 - d2) * log((1-q)/(1-p)); agrees with the
    direct log-likelihood difference up to rounding.
    """
    _check_same_n(theta, eta)
    if theta.n != x.n:
        raise ValueError(f"vertex counts differ: labeling {theta.n}, graph {x.n}")
    d1, d2 = discrepancy_sets(theta, eta)
    # an edge is within-class under one labeling and split under the other
    # exactly when it joins a vertex where they differ to one where they
    # agree; count it from the first, by whether theta splits it
    tw = theta.word
    diff = tw ^ eta.word
    s = t = 0
    for v, mask in enumerate(x.neighbor_masks):
        if diff >> v & 1:
            crossing = mask & ~diff
            split = (crossing & ~tw if tw >> v & 1 else crossing & tw).bit_count()
            s += crossing.bit_count() - split
            t += split
    p, q = model.p, model.q
    lam = math.log1p(-p) - math.log(p) + math.log(q) - math.log1p(-q)
    ratio = (s - t) * lam + (d1 - d2) * (math.log1p(-q) - math.log1p(-p))
    return ratio, LikelihoodRatioStats(s=s, t=t, d1=d1, d2=d2, lam=lam)
