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
from typing import Iterable, Iterator, Sequence

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
    "enumerate_labelings",
    "canonical_words",
    "canonical_keys",
    "canonical_order",
    "half_cube_keys",
    "half_cube_class_sizes",
    "canonical_index",
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

# Exact inference scores the 2^(n-1) labelings of the half cube and holds a
# few arrays over all 2^(n-1) canonical labelings (words, class sizes and
# levels; per-labeling floats only when asked for), so each extra vertex
# doubles its time and memory. The cap keeps one exact query well under a
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


def canonical_words(n: int, cap: int = ENUMERATION_CAP) -> tuple[np.ndarray, np.ndarray]:
    """All canonical label words for n vertices, in lexicographic bit order.

    Returns (words, m) where words[k] packs the k-th labeling (bit i =
    vertex i) and m[k] is its smaller-class size. Read-only arrays, cached.
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if n > cap:
        raise ValueError(f"n={n} exceeds enumeration cap {cap}")
    return _canonical_words(n)


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


@lru_cache(maxsize=8)
def half_cube_class_sizes(n: int) -> np.ndarray:
    """Per half-cube key h, in key order: the smaller-class size of its
    labeling, min(popcount(h), n - popcount(h)). uint8, read-only, cached."""
    m = np.bitwise_count(np.arange(1 << (n - 1), dtype=np.uint32))
    np.minimum(m, np.uint8(n) - m, out=m)
    m.setflags(write=False)
    return m


def canonical_order(values: np.ndarray, n: int) -> np.ndarray:
    """Reorder an array over the half cube, in key order, into canonical
    order: entry k of the result belongs to canonical_words(n)[k]. Suits
    any quantity a labeling shares with its complement."""
    low = _half_split(n)
    return np.concatenate((values[low], values[~low][::-1]))


def _split_keys(n: int) -> np.ndarray:
    """The canonical keys in ascending order, as a new array."""
    keys = canonical_order(np.arange(1 << (n - 1), dtype=np.uint32), n)
    keys[np.count_nonzero(_half_split(n)):] ^= np.uint32((1 << n) - 1)
    return keys


@lru_cache(maxsize=8)
def _canonical_words(n: int) -> tuple[np.ndarray, np.ndarray]:
    keys = _split_keys(n)
    words = _bit_reverse(keys, n)
    mm = np.bitwise_count(keys)
    words.setflags(write=False)
    mm.setflags(write=False)
    return words, mm


@lru_cache(maxsize=8)
def canonical_keys(n: int) -> np.ndarray:
    """Sort keys of canonical_words(n): each labeling string read as a
    binary number, i.e. the word with its low n bits reversed.

    The keys ascend, so np.searchsorted on them gives a labeling's index.
    Built on first use only, since most queries never look a labeling up.
    """
    keys = _split_keys(n)
    keys.setflags(write=False)
    return keys


def half_cube_keys(words: np.ndarray, n: int) -> np.ndarray:
    """The half-cube key of each packed word: its labeling string read as a
    binary number, or that of its complement where vertex 0 has label 1."""
    keys = _bit_reverse(np.asarray(words, dtype=np.uint32), n)
    high = keys >= np.uint32(1 << (n - 1))
    keys[high] ^= np.uint32((1 << n) - 1)
    return keys


def canonical_index(theta: LabelVector) -> int:
    """Position of theta in canonical_words(theta.n)."""
    return int(np.searchsorted(canonical_keys(theta.n), int(theta.to_string(), 2)))


def num_labelings(n: int, m: int | None = None) -> int:
    """Number of canonical labelings, optionally restricted to class size m."""
    if m is None:
        return 1 << (n - 1)
    if m < 0 or 2 * m > n:
        return 0
    if 2 * m == n:
        return math.comb(n, m) // 2
    return math.comb(n, m)


def enumerate_labelings(
    n: int, m: int | None = None, cap: int = ENUMERATION_CAP
) -> Iterator[LabelVector]:
    """Yield every canonical labeling once, in lexicographic bit order.

    ``m`` restricts to a single smaller-class size. Rejects n above the
    enumeration cap as a resource guard.
    """
    words, ms = canonical_words(n, cap)
    if m is not None:
        words = words[ms == m]
    for w in words:
        yield LabelVector(n, int(w))


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

    Edges are unordered pairs {i, j}, i != j, stored sorted. Exposes numpy
    index arrays and per-vertex neighbor bitmasks for the likelihood hot
    paths.
    """

    __slots__ = ("n", "edges", "_ei", "_ej", "_masks")

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
        ei = np.fromiter((e[0] for e in self.edges), dtype=np.int64, count=len(self.edges))
        ej = np.fromiter((e[1] for e in self.edges), dtype=np.int64, count=len(self.edges))
        self._ei = ei
        self._ej = ej
        masks = [0] * n
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self._masks = tuple(masks)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def edge_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._ei, self._ej

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

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Graph with vertex i renamed perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of range(n)")
        return Graph(self.n, [(perm[i], perm[j]) for i, j in self.edges])

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
    ei, ej = x.edge_index_arrays
    if theta.n <= 63:
        w = np.uint64(theta.word)
        if len(ei):
            diff = ((w >> ei.astype(np.uint64)) ^ (w >> ej.astype(np.uint64))) & np.uint64(1)
            within_edges = int(len(ei) - int(diff.sum()))
        else:
            within_edges = 0
    else:  # word exceeds uint64; plain bit arithmetic
        w = theta.word
        within_edges = sum(
            1 for i, j in x.edges if ((w >> i) ^ (w >> j)) & 1 == 0
        )
    m = theta.m
    n = theta.n
    within_pairs = m * (m - 1) // 2 + (n - m) * (n - m - 1) // 2
    return within_edges, within_pairs


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
    ei, ej = x.edge_index_arrays
    s = t = 0
    if len(ei) and theta.n <= 63:
        tw = np.uint64(theta.word)
        ew = np.uint64(eta.word)
        eiu = ei.astype(np.uint64)
        eju = ej.astype(np.uint64)
        theta_same = (((tw >> eiu) ^ (tw >> eju)) & np.uint64(1)) == 0
        eta_same = (((ew >> eiu) ^ (ew >> eju)) & np.uint64(1)) == 0
        s = int(np.count_nonzero(theta_same & ~eta_same))
        t = int(np.count_nonzero(~theta_same & eta_same))
    elif len(ei):
        tw, ew = theta.word, eta.word
        for i, j in x.edges:
            t_same = ((tw >> i) ^ (tw >> j)) & 1 == 0
            e_same = ((ew >> i) ^ (ew >> j)) & 1 == 0
            s += t_same and not e_same
            t += e_same and not t_same
    p, q = model.p, model.q
    lam = math.log1p(-p) - math.log(p) + math.log(q) - math.log1p(-q)
    ratio = (s - t) * lam + (d1 - d2) * (math.log1p(-q) - math.log1p(-p))
    return ratio, LikelihoodRatioStats(s=s, t=t, d1=d1, d2=d2, lam=lam)
