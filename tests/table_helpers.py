"""Posterior tables built from per-labeling masses, per-labeling masses
read from posterior tables, and the labelings themselves, for tests."""

import numpy as np

from bisect_bayes.model import LabelVector, _half_split, canonical_words, half_cube_key
from bisect_bayes.posterior import _CHUNK_BITS, PosteriorTable


class KeyOrderLevels:
    """Levels given in half-cube key order, served through the chunk
    interface of posterior._HalfCubeStream: one labeling's level, one chunk
    of 2^14 keys or some positions in it, and every chunk in key order."""

    def __init__(self, n, half_level):
        self.n = n
        self.size = min(1 << _CHUNK_BITS, len(half_level))
        self._levels = half_level

    def level(self, theta):
        return int(self._levels[half_cube_key(theta)])

    def chunk(self, c, at=slice(None)):
        return self._levels[c * self.size:(c + 1) * self.size][at]

    def walk(self):
        for c in range(len(self._levels) // self.size):
            yield c, self.chunk(c)


def table_from_masses(n, log_masses):
    """The table over canonical_words(n) whose labelings carry the given
    log unnormalized masses, in index order: every distinct pair of class
    size and mass is a level.

    The canonical levels are scattered back to half-cube key order, the
    inverse of model.canonical_order: the low keys take the first levels
    in order, the high keys the rest in reverse.
    """
    _, class_sizes = canonical_words(n)
    pairs, level = np.unique(np.column_stack((class_sizes, log_masses)),
                             axis=0, return_inverse=True)
    level = level.reshape(-1)
    low = _half_split(n)
    half_level = np.empty(len(low), dtype=np.intp)
    half_level[low] = level[:np.count_nonzero(low)]
    half_level[~low] = level[np.count_nonzero(low):][::-1]
    return PosteriorTable(KeyOrderLevels(n, half_level),
                          pairs[:, 1], pairs[:, 0].astype(class_sizes.dtype))


def probabilities(table):
    """Per labeling, in index order, its posterior probability: its level's."""
    return table.level_masses()[0][table.level]


def log_unnormalized(table):
    """Per labeling, in index order, the log of its unnormalized posterior
    mass: its level's."""
    return table._level_log_mass[table.level]


def enumerate_labelings(n, m=None):
    """Yield every canonical labeling once, in lexicographic bit order (the
    order of canonical_words). ``m`` restricts to a single smaller-class
    size. Refuses n above the enumeration cap, as canonical_words does."""
    words, class_sizes = canonical_words(n)
    if m is not None:
        words = words[class_sizes == m]
    for w in words:
        yield LabelVector(n, int(w))
