import copy
import csv
import hashlib
import io
import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bisect_bayes import (
    BetaBernoulli,
    EdgeModel,
    FixedBernoulli,
    Graph,
    LabelVector,
    McmcConfig,
    UniformClassSize,
    canonicalize,
    class_size_marginal,
    exact_posterior,
    log_likelihood,
    log_prior_mass,
    mcmc_posterior,
    posterior_mode,
    sample_graph,
)
from bisect_bayes import cli, inference, posterior
from bisect_bayes.model import (
    _canonical_words,
    canonical_index,
    canonical_order,
    canonical_positions,
    canonical_words,
    half_cube_keys,
    half_cube_words,
)
from bisect_bayes.posterior import (
    _HalfCubeStream,
    _key_order_levels,
    level_log_mass,
    log_sum_exp,
    within_edge_counts,
)
from bisect_bayes.priors import log_mass_by_class_size
from table_helpers import enumerate_labelings, log_unnormalized, probabilities, table_from_masses

UNIFORM = FixedBernoulli(0.5)


def edge_loop_counts(x, words):
    """Reference within-class edge counts: one pass over the words per edge."""
    counts = np.zeros(len(words), dtype=np.int64)
    w = words.astype(np.uint64)
    for i, j in x.edges:
        counts += (((w >> np.uint64(i)) ^ (w >> np.uint64(j))) & np.uint64(1) == 0)
    return counts


def full_cube_counts(x, words):
    """Reference within-class edge counts by vertex doubling over all 2^n
    raw labelings, read at each word: with the vertices from k up at label
    0, giving vertex k label 1 changes the count of labeling j < 2^k by
    2·popcount(j & mask_<k) − deg(k)."""
    n = x.n
    s = np.empty(1 << n, dtype=np.int16)
    s[0] = x.num_edges
    j = np.arange(1 << (n - 1), dtype=np.uint32)
    for k, mask in enumerate(x.neighbor_masks):
        half = 1 << k
        lower = np.bitwise_count(j[:half] & np.uint32(mask & (half - 1)))
        s[half:2 * half] = s[:half] + 2 * lower - mask.bit_count()
    return s[words]


def key_order_levels(x):
    """Reference levels m·(E+1) + s of the half-cube keys in key order,
    key bit n-1-v being the label of vertex v, with s from full_cube_counts."""
    n = x.n
    keys = np.arange(1 << (n - 1), dtype=np.uint32)
    words = np.zeros_like(keys)
    for v in range(n):
        words |= ((keys >> np.uint32(n - 1 - v)) & np.uint32(1)) << np.uint32(v)
    ones = np.bitwise_count(words).astype(np.int64)
    return np.minimum(ones, n - ones) * (x.num_edges + 1) + full_cube_counts(x, words)


def assert_stream_matches(stream, keyed):
    """Every chunk the stream rebuilds, every chunk of its walk (each once)
    and the level it computes for a key equal the key-order oracle."""
    size = stream.size
    walked = []
    for c, levels in stream.walk():
        assert np.array_equal(levels, keyed[c * size:(c + 1) * size])
        walked.append(c)
    assert sorted(walked) == list(range(len(keyed) // size))
    for c in walked:
        levels = stream.chunk(c)
        assert levels.dtype == np.int16
        assert np.array_equal(levels, keyed[c * size:(c + 1) * size])
    rng = np.random.default_rng(len(keyed))
    keys = np.append(rng.integers(0, len(keyed), size=20), [0, len(keyed) - 1])
    for key, word in zip(keys.tolist(), half_cube_words(keys, stream.n).tolist()):
        assert stream.level(LabelVector(stream.n, word)) == keyed[key]


def oracle_graphs(n):
    """Empty, complete, and random graphs of three densities."""
    return [
        Graph(n, []),
        Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]),
    ] + [sample_graph(LabelVector(n, 0), EdgeModel(p, p / 2), seed)
         for seed, p in enumerate((0.2, 0.5, 0.9))]


def mask_of(table, predicate):
    """Boolean mask over the table's index of the labelings satisfying
    the predicate."""
    return np.array([predicate(theta) for theta in labelings_of(table)], dtype=bool)


def labelings_of(table):
    """The table's labelings, in index order."""
    return [LabelVector(table.n, int(w)) for w in table.words]


def relabel(graph, perm):
    """The graph with vertex i renamed perm[i]."""
    return Graph(graph.n, [(perm[i], perm[j]) for i, j in graph.edges])


def per_labeling_log_mass(x, prior, model):
    """Reference log unnormalized mass: the prior-plus-likelihood
    expression evaluated for each labeling on its own counts."""
    n = x.n
    words, ms = canonical_words(n)
    we = edge_loop_counts(x, words)
    m = ms.astype(np.int64)
    wp = m * (m - 1) // 2 + (n - m) * (n - m - 1) // 2
    total_pairs = n * (n - 1) // 2
    e = x.num_edges
    ll = (
        we * math.log(model.p)
        + (wp - we) * math.log1p(-model.p)
        + (e - we) * math.log(model.q)
        + ((total_pairs - wp) - (e - we)) * math.log1p(-model.q)
    )
    return np.asarray(log_mass_by_class_size(prior, n))[ms] + ll


class TestWithinEdgeCounts:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_edge_loop_exactly(self, n):
        words, _ = canonical_words(n)
        graphs = [
            Graph(n, []),
            Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]),
        ] + [sample_graph(LabelVector(n, 0), EdgeModel(0.6, 0.25), seed)
             for seed in range(3)]
        for g in graphs:
            assert np.array_equal(within_edge_counts(g, words), edge_loop_counts(g, words))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_canonical_order_kernel_matches_oracles(self, n):
        words, _ = canonical_words(n)
        for g in oracle_graphs(n):
            got = canonical_order(_key_order_levels(_HalfCubeStream(g)) % (g.num_edges + 1), n)
            assert got.dtype == np.int16
            assert np.array_equal(got, edge_loop_counts(g, words))
            assert np.array_equal(got, full_cube_counts(g, words))

    @pytest.mark.parametrize("n", range(1, 19))
    def test_level_histogram_matches_full_cube_oracle(self, n):
        words, ms = canonical_words(n)
        model = EdgeModel(0.7, 0.2)
        for g in oracle_graphs(n):
            table = exact_posterior(g, UNIFORM, model)
            e = g.num_edges
            levels = ms.astype(np.int64) * (e + 1) + full_cube_counts(g, words)
            # counted in key order, before the canonical level exists
            assert "level" not in vars(table)
            assert np.array_equal(table.level_masses()[1],
                                  np.bincount(levels, minlength=(n // 2 + 1) * (e + 1)))
            assert np.array_equal(table.level, levels)
            # one histogram row per chunk of 2^14 keys, summing to the counts
            keyed = key_order_levels(g)
            size = min(1 << 14, len(keyed))
            chunks = table._chunk_count
            assert chunks.dtype == np.uint16 and not chunks.flags.writeable
            assert chunks.shape == (len(keyed) // size, (n // 2 + 1) * (e + 1))
            for c, row in enumerate(chunks):
                assert np.array_equal(row, np.bincount(keyed[c * size:(c + 1) * size],
                                                       minlength=chunks.shape[1]))
            assert np.array_equal(chunks.sum(axis=0), table.level_masses()[1])
            assert_stream_matches(table._stream, keyed)

    @pytest.mark.parametrize("n", [20, 22])
    @pytest.mark.parametrize("kind", ["sharp", "flat", "empty", "complete"])
    def test_streamed_chunks_match_key_order_oracle(self, n, kind):
        if kind in ("sharp", "flat"):
            p, q = (0.7, 0.2) if kind == "sharp" else (0.5, 0.45)
            g = sample_graph(canonicalize([v < n // 4 for v in range(n)]), EdgeModel(p, q), n)
        else:
            g = Graph(n, [] if kind == "empty" else
                      [(i, j) for i in range(n) for j in range(i + 1, n)])
        table = exact_posterior(g, UNIFORM, EdgeModel(0.7, 0.2))
        keyed = key_order_levels(g)
        chunks = table._chunk_count
        assert chunks.shape[0] == len(keyed) >> 14
        for c, row in enumerate(chunks):
            assert np.array_equal(row, np.bincount(keyed[c << 14:(c + 1) << 14],
                                                   minlength=chunks.shape[1]))
        assert_stream_matches(table._stream, keyed)
        assert np.array_equal(table.level, canonical_order(keyed, n))

    @pytest.mark.parametrize("n", range(15, 19))
    def test_labelings_in_matches_full_scan(self, n):
        # n = 15 is one chunk of 2^14 keys, n = 18 is eight
        rng = np.random.default_rng(n)
        model = EdgeModel(0.7, 0.2)
        for g in oracle_graphs(n):
            table = exact_posterior(g, UNIFORM, model)
            count = table.level_masses()[1]
            reached = np.flatnonzero(count)
            masks = [np.zeros(len(count), dtype=bool), np.ones(len(count), dtype=bool),
                     rng.random(len(count)) < 0.5]
            for k in (1, 2, 5):
                mask = np.zeros(len(count), dtype=bool)
                mask[rng.choice(reached, size=min(k, len(reached)), replace=False)] = True
                masks.append(mask)
            for levels in masks:
                keys, level = table.labelings_in(levels)
                positions = canonical_positions(keys, n)
                expected = np.flatnonzero(levels[table.level])
                order = np.argsort(positions)
                assert np.array_equal(positions[order], expected)
                assert np.array_equal(level[order], table.level[expected])

    def test_labelings_in_skips_chunks_without_the_levels(self):
        # a forged copy whose stream puts the top level into a chunk whose
        # histogram row does not hold it: that chunk is never rebuilt,
        # where a full scan would return its keys
        n = 18
        model = EdgeModel(0.7, 0.2)
        g = sample_graph(canonicalize([v < n // 4 for v in range(n)]), model, 0)
        table = exact_posterior(g, UNIFORM, model)
        prob = table.level_masses()[0]
        top = prob == prob.max()
        stream = table._stream
        rows = np.array([top[stream.chunk(c)].any() for c in range(len(table) >> 14)])
        assert rows.any() and not rows.all()
        bad = int(np.flatnonzero(~rows)[0])
        start = bad << 14

        class Forged:
            n, size = stream.n, stream.size

            def chunk(self, c):
                levels = stream.chunk(c)
                if c == bad:
                    levels[:3] = np.flatnonzero(top)[0]
                return levels

        forged = copy.copy(table)
        forged._stream = Forged()
        keys, level = forged.labelings_in(top)
        positions = canonical_positions(keys, n)
        expected = canonical_positions(table.labelings_in(top)[0], n)
        assert np.array_equal(np.sort(positions), np.sort(expected))
        assert not np.isin(canonical_positions(start + np.arange(3), n), positions).any()
        assert top[level].all()
        # the forged chunk is what a full scan would read
        assert top[Forged().chunk(bad)[:3]].all()

    @pytest.mark.parametrize("n", range(1, 15))
    def test_shuffled_raw_words(self, n):
        # any words of n bits, canonical or not, in any order
        rng = np.random.default_rng(n)
        raw = rng.permutation(np.arange(1 << n, dtype=np.uint32))[:500]
        for g in oracle_graphs(n):
            got = within_edge_counts(g, raw)
            assert np.array_equal(got, full_cube_counts(g, raw))
            assert np.array_equal(got, edge_loop_counts(g, raw))


class TestExactPosterior:
    def test_p_equals_q_returns_prior(self):
        model = EdgeModel(0.4, 0.4)
        g = sample_graph(LabelVector.from_string("000111"), model, 2)
        for prior in [UNIFORM, BetaBernoulli(2.0, 1.0), UniformClassSize()]:
            table = exact_posterior(g, prior, model)
            for theta, prob in zip(labelings_of(table), probabilities(table).tolist()):
                assert prob == pytest.approx(
                    math.exp(log_prior_mass(theta, prior)), rel=1e-10
                )

    def test_n1_point_mass(self):
        table = exact_posterior(Graph(1, []), UNIFORM, EdgeModel(0.5, 0.5))
        assert len(table) == 1
        assert probabilities(table)[0] == pytest.approx(1.0, abs=1e-15)

    def test_matches_rational_oracle_n4(self):
        # exact rational posterior with Fraction arithmetic
        p, q = Fraction(9, 10), Fraction(1, 10)
        model = EdgeModel(float(p), float(q))
        theta0 = LabelVector.from_string("0011")
        g = sample_graph(theta0, model, 31)
        present = set(g.edges)

        def rational_likelihood(bits):
            value = Fraction(1)
            for i in range(4):
                for j in range(i + 1, 4):
                    prob = p if bits[i] == bits[j] else q
                    value *= prob if (i, j) in present else 1 - prob
            return value

        labs = list(enumerate_labelings(4))
        masses = {t: Fraction(1, 8) * rational_likelihood(t.bits) for t in labs}
        total = sum(masses.values())
        table = exact_posterior(g, UNIFORM, model)
        for t in labs:
            assert table.probability(t) == pytest.approx(
                float(masses[t] / total), rel=1e-12
            )

    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    @pytest.mark.parametrize(
        "prior", [UNIFORM, FixedBernoulli(0.3), BetaBernoulli(1.5, 2.5), UniformClassSize()]
    )
    def test_normalization_and_support(self, n, prior):
        model = EdgeModel(0.7, 0.2)
        g = sample_graph(LabelVector(n, 0), model, 77)
        table = exact_posterior(g, prior, model)
        assert len(table) == 1 << (n - 1)
        assert abs(float(probabilities(table).sum()) - 1.0) < 1e-10
        assert (probabilities(table) >= 0).all()

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 11, 12])
    @pytest.mark.parametrize("prior, p, q", [
        (UNIFORM, 0.7, 0.2),
        (BetaBernoulli(1.5, 2.5), 0.3, 0.6),
        (UniformClassSize(), 0.5, 0.45),
        (UNIFORM, 0.4, 0.4),
    ])
    def test_level_grid_matches_per_labeling_formula(self, n, prior, p, q):
        model = EdgeModel(p, q)
        g = sample_graph(canonicalize([v % 2 for v in range(n)]), model, 5)
        table = exact_posterior(g, prior, model)
        assert np.array_equal(log_unnormalized(table), per_labeling_log_mass(g, prior, model))
        direct = np.exp(log_unnormalized(table) - table.log_normalizer)
        assert np.array_equal(probabilities(table), direct)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_lookup_finds_every_labeling(self, n):
        words, _ = canonical_words(n)
        for k, theta in enumerate(enumerate_labelings(n)):
            assert canonical_index(theta) == k
            assert words[k] == theta.word

    @pytest.mark.parametrize("kind", ["sharp", "flat", "tied", "far"])
    def test_point_lookup_reads_key_order_levels(self, kind):
        table = reduction_tables()[kind]
        thetas = labelings_of(table)
        got = [table.probability(theta) for theta in thetas]
        assert "level" not in vars(table)
        assert got == [probabilities(table)[canonical_index(theta)] for theta in thetas]

    def test_class_sizes_are_not_copied(self):
        # every table of n vertices shares the cached class-size array
        table = exact_posterior(Graph(10, [(0, 1), (2, 3)]), UNIFORM, EdgeModel(0.6, 0.3))
        assert table.class_sizes is canonical_words(10)[1]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_each_level_holds_one_class_size(self, n):
        model = EdgeModel(0.7, 0.2)
        for g in oracle_graphs(n):
            table = exact_posterior(g, UNIFORM, model)
            assert np.array_equal(table._level_class_size[table.level], table.class_sizes)

    def test_lookup_rejects_other_vertex_count(self):
        table = exact_posterior(Graph(4, [(0, 1)]), UNIFORM, EdgeModel(0.6, 0.3))
        for theta in (LabelVector.from_string("001"), LabelVector.from_string("00011")):
            with pytest.raises(ValueError, match="vertex counts differ"):
                table.probability(theta)

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            exact_posterior(Graph(23, []), UNIFORM, EdgeModel(0.5, 0.4))

    def test_relabeling_invariance(self):
        # permuting vertices of graph and planted labeling together leaves
        # the planted labeling's mass unchanged
        model = EdgeModel(0.8, 0.2)
        theta0 = LabelVector.from_string("0010110")
        g = sample_graph(theta0, model, 13)
        base = exact_posterior(g, BetaBernoulli(1, 1), model).probability(theta0)
        rng = np.random.default_rng(4)
        for _ in range(5):
            perm = rng.permutation(7).tolist()
            relabeled = relabel(g, perm)
            bits = [0] * 7
            for i, b in enumerate(theta0.bits):
                bits[perm[i]] = b
            image = canonicalize(bits)
            moved = exact_posterior(relabeled, BetaBernoulli(1, 1), model)
            assert moved.probability(image) == pytest.approx(base, rel=1e-10)


def reduction_tables():
    """Sharp, flat, tied (p == q) and far-model tables: the last scores a
    sharp graph under a model with p and q swapped, so its log masses lie
    far from zero and far apart."""
    theta = canonicalize([v % 3 == 0 for v in range(13)])
    sharp = sample_graph(theta, EdgeModel(0.8, 0.1), 6)
    return {
        "sharp": exact_posterior(sharp, UNIFORM, EdgeModel(0.8, 0.1)),
        "flat": exact_posterior(sample_graph(theta, EdgeModel(0.5, 0.45), 7),
                                UniformClassSize(), EdgeModel(0.5, 0.45)),
        "tied": exact_posterior(sample_graph(theta, EdgeModel(0.4, 0.4), 8),
                                UNIFORM, EdgeModel(0.4, 0.4)),
        "far": exact_posterior(sharp, BetaBernoulli(2.0, 1.0), EdgeModel(0.05, 0.95)),
    }


def fsum_oracle(table, mask):
    """Reference masked mass: the masked labelings counted per distinct
    log_unnormalized value, by np.unique over the per-labeling arrays, then
    summed by the fsum rule (count times exp of the shifted value, and
    count times probability)."""
    values, first, counts = np.unique(log_unnormalized(table)[mask],
                                      return_index=True, return_counts=True)
    if len(values) == 0:
        return -math.inf, 0.0
    mx = float(values.max())
    log_mass = mx + math.log(math.fsum((np.exp(values - mx) * counts).tolist()))
    return log_mass, math.fsum((probabilities(table)[mask][first] * counts).tolist())


def pairwise_sums(table, mask):
    """The per-labeling sums in numpy's pairwise order."""
    if not mask.any():
        return -math.inf, 0.0
    lu = log_unnormalized(table)[mask]
    mx = float(lu.max())
    return (mx + math.log(float(np.sum(np.exp(lu - mx)))),
            float(probabilities(table)[mask].sum()))


class TestMaskedMass:
    @pytest.mark.parametrize("kind", ["sharp", "flat", "tied", "far"])
    def test_bit_for_bit_per_labeling_reduction(self, kind):
        table = reduction_tables()[kind]
        prob = probabilities(table)
        rng = np.random.default_rng(3)
        masks = [
            np.zeros(len(table), dtype=bool),
            np.ones(len(table), dtype=bool),
            table.class_sizes == 0,
            table.class_sizes != 0,
            prob < np.median(prob),
        ] + [rng.random(len(table)) < d for d in (0.001, 0.3, 0.9)]
        for mask in masks:
            got = table.masked_mass(mask)
            assert got == fsum_oracle(table, mask)
            for value, pairwise in zip(got, pairwise_sums(table, mask)):
                assert math.isclose(value, pairwise, rel_tol=1e-12)
        everything = np.ones(len(table), dtype=bool)
        assert table.log_normalizer == fsum_oracle(table, everything)[0]

    def test_empty_mask(self):
        table = reduction_tables()["sharp"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert table.masked_mass(np.zeros(len(table), dtype=bool)) == (-math.inf, 0.0)
            # no labeling has a class size above n // 2
            assert table.class_size_mass(np.zeros(table.n // 2 + 1, dtype=bool)) \
                == (-math.inf, 0.0)
            assert table.mass_of_class_size(table.n // 2 + 1) == 0.0
            assert log_sum_exp(np.array([1.0, 2.0]), np.zeros(2, dtype=np.int64)) == -math.inf
            assert log_sum_exp(np.array([])) == -math.inf

    def test_class_size_masses_match_per_labeling_sums(self):
        tables = list(reduction_tables().values())
        tied = tables[2]
        # each distinct (class size, mass) is a level
        tables.append(table_from_masses(tied.n, log_unnormalized(tied)))
        for table in tables:
            for m in range(table.n // 2 + 1):
                mask = table.class_sizes == m
                assert table.mass_of_class_size(m) == fsum_oracle(table, mask)[1]
                assert math.isclose(table.mass_of_class_size(m),
                                    pairwise_sums(table, mask)[1], rel_tol=1e-12)


class TestPerLabelingArraysOnDemand:
    @pytest.fixture()
    def tables(self, monkeypatch):
        made = []

        def recording(*args, **kwargs):
            made.append(exact_posterior(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(cli, "exact_posterior", recording)
        monkeypatch.setattr(inference, "exact_posterior", recording)
        return made

    @pytest.mark.parametrize("argv", [
        ["credible", "--gamma", "0.05", "--enlarge", "0"],
        ["credible", "--gamma", "0.05", "--enlarge", "1"],
        ["credible", "--gamma", "0.05", "--enlarge", "2"],
        ["test", "--m0", "0", "--complement"],
        ["test", "--m0", "4", "--m1", "8"],
    ])
    def test_queries_leave_arrays_unbuilt(self, tmp_path, capsys, tables, argv):
        g = sample_graph(canonicalize([v < 4 for v in range(16)]), EdgeModel(0.7, 0.2), 1)
        graph = tmp_path / "g.json"
        graph.write_text(g.to_json())
        _canonical_words.cache_clear()
        assert cli.main([argv[0], "--graph", str(graph), "--prior", "bernoulli:r=0.5",
                         "--p", "0.7", "--q", "0.2", *argv[1:]]) == 0
        assert len(tables) == 1 and len(tables[0]) == 1 << 15
        # class-size tests read the level counts alone, and a small
        # credible set is found from the key-order levels
        assert "level" not in vars(tables[0])
        # and so is its member list, and that of its radius-1 enlargement,
        # with no canonical index built; a wider one is read from the index
        if argv[-2:] != ["--enlarge", "2"]:
            assert _canonical_words.cache_info().currsize == 0

    @pytest.mark.parametrize("query, limit", [
        (lambda table: inference.class_size_odds(table, 0, None), 4),
        (lambda table: inference.enlarge(inference.hpd_credible_set(table, 0.05), 1).mask, 5),
    ], ids=["test", "credible"])
    def test_peak_bytes_per_labeling(self, query, limit):
        # the key-order levels (2 bytes) and a set's mask (1 byte) are the
        # only per-labeling arrays a class-size test or a small credible
        # set allocates; cached index arrays are warmed first
        n = 20
        model = EdgeModel(0.7, 0.2)
        g = sample_graph(canonicalize([v < 5 for v in range(n)]), model, 0)
        query(exact_posterior(g, UNIFORM, model))
        tracemalloc.start()
        try:
            query(exact_posterior(g, UNIFORM, model))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit << (n - 1)

    def test_streamed_queries_build_no_key_order_levels(self, tables):
        # a class-size test, the mode, a point lookup, a small credible
        # set's members, membership of its enlargements and ball masses
        # read the histogram and rebuilt chunks, and no array of 2^(n-1)
        # levels (or of anything else per key) is built
        n = 20
        model = EdgeModel(0.7, 0.2)
        theta0 = canonicalize([v < 5 for v in range(n)])
        g = sample_graph(theta0, model, 0)
        inference.class_size_test(g, UNIFORM, model, 0, None, 1.0)
        table = exact_posterior(g, UNIFORM, model)
        far = canonicalize([v % 2 for v in range(n)])
        tracemalloc.start()
        try:
            theta = table.mode()
            hpd = inference.hpd_credible_set(table, 0.05)
            words = hpd.member_words()
            held = [far in inference.enlarge(hpd, radius) for radius in (2, 3)]
            masses = [table.mass_of_ball(theta0, radius) for radius in (2, 3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.probability(theta) == table.level_masses()[0].max()
        assert hpd.small and theta.word in words.tolist() and theta in hpd
        assert held == [False, False] and 0 < masses[0] < masses[1] <= 1
        assert len(tables) == 1
        for made in (tables[0], table, table._stream):
            assert "level" not in vars(made)
            assert all(np.size(value) < len(table) for value in vars(made).values())
        assert peak < 1 << (n - 1)

    def test_class_size_test_peak_at_the_cap(self):
        # the histogram (uint16, one row per chunk) and the kernel rows
        # are all a class-size test allocates: 1.1 MiB, where the int16
        # key-order levels alone are 4 MiB
        n = 22
        model = EdgeModel(0.7, 0.2)
        g = sample_graph(canonicalize([v < n // 4 for v in range(n)]), model, 0)
        inference.class_size_test(g, UNIFORM, model, 0, None, 1.0)
        tracemalloc.start()
        try:
            inference.class_size_test(g, UNIFORM, model, 0, None, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 19

    def test_arrays_are_built_once_and_read_only(self):
        table = reduction_tables()["flat"]
        for name in ("level", "words", "class_sizes"):
            assert getattr(table, name) is getattr(table, name)
            assert not getattr(table, name).flags.writeable


class TestPosteriorMass:
    @pytest.fixture()
    def table(self):
        model = EdgeModel(0.85, 0.15)
        theta0 = LabelVector.from_string("00001111")
        return exact_posterior(sample_graph(theta0, model, 3), UNIFORM, model)

    def test_everything_is_one(self, table):
        everything = mask_of(table, lambda t: True)
        assert table.masked_mass(everything)[1] == pytest.approx(1.0, abs=1e-10)

    def test_full_ball_is_one(self, table):
        center = LabelVector.from_string("00001111")
        assert table.mass_of_ball(center, 8) == pytest.approx(1.0, abs=1e-10)

    def test_ball_matches_predicate(self, table):
        from bisect_bayes import sym_distance

        center = LabelVector.from_string("00011011")
        for k in range(1, 5):
            direct = table.masked_mass(mask_of(table, lambda t: sym_distance(t, center) < k))[1]
            assert table.mass_of_ball(center, k) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_listed_ball_equals_scan(self, n):
        # every ball's mass sums the same floats in the same order as a
        # scan over the canonical words, and reads no canonical index. The
        # graphs go sharp, flat and tied (p == q) with n
        p, q, prior = ((0.7, 0.2, UNIFORM), (0.5, 0.45, UniformClassSize()),
                       (0.4, 0.4, UNIFORM))[n % 3]
        theta0 = LabelVector.from_string("0" * (n - n // 2) + "1" * (n // 2))
        model = EdgeModel(p, q)
        table = exact_posterior(sample_graph(theta0, model, n), prior, model)
        centers = list(enumerate_labelings(n))
        radii = range(-1, n // 2 + 3)
        got = [[table.mass_of_ball(center, radius) for radius in radii]
               for center in centers]
        assert not {"words", "class_sizes", "level"} & set(vars(table))
        prob = probabilities(table)
        for center, masses in zip(centers, got):
            k = np.bitwise_count(table.words ^ np.uint32(center.word)).astype(np.int64)
            folded = np.minimum(k, n - k)
            assert masses == [float(prob[folded < radius].sum()) for radius in radii]

    @pytest.mark.parametrize("n", [*range(1, 13), *range(16, 21)])
    def test_ball_chunks_match_oracle(self, n):
        # per chunk of 2^14 keys, in key order: the keys of the canonical
        # words within folded distance < radius, ascending, and their
        # key-order levels. Every centre up to n = 12; from n = 16 the
        # balls span chunks, and 8 random centres are taken
        model = EdgeModel(0.7, 0.2)
        g = sample_graph(canonicalize([v < n // 4 for v in range(n)]), model, n)
        table = exact_posterior(g, UNIFORM, model)
        keyed = key_order_levels(g)
        words, _ = canonical_words(n)
        centers = (range(len(words)) if n <= 12 else
                   np.random.default_rng(n).choice(len(words), size=8, replace=False))
        for k in centers:
            d = np.bitwise_count(words ^ words[k]).astype(np.int64)
            folded = np.minimum(d, n - d)
            for radius in range(-1, n // 2 + 3):
                chunks = list(table.ball(LabelVector(n, int(words[k])), radius))
                expected = np.sort(half_cube_keys(words[folded < radius], n))
                assert np.array_equal(np.concatenate([[], *(keys for keys, _ in chunks)]),
                                      expected)
                for keys, levels in chunks:
                    assert keys.dtype == np.intp and levels.dtype == np.int16
                    assert len(keys) and (keys >> 14 == keys[0] >> 14).all()
                    assert (np.diff(keys) > 0).all()
                    assert np.array_equal(levels, keyed[keys])

    def test_small_ball_builds_no_per_labeling_array(self):
        model = EdgeModel(0.7, 0.2)
        theta0 = canonicalize([v < 5 for v in range(18)])
        table = exact_posterior(sample_graph(theta0, model, 0), UNIFORM, model)
        table.mass_of_ball(theta0, 3)
        assert "level" not in vars(table)

    def test_class_size_predicate(self, table):
        direct = table.masked_mass(mask_of(table, lambda t: t.m == 2))[1]
        assert table.mass_of_class_size(2) == pytest.approx(direct, abs=1e-12)

    def test_empty_class_unlikely_on_assortative_graphs(self):
        # strongly assortative draws leave almost no mass on the
        # single-community labeling
        model = EdgeModel(0.9, 0.1)
        theta0 = LabelVector.from_string("0000011111")
        small = 0
        reps = 200
        for seed in range(reps):
            g = sample_graph(theta0, model, seed)
            table = exact_posterior(g, UNIFORM, model)
            if table.mass_of_class_size(0) < 0.01:
                small += 1
        assert small >= 0.95 * reps


class TestPosteriorMode:
    def test_point_mass_table(self):
        model = EdgeModel(0.9, 0.1)
        theta0 = LabelVector.from_string("0000011111")
        table = exact_posterior(sample_graph(theta0, model, 8), UNIFORM, model)
        assert table.mode() == theta0

    def test_tie_breaks_lexicographically(self):
        model = EdgeModel(0.5, 0.5)
        g = sample_graph(LabelVector.from_string("000111"), model, 1)
        table = exact_posterior(g, UNIFORM, model)
        assert table.mode() == LabelVector.from_string("000000")

    @staticmethod
    def argmax_oracle(table):
        return LabelVector(table.n, int(table.words[int(np.argmax(probabilities(table)))]))

    @pytest.mark.parametrize("kind", ["sharp", "flat", "tied", "far"])
    def test_matches_argmax_oracle(self, kind):
        table = reduction_tables()[kind]
        mode = table.mode()
        # the mode is read from the levels and the key-order level array
        assert "level" not in vars(table)
        assert mode == self.argmax_oracle(table)

    @pytest.mark.parametrize("n", [*range(1, 11), 16, 18])
    def test_matches_argmax_oracle_on_oracle_graphs(self, n):
        # empty and complete graphs tie whole class sizes, so the most
        # probable labelings have canonical keys on either side of the split
        # and, at n = 16 and 18, in several chunks of 2^14 keys
        for g in oracle_graphs(n):
            for model in (EdgeModel(0.7, 0.2), EdgeModel(0.2, 0.7)):
                for prior in (UNIFORM, FixedBernoulli(0.2), UniformClassSize(),
                              BetaBernoulli(2.0, 1.0)):
                    table = exact_posterior(g, prior, model)
                    assert table.mode() == self.argmax_oracle(table)

    def test_tie_among_complemented_keys(self):
        # swapping vertices 1 and 2 maps the graph to itself, and the two
        # most probable labelings both put vertex 0 at label 1
        model = EdgeModel(0.1, 0.8)
        table = exact_posterior(Graph(5, [(0, 3), (0, 4), (1, 2)]), UNIFORM, model)
        prob = probabilities(table)
        top = np.flatnonzero(prob == prob.max())
        assert len(top) == 2 and all(table.words[top] & 1)
        assert table.mode() == self.argmax_oracle(table)

    def test_scaling_invariance(self):
        model = EdgeModel(0.8, 0.3)
        g = sample_graph(LabelVector.from_string("000111"), model, 5)
        table = exact_posterior(g, UNIFORM, model)
        scaled = table_from_masses(table.n, log_unnormalized(table) + 123.45)
        assert scaled.mode() == table.mode()
        assert np.allclose(probabilities(scaled), probabilities(table), atol=1e-12)

    def test_mode_recovers_planted_labeling(self):
        model = EdgeModel(0.9, 0.05)
        theta0 = LabelVector.from_string("0000011111")
        hits = 0
        reps = 200
        for seed in range(reps):
            g = sample_graph(theta0, model, seed)
            if exact_posterior(g, UNIFORM, model).mode() == theta0:
                hits += 1
        assert hits >= 0.95 * reps

    def test_mode_from_samples(self):
        a = LabelVector.from_string("0011")
        b = LabelVector.from_string("0101")
        assert posterior_mode([a, b, b]) == b
        assert posterior_mode([a, b]) == a  # tie: lexicographically smaller


class TestCsvOutput:
    def test_sorted_by_probability_then_labeling(self, tmp_path):
        model = EdgeModel(0.75, 0.2)
        g = sample_graph(LabelVector.from_string("00011"), model, 9)
        table = exact_posterior(g, UNIFORM, model)
        path = tmp_path / "post.csv"
        with open(path, "w", newline="") as f:
            table.write_csv(f)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 16
        probs = [float(r["probability"]) for r in rows]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)
        keys = [(-float(r["probability"]), r["labeling"]) for r in rows]
        assert keys == sorted(keys)

    @staticmethod
    def per_labeling_csv(table):
        """Reference CSV: csv.writer over each labeling's own string, log
        mass and probability, in the stable descending order."""
        prob = probabilities(table)
        order = np.argsort(-prob, kind="stable")
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["labeling", "log_unnormalized", "probability"])
        writer.writerows(
            (LabelVector(table.n, word).to_string(), repr(log_mass), repr(p))
            for word, log_mass, p in zip(table.words[order].tolist(),
                                         log_unnormalized(table)[order].tolist(),
                                         prob[order].tolist()))
        return out.getvalue()

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("p, q, prior", [
        (0.7, 0.2, UNIFORM),
        (0.5, 0.45, UniformClassSize()),
        (0.4, 0.4, UNIFORM),
        (0.8, 0.3, BetaBernoulli(1.5, 2.5)),
    ], ids=["sharp", "flat", "tied", "beta"])
    def test_chunks_match_per_labeling_writer(self, n, p, q, prior, monkeypatch):
        # five rows to a chunk, so that tie groups straddle chunk boundaries
        monkeypatch.setattr(posterior, "_STRING_CHUNK", 5)
        monkeypatch.setattr("bisect_bayes.model._STRING_CHUNK", 5)
        model = EdgeModel(p, q)
        theta0 = LabelVector.from_string("0" * (n - n // 3) + "1" * (n // 3))
        table = exact_posterior(sample_graph(theta0, model, n), prior, model)
        out = io.StringIO()
        table.write_csv(out)
        assert out.getvalue() == self.per_labeling_csv(table)


class TestMcmc:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(burn_in=0, samples=10, thin=1, seed=0)
        with pytest.raises(ValueError):
            McmcConfig(burn_in=1, samples=0, thin=1, seed=0)

    def test_default_config(self):
        cfg = McmcConfig.default(10, seed=3)
        assert (cfg.burn_in, cfg.samples, cfg.thin) == (1000, 10_000, 10)

    def test_deterministic_given_seed(self):
        model = EdgeModel(0.7, 0.3)
        g = sample_graph(LabelVector.from_string("000111"), model, 4)
        cfg = McmcConfig(burn_in=50, samples=500, thin=2, seed=11)
        r1 = mcmc_posterior(g, UNIFORM, model, cfg)
        r2 = mcmc_posterior(g, UNIFORM, model, cfg)
        assert r1.samples == r2.samples

    def test_samples_are_canonical(self):
        model = EdgeModel(0.6, 0.3)
        g = sample_graph(LabelVector.from_string("0000011111"), model, 6)
        cfg = McmcConfig(burn_in=100, samples=2000, thin=1, seed=2)
        result = mcmc_posterior(g, UniformClassSize(), model, cfg)
        assert len(result.samples) == 2000
        for s in result.samples[:50]:
            assert 2 * s.m <= 10
            assert isinstance(s, LabelVector)

    def test_uninformative_case_matches_folded_binomial(self):
        # with p == q and the uniform prior the posterior equals the prior,
        # whose class-size law is a folded Binomial(n, 1/2)
        n = 10
        model = EdgeModel(0.3, 0.3)
        g = sample_graph(LabelVector.from_string("0" * n), model, 12)
        cfg = McmcConfig(burn_in=1000, samples=100_000, thin=2, seed=9)
        result = mcmc_posterior(g, UNIFORM, model, cfg)
        target = class_size_marginal(UNIFORM, n)
        tv = 0.5 * float(np.abs(result.class_size_probabilities - target).sum())
        assert tv < 0.05

    def test_marginals_match_enumeration(self):
        model = EdgeModel(0.85, 0.15)
        theta0 = LabelVector.from_string("0000011111")
        g = sample_graph(theta0, model, 7)
        table = exact_posterior(g, UNIFORM, model)
        result = mcmc_posterior(g, UNIFORM, model, McmcConfig.default(10, seed=5))
        err = np.abs(
            result.inclusion_probabilities - table.inclusion_probabilities()
        ).max()
        assert err < 0.02

    def test_flow_balance(self):
        # reversibility: transitions a->b and b->a occur equally often in
        # a stationary run, up to Monte Carlo noise
        model = EdgeModel(0.7, 0.3)
        theta0 = LabelVector.from_string("00011")
        g = sample_graph(theta0, model, 21)
        cfg = McmcConfig(burn_in=2000, samples=150_000, thin=1, seed=5)
        result = mcmc_posterior(g, UNIFORM, model, cfg)
        words = [s.word for s in result.samples]
        trans = Counter(zip(words[:-1], words[1:]))
        checked = 0
        for (a, b), n_ab in trans.items():
            if a >= b:
                continue
            n_ba = trans.get((b, a), 0)
            total = n_ab + n_ba
            if total < 64:
                continue
            assert abs(n_ab - n_ba) <= 5.0 * math.sqrt(total)
            checked += 1
        assert checked > 10

    @pytest.mark.parametrize("n, prior, p, q, digest", [
        (20, UniformClassSize(), 0.5, 0.4,
         "9ceceb886749fa86ff7900d7d153049123b6ba65900e2c702ba45b7170bf727f"),
        (40, BetaBernoulli(2.0, 1.0), 0.55, 0.45,
         "d4423e22d414db691a105e2c68c65ef242ca52a21a0c5277d3e22674f7335f0a"),
    ])
    def test_sampled_words_are_pinned(self, n, prior, p, q, digest):
        # the sha256 of a fixed-seed chain's words, in emission order
        model = EdgeModel(p, q)
        g = sample_graph(canonicalize([v < n // 4 for v in range(n)]), model, n)
        cfg = McmcConfig(burn_in=1000, samples=2000, thin=5, seed=n)
        words = [s.word for s in mcmc_posterior(g, prior, model, cfg).samples]
        assert hashlib.sha256(" ".join(map(str, words)).encode()).hexdigest() == digest


class TestLevelLogMass:
    @pytest.mark.parametrize("n", [9, 20, 40, 64, 80])
    @pytest.mark.parametrize("prior", [FixedBernoulli(0.3), BetaBernoulli(1.5, 2.5),
                                       UniformClassSize()])
    def test_equals_per_labeling_reference(self, n, prior):
        # bit for bit, on labelings of every class size; past n = 63 the
        # reference counts edges on Python ints
        rng = np.random.default_rng(n)
        for model in (EdgeModel(0.7, 0.2), EdgeModel(0.5, 0.45)):
            g = sample_graph(canonicalize([v < n // 3 for v in range(n)]), model, n)
            grid = level_log_mass(n, g.num_edges, prior, model)
            assert grid.dtype == np.float64 and not grid.flags.writeable
            assert grid.shape == (n // 2 + 1, g.num_edges + 1)
            for _ in range(40):
                ones = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
                theta = canonicalize(np.isin(np.arange(n), ones).tolist())
                bits = theta.bits
                s = sum(bits[i] == bits[j] for i, j in g.edges)
                reference = log_prior_mass(theta, prior) + log_likelihood(theta, g, model)
                assert grid[theta.m, s] == reference
