import math
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bisect_bayes import (
    EdgeModel,
    Graph,
    LabelVector,
    SparsityParams,
    canonicalize,
    derive_rng,
    discrepancy_sets,
    edge_probs_from_sparsity,
    hamming,
    log_likelihood,
    log_likelihood_ratio,
    num_labelings,
    sample_graph,
    sym_distance,
)
from bisect_bayes import model as model_module
from bisect_bayes.model import (
    canonical_order,
    canonical_positions,
    canonical_words,
    canonical_index,
    half_cube_keys,
    half_cube_words,
    index_order,
    label_lines,
    label_strings,
    labeling_at,
)
from table_helpers import enumerate_labelings

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=16)


class TestCanonicalize:
    def test_majority_ones_flips(self):
        assert canonicalize((1, 1, 1, 0)).bits == (0, 0, 0, 1)

    def test_already_canonical(self):
        assert canonicalize((0, 0, 1, 1)).bits == (0, 0, 1, 1)

    def test_tie_broken_by_first_label(self):
        assert canonicalize((1, 0, 0, 1)).bits == (0, 1, 1, 0)

    @given(bit_lists)
    def test_idempotent(self, bits):
        once = canonicalize(bits)
        assert canonicalize(once.bits) == once

    @given(bit_lists)
    def test_complement_maps_to_same_point(self, bits):
        comp = [1 - b for b in bits]
        assert canonicalize(bits) == canonicalize(comp)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exactly_two_preimages_each(self, n):
        images = Counter(
            canonicalize([(raw >> i) & 1 for i in range(n)])
            for raw in range(1 << n)
        )
        assert len(images) == 1 << (n - 1)
        assert set(images.values()) == {2}

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            canonicalize((0, 2, 0))


class TestLabelVector:
    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            LabelVector.from_bits((1, 1, 1, 0))
        with pytest.raises(ValueError):
            LabelVector.from_bits((1, 0, 0, 1))

    def test_string_round_trip(self):
        theta = LabelVector.from_string("00101")
        assert theta.to_string() == "00101"
        assert theta.m == 2

    def test_ordering_is_lexicographic(self):
        a = LabelVector.from_string("0011")
        b = LabelVector.from_string("0100")
        assert a < b


class TestEnumeration:
    def test_n4_has_eight(self):
        assert len(list(enumerate_labelings(4))) == 8

    def test_n1_single(self):
        labs = list(enumerate_labelings(1))
        assert [l.bits for l in labs] == [(0,)]

    def test_n4_m2_has_three(self):
        assert len(list(enumerate_labelings(4, m=2))) == 3

    @pytest.mark.parametrize("n", range(1, 11))
    def test_cardinalities(self, n):
        labs = list(enumerate_labelings(n))
        assert len(labs) == 1 << (n - 1)
        by_m = Counter(l.m for l in labs)
        for m in range(n // 2 + 1):
            expected = math.comb(n, m) // 2 if 2 * m == n else math.comb(n, m)
            assert by_m[m] == expected == num_labelings(n, m)

    def test_lexicographic_order_and_uniqueness(self):
        labs = list(enumerate_labelings(7))
        strings = [l.to_string() for l in labs]
        assert strings == sorted(strings)
        assert len(set(strings)) == len(strings)

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            list(enumerate_labelings(23))


def full_cube_canonical_words(n):
    """Reference canonical index: the raw keys 0..2^n-1 (labeling strings
    read as binary numbers, so ascending is lexicographic) filtered to the
    canonical labelings. Returns (keys, words, class sizes)."""
    u = np.arange(1 << n, dtype=np.uint32)
    m = np.bitwise_count(u).astype(np.uint8)
    canonical = (2 * m.astype(np.int32) < n) | (
        (2 * m.astype(np.int32) == n) & (u < np.uint32(1 << (n - 1)))
    )
    keys = u[canonical]
    words = np.zeros_like(keys)
    for i in range(n):
        words |= ((keys >> np.uint32(n - 1 - i)) & np.uint32(1)) << np.uint32(i)
    return keys, words, m[canonical]


class TestCanonicalIndex:
    @pytest.mark.parametrize("n", range(1, 23))
    def test_split_matches_full_cube_oracle(self, n):
        keys, words, ms = full_cube_canonical_words(n)
        got_words, got_ms = canonical_words(n)
        assert got_words.dtype == np.uint32 and got_ms.dtype == np.uint8
        assert np.array_equal(got_words, words)
        assert np.array_equal(got_ms, ms)
        assert not (got_words.flags.writeable or got_ms.flags.writeable)

    @pytest.mark.parametrize("n", range(1, 23))
    def test_position_map_inverts_full_cube_oracle(self, n):
        # the position of every canonical labeling from its half-cube key
        keys, _, _ = full_cube_canonical_words(n)
        full = np.uint32((1 << n) - 1)
        half = np.minimum(keys, keys ^ full).astype(np.intp)
        assert np.array_equal(canonical_positions(half, n), np.arange(len(keys)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_canonical_order_reads_keys_and_complements(self, n):
        # reordering the half-cube keys themselves gives each canonical
        # labeling's key or that of its complement
        half = np.arange(1 << (n - 1), dtype=np.uint32)
        full = np.uint32((1 << n) - 1)
        keys, _, _ = full_cube_canonical_words(n)
        assert np.array_equal(canonical_order(half, n), np.minimum(keys, keys ^ full))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_labeling_at_selects_every_position(self, n):
        words, _ = canonical_words(n)
        got = [labeling_at(n, k) for k in range(len(words))]
        assert [theta.word for theta in got] == words.tolist()
        assert all(canonical_index(theta) == k for k, theta in enumerate(got))

    def test_labeling_at_random_positions_at_the_cap(self):
        words, _ = canonical_words(22)
        picks = np.random.default_rng(22).integers(len(words), size=1000).tolist()
        picks += [0, len(words) // 2, len(words) - 1]
        assert [labeling_at(22, k).word for k in picks] == words[picks].tolist()

    @pytest.mark.parametrize("k", [-1, 1 << 7])
    def test_labeling_at_rejects_positions_off_the_index(self, k):
        with pytest.raises(ValueError, match="out of range"):
            labeling_at(8, k)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_index_order_is_the_argsort_of_positions(self, n):
        rng = np.random.default_rng(n)
        every = np.arange(1 << (n - 1))
        for density in (0.0, 0.1, 0.5, 1.0):
            keys = every[rng.random(len(every)) < density]
            order = index_order(keys, n)
            assert order.dtype == np.intp
            assert np.array_equal(order, np.argsort(canonical_positions(keys, n)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_half_cube_keys_of_raw_words(self, n):
        raw = np.random.default_rng(n).integers(0, 1 << n, size=300).astype(np.uint32)
        got = half_cube_keys(raw, n)
        for w, key in zip(raw.tolist(), got.tolist()):
            string = "".join(str((w >> i) & 1) for i in range(n))
            if string[0] == "1":
                string = "".join("10"[int(c)] for c in string)
            assert key == int(string, 2)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_half_cube_words_invert_the_keys(self, n):
        words, _ = canonical_words(n)
        got = half_cube_words(half_cube_keys(words, n).astype(np.intp), n)
        assert got.dtype == np.uint32 and np.array_equal(got, words)

    def test_half_cube_words_invert_the_keys_at_the_cap(self):
        words, _ = canonical_words(22)
        sample = words[np.random.default_rng(22).integers(0, len(words), size=4096)]
        assert np.array_equal(half_cube_words(half_cube_keys(sample, 22), 22), sample)


class TestLabelStrings:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_to_string_on_random_masks(self, n):
        words, _ = canonical_words(n)
        rng = np.random.default_rng(n)
        for density in (0.0, 0.3, 1.0):
            chosen = words[rng.random(len(words)) < density]
            assert label_strings(chosen, n) == [
                LabelVector(n, int(w)).to_string() for w in chosen]

    def test_chunks_join_in_order(self, monkeypatch):
        monkeypatch.setattr(model_module, "_STRING_CHUNK", 7)
        words, _ = canonical_words(9)
        assert label_strings(words, 9) == [
            LabelVector(9, int(w)).to_string() for w in words]

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    @pytest.mark.parametrize("sep", ["", "\n", '",\n    "'])
    def test_lines_join_the_strings(self, monkeypatch, chunk, sep):
        monkeypatch.setattr(model_module, "_STRING_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for n in (1, 2, 9, 16, 22):
            words, _ = canonical_words(n)
            for count in (0, 1, 2, 50):
                chosen = words[rng.integers(len(words), size=count)]
                expected = sep.join(LabelVector(n, int(w)).to_string() for w in chosen)
                assert label_lines(chosen, n, sep) == expected


class TestDistances:
    def test_hamming_and_sym(self):
        t = LabelVector.from_bits((0, 0, 0, 1, 1))
        e = LabelVector.from_bits((0, 0, 1, 0, 1))
        assert hamming(t, e) == 2
        assert sym_distance(t, e) == 2

    def test_identity(self):
        t = LabelVector.from_string("01001")
        assert hamming(t, t) == 0
        assert sym_distance(t, t) == 0

    def test_near_complement_raw_sequence(self):
        # raw (not canonical) sequences are accepted for distance queries
        assert hamming((0, 0, 0, 0), (0, 1, 1, 1)) == 3
        assert sym_distance((0, 0, 0, 0), (0, 1, 1, 1)) == 1

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            hamming(LabelVector.from_string("00"), LabelVector.from_string("000"))


def brute_discrepancy(theta: LabelVector, eta: LabelVector) -> tuple[int, int]:
    """Classify every vertex pair directly."""
    tb, eb = theta.bits, eta.bits
    d1 = d2 = 0
    for i in range(theta.n):
        for j in range(i + 1, theta.n):
            t_same = tb[i] == tb[j]
            e_same = eb[i] == eb[j]
            if t_same and not e_same:
                d1 += 1
            elif not t_same and e_same:
                d2 += 1
    return d1, d2


class TestDiscrepancySets:
    def test_single_flip(self):
        t = LabelVector.from_bits((0, 0, 0, 0))
        e = LabelVector.from_bits((0, 0, 0, 1))
        assert discrepancy_sets(t, e) == (3, 0)

    def test_identical(self):
        t = LabelVector.from_string("0011")
        assert discrepancy_sets(t, t) == (0, 0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_pair_classification_exhaustively(self, n):
        labs = list(enumerate_labelings(n))
        for t in labs:
            for e in labs:
                assert discrepancy_sets(t, e) == brute_discrepancy(t, e)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sum_identity_exhaustive(self, n):
        labs = list(enumerate_labelings(n))
        for t in labs:
            for e in labs:
                d1, d2 = discrepancy_sets(t, e)
                k = hamming(t, e)
                assert d1 + d2 == k * (n - k)


class TestEdgeModel:
    @pytest.mark.parametrize("p,q", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_boundary_rejected(self, p, q):
        with pytest.raises(ValueError):
            EdgeModel(p, q)

    def test_sparsity_chernoff_hellinger(self):
        model = edge_probs_from_sparsity(
            SparsityParams("chernoff-hellinger", 2.0, 1.0, 100)
        )
        assert model.p == pytest.approx(2 * math.log(100) / 100, rel=1e-15)
        assert model.q == pytest.approx(math.log(100) / 100, rel=1e-15)

    def test_sparsity_kesten_stigum(self):
        model = edge_probs_from_sparsity(SparsityParams("kesten-stigum", 5.0, 1.0, 100))
        assert model.p == pytest.approx(0.05)
        assert model.q == pytest.approx(0.01)

    def test_sparsity_out_of_range(self):
        with pytest.raises(ValueError, match="p="):
            edge_probs_from_sparsity(
                SparsityParams("chernoff-hellinger", 30.0, 1.0, 10)
            )

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            SparsityParams("dense", 1.0, 1.0, 10)


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_normalizes_and_sorts_edges(self):
        g = Graph(4, [(3, 1), (0, 2), (1, 3)])
        assert g.edges == ((0, 2), (1, 3))

    def test_json_round_trip(self):
        g = Graph(5, [(0, 1), (2, 4), (1, 3)])
        assert Graph.from_json(g.to_json()) == g

    def test_neighbor_masks(self):
        g = Graph(4, [(0, 1), (0, 3)])
        assert g.neighbor_masks[0] == (1 << 1) | (1 << 3)
        assert g.degree(0) == 2
        assert g.degree(2) == 0


class TestSampleGraph:
    def test_deterministic(self):
        theta = LabelVector.from_string("000111")
        model = EdgeModel(0.6, 0.2)
        assert sample_graph(theta, model, 123) == sample_graph(theta, model, 123)
        assert sample_graph(theta, model, 123) != sample_graph(theta, model, 124)

    def test_p_equals_q_is_edge_homogeneous(self):
        # with p == q every pair is an independent coin flip at rate p
        theta = LabelVector.from_string("0" * 20 + "1" * 12)
        model = EdgeModel(0.3, 0.3)
        n_pairs = 32 * 31 // 2
        total = draws = 0
        for seed in range(25):
            total += sample_graph(theta, model, seed).num_edges
            draws += n_pairs
        se = math.sqrt(0.3 * 0.7 / draws)
        assert abs(total / draws - 0.3) < 4 * se

    def test_block_structure_density(self):
        # dense within blocks, sparse across: within-class density close to p
        theta = LabelVector.from_string("0000011111")
        model = EdgeModel(0.9, 0.05)
        within_pairs = 2 * (5 * 4 // 2)
        count = 0
        reps = 1000
        for seed in range(reps):
            g = sample_graph(theta, model, seed)
            bits = theta.bits
            count += sum(1 for i, j in g.edges if bits[i] == bits[j])
        density = count / (reps * within_pairs)
        se = math.sqrt(0.9 * 0.1 / (reps * within_pairs))
        assert abs(density - 0.9) < 3 * se


def likelihood_by_products(bits, x: Graph, model: EdgeModel) -> float:
    """Direct product-form likelihood, no logs."""
    present = set(x.edges)
    value = 1.0
    for i in range(x.n):
        for j in range(i + 1, x.n):
            prob = model.p if bits[i] == bits[j] else model.q
            value *= prob if (i, j) in present else (1.0 - prob)
    return value


class TestLogLikelihood:
    def test_single_pair(self):
        theta = LabelVector.from_string("00")
        g = Graph(2, [(0, 1)])
        assert log_likelihood(theta, g, EdgeModel(0.3, 0.6)) == pytest.approx(
            math.log(0.3), rel=1e-15
        )

    def test_half_half_is_constant(self):
        model = EdgeModel(0.5, 0.5)
        g = sample_graph(LabelVector.from_string("000111"), model, 3)
        expected = -(6 * 5 / 2) * math.log(2)
        for theta in enumerate_labelings(6):
            assert log_likelihood(theta, g, model) == pytest.approx(expected, rel=1e-15)

    def test_matches_direct_product(self):
        model = EdgeModel(0.75, 0.15)
        theta = LabelVector.from_string("00011")
        g = sample_graph(theta, model, 17)
        for eta in enumerate_labelings(5):
            direct = likelihood_by_products(eta.bits, g, model)
            assert math.exp(log_likelihood(eta, g, model)) == pytest.approx(
                direct, rel=1e-12
            )

    @pytest.mark.parametrize("n", range(3, 9))
    def test_complement_invariance_exhaustive(self, n):
        # the likelihood depends on labels only through the same/split
        # pattern, which the global complement preserves
        model = EdgeModel(0.65, 0.2)
        for seed in range(3):
            g = sample_graph(LabelVector(n, 0), model, seed)
            for theta in enumerate_labelings(n):
                comp = [1 - b for b in theta.bits]
                direct = likelihood_by_products(theta.bits, g, model)
                flipped = likelihood_by_products(comp, g, model)
                assert flipped == pytest.approx(direct, rel=1e-12)
                assert math.exp(log_likelihood(theta, g, model)) == pytest.approx(
                    direct, rel=1e-12
                )

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            log_likelihood(LabelVector.from_string("00"), Graph(3, []), EdgeModel(0.5, 0.4))


class TestLogLikelihoodRatio:
    def test_same_labeling_is_zero(self):
        model = EdgeModel(0.8, 0.3)
        theta = LabelVector.from_string("0011")
        g = sample_graph(theta, model, 5)
        ratio, stats = log_likelihood_ratio(theta, theta, g, model)
        assert ratio == 0.0
        assert (stats.d1, stats.d2) == (0, 0)

    def test_p_equals_q_is_zero(self):
        model = EdgeModel(0.4, 0.4)
        g = sample_graph(LabelVector.from_string("000011"), model, 9)
        labs = list(enumerate_labelings(6))
        for theta, eta in product(labs[:8], labs[:8]):
            ratio, _ = log_likelihood_ratio(theta, eta, g, model)
            assert abs(ratio) < 1e-12

    def test_matches_direct_difference(self):
        rng = derive_rng(2024)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            labs = list(enumerate_labelings(n))
            theta = labs[int(rng.integers(len(labs)))]
            eta = labs[int(rng.integers(len(labs)))]
            p = float(rng.uniform(0.05, 0.95))
            q = float(rng.uniform(0.05, 0.95))
            model = EdgeModel(p, q)
            g = sample_graph(theta, model, int(rng.integers(1 << 32)))
            ratio, stats = log_likelihood_ratio(theta, eta, g, model)
            direct = log_likelihood(eta, g, model) - log_likelihood(theta, g, model)
            assert abs(ratio - direct) < 1e-10
            k = hamming(theta, eta)
            assert stats.d1 + stats.d2 == k * (n - k)

    def test_stats_lambda(self):
        model = EdgeModel(0.8, 0.3)
        theta = LabelVector.from_string("0001")
        eta = LabelVector.from_string("0010")
        g = sample_graph(theta, model, 1)
        _, stats = log_likelihood_ratio(theta, eta, g, model)
        assert stats.lam == pytest.approx(
            math.log(0.2 / 0.8) + math.log(0.3 / 0.7), rel=1e-12
        )


def per_edge_counts(theta, eta, x: Graph):
    """(within-class edges under theta, s, t, d1, d2) by one test per edge
    and per vertex pair: s and t count the edges within-class under one
    labeling and split under the other, d1 and d2 the pairs."""
    tb, eb = theta.bits, eta.bits

    def split_by(pairs):
        first = sum(tb[i] == tb[j] and eb[i] != eb[j] for i, j in pairs)
        second = sum(tb[i] != tb[j] and eb[i] == eb[j] for i, j in pairs)
        return first, second

    within = sum(tb[i] == tb[j] for i, j in x.edges)
    s, t = split_by(x.edges)
    d1, d2 = split_by(list(combinations(range(x.n), 2)))
    return within, s, t, d1, d2


class TestEdgeCountsAgainstPerEdgeReference:
    # from n = 64 on, a labeling word needs more than 63 bits
    @pytest.mark.parametrize("n", [5, 40, 63, 64, 100])
    def test_within_edges_and_ratio_statistics(self, n):
        rng = derive_rng(n)
        model = EdgeModel(0.3, 0.1)
        x = sample_graph(canonicalize(rng.integers(0, 2, n).tolist()), model, rng)
        thetas = [canonicalize(rng.integers(0, 2, n).tolist()) for _ in range(8)]
        # a labeling next to itself, and one vertex flipped
        flipped = canonicalize([1 - b if v == 0 else b for v, b in enumerate(thetas[0].bits)])
        pairs = list(zip(thetas, thetas[1:])) + [(thetas[0], thetas[0]),
                                                 (thetas[0], flipped)]
        for theta, eta in pairs:
            within, s, t, d1, d2 = per_edge_counts(theta, eta, x)
            assert model_module._edge_split(theta, x)[0] == within
            _, stats = log_likelihood_ratio(theta, eta, x, model)
            assert (stats.s, stats.t, stats.d1, stats.d2) == (s, t, d1, d2)

    def test_graph_without_edges(self):
        theta, eta = LabelVector.from_string("00011"), LabelVector.from_string("00101")
        x = Graph(5, [])
        assert model_module._edge_split(theta, x) == (0, 4)
        _, stats = log_likelihood_ratio(theta, eta, x, EdgeModel(0.5, 0.4))
        assert (stats.s, stats.t) == (0, 0)


class TestDeriveRng:
    def test_streams_reproducible_and_distinct(self):
        a1 = derive_rng(7, 1, 2).random(4)
        a2 = derive_rng(7, 1, 2).random(4)
        b = derive_rng(7, 1, 3).random(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
