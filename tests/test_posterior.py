import math
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
    enumerate_labelings,
    exact_posterior,
    log_prior_mass,
    mcmc_posterior,
    posterior_mass,
    posterior_mode,
    sample_graph,
)
from bisect_bayes import cli, inference
from bisect_bayes.model import canonical_order, canonical_words
from bisect_bayes.posterior import (
    PosteriorTable,
    _half_cube_within_counts,
    log_sum_exp,
    within_edge_counts,
)
from bisect_bayes.priors import log_mass_by_class_size

UNIFORM = FixedBernoulli(0.5)


def edge_loop_counts(x, words):
    """Reference within-class edge counts: one pass over the words per edge."""
    ei, ej = x.edge_index_arrays
    counts = np.zeros(len(words), dtype=np.int64)
    w = words.astype(np.uint64)
    for i, j in zip(ei.tolist(), ej.tolist()):
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


def oracle_graphs(n):
    """Empty, complete, and random graphs of three densities."""
    return [
        Graph(n, []),
        Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]),
    ] + [sample_graph(LabelVector(n, 0), EdgeModel(p, p / 2), seed)
         for seed, p in enumerate((0.2, 0.5, 0.9))]


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
            got = canonical_order(_half_cube_within_counts(g), n)
            assert got.dtype == np.int16
            assert np.array_equal(got, edge_loop_counts(g, words))
            assert np.array_equal(got, full_cube_counts(g, words))

    @pytest.mark.parametrize("n", range(1, 17))
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
            for theta, prob in table.items():
                assert prob == pytest.approx(
                    math.exp(log_prior_mass(theta, prior)), rel=1e-10
                )

    def test_n1_point_mass(self):
        table = exact_posterior(Graph(1, []), UNIFORM, EdgeModel(0.5, 0.5))
        assert len(table) == 1
        assert table.probabilities[0] == pytest.approx(1.0, abs=1e-15)

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
        assert abs(float(table.probabilities.sum()) - 1.0) < 1e-10
        assert (table.probabilities >= 0).all()

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
        assert np.array_equal(table.log_unnormalized, per_labeling_log_mass(g, prior, model))
        direct = np.exp(table.log_unnormalized - table.log_normalizer)
        assert np.array_equal(table.probabilities, direct)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_lookup_finds_every_labeling(self, n):
        model = EdgeModel(0.7, 0.2)
        table = exact_posterior(sample_graph(LabelVector(n, 0), model, n), UNIFORM, model)
        for k, theta in enumerate(table.labelings()):
            assert table._lookup(theta) == k

    def test_class_sizes_are_not_copied(self):
        # every table of n vertices shares the cached class-size array
        table = exact_posterior(Graph(10, [(0, 1), (2, 3)]), UNIFORM, EdgeModel(0.6, 0.3))
        assert table.class_sizes is canonical_words(10)[1]

    def test_levels_mixing_class_sizes_rejected(self):
        table = exact_posterior(Graph(4, [(0, 1)]), UNIFORM, EdgeModel(0.6, 0.3))
        with pytest.raises(ValueError, match="one class size"):
            PosteriorTable(4, table.words, table.class_sizes, None,
                           levels=(np.zeros(len(table), dtype=np.intp), np.zeros(1)))

    def test_lookup_rejects_labeling_not_in_table(self):
        table = exact_posterior(Graph(4, [(0, 1)]), UNIFORM, EdgeModel(0.6, 0.3))
        partial = PosteriorTable(4, table.words[:3], table.class_sizes[:3],
                                 table.log_unnormalized[:3])
        with pytest.raises(KeyError):
            partial.probability(LabelVector.from_string("0011"))

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
            relabeled = g.relabel(perm)
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
    values, first, counts = np.unique(table.log_unnormalized[mask],
                                      return_index=True, return_counts=True)
    if len(values) == 0:
        return -math.inf, 0.0
    mx = float(values.max())
    log_mass = mx + math.log(math.fsum((np.exp(values - mx) * counts).tolist()))
    return log_mass, math.fsum((table.probabilities[mask][first] * counts).tolist())


def pairwise_sums(table, mask):
    """The per-labeling sums in numpy's pairwise order."""
    if not mask.any():
        return -math.inf, 0.0
    lu = table.log_unnormalized[mask]
    mx = float(lu.max())
    return (mx + math.log(float(np.sum(np.exp(lu - mx)))),
            float(table.probabilities[mask].sum()))


class TestMaskedMass:
    @pytest.mark.parametrize("kind", ["sharp", "flat", "tied", "far"])
    def test_bit_for_bit_per_labeling_reduction(self, kind):
        table = reduction_tables()[kind]
        rng = np.random.default_rng(3)
        masks = [
            np.zeros(len(table), dtype=bool),
            np.ones(len(table), dtype=bool),
            table.class_sizes == 0,
            table.class_sizes != 0,
            table.probabilities < np.median(table.probabilities),
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
        # built without levels: each distinct (class size, mass) is a level
        tables.append(PosteriorTable(tied.n, tied.words, tied.class_sizes,
                                     tied.log_unnormalized))
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
        ["credible", "--gamma", "0.05", "--enlarge", "2"],
        ["test", "--m0", "0", "--complement"],
        ["test", "--m0", "4", "--m1", "8"],
    ])
    def test_queries_leave_arrays_unbuilt(self, tmp_path, capsys, tables, argv):
        g = sample_graph(canonicalize([v < 4 for v in range(16)]), EdgeModel(0.7, 0.2), 1)
        graph = tmp_path / "g.json"
        graph.write_text(g.to_json())
        assert cli.main([argv[0], "--graph", str(graph), "--prior", "bernoulli:r=0.5",
                         "--p", "0.7", "--q", "0.2", *argv[1:]]) == 0
        assert len(tables) == 1 and len(tables[0]) == 1 << 15
        assert "probabilities" not in vars(tables[0])
        assert "log_unnormalized" not in vars(tables[0])
        if argv[0] == "test":
            # class-size tests read the level counts alone
            assert "level" not in vars(tables[0])

    def test_arrays_are_built_once_and_read_only(self):
        table = reduction_tables()["flat"]
        for name in ("probabilities", "log_unnormalized"):
            assert getattr(table, name) is getattr(table, name)
            assert not getattr(table, name).flags.writeable


class TestPosteriorMass:
    @pytest.fixture()
    def table(self):
        model = EdgeModel(0.85, 0.15)
        theta0 = LabelVector.from_string("00001111")
        return exact_posterior(sample_graph(theta0, model, 3), UNIFORM, model)

    def test_everything_is_one(self, table):
        assert posterior_mass(table, lambda t: True) == pytest.approx(1.0, abs=1e-10)

    def test_full_ball_is_one(self, table):
        center = LabelVector.from_string("00001111")
        assert table.mass_of_ball(center, 8) == pytest.approx(1.0, abs=1e-10)

    def test_ball_matches_predicate(self, table):
        from bisect_bayes import sym_distance

        center = LabelVector.from_string("00011011")
        for k in range(1, 5):
            direct = posterior_mass(table, lambda t: sym_distance(t, center) < k)
            assert table.mass_of_ball(center, k) == pytest.approx(direct, abs=1e-12)

    def test_class_size_predicate(self, table):
        direct = posterior_mass(table, lambda t: t.m == 2)
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

    def test_scaling_invariance(self):
        model = EdgeModel(0.8, 0.3)
        g = sample_graph(LabelVector.from_string("000111"), model, 5)
        table = exact_posterior(g, UNIFORM, model)
        scaled = PosteriorTable(
            table.n, table.words, table.class_sizes, table.log_unnormalized + 123.45
        )
        assert scaled.mode() == table.mode()
        assert np.allclose(scaled.probabilities, table.probabilities, atol=1e-12)

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
        import csv

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
        words = result.sampled_words()
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
