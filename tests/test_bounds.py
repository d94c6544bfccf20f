import itertools
import math

import numpy as np
import pytest

from bisect_bayes import (
    BetaBernoulli,
    EdgeModel,
    FixedBernoulli,
    Graph,
    LabelVector,
    UniformClassSize,
    ball_tail_bound,
    ball_tail_bound_ks,
    ch_recovery_margin,
    detectability_sandwich,
    discrepancy_sets,
    exact_posterior,
    expected_mass_bound,
    hellinger_affinity,
    inequality_suite,
    log_likelihood,
    neg_log_affinity,
    pairwise_mass_bound,
    point_tail_bound_dense,
    point_tail_bound_uniform,
    rho_upper_bound,
    sample_graph,
)
from table_helpers import enumerate_labelings

UNIFORM = FixedBernoulli(0.5)


class TestHellingerAffinity:
    def test_identical(self):
        assert hellinger_affinity(0.5, 0.5) == 1.0

    def test_strong_separation(self):
        assert hellinger_affinity(0.9, 0.1) == pytest.approx(0.6, rel=1e-12)

    def test_symmetric_on_grid(self):
        grid = np.arange(0.05, 1.0, 0.05)
        for p in grid:
            for q in grid:
                assert hellinger_affinity(p, q) == pytest.approx(
                    hellinger_affinity(q, p), rel=1e-14
                )

    def test_in_unit_interval_equality_iff_equal(self):
        grid = np.arange(0.05, 1.0, 0.05)
        for p in grid:
            for q in grid:
                rho = hellinger_affinity(float(p), float(q))
                assert 0.0 < rho <= 1.0
                if abs(p - q) > 1e-12:
                    assert rho < 1.0 - 1e-6

    @pytest.mark.parametrize("p,q", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_boundary_rejected(self, p, q):
        with pytest.raises(ValueError):
            hellinger_affinity(p, q)


class TestRhoUpperBound:
    def test_p_equals_q(self):
        assert rho_upper_bound(0.3, 0.3) == pytest.approx(1 + 0.09 / 4, rel=1e-12)

    def test_direct_arithmetic(self):
        expected = 1 - 0.5 * (math.sqrt(0.9) - math.sqrt(0.1)) ** 2 + 0.09 / 4
        assert rho_upper_bound(0.9, 0.1) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.8225, abs=1e-10)
        assert rho_upper_bound(0.9, 0.1) >= hellinger_affinity(0.9, 0.1)

    def test_dominates_affinity_on_grid(self):
        grid = np.arange(0.01, 1.0, 0.01)
        for p in grid:
            for q in grid:
                assert rho_upper_bound(float(p), float(q)) >= hellinger_affinity(
                    float(p), float(q)
                ) - 1e-14


class TestExpectedMassBound:
    def test_single_neighbor_uniform_prior(self):
        n = 6
        theta = LabelVector.from_string("000011")
        eta = LabelVector.from_string("000111")
        model = EdgeModel(0.8, 0.2)
        rho = hellinger_affinity(0.8, 0.2)
        bound = expected_mass_bound(theta, [eta], UNIFORM, model)
        assert bound == pytest.approx(rho ** (n - 1), rel=1e-12)

    def test_p_equals_q_counts_members(self):
        theta = LabelVector.from_string("000011")
        others = [t for t in enumerate_labelings(6) if t != theta]
        bound = expected_mass_bound(theta, others, UNIFORM, EdgeModel(0.4, 0.4))
        assert bound == pytest.approx(len(others), rel=1e-12)

    def test_exponent_matches_pair_enumeration_oracle(self):
        # B = min k(n-k) must agree with direct discrepancy-set counting
        theta = LabelVector.from_string("00010011")
        members = [t for t in enumerate_labelings(8) if t != theta][10:40]
        model = EdgeModel(0.9, 0.1)
        bound = expected_mass_bound(theta, members, UNIFORM, model)
        b_oracle = min(sum(discrepancy_sets(theta, eta)) for eta in members)
        rho = hellinger_affinity(0.9, 0.1)
        assert bound == pytest.approx(rho**b_oracle * len(members), rel=1e-12)

    def test_rejects_empty_and_self(self):
        theta = LabelVector.from_string("0011")
        with pytest.raises(ValueError):
            expected_mass_bound(theta, [], UNIFORM, EdgeModel(0.5, 0.4))
        with pytest.raises(ValueError):
            expected_mass_bound(theta, [theta], UNIFORM, EdgeModel(0.5, 0.4))

    def test_dominates_monte_carlo_mean(self):
        # one battery cell; the full battery runs in the acceptance suite
        n, model = 8, EdgeModel(0.9, 0.1)
        theta0 = LabelVector.from_string("00001111")
        others = [t for t in enumerate_labelings(n) if t != theta0]
        bound = expected_mass_bound(theta0, others, UNIFORM, model)
        reps = 300
        tails = []
        for seed in range(reps):
            table = exact_posterior(sample_graph(theta0, model, seed), UNIFORM, model)
            tails.append(1.0 - table.probability(theta0))
        mean = float(np.mean(tails))
        se = float(np.std(tails, ddof=1) / math.sqrt(reps))
        assert mean <= bound + 3 * se


PAIRWISE_PRIORS = (UNIFORM, FixedBernoulli(0.15), BetaBernoulli(1.0, 1.0),
                   BetaBernoulli(0.5, 3.0), UniformClassSize())
# sharp, flat, p == q (affinity 1) and sparse
PAIRWISE_MODELS = (EdgeModel(0.7, 0.2), EdgeModel(0.5, 0.45), EdgeModel(0.3, 0.3),
                   EdgeModel(0.05, 0.01))


def _pairwise_thetas():
    """Every labeling at n <= 8, and one per class size at n = 9..12."""
    for n in range(2, 9):
        labs = list(enumerate_labelings(n))
        for theta in labs:
            yield theta, labs
    for n in range(9, 13):
        labs = list(enumerate_labelings(n))
        for m in range(n // 2 + 1):
            yield next(t for t in labs if t.m == m), labs


class TestPairwiseMassBound:
    def test_matches_the_bound_over_every_other_labeling(self):
        for theta, labs in _pairwise_thetas():
            others = [t for t in labs if t != theta]
            for prior, model in itertools.product(PAIRWISE_PRIORS, PAIRWISE_MODELS):
                closed = pairwise_mass_bound(theta, prior, model)
                looped = expected_mass_bound(theta, others, prior, model)
                assert math.isclose(closed, looped, rel_tol=1e-12), (theta, prior, model)

    def test_rejects_the_one_labeling_of_one_vertex(self):
        with pytest.raises(ValueError, match="nonempty"):
            pairwise_mass_bound(LabelVector(1, 0), UNIFORM, EdgeModel(0.5, 0.4))

    def test_p_equals_q_counts_the_other_labelings(self):
        n = 40
        theta = LabelVector(n, (1 << 7) - 1)
        bound = pairwise_mass_bound(theta, UniformClassSize(), EdgeModel(0.4, 0.4))
        # under the uniform class-size prior each ratio is
        # sqrt(count(7) / count(m')), so the sum is sum_m' sqrt(count(7) count(m')) - 1
        counts = [math.comb(n, m) // (2 if 2 * m == n else 1) for m in range(n // 2 + 1)]
        expected = sum(math.sqrt(counts[7] * c) for c in counts) - 1
        assert math.isclose(bound, expected, rel_tol=1e-12)


class TestPointTailBounds:
    def test_uniform_example(self):
        report = point_tail_bound_uniform(10, 4.0)
        assert report.value == pytest.approx(2 * 10**-1 * math.exp(0.1), rel=1e-12)
        assert report.value == pytest.approx(0.2210, abs=5e-5)

    def test_uniform_alpha_two_is_2e(self):
        assert point_tail_bound_uniform(50, 2.0).value == pytest.approx(
            2 * math.e, rel=1e-12
        )

    def test_dense_matches_naive_formula(self):
        for n, c, g in itertools.product([5, 12, 30], [0.3, 0.7, 1.5], [0.0, 0.5, 1.7]):
            naive = (
                2 * math.sqrt(2) * n
                * math.exp(-(2 * c - g) * n / 4)
                * math.exp(n * math.exp(-c * n / 2))
            )
            assert point_tail_bound_dense(n, c, g).value == pytest.approx(
                naive, rel=1e-9
            )

    def test_dense_decreasing_in_c(self):
        values = [point_tail_bound_dense(12, c, 0.0).value for c in np.arange(0.2, 3.0, 0.05)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_uniform_matches_naive_formula(self):
        for n, alpha in itertools.product([4, 10, 40], [1.0, 2.5, 4.0, 6.0]):
            naive = 2 * n ** (1 - alpha / 2) * math.exp(n ** (1 - alpha / 2))
            assert point_tail_bound_uniform(n, alpha).value == pytest.approx(
                naive, rel=1e-9
            )

    def test_report_shape(self):
        report = point_tail_bound_dense(12, 1.0, 0.0)
        assert report.name == "point-tail-dense"
        assert report.inputs == {"n": 12, "c": 1.0, "g": 0.0}
        assert report.value_clipped <= 1.0
        d = report.to_json_dict()
        assert set(d) == {"name", "value", "value_clipped", "inputs"}


class TestChRecoveryMargin:
    def test_equal_rates_negative(self):
        for a in (0.5, 2.0, 9.0):
            assert ch_recovery_margin(a, a, 50) < 0

    def test_direct_arithmetic(self):
        value = ch_recovery_margin(16.0, 1.0, 100)
        expected = (9 - 4 - 16 * math.log(100) / 200) * math.log(100)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(21.329, abs=5e-3)

    def test_increasing_in_first_rate(self):
        values = [ch_recovery_margin(a, 1.0, 200) for a in np.arange(2.0, 12.0, 0.25)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestBallTailBounds:
    def test_direct_arithmetic(self):
        report = ball_tail_bound(50, 0.5, 20.0, 0.0)
        expected = 2 * math.sqrt(2) * math.exp(
            -0.5 * 50 * (math.log(0.5) + 10 - 1) / 4
        )
        assert report.value == pytest.approx(expected, rel=1e-12)

    def test_decreasing_in_beta(self):
        values = [ball_tail_bound(50, 0.4, beta, 1.0).value for beta in np.arange(1.0, 30.0, 0.5)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_alpha_range_enforced(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                ball_tail_bound(10, alpha, 1.0, 0.0)
            with pytest.raises(ValueError):
                ball_tail_bound_ks(10, alpha, 2.0, 1.0, 0.0)

    def test_ks_matches_naive_formula(self):
        for n, alpha, c, d, g in [
            (10, 0.3, 9.0, 1.0, 0.0),
            (20, 0.5, 4.0, 2.0, 1.7),
            (40, 0.2, 16.0, 1.0, 3.4),
        ]:
            sep = (math.sqrt(c) - math.sqrt(d)) ** 2
            naive = 2 * math.sqrt(2) * math.exp(
                -0.25 * alpha * n * (math.log(alpha) + sep / 4 - c * d / (8 * n) - 1 - g / alpha)
            )
            assert ball_tail_bound_ks(n, alpha, c, d, g).value == pytest.approx(
                naive, rel=1e-9
            )

    def test_ks_dominates_monte_carlo_ball_tail(self):
        # constant-degree regime at desk scale; the bound is loose here but
        # must still sit above the Monte Carlo tail mass
        n, c, d, alpha = 10, 9.0, 1.0, 0.3
        model = EdgeModel(c / n, d / n)
        radius = math.ceil(alpha * n)
        bound = ball_tail_bound_ks(n, alpha, c, d, 0.0).value
        theta0 = LabelVector.from_string("0000011111")
        reps = 300
        tails = []
        for seed in range(reps):
            table = exact_posterior(sample_graph(theta0, model, seed), UNIFORM, model)
            tails.append(1.0 - table.mass_of_ball(theta0, radius))
        mean = float(np.mean(tails))
        se = float(np.std(tails, ddof=1) / math.sqrt(reps)) or 1e-12
        assert mean <= bound + 3 * se


class TestDetectabilitySandwich:
    def test_equal_rates(self):
        assert detectability_sandwich(3.0, 3.0) == (0.0, 0.0, 0.0)

    def test_four_one(self):
        lower, mid, upper = detectability_sandwich(4.0, 1.0)
        assert (lower, mid, upper) == pytest.approx((1.0, 1.8, 2.0), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            detectability_sandwich(0.0, 1.0)
        with pytest.raises(ValueError):
            detectability_sandwich(2.0, -1.0)


@pytest.fixture(scope="module")
def suite():
    return {check.name: check for check in inequality_suite()}


class TestInequalitySuite:
    def test_no_violations(self, suite):
        for check in suite.values():
            assert check.ok, f"{check.name}: {check.violations[:3]}"

    def test_all_checks_present(self, suite):
        assert set(suite) == {
            "geometric-tail",
            "sqrt-upper",
            "compound-exp",
            "binomial-profile-sum",
            "detectability-sandwich",
        }

    def test_sqrt_upper_edge_case(self):
        assert math.sqrt(1 - 1.0) <= 1 - 0.5

    def test_compound_exp_equality_at_zero(self):
        for r in (1, 7, 50):
            assert (1 + 0 / r) ** r == math.exp(0.0) == 1.0

    def test_binomial_sum_spot_value(self):
        # direct summation at n=4, x=0.5
        direct = sum(math.comb(4, k) * 0.5 ** (k * (4 - k)) for k in range(1, 4))
        assert direct == pytest.approx(1.375, abs=1e-12)
        outer = 2 * ((1 + 0.5**2) ** 4 - 1)
        assert outer == pytest.approx(2.8828125, abs=1e-10)
        assert direct <= outer


def mean_sqrt_lr_exhaustive(theta, eta, model):
    """E under theta of sqrt(likelihood ratio), by summing every graph."""
    n = theta.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 0.0
    for mask in range(1 << len(pairs)):
        g = Graph(n, [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1])
        ll_t = log_likelihood(theta, g, model)
        ll_e = log_likelihood(eta, g, model)
        total += math.exp(0.5 * (ll_t + ll_e))
    return total


class TestSqrtLikelihoodRatioTransform:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_identity(self, n):
        # mean sqrt-likelihood-ratio equals affinity^(d1+d2), graph by graph
        rng = np.random.default_rng(7)
        labs = list(enumerate_labelings(n))
        for _ in range(4):
            theta = labs[int(rng.integers(len(labs)))]
            eta = labs[int(rng.integers(len(labs)))]
            model = EdgeModel(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9)))
            d1, d2 = discrepancy_sets(theta, eta)
            rho = hellinger_affinity(model.p, model.q)
            assert mean_sqrt_lr_exhaustive(theta, eta, model) == pytest.approx(
                rho ** (d1 + d2), abs=1e-10
            )

    def test_monte_carlo_identity_n6(self):
        theta = LabelVector.from_string("000011")
        eta = LabelVector.from_string("001101")
        model = EdgeModel(0.7, 0.2)
        d1, d2 = discrepancy_sets(theta, eta)
        rho = hellinger_affinity(0.7, 0.2)
        reps = 20000
        values = np.empty(reps)
        for i in range(reps):
            g = sample_graph(theta, model, i)
            values[i] = math.exp(
                0.5 * (log_likelihood(eta, g, model) - log_likelihood(theta, g, model))
            )
        se = float(values.std(ddof=1) / math.sqrt(reps))
        assert abs(float(values.mean()) - rho ** (d1 + d2)) <= 3 * se


class TestNegLogAffinity:
    def test_matches_affinity(self):
        model = EdgeModel(0.9, 0.1)
        assert neg_log_affinity(model) == pytest.approx(-math.log(0.6), rel=1e-12)
