"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Monte Carlo criteria use fixed master seeds and one-sided 3-standard-error
tolerances.
"""

import math
import time

import numpy as np
import pytest

from bisect_bayes import (
    BetaBernoulli,
    EdgeModel,
    ExperimentConfig,
    FixedBernoulli,
    Graph,
    LabelVector,
    McmcConfig,
    UniformClassSize,
    ball_tail_bound,
    canonical_words,
    class_size_marginal,
    derive_rng,
    discrepancy_sets,
    enlarge,
    exact_posterior,
    expected_mass_bound,
    hamming,
    hellinger_affinity,
    hpd_credible_set,
    inequality_suite,
    log_likelihood,
    log_likelihood_ratio,
    log_prior_mass,
    mcmc_posterior,
    neg_log_affinity,
    point_tail_bound_dense,
    run_experiment,
    sample_graph,
)
from bisect_bayes.priors import (
    bernoulli_ratio_sandwich_violations,
    beta_ratio_bound_violations,
)
from table_helpers import enumerate_labelings, probabilities

UNIFORM = FixedBernoulli(0.5)


def report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def block_labeling(n: int, m: int) -> LabelVector:
    return LabelVector.from_bits([0] * (n - m) + [1] * m)


def test_c01_enumeration_cardinalities():
    started = time.monotonic()
    ok = True
    for n in range(1, 17):
        words, ms = canonical_words(n)
        ok &= len(words) == 1 << (n - 1)
        counts = np.bincount(ms, minlength=n // 2 + 1)
        for m in range(n // 2 + 1):
            expected = math.comb(n, m) // 2 if 2 * m == n else math.comb(n, m)
            ok &= int(counts[m]) == expected
    for n in range(1, 11):  # object-level enumeration agrees
        ok &= len(list(enumerate_labelings(n))) == 1 << (n - 1)
    elapsed = time.monotonic() - started
    report(1, f"enumeration cardinalities, n<=16 ({elapsed:.1f}s)", ok and elapsed < 10)


def test_c02_discrepancy_sum_identity():
    started = time.monotonic()
    ok = True
    for n in range(1, 9):
        labs = list(enumerate_labelings(n))
        for theta in labs:
            for eta in labs:
                d1, d2 = discrepancy_sets(theta, eta)
                k = hamming(theta, eta)
                ok &= d1 + d2 == k * (n - k)
    elapsed = time.monotonic() - started
    report(2, f"discrepancy pair-count identity, exhaustive n<=8 ({elapsed:.1f}s)",
           ok and elapsed < 60)


def test_c03_likelihood_ratio_consistency():
    started = time.monotonic()
    rng = derive_rng(1003)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 13))
        words, _ = canonical_words(n)
        theta = LabelVector(n, int(words[int(rng.integers(len(words)))]))
        eta = LabelVector(n, int(words[int(rng.integers(len(words)))]))
        model = EdgeModel(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95)))
        graph = sample_graph(theta, model, rng)
        ratio, _ = log_likelihood_ratio(theta, eta, graph, model)
        direct = log_likelihood(eta, graph, model) - log_likelihood(theta, graph, model)
        worst = max(worst, abs(ratio - direct))
    elapsed = time.monotonic() - started
    report(3, f"likelihood-ratio consistency, 10^4 instances, worst |err|={worst:.2e} "
              f"({elapsed:.1f}s)", worst < 1e-10 and elapsed < 30)


def test_c04_prior_normalization():
    ok = True
    priors = [UNIFORM, FixedBernoulli(0.27), BetaBernoulli(1.0, 1.0),
              BetaBernoulli(2.0, 3.0), UniformClassSize()]
    for prior in priors:
        for n in range(1, 13):
            total = sum(
                math.exp(log_prior_mass(t, prior)) for t in enumerate_labelings(n)
            )
            ok &= abs(total - 1.0) < 1e-10
    marginal = class_size_marginal(BetaBernoulli(1.0, 1.0), 4)
    ok &= bool(np.all(np.abs(marginal - np.array([0.4, 0.4, 0.2])) < 1e-12))
    report(4, "prior normalization n<=12, Beta(1,1) n=4 marginals", ok)


def _mean_sqrt_lr_all_graphs(theta, eta, model):
    n = theta.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 0.0
    for mask in range(1 << len(pairs)):
        g = Graph(n, [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1])
        total += math.exp(
            0.5 * (log_likelihood(theta, g, model) + log_likelihood(eta, g, model))
        )
    return total


def test_c05_sqrt_likelihood_ratio_identity():
    ok = True
    rng = derive_rng(1005)
    # exhaustive graph enumeration
    for n in (2, 3, 4, 5):
        labs = list(enumerate_labelings(n))
        for _ in range(3):
            theta = labs[int(rng.integers(len(labs)))]
            eta = labs[int(rng.integers(len(labs)))]
            model = EdgeModel(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9)))
            d1, d2 = discrepancy_sets(theta, eta)
            rho = hellinger_affinity(model.p, model.q)
            ok &= abs(_mean_sqrt_lr_all_graphs(theta, eta, model) - rho ** (d1 + d2)) < 1e-10
    # Monte Carlo for larger n
    for n in (6, 7, 8):
        labs = list(enumerate_labelings(n))
        theta = labs[int(rng.integers(len(labs)))]
        eta = labs[int(rng.integers(len(labs)))]
        model = EdgeModel(0.75, 0.25)
        d1, d2 = discrepancy_sets(theta, eta)
        rho = hellinger_affinity(model.p, model.q)
        reps = 15_000
        values = np.empty(reps)
        for i in range(reps):
            g = sample_graph(theta, model, rng)
            values[i] = math.exp(
                0.5 * (log_likelihood(eta, g, model) - log_likelihood(theta, g, model))
            )
        se = float(values.std(ddof=1) / math.sqrt(reps))
        ok &= abs(float(values.mean()) - rho ** (d1 + d2)) <= 3 * se
    report(5, "sqrt-likelihood-ratio transform identity (exhaustive n<=5, MC n=6..8)", ok)


def test_c06_pairwise_bound_dominance_battery():
    started = time.monotonic()
    ok = True
    details = []
    for n in (6, 8, 10):
        for p, q in ((0.9, 0.1), (0.7, 0.3)):
            model = EdgeModel(p, q)
            theta0 = block_labeling(n, n // 2)
            others = [t for t in enumerate_labelings(n) if t != theta0]
            bound = expected_mass_bound(theta0, others, UNIFORM, model)
            reps = 2000
            tails = np.empty(reps)
            for rep in range(reps):
                rng = derive_rng(1006, n, int(p * 100), rep)
                g = sample_graph(theta0, model, rng)
                tails[rep] = 1.0 - exact_posterior(g, UNIFORM, model).probability(theta0)
            mean = float(tails.mean())
            se = float(tails.std(ddof=1) / math.sqrt(reps))
            ok &= mean <= bound + 3 * se
            details.append(f"n={n},p={p}: {mean:.3f}<={bound:.3f}")
    elapsed = time.monotonic() - started
    report(6, f"pairwise-bound dominance battery ({'; '.join(details[:2])}...; "
              f"{elapsed:.0f}s)", ok and elapsed < 600)


def test_c07_tail_bound_dominance_small_bounds():
    ok = True
    reps = 2000

    # dense point-tail configuration with bound < 0.5
    n = 12
    model_a = EdgeModel(0.95, 0.05)
    bound_a = point_tail_bound_dense(n, neg_log_affinity(model_a), 0.0).value
    ok &= bound_a < 0.5
    theta0 = block_labeling(n, 6)
    tails = np.empty(reps)
    for rep in range(reps):
        rng = derive_rng(1007, 0, rep)
        g = sample_graph(theta0, model_a, rng)
        tails[rep] = 1.0 - exact_posterior(g, UNIFORM, model_a).probability(theta0)
    mean_a = float(tails.mean())
    se_a = float(tails.std(ddof=1) / math.sqrt(reps))
    ok &= mean_a <= bound_a + 3 * se_a

    # ball-tail configuration with bound < 0.5
    model_b = EdgeModel(0.9, 0.1)
    alpha = 0.5
    radius = math.ceil(alpha * n)
    beta = n * neg_log_affinity(model_b)
    bound_b = ball_tail_bound(n, alpha, beta, 0.0).value
    ok &= bound_b < 0.5
    for rep in range(reps):
        rng = derive_rng(1007, 1, rep)
        g = sample_graph(theta0, model_b, rng)
        table = exact_posterior(g, UNIFORM, model_b)
        tails[rep] = 1.0 - table.mass_of_ball(theta0, radius)
    mean_b = float(tails.mean())
    se_b = float(tails.std(ddof=1) / math.sqrt(reps))
    ok &= mean_b <= bound_b + 3 * se_b

    report(7, f"tail-bound dominance where bound<0.5 "
              f"(point: {mean_a:.4f}<={bound_a:.3f}, ball: {mean_b:.4f}<={bound_b:.3f})",
           ok)


def test_c08_mcmc_matches_enumeration():
    n = 10
    model = EdgeModel(0.85, 0.15)
    theta0 = block_labeling(n, 5)
    graph = sample_graph(theta0, model, 1008)
    table = exact_posterior(graph, UNIFORM, model)
    exact_inclusion = table.inclusion_probabilities()
    exact_sizes = table.class_size_probabilities()
    ok = True
    worst_incl = worst_tv = 0.0
    for seed in range(5):
        result = mcmc_posterior(graph, UNIFORM, model, McmcConfig.default(n, seed=seed))
        incl_err = float(np.abs(result.inclusion_probabilities - exact_inclusion).max())
        tv = 0.5 * float(np.abs(result.class_size_probabilities - exact_sizes).sum())
        worst_incl = max(worst_incl, incl_err)
        worst_tv = max(worst_tv, tv)
        ok &= incl_err <= 0.02 and tv < 0.05
    report(8, f"sampler vs enumeration (worst inclusion err {worst_incl:.4f}, "
              f"worst TV {worst_tv:.4f}, 5 seeds)", ok)


@pytest.fixture(scope="module")
def coverage_harness():
    """Shared 2000-replication harness at n=8, p=0.9, q=0.1, uniform prior."""
    n, gamma, radius = 8, 0.05, 2
    model = EdgeModel(0.9, 0.1)
    theta0 = block_labeling(n, 4)
    records = []
    for rep in range(2000):
        rng = derive_rng(1009, 0, rep)
        g = sample_graph(theta0, model, rng)
        table = exact_posterior(g, UNIFORM, model)
        hpd = hpd_credible_set(table, gamma)
        enlarged = enlarge(hpd, radius)
        sel = table.class_sizes == 4
        prob = probabilities(table)
        mass_a = float(prob[sel].sum())
        mass_b = float(prob[~sel].sum())
        records.append({
            "covered": theta0 in hpd,
            "covered_enlarged": theta0 in enlarged,
            "point_tail": 1.0 - table.probability(theta0),
            "log_f": math.log(mass_b) - math.log(mass_a),
            "alt_mass": mass_b,
        })
    return records


def test_c09_coverage_dominance(coverage_harness):
    gamma = 0.05
    reps = len(coverage_harness)
    coverage = sum(r["covered"] for r in coverage_harness) / reps
    x_hat = float(np.mean([r["point_tail"] for r in coverage_harness]))
    x_se = float(np.std([r["point_tail"] for r in coverage_harness], ddof=1)
                 / math.sqrt(reps))
    cov_se = math.sqrt(coverage * (1 - coverage) / reps)
    slack = 3 * math.sqrt(cov_se**2 + (x_se / (1 - gamma)) ** 2)
    lower = 1 - x_hat / (1 - gamma)
    ok = coverage >= lower - slack
    # enlargement can only add coverage, replication by replication
    ok &= all(
        r["covered_enlarged"] >= r["covered"] for r in coverage_harness
    )
    report(9, f"coverage dominance (coverage {coverage:.4f} >= {lower:.4f} - {slack:.4f})",
           ok)


def test_c10_odds_error_dominance(coverage_harness):
    reps = len(coverage_harness)
    # the alternative is the null's complement, so 1 - mass(A) == mass(B)
    a_hat = float(np.mean([r["alt_mass"] for r in coverage_harness]))
    ok = True
    details = []
    for t in (1.0, 10.0):
        freq = sum(r["log_f"] > math.log(t) for r in coverage_harness) / reps
        bound = 2 * a_hat * (1 + 1 / t)
        se = math.sqrt(max(freq * (1 - freq), 1e-12) / reps)
        ok &= freq <= bound + 3 * se
        details.append(f"t={t:g}: {freq:.4f}<={bound:.4f}")
    report(10, f"posterior-odds error dominance ({', '.join(details)})", ok)


def test_c11_inequality_grids():
    started = time.monotonic()
    ok = all(check.ok for check in inequality_suite())
    ok &= bernoulli_ratio_sandwich_violations() == []
    ok &= beta_ratio_bound_violations() == []
    elapsed = time.monotonic() - started
    report(11, f"inequality and prior-ratio grids, zero violations ({elapsed:.1f}s)",
           ok and elapsed < 60)


def test_c12_experiment_determinism():
    recovery = ExperimentConfig(
        kind="recovery", n=6, prior=UNIFORM, replications=30, master_seed=1012,
        p=0.85, q=0.15, planted_m=3, ball_radius=2,
    )
    sweep = ExperimentConfig(
        kind="phase-diagram", n=8, prior=UniformClassSize(), replications=6,
        master_seed=1012, regime="kesten-stigum",
        first_values=(2.0, 5.0), second_values=(1.0,), planted_m=4,
    )
    ok = True
    for cfg in (recovery, sweep):
        texts = {
            run_experiment(cfg, threads=threads).csv_text()
            for threads in (1, 8, 1)
        }
        ok &= len(texts) == 1
    report(12, "experiment CSV byte-determinism across runs and worker counts", ok)
