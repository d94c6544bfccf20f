import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import betaln

from bisect_bayes import (
    BetaBernoulli,
    FixedBernoulli,
    UniformClassSize,
    class_size_marginal,
    g_constant,
    log_prior_mass,
    parse_prior,
    prior_mass_ratio_bound,
    prior_to_string,
)
from bisect_bayes.priors import (
    _folded_beta_log_mass,
    _log_beta,
    bernoulli_ratio_sandwich_violations,
    beta_ratio_bound_violations,
)
from table_helpers import enumerate_labelings

ROOT = Path(__file__).resolve().parent.parent

ALL_PRIORS = [
    FixedBernoulli(0.5),
    FixedBernoulli(0.2),
    FixedBernoulli(0.8),
    BetaBernoulli(1.0, 1.0),
    BetaBernoulli(2.0, 3.0),
    BetaBernoulli(0.5, 0.5),
    UniformClassSize(),
]


class TestParameterValidation:
    @pytest.mark.parametrize("r", [0.0, 1.0, -0.1, 1.5])
    def test_bernoulli_range(self, r):
        with pytest.raises(ValueError):
            FixedBernoulli(r)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0)])
    def test_beta_range(self, a, b):
        with pytest.raises(ValueError):
            BetaBernoulli(a, b)


class TestParsePrior:
    def test_round_trips(self):
        for prior in [FixedBernoulli(0.25), BetaBernoulli(1.5, 2.0), UniformClassSize()]:
            assert parse_prior(prior_to_string(prior)) == prior

    def test_examples(self):
        assert parse_prior("bernoulli:r=0.5") == FixedBernoulli(0.5)
        assert parse_prior("beta:alpha=1,beta=1") == BetaBernoulli(1.0, 1.0)
        assert parse_prior("uniform-m") == UniformClassSize()

    @pytest.mark.parametrize(
        "text", ["gauss:x=1", "bernoulli", "bernoulli:p=0.5", "beta:alpha=1", "beta:alpha=x,beta=1"]
    )
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_prior(text)


class TestLogPriorMass:
    def test_uniform_prior_mass(self):
        # Bernoulli(1/2) folds to the uniform distribution on labelings
        prior = FixedBernoulli(0.5)
        for theta in enumerate_labelings(5):
            assert log_prior_mass(theta, prior) == pytest.approx(
                math.log(1 / 16), rel=1e-14
            )

    def test_beta_uniform_class_marginals_n4(self):
        marginal = class_size_marginal(BetaBernoulli(1.0, 1.0), 4)
        assert marginal == pytest.approx([0.4, 0.4, 0.2], abs=1e-12)

    def test_uniform_class_size_n4(self):
        marginal = class_size_marginal(UniformClassSize(), 4)
        assert marginal == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)

    @pytest.mark.parametrize("prior", ALL_PRIORS, ids=prior_to_string)
    @pytest.mark.parametrize("n", range(1, 13))
    def test_sums_to_one(self, prior, n):
        total = sum(math.exp(log_prior_mass(t, prior)) for t in enumerate_labelings(n))
        assert abs(total - 1.0) < 1e-10

    @pytest.mark.parametrize("prior", ALL_PRIORS, ids=prior_to_string)
    @pytest.mark.parametrize("n", range(2, 11))
    def test_mass_depends_only_on_class_size(self, prior, n):
        by_m: dict[int, float] = {}
        for theta in enumerate_labelings(n):
            value = log_prior_mass(theta, prior)
            assert by_m.setdefault(theta.m, value) == value

    def test_fixed_bernoulli_formula(self):
        # folded two-term mass, including the doubled tie case
        r, n = 0.3, 6
        prior = FixedBernoulli(r)
        for theta in enumerate_labelings(n):
            m = theta.m
            expected = r**m * (1 - r) ** (n - m) + r ** (n - m) * (1 - r) ** m
            assert math.exp(log_prior_mass(theta, prior)) == pytest.approx(
                expected, rel=1e-12
            )


class TestGConstant:
    def test_uniform_is_zero(self):
        assert g_constant(FixedBernoulli(0.5)).value == 0.0

    def test_beta(self):
        assert g_constant(BetaBernoulli(2.0, 3.0)).value == pytest.approx(
            2 + 2 * math.log(2), rel=1e-15
        )

    def test_uniform_class_size(self):
        assert g_constant(UniformClassSize()).value == pytest.approx(
            1 + math.log(2), rel=1e-15
        )

    def test_bernoulli_odds(self):
        assert g_constant(FixedBernoulli(0.2)).value == pytest.approx(
            math.log(4), rel=1e-12
        )
        assert g_constant(FixedBernoulli(0.8)).value == pytest.approx(
            math.log(4), rel=1e-12
        )


class TestMassRatioBound:
    def test_uniform_is_one(self):
        assert prior_mass_ratio_bound(FixedBernoulli(0.5), 8) == 1.0

    def test_beta_uniform_n6(self):
        assert prior_mass_ratio_bound(BetaBernoulli(1.0, 1.0), 6) == pytest.approx(
            (2 * math.e) ** 6, rel=1e-12
        )

    def test_uniform_class_size_n6(self):
        assert prior_mass_ratio_bound(UniformClassSize(), 6) == pytest.approx(
            (2 * math.e) ** 3, rel=1e-12
        )

    @pytest.mark.parametrize("prior", ALL_PRIORS, ids=prior_to_string)
    @pytest.mark.parametrize("n", range(1, 13))
    def test_dominates_exhaustive_maximum(self, prior, n):
        masses = [log_prior_mass(t, prior) for t in enumerate_labelings(n)]
        max_ratio = math.exp(max(masses) - min(masses))
        assert max_ratio <= prior_mass_ratio_bound(prior, n) * (1 + 1e-12)


class TestRatioGrids:
    def test_bernoulli_sandwich_grid(self):
        assert bernoulli_ratio_sandwich_violations() == []

    def test_beta_ratio_grid(self):
        assert beta_ratio_bound_violations() == []

    def test_sandwich_spot_check(self):
        # mass(m1)/mass(m2) against max-odds**(m2-m1), within a factor 2
        r, n, m1, m2 = 0.3, 12, 2, 5
        prior = FixedBernoulli(r)
        labs = {t.m: t for t in enumerate_labelings(n)}
        ratio = math.exp(
            log_prior_mass(labs[m1], prior) - log_prior_mass(labs[m2], prior)
        )
        odds = max(r / (1 - r), (1 - r) / r)
        reference = odds ** (m2 - m1)
        assert 0.5 * reference <= ratio <= 2.0 * reference


class TestLogBeta:
    def test_matches_exact_factorial_oracle(self):
        # B(a, b) = (a-1)!(b-1)!/(a+b-1)! for integers, whose reciprocal
        # is an integer: one rounding in the oracle
        for a in range(1, 30):
            for b in range(1, 30):
                den, rem = divmod(math.factorial(a + b - 1),
                                  math.factorial(a - 1) * math.factorial(b - 1))
                assert rem == 0
                assert math.isclose(_log_beta(a, b), -math.log(den),
                                    rel_tol=1e-13, abs_tol=1e-13), (a, b)

    def test_matches_scipy_on_folded_arguments(self):
        grid = (0.1, 0.25, 0.5, 1, 1.5, 2, 3, 5, 7.5, 10, 20, 50, 100)
        args = set()
        for alpha in grid:
            for beta in grid:
                args.add((alpha, beta))
                for n in range(1, 64):
                    for m in range(n // 2 + 1):
                        args.add((m + alpha, n - m + beta))
                        args.add((n - m + alpha, m + beta))
        a, b = np.array(sorted(args)).T
        expected = betaln(a, b).tolist()
        bad = [(x, y) for x, y, e in zip(a.tolist(), b.tolist(), expected)
               if not math.isclose(_log_beta(x, y), e, rel_tol=1e-12, abs_tol=1e-12)]
        assert bad == []

    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (1.0, 1.0), (2.0, 3.0),
                                             (7.5, 0.25), (100.0, 20.0)])
    def test_folded_mass_matches_scipy(self, alpha, beta):
        for n in range(1, 64):
            m = np.arange(n // 2 + 1, dtype=np.float64)
            expected = np.logaddexp(betaln(m + alpha, n - m + beta),
                                    betaln(n - m + alpha, m + beta)) - betaln(alpha, beta)
            got = _folded_beta_log_mass(m, n, alpha, beta)
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


SCIPY_FREE_RUN = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now fails
import bisect_bayes
import bisect_bayes.cli
common = ["--graph", sys.argv[1], "--prior", "beta:alpha=1,beta=1",
          "--p", "0.8", "--q", "0.3"]
codes = [bisect_bayes.cli.main(["test", *common, "--m0", "0", "--complement"]),
         bisect_bayes.cli.main(["credible", *common, "--gamma", "0.05", "--enlarge", "2"])]
loaded = sorted(name for name, module in sys.modules.items()
                if name.split(".")[0] == "scipy" and module is not None)
print(json.dumps({"codes": codes, "scipy_modules": loaded}))
"""


def test_runtime_imports_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, str(ROOT / "tests/golden/n11-beta.json")],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0], "scipy_modules": []}
