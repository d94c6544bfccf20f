import math
import warnings

import numpy as np
import pytest

from bisect_bayes import (
    CredibleSet,
    EdgeModel,
    EnlargedSet,
    FixedBernoulli,
    LabelVector,
    OddsTestResult,
    PosteriorTable,
    UniformClassSize,
    canonical_words,
    class_size_test,
    confidence_lower_bound,
    enlarge,
    exact_posterior,
    hpd_credible_set,
    odds_error_bounds,
    posterior_odds,
    sample_graph,
    sym_distance,
)
from bisect_bayes import inference
from bisect_bayes.model import _canonical_words, canonical_index
from table_helpers import enumerate_labelings, log_unnormalized, probabilities, table_from_masses

UNIFORM = FixedBernoulli(0.5)


def flat_table(n):
    model = EdgeModel(0.5, 0.5)
    g = sample_graph(LabelVector(n, 0), model, 0)
    return exact_posterior(g, UNIFORM, model)


def mask_of(table, predicate):
    """Boolean mask over the table's index of the labelings satisfying
    the predicate."""
    return np.array([predicate(LabelVector(table.n, int(w))) for w in table.words],
                    dtype=bool)


def peaked_table(n=10, p=0.9, q=0.1, seed=3):
    theta0 = LabelVector.from_string("0" * (n - n // 2) + "1" * (n // 2))
    model = EdgeModel(p, q)
    return exact_posterior(sample_graph(theta0, model, seed), UNIFORM, model), theta0


class TestHpdCredibleSet:
    def test_point_mass_posterior_gives_singleton(self):
        table, theta0 = peaked_table()
        hpd = hpd_credible_set(table, 0.05)
        if table.probability(theta0) >= 0.95:
            assert hpd.members == frozenset([theta0])
        assert hpd.achieved_mass >= 0.95

    def test_uniform_posterior_needs_all_eight(self):
        # ceil(0.95 * 8) exceeds 7, so all 8 members are required
        hpd = hpd_credible_set(flat_table(4), 0.05)
        assert len(hpd.members) == 8

    def test_gamma_near_one_gives_singleton(self):
        table, _ = peaked_table()
        hpd = hpd_credible_set(table, 0.999)
        assert len(hpd.members) == 1
        assert hpd.achieved_mass == pytest.approx(
            float(probabilities(table).max()), rel=1e-12
        )

    @pytest.mark.parametrize("gamma", [0.01, 0.05, 0.2, 0.5])
    def test_mass_reached_and_minimal_under_ordering(self, gamma):
        table, _ = peaked_table(seed=9)
        hpd = hpd_credible_set(table, gamma)
        assert hpd.achieved_mass >= 1 - gamma
        # dropping the last-added (lowest-mass, lex-last) member must fall
        # below the credible level
        order = sorted(
            hpd.members, key=lambda t: (-table.probability(t), t.to_string())
        )
        assert hpd.achieved_mass - table.probability(order[-1]) < 1 - gamma

    def test_gamma_validation(self):
        table, _ = peaked_table()
        for gamma in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                hpd_credible_set(table, gamma)


def full_sort_hpd(table, gamma):
    """Reference HPD set: greedy over the full stable descending order."""
    members, mass = [], 0.0
    prob = probabilities(table)
    for k in np.argsort(-prob, kind="stable"):
        members.append(LabelVector(table.n, int(table.words[k])))
        mass += float(prob[k])
        if mass >= 1.0 - gamma:
            break
    return frozenset(members), mass


def hpd_table(case):
    if case in ("sharp", "unleveled"):
        table, _ = peaked_table(n=12, p=0.7, q=0.2, seed=5)
        if case == "unleveled":
            # every distinct (class size, mass) is its own level
            table = table_from_masses(table.n, log_unnormalized(table))
        return table
    if case == "sharp18":
        # the half cube spans eight chunks of 2^14 keys, not all of which
        # hold the labelings taken
        theta0 = LabelVector.from_string("0" * 14 + "1" * 4)
        model = EdgeModel(0.7, 0.2)
        return exact_posterior(sample_graph(theta0, model, 5), UNIFORM, model)
    graph, model, prior = {
        "flat": (sample_graph(LabelVector.from_string("0" * 9 + "1" * 5),
                              EdgeModel(0.5, 0.45), 2),
                 EdgeModel(0.5, 0.45), UniformClassSize()),
        "tied": (sample_graph(LabelVector(11, 0), EdgeModel(0.5, 0.5), 1),
                 EdgeModel(0.5, 0.5), UNIFORM),
        # a model far from the data: levels no labeling reaches lie more
        # than 709 nats (where exp overflows) above the normalizer
        "far": (sample_graph(LabelVector(12, 0), EdgeModel(0.9, 0.9), 7),
                EdgeModel(0.0001, 0.9999), UNIFORM),
    }[case]
    return exact_posterior(graph, prior, model)


# Cases whose taken groups hold more than 1/32 of the labelings, so that
# the mask is gathered through the canonical level; every other case
# scatters the positions of the labelings taken (sharp at 0.01, unleveled
# at 0.01 and far at 0.999 take part of their last group).
GATHERED = {("flat", 0.01), ("flat", 0.05), ("flat", 0.5),
            ("tied", 0.01), ("tied", 0.05), ("tied", 0.5), ("tied", 0.999)}


class TestHpdMatchesFullSort:
    @pytest.mark.parametrize("case", ["sharp", "flat", "tied", "unleveled", "far",
                                      "sharp18"])
    @pytest.mark.parametrize("gamma", [0.01, 0.05, 0.5, 0.999])
    def test_same_members_and_mass(self, case, gamma, monkeypatch):
        scattered = []
        labelings_in = PosteriorTable.labelings_in

        def recording(table, levels):
            scattered.append(levels)
            return labelings_in(table, levels)

        monkeypatch.setattr(PosteriorTable, "labelings_in", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = hpd_table(case)
            hpd = hpd_credible_set(table, gamma)
            # the mask is built when first read, and not before
            assert not scattered
            assert "level" not in vars(table)
            assert hpd.mask.any()
        assert bool(scattered) == ((case, gamma) not in GATHERED)
        # the canonical level is built only to gather
        assert ("level" in vars(table)) == ((case, gamma) in GATHERED)
        members, mass = full_sort_hpd(table, gamma)
        assert hpd.members == members
        assert hpd.achieved_mass == mass

    def test_tied_table_ties_up_to_rounding(self):
        prob = probabilities(hpd_table("tied"))
        assert prob.max() == pytest.approx(prob.min(), rel=1e-12)

    def test_fallback_when_candidates_run_out(self, monkeypatch):
        # a cutoff chosen with a negative margin leaves too few candidates,
        # so the greedy sum must fall back to the full order
        table = hpd_table("flat")
        calls = []
        greedy = inference._greedy

        def counting(values, sizes, target):
            calls.append(int(sizes.sum()))
            return greedy(values, sizes, target)

        monkeypatch.setattr(inference, "_HPD_MARGIN", -0.5)
        monkeypatch.setattr(inference, "_greedy", counting)
        hpd = hpd_credible_set(table, 0.05)
        assert calls[-1] == len(table) > calls[0]
        assert (hpd.members, hpd.achieved_mass) == full_sort_hpd(table, 0.05)


class TestEnlarge:
    def test_radius_zero_is_identity(self):
        hpd = hpd_credible_set(flat_table(4), 0.5)
        enlarged = enlarge(hpd, 0)
        assert enlarged.members == hpd.members
        assert enlarged.radius == 0

    def test_radius_n_covers_everything(self):
        table, _ = peaked_table(n=6, seed=1)
        hpd = hpd_credible_set(table, 0.05)
        enlarged = enlarge(hpd, 6)
        assert len(enlarged.members) == 32

    def test_exhaustive_oracle_n4(self):
        # base {0000}, radius 2: exactly the canonical labelings at folded
        # distance < 2, found by enumeration
        model = EdgeModel(0.9, 0.1)
        table = exact_posterior(sample_graph(LabelVector(4, 0), model, 2), UNIFORM, model)
        hpd = hpd_credible_set(table, 0.999)
        assert hpd.members == frozenset([LabelVector.from_string("0000")])
        enlarged = enlarge(hpd, 2)
        base = LabelVector.from_string("0000")
        oracle = {
            t for t in enumerate_labelings(4) if sym_distance(t, base) < 2
        } | {base}
        assert enlarged.members == oracle
        assert {t.to_string() for t in enlarged.members} == {
            "0000", "0001", "0010", "0100", "1000"
        }

    def test_monotone_in_radius(self):
        table, _ = peaked_table(n=8, seed=4)
        hpd = hpd_credible_set(table, 0.2)
        previous = hpd.members
        for k in range(0, 9):
            current = enlarge(hpd, k).members
            assert previous <= current
            previous = current

    def test_radius_one_is_base_radius_two_grows(self):
        # strict "< radius" means radius 1 reaches only distance 0, the
        # base itself; genuine growth starts at radius 2 for partial bases
        table, _ = peaked_table(n=6, seed=2)
        hpd = hpd_credible_set(table, 0.5)
        assert enlarge(hpd, 1).members == hpd.members
        if len(hpd.members) < 32:
            assert len(enlarge(hpd, 2).members) > len(hpd.members)


def scan_enlarge(credible, radius):
    """Reference enlargement: scan every canonical labeling once per member
    for folded distance < radius."""
    n = credible.n
    if radius == 0:
        return credible.members
    words, _ = canonical_words(n)
    keep = np.zeros(len(words), dtype=bool)
    for member in credible.members:
        k = np.bitwise_count(words ^ np.uint32(member.word)).astype(np.int64)
        keep |= np.minimum(k, n - k) < radius
    members = {LabelVector(n, int(w)) for w in words[keep]}
    members.update(credible.members)
    return frozenset(members)


def sharp_or_flat_hpd(kind, n):
    if kind == "sharp":
        model, prior = EdgeModel(0.7, 0.2), UNIFORM
    else:
        model, prior = EdgeModel(0.5, 0.45), UniformClassSize()
    theta0 = LabelVector.from_string("0" * (n - n // 2) + "1" * (n // 2))
    table = exact_posterior(sample_graph(theta0, model, n), prior, model)
    return hpd_credible_set(table, 0.05)


class TestEnlargeMatchesScan:
    @pytest.mark.parametrize("kind", ["sharp", "flat"])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_radius(self, kind, n):
        hpd = sharp_or_flat_hpd(kind, n)
        for radius in range(n + 2):
            assert enlarge(hpd, radius).members == scan_enlarge(hpd, radius)


class TestMaskSets:
    @pytest.mark.parametrize("kind", ["sharp", "flat"])
    def test_membership_agrees_with_members(self, kind):
        hpd = sharp_or_flat_hpd(kind, 9)
        for s in (hpd, enlarge(hpd, 2)):
            assert not s.mask.flags.writeable
            for theta in enumerate_labelings(9):
                assert (theta in s) == (theta in s.members)
            assert LabelVector(8, 0) not in s

    @pytest.mark.parametrize("kind", ["sharp", "flat"])
    @pytest.mark.parametrize("n", [2, 5, 8, 11])
    def test_enlargement_contains_its_base(self, kind, n):
        hpd = sharp_or_flat_hpd(kind, n)
        for radius in range(n + 2):
            assert not (hpd.mask & ~enlarge(hpd, radius).mask).any()

    def test_negative_radius_rejected(self):
        hpd = sharp_or_flat_hpd("sharp", 8)
        with pytest.raises(ValueError, match="nonnegative"):
            EnlargedSet(base=hpd, radius=-1)
        with pytest.raises(ValueError, match="nonnegative"):
            enlarge(hpd, -1)

    @pytest.mark.parametrize("kind", ["sharp", "flat"])
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 11])
    def test_rule_built_masks_span_the_index(self, kind, n):
        hpd = sharp_or_flat_hpd(kind, n)
        for s in (hpd, enlarge(hpd, 2)):
            assert s.mask.dtype == bool and s.mask.shape == (1 << (n - 1),)
            assert not s.mask.flags.writeable

    def test_set_checks(self):
        hpd = sharp_or_flat_hpd("sharp", 8)
        rule = dict(table=hpd.table, cutoff=hpd.cutoff, above=hpd.above,
                    tied=hpd.tied, taken=hpd.taken)
        with pytest.raises(ValueError, match="nonempty"):
            CredibleSet(**{**rule, "above": 0, "taken": 0}, gamma=0.05,
                        achieved_mass=1.0)
        for gamma in (0.0, 1.0):
            with pytest.raises(ValueError, match="must lie in"):
                CredibleSet(**rule, gamma=gamma, achieved_mass=1.0)
        with pytest.raises(ValueError, match="below credible level"):
            CredibleSet(**rule, gamma=0.05, achieved_mass=0.9)


def membership_table(kind, n):
    model, prior = {
        "sharp": (EdgeModel(0.7, 0.2), UNIFORM),
        "flat": (EdgeModel(0.5, 0.45), UniformClassSize()),
        # p == q: rounding leaves two or three large probability groups,
        # the last of them often partly taken
        "tied": (EdgeModel(0.4, 0.4), UNIFORM),
    }[kind]
    theta0 = LabelVector.from_string("0" * (n - n // 2) + "1" * (n // 2))
    return exact_posterior(sample_graph(theta0, model, n), prior, model)


class TestMembershipWithoutMasks:
    @pytest.mark.parametrize("kind", ["sharp", "flat", "tied"])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_membership_matches_mask(self, n, kind):
        # every enlargement is answered from the ball, however large
        thetas = list(enumerate_labelings(n))
        for gamma in (0.05, 0.3, 0.7):
            table = membership_table(kind, n)
            hpd = hpd_credible_set(table, gamma)
            sets = [hpd] + [enlarge(hpd, radius) for radius in range(n + 2)]
            # every membership is read before any mask
            answers = [[theta in s for theta in thetas] for s in sets]
            assert not any("mask" in vars(s) for s in sets)
            assert "level" not in vars(table)
            for s, got in zip(sets, answers):
                assert got == [bool(s.mask[canonical_index(t)]) for t in thetas]

    @pytest.mark.parametrize("kind", ["sharp", "flat", "tied"])
    @pytest.mark.parametrize("n", [10, 16, 18])
    def test_membership_matches_brute_force_on_the_base(self, n, kind):
        # theta is in enlarge(hpd, r) when it is in hpd or some member of
        # hpd.mask lies within folded distance < r; from n = 16 the balls
        # span chunks of 2^14 keys
        table = membership_table(kind, n)
        words = table.words
        picks = np.random.default_rng(n).choice(len(words), size=48, replace=False)
        for gamma in (0.05, 0.3, 0.7):
            hpd = hpd_credible_set(table, gamma)
            members = words[hpd.mask]
            for k in picks.tolist():
                d = np.bitwise_count(members ^ words[k]).astype(np.int64)
                nearest = int(np.minimum(d, n - d).min())
                theta = LabelVector(n, int(words[k]))
                for radius in range(n // 2 + 2):
                    expected = bool(hpd.mask[k]) or nearest < radius
                    assert (theta in enlarge(hpd, radius)) == expected

    def test_table_from_the_constructor(self):
        # a table whose levels are every distinct (class size, mass), not
        # (m, s): membership, masks and balls read them by key all the same
        table = hpd_table("unleveled")
        thetas = list(enumerate_labelings(table.n))
        for gamma in (0.01, 0.5):
            hpd = hpd_credible_set(table, gamma)
            sets = [hpd, enlarge(hpd, 2), enlarge(hpd, 3)]
            answers = [[theta in s for theta in thetas] for s in sets]
            for s, got in zip(sets, answers):
                assert got == [bool(s.mask[canonical_index(t)]) for t in thetas]
        prob = probabilities(table)
        for radius in range(8):
            center = thetas[radius * 97]
            k = np.bitwise_count(table.words ^ np.uint32(center.word)).astype(np.int64)
            scan = float(prob[np.minimum(k, 12 - k) < radius].sum())
            assert table.mass_of_ball(center, radius) == scan

    def test_large_ball_reads_no_mask(self):
        # a ball of radius 6 at n = 12 is listed in 1586 words, more than
        # half the 2048 labelings, and is still answered from its keys
        table = membership_table("flat", 12)
        hpd = hpd_credible_set(table, 0.3)
        wide = enlarge(hpd, 6)
        thetas = list(enumerate_labelings(12))
        got = [theta in wide for theta in thetas]
        assert "mask" not in vars(wide)
        assert "words" not in vars(table) and "level" not in vars(table)
        oracle = scan_enlarge(hpd, 6)
        assert got == [theta in oracle for theta in thetas]

    @pytest.mark.parametrize("kind", ["sharp", "flat", "tied"])
    def test_dilated_mask_reads_no_index(self, kind):
        # the enlarged mask is dilated over half-cube keys, so neither it
        # nor its base's mask builds the canonical words
        hpd = hpd_credible_set(membership_table(kind, 12), 0.05)
        enlarged = enlarge(hpd, 3)
        _canonical_words.cache_clear()
        enlarged.mask
        assert _canonical_words.cache_info().currsize == 0
        assert enlarged.members == scan_enlarge(hpd, 3)

    def test_tied_sets_take_part_of_their_last_group(self):
        # so that membership there mostly turns on the rank among ties
        partial = 0
        for n in range(2, 13):
            for gamma in (0.05, 0.3, 0.7):
                hpd = hpd_credible_set(membership_table("tied", n), gamma)
                partial += 0 < hpd.taken < hpd.tied
        assert partial >= 25


class TestConfidenceLowerBound:
    def test_formula(self):
        assert confidence_lower_bound(0.01, 0.5) == pytest.approx(0.98, rel=1e-12)

    def test_limit_to_one(self):
        assert confidence_lower_bound(1e-15, 0.2) == pytest.approx(1.0, abs=1e-12)

    def test_vacuous_reported_unclipped(self):
        assert confidence_lower_bound(0.6, 0.5) == pytest.approx(-0.2, rel=1e-12)


class TestPosteriorOdds:
    def test_flat_case_counts(self):
        n = 6
        table = flat_table(n)
        log_f = posterior_odds(table, mask_of(table, lambda t: t.m == 0),
                               mask_of(table, lambda t: t.m != 0))
        assert log_f == pytest.approx(math.log((1 << (n - 1)) - 1), rel=1e-10)

    def test_antisymmetry(self):
        table, _ = peaked_table(n=8, seed=6)
        a = mask_of(table, lambda t: t.m == 4)
        b = mask_of(table, lambda t: t.m < 2)
        assert posterior_odds(table, a, b) == pytest.approx(
            -posterior_odds(table, b, a), rel=1e-12
        )

    def test_equal_masses_gives_zero(self):
        table = flat_table(5)
        first = mask_of(table, lambda t: t.to_string() in {"00000", "00001"})
        second = mask_of(table, lambda t: t.to_string() in {"00010", "00100"})
        assert posterior_odds(table, first, second) == pytest.approx(0.0, abs=1e-12)

    def test_overlap_rejected(self):
        table = flat_table(4)
        with pytest.raises(ValueError):
            posterior_odds(table, mask_of(table, lambda t: t.m <= 1),
                           mask_of(table, lambda t: t.m >= 1))

    def test_empty_null_rejected(self):
        table = flat_table(4)
        with pytest.raises(ValueError):
            posterior_odds(table, mask_of(table, lambda t: False),
                           mask_of(table, lambda t: True))

    def test_masks_match_predicates(self):
        table, _ = peaked_table(n=8, seed=6)
        a = lambda t: t.m == 4
        b = lambda t: t.m < 2
        by_mask = posterior_odds(table, table.class_sizes == 4, table.class_sizes < 2)
        assert by_mask == posterior_odds(table, mask_of(table, a), mask_of(table, b))
        with pytest.raises(ValueError, match="overlap"):
            posterior_odds(table, table.class_sizes >= 3, table.class_sizes <= 3)
        # an index array is not a mask
        with pytest.raises(ValueError, match="boolean mask"):
            posterior_odds(table, table.class_sizes == 4, np.flatnonzero(table.class_sizes < 2))
        # nor is a predicate
        with pytest.raises(ValueError, match="^a selection must be a boolean mask over the "
                                             "table's 128 labelings$"):
            posterior_odds(table, table.class_sizes == 4, b)

    def test_assortative_rejects_single_community(self):
        # Erdos-Renyi null against everything else, strongly assortative
        # draws: the odds favour the alternative nearly always
        model = EdgeModel(0.9, 0.1)
        theta0 = LabelVector.from_string("0000011111")
        wins = 0
        reps = 200
        for seed in range(reps):
            table = exact_posterior(sample_graph(theta0, model, seed), UNIFORM, model)
            log_f = posterior_odds(table, mask_of(table, lambda t: t.m == 0),
                                   mask_of(table, lambda t: t.m != 0))
            if log_f > 0:
                wins += 1
        assert wins >= 0.95 * reps


class TestOddsErrorBounds:
    def test_one_sided(self):
        one, two = odds_error_bounds(0.01, 1.0)
        assert one == pytest.approx(0.04, rel=1e-12)
        assert two is None

    def test_two_term(self):
        one, two = odds_error_bounds(0.01, 10.0, 0.001)
        assert two == pytest.approx(0.0202, rel=1e-12)

    def test_large_threshold_limit(self):
        one, _ = odds_error_bounds(0.01, 1e12)
        assert one == pytest.approx(0.02, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            odds_error_bounds(0.0, 1.0)
        with pytest.raises(ValueError):
            odds_error_bounds(0.5, 0.0)
        with pytest.raises(ValueError):
            odds_error_bounds(0.5, 1.0, 1.5)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_threshold_must_be_positive_and_finite(self, threshold):
        with pytest.raises(ValueError, match="threshold must be positive and finite"):
            odds_error_bounds(0.05, threshold, 0.01)


class TestClassSizeTest:
    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf])
    def test_threshold_must_be_positive_and_finite(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            OddsTestResult(log_f=0.0, threshold=threshold, reject_null=False)

    def test_flat_case_reduces_to_prior_odds(self):
        n = 8
        model = EdgeModel(0.3, 0.3)
        g = sample_graph(LabelVector(n, 0), model, 1)
        result = class_size_test(g, UNIFORM, model, m0=0, m1=4, threshold=1.0)
        # posterior == prior, so odds are the canonical counts ratio
        expected = math.log((math.comb(8, 4) // 2) / 1)
        assert result.log_f == pytest.approx(expected, rel=1e-10)

    def test_rejection_flag_consistent(self):
        model = EdgeModel(0.9, 0.1)
        theta0 = LabelVector.from_string("0000011111")
        g = sample_graph(theta0, model, 5)
        result = class_size_test(g, UNIFORM, model, m0=5, m1=0, threshold=1.0)
        assert result.reject_null == (result.log_f > 0.0)

    def test_same_sizes_rejected(self):
        g = sample_graph(LabelVector.from_string("0011"), EdgeModel(0.6, 0.2), 3)
        with pytest.raises(ValueError):
            class_size_test(g, UNIFORM, EdgeModel(0.6, 0.2), m0=2, m1=2, threshold=1.0)

    def test_error_bounds_filled_only_with_rates(self):
        model = EdgeModel(0.8, 0.2)
        g = sample_graph(LabelVector.from_string("000111"), model, 4)
        bare = class_size_test(g, UNIFORM, model, m0=3, m1=None, threshold=1.0)
        assert bare.error_bound_one_sided is None
        rated = class_size_test(
            g, UNIFORM, model, m0=3, m1=None, threshold=2.0, a_n=0.05, b_n=0.01
        )
        assert rated.error_bound_one_sided == pytest.approx(2 * 0.05 * 1.5, rel=1e-12)
        assert rated.error_bound_two_term == pytest.approx(0.1 + 0.01, rel=1e-12)

    def test_planted_half_favours_null_against_zero(self):
        model = EdgeModel(0.9, 0.1)
        theta0 = LabelVector.from_string("0000011111")
        favour_null = 0
        reps = 200
        for seed in range(reps):
            g = sample_graph(theta0, model, seed)
            result = class_size_test(g, UNIFORM, model, m0=5, m1=0, threshold=1.0)
            if result.log_f < 0:
                favour_null += 1
        assert favour_null >= 0.95 * reps

    @pytest.mark.parametrize("m1", [None, 0, 2])
    def test_shared_odds_match_predicates(self, m1):
        model = EdgeModel(0.7, 0.2)
        g = sample_graph(LabelVector.from_string("0000111"), model, 2)
        table = exact_posterior(g, UNIFORM, model)
        log_f, mass_h0, mass_h1 = inference.class_size_odds(table, 3, m1)
        in_b = (lambda t: t.m != 3) if m1 is None else (lambda t: t.m == m1)
        in_a = mask_of(table, lambda t: t.m == 3)
        assert log_f == posterior_odds(table, in_a, mask_of(table, in_b))
        assert mass_h0 == table.masked_mass(in_a)[1]
        assert mass_h1 == table.masked_mass(mask_of(table, in_b))[1]
        result = class_size_test(g, UNIFORM, model, m0=3, m1=m1, threshold=1.0)
        assert (result.log_f, result.mass_h0, result.mass_h1) == (log_f, mass_h0, mass_h1)

    def test_masses_reported(self):
        model = EdgeModel(0.7, 0.2)
        g = sample_graph(LabelVector.from_string("000111"), model, 8)
        result = class_size_test(g, UNIFORM, model, m0=3, m1=None, threshold=1.0)
        assert result.mass_h0 is not None and result.mass_h1 is not None
        assert result.mass_h0 + result.mass_h1 == pytest.approx(1.0, abs=1e-10)
