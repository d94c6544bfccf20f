"""Bayesian inference for the planted bi-section random graph model."""

from .bounds import (
    BoundReport,
    InequalityCheck,
    ball_tail_bound,
    ball_tail_bound_ks,
    ch_recovery_margin,
    detectability_sandwich,
    expected_mass_bound,
    hellinger_affinity,
    inequality_suite,
    neg_log_affinity,
    pairwise_mass_bound,
    point_tail_bound_dense,
    point_tail_bound_uniform,
    rho_upper_bound,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    run_bound_check,
    run_coverage,
    run_experiment,
    run_phase_diagram,
    run_recovery,
    run_test_error,
    write_result,
)
from .inference import (
    CredibleSet,
    EnlargedSet,
    OddsTestResult,
    class_size_test,
    confidence_lower_bound,
    enlarge,
    hpd_credible_set,
    odds_error_bounds,
    posterior_odds,
)
from .model import (
    ENUMERATION_CAP,
    EdgeModel,
    Graph,
    LabelVector,
    LikelihoodRatioStats,
    SparsityParams,
    canonical_words,
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
from .posterior import (
    McmcConfig,
    McmcResult,
    PosteriorTable,
    exact_posterior,
    mcmc_posterior,
    posterior_mode,
)
from .priors import (
    BetaBernoulli,
    FixedBernoulli,
    GConstant,
    PriorSpec,
    UniformClassSize,
    class_size_marginal,
    g_constant,
    log_prior_mass,
    parse_prior,
    prior_mass_ratio_bound,
    prior_to_string,
)

__version__ = "0.1.0"
