"""Exact and Monte Carlo laboratory for Poisson-innovation count autoregressions.

Truncated-distribution algebra with explicit tail budgets, Markov chain
constructions (direct and death-chain superposition), exact dependence
coefficients on finite windows, interlaced mixing scans with gap
certificates, and a verification campaign binding the structural claims to
pass/fail reports.
"""

from .chains import (
    InarParams,
    MarkovChainSpec,
    PathEnsemble,
    SuperpositionConfig,
    TupleLaw,
    binomial_death_chain,
    iid_chain,
    inar_kernel,
    indicator_chain,
    indicator_chain_spec,
    marginal_at,
    poisson_death_chain,
    simulate_chain,
    simulate_inar_direct,
    simulate_inar_superposition,
    transition_matrix,
    window_joint_pmf,
    write_ensemble_csv,
)
from .dependence import (
    JointPmf,
    TripletPmf,
    lambda_coefficient,
    markov_triplet_residual,
    maximal_correlation,
    maximal_correlations,
)
from .harness import (
    CheckReport,
    McConfig,
    check_construction_equivalence,
    check_innovation_independence,
    check_markov_property,
    check_stationary_exact,
    check_stationary_marginal,
    check_thinning_conditional,
    reports_to_json,
    run_all,
)
from .mixing import (
    GapCertificate,
    WindowSpec,
    enumerate_window_pairs,
    fit_decay_rate,
    gap_for_epsilon,
    lag_joint,
    rho_markov,
    rho_star_window,
    verify_absorbing_split,
    verify_indicator_bound,
)
from .pmf import (
    Pmf,
    SeedSpec,
    binomial_pmf,
    convolve,
    point_mass,
    poisson_pmf,
    thin,
    total_variation,
)

__version__ = "0.1.0"
