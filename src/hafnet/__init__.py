"""Joint user association and bandwidth allocation under per-user
alpha-fairness, solved by distributed dual pricing with verifiable
optimality certificates."""

from .core import (
    Allocation,
    AlphaProfile,
    Association,
    GROUP_INTERVALS,
    Group,
    NetworkInstance,
    RATE_FLOOR,
    haf_objective,
    rates_of,
    utility_vector,
)
from .channel import (
    FadingState,
    Topology,
    evolve_fading,
    generate_topology,
    make_fading,
    make_instance,
    spectral_efficiency,
)
from .ra import (
    LambdaSearchConfig,
    allocate,
    assemble,
    bs_optimal_utility,
    solve_stacked,
    subset_solve,
)
from .pricing import (
    PricingConfig,
    RunTrace,
    associate,
    dual_value,
    price_gradient,
    solve,
    theorem2_bound,
)
from .baselines import (
    GaParams,
    InstanceTooLargeError,
    brute_force,
    run_2rs,
    run_ga,
    run_max_sinr,
    run_pricing_baseline,
    run_random,
)
from .metrics import report, user_rates
from .experiments import (
    HIGH_RATIOS,
    LOW_RATIOS,
    ScenarioConfig,
    TimeVaryingConfig,
    build_instance,
    child_seed,
    emit_convergence_trace,
    high_fairness_config,
    load_config,
    low_fairness_config,
    run_method,
    run_static_experiment,
    run_time_varying,
    run_user_sweep,
    sample_alphas,
    save_config,
)

__version__ = "0.1.0"
