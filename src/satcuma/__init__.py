"""Performance-analysis toolkit for uplink satellite fluid-antenna networks.

Closed-form signal/interference/SINR distributions, outage probability and
ergodic rate for a single-RF-chain aggregated-port receiver, with an
independent brute-force Monte-Carlo oracle, MRC/ZF baselines, and a CLI for
parameter sweeps and validation runs.
"""

from .scenario import (
    AntennaConfig,
    DerivedChannel,
    LinkBudget,
    Scenario,
    ScenarioError,
    UserField,
    build_scenario,
    nominal_snr,
    path_loss_coeff,
    table_default_config,
)
from .core import (
    InstantPower,
    PortSet,
    PortSetKind,
    activated_set,
    instant_sinr,
    interference_power_compact,
    k2_residual_bound,
    signal_amplitude_bruteforce,
    signal_power_compact,
    window_bounds,
)
from .distributions import (
    SupportInterval,
    TruncGaussParams,
    cdf_difference,
    interference_cdf_per_user,
    interference_pdf_per_user,
    interference_plus_noise_pdf,
    pdf_ratio,
    signal_cdf,
    signal_pdf,
    sinr_pdf_compact,
    sinr_pdf_exact,
    total_interference_pdf,
    trunc_gauss_params,
)
from .metrics import (
    MetricResult,
    ergodic_rate,
    mean_sinr,
    mean_snr,
    outage_compact,
    outage_exact,
)
from .quadrature import QuadratureSpec
from .benchmarks import (
    GainComparison,
    MrcConfig,
    cuma_beamforming_gains,
    min_ports_vs_mrc,
    mrc_sinr,
    ocuma_rate,
    zf_sinr_mc,
)
from .montecarlo import (
    TrialBatch,
    empirical_cdf,
    empirical_outage,
    ks_distance,
    run_trials,
)

__version__ = "0.1.0"
