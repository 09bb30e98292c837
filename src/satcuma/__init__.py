"""Performance-analysis toolkit for uplink satellite fluid-antenna networks.

Closed-form signal/interference/SINR distributions, outage probability and
ergodic rate for a single-RF-chain aggregated-port receiver, with an
independent brute-force Monte-Carlo oracle, MRC/ZF baselines, and a CLI for
parameter sweeps and validation runs.

``import satcuma`` loads only the scenario module (and with it NumPy); each
other public name imports its submodule on first use, so a caller that
needs only the Monte-Carlo oracle never loads the quadrature, metrics or
sweep code.  Names are looked up in their submodule on every access, not
cached here, so a replacement of a submodule attribute is seen through the
package too.
"""

import importlib

from . import scenario  # noqa: F401  (loads NumPy with the package)

# each submodule with the public names it provides; a submodule's own name
# resolves to the submodule
_EXPORTS = (
    ("scenario", ("AntennaConfig", "LinkBudget", "Scenario", "ScenarioError", "UserField",
                  "build_scenario", "nominal_snr", "path_loss_coeff", "table_default_config")),
    ("core", ("PortSet", "PortSetKind", "activated_set", "instant_sinr",
              "interference_power_compact", "k2_residual_bound",
              "signal_amplitude_bruteforce", "signal_power_compact", "window_bounds")),
    ("distributions", ("SupportInterval", "cdf_difference", "interference_cdf_per_user",
                       "interference_pdf_per_user", "pdf_ratio", "signal_cdf", "signal_pdf",
                       "sinr_law", "sinr_pdf_compact", "sinr_pdf_exact",
                       "total_interference_pdf")),
    ("metrics", ("MetricResult", "ergodic_rate", "mean_sinr", "mean_snr", "outage_compact",
                 "outage_exact")),
    ("quadrature", ("QuadratureSpec",)),
    ("benchmarks", ("cuma_beamforming_gains", "min_ports_vs_mrc", "mrc_sinr", "ocuma_rate",
                    "zf_sinr_mc")),
    ("montecarlo", ("TrialBatch", "empirical_cdf", "empirical_outage", "ks_distance",
                    "run_trials")),
)
_SUBMODULE = {name: module for module, names in _EXPORTS for name in (module, *names)}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f"{__name__}.{module}")
    return mod if name == module else getattr(mod, name)


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
