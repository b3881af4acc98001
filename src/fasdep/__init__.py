"""Dependability and energy-efficiency analysis of fluid antenna links.

Layering, bottom up: specfun (special functions) and quadrature
(adaptive Gauss-Kronrod) are self-contained numerics; channel holds the
correlated envelope statistics; levelcross turns them into crossing rates
and fade durations; dependability and qos map those onto mission
reliability and effective-capacity figures; optimize and pipeline wire the
whole chain into the SNR optimization; mcsim is the Monte Carlo oracle and
cli the experiment runner.
"""

from .channel import (FasChannel, bivariate_cdf_series, joint_cdf,
                      marginal_cdf, marginal_pdf, max_cdf,
                      max_cdf_and_survival, spatial_correlation)
from .dependability import (FblLink, decision_threshold_rho,
                            fbl_threshold_eta, fbl_threshold_trace,
                            mission_reliability, mttff)
from .errors import (FasdepError, NoCrossingError, QuadratureError,
                     SeriesTruncationError)
from .levelcross import (CrossingContext, RatePair, afd, anfd,
                         failure_repair_rates, lcr, lcr_iid,
                         lcr_two_port_series, normalized_lcr)
from .mcsim import (CrossingScan, FadingTrace, SimConfig, empirical_afd,
                    empirical_cdf, empirical_lcr, export_trace,
                    generate_fading, scan_crossings)
from .optimize import (DinkelbachConfig, OptResult, dinkelbach_maximize,
                       golden_section_max)
from .pipeline import MissionPoint, MissionSystem, optimize_meee
from .qos import (QosProfile, effective_bandwidth, max_arrival_rate,
                  mission_effective_capacity, total_power)

__version__ = "0.1.0"

__all__ = [
    "FasChannel", "spatial_correlation", "joint_cdf", "max_cdf",
    "max_cdf_and_survival", "bivariate_cdf_series", "marginal_pdf",
    "marginal_cdf",
    "CrossingContext", "RatePair", "lcr", "normalized_lcr", "lcr_iid",
    "lcr_two_port_series", "afd", "anfd", "failure_repair_rates",
    "FblLink", "fbl_threshold_eta", "fbl_threshold_trace",
    "decision_threshold_rho", "mttff", "mission_reliability",
    "QosProfile", "effective_bandwidth", "mission_effective_capacity",
    "max_arrival_rate", "total_power",
    "DinkelbachConfig", "OptResult", "golden_section_max",
    "dinkelbach_maximize",
    "MissionPoint", "MissionSystem", "optimize_meee",
    "SimConfig", "FadingTrace", "CrossingScan", "generate_fading",
    "scan_crossings", "empirical_lcr", "empirical_afd", "empirical_cdf",
    "export_trace",
    "FasdepError", "SeriesTruncationError", "QuadratureError",
    "NoCrossingError",
]
