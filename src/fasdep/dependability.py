"""Link dependability: outage threshold, time to first failure, reliability.

A short-packet link at rate R over n channel uses with target error
probability eps admits an SNR threshold eta solving

    eta = 2^(R + Qinv(eps) log2(e) sqrt(1 - (1+eta)^-2) / sqrt(n)) - 1,

found here by fixed-point iteration started from the dispersion of the
infinite-SNR limit (radical = 1).  The decision threshold on the envelope
is rho = sqrt(eta / Phi) for average SNR Phi; the link is operational
while the selected envelope stays at or above rho.

Failures form an alternating renewal process with rates taken from the
level-crossing statistics, giving MTTFF = 1/Upsilon and mission
reliability exp(-DeltaT / MTTFF).  An infinite failure rate (a link that
is down almost surely) gives MTTFF = 0 and R_M = 0 for any mission of
positive length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from . import specfun
from .errors import SeriesTruncationError

__all__ = [
    "FblLink",
    "fbl_threshold_eta",
    "fbl_threshold_trace",
    "decision_threshold_rho",
    "mttff",
    "mission_reliability",
]

_MAX_FIXED_POINT_ITERS = 10_000


@dataclass(frozen=True)
class FblLink:
    """Short-packet link budget.

    blocklength n (channel uses), error_target eps in (0, 1), rate R > 0
    in bits per channel use, avg_snr Phi > 0 (linear), and the stopping
    tolerance eta_tol for the threshold fixed point.
    """

    blocklength: int
    error_target: float
    rate: float
    avg_snr: float
    eta_tol: float = 1e-4

    def __post_init__(self):
        if self.blocklength < 1:
            raise ValueError(f"blocklength must be >= 1, got {self.blocklength}")
        if not 0.0 < self.error_target < 1.0:
            raise ValueError(
                f"error_target must lie in (0, 1), got {self.error_target}")
        if not self.rate > 0.0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if not self.avg_snr > 0.0:
            raise ValueError(f"avg_snr must be positive, got {self.avg_snr}")
        if not self.eta_tol > 0.0:
            raise ValueError(f"eta_tol must be positive, got {self.eta_tol}")


def fbl_threshold_trace(link: FblLink) -> List[float]:
    """All fixed-point iterates of the SNR threshold, last one converged.

    Successive iterates are compared against eta_tol; the first iterate
    uses the unit radical (the eta -> inf limit), so an error_target of
    exactly 1/2 collapses to 2^R - 1 immediately.
    """
    penalty = (specfun.qfunc_inv(link.error_target) * math.log2(math.e)
               / math.sqrt(link.blocklength))
    radical = 1.0
    iterates: List[float] = []
    for _ in range(_MAX_FIXED_POINT_ITERS):
        eta = 2.0 ** (link.rate + radical * penalty) - 1.0
        iterates.append(eta)
        if len(iterates) >= 2 and abs(iterates[-1] - iterates[-2]) < link.eta_tol:
            return iterates
        radical = math.sqrt(max(1.0 - 1.0 / ((1.0 + eta) ** 2), 0.0))
    raise SeriesTruncationError(
        f"threshold fixed point did not settle within "
        f"{_MAX_FIXED_POINT_ITERS} iterations (eta_tol={link.eta_tol})",
        partial=iterates[-1])


def fbl_threshold_eta(link: FblLink) -> float:
    """Converged SNR threshold eta of the fixed point above."""
    return fbl_threshold_trace(link)[-1]


def decision_threshold_rho(eta: float, avg_snr: float) -> float:
    """Envelope decision level rho = sqrt(eta / Phi)."""
    if not eta >= 0.0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    if not avg_snr > 0.0:
        raise ValueError(f"avg_snr must be positive, got {avg_snr}")
    return math.sqrt(eta / avg_snr)


def mttff(failure_rate: float) -> float:
    """Mean time to first failure 1/Upsilon; a zero rate never fails.

    An infinite rate gives 0: the link is already down.
    """
    if failure_rate < 0.0:
        raise ValueError(f"failure rate must be nonnegative, got {failure_rate}")
    if failure_rate == 0.0:
        return math.inf
    return 1.0 / failure_rate


def mission_reliability(mission_duration: float, mean_ttff: float) -> float:
    """Probability exp(-DeltaT / MTTFF) of surviving the whole mission."""
    if not mission_duration >= 0.0:
        raise ValueError(
            f"mission duration must be nonnegative, got {mission_duration}")
    if not mean_ttff >= 0.0:
        raise ValueError(f"MTTFF must be nonnegative, got {mean_ttff}")
    if math.isinf(mean_ttff) or mission_duration == 0.0:
        return 1.0
    if mean_ttff == 0.0:
        return 0.0
    return math.exp(-mission_duration / mean_ttff)
