"""End-to-end mission evaluation: SNR in, reliability and efficiency out.

One MissionSystem instance pins the channel geometry, the Doppler rate and
the short-packet link budget.  Per operating SNR Phi the chain runs

    eta (fixed point) -> rho = sqrt(eta/Phi) -> crossing rates at rho
    -> Upsilon -> MTTFF -> R_M(DeltaT) -> mEC -> arrival cap -> power
    -> mEEE = mEC / power,

and the expensive middle section (the crossing-rate quadratures) is
memoized per Phi, so sweeps over mission duration or QoS exponent reuse
the channel statistics.  The chain is written once: `reliability` runs it
up to R_M, `evaluate` carries on from there, and optimize_meee maximizes
the ratio of evaluate's fields.  The steps stay individually importable
from their home modules; this class only wires and caches them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, Optional

from . import dependability, qos
from .channel import FasChannel
from .dependability import FblLink
from .levelcross import CrossingContext, RatePair, failure_repair_rates
from .optimize import DinkelbachConfig, OptResult, dinkelbach_maximize
from .qos import QosProfile

__all__ = ["MissionPoint", "MissionSystem", "optimize_meee"]


@dataclass(frozen=True)
class MissionPoint:
    """Full record of one operating point, ready for CSV emission."""

    avg_snr: float
    eta: float
    rho: float
    failure_rate: float
    repair_rate: float
    mean_ttff: float
    reliability: float
    mec: float
    max_arrival: float
    power: float
    meee: float


class MissionSystem:
    """Channel + link composition evaluated at arbitrary operating SNRs.

    threshold_mode "rho" ties the envelope decision level to the operating
    SNR via rho = sqrt(eta/Phi); "sqrt_eta" freezes it at sqrt(eta)
    (useful for studying the threshold rule itself).  The link's avg_snr
    field only serves as the default operating point.
    """

    def __init__(self, channel: FasChannel, doppler_hz: float, link: FblLink,
                 threshold_mode: str = "rho"):
        if threshold_mode not in ("rho", "sqrt_eta"):
            raise ValueError(f"unknown threshold mode {threshold_mode!r}")
        self.channel = channel
        self.doppler_hz = float(doppler_hz)
        self.link = link
        self.threshold_mode = threshold_mode
        self._eta: Optional[float] = None
        self._rates: Dict[float, RatePair] = {}

    @property
    def eta(self) -> float:
        if self._eta is None:
            self._eta = dependability.fbl_threshold_eta(self.link)
        return self._eta

    def threshold(self, avg_snr: float) -> float:
        if self.threshold_mode == "rho":
            return dependability.decision_threshold_rho(self.eta, avg_snr)
        return math.sqrt(self.eta)

    def rates(self, avg_snr: float) -> RatePair:
        key = float(avg_snr)
        if key not in self._rates:
            ctx = CrossingContext(self.channel, self.doppler_hz,
                                  self.threshold(key))
            self._rates[key] = failure_repair_rates(ctx)
        return self._rates[key]

    def reliability(self, avg_snr: float, mission_duration: float) -> float:
        ttff = dependability.mttff(self.rates(avg_snr).failure_rate)
        return dependability.mission_reliability(mission_duration, ttff)

    def evaluate(self, avg_snr: float, profile: QosProfile,
                 mission_duration: float,
                 rmax_mode: str = "derived") -> MissionPoint:
        """One operating point through the whole chain."""
        rates = self.rates(avg_snr)
        r_m = self.reliability(avg_snr, mission_duration)
        theta = profile.qos_exponent
        mec = qos.mission_effective_capacity(
            theta, self.link.blocklength, self.link.rate, r_m)
        rmax = qos.max_arrival_rate(theta, profile.burstiness, mec,
                                    mode=rmax_mode)
        power = qos.total_power(avg_snr, profile, rmax, self.link.rate)
        return MissionPoint(
            avg_snr=avg_snr, eta=self.eta, rho=self.threshold(avg_snr),
            failure_rate=rates.failure_rate, repair_rate=rates.repair_rate,
            mean_ttff=dependability.mttff(rates.failure_rate),
            reliability=r_m, mec=mec, max_arrival=rmax, power=power,
            meee=mec / power)


def optimize_meee(system: MissionSystem, profile: QosProfile,
                  mission_duration: float, min_reliability: float,
                  cfg: Optional[DinkelbachConfig] = None,
                  rmax_mode: str = "derived") -> OptResult:
    """Best operating SNR for the efficiency figure under R_M >= omega.

    The ratio is evaluate's mEC over its power, so the optimizer sees the
    same numbers a sweep prints.  The constraint needs only R_M, so the
    feasibility probes never reach the power model.  The power model's
    regime warning is silenced during the search and raised, if at all,
    once for the reported point.
    """

    def point(phi: float) -> MissionPoint:
        return system.evaluate(phi, profile, mission_duration, rmax_mode)

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "idle power", RuntimeWarning)
        res = dinkelbach_maximize(
            lambda phi: point(phi).mec, lambda phi: point(phi).power, cfg=cfg,
            constraint=lambda phi: system.reliability(phi, mission_duration),
            level=min_reliability)
    if res.feasible:
        point(res.phi_star)
    return res
