"""Statistical QoS layer: mission effective capacity, bandwidth and power.

Everything here views the link through a QoS exponent theta: larger theta
demands faster decay of the queue-length tail.  A whole mission of n-use
slots is one Bernoulli service unit that delivers nR bits with
probability R_M, which yields

    mEC = -ln(1 - R_M (1 - e^(-theta n R))) / (n theta).

The source side is an ON-OFF fluid with burstiness S whose effective
bandwidth caps the admissible arrival rate; equating it to the mission
effective capacity gives the maximum sustainable arrival rate, which sets
the drained power.  These are the steps; pipeline.MissionSystem.evaluate
chains them and forms the efficiency figure mEEE = mEC / power that the
optimizer maximizes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

__all__ = [
    "QosProfile",
    "effective_bandwidth",
    "mission_effective_capacity",
    "max_arrival_rate",
    "total_power",
]


@dataclass(frozen=True)
class QosProfile:
    """Source and power-model constants for the efficiency figure.

    Defaults follow the reference experiment configuration: QoS exponent
    1e-3, source burstiness 1/2, drain (amplifier) efficiency 0.2,
    circuit power 0.2 W, idle drain 0.03 W.
    """

    qos_exponent: float = 1e-3
    burstiness: float = 0.5
    drain_eff: float = 0.2
    circuit_power: float = 0.2
    idle_power: float = 0.03

    def __post_init__(self):
        if not self.qos_exponent > 0.0:
            raise ValueError(f"qos_exponent must be positive, got {self.qos_exponent}")
        if not 0.0 < self.burstiness <= 1.0:
            raise ValueError(f"burstiness must lie in (0, 1], got {self.burstiness}")
        if not self.drain_eff > 0.0:
            raise ValueError(
                f"drain_eff must be positive, got {self.drain_eff}")
        if not (self.circuit_power >= 0.0 and self.idle_power >= 0.0):
            raise ValueError("power terms must be nonnegative")


def effective_bandwidth(theta: float, arrival_rate: float,
                        burstiness: float) -> float:
    """Effective bandwidth of an ON-OFF source: ln(1 + S (e^(r theta) - 1))/theta."""
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    if arrival_rate < 0.0:
        raise ValueError(f"arrival rate must be nonnegative, got {arrival_rate}")
    if not 0.0 < burstiness <= 1.0:
        raise ValueError(f"burstiness must lie in (0, 1], got {burstiness}")
    return math.log1p(burstiness * math.expm1(arrival_rate * theta)) / theta


def mission_effective_capacity(theta: float, blocklength: int, rate: float,
                               reliability: float) -> float:
    """Mission effective capacity of the Bernoulli(R_M) service unit.

    Exact endpoints: reliability 1 gives the full rate, reliability 0
    gives zero.
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    if blocklength < 1:
        raise ValueError(f"blocklength must be >= 1, got {blocklength}")
    if rate < 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    if not 0.0 <= reliability <= 1.0:
        raise ValueError(f"reliability must lie in [0, 1], got {reliability}")
    if reliability == 1.0:
        return rate
    if reliability == 0.0:
        return 0.0
    n = float(blocklength)
    served = -math.expm1(-theta * n * rate)      # 1 - e^(-theta n R)
    return -math.log1p(-reliability * served) / (n * theta)


def max_arrival_rate(theta: float, burstiness: float, mec: float,
                     mode: str = "derived") -> float:
    """Largest ON-OFF arrival rate whose effective bandwidth fits under mec.

    mode "derived" inverts effective_bandwidth exactly:
    r = (S/theta) ln(1 + (e^(theta mec) - 1)/S).  mode "paper" evaluates
    the alternative printed form (S/theta) ln(e^(theta mec)/S - (1-S)),
    kept for comparison; the two coincide at S = 1.
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    if not 0.0 < burstiness <= 1.0:
        raise ValueError(f"burstiness must lie in (0, 1], got {burstiness}")
    if mec < 0.0:
        raise ValueError(f"mec must be nonnegative, got {mec}")
    if burstiness == 1.0:
        return float(mec)
    s = burstiness
    if mode == "derived":
        return s / theta * math.log1p(math.expm1(theta * mec) / s)
    if mode == "paper":
        arg = math.exp(theta * mec) / s - (1.0 - s)
        if arg <= 0.0:
            raise ValueError(
                f"printed-form argument nonpositive (theta={theta}, S={s}, "
                f"mec={mec}); no admissible arrival rate")
        return s / theta * math.log(arg)
    raise ValueError(f"unknown max_arrival_rate mode {mode!r}")


def total_power(avg_snr: float, profile: QosProfile, max_rate: float,
                rate: float) -> float:
    """Drained power at operating SNR avg_snr (linear) and load max_rate.

    The amplifier drains drain_eff * Phi at full load and backs off
    toward the idle drain with the OFF fraction scaled by 1 - r/R.
    """
    if not avg_snr > 0.0:
        raise ValueError(f"avg_snr must be positive, got {avg_snr}")
    if not rate > 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    if max_rate < 0.0 or max_rate > rate * (1.0 + 1e-12):
        raise ValueError(
            f"max arrival rate {max_rate} outside [0, R={rate}]")
    drain = profile.drain_eff * avg_snr
    if profile.idle_power > drain:
        warnings.warn(
            f"idle power {profile.idle_power} exceeds active drain {drain}; "
            "power model leaves its intended regime", RuntimeWarning)
    off_frac = (1.0 - profile.burstiness) * (1.0 - min(max_rate, rate) / rate)
    return drain - (drain - profile.idle_power) * off_frac + profile.circuit_power

