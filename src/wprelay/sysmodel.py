"""End-to-end SNR and throughput of the harvest-then-cooperate link.

Timeline per block of length T: the access point beams energy for tau*T,
the user broadcasts for (1-tau)*T/2, and the relay amplifies-and-forwards
for the remaining (1-tau)*T/2. The AP combines both hops by MRC, so the
post-combining SNR is the direct-link term plus the relayed term.

One kernel computes that SNR: it takes the per-trial channel statistics
(channel.LinkStats), the beam gains g1 = |h1^T w|^2 and g2 = |h2^T w|^2,
and tau, as numpy arrays that broadcast against each other. relay=False
gives the direct-link baseline, where the user transmits for the whole
(1-tau)*T. snr_exact evaluates one channel under a beam vector w through
the same hop SNRs, and throughput is the rate of one SNR.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, SystemParams

__all__ = [
    "SnrBreakdown",
    "harvest_threshold",
    "relay_threshold",
    "link_snr",
    "link_throughput",
    "snr_exact",
    "throughput",
]

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class SnrBreakdown:
    """Post-MRC SNR split into its direct and relayed contributions.

    gamma_upper replaces the relayed term by min of the two hop SNRs,
    which bounds the amplify-and-forward term from above.
    """

    gamma_direct: float
    gamma_relay: float
    gamma_total: float
    gamma_upper: float


def _powers(params: SystemParams, g1, g2, tau, relay: bool = True):
    """Average user and relay transmit powers in watts for beam gains g1, g2.

    Harvested energy eta*tau*Ps*g/d^alpha is spent uniformly over the
    transmit phase, (1-tau)/2 with the relay and (1-tau) without; a fixed
    circuit draw pc_watt is deducted and the result floored at zero.
    """
    scale = (2.0 if relay else 1.0) * params.eta * tau * params.ps_watt / (1.0 - tau)
    pu = scale * g1 / params.d1 ** params.alpha
    pr = scale * g2 / params.d2 ** params.alpha
    pc = params.pc_watt
    return np.maximum(0.0, pu - pc), np.maximum(0.0, pr - pc)


def harvest_threshold(params: SystemParams, g1, relay: bool = True):
    """Smallest tau at which the user's harvested power covers the circuit
    draw pc_watt; below it _powers floors the user's power, and the rate, at 0.

    With k = tau/(1-tau), pu = c eta Ps g1 k / d1^alpha (c = 2 with the
    relay, 1 without) reaches pc_watt at k_u = pc d1^alpha / (c eta Ps g1),
    so the threshold is k_u / (1 + k_u); exactly 0 without a circuit power.
    """
    return _threshold(params, params.d1, g1, 2.0 if relay else 1.0)


def relay_threshold(params: SystemParams, g2):
    """The relay's harvest_threshold, k_r/(1 + k_r) with k_r = pc d2^alpha/(2 eta Ps g2)."""
    return _threshold(params, params.d2, g2, 2.0)


def _threshold(params: SystemParams, d: float, g, c: float):
    need = params.pc_watt * d ** params.alpha
    if need == 0.0:
        return np.zeros(np.shape(g))
    return need / (need + c * params.eta * params.ps_watt * g)


def _hop_snrs(params: SystemParams, n1_sq, n2_sq, h3_sq, g1, g2, tau, relay: bool = True):
    """Direct-link SNR and the two hop SNRs of the relayed path."""
    pu, pr = _powers(params, g1, g2, tau, relay)
    n0 = params.noise_watt
    gd = pu * n1_sq / (params.d1 ** params.alpha * n0)
    xu = pu * h3_sq / (params.d3 ** params.alpha * n0)
    xr = pr * n2_sq / (params.d2 ** params.alpha * n0)
    return gd, xu, xr


def link_snr(params: SystemParams, link, g1, g2, tau, relay: bool = True):
    """Exact post-MRC SNR per trial; link holds n1_sq, n2_sq and h3_sq."""
    gd, xu, xr = _hop_snrs(params, link.n1_sq, link.n2_sq, link.h3_sq, g1, g2, tau, relay)
    return gd + xu * xr / (xu + xr + 1.0) if relay else gd


def link_throughput(gamma, tau, relay: bool = True):
    """Per-trial throughput in bits/s/Hz; the data phase is halved with the relay."""
    return (0.5 if relay else 1.0) * (1.0 - tau) * np.log2(1.0 + gamma)


def snr_exact(params: SystemParams, ch: ChannelState, w: np.ndarray,
              tau: float) -> SnrBreakdown:
    """Exact post-MRC SNR of the two-phase transmission under beam w."""
    nw = float(np.linalg.norm(w))
    if abs(nw - 1.0) > _NORM_TOL:
        raise ValueError(f"beam must be unit norm, got |w| = {nw}")
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    gd, xu, xr = (float(v) for v in _hop_snrs(
        params, float(np.vdot(ch.h1, ch.h1).real), float(np.vdot(ch.h2, ch.h2).real),
        abs(ch.h3) ** 2, abs(ch.h1 @ w) ** 2, abs(ch.h2 @ w) ** 2, tau))
    gr = xu * xr / (xu + xr + 1.0)
    return SnrBreakdown(gamma_direct=gd, gamma_relay=gr,
                        gamma_total=gd + gr, gamma_upper=gd + min(xu, xr))


def throughput(gamma: float, tau: float) -> float:
    """Delay-limited throughput (1-tau)/2 * log2(1 + gamma) in bits/s/Hz."""
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return 0.5 * (1.0 - tau) * math.log2(1.0 + gamma)
