"""End-to-end SNR and throughput of the harvest-then-cooperate link.

Timeline per block of length T: the access point beams energy for tau*T,
the user broadcasts for (1-tau)*T/2, and the relay amplifies-and-forwards
for the remaining (1-tau)*T/2. The AP combines both hops by MRC, so the
post-combining SNR is the direct-link term plus the relayed term.

One kernel computes that SNR, coefficient_snr: it takes the per-trial
coefficients (channel.ChannelDecomposition), the beam gains g1 = |h1^T w|^2
and g2 = |h2^T w|^2, and tau, as numpy arrays that broadcast against each
other (a fixed tau is a float). relay=False gives the direct-link baseline,
where the user transmits for the whole (1-tau)*T. link_snr and snr_exact
build the coefficients of a block of trials or of one channel and evaluate
them. The SNR and the rate work in place, in their formulas' order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelDecomposition, ChannelState, LinkStats, SystemParams, _check_tau,
                      _draws)

__all__ = [
    "SnrBreakdown",
    "harvest_threshold",
    "relay_threshold",
    "coefficient_snr",
    "link_snr",
    "link_throughput",
    "snr_exact",
    "throughput",
]

_NORM_TOL = 1e-9
_LN2 = math.log(2.0)


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


def harvest_threshold(dec: ChannelDecomposition, g1, relay: bool = True):
    """Smallest tau at which the user's harvest covers its circuit draw, below
    which the rate is 0: k_u/(1 + k_u) = need/(need + g1), k_u = need/g1, with
    need = need_u (2 need_u without the relay); exactly 0 without one."""
    return _threshold(dec.need_u * (1.0 if relay else 2.0), g1)


def relay_threshold(dec: ChannelDecomposition, g2):
    """The relay's harvest_threshold, need_r/(need_r + g2)."""
    return _threshold(dec.need_r, g2)


def _threshold(need, g):
    return need / (need + g) if _draws(need) else np.zeros(np.shape(g))


def _hops(dec: ChannelDecomposition, g1, g2, tau, relay: bool = True):
    """Direct-link SNR and the two hop SNRs of the relayed path."""
    k = tau / (1.0 - tau) if relay else 0.5 * tau / (1.0 - tau)  # twice the time
    pu, pr = g1 * k, g2 * k
    if _draws(dec.need_u):  # the circuit draw, if any, comes off first
        pu, pr = np.maximum(pu - dec.need_u, 0.0), np.maximum(pr - dec.need_r, 0.0)
    return (dec.a0 * pu, dec.c0 * pu, dec.d0 * pr) if relay else (dec.a0 * pu, 0.0, 0.0)


def coefficient_snr(dec: ChannelDecomposition, g1, g2, tau, relay: bool = True):
    """Exact post-MRC SNR of each trial of dec under beam gains g1, g2 at tau:
    gd + xu xr / (xu + xr + 1), built in the hops' arrays, so g1 and g2 must
    share a shape, and dec's c0 and d0 a0's."""
    gd, xu, xr = _hops(dec, g1, g2, tau, relay)
    if relay:
        den = xu + xr
        den += 1.0
        xu *= xr
        xu /= den
        gd += xu
    return gd


def link_snr(params: SystemParams, link, g1, g2, tau, relay: bool = True):
    """Exact post-MRC SNR per trial; link holds n1_sq, n2_sq and h3_sq."""
    return coefficient_snr(ChannelDecomposition.of(params, link), g1, g2, tau, relay)


def link_throughput(gamma, tau, relay: bool = True):
    """Per-trial throughput in bits/s/Hz; the data phase is halved with the relay.
    log1p keeps the rate's relative accuracy at small gamma."""
    rate = np.log1p(gamma)
    rate *= (0.5 if relay else 1.0) * (1.0 - tau)
    rate /= _LN2
    return rate


def snr_exact(params: SystemParams, ch: ChannelState, w: np.ndarray,
              tau: float) -> SnrBreakdown:
    """Exact post-MRC SNR of the two-phase transmission under beam w."""
    nw = float(np.linalg.norm(w))
    if abs(nw - 1.0) > _NORM_TOL:
        raise ValueError(f"beam must be unit norm, got |w| = {nw}")
    _check_tau(tau)
    link = LinkStats.from_block(ch.h1[None, :], ch.h2[None, :], np.array([ch.h3]))
    gd, xu, xr = (float(v[0]) for v in _hops(
        ChannelDecomposition.of(params, link),
        np.array([abs(ch.h1 @ w) ** 2]), np.array([abs(ch.h2 @ w) ** 2]), tau))
    gr = xu * xr / (xu + xr + 1.0)
    return SnrBreakdown(gamma_direct=gd, gamma_relay=gr,
                        gamma_total=gd + gr, gamma_upper=gd + min(xu, xr))


def throughput(gamma: float, tau: float) -> float:
    """Delay-limited throughput (1-tau)/2 * log2(1 + gamma) in bits/s/Hz."""
    _check_tau(tau)
    if not gamma >= 0:  # NaN too
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return float(link_throughput(gamma, tau))
