"""Scenario parameters, the branch SNR coefficients, Rayleigh channel
sampling and geometric decomposition.

Channels come from one seekable sampler, sample_link_blocks, which
draws the statistics a Rayleigh channel reaches the designs through
(LinkStats) directly: the Exp(1) sums as -log of products of uniforms and
h1^H h2 as a phase, which LinkStats.inner turns into the complex value
only for the callers that read it. It seeds one generator per call and
yields a trial range block by block; sample_link_block is its one-block
case. sample_channel_block puts the statistics on random orthonormal
directions when the vectors themselves are wanted. Trial t of a seed is
the same channel whichever call, block or single draw asks for it.

The downlink beam is a mix of two orthonormal directions derived from the
user channel h1 and the relay channel h2: the component of h2* along h1*
and the perpendicular remainder. All solvers work with the scalars
(a, b, c) of that decomposition instead of the raw N-dimensional vectors,
held per trial for a whole block of trials in LinkStats. The SNR reads
them, with the scenario's constants, through one coefficient object:
ChannelDecomposition.
"""
from __future__ import annotations

import hashlib
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

__all__ = [
    "DEFAULT_NOISE_DBM",
    "SystemParams",
    "ChannelState",
    "BranchConstants",
    "branch_constants",
    "ChannelDecomposition",
    "LinkStats",
    "cell_constants",
    "DegenerateChannelError",
    "dbm_to_watt",
    "sample_channel",
    "sample_channel_block",
    "sample_link_block",
    "sample_link_blocks",
    "build_beamformer",
]

# -174 dBm/Hz noise density over 20 MHz bandwidth
DEFAULT_NOISE_DBM = -174.0 + 10.0 * math.log10(20e6)

# A perpendicular component no larger than this times max(||h2||, 1)
# leaves only the parallel beam direction.
_PERP_TOL = 1e-12

# Factors per log in _exp_sums: 16 factors >= 2**-53 multiply to at least
# 2**-848, still a normal float.
_LOG_SPAN = 16


class DegenerateChannelError(ValueError):
    """Raised when the user channel vanishes and no beam direction exists."""


def dbm_to_watt(value_dbm: float) -> float:
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_seed(master_seed) -> None:
    """Reject anything but an int in [0, 2**128); True and 1.0 equal 1 but are rejected."""
    if not _is_int(master_seed) or not 0 <= master_seed < 2 ** 128:
        raise ValueError(f"master_seed must be an int in [0, 2**128), got {master_seed!r}")


def _check_tau(tau) -> None:
    """Reject a harvest fraction outside the open interval (0, 1), and NaN."""
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")


# The linear values SystemParams derives, and the dBm/dB fields each comes from.
_LINEAR_SOURCES = {"rho": ("ps_dbm", "noise_dbm"), "ps_watt": ("ps_dbm",),
                   "noise_watt": ("noise_dbm",), "pc_watt": ("pc_dbm",),
                   "gamma_th": ("gamma_th_db",)}


@dataclass(frozen=True)
class SystemParams:
    """All scenario constants. Powers in dBm, distances in meters.

    Conversions to linear scale happen once here; everything downstream
    works in watts and linear SNR. A dBm or dB field, or the pair behind
    rho, whose linear value overflows a float raises ValueError.
    """

    n_antennas: int = 10
    d1: float = 20.0
    d2: float = 15.0
    d3: float = 15.0
    alpha: float = 2.5
    eta: float = 0.5
    ps_dbm: float = 40.0
    noise_dbm: float = DEFAULT_NOISE_DBM
    gamma_th_db: float = 0.0
    pc_dbm: float | None = None

    def __post_init__(self) -> None:
        n = self.n_antennas
        if not _is_int(n):
            raise ValueError(f"n_antennas must be an integer, got {n!r}")
        for f in fields(self)[1:]:  # the float fields
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if n < 1:
            raise ValueError("n_antennas must be >= 1")
        for name in ("d1", "d2", "d3"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.alpha < 2:
            raise ValueError("alpha must be >= 2")
        if not (0 < self.eta <= 1):
            raise ValueError("eta must lie in (0, 1]")
        for name, sources in _LINEAR_SOURCES.items():
            try:
                value = getattr(self, name)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                given = ", ".join(f"{f}={getattr(self, f)!r}" for f in sources)
                raise ValueError(f"{name} overflows a float at {given}")

    @property
    def rho(self) -> float:
        """Linear transmit SNR Ps/N0."""
        return 10.0 ** ((self.ps_dbm - self.noise_dbm) / 10.0)

    @property
    def ps_watt(self) -> float:
        return dbm_to_watt(self.ps_dbm)

    @property
    def noise_watt(self) -> float:
        return dbm_to_watt(self.noise_dbm)

    @property
    def pc_watt(self) -> float:
        return 0.0 if self.pc_dbm is None else dbm_to_watt(self.pc_dbm)

    @property
    def gamma_th(self) -> float:
        return 10.0 ** (self.gamma_th_db / 10.0)

    def digest(self) -> str:
        """Stable hash of the parameter set, equal for sets that compare equal:
        it hashes int(n_antennas) and float() of the rest (+ 0.0 maps -0.0 to 0.0)."""
        names = [f.name for f in fields(self)]
        values = [getattr(self, name) for name in names]
        values = [int(values[0])] + [None if v is None else float(v) + 0.0 for v in values[1:]]
        payload = ",".join(f"{name}={v!r}" for name, v in zip(names, values))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def from_config(cls, path: str | Path) -> "SystemParams":
        """Load from a flat key-value text file (key = value per line).

        Keys given override SystemParams' defaults, each once. n_antennas
        takes any integral number ("10" or "10.0"); pc_dbm = none (or
        empty) means no circuit power. A bad line, one without "=" among
        them, raises ValueError naming the file, the line and any key.
        """
        values: dict[str, object] = {}
        lines: dict[str, int] = {}
        known = {f.name for f in fields(cls)}
        for num, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}, line {num}"
            key, eq, val = line.partition("=")
            if not eq:
                raise ValueError(f"config line {line!r} is not 'key = value' ({where})")
            key = key.strip()
            val = val.strip()
            if key not in known:
                raise ValueError(f"unknown config key {key!r} ({where})")
            if key in lines:
                raise ValueError(f"config key {key!r} given twice ({path}, lines "
                                 f"{lines[key]} and {num})")
            lines[key] = num
            if key == "pc_dbm" and val.lower() in ("", "none"):
                values[key] = None
                continue
            try:
                number = float(val)
            except ValueError:
                raise ValueError(f"config key {key!r}: {val!r} is not a number "
                                 f"({where})") from None
            if key == "n_antennas":
                if not number.is_integer():
                    raise ValueError(f"n_antennas must be an integer, got {val!r} ({where})")
                number = int(number)
            values[key] = number
        return cls(**values)


@dataclass(frozen=True)
class BranchConstants:
    """SNR coefficients of the three branches for one (params, tau) pair:
    gamma = a1 ||h1||^4 (direct), b1 ||h1||^2 |h3|^2 (user->relay) and
    c1 |h1^H h2|^2 ||h2||^2 / ||h1||^2 (relay->AP) for the user beam."""

    n_antennas: int
    a1: float
    b1: float
    c1: float


def branch_constants(params: SystemParams, tau: float) -> BranchConstants:
    """The one source of the tau-dependent SNR coefficients: 2 eta tau rho / (1 - tau)
    over the path losses of each branch."""
    _check_tau(tau)
    scale = 2.0 * params.eta * tau * params.rho / (1.0 - tau)
    d1a = params.d1 ** params.alpha
    return BranchConstants(
        n_antennas=params.n_antennas,
        a1=scale / d1a ** 2,
        b1=scale / (d1a * params.d3 ** params.alpha),
        c1=scale / params.d2 ** (2 * params.alpha),
    )


@dataclass(frozen=True)
class ChannelState:
    """One block-fading realization: h1 user->AP, h2 relay->AP, h3 user->relay."""

    h1: np.ndarray
    h2: np.ndarray
    h3: complex

    def __post_init__(self) -> None:
        if self.h1.shape != self.h2.shape or self.h1.ndim != 1:
            raise ValueError("h1 and h2 must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(self.h1)) and np.all(np.isfinite(self.h2))
                and np.isfinite(self.h3)):
            raise ValueError("channel entries must be finite")


def cell_constants(params: SystemParams) -> tuple[float, float, float, float, float]:
    """The scenario constants of ChannelDecomposition for one cell: a1, b1, c1
    of branch_constants at tau = 0.5 (k = 1) and the circuit needs need_u,
    need_r, pc d^alpha/(2 eta Ps) at d = d1, d2 (0 without circuit power)."""
    bc = branch_constants(params, 0.5)
    need = params.pc_watt / (2.0 * params.eta * params.ps_watt)
    return bc.a1, bc.b1, bc.c1, need * params.d1 ** params.alpha, need * params.d2 ** params.alpha


def _draws(need) -> bool:
    """Whether a need of ChannelDecomposition takes power off: a float other
    than 0, or an array, which a stack holds only when every lane draws."""
    return isinstance(need, np.ndarray) or need != 0.0


@dataclass(frozen=True)
class ChannelDecomposition:
    """Per-lane coefficients of the end-to-end SNR, built once per block: at
    k = tau/(1 - tau), gamma = a0 pu + xu xr/(xu + xr + 1) with xu = c0 pu,
    xr = d0 pr and the powers left over the circuit draw pu = (g1 k - need_u)+,
    pr = (g2 k - need_r)+ (sysmodel.coefficient_snr). a, b, c: LinkStats'
    projection scalars; a0, c0, d0: cell_constants' a1, b1, c1 times
    ||h1||^2, |h3|^2, ||h2||^2; need_u, need_r: cell_constants' needs.

    A lane is a trial under one cell's constants. stack gives a block's
    trials under each cell of a stack. With more than one cell, a0, c0, d0
    hold every lane, one row per cell, a, b, c are the block's rows and each
    need a column, or the float 0.0 when no cell of the stack draws it: a
    stack's cells draw all or none of each need, so that _draws is one test
    for the whole stack. The fields broadcast to a0's shape. A stack of one
    cell is of's decomposition: the needs are floats and the arrays the
    block's shape. flat lays the lanes on one axis, cell by cell, and
    indexing picks lanes of flat.
    """

    a: float
    b: float
    c: float
    a0: float
    c0: float
    d0: float
    need_u: float = 0.0
    need_r: float = 0.0

    @classmethod
    def of(cls, params: SystemParams, link: LinkStats) -> "ChannelDecomposition":
        """Coefficients of every trial of link under params: a stack of one."""
        return cls.stack(np.array([cell_constants(params)]), link)

    @classmethod
    def stack(cls, consts: np.ndarray, link: "LinkStats") -> "ChannelDecomposition":
        """Coefficients of every trial of link under each cell of a stack,
        whose consts hold one row of cell_constants per cell. A need column
        must be 0 in every row or in none."""
        # columns, one row per cell; a lone cell's are floats
        a1, b1, c1, need_u, need_r = consts.T[:, :, None] if len(consts) > 1 else consts[0]
        return cls(a=link.a, b=link.b, c=link.c, a0=a1 * link.n1_sq, c0=b1 * link.h3_sq,
                   d0=c1 * link.n2_sq, need_u=need_u if consts[0, 3] else 0.0,
                   need_r=need_r if consts[0, 4] else 0.0)

    def flat(self) -> "ChannelDecomposition":
        """The same lanes on one axis, every array field holding all of them."""
        if getattr(self.a0, "ndim", 0) < 2:
            return self
        shape = self.a0.shape
        return ChannelDecomposition(*(np.broadcast_to(v, shape).ravel() if np.ndim(v) else v
                                      for v in vars(self).values()))

    def __getitem__(self, index) -> "ChannelDecomposition":
        d = self.flat()
        need_u = d.need_u[index] if isinstance(d.need_u, np.ndarray) else d.need_u
        need_r = d.need_r[index] if isinstance(d.need_r, np.ndarray) else d.need_r
        return ChannelDecomposition(d.a[index], d.b[index], d.c[index], d.a0[index],
                                    d.c0[index], d.d0[index], need_u, need_r)


def _row_sq_norms(h: np.ndarray) -> np.ndarray:
    """Squared norm of each row of h: the sum of its squared real and imaginary parts."""
    v = np.ascontiguousarray(h, dtype=complex).view(float)
    return np.einsum("ij,ij->i", v, v)


@dataclass(frozen=True)
class LinkStats:
    """Per-trial channel statistics of a block of trials.

    Every beam design and the end-to-end SNR see a channel only through
    n1_sq = ||h1||^2, h1^H h2 = a b e^(i phase), n2_sq = ||h2||^2 and
    h3_sq = |h3|^2, plus the projection scalars a = ||h1||, b = |h1^H h2|/a
    and c, the norm of the part of h2 perpendicular to h1. The complex
    h1^H h2 is kept as its phase; the property inner builds it for the few
    callers that read it. ok is False where the channel is degenerate: h1
    vanishes (or is not a number). from_block takes c as the norm of
    h2 - h1 (h1^H h2)/||h1||^2, not from the radicand ||h2||^2 - b^2, which
    loses a small c to rounding; c is zeroed at or below _PERP_TOL times
    max(||h2||, 1), and build_beamformer's parallel-only case is c == 0.
    sample_link_blocks draws the fields directly, with c = sqrt(s) exactly.
    Indexing applies the index to every field.
    """

    n1_sq: np.ndarray
    phase: np.ndarray
    n2_sq: np.ndarray
    h3_sq: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    ok: np.ndarray

    @property
    def inner(self) -> np.ndarray:
        """h1^H h2 of each trial: a b e^(i phase)."""
        return self.a * self.b * np.exp(1j * self.phase)

    @classmethod
    def from_block(cls, h1: np.ndarray, h2: np.ndarray, h3: np.ndarray) -> "LinkStats":
        """Statistics of trials given as rows of h1, h2 and entries of h3."""
        n1_sq = _row_sq_norms(h1)
        inner = np.einsum("ij,ij->i", np.conj(h1), h2)
        n2_sq = _row_sq_norms(h2)
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.sqrt(n1_sq)
            b = np.abs(inner) / a
            c = np.sqrt(_row_sq_norms(h2 - h1 * (inner / n1_sq)[:, None]))
            c[c <= _PERP_TOL * np.maximum(np.sqrt(n2_sq), 1.0)] = 0.0
        return cls(n1_sq=n1_sq, phase=np.angle(inner), n2_sq=n2_sq, h3_sq=np.abs(h3) ** 2,
                   a=a, b=b, c=c, ok=n1_sq > 0.0)

    @classmethod
    def of(cls, ch: "ChannelState") -> "LinkStats":
        """A block of one trial; raises if the channel is degenerate."""
        link = cls.from_block(ch.h1[None, :], ch.h2[None, :], np.array([ch.h3]))
        if not link.ok[0]:
            raise DegenerateChannelError("h1 vanishes; no beam direction exists")
        return link

    def __len__(self) -> int:
        return len(self.n1_sq)

    def __getitem__(self, index) -> "LinkStats":
        return LinkStats(**{f.name: getattr(self, f.name)[index] for f in fields(self)})


def _stream(master_seed: int, region: int, start: int, words: int) -> Generator:
    """The PCG64DXSM stream seeded by SeedSequence(master_seed,
    spawn_key=(region,)), advanced to trial start. Trial t reads words
    [t * words, (t + 1) * words) of it, one word per uniform in [0, 1), so
    its uniforms are the same whichever range asks for them."""
    bg = PCG64DXSM(SeedSequence(master_seed, spawn_key=(region,)))
    bg.advance(start * words)
    return Generator(bg)


def _normals_in_place(z: np.ndarray) -> None:
    """Turn uniforms into normals of variance 1/2 (the parts of a CN(0, 1)
    draw): clip, inverse CDF and scale, all on z's own buffer."""
    from scipy.special import ndtri  # not on import: Monte Carlo builds no channel vector

    np.clip(z, 2.0 ** -55, 1.0 - 2.0 ** -53, out=z)
    ndtri(z, out=z)
    z *= 1.0 / math.sqrt(2.0)


def _exp_sums(f: np.ndarray) -> np.ndarray:
    """The sum over each row of f, whose entries lie in [2**-53, 1], of the
    Exp(1) draws -log f: -log of the row's product, taken in column order,
    with one log per _LOG_SPAN factors so that no product leaves the normal
    floats; each product is logged and taken off the sum in its own buffer.
    The sum starts at 0.0, so a row of ones, or of no entries, is +0.0."""
    total = 0.0
    for lo in range(0, f.shape[1], _LOG_SPAN):
        hi = min(lo + _LOG_SPAN, f.shape[1])
        p = f[:, lo].copy() if hi - lo == 1 else f[:, lo] * f[:, lo + 1]
        for j in range(lo + 2, hi):
            p *= f[:, j]
        total = np.subtract(total, np.log(p, out=p), out=p)
    return total if f.shape[1] else np.zeros(len(f))


def sample_link_blocks(n_antennas: int, master_seed: int, start: int, stop: int,
                       size: int) -> Iterator[LinkStats]:
    """Channel statistics of trials [start, stop) of a seekable stream, in
    blocks of `size` trials, from one seeding and one buffer (each block's
    fields are its own arrays); arguments are checked as block one is drawn.

    A Rayleigh channel reaches the designs and the SNR only through
    LinkStats, whose fields are drawn directly, by rotational invariance:
    ||h1||^2 ~ Gamma(N); h1^H h2 = a u with u ~ CN(0, 1) the part of h2
    along h1; ||h2||^2 = |u|^2 + s with s ~ Gamma(N - 1) the rest of h2;
    |h3|^2 ~ Exp(1). Trial t reads its own 2N + 2 words of the PCG64DXSM
    stream of master_seed's region 0 (_stream). With f = 1 - U, exact
    for these uniforms, -log f is an Exp(1) draw: ||h1||^2 and s are -log
    of the products of the first N and the next N - 1 words' f (_exp_sums),
    |h3|^2 = -log f of word 2N - 1 and |u|^2, itself Exp(1), -log f of word
    2N, so b = sqrt(|u|^2); u's phase is 2 pi U - pi of the last word. Any
    chunking of the trial range reproduces the same bits. The
    perpendicular scalar is c = sqrt(s) exactly, with no radicand; ok is
    False only where ||h1||^2 is 0. The statistics depend on no scenario
    constant but the antenna count N.
    """
    if not _is_int(n_antennas) or n_antennas < 1:
        raise ValueError(f"n_antennas must be an int >= 1, got {n_antennas!r}")
    _check_seed(master_seed)
    # advance wraps its argument mod 2**128 without an error; stop <= 2**64
    # keeps the word offsets of distinct trials apart for any N < 2**62
    if not (_is_int(start) and _is_int(stop) and 0 <= start < stop <= 2 ** 64):
        raise ValueError(f"trials need ints 0 <= start < stop <= 2**64, got "
                         f"[{start!r}, {stop!r})")
    n, start, stop = int(n_antennas), int(start), int(stop)  # numpy ints overflow in the offsets
    gen = _stream(master_seed, 0, start, 2 * n + 2)
    buf = np.empty((min(size, stop - start), 2 * n + 2))
    for first in range(start, stop, size):
        z = gen.random(out=buf[:min(size, stop - first)])
        phase = z[:, 2 * n + 1] * (2.0 * math.pi) - math.pi
        f = np.subtract(1.0, z, out=z)  # the whole buffer: one contiguous pass
        n1_sq, s, h3_sq, u_sq = (_exp_sums(f[:, lo:hi]) for lo, hi in (
            (0, n), (n, 2 * n - 1), (2 * n - 1, 2 * n), (2 * n, 2 * n + 1)))
        yield LinkStats(n1_sq=n1_sq, phase=phase, n2_sq=u_sq + s, h3_sq=h3_sq,
                        a=np.sqrt(n1_sq), b=np.sqrt(u_sq), c=np.sqrt(s), ok=n1_sq > 0.0)


def sample_link_block(n_antennas: int, master_seed: int, start: int, stop: int) -> LinkStats:
    """Channel statistics of trials [start, stop): sample_link_blocks' one block."""
    return next(sample_link_blocks(n_antennas, master_seed, start, stop, 2 ** 64))


def sample_channel_block(params: SystemParams, master_seed: int, start: int, stop: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channels (h1, h2, h3) for trials [start, stop) of a seekable stream.

    The statistics are those of sample_link_block; the vectors put them
    on a Haar-random orthonormal pair (v1, v2) and phase theta drawn from
    region 1 (4N + 2 words per trial, an even count for the complex view:
    two CN(0, I) vectors that Gram-Schmidt makes orthonormal, one uniform
    and one unused word): h1 = a v1,
    h2 = u v1 + c v2 and h3 = |h3| e^(i theta), with u = b e^(i phase). So
    every entry is CN(0, 1), independent of the others, and
    LinkStats.from_block of the vectors gives back the statistics up to
    rounding. Any chunking of the trial range reproduces the same bits.
    """
    link = sample_link_block(params.n_antennas, master_seed, start, stop)
    start, stop = int(start), int(stop)
    n = params.n_antennas
    g = _stream(master_seed, 1, start, 4 * n + 2).random((stop - start) * (4 * n + 2))
    g = g.reshape(stop - start, 4 * n + 2)
    h3 = np.sqrt(link.h3_sq) * np.exp(2j * math.pi * g[:, 4 * n])
    _normals_in_place(g)
    h1, h2 = g.view(complex)[:, :n], g.view(complex)[:, n:2 * n]  # made into h1, h2 in place
    h1 /= np.sqrt(_row_sq_norms(h1))[:, None]  # v1
    if n > 1:
        h2 -= h1 * np.einsum("ij,ij->i", np.conj(h1), h2)[:, None]
        h2 *= (link.c / np.sqrt(_row_sq_norms(h2)))[:, None]  # c v2
    else:
        h2[:] = 0.0  # c = 0: no perpendicular direction
    h2 += h1 * (link.b * np.exp(1j * link.phase))[:, None]  # u v1
    h1 *= link.a[:, None]
    return h1, h2, h3


def sample_channel(params: SystemParams, seed: int, trial: int = 0) -> ChannelState:
    """Channel of trial `trial` of the stream keyed by seed: one row of
    sample_channel_block(params, seed, trial, trial + 1)."""
    h1, h2, h3 = sample_channel_block(params, seed, trial, trial + 1)
    return ChannelState(h1=h1[0], h2=h2[0], h3=complex(h3[0]))


def build_beamformer(ch: ChannelState, x_bar: float) -> np.ndarray:
    """Unit-norm beam mixing the h1-parallel and h1-perpendicular directions.

    x_bar = 1 is the pure user-directed (MRT) direction, x_bar = 0 the
    zero-leakage direction toward the relay. When the perpendicular
    component vanishes only the parallel direction exists and is returned.
    """
    if not (0.0 <= x_bar <= 1.0):
        raise ValueError(f"x_bar must lie in [0, 1], got {x_bar}")
    link = LinkStats.of(ch)[0]
    par = np.conj(ch.h1) * np.conj(link.inner) / link.n1_sq  # component of h2* along h1*
    u_par = np.conj(ch.h1) / link.a if link.b < 1e-300 else par / link.b
    if link.c == 0.0:
        return u_par
    perp = np.conj(ch.h2) - par
    return x_bar * u_par + math.sqrt(max(0.0, 1.0 - x_bar * x_bar)) * perp / np.linalg.norm(perp)
