import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Philox
from scipy.special import ndtri
from scipy.stats import ks_2samp, kstest

from wprelay.channel import (DEFAULT_NOISE_DBM, ChannelDecomposition, ChannelState,
                             DegenerateChannelError, LinkStats, SystemParams,
                             branch_constants, build_beamformer, dbm_to_watt,
                             sample_channel, sample_channel_block, sample_link_block)

PARAMS = SystemParams(n_antennas=6, d1=20.0, d2=15.0, d3=15.0, ps_dbm=40.0)


def test_default_noise_matches_20mhz_band():
    assert DEFAULT_NOISE_DBM == pytest.approx(-174.0 + 10 * math.log10(20e6))


def test_dbm_conversion():
    assert dbm_to_watt(30.0) == pytest.approx(1.0)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n_antennas=0, d1=1, d2=1, d3=1)
    with pytest.raises(ValueError):
        SystemParams(n_antennas=2, d1=-1, d2=1, d3=1)
    with pytest.raises(ValueError):
        SystemParams(n_antennas=2, d1=1, d2=1, d3=1, alpha=1.5)
    with pytest.raises(ValueError):
        SystemParams(n_antennas=2, d1=1, d2=1, d3=1, eta=0.0)


@pytest.mark.parametrize("field, value", [
    ("n_antennas", 2.5), ("n_antennas", 2.0), ("n_antennas", True),
    ("ps_dbm", math.nan), ("d1", math.nan), ("d3", math.inf), ("alpha", math.nan),
    ("eta", math.nan), ("noise_dbm", -math.inf), ("gamma_th_db", math.nan),
    ("pc_dbm", math.inf),
])
def test_params_reject_non_integer_antennas_and_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=field):
        SystemParams(**{"n_antennas": 2, "d1": 1.0, "d2": 1.0, "d3": 1.0, field: value})


def test_params_linear_properties():
    assert PARAMS.rho == pytest.approx(10 ** ((40.0 - PARAMS.noise_dbm) / 10))
    assert PARAMS.gamma_th == pytest.approx(1.0)
    assert PARAMS.pc_watt == 0.0
    p = SystemParams(n_antennas=2, d1=1, d2=1, d3=1, pc_dbm=-30.0)
    assert p.pc_watt == pytest.approx(1e-6)


def test_digest_stable_and_sensitive():
    twin = SystemParams(n_antennas=6, d1=20.0, d2=15.0, d3=15.0, ps_dbm=40.0)
    assert PARAMS.digest() == twin.digest()
    other = SystemParams(n_antennas=6, d1=20.0, d2=15.0, d3=15.0, ps_dbm=41.0)
    assert PARAMS.digest() != other.digest()


def test_digest_equal_for_equal_parameter_sets():
    canonical = SystemParams(n_antennas=10, d1=20.0, d2=15.0, d3=15.0)
    variants = [SystemParams(n_antennas=10, d1=20, d2=15, d3=15),
                SystemParams(n_antennas=np.int64(10), d1=20.0, d2=15.0, d3=15.0),
                SystemParams(n_antennas=10, d1=np.float64(20.0), d2=15.0, d3=15.0,
                             gamma_th_db=-0.0)]
    assert all(v == canonical for v in variants)
    # an already canonical set keeps the digest it always had
    assert canonical.digest() == "4722fa42b872255e"
    assert {v.digest() for v in variants} == {"4722fa42b872255e"}


def _spellings(v) -> list:
    """Values equal to v as int, float, numpy scalar and signed zero."""
    out = [float(v), np.float64(v)]
    if float(v).is_integer():
        out += [int(v), np.int64(int(v))]
    if v == 0:
        out += [-0.0, np.float64(-0.0)]
    return out


@st.composite
def _equal_params(draw):
    """Two SystemParams with the same values, each field spelled independently."""
    finite = st.integers(-200, 200) | st.floats(-200.0, 200.0)
    values = {"n_antennas": draw(st.integers(1, 400)),
              "d1": draw(st.integers(1, 100) | st.floats(1e-3, 1e3)),
              "d2": draw(st.integers(1, 100) | st.floats(1e-3, 1e3)),
              "d3": draw(st.integers(1, 100) | st.floats(1e-3, 1e3)),
              "alpha": draw(st.integers(2, 6) | st.floats(2.0, 6.0)),
              "eta": draw(st.just(1) | st.floats(1e-3, 1.0)),
              "ps_dbm": draw(finite), "noise_dbm": draw(finite),
              "gamma_th_db": draw(finite), "pc_dbm": draw(st.none() | finite)}

    def spelled():
        out = {"n_antennas": draw(st.sampled_from(
            [int, np.int64, np.int32, np.uint16]))(values["n_antennas"])}
        for name, v in values.items():
            if name != "n_antennas":
                out[name] = None if v is None else draw(st.sampled_from(_spellings(v)))
        return SystemParams(**out)

    return spelled(), spelled()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(pair=_equal_params())
def test_equal_parameter_sets_have_equal_digests(pair):
    a, b = pair
    assert a == b
    assert a.digest() == b.digest()


def test_from_config_roundtrip(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("# comment\nn_antennas = 4\nd1 = 10\nd2 = 5\nd3 = 5\n"
                   "ps_dbm = 30\npc_dbm = none\n")
    p = SystemParams.from_config(cfg)
    assert p.n_antennas == 4 and p.d1 == 10.0 and p.pc_dbm is None
    q = SystemParams.from_config(cfg, ps_dbm=20.0)
    assert q.ps_dbm == 20.0


def test_from_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_antennas = 4\nbandwidth = 20\n")
    with pytest.raises(ValueError, match="bandwidth"):
        SystemParams.from_config(cfg)


def test_from_config_names_key_file_and_line_of_a_bad_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_antennas = 4\nps_dbm = forty\n")
    with pytest.raises(ValueError, match=r"'ps_dbm'.*bad\.cfg, line 2"):
        SystemParams.from_config(cfg)


def test_from_config_rejects_a_line_without_equals(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("d1 = 20\nn_antennas 4\nd2 = 15\nd3 = 15\n")
    with pytest.raises(ValueError, match=r"'n_antennas 4'.*bad\.cfg, line 2"):
        SystemParams.from_config(cfg)


def test_from_config_takes_an_integral_antenna_count(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("n_antennas = 10.0\nd1 = 20\nd2 = 15\nd3 = 15\n")
    p = SystemParams.from_config(cfg)
    assert p.n_antennas == 10 and type(p.n_antennas) is int
    cfg.write_text("n_antennas = 10.5\nd1 = 20\nd2 = 15\nd3 = 15\n")
    with pytest.raises(ValueError, match=r"n_antennas.*line 1"):
        SystemParams.from_config(cfg)


def test_from_config_rejects_a_repeated_key(tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("n_antennas = 4\nd1 = 20\nd2 = 15\nd1 = 30\nd3 = 15\n")
    with pytest.raises(ValueError, match=r"'d1'.*lines 2 and 4"):
        SystemParams.from_config(cfg)


def test_sample_channel_statistics():
    h1 = np.array([sample_channel(PARAMS, 0, k).h1 for k in range(4000)])
    assert abs(h1.mean()) < 0.02
    assert np.var(h1.real) == pytest.approx(0.5, abs=0.02)
    assert np.var(h1.imag) == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("n", [1, 6])
def test_sample_channel_is_a_row_of_the_block(n):
    params = SystemParams(n_antennas=n, d1=20.0, d2=15.0, d3=15.0)
    h1, h2, h3 = sample_channel_block(params, 11, 0, 200)
    for t in (0, 1, 137):
        ch = sample_channel(params, 11, t)
        assert np.array_equal(ch.h1, h1[t]) and np.array_equal(ch.h2, h2[t])
        assert ch.h3 == h3[t]
    assert np.array_equal(sample_channel(params, 11).h1, h1[0])


def test_block_sampling_chunk_invariant():
    full = sample_channel_block(PARAMS, 123, 0, 500)
    for start, stop in [(0, 100), (100, 350), (350, 500), (137, 138)]:
        part = sample_channel_block(PARAMS, 123, start, stop)
        for a, b in zip(full, part):
            assert np.array_equal(a[start:stop], b)


def _trials_from_raw_philox(n, seed, start, stop):
    """Trials [start, stop) of the entry-by-entry layout that the vector
    sampler used before the statistics were drawn directly (4N + 2 normals
    a trial), rebuilt from raw Philox words by an out-of-place expression. The words are read from the first trial of
    start's 4096-trial block on, so a range may start mid-way through them."""
    draws = 4 * n + 2
    words = -4 * (-draws // 4)
    origin = start - start % 4096
    raw = Philox(key=seed, counter=origin * words // 4).random_raw((stop - origin) * words)
    u = ((raw >> 11) * 2.0 ** -53).reshape(-1, words)[start - origin:, :draws]
    z = ndtri(np.clip(u, 2.0 ** -55, 1.0 - 2.0 ** -53))
    inv = 1.0 / math.sqrt(2.0)
    return ((z[:, 0:n] + 1j * z[:, n:2 * n]) * inv,
            (z[:, 2 * n:3 * n] + 1j * z[:, 3 * n:4 * n]) * inv,
            (z[:, 4 * n] + 1j * z[:, 4 * n + 1]) * inv)


def _stats_from_raw_philox(n, seed, start, stop):
    """sample_link_block's fields of trials [start, stop) rebuilt from raw
    Philox words (2N + 2 a trial, rounded up to 4) with out-of-place
    expressions. The words are read from the first trial of start's
    4096-trial block on, so a range may start mid-way through them."""
    words = -4 * (-(2 * n + 2) // 4)
    origin = start - start % 4096
    raw = Philox(key=seed, counter=origin * words // 4).random_raw((stop - origin) * words)
    w = ((raw >> 11) * 2.0 ** -53).reshape(-1, words)[start - origin:]
    e = -np.log1p(-w[:, :2 * n])
    n1_sq, s = e[:, :n].sum(axis=1), e[:, n:2 * n - 1].sum(axis=1)
    z = ndtri(np.clip(w[:, 2 * n:2 * n + 2], 2.0 ** -55, 1.0 - 2.0 ** -53)) * (1.0 / math.sqrt(2.0))
    u = z[:, 0] + 1j * z[:, 1]
    a = np.sqrt(n1_sq)
    return {"n1_sq": n1_sq, "inner": a * u, "n2_sq": np.abs(u) ** 2 + s, "h3_sq": e[:, 2 * n - 1],
            "a": a, "b": np.abs(u), "c": np.sqrt(s), "ok": n1_sq > 0.0}


@pytest.mark.parametrize("n", [1, 2, 10])
def test_block_sampling_matches_raw_philox_words(n):
    # pins the stream bit for bit: [4090, 4103) crosses a 4096-trial
    # boundary, [4101, 4107) starts mid-way through its block's words, and
    # the last range starts where the low word of the Philox counter carries
    words = -4 * (-(2 * n + 2) // 4)
    carry = 2 ** 64 // (words // 4) - 1
    for seed in (0, 123, 2 ** 128 - 1):
        for start, stop in [(0, 3), (4090, 4103), (4101, 4107), (carry, carry + 3)]:
            ref = _stats_from_raw_philox(n, seed, start, stop)
            got = sample_link_block(n, seed, start, stop)
            for name, a in ref.items():
                b = getattr(got, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (seed, start, stop, name)


def _in_pieces(sample, trials, piece=2 ** 15):
    """The fields of LinkStats sample(lo, hi) over trials [0, trials), drawn
    piece by piece to bound memory, joined in trial order."""
    parts = [sample(lo, min(lo + piece, trials)) for lo in range(0, trials, piece)]
    return LinkStats(**{f.name: np.concatenate([getattr(p, f.name) for p in parts])
                        for f in fields(LinkStats)})


def _laws(link):
    """Statistics of a Rayleigh link with known laws: ||h1||^2 and ||h2||^2
    ~ Gamma(N), |h1^H h2|^2/||h1||^2 and |h3|^2 ~ Exp(1), and the phase of
    h1^H h2 uniform on (-pi, pi]."""
    return {"n1_sq": link.n1_sq, "n2_sq": link.n2_sq,
            "|inner|^2/n1_sq": np.abs(link.inner) ** 2 / link.n1_sq, "h3_sq": link.h3_sq,
            "arg inner": np.angle(link.inner)}


@pytest.mark.parametrize("n", [1, 2, 10, 50])
def test_link_sampling_fits_the_rayleigh_laws(n):
    link = _in_pieces(lambda lo, hi: sample_link_block(n, 2026, lo, hi), 2 ** 20)
    assert link.ok.all()
    laws = {"n1_sq": ("gamma", (n,)), "n2_sq": ("gamma", (n,)),
            "|inner|^2/n1_sq": ("expon", ()), "h3_sq": ("expon", ()),
            "arg inner": ("uniform", (-math.pi, 2 * math.pi))}
    for name, values in _laws(link).items():
        law, args = laws[name]
        p = kstest(values, law, args=args).pvalue
        assert p >= 1e-4, (name, p)


@pytest.mark.parametrize("n", [1, 2, 10])
def test_link_sampling_matches_the_vector_sampler_in_law(n):
    # against the entry-by-entry layout the vector sampler used before,
    # rebuilt from raw words; the two seeds keep the samples independent
    old = _in_pieces(lambda lo, hi: LinkStats.from_block(*_trials_from_raw_philox(n, 11, lo, hi)),
                     2 ** 17)
    new = _in_pieces(lambda lo, hi: sample_link_block(n, 12, lo, hi), 2 ** 17)
    old_laws, new_laws = _laws(old), _laws(new)
    for name in old_laws:
        p = ks_2samp(old_laws[name], new_laws[name]).pvalue
        assert p >= 1e-4, (name, p)
    p = ks_2samp(old.c, new.c).pvalue
    assert p >= 1e-4, ("c", p)


@pytest.mark.parametrize("n", [1, 2, 10, 300])
def test_channel_vectors_give_back_the_link_statistics(n):
    # also where the low counter word carries, in the statistics' region
    # (2N + 2 words a trial, rounded up to 4) and in the vectors' (4N + 4)
    params = SystemParams(n_antennas=n, d1=20.0, d2=15.0, d3=15.0)
    carries = [2 ** 64 // (-(-(2 * n + 2) // 4)) - 1, 2 ** 64 // (n + 1) - 1]
    for start, stop in [(0, 2000)] + [(c - 2, c + 3) for c in carries]:
        want = sample_link_block(n, 5, start, stop)
        got = LinkStats.from_block(*sample_channel_block(params, 5, start, stop))
        assert np.array_equal(got.ok, want.ok) and want.ok.all()
        for f in fields(LinkStats)[:-1]:
            a, b = getattr(got, f.name), getattr(want, f.name)
            # from_block takes c from ||h2||^2 - b^2, so its rounding scales with ||h2||
            scale = np.sqrt(want.n2_sq) if f.name == "c" else np.abs(b)
            assert np.all(np.abs(a - b) <= 1e-12 * scale), (start, f.name)


def test_block_sampling_seed_sensitivity():
    a = sample_channel_block(PARAMS, 1, 0, 10)[0]
    b = sample_channel_block(PARAMS, 2, 0, 10)[0]
    assert not np.array_equal(a, b)


def test_block_sampling_statistics():
    h1, h2, h3 = sample_channel_block(PARAMS, 7, 0, 50000)
    for h in (h1.ravel(), h2.ravel(), h3):
        assert np.var(h.real) == pytest.approx(0.5, abs=0.01)
        assert np.var(h.imag) == pytest.approx(0.5, abs=0.01)
    with pytest.raises(ValueError):
        sample_channel_block(PARAMS, 7, 5, 5)


@pytest.mark.parametrize("seed", [1.5, 1.9, True, -1, 2 ** 128, "1", None])
def test_block_sampling_rejects_malformed_seed(seed):
    with pytest.raises(ValueError, match="master_seed"):
        sample_channel_block(PARAMS, seed, 0, 3)


@pytest.mark.parametrize("start, stop", [(0.0, 3), (0, 3.0), (False, 3), (-1, 3), (3, 3),
                                         (4, 3)])
def test_block_sampling_rejects_malformed_trial_range(start, stop):
    with pytest.raises(ValueError, match="start < stop"):
        sample_channel_block(PARAMS, 1, start, stop)


@pytest.mark.parametrize("n", [0, -1, 2.0, 2.5, True, "2", None])
def test_link_sampling_rejects_a_malformed_antenna_count(n):
    with pytest.raises(ValueError, match="n_antennas must be an int >= 1"):
        sample_link_block(n, 1, 0, 3)


def test_block_sampling_accepts_numpy_integers():
    a = sample_channel_block(PARAMS, np.uint64(3), np.int64(2), np.int32(5))
    b = sample_channel_block(PARAMS, 3, 2, 5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    # counter arithmetic past 2**64 overflows numpy integers; the vectors'
    # region (4N + 4 words a trial) carries its low counter word here
    carry = 2 ** 64 // (PARAMS.n_antennas + 1) - 1
    a = sample_link_block(np.int64(PARAMS.n_antennas), np.uint64(3), np.uint64(carry),
                          np.uint64(carry + 3))
    b = sample_link_block(PARAMS.n_antennas, 3, carry, carry + 3)
    assert all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(LinkStats))
    a = sample_channel_block(PARAMS, np.uint64(3), np.uint64(carry), np.uint64(carry + 3))
    b = sample_channel_block(PARAMS, 3, carry, carry + 3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_decompose_identities():
    costly = SystemParams(n_antennas=6, d1=20.0, d2=15.0, d3=15.0, ps_dbm=40.0, pc_dbm=-25.0)
    bc = branch_constants(PARAMS, 0.5)  # tau = 0.5 is k = 1
    for k in range(50):
        ch = sample_channel(PARAMS, 3, k)
        dec = ChannelDecomposition.of(PARAMS, LinkStats.of(ch)[0])
        assert dec.a == pytest.approx(np.linalg.norm(ch.h1), rel=1e-12)
        assert dec.b <= np.linalg.norm(ch.h2) + 1e-12
        assert math.hypot(dec.b, dec.c) == pytest.approx(np.linalg.norm(ch.h2),
                                                         rel=1e-12)
        assert dec.a0 == pytest.approx(bc.a1 * np.linalg.norm(ch.h1) ** 2, rel=1e-12)
        assert dec.c0 == pytest.approx(bc.b1 * abs(ch.h3) ** 2, rel=1e-12)
        assert dec.d0 == pytest.approx(bc.c1 * np.linalg.norm(ch.h2) ** 2, rel=1e-12)
        assert dec.need_u == dec.need_r == 0.0
    # the circuit draw in units of g k: 2 eta Ps need / d^alpha is pc in watts
    dec = ChannelDecomposition.of(costly, LinkStats.of(ch))
    for need, d in ((dec.need_u, costly.d1), (dec.need_r, costly.d2)):
        assert 2.0 * costly.eta * costly.ps_watt * need / d ** costly.alpha == pytest.approx(
            costly.pc_watt, rel=1e-12)


def test_beamformer_projection_scalars():
    for k, x_bar in enumerate((0.0, 0.25, 0.6, 1.0)):
        ch = sample_channel(PARAMS, 5, k)
        link = LinkStats.of(ch)[0]
        w = build_beamformer(ch, x_bar)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert abs(ch.h1 @ w) == pytest.approx(link.a * x_bar, abs=1e-10)
        proj = ch.h2 @ w
        expect = link.b * x_bar + link.c * math.sqrt(1 - x_bar ** 2)
        assert proj.real == pytest.approx(expect, rel=1e-10)
        assert abs(proj.imag) < 1e-10 * max(1.0, expect)


def test_beamformer_collinear_channel():
    h1 = np.array([1.0 + 0j, 2.0 - 1j, 0.5j])
    ch = ChannelState(h1=h1, h2=2.5 * h1, h3=0.3 + 0.1j)
    w = build_beamformer(ch, 0.2)  # no perpendicular direction exists
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert abs(ch.h1 @ w) == pytest.approx(np.linalg.norm(h1), rel=1e-12)


def test_beamformer_rejects_bad_inputs():
    ch = sample_channel(PARAMS, 6)
    with pytest.raises(ValueError):
        build_beamformer(ch, 1.5)
    zero = ChannelState(h1=np.zeros(3, complex), h2=np.ones(3, complex), h3=1j)
    with pytest.raises(DegenerateChannelError):
        build_beamformer(zero, 0.5)
    with pytest.raises(DegenerateChannelError):
        LinkStats.of(ChannelState(h1=np.zeros(6, complex), h2=np.ones(6, complex), h3=1j))


def test_channel_state_validation():
    with pytest.raises(ValueError):
        ChannelState(h1=np.ones(3, complex), h2=np.ones(4, complex), h3=0j)
    with pytest.raises(ValueError):
        ChannelState(h1=np.array([np.inf + 0j, 0j]), h2=np.ones(2, complex), h3=0j)
