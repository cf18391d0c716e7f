import math
import warnings
from dataclasses import fields, replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64DXSM, Philox, SeedSequence
from scipy.special import ndtri
from scipy.stats import ks_2samp, kstest

from wprelay.channel import (DEFAULT_NOISE_DBM, ChannelDecomposition, ChannelState,
                             DegenerateChannelError, LinkStats, SystemParams, _exp_sums,
                             branch_constants, build_beamformer, cell_constants,
                             dbm_to_watt, sample_channel, sample_channel_block,
                             sample_link_block, sample_link_blocks)

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


@pytest.mark.parametrize("given, name", [
    ({"ps_dbm": 3000.0}, "rho"), ({"noise_dbm": -3100.0}, "rho"),
    ({"noise_dbm": 3200.0}, "noise_watt"),
    ({"ps_dbm": 3200.0, "noise_dbm": 3200.0}, "ps_watt"), ({"pc_dbm": 3200.0}, "pc_watt"),
    ({"gamma_th_db": 3100.0}, "gamma_th"),
])
def test_params_reject_powers_whose_linear_value_overflows(given, name):
    # each dBm/dB field is finite, but 10^(value/10) leaves the float range
    with pytest.raises(ValueError, match=f"^{name} overflows a float at "):
        SystemParams(n_antennas=2, d1=1.0, d2=1.0, d3=1.0, **given)


def test_params_keep_large_powers_whose_linear_values_are_finite():
    p = SystemParams(n_antennas=2, d1=1.0, d2=1.0, d3=1.0, ps_dbm=2000.0, noise_dbm=-1000.0,
                     pc_dbm=3000.0, gamma_th_db=-3000.0)
    assert math.isfinite(p.rho) and math.isfinite(p.pc_watt) and p.gamma_th == 1e-300


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
    variants = [SystemParams(), SystemParams(n_antennas=10, d1=20, d2=15, d3=15),
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
    q = replace(SystemParams.from_config(cfg), ps_dbm=20.0)
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


def _stats_from_raw_pcg64dxsm(n, seed, start, stop):
    """sample_link_block's fields of trials [start, stop) rebuilt from raw
    PCG64DXSM words (2N + 2 a trial, of the stream seeded by
    SeedSequence(seed, spawn_key=(0,))) with out-of-place expressions. The
    words are read from the first trial of start's 4096-trial block on, so
    a range may start mid-way through them."""
    words = 2 * n + 2
    origin = start - start % 4096
    bg = PCG64DXSM(SeedSequence(seed, spawn_key=(0,)))
    bg.advance(origin * words)
    raw = bg.random_raw((stop - origin) * words)
    w = ((raw >> 11) * 2.0 ** -53).reshape(-1, words)[start - origin:]
    f = 1.0 - w

    def exp_sum(lo, hi):
        """-log of the product of each 16 columns of f in [lo, hi), summed in column order."""
        return sum((-np.log(np.prod(f[:, g:min(g + 16, hi)], axis=1)) for g in range(lo, hi, 16)),
                   np.zeros(len(f)))

    n1_sq, s, u_sq = exp_sum(0, n), exp_sum(n, 2 * n - 1), exp_sum(2 * n, 2 * n + 1)
    a = np.sqrt(n1_sq)
    return {"n1_sq": n1_sq, "phase": 2.0 * math.pi * w[:, 2 * n + 1] - math.pi,
            "n2_sq": u_sq + s, "h3_sq": exp_sum(2 * n - 1, 2 * n), "a": a, "b": np.sqrt(u_sq),
            "c": np.sqrt(s), "ok": n1_sq > 0.0}


@pytest.mark.parametrize("n", [1, 2, 10])
def test_block_sampling_matches_raw_pcg64dxsm_words(n):
    # pins the stream bit for bit: [4090, 4103) crosses a 4096-trial
    # boundary, [4101, 4107) starts mid-way through its block's words, the
    # word offsets start * (2N + 2) of the next range cross 2**64, and the
    # last range ends at the last trial a stream has
    cross = -(-2 ** 64 // (2 * n + 2))
    for seed in (0, 123, 2 ** 128 - 1):
        for start, stop in [(0, 3), (4090, 4103), (4101, 4107), (cross - 2, cross + 2),
                            (2 ** 64 - 3, 2 ** 64)]:
            ref = _stats_from_raw_pcg64dxsm(n, seed, start, stop)
            got = sample_link_block(n, seed, start, stop)
            for name, a in ref.items():
                b = getattr(got, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (seed, start, stop, name)


def _hex(values):
    """float.hex of each float in values, real then imaginary part of each complex entry."""
    return [x.hex() for x in np.ascontiguousarray(values).view(float).ravel().tolist()]


def test_the_stream_is_pinned_by_literals():
    # the raw-word oracle above moves with numpy's generator and with its log
    # and exp; these values change if a numpy upgrade or a refactor shifts
    # the stream
    link = sample_link_block(2, 7, 0, 3)
    assert _hex(link.n1_sq) == ["0x1.b16c533aa2886p-1", "0x1.68f2471927d0fp+1",
                                "0x1.16a114a6c0b48p-1"]
    assert _hex(link.phase) == ["-0x1.78fb33691ccc4p+1", "-0x1.498f25915c870p-1",
                                "-0x1.2d136db549940p-5"]
    assert _hex(link.inner) == ["-0x1.304d2a61bf90cp+0", "-0x1.e46df9ad146afp-3",
                                "0x1.6891bbd607f69p-2", "-0x1.0e85b2ad84f72p-2",
                                "0x1.726f745f5beffp+0", "-0x1.b3db6702ad52dp-5"]
    assert _hex(link.h3_sq) == ["0x1.15d0e7bee58f9p+0", "0x1.73f70ff03f6d9p-1",
                                "0x1.06b78f463c53dp+2"]
    link = sample_link_block(10, 7, 4095, 4097)  # across a 4096-trial boundary
    assert _hex(link.n2_sq) == ["0x1.254841d268bc2p+4", "0x1.46cfa6b0b8d5fp+3"]
    assert _hex(link.inner) == ["-0x1.0d336b5794522p+1", "-0x1.0ba1f76e8e20cp+0",
                                "0x1.3e9f369cd78d7p+1", "-0x1.dd43f8d610265p+0"]
    ch = sample_channel(PARAMS, 7, 0)
    assert _hex(ch.h1[:2]) == ["-0x1.c8f761576ddb0p-6", "0x1.074a8a44ee46bp-2",
                               "-0x1.416e1f91d9532p-1", "-0x1.ec7f3fb8fbed2p-2"]
    assert _hex(ch.h2[:1]) == ["-0x1.6562ad587c10fp+0", "0x1.744de9982cad8p-2"]
    assert _hex(np.array([ch.h3])) == ["-0x1.fdc30918eaa12p-2", "0x1.0489d4823480bp-1"]


@pytest.mark.parametrize("n", [1, 2, 10, 50, 300])
def test_exp_sums_match_an_exact_sum_of_log1p_draws(n):
    # ||h1||^2 and s as -log of products of f = 1 - U, against math.fsum of
    # the Exp(1) draws -log1p(-U) of the same raw words
    words, count = 2 * n + 2, 2000
    bg = PCG64DXSM(SeedSequence(31, spawn_key=(0,)))
    w = ((bg.random_raw(count * words) >> 11) * 2.0 ** -53).reshape(count, words)
    eps = np.finfo(float).eps
    for cols in (slice(0, n), slice(n, 2 * n - 1)):
        got = _exp_sums(1.0 - w[:, cols])
        want = np.array([math.fsum(row) for row in -np.log1p(-w[:, cols])])
        assert np.all(np.abs(got - want) <= 4 * eps * np.maximum(want, 1.0)), (n, cols)
    assert np.array_equal(sample_link_block(n, 31, 0, count).n1_sq, _exp_sums(1.0 - w[:, :n]))


def test_exp_sums_keep_every_product_a_normal_float():
    # 300 factors of 2**-53 multiply to 2**-15900: a product of 20 of them is
    # subnormal, and one of 21 or more is 0, whose log is -inf
    f = np.full((1, 300), 2.0 ** -53)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _exp_sums(f)
    assert np.isfinite(got).all()
    assert got[0] == pytest.approx(300 * 53 * math.log(2.0), rel=4 * np.finfo(float).eps)


def test_exp_sums_keep_the_sign_of_zero():
    # a row of ones, one of no entries and one of one entry: each sums to +0.0
    for f in (np.ones((3, 2)), np.ones((3, 0)), np.ones((3, 1))):
        got = _exp_sums(f)
        assert got.tobytes() == np.zeros(3).tobytes(), f.shape


@pytest.mark.parametrize("n", [1, 2, 10])
def test_block_iterator_matches_one_block_calls(n):
    # blocks of 4096 from an odd start, across the trial 32768 at which Monte
    # Carlo's default chunks start a new generator, and a short last block:
    # each equals the one-block call on its range, byte for byte
    start, stop, size = 32768 - 2 * 4096 + 3, 32768 + 4096 + 11, 4096
    firsts = range(start, stop, size)
    blocks = list(sample_link_blocks(n, 9, start, stop, size))
    assert [len(link) for link in blocks] == [min(size, stop - lo) for lo in firsts]
    for lo, got in zip(firsts, blocks):
        want = sample_link_block(n, 9, lo, min(lo + size, stop))
        for f in fields(LinkStats):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (lo, f.name)
        if n == 1:  # s = 0, no part of h2 is perpendicular to h1: c = sqrt(s) is +0.0
            assert not got.c.any() and not np.signbit(got.c).any()


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
    if n == 1:  # no part of h2 is perpendicular to h1
        assert np.all(link.c == 0.0)
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
    # also where the word offsets cross 2**64, in the statistics' stream
    # (2N + 2 words a trial) and in the vectors' (4N + 2), and at the last
    # trial a stream has
    params = SystemParams(n_antennas=n, d1=20.0, d2=15.0, d3=15.0)
    crossings = [-(-2 ** 64 // (2 * n + 2)), -(-2 ** 64 // (4 * n + 2))]
    for start, stop in ([(0, 2000)] + [(c - 2, c + 3) for c in crossings]
                        + [(2 ** 64 - 3, 2 ** 64)]):
        want = sample_link_block(n, 5, start, stop)
        got = LinkStats.from_block(*sample_channel_block(params, 5, start, stop))
        assert np.array_equal(got.ok, want.ok) and want.ok.all()
        for name in [f.name for f in fields(LinkStats)[:-1] if f.name != "phase"] + ["inner"]:
            a, b = getattr(got, name), getattr(want, name)
            # from_block takes c from the perpendicular part of h2, whose rounding scales
            # with ||h2||
            scale = np.sqrt(want.n2_sq) if name == "c" else np.abs(b)
            assert np.all(np.abs(a - b) <= 1e-12 * scale), (start, name)
        # the phase wraps at pi and is near 0 on some rows, so no bound relative to it
        dphase = np.angle(np.exp(1j * (got.phase - want.phase)))
        assert np.all(np.abs(dphase) <= 1e-12), (start, "phase")


def _row_norms(h: np.ndarray) -> np.ndarray:
    return np.linalg.norm(h, axis=1)


def _perp_norm_oracle(h1: np.ndarray, h2: np.ndarray) -> float:
    """||h2 - h1 (h1^H h2)/||h1||^2|| of the given doubles, in 50 digits."""
    with mp.workdps(50):
        u = [mp.mpc(complex(v)) for v in h1]
        w = [mp.mpc(complex(v)) for v in h2]
        coef = mp.fsum(mp.conj(x) * y for x, y in zip(u, w)) / mp.fsum(abs(x) ** 2 for x in u)
        return float(mp.sqrt(mp.fsum(abs(y - x * coef) ** 2 for x, y in zip(u, w))))


def test_from_block_keeps_a_small_perpendicular_part():
    # h2 nearly along h1, c/||h2|| = r: c must keep the rounding of ||h2||,
    # eps ||h2||, not the radicand's eps ||h2||^2 / c
    rng = np.random.default_rng(2024)
    n, count = 4, 200
    for r in (1e-3, 1e-5, 1.1e-6, 1e-7):
        h1 = (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))) / 2 ** 0.5
        g = (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))) / 2 ** 0.5
        v = g - h1 * (np.einsum("ij,ij->i", np.conj(h1), g) / _row_norms(h1) ** 2)[:, None]
        v /= _row_norms(v)[:, None]
        along = h1 * (rng.standard_normal(count) + 1j * rng.standard_normal(count))[:, None]
        h2 = along + r * _row_norms(along)[:, None] * v
        link = LinkStats.from_block(h1, h2, np.ones(count, complex))
        want = np.array([_perp_norm_oracle(x, y) for x, y in zip(h1, h2)])
        err = np.abs(link.c - want) / np.sqrt(link.n2_sq)
        assert link.ok.all() and err.max() <= 4 * np.finfo(float).eps, (r, err.max())


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
                                         (4, 3), (0, 2 ** 64 + 1)])
def test_block_sampling_rejects_malformed_trial_range(start, stop):
    with pytest.raises(ValueError, match=r"0 <= start < stop <= 2\*\*64"):
        sample_channel_block(PARAMS, 1, start, stop)


@pytest.mark.parametrize("n", [0, -1, 2.0, 2.5, True, "2", None])
def test_link_sampling_rejects_a_malformed_antenna_count(n):
    with pytest.raises(ValueError, match="n_antennas must be an int >= 1"):
        sample_link_block(n, 1, 0, 3)


def test_block_sampling_accepts_numpy_integers():
    a = sample_channel_block(PARAMS, np.uint64(3), np.int64(2), np.int32(5))
    b = sample_channel_block(PARAMS, 3, 2, 5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    # word offsets past 2**64 overflow numpy integers; the vectors' stream
    # (4N + 2 words a trial) crosses 2**64 here
    cross = -(-2 ** 64 // (4 * PARAMS.n_antennas + 2))
    a = sample_link_block(np.int64(PARAMS.n_antennas), np.uint64(3), np.uint64(cross),
                          np.uint64(cross + 3))
    b = sample_link_block(PARAMS.n_antennas, 3, cross, cross + 3)
    assert all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(LinkStats))
    a = sample_channel_block(PARAMS, np.uint64(3), np.uint64(cross), np.uint64(cross + 3))
    b = sample_channel_block(PARAMS, 3, cross, cross + 3)
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


@pytest.mark.parametrize("pc_dbm", [None, -25.0])
def test_a_stacked_row_equals_its_own_decomposition(pc_dbm):
    # each cell of a stack, and any lanes picked across cells, keeps the bits
    # of its own decomposition, per-lane needs too
    cells = [replace(PARAMS, ps_dbm=ps, d1=d1, d2=d2, pc_dbm=pc_dbm)
             for ps, d1, d2 in ((40.0, 20.0, 15.0), (25.0, 7.5, 30.0), (-10.0, 3.0, 2.0))]
    link = sample_link_block(PARAMS.n_antennas, 3, 0, 37)
    n = len(link)
    dec = ChannelDecomposition.stack(np.array([cell_constants(p) for p in cells]), link)
    assert np.shape(dec.a0) == (len(cells), n)
    flat = dec.flat()
    for name in ("need_u", "need_r"):  # a column where the cells draw, else the float 0.0
        assert np.shape(getattr(dec, name)) == (() if pc_dbm is None else (len(cells), 1))
        assert np.shape(getattr(flat, name)) == (() if pc_dbm is None else (len(cells) * n,))
    at = np.array([n - 1, 0, 5, 5])  # trials picked out of each cell's row

    def bits(x, shape):
        return np.broadcast_to(np.asarray(x, dtype=float), shape).tobytes()

    for j, params in enumerate(cells):
        one = ChannelDecomposition.of(params, link)
        row, picked = dec[j * n:(j + 1) * n], dec[j * n + at]
        for f in fields(ChannelDecomposition):
            want = np.broadcast_to(getattr(one, f.name), (n,))
            assert bits(getattr(row, f.name), (n,)) == bits(want, (n,)), (j, f.name)
            assert bits(getattr(picked, f.name), at.shape) == bits(want[at], at.shape)


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
