import math

import numpy as np
import pytest

from wprelay.channel import (DEFAULT_NOISE_DBM, ChannelState,
                             DegenerateChannelError, SystemParams,
                             build_beamformer, dbm_to_watt, decompose,
                             sample_channel, sample_channel_block)

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


def test_block_sampling_accepts_numpy_integers():
    a = sample_channel_block(PARAMS, np.uint64(3), np.int64(2), np.int32(5))
    b = sample_channel_block(PARAMS, 3, 2, 5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_decompose_identities():
    for k in range(50):
        ch = sample_channel(PARAMS, 3, k)
        dec = decompose(PARAMS, ch, 0.4)
        assert dec.a == pytest.approx(np.linalg.norm(ch.h1), rel=1e-12)
        assert dec.b <= np.linalg.norm(ch.h2) + 1e-12
        assert math.hypot(dec.b, dec.c) == pytest.approx(np.linalg.norm(ch.h2),
                                                         rel=1e-12)


def test_decompose_rejects_bad_tau():
    ch = sample_channel(PARAMS, 4)
    for tau in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            decompose(PARAMS, ch, tau)


def test_beamformer_projection_scalars():
    for k, x_bar in enumerate((0.0, 0.25, 0.6, 1.0)):
        ch = sample_channel(PARAMS, 5, k)
        dec = decompose(PARAMS, ch, 0.5)
        w = build_beamformer(ch, x_bar)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert abs(ch.h1 @ w) == pytest.approx(dec.a * x_bar, abs=1e-10)
        proj = ch.h2 @ w
        expect = dec.b * x_bar + dec.c * math.sqrt(1 - x_bar ** 2)
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
        decompose(PARAMS, ChannelState(h1=np.zeros(6, complex),
                                       h2=np.ones(6, complex), h3=1j), 0.5)


def test_channel_state_validation():
    with pytest.raises(ValueError):
        ChannelState(h1=np.ones(3, complex), h2=np.ones(4, complex), h3=0j)
    with pytest.raises(ValueError):
        ChannelState(h1=np.array([np.inf + 0j, 0j]), h2=np.ones(2, complex), h3=0j)
