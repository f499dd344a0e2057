import math

import numpy as np
import pytest

from fdkg.channel_sim import (
    EnvironmentSpec,
    OfdmConfig,
    PathParams,
    add_estimation_noise,
    build_environment,
    cfr,
    generate_env_dataset,
    sample_user_channel,
)
from fdkg.errors import ConfigError, NumericError
from fdkg.rng import stream


@pytest.fixture
def cfg():
    return OfdmConfig()


def test_build_environment_deterministic():
    spec = EnvironmentSpec(env_id=1, seed=7)
    a, b = build_environment(spec), build_environment(spec)
    assert a.spec == b.spec and a.cluster_delays.tobytes() == b.cluster_delays.tobytes()


def test_invalid_paths_range_is_config_error():
    with pytest.raises(ConfigError):
        EnvironmentSpec(env_id=1, n_paths_range=(5, 3))
    with pytest.raises(ConfigError):
        EnvironmentSpec(env_id=1, n_paths_range=(0, 3))


def test_forced_path_count():
    env = build_environment(EnvironmentSpec(env_id=1, n_paths_range=(3, 3), seed=5))
    for i in range(20):
        assert sample_user_channel(env, i).n_paths == 3


def test_seed_changes_path_layout():
    a = build_environment(EnvironmentSpec(env_id=1, seed=1))
    b = build_environment(EnvironmentSpec(env_id=1, seed=2))
    differs = any(
        not np.array_equal(sample_user_channel(a, i).gains, sample_user_channel(b, i).gains)
        for i in range(100)
    )
    assert differs


def test_sample_user_channel_deterministic():
    env = build_environment(EnvironmentSpec(env_id=2, seed=11))
    p1 = sample_user_channel(env, 42)
    p2 = sample_user_channel(env, 42)
    assert np.array_equal(p1.gains, p2.gains)
    assert np.array_equal(p1.delays, p2.delays)
    assert np.array_equal(p1.phases, p2.phases)


def test_gain_decay_limit_gives_unit_gains():
    # enormous decay constant makes exp(-delay/spread/decay) ~ 1; with the
    # uniform jitter forced to 1 all gains equal 1
    env = build_environment(
        EnvironmentSpec(env_id=1, n_paths_range=(4, 4), gain_decay=1e12, seed=3)
    )
    p = sample_user_channel(env, 0)
    decay_only = p.gains / np.exp(
        -(p.delays / env.spec.delay_spread_s) / env.spec.gain_decay
    )
    # jitter factors recovered exactly; forcing them to one means gains == decay
    assert np.all((decay_only >= 0.5) & (decay_only <= 1.0))
    forced = np.exp(-(p.delays / env.spec.delay_spread_s) / env.spec.gain_decay)
    assert np.allclose(forced, 1.0, atol=1e-10)


def test_gain_underflow_raises_numeric_error_and_infinite_decay_stays_flat():
    # a tiny positive decay once underflowed far gains to 0 and failed PathParams' ValueError
    with pytest.raises(NumericError, match="underflow"):
        sample_user_channel(build_environment(EnvironmentSpec(env_id=1, gain_decay=1e-4, seed=3)), 0)
    # at +inf every gain is its jitter factor alone: the same draws that a finite decay scales
    spec = EnvironmentSpec(env_id=1, gain_decay=4.0, seed=3)
    decayed = sample_user_channel(build_environment(spec), 0)
    flat = sample_user_channel(build_environment(EnvironmentSpec(env_id=1, gain_decay=math.inf, seed=3)), 0)
    assert np.allclose(flat.gains * np.exp(-(decayed.delays / spec.delay_spread_s) / 4.0), decayed.gains, rtol=1e-12)


def test_delays_bounded_by_spread():
    spec = EnvironmentSpec(env_id=1, delay_spread_s=150e-9, seed=9)
    env = build_environment(spec)
    max_delay = max(sample_user_channel(env, i).delays.max() for i in range(10_000))
    assert max_delay <= spec.delay_spread_s


def test_cfr_single_zero_delay_path(cfg):
    p = PathParams(gains=np.array([1.0]), delays=np.array([0.0]), phases=np.array([0.0]))
    h = cfr(p, 2.4e9, cfg)
    assert h.shape == (64,)
    assert np.allclose(h, 1.0 + 0.0j, atol=1e-12)


def test_cfr_pure_phase_path(cfg):
    p = PathParams(gains=np.array([1.0]), delays=np.array([0.0]), phases=np.array([np.pi / 2]))
    h = cfr(p, 2.4e9, cfg)
    assert np.allclose(h, 1j, atol=1e-12)


def test_cfr_two_path_scalar_values(cfg):
    # f*tau = 2.4e9 * 50e-9 = 120 full cycles, so the delay rotation vanishes
    p = PathParams(
        gains=np.array([1.0, 0.5]),
        delays=np.array([0.0, 50e-9]),
        phases=np.array([0.0, 0.0]),
    )
    h = cfr(p, 2.4e9, cfg)
    assert h[0] == pytest.approx(1.5 + 0.0j, abs=1e-9)
    assert h[1] == pytest.approx(1.0 + 0.5 * np.exp(-1j * np.pi / 32), abs=1e-9)


def test_cfr_linear_in_gains(cfg):
    env = build_environment(EnvironmentSpec(env_id=1, seed=21))
    p = sample_user_channel(env, 3)
    doubled = PathParams(gains=2 * p.gains, delays=p.delays, phases=p.phases)
    assert np.allclose(cfr(doubled, 2.4e9, cfg), 2 * cfr(p, 2.4e9, cfg), rtol=1e-12)


def test_noise_disabled_at_infinite_snr():
    h = np.exp(1j * np.linspace(0, 3, 64))
    out = add_estimation_noise(h, math.inf, stream(0, "t"))
    assert np.array_equal(out, h)


def test_noise_variance_definition():
    # unit-power input at 0 dB leaves unit noise variance
    h = np.ones((100, 64), dtype=complex)
    out = add_estimation_noise(h, 0.0, stream(1, "t"))
    var = np.mean(np.abs(out - h) ** 2)
    assert var == pytest.approx(1.0, rel=0.05)


def test_noise_variance_20db_monte_carlo():
    h = np.ones((1563, 64), dtype=complex)  # ~1e5 elements
    out = add_estimation_noise(h, 20.0, stream(2, "t"))
    var = np.mean(np.abs(out - h) ** 2)
    assert var == pytest.approx(0.01, rel=0.02)


def test_reciprocity_with_equal_carriers():
    cfg = OfdmConfig(f_ul_hz=2.4e9, f_dl_hz=2.4e9)
    env = build_environment(EnvironmentSpec(env_id=1, seed=13))
    h_ul, h_dl = generate_env_dataset(env, 16, math.inf, cfg)
    assert np.array_equal(h_ul, h_dl)


def test_full_scale_dataset_shape():
    # full source-environment size at the default carriers: 40k pairs of
    # length-64 band responses
    env = build_environment(EnvironmentSpec(env_id=1, seed=1))
    h_ul, h_dl = generate_env_dataset(env, 40_000, 20.0, OfdmConfig())
    assert h_ul.shape == (40_000, 64)
    assert h_dl.shape == (40_000, 64)
    assert np.all(np.isfinite(h_ul.view(float)))


def test_dataset_shape_and_determinism():
    cfg = OfdmConfig()
    env = build_environment(EnvironmentSpec(env_id=1, seed=17))
    a_ul, a_dl = generate_env_dataset(env, 40, 20.0, cfg)
    b_ul, b_dl = generate_env_dataset(env, 40, 20.0, cfg)
    assert a_ul.shape == (40, 64)
    assert np.array_equal(a_ul, b_ul) and np.array_equal(a_dl, b_dl)


def test_sample_order_independence():
    cfg = OfdmConfig()
    env = build_environment(EnvironmentSpec(env_id=4, seed=19))
    batch_ul, batch_dl = generate_env_dataset(env, 10, 15.0, cfg)
    lone_ul, lone_dl = generate_env_dataset(env, 1, 15.0, cfg, start_index=7)
    assert np.array_equal(batch_ul[7], lone_ul[0])
    assert np.array_equal(batch_dl[7], lone_dl[0])


def test_dataset_start_index_slices_user_range():
    cfg = OfdmConfig()
    env = build_environment(EnvironmentSpec(env_id=4, seed=19))
    full_ul, _ = generate_env_dataset(env, 10, 15.0, cfg)
    tail_ul, _ = generate_env_dataset(env, 4, 15.0, cfg, start_index=6)
    assert np.array_equal(full_ul[6:], tail_ul)
