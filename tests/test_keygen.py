import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdkg.errors import ConfigError
from fdkg.keygen import (
    KeyMaterial,
    QuantizerConfig,
    align_keys,
    inverse_normal_cdf,
    key_generation_ratio,
    quantize_guardband,
    read_key_dump,
    write_key_dump,
)
from fdkg.pipeline import score_keys


def bisect_quantile(p: float, lo: float = -10.0, hi: float = 10.0) -> float:
    """Independent oracle: bisection on the normal CDF via erf."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInverseNormalCdf:
    def test_median_is_zero(self):
        assert inverse_normal_cdf(0.5) == 0.0

    @pytest.mark.parametrize("p,expected", [(0.975, 1.9599640), (0.6, 0.2533471)])
    def test_known_quantiles(self, p, expected):
        assert inverse_normal_cdf(p) == pytest.approx(expected, abs=1e-6)

    def test_matches_bisection_oracle_on_grid(self):
        for p in np.concatenate(
            [np.linspace(1e-6, 1 - 1e-6, 41), [1e-9, 1e-7, 0.5 - 1e-9, 1 - 1e-9]]
        ):
            assert abs(inverse_normal_cdf(float(p)) - bisect_quantile(float(p))) <= 1e-8

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.45):
            assert inverse_normal_cdf(p) == pytest.approx(-inverse_normal_cdf(1 - p), abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            inverse_normal_cdf(p)


class TestQuantizer:
    def test_epsilon_validation(self):
        QuantizerConfig(0.0)
        QuantizerConfig(0.49)
        with pytest.raises(ConfigError):
            QuantizerConfig(0.5)
        with pytest.raises(ConfigError):
            QuantizerConfig(-0.01)

    def test_zero_epsilon_keeps_everything(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=128)
        key = quantize_guardband(x, QuantizerConfig(0.0))
        assert key.retained_mask.all()
        assert np.array_equal(key.bits, (x > np.mean(x)).astype(np.uint8))

    def test_threshold_examples(self):
        # vector built with mean 0 and population std exactly 1, so the
        # epsilon=0.1 guard band sits at -/+0.253347: then 0.30 must survive
        # as bit 1 and 0.00 must be dropped
        a = math.sqrt((5.0 - 2 * 0.3**2) / 2.0)
        x = np.array([0.30, -0.30, 0.0, a, -a])
        assert np.mean(x) == 0.0
        assert np.std(x) == pytest.approx(1.0, abs=1e-12)
        key = quantize_guardband(x, QuantizerConfig(0.1))
        assert np.array_equal(key.retained_mask, [True, True, False, True, True])
        assert np.array_equal(key.bits, [1, 0, 1, 0])

    def test_dropped_fraction_matches_guard_mass(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(100_000)
        key = quantize_guardband(x, QuantizerConfig(0.1))
        dropped = 1.0 - key.retained_mask.mean()
        assert dropped == pytest.approx(0.20, abs=0.01)

    def test_degenerate_vector_drops_everything(self):
        with pytest.warns(UserWarning):
            key = quantize_guardband(np.full(16, 3.25), QuantizerConfig(0.1))
        assert not key.retained_mask.any()
        assert key.bits.size == 0

    @given(
        st.floats(0.01, 100.0),
        st.floats(-50.0, 50.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_scale_equivariance(self, a, b, seed):
        x = np.random.default_rng(seed).normal(size=64)
        k1 = quantize_guardband(x, QuantizerConfig(0.1))
        k2 = quantize_guardband(a * x + b, QuantizerConfig(0.1))
        assert np.array_equal(k1.retained_mask, k2.retained_mask)
        assert np.array_equal(k1.bits, k2.bits)

    def test_retained_count_monotone_in_epsilon(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=128)
            counts = [
                quantize_guardband(x, QuantizerConfig(e)).retained_mask.sum()
                for e in (0.0, 0.05, 0.1, 0.2, 0.4)
            ]
            assert all(c1 >= c2 for c1, c2 in zip(counts, counts[1:]))


class TestAlignment:
    def make(self, mask, bits_for_masked):
        mask = np.asarray(mask, dtype=bool)
        return KeyMaterial(bits=np.asarray(bits_for_masked, dtype=np.uint8), retained_mask=mask)

    def test_identical_masks_keep_all(self):
        a = self.make([1, 1, 0, 1], [1, 0, 1])
        b = self.make([1, 1, 0, 1], [1, 1, 1])
        bits_a, bits_b = align_keys(a, b)
        assert np.array_equal(bits_a, [1, 0, 1])
        assert np.array_equal(bits_b, [1, 1, 1])

    def test_disjoint_masks_empty(self):
        a = self.make([1, 0, 1, 0], [1, 1])
        b = self.make([0, 1, 0, 1], [0, 0])
        bits_a, bits_b = align_keys(a, b)
        assert bits_a.size == 0 and bits_b.size == 0

    def test_partial_overlap(self):
        a = self.make([1, 1, 0, 1], [1, 0, 1])
        b = self.make([1, 0, 1, 1], [0, 1, 1])
        bits_a, bits_b = align_keys(a, b)
        assert bits_a.size == 2  # common indices 0 and 3
        assert np.array_equal(bits_a, [1, 1])
        assert np.array_equal(bits_b, [0, 1])


class TestKeyMetrics:
    def test_identical_keys_zero_error(self):
        # +-1 features quantize at their mean straight back to the bits, so both
        # parties hold the same 128-bit key and the KER is exactly 0
        bits = np.random.default_rng(0).integers(0, 2, 128)
        features = (2.0 * bits - 1.0)[None, :]
        metrics = score_keys(features, features.copy(), epsilon=0.0, n_subcarriers=64)
        assert metrics.ker == 0.0
        assert np.array_equal(metrics.alice_keys[0], bits)
        assert np.array_equal(metrics.bob_keys[0], bits)

    def test_kgr_values(self):
        assert key_generation_ratio(128, 64) == 2.0
        assert key_generation_ratio(0, 64) == 0.0
        with pytest.raises(ValueError):
            key_generation_ratio(10, 0)

    def test_kgr_independent_parties_monte_carlo(self):
        # two independent Gaussians at epsilon=0.1: each retains ~80%, the
        # intersection ~64%, so KGR over 2L features ~ 2 * 0.64 = 1.28
        rng = np.random.default_rng(7)
        cfg = QuantizerConfig(0.1)
        ratios = []
        for _ in range(400):
            ka = quantize_guardband(rng.normal(size=128), cfg)
            kb = quantize_guardband(rng.normal(size=128), cfg)
            bits_a, _ = align_keys(ka, kb)
            ratios.append(key_generation_ratio(bits_a.size, 64))
        assert np.mean(ratios) == pytest.approx(1.28, abs=0.03)

    def test_perfect_reciprocity_for_every_epsilon(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=128)
        for eps in (0.0, 0.1, 0.25, 0.45):
            ka = quantize_guardband(x, QuantizerConfig(eps))
            kb = quantize_guardband(x.copy(), QuantizerConfig(eps))
            bits_a, bits_b = align_keys(ka, kb)
            assert bits_a.size and np.array_equal(bits_a, bits_b)


def test_key_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    keys = [rng.integers(0, 2, rng.integers(50, 128)).astype(np.uint8) for _ in range(10)]
    path = tmp_path / "keys.txt"
    write_key_dump(keys, path)
    back = read_key_dump(path)
    assert len(back) == len(keys)
    assert all(np.array_equal(a, b) for a, b in zip(keys, back))


def test_key_dump_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0101\n01x1\n")
    with pytest.raises(ValueError):
        read_key_dump(path)
