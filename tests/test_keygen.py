import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdkg.errors import ConfigError, FormatError
from fdkg.keygen import SIGMA_FLOOR, check_epsilon, quantize_guardband, read_key_dump, write_key_dump
from fdkg.pipeline import score_keys


class TestQuantizer:
    def test_epsilon_validation(self):
        check_epsilon(0.0)
        check_epsilon(0.49)
        with pytest.raises(ConfigError):
            check_epsilon(0.5)
        with pytest.raises(ConfigError):
            check_epsilon(-0.01)

    def test_zero_epsilon_keeps_everything(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=128)
        ones, kept = quantize_guardband(x, 0.0)
        assert kept.all()
        assert np.array_equal(ones, x > np.mean(x))

    def test_threshold_examples(self):
        # vector built with mean 0 and population std exactly 1, so the
        # epsilon=0.1 guard band sits at -/+0.253347: then 0.30 must survive
        # as bit 1 and 0.00 must be dropped
        a = math.sqrt((5.0 - 2 * 0.3**2) / 2.0)
        x = np.array([0.30, -0.30, 0.0, a, -a])
        assert np.mean(x) == 0.0
        assert np.std(x) == pytest.approx(1.0, abs=1e-12)
        ones, kept = quantize_guardband(x, 0.1)
        assert np.array_equal(kept, [True, True, False, True, True])
        assert np.array_equal(ones[kept], [1, 0, 1, 0])

    def test_dropped_fraction_matches_guard_mass(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(100_000)
        _, kept = quantize_guardband(x, 0.1)
        dropped = 1.0 - kept.mean()
        assert dropped == pytest.approx(0.20, abs=0.01)

    def test_degenerate_vector_drops_everything(self):
        with pytest.warns(UserWarning):
            ones, kept = quantize_guardband(np.full(16, 3.25), 0.1)
        assert not kept.any()
        assert not ones.any()

    @given(
        st.floats(0.01, 100.0),
        st.floats(-50.0, 50.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_scale_equivariance(self, a, b, seed):
        x = np.random.default_rng(seed).normal(size=64)
        ones1, kept1 = quantize_guardband(x, 0.1)
        ones2, kept2 = quantize_guardband(a * x + b, 0.1)
        assert np.array_equal(kept1, kept2)
        assert np.array_equal(ones1, ones2)

    def test_retained_count_monotone_in_epsilon(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=128)
            counts = [
                quantize_guardband(x, e)[1].sum()
                for e in (0.0, 0.05, 0.1, 0.2, 0.4)
            ]
            assert all(c1 >= c2 for c1, c2 in zip(counts, counts[1:]))


class TestAlignment:
    # epsilon 0.1 on four values: [0, 2, 3, 7] drops its mean 3, [0, 1, 2, 3] keeps all
    def keys(self, predicted, actual):
        metrics = score_keys(np.array(predicted, float), np.array(actual, float), 0.1, 2)
        return [k.tolist() for k in metrics.alice_keys], [k.tolist() for k in metrics.bob_keys]

    def test_identical_masks_keep_all(self):
        assert self.keys([[0, 3, 1, 2]], [[0, 1, 2, 3]]) == ([[0, 1, 0, 1]], [[0, 0, 1, 1]])

    def test_disjoint_masks_empty(self):
        # row 0 keeps only what the other party drops; its empty key is omitted
        alice, bob = self.keys([[1.5, 1.5, 0, 3], [0, 1, 2, 3]], [[0, 3, 1.5, 1.5], [0, 1, 2, 3]])
        assert alice == bob == [[0, 0, 1, 1]]

    def test_partial_overlap(self):
        # positions 0 and 3 survive on both sides
        assert self.keys([[0, 2, 3, 7]], [[7, 3, 2, 0]]) == ([[0, 1]], [[1, 0]])


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
        x = np.random.default_rng(5).normal(size=(3, 128))
        assert score_keys(x, x.copy(), epsilon=0.0, n_subcarriers=64).kgr == 2.0
        # nothing aligned (see TestAlignment) gives KGR 0
        assert score_keys(np.array([[1.5, 1.5, 0, 3]]), np.array([[0, 3, 1.5, 1.5]]), 0.1, 2).kgr == 0.0

    def test_kgr_independent_parties_monte_carlo(self):
        # two independent Gaussians at epsilon=0.1: each retains ~80%, the
        # intersection ~64%, so KGR over 2L features ~ 2 * 0.64 = 1.28
        draws = np.random.default_rng(7).normal(size=(400, 2, 128))
        metrics = score_keys(draws[:, 0], draws[:, 1], epsilon=0.1, n_subcarriers=64)
        assert metrics.kgr == pytest.approx(1.28, abs=0.03)

    def test_perfect_reciprocity_for_every_epsilon(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 128))
        for eps in (0.0, 0.1, 0.25, 0.45):
            metrics = score_keys(x, x.copy(), epsilon=eps, n_subcarriers=64)
            assert metrics.ker == 0.0 and len(metrics.alice_keys) == 1
            assert metrics.alice_keys[0].size and np.array_equal(metrics.alice_keys[0], metrics.bob_keys[0])


def per_row_score(predicted, actual, epsilon, n_subcarriers):
    """Reference for score_keys written one sample at a time."""
    quantile = NormalDist().inv_cdf

    def quantize(row):
        mu, sigma = np.mean(row), np.std(row)
        if sigma < SIGMA_FLOOR:
            return np.zeros(row.size, dtype=bool), np.zeros(row.size, dtype=bool)
        zeros = row <= mu + sigma * quantile(0.5 - epsilon)
        ones = (row >= mu + sigma * quantile(0.5 + epsilon)) & ~zeros
        return ones, zeros | ones

    errors = total = 0
    kgr_sum = 0.0
    alice, bob = [], []
    for row_a, row_b in zip(predicted, actual):
        ones_a, kept_a = quantize(row_a)
        ones_b, kept_b = quantize(row_b)
        common = kept_a & kept_b
        bits_a, bits_b = ones_a[common].astype(np.uint8), ones_b[common].astype(np.uint8)
        errors += int(np.count_nonzero(bits_a != bits_b))
        total += bits_a.size
        kgr_sum += bits_a.size / n_subcarriers
        if bits_a.size:
            alice.append(bits_a)
            bob.append(bits_b)
    return (errors / total if total else 1.0), kgr_sum / len(predicted), alice, bob


@st.composite
def key_batches(draw):
    n_rows = draw(st.integers(1, 24))
    width = draw(st.integers(2, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    predicted = rng.normal(size=(n_rows, width))
    noise = draw(st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    actual = predicted + noise * rng.normal(size=(n_rows, width))
    # constant rows are degenerate: sigma is exactly 0 for a small whole-number value
    for x in (predicted, actual):
        for i in draw(st.sets(st.integers(0, n_rows - 1))):
            x[i] = draw(st.integers(-8, 8))
    epsilon = draw(st.sampled_from([0.0, 0.05, 0.1, 0.3]))
    n_subcarriers = draw(st.integers(1, 64))
    return predicted, actual, epsilon, n_subcarriers


@given(key_batches())
@settings(max_examples=150, deadline=None)
def test_score_keys_matches_per_row_reference(batch):
    predicted, actual, epsilon, n_subcarriers = batch
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        metrics = score_keys(predicted, actual, epsilon, n_subcarriers)
    ker, kgr, alice, bob = per_row_score(predicted, actual, epsilon, n_subcarriers)
    assert metrics.ker == ker
    # the per-row ratios are summed in another order, so equal to rounding
    assert metrics.kgr == pytest.approx(kgr, rel=1e-12)
    assert [k.tolist() for k in metrics.alice_keys] == [k.tolist() for k in alice]
    assert [k.tolist() for k in metrics.bob_keys] == [k.tolist() for k in bob]

    # one warning per party holding degenerate rows, naming how many
    degenerate = [int(np.count_nonzero(np.std(x, axis=1) < SIGMA_FLOOR)) for x in (predicted, actual)]
    expected = [f"{n} degenerate feature vector(s)" for n in degenerate if n]
    assert len(caught) == len(expected)
    assert all(text in str(w.message) for text, w in zip(expected, caught))


def test_key_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    keys = [rng.integers(0, 2, rng.integers(50, 128)).astype(np.uint8) for _ in range(10)]
    path = tmp_path / "keys.txt"
    write_key_dump(keys, path)
    back = read_key_dump(path)
    assert len(back) == len(keys)
    assert all(np.array_equal(a, b) for a, b in zip(keys, back))


def per_bit_key_dump(keys, path) -> None:
    """The one-bit-at-a-time writer that defined the dump format."""
    with open(path, "w") as fh:
        for bits in keys:
            fh.write("".join("1" if b else "0" for b in np.asarray(bits)))
            fh.write("\n")


def test_key_dump_bytes_equal_the_per_bit_format(tmp_path):
    rng = np.random.default_rng(12)
    cases = [[], [np.zeros(0, np.uint8)], [np.ones(1, np.uint8)], [np.array([True]), np.array([False])]]
    cases.append([np.zeros(0, bool), np.array([3, 0, -1]), np.array([0.0, 0.5])])  # nonzero writes 1
    for dtype in (np.uint8, bool, np.int64):
        cases.append([rng.integers(0, 2, rng.integers(1, 128)).astype(dtype) for _ in range(200)])
    cases.append([rng.integers(0, 2, 1).astype(np.uint8) for _ in range(100)])  # 1-bit keys
    for keys in cases:
        write_key_dump(keys, tmp_path / "new.txt")
        per_bit_key_dump(keys, tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


def test_key_dump_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0101\n01x1\n")
    with pytest.raises(FormatError, match="line 2"):
        read_key_dump(path)
    path.write_bytes(b"0101\n01\xff1\n")
    with pytest.raises(FormatError, match="not ASCII"):
        read_key_dump(path)
