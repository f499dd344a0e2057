import numpy as np
import pytest
from hypothesis import given, strategies as st

from fdkg.features import (
    complex_to_features,
    features_to_complex,
    fit_normalizer,
    normalize,
)


def test_complex_to_features_definition():
    h = np.array([1 + 2j, 3 - 1j])
    assert np.array_equal(complex_to_features(h), [1.0, 3.0, 2.0, -1.0])


def test_zero_vector_maps_to_zero():
    assert np.array_equal(complex_to_features(np.zeros(5, complex)), np.zeros(10))


def test_length_64_gives_128_features():
    h = np.exp(1j * np.linspace(0, 2, 64))
    assert complex_to_features(h).shape == (128,)


def test_features_roundtrip():
    rng = np.random.default_rng(0)
    h = rng.normal(size=32) + 1j * rng.normal(size=32)
    assert np.array_equal(features_to_complex(complex_to_features(h)), h)


def test_batch_shapes():
    h = np.ones((5, 8), complex)
    assert complex_to_features(h).shape == (5, 16)


def test_fit_normalizer_min_max():
    train = np.array([[2.0], [4.0], [6.0]])
    norm = fit_normalizer(train)
    assert norm.col_min[0] == 2.0 and norm.col_max[0] == 6.0


def test_fit_normalizer_empty_errors():
    with pytest.raises(ValueError):
        fit_normalizer(np.empty((0, 4)))


def test_single_sample_train_set_degenerate():
    norm = fit_normalizer(np.array([[1.5, -2.0]]))
    assert np.array_equal(norm.col_min, norm.col_max)
    assert norm.degenerate.all()


def test_constant_column_maps_to_zero():
    train = np.array([[3.0, 1.0], [3.0, 5.0]])
    norm = fit_normalizer(train)
    out = normalize(norm, np.array([3.0, 3.0]))
    assert out[0] == 0.0
    assert out[1] == 0.5


def test_normalize_bit_equal_to_masked_formula():
    rng = np.random.default_rng(4)
    train = rng.normal(size=(50, 6)) * 10.0 ** rng.integers(-3, 4, size=6)
    train[:, 2] = 7.25  # a degenerate column
    norm = fit_normalizer(train)
    span = norm.col_max - norm.col_min
    deg = span < norm.eps_guard
    safe_span = np.where(deg, 1.0, span)
    x = np.vstack([rng.normal(size=(40, 6)) * 50.0, [[np.nan, np.inf, np.nan, -np.inf, -0.0, 1e300]]])
    for rows in (x, x[0], x[-1]):  # a batch and 1-D inputs
        want = np.where(deg, 0.0, (rows - norm.col_min) / safe_span)
        assert np.array_equal(normalize(norm, rows).view(np.uint64), want.view(np.uint64))


def test_normalize_midpoint_and_endpoints():
    norm = fit_normalizer(np.array([[2.0], [6.0]]))
    assert normalize(norm, np.array([4.0]))[0] == 0.5
    assert normalize(norm, np.array([2.0]))[0] == 0.0
    assert normalize(norm, np.array([6.0]))[0] == 1.0


def test_normalize_does_not_clamp():
    norm = fit_normalizer(np.array([[2.0], [6.0]]))
    assert normalize(norm, np.array([8.0]))[0] == pytest.approx(1.5)
    assert normalize(norm, np.array([0.0]))[0] == pytest.approx(-0.5)


def test_dimension_mismatch_errors():
    norm = fit_normalizer(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        normalize(norm, np.array([1.0, 2.0, 3.0]))


def test_training_set_lands_in_unit_interval():
    rng = np.random.default_rng(7)
    train = rng.normal(size=(50, 16)) * 3 + 1
    norm = fit_normalizer(train)
    out = normalize(norm, train)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert np.any(out == 0.0) and np.any(out == 1.0)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6),
)
def test_normalize_preserves_ordering(column, a, b):
    train = np.array(column)[:, None]
    norm = fit_normalizer(train)
    if norm.degenerate[0]:
        return
    ya = normalize(norm, np.array([a]))[0]
    yb = normalize(norm, np.array([b]))[0]
    if a < b:
        assert ya <= yb
    elif a > b:
        assert ya >= yb
    else:
        assert ya == yb
