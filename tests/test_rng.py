import numpy as np
import pytest

from fdkg.rng import ReusableStream, stream


def test_same_key_same_stream():
    a = stream(7, "user", 3).standard_normal(16)
    b = stream(7, "user", 3).standard_normal(16)
    assert np.array_equal(a, b)


def test_different_tags_different_streams():
    a = stream(7, "user", 3).standard_normal(16)
    b = stream(7, "user", 4).standard_normal(16)
    c = stream(7, "noise", 3).standard_normal(16)
    d = stream(8, "user", 3).standard_normal(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_type_distinguishes_tags():
    a = stream(0, 2).standard_normal(4)
    b = stream(0, 2.0).standard_normal(4)
    assert not np.array_equal(a, b)


def test_streams_are_order_independent():
    first = stream(1, "a")
    _ = first.standard_normal(1000)  # consuming one stream
    other = stream(1, "b").standard_normal(8)  # does not shift another
    assert np.array_equal(other, stream(1, "b").standard_normal(8))


def test_rejects_unsupported_tags():
    with pytest.raises(TypeError):
        stream(0, object())
    with pytest.raises(TypeError):
        stream(0, True)


def test_rekey_reproduces_stream():
    pool = ReusableStream()
    for tags in (("user", 2, 7), ("noise-ul", 2, 7, 15.0)):
        used = pool.rekey(5, "user", 2, 6)
        used.uniform(size=2)
        used.integers(0, 100, dtype=np.int32)  # leaves a partly used buffer and a 32-bit half behind
        fresh = stream(5, *tags)
        rekeyed = pool.rekey(5, *tags)
        assert rekeyed.integers(0, 2**31, dtype=np.int32) == fresh.integers(0, 2**31, dtype=np.int32)
        assert rekeyed.integers(48, 65) == fresh.integers(48, 65)
        assert np.array_equal(rekeyed.uniform(0.5, 1.0, 8), fresh.uniform(0.5, 1.0, 8))
        assert np.array_equal(rekeyed.standard_normal(8), fresh.standard_normal(8))
