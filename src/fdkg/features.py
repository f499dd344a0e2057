"""Real-valued channel features and min-max normalization.

A complex frequency response of length L becomes the length-2L real vector
(Re, Im) concatenated in that order.  Normalization statistics are fitted on
training data only and reused for adaptation and test data; out-of-range
values at test time are deliberately left unclamped so prediction errors are
not silently distorted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS_GUARD = 1e-12


def complex_to_features(h: np.ndarray) -> np.ndarray:
    """Concatenate real and imaginary parts along the last axis."""
    h = np.asarray(h)
    if not np.all(np.isfinite(h.view(float))):
        raise ValueError("input must be finite")
    return np.concatenate([h.real, h.imag], axis=-1)


@dataclass(frozen=True)
class Normalizer:
    """Per-dimension min/max statistics of a training feature set."""

    col_min: np.ndarray
    col_max: np.ndarray

    def __post_init__(self) -> None:
        if self.col_min.shape != self.col_max.shape:
            raise ValueError("col_min and col_max must have equal shape")
        if np.any(self.col_max < self.col_min):
            raise ValueError("col_max must be >= col_min element-wise")

    @property
    def degenerate(self) -> np.ndarray:
        """Boolean mask of dimensions with (numerically) zero range."""
        return (self.col_max - self.col_min) < EPS_GUARD


def fit_normalizer(train: np.ndarray) -> Normalizer:
    """Per-dimension min and max over the training set (rows are samples)."""
    train = np.atleast_2d(np.asarray(train, dtype=float))
    if train.shape[0] == 0:
        raise ValueError("cannot fit a normalizer on an empty training set")
    return Normalizer(col_min=train.min(axis=0), col_max=train.max(axis=0))


def normalize(norm: Normalizer, x_raw: np.ndarray) -> np.ndarray:
    """Map x to (x - min) / (max - min) per dimension, without clamping.

    Dimensions whose training range is below the epsilon guard map to 0.
    """
    x_raw = np.asarray(x_raw, dtype=float)
    if x_raw.shape[-1] != norm.col_min.shape[0]:
        raise ValueError(
            f"dimension mismatch: x has {x_raw.shape[-1]}, normalizer has {norm.col_min.shape[0]}"
        )
    degenerate = norm.degenerate
    out = np.subtract(x_raw, norm.col_min)
    out /= np.where(degenerate, 1.0, norm.col_max - norm.col_min)
    out[..., degenerate] = 0.0
    return out
