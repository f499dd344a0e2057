"""Gaussian guard-band quantization of feature vectors into key bits.

Each feature vector is treated as a sample of a Gaussian whose mean and
standard deviation are fitted on the vector itself.  Values at or below the
lower quantile threshold become bit 0, values at or above the upper
threshold become bit 1, and values strictly inside the guard band around the
median are dropped.  Both parties publicly compare retained positions and
keep only the intersection, which is what makes the bit error rate a
meaningful quantity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

SIGMA_FLOOR = 1e-12

# Acklam's rational approximation of the standard normal quantile,
# refined below by one Halley step to full double precision.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)

_P_LOW = 0.02425


def inverse_normal_cdf(p: float) -> float:
    """Standard normal quantile, accurate to well below 1e-8 on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        z = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / (
            (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        )
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        z = (
            (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
            * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        z = -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / (
            (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        )
    # one Halley refinement against Phi(z) - p computed via erfc
    err = 0.5 * math.erfc(-z / math.sqrt(2.0)) - p
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    u = err / pdf
    return z - u / (1.0 + 0.5 * z * u)


@dataclass(frozen=True)
class QuantizerConfig:
    """Guard-band width: the fraction epsilon of probability mass dropped on
    each side of the median (epsilon = 0 disables the guard band)."""

    epsilon: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 0.5:
            raise ConfigError(f"epsilon must lie in [0, 0.5), got {self.epsilon}")


@dataclass(frozen=True)
class KeyMaterial:
    """One party's key bits plus the mask of feature positions they came from."""

    bits: np.ndarray  # uint8, one entry per retained position
    retained_mask: np.ndarray  # bool, full feature length

    def __post_init__(self) -> None:
        if len(self.bits) != int(np.count_nonzero(self.retained_mask)):
            raise ValueError("bits length must equal the number of retained positions")


def quantize_guardband(x: np.ndarray, cfg: QuantizerConfig) -> KeyMaterial:
    """Quantize one feature vector into bits, dropping the guard band.

    Thresholds are mu + sigma * z(0.5 -/+ epsilon) with mu and sigma the
    vector's own mean and (population) standard deviation.  Values <= the
    lower threshold give bit 0, values >= the upper threshold give bit 1; a
    degenerate vector (sigma below 1e-12) retains nothing.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 feature values to fit a quantizer")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature vector must be finite")
    mu = float(np.mean(x))
    sigma = float(np.std(x))
    if sigma < SIGMA_FLOOR:
        warnings.warn("degenerate feature vector: all positions dropped", stacklevel=2)
        mask = np.zeros(x.size, dtype=bool)
        return KeyMaterial(bits=np.empty(0, dtype=np.uint8), retained_mask=mask)
    if cfg.epsilon == 0.0:
        t_lo = t_hi = mu
    else:
        t_lo = mu + sigma * inverse_normal_cdf(0.5 - cfg.epsilon)
        t_hi = mu + sigma * inverse_normal_cdf(0.5 + cfg.epsilon)
    zeros = x <= t_lo
    ones = (x >= t_hi) & ~zeros
    mask = zeros | ones
    bits = ones[mask].astype(np.uint8)
    return KeyMaterial(bits=bits, retained_mask=mask)


def align_keys(a: KeyMaterial, b: KeyMaterial) -> tuple[np.ndarray, np.ndarray]:
    """Bit subsequences of both parties over the shared retained positions."""
    if a.retained_mask.shape != b.retained_mask.shape:
        raise ValueError("retained masks must have equal length")
    common = a.retained_mask & b.retained_mask

    def extract(key: KeyMaterial) -> np.ndarray:
        full = np.zeros(key.retained_mask.shape, dtype=np.uint8)
        full[key.retained_mask] = key.bits
        return full[common]

    return extract(a), extract(b)


def key_generation_ratio(aligned_length: int, n_subcarriers: int) -> float:
    """Initial key bits per subcarrier (at most 2 when every feature survives)."""
    if n_subcarriers <= 0:
        raise ValueError(f"n_subcarriers must be positive, got {n_subcarriers}")
    return aligned_length / n_subcarriers


def write_key_dump(keys: list[np.ndarray], path) -> None:
    """One ASCII 0/1 line per sample, in index order over aligned positions."""
    with open(path, "w") as fh:
        for bits in keys:
            fh.write("".join("1" if b else "0" for b in np.asarray(bits)))
            fh.write("\n")


def read_key_dump(path) -> list[np.ndarray]:
    keys = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if set(line) - {"0", "1"}:
                raise ValueError(f"key dump line contains non-binary characters: {line[:20]!r}")
            keys.append(np.frombuffer(line.encode("ascii"), dtype=np.uint8) - ord("0"))
    return keys
