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

import warnings
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, FormatError, NumericError

SIGMA_FLOOR = 1e-12


def check_epsilon(epsilon: float) -> None:
    """Raise ConfigError unless 0 <= epsilon < 0.5: the guard band drops the
    probability mass epsilon on each side of the median (0 disables it)."""
    if not 0.0 <= epsilon < 0.5:
        raise ConfigError(f"epsilon must lie in [0, 0.5), got {epsilon}")


def quantize_guardband(x: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Quantize every feature vector (last axis of x) into bits, dropping the guard band.

    Thresholds are mu + sigma * z(0.5 -/+ epsilon) with mu and sigma each
    vector's own mean and (population) standard deviation.  Values <= the
    lower threshold give bit 0, values >= the upper threshold give bit 1.
    Returns boolean arrays ``(ones, kept)`` shaped like x; ``ones`` is set
    only where ``kept`` is.  A degenerate vector (sigma below SIGMA_FLOOR)
    keeps nothing, and one warning per call counts such vectors.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NumericError("feature vectors must be finite")
    mu = np.mean(x, axis=-1, keepdims=True)
    sigma = np.std(x, axis=-1, keepdims=True)
    quantile = NormalDist().inv_cdf
    zeros = x <= mu + sigma * quantile(0.5 - epsilon)
    ones = (x >= mu + sigma * quantile(0.5 + epsilon)) & ~zeros
    fitted = sigma >= SIGMA_FLOOR
    n_degenerate = int(np.count_nonzero(~fitted))
    if n_degenerate:
        warnings.warn(
            f"{n_degenerate} degenerate feature vector(s): all their positions dropped",
            stacklevel=2,
        )
    kept = (zeros | ones) & fitted
    ones &= fitted
    return ones, kept


def write_key_dump(keys: list[np.ndarray], path) -> None:
    """One ASCII 0/1 line per sample, in index order over aligned positions (nonzero bits write 1)."""
    lengths = np.array([np.size(k) for k in keys], dtype=np.intp)
    text = np.full(lengths.sum() + len(keys), ord("\n"), dtype=np.uint8)
    bits = np.concatenate([np.zeros(0, bool), *map(np.ravel, keys)]) != 0
    # bit j of the concatenation lands after the newlines of the lines before its own
    text[np.arange(bits.size) + np.repeat(np.arange(len(keys)), lengths)] = ord("0") + bits
    text.tofile(path)


def read_key_dump(path) -> list[np.ndarray]:
    """The keys of a dump written by write_key_dump; blank lines are skipped.

    Raises FormatError for a byte that is not ASCII and for a line with a
    character other than 0 and 1 (surrounding whitespace aside).
    """
    try:
        with open(path, encoding="ascii") as fh:
            lines = [line.strip() for line in fh]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: key dump is not ASCII (byte {exc.start})") from exc
    keys = []
    for number, line in enumerate(lines, start=1):
        if not line:
            continue
        if set(line) - {"0", "1"}:
            raise FormatError(f"{path}: line {number} holds non-binary characters: {line[:20]!r}")
        keys.append(np.frombuffer(line.encode("ascii"), dtype=np.uint8) - ord("0"))
    return keys
