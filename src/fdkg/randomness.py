"""Statistical randomness tests for generated key bitstreams.

Eight classic bit-level tests (frequency, block frequency, runs, cumulative
sums, spectral peak counting, binary matrix rank, approximate entropy, and
serial), each reporting one or two P-values and a pass flag at significance
0.01.  The serial test passes only when both of its P-values do, and the
cumulative-sums test only when both scan directions do.

Short keys cannot support every test: the matrix rank test needs tens of
thousands of bits and the spectral test's normal approximation needs about a
thousand, so :func:`run_battery` applies those two to the concatenation of
all keys and everything else per key.  A test that cannot run on a stream
returns a not-applicable result with no P-values, and pass ratios count only
the results that applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ALPHA = 0.01

# below this length the spectral test's peak-count approximation is too
# coarse, and the battery routes the test to the concatenated stream
DFT_MIN_BITS = 1000
RANK_MATRIX_SIDE = 32
RANK_MIN_MATRICES = 38
# test parameters of the battery, reported in each row's params
BLOCK_LEN = 8
M_APEN = 2
M_SERIAL = 2


# ---------------------------------------------------------------------------
# numeric helpers


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def igamc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x >= 0.

    Series expansion below x < a + 1, continued fraction above; relative
    accuracy around 1e-14 over the tested argument grid.
    """
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"argument must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        # P(a, x) by series, Q = 1 - P
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(1000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        p = total * math.exp(-x + a * math.log(x) - math.lgamma(a))
        return max(0.0, 1.0 - p)
    # Q(a, x) by Lentz continued fraction
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


# ---------------------------------------------------------------------------
# bit streams and results


def as_bits(s) -> np.ndarray:
    """Check a 0/1 string or 0/1 sequence and return it as a new uint8 array."""
    if isinstance(s, str):
        s = np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")
    bits = np.asarray(s)
    if bits.size < 1:
        raise ValueError("bit stream must contain at least one bit")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bit stream entries must be 0 or 1")
    return bits.astype(np.uint8)


@dataclass(frozen=True)
class TestResult:
    test_name: str
    p_values: tuple[float, ...]
    passed: bool
    applicable: bool = True
    params: dict = field(default_factory=dict)


def _result(name: str, p_values: tuple[float, ...], **params) -> TestResult:
    return TestResult(
        test_name=name,
        p_values=p_values,
        passed=all(p >= ALPHA for p in p_values),
        params=params,
    )


def _not_applicable(name: str, reason: str, **params) -> TestResult:
    return TestResult(
        test_name=name,
        p_values=(),
        passed=False,
        applicable=False,
        params={**params, "reason": reason},
    )


# ---------------------------------------------------------------------------
# tests


def frequency_test(s) -> TestResult:
    """Monobit balance: P = erfc(|sum of +/-1 bits| / sqrt(2 n))."""
    bits = as_bits(s)
    n = bits.size
    s_n = float(np.sum(2 * bits.astype(np.int64) - 1))
    p = math.erfc(abs(s_n) / math.sqrt(2.0 * n))
    return _result("frequency", (p,))


def block_frequency_test(s, block_len: int = 8) -> TestResult:
    """Chi-square of per-block one-proportions against 1/2."""
    bits = as_bits(s)
    n = bits.size
    if block_len < 1:
        raise ValueError(f"block_len must be >= 1, got {block_len}")
    if block_len > n:
        return _not_applicable("block_frequency", f"block_len exceeds stream length {n}", block_len=block_len)
    n_blocks = n // block_len
    pi = bits[: n_blocks * block_len].reshape(n_blocks, block_len).mean(axis=1)
    chi2 = 4.0 * block_len * float(np.sum((pi - 0.5) ** 2))
    p = igamc(n_blocks / 2.0, chi2 / 2.0)
    return _result("block_frequency", (p,), block_len=block_len)


def runs_test(s) -> TestResult:
    """Total number of runs against its expectation under independence."""
    bits = as_bits(s)
    n = bits.size
    pi = float(np.mean(bits))
    # below n = 16 the bound 2/sqrt(n) exceeds 1/2, so alone it would pass a constant stream (and divide by 0)
    if abs(pi - 0.5) >= min(2.0 / math.sqrt(n), 0.5):
        return _not_applicable("runs", "ones fraction fails the frequency prerequisite")
    v_n = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
    num = abs(v_n - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    p = math.erfc(num / den)
    return _result("runs", (p,))


def cumulative_sums_test(s) -> TestResult:
    """Maximum excursion of the +/-1 partial-sum walk, scanned forward and then
    backward; passes only when both P-values do."""
    x = 2 * as_bits(s).astype(np.int64) - 1
    n = x.size
    sq = math.sqrt(n)

    def p_value(walk: np.ndarray) -> float:
        z = int(np.max(np.abs(np.cumsum(walk))))  # >= 1: the first step is +/-1
        total = 1.0
        for k in range(int(math.floor((-n / z + 1) / 4)), int(math.floor((n / z - 1) / 4)) + 1):
            total -= normal_cdf((4 * k + 1) * z / sq) - normal_cdf((4 * k - 1) * z / sq)
        for k in range(int(math.floor((-n / z - 3) / 4)), int(math.floor((n / z - 1) / 4)) + 1):
            total += normal_cdf((4 * k + 3) * z / sq) - normal_cdf((4 * k + 1) * z / sq)
        return min(max(total, 0.0), 1.0)

    return _result("cumulative_sums", (p_value(x), p_value(x[::-1])))


def dft_test(s) -> TestResult:
    """Count of spectral peaks below the 95% threshold vs. its expectation."""
    bits = as_bits(s)
    n = bits.size - (bits.size % 2)
    if n < 2:
        return _not_applicable("dft", "need at least 2 bits")
    x = 2.0 * bits[:n].astype(float) - 1.0
    mods = np.abs(np.fft.fft(x))[: n // 2]
    threshold = math.sqrt(n * math.log(1.0 / 0.05))
    n0 = 0.95 * n / 2.0
    n1 = int(np.count_nonzero(mods < threshold))
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = math.erfc(abs(d) / math.sqrt(2.0))
    return _result("dft", (p,))


def _gf2_rank(mat: np.ndarray) -> int:
    """Rank of a binary matrix over GF(2) by Gaussian elimination."""
    m = mat.astype(np.uint8).copy()
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        pivot = -1
        for r in range(rank, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot < 0:
            continue
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        hits = m[:, col].astype(bool).copy()
        hits[rank] = False
        m[hits] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def _rank_probabilities(size: int) -> tuple[float, float, float]:
    """Theoretical probabilities of rank (size, size-1, <= size-2) for random
    square GF(2) matrices of the given side."""

    def prob(r: int) -> float:
        log2_coef = r * (2 * size - r) - size * size
        prod = 1.0
        for i in range(r):
            prod *= (1.0 - 2.0 ** (i - size)) ** 2 / (1.0 - 2.0 ** (i - r))
        return 2.0**log2_coef * prod

    p_full = prob(size)
    p_minus1 = prob(size - 1)
    return p_full, p_minus1, 1.0 - p_full - p_minus1


def rank_test(s) -> TestResult:
    """Distribution of 32x32 GF(2) matrix ranks over the stream."""
    bits = as_bits(s)
    side = RANK_MATRIX_SIDE
    bits_per_matrix = side * side
    n_matrices = bits.size // bits_per_matrix
    if n_matrices < RANK_MIN_MATRICES:
        return _not_applicable(
            "rank",
            f"need at least {RANK_MIN_MATRICES * bits_per_matrix} bits, got {bits.size}",
        )
    counts = [0, 0, 0]  # full, full-1, lower
    for i in range(n_matrices):
        block = bits[i * bits_per_matrix : (i + 1) * bits_per_matrix].reshape(side, side)
        r = _gf2_rank(block)
        if r == side:
            counts[0] += 1
        elif r == side - 1:
            counts[1] += 1
        else:
            counts[2] += 1
    probs = _rank_probabilities(side)
    chi2 = sum((c - n_matrices * p) ** 2 / (n_matrices * p) for c, p in zip(counts, probs))
    p = igamc(1.0, chi2 / 2.0)
    return _result("rank", (p,), n_matrices=n_matrices)


def _pattern_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of all 2^m overlapping m-bit patterns with wrap-around."""
    n = bits.size
    ext = np.concatenate([bits, bits[: m - 1]]) if m > 1 else bits
    codes = np.zeros(n, dtype=np.int64)
    for k in range(m):
        codes = (codes << 1) | ext[k : k + n]
    return np.bincount(codes, minlength=2**m)


def _psi_squared(bits: np.ndarray, m: int) -> float:
    if m == 0:
        return 0.0
    counts = _pattern_counts(bits, m)
    n = bits.size
    return float(2.0**m / n * np.sum(counts.astype(float) ** 2) - n)


def approximate_entropy_test(s, m: int = 2) -> TestResult:
    """ApEn(m) = Phi(m) - Phi(m+1) against ln 2 via chi-square."""
    bits = as_bits(s)
    n = bits.size
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if 2 ** (m + 1) > n:
        return _not_applicable("approximate_entropy", f"2^(m+1) exceeds stream length {n}", m=m)

    def phi(mm: int) -> float:
        counts = _pattern_counts(bits, mm)
        pi = counts[counts > 0].astype(float) / n
        # counts sum to n over all overlapping windows (wrap-around)
        return float(np.sum(pi * np.log(pi)))

    apen = phi(m) - phi(m + 1)
    # non-negative in exact arithmetic (ApEn <= ln 2); clamp cancellation
    chi2 = max(2.0 * n * (math.log(2.0) - apen), 0.0)
    p = igamc(2.0 ** (m - 1), chi2 / 2.0)
    return _result("approximate_entropy", (p,), m=m)


def serial_test(s, m: int = 2) -> TestResult:
    """Overlapping m-pattern uniformity; passes only when both P-values do."""
    bits = as_bits(s)
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    psi_m = _psi_squared(bits, m)
    psi_m1 = _psi_squared(bits, m - 1)
    psi_m2 = _psi_squared(bits, m - 2)
    # both statistics are non-negative in exact arithmetic; clamp the tiny
    # negatives that cancellation can produce on highly regular streams
    d1 = max(psi_m - psi_m1, 0.0)
    d2 = max(psi_m - 2.0 * psi_m1 + psi_m2, 0.0)
    p1 = igamc(2.0 ** (m - 2), d1 / 2.0)
    p2 = igamc(2.0 ** (m - 3), d2 / 2.0)
    return _result("serial", (p1, p2), m=m)


# ---------------------------------------------------------------------------
# batteries over many keys


@dataclass(frozen=True)
class BatteryRow:
    """One test over a key set: ``pass_ratio`` is the share of the ``n_applicable``
    results that passed, None when none applied; a concatenated row also carries
    its one result's P-values and params."""

    test_name: str
    mode: str  # "per_key" or "concatenated"
    n_keys: int
    n_applicable: int
    pass_ratio: float | None
    p_values: tuple[float, ...] = ()
    params: dict = field(default_factory=dict)


def run_battery(keys: list) -> list[BatteryRow]:
    """Apply every test to a collection of keys, Table-style.

    Each test runs on every key, except the rank test, and the spectral test
    when keys are shorter than its minimum length, which run once on the
    concatenation of all keys.
    """
    if not keys:
        raise ValueError("run_battery needs at least one key")
    key_bits = [as_bits(k) for k in keys]
    concat = [np.concatenate(key_bits)]
    # built per call from the module globals, so that wrapping a test function
    # (as the benchmark's tracer does) reaches the battery too
    table = [
        (approximate_entropy_test, key_bits, {"m": M_APEN}),
        (block_frequency_test, key_bits, {"block_len": BLOCK_LEN}),
        (cumulative_sums_test, key_bits, {}),
        (dft_test, key_bits if min(k.size for k in key_bits) >= DFT_MIN_BITS else concat, {}),
        (frequency_test, key_bits, {}),
        (rank_test, concat, {}),
        (runs_test, key_bits, {}),
        (serial_test, key_bits, {"m": M_SERIAL}),
    ]
    rows = []
    for test, streams, params in table:
        results = [test(bits, **params) for bits in streams]
        applied = [r for r in results if r.applicable]
        ratio = sum(r.passed for r in applied) / len(applied) if applied else None
        if streams is concat:
            rows.append(BatteryRow(results[0].test_name, "concatenated", len(key_bits), len(applied), ratio,
                                   results[0].p_values, results[0].params))
        else:
            rows.append(BatteryRow(results[0].test_name, "per_key", len(key_bits), len(applied), ratio, params=params))
    return rows
