import math

import mpmath
import numpy as np
import pytest

import fdkg.randomness
from fdkg.randomness import (
    approximate_entropy_test,
    as_bits,
    block_frequency_test,
    cumulative_sums_test,
    dft_test,
    frequency_test,
    igamc,
    rank_test,
    run_battery,
    runs_test,
    serial_test,
)

mpmath.mp.dps = 30


def prng_keys(n_keys: int, n_bits: int, seed: int = 2024) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2, n_bits).astype(np.uint8) for _ in range(n_keys)]


class TestHelpers:
    def test_igamc_matches_integration_oracle(self):
        # oracle: numerical integration of the gamma density tail
        for a in (0.5, 1.0, 2.0, 3.5, 8.0, 16.0, 64.0):
            for x in (0.05, 0.5, 1.0, 2.0, 5.0, 20.0, 80.0):
                ref = mpmath.quad(
                    lambda t: mpmath.power(t, a - 1) * mpmath.exp(-t), [x, mpmath.inf]
                ) / mpmath.gamma(a)
                assert igamc(a, x) == pytest.approx(float(ref), abs=1e-9)

    def test_erfc_matches_integration_oracle(self):
        for z in (0.0, 0.25, 0.9, 1.7, 3.0, 5.0):
            ref = 2 / mpmath.sqrt(mpmath.pi) * mpmath.quad(
                lambda t: mpmath.exp(-t * t), [z, mpmath.inf]
            )
            assert math.erfc(z) == pytest.approx(float(ref), abs=1e-9)

    def test_igamc_edge_cases(self):
        assert igamc(2.0, 0.0) == 1.0
        with pytest.raises(ValueError):
            igamc(0.0, 1.0)
        with pytest.raises(ValueError):
            igamc(1.0, -0.5)

    def test_bitstream_validation(self):
        with pytest.raises(ValueError):
            as_bits(np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            as_bits(np.array([], dtype=int))
        with pytest.raises(ValueError):
            as_bits("01x1")
        with pytest.raises(ValueError):
            as_bits("")
        assert as_bits("0101").tolist() == [0, 1, 0, 1]
        bits = as_bits([True, False, 1])
        assert bits.dtype == np.uint8 and bits.tolist() == [1, 0, 1]


class TestFrequency:
    def test_worked_example(self):
        # n=10, six ones => S=2, P = erfc(2 / sqrt(20))
        r = frequency_test("1011010101")
        assert r.p_values[0] == pytest.approx(math.erfc(2.0 / math.sqrt(20.0)), abs=1e-12)
        assert r.p_values[0] == pytest.approx(0.527089, abs=1e-4)

    def test_balanced_alternating_is_perfect(self):
        r = frequency_test("01" * 64)
        assert r.p_values[0] == 1.0 and r.passed

    def test_all_ones_fails(self):
        r = frequency_test("1" * 128)
        assert r.p_values[0] < 1e-10 and not r.passed


class TestBlockFrequency:
    def test_worked_example(self):
        # blocks 011, 001, 101 => chi2 = 1, P = Q(3/2, 1/2)
        r = block_frequency_test("0110011010", block_len=3)
        assert r.p_values[0] == pytest.approx(0.801252, abs=1e-5)

    def test_half_ones_blocks_perfect(self):
        r = block_frequency_test("0110" * 8, block_len=4)
        assert r.p_values[0] == 1.0

    def test_all_zero_fails(self):
        r = block_frequency_test("0" * 128, block_len=8)
        assert r.p_values[0] < 1e-10 and not r.passed

    def test_block_len_errors(self):
        with pytest.raises(ValueError):
            block_frequency_test("0101", block_len=0)
        # a key shorter than one block is not tested: run_battery once raised here
        assert not block_frequency_test("0101", block_len=5).applicable


class TestRuns:
    def test_worked_example(self):
        # n=10, pi=0.6, V=7
        r = runs_test("1001101011")
        expected = math.erfc(abs(7 - 2 * 10 * 0.6 * 0.4) / (2 * math.sqrt(20) * 0.6 * 0.4))
        assert r.p_values[0] == pytest.approx(expected, abs=1e-12)
        assert r.p_values[0] == pytest.approx(0.147232, abs=1e-4)

    def test_alternating_overdispersed_fails(self):
        r = runs_test("01" * 64)
        assert r.p_values[0] < 1e-10 and not r.passed

    def test_prerequisite_violation_not_applicable(self):
        r = runs_test("1" * 64)
        assert not r.applicable and not r.passed
        # constant streams too short for the 2/sqrt(n) bound once divided by zero
        assert not any(runs_test(bits).applicable for bits in ("1", "00", "0" * 15))


class TestCumulativeSums:
    @staticmethod
    def series_oracle(bits: np.ndarray) -> float:
        x = 2 * bits.astype(int) - 1
        n = x.size
        z = int(np.max(np.abs(np.cumsum(x))))
        phi = lambda v: float(mpmath.ncdf(v))
        total = mpmath.mpf(1)
        for k in range(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1):
            total -= phi((4 * k + 1) * z / math.sqrt(n)) - phi((4 * k - 1) * z / math.sqrt(n))
        for k in range(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1):
            total += phi((4 * k + 3) * z / math.sqrt(n)) - phi((4 * k + 1) * z / math.sqrt(n))
        return float(total)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            bits = rng.integers(0, 2, 256).astype(np.uint8)
            forward, backward = cumulative_sums_test(bits).p_values
            assert forward == pytest.approx(self.series_oracle(bits), abs=1e-9)
            assert backward == pytest.approx(self.series_oracle(bits[::-1]), abs=1e-9)

    def test_balanced_alternating_near_one(self):
        r = cumulative_sums_test("01" * 512)
        assert r.p_values[0] > 0.99

    def test_all_ones_fails(self):
        r = cumulative_sums_test("1" * 128)
        assert max(r.p_values) < 1e-10 and not r.passed

    def test_palindrome_modes_agree(self):
        s = "0110100110010110"
        assert s == s[::-1]
        r = cumulative_sums_test(s)
        assert r.p_values[0] == r.p_values[1]

    def test_passes_only_when_both_directions_do(self):
        # the two scans of a short stream often disagree; the result then fails
        rng = np.random.default_rng(1)
        seen_mixed = False
        for _ in range(400):
            r = cumulative_sums_test(rng.integers(0, 2, 64).astype(np.uint8))
            if (r.p_values[0] >= 0.01) != (r.p_values[1] >= 0.01):
                assert not r.passed
                seen_mixed = True
        assert seen_mixed


class TestDft:
    @staticmethod
    def reference(bits: np.ndarray) -> float:
        # independent formula evaluation
        x = 2.0 * bits.astype(float) - 1.0
        n = x.size
        mags = np.abs(np.fft.fft(x)[: n // 2])
        t = math.sqrt(n * math.log(20.0))
        n1 = int(np.sum(mags < t))
        d = (n1 - 0.95 * n / 2.0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
        return math.erfc(abs(d) / math.sqrt(2.0))

    def test_golden_seeded_stream(self):
        bits = np.random.default_rng(42).integers(0, 2, 1024).astype(np.uint8)
        r = dft_test(bits)
        assert r.p_values[0] == pytest.approx(self.reference(bits), abs=1e-12)
        assert r.p_values[0] == pytest.approx(0.02929829440455014, abs=1e-12)

    def test_all_zero_fails(self):
        r = dft_test("0" * 1024)
        assert r.p_values[0] < 1e-10 and not r.passed

    def test_complement_invariance(self):
        bits = np.random.default_rng(9).integers(0, 2, 512).astype(np.uint8)
        assert dft_test(bits).p_values == dft_test(1 - bits).p_values


class TestRank:
    def test_zero_matrix_rank(self):
        from fdkg.randomness import _gf2_rank

        assert _gf2_rank(np.zeros((32, 32), dtype=np.uint8)) == 0

    def test_identity_rank(self):
        from fdkg.randomness import _gf2_rank

        assert _gf2_rank(np.eye(32, dtype=np.uint8)) == 32

    def test_known_small_rank(self):
        from fdkg.randomness import _gf2_rank

        m = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
        assert _gf2_rank(m) == 2  # row3 = row1 xor row2

    def test_insufficient_bits_not_applicable(self):
        r = rank_test("01" * 64)
        assert not r.applicable and not r.passed and r.p_values == ()

    def test_golden_seeded_stream(self):
        rng = np.random.default_rng(42)
        rng.integers(0, 2, 1024)  # skip the block used by the dft golden
        bits = rng.integers(0, 2, 40000).astype(np.uint8)
        r = rank_test(bits)
        assert r.applicable
        assert r.params["n_matrices"] == 39
        assert r.p_values[0] == pytest.approx(0.7550347915779116, abs=1e-12)

    def test_category_probabilities(self):
        from fdkg.randomness import _rank_probabilities

        p_full, p_m1, p_low = _rank_probabilities(32)
        assert p_full == pytest.approx(0.2888, abs=1e-4)
        assert p_m1 == pytest.approx(0.5776, abs=1e-4)
        assert p_low == pytest.approx(0.1336, abs=1e-4)
        assert p_full + p_m1 + p_low == pytest.approx(1.0, abs=1e-12)


class TestApproximateEntropy:
    @staticmethod
    def enumeration_oracle(s: str, m: int) -> float:
        n = len(s)

        def phi(mm: int) -> float:
            ext = s + s[: mm - 1]
            counts: dict[str, int] = {}
            for i in range(n):
                w = ext[i : i + mm]
                counts[w] = counts.get(w, 0) + 1
            return sum(c / n * math.log(c / n) for c in counts.values())

        apen = phi(m) - phi(m + 1)
        chi2 = 2.0 * n * (math.log(2.0) - apen)
        return float(mpmath.gammainc(2 ** (m - 1), chi2 / 2, mpmath.inf, regularized=True))

    def test_constant_stream_fails(self):
        r = approximate_entropy_test("0" * 64, m=2)
        assert r.p_values[0] < 1e-10 and not r.passed

    def test_window_guard(self):
        r = approximate_entropy_test("0101", m=2)  # 2^(m+1)=8 > 4
        assert not r.applicable

    def test_golden_by_enumeration(self):
        s = "0100110101110010"  # 16 bits so m=3 windows are in range
        r = approximate_entropy_test(s, m=3)
        assert r.p_values[0] == pytest.approx(self.enumeration_oracle(s, 3), abs=1e-10)

    def test_complement_invariance(self):
        bits = np.random.default_rng(10).integers(0, 2, 128).astype(np.uint8)
        a = approximate_entropy_test(bits, m=2).p_values
        b = approximate_entropy_test(1 - bits, m=2).p_values
        assert a == b


class TestSerial:
    @staticmethod
    def psi_oracle(s: str, m: int) -> float:
        if m == 0:
            return 0.0
        n = len(s)
        ext = s + s[: m - 1]
        counts: dict[str, int] = {}
        for i in range(n):
            w = ext[i : i + m]
            counts[w] = counts.get(w, 0) + 1
        return 2.0**m / n * sum(c * c for c in counts.values()) - n

    def test_psi_counts_worked_example(self):
        # direct window enumeration for the 10-bit example
        assert self.psi_oracle("0011011101", 3) == pytest.approx(2.8)
        assert self.psi_oracle("0011011101", 2) == pytest.approx(1.2)
        assert self.psi_oracle("0011011101", 1) == pytest.approx(0.4)
        r = serial_test("0011011101", m=3)
        assert r.p_values[0] == pytest.approx(igamc(2.0, 1.6 / 2.0), abs=1e-12)
        assert r.p_values[1] == pytest.approx(igamc(1.0, 0.8 / 2.0), abs=1e-12)
        assert r.p_values[0] == pytest.approx(0.808792, abs=1e-5)
        assert r.p_values[1] == pytest.approx(0.670320, abs=1e-5)

    def test_constant_stream_fails(self):
        r = serial_test("1" * 128, m=2)
        assert max(r.p_values) < 1e-10 and not r.passed

    def test_conjunction_rule(self):
        # craft a pass decision: both p-values must clear the threshold
        rng = np.random.default_rng(0)
        seen_mixed = False
        for _ in range(400):
            bits = rng.integers(0, 2, 64).astype(np.uint8)
            r = serial_test(bits, m=2)
            if (r.p_values[0] >= 0.01) != (r.p_values[1] >= 0.01):
                assert not r.passed
                seen_mixed = True
        if not seen_mixed:
            pytest.skip("no mixed-significance sample drawn")

    def test_m_validation(self):
        with pytest.raises(ValueError):
            serial_test("0101", m=1)


def battery_rows(keys) -> dict:
    return {row.test_name: row for row in run_battery(keys)}


class TestPassRatioAndBattery:
    def test_alternating_keys_all_pass_frequency(self):
        row = battery_rows(["01" * 64] * 10)["frequency"]
        assert (row.n_keys, row.n_applicable, row.pass_ratio) == (10, 10, 1.0)

    def test_all_zero_keys_all_fail(self):
        row = battery_rows(["0" * 128] * 10)["frequency"]
        assert (row.n_applicable, row.pass_ratio) == (10, 0.0)

    def test_prng_keys_frequency_ratio(self):
        assert battery_rows(prng_keys(718, 128))["frequency"].pass_ratio >= 0.96

    def test_pass_ratio_counts_applicable_results_only(self):
        # constant keys fail the runs prerequisite, so runs is not applied to them
        tested = prng_keys(6, 128, seed=11)
        row = battery_rows(tested + ["1" * 128] * 4)["runs"]
        assert (row.n_keys, row.n_applicable) == (10, 6)
        assert row.pass_ratio == sum(runs_test(k).passed for k in tested) / 6

    def test_no_applicable_result_gives_no_pass_ratio(self):
        row = battery_rows(prng_keys(50, 128, seed=1))["rank"]
        assert (row.mode, row.n_keys, row.n_applicable) == ("concatenated", 50, 0)
        assert row.pass_ratio is None and row.p_values == ()
        assert "reason" in row.params

    def test_battery_calls_each_test_through_its_module_global(self, monkeypatch):
        # wrapping fdkg.randomness.<name>_test must reach the battery (the benchmark's tracer does so)
        names = [
            "approximate_entropy", "block_frequency", "cumulative_sums", "dft",
            "frequency", "rank", "runs", "serial",
        ]
        calls = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(fdkg.randomness, f"{name}_test")

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(fdkg.randomness, f"{name}_test", counted)
        run_battery(prng_keys(3, 128))
        assert calls == {**dict.fromkeys(names, 3), "dft": 1, "rank": 1}

    def test_prng_pass_ratios_all_tests(self):
        # 1000 streams from a high-quality generator: every per-key test in
        # the battery should pass at least 96% of them (expected ~99%)
        keys = prng_keys(1000, 128, seed=7)
        rows = run_battery(keys)
        for row in rows:
            assert row.pass_ratio >= 0.96, f"{row.test_name} ratio {row.pass_ratio}"

    def test_battery_routes_short_keys(self):
        keys = prng_keys(50, 128, seed=1)
        rows = {r.test_name: r for r in run_battery(keys)}
        assert rows["dft"].mode == "concatenated"
        assert rows["rank"].mode == "concatenated"
        assert rows["frequency"].mode == "per_key"
        assert set(rows) == {
            "approximate_entropy",
            "block_frequency",
            "cumulative_sums",
            "dft",
            "frequency",
            "rank",
            "runs",
            "serial",
        }

    def test_battery_long_keys_run_dft_per_key(self):
        keys = prng_keys(5, 2048, seed=3)
        rows = {r.test_name: r for r in run_battery(keys)}
        assert rows["dft"].mode == "per_key"

    def test_complement_leaves_key_tests_unchanged(self):
        bits = np.random.default_rng(17).integers(0, 2, 128).astype(np.uint8)
        flipped = 1 - bits
        assert frequency_test(bits).p_values == frequency_test(flipped).p_values
        assert runs_test(bits).p_values == runs_test(flipped).p_values
        assert serial_test(bits).p_values == serial_test(flipped).p_values

    def test_p_values_in_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            bits = rng.integers(0, 2, int(rng.integers(16, 256))).astype(np.uint8)
            for fn in (
                frequency_test,
                runs_test,
                dft_test,
                lambda b: block_frequency_test(b, 8),
                cumulative_sums_test,
                lambda b: approximate_entropy_test(b, 2),
                lambda b: serial_test(b, 2),
            ):
                for p in fn(bits).p_values:
                    assert 0.0 <= p <= 1.0
