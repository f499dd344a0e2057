"""Synthetic multi-environment FDD channel generator.

An environment is a fixed set of multipath clusters whose delays are drawn
once from the environment seed.  Every user in the environment shares those
cluster delays but observes its own path count, gains and phases, so the
uplink and downlink frequency responses of one user are two views of a
single shared multipath geometry while distinct users stay uncorrelated.

The per-subcarrier frequency response of a user with paths
``(gains, delays, phases)`` at carrier ``f`` is

    H(f, l) = sum_n gains[n] * exp(-j*2*pi*f*delays[n] + j*phases[n])
                            * exp(-j*2*pi*n*l / L)

i.e. each path contributes a carrier-dependent rotation of its complex gain
times a per-tap DFT factor.  Because uplink and downlink differ only in the
carrier ``f``, the two band responses are tied together by the shared path
delays, which is what makes a band-to-band feature mapping learnable.

Channel estimation is abstracted as additive white Gaussian noise on the
frequency response, scaled from a target SNR against the mean per-subcarrier
channel power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericError
from .rng import ReusableStream, stream

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class OfdmConfig:
    """Carrier and subcarrier layout of the FDD-OFDM link.

    ``f_ul_hz == f_dl_hz`` is permitted: it degenerates the system into a
    perfectly reciprocal one, which several sanity checks rely on.
    """

    f_ul_hz: float = 2.4e9
    f_dl_hz: float = 2.5e9
    n_subcarriers: int = 64

    def __post_init__(self) -> None:
        if self.n_subcarriers <= 0:
            raise ConfigError(f"n_subcarriers must be positive, got {self.n_subcarriers}")
        if not (0 < self.f_ul_hz < math.inf and 0 < self.f_dl_hz < math.inf):
            raise ConfigError(f"carriers must be positive and finite, got {self.f_ul_hz} and {self.f_dl_hz} Hz")


@dataclass(frozen=True)
class EnvironmentSpec:
    """Parametric description of one propagation environment."""

    env_id: int
    n_paths_range: tuple[int, int] = (48, 64)
    delay_spread_s: float = 200e-9
    gain_decay: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.n_paths_range
        if lo < 1:
            raise ConfigError(f"n_paths_range minimum must be >= 1, got {lo}")
        if lo > hi:
            raise ConfigError(f"invalid n_paths_range: min {lo} > max {hi}")
        if not 0 < self.delay_spread_s < math.inf:
            raise ConfigError(f"delay_spread_s must be positive and finite, got {self.delay_spread_s}")
        if self.gain_decay <= 0:
            raise ConfigError("gain_decay must be positive")
        for name in ("env_id", "seed"):  # both key the random streams as signed 64-bit integers
            if not -(2**63) <= getattr(self, name) < 2**63:
                raise ConfigError(f"{name} must fit in a signed 64-bit integer, got {getattr(self, name)}")
        # tuple-ify so specs built with a list compare equal and stay hashable
        object.__setattr__(self, "n_paths_range", (int(lo), int(hi)))


@dataclass(frozen=True)
class PathParams:
    """Multipath description shared by the uplink and downlink bands."""

    gains: np.ndarray
    delays: np.ndarray
    phases: np.ndarray

    @property
    def n_paths(self) -> int:
        return len(self.gains)


@dataclass(frozen=True, eq=False)
class Environment:
    """Immutable environment: spec plus the fixed cluster delay layout."""

    spec: EnvironmentSpec
    cluster_delays: np.ndarray  # sorted ascending, length = max path count


def build_environment(spec: EnvironmentSpec) -> Environment:
    """Create the deterministic cluster layout for one environment.

    Equal specs produce byte-identical environments; the cluster delays are
    drawn once from the environment seed and sorted ascending.
    """
    _, hi = spec.n_paths_range
    rng = stream(spec.seed, "env-base", spec.env_id)
    delays = np.sort(rng.uniform(0.0, spec.delay_spread_s, size=hi))
    delays.setflags(write=False)
    return Environment(spec=spec, cluster_delays=delays)


def _draw_paths(env: Environment, rng: np.random.Generator) -> PathParams:
    spec = env.spec
    lo, hi = spec.n_paths_range
    n = int(rng.integers(lo, hi + 1))
    delays = env.cluster_delays[:n].copy()
    u = rng.uniform(0.5, 1.0, size=n)
    gains = np.exp(-(delays / spec.delay_spread_s) / spec.gain_decay) * u
    if not np.all(gains > 0):
        raise NumericError(f"path gains underflow to 0: gain_decay {spec.gain_decay:g} is too small")
    phases = rng.uniform(0.0, TWO_PI, size=n)
    return PathParams(gains=gains, delays=delays, phases=phases)


def sample_user_channel(env: Environment, user_index: int) -> PathParams:
    """Draw one user's multipath parameters from (env seed, user index).

    The user observes the first ``n`` cluster delays (earliest echoes), with
    ``n`` uniform over the configured path-count range.  Gains follow an
    exponential decay in normalized delay, jittered by a uniform factor in
    [0.5, 1]; phases are uniform over [0, 2*pi).
    """
    if user_index < 0:
        raise ValueError(f"user_index must be >= 0, got {user_index}")
    spec = env.spec
    return _draw_paths(env, stream(spec.seed, "user", spec.env_id, int(user_index)))


@lru_cache(maxsize=64)
def _tap_dft_block(n_paths: int, n_subcarriers: int) -> np.ndarray:
    """Per-tap DFT factors exp(-j*2*pi*n*l/L) of shape (n_paths, L)."""
    n = np.arange(n_paths)[:, None]
    l = np.arange(n_subcarriers)[None, :]
    block = np.exp(-1j * TWO_PI * n * l / n_subcarriers)
    block.setflags(write=False)
    return block


def cfr(paths: PathParams, f: float, cfg: OfdmConfig) -> np.ndarray:
    """Channel frequency response at carrier ``f`` over all subcarriers."""
    # a phase that overflows yields a non-finite response, which features.py reports as the one error
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = paths.gains * np.exp(-1j * TWO_PI * f * paths.delays + 1j * paths.phases)
    return coeff @ _tap_dft_block(paths.n_paths, cfg.n_subcarriers)


def add_estimation_noise(
    h: np.ndarray, snr_db: float, rng: np.random.Generator
) -> np.ndarray:
    """Add circularly symmetric complex Gaussian estimation noise.

    Per-element noise variance is mean(|h|^2) / 10^(snr_db/10); an infinite
    SNR disables the noise entirely.  Alice and Bob must pass independent
    generators so their estimation errors are independent.
    """
    if math.isinf(snr_db):
        return h.copy()
    power = float(np.mean(np.abs(h) ** 2))
    var = power / 10.0 ** (snr_db / 10.0)
    scale = math.sqrt(var / 2.0)
    noise = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    return h + scale * noise


def generate_env_dataset(
    env: Environment,
    n_samples: int,
    snr_db: float,
    cfg: OfdmConfig,
    start_index: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Uplink and downlink estimated CFRs, each ``(n_samples, n_subcarriers)``
    complex128, of users start_index..start_index+n-1.

    Row i of both arrays derives from the same user's path parameters; the two
    bands carry independent estimation noise.  Deterministic given (spec,
    snr_db, cfg, start_index); each sample is drawn from its own (seed, tag,
    env, user) streams, so generating a sample alone (``n_samples=1``,
    ``start_index=i``) yields the same values as inside a batch.  Pooled
    generators are re-keyed instead of built fresh per sample, which produces
    identical draws much faster.
    """
    L = cfg.n_subcarriers
    h_ul = np.empty((n_samples, L), dtype=np.complex128)
    h_dl = np.empty((n_samples, L), dtype=np.complex128)
    seed, env_id = env.spec.seed, env.spec.env_id
    noisy = not math.isinf(snr_db)
    pool_user, pool_ul, pool_dl = ReusableStream(), ReusableStream(), ReusableStream()
    for i in range(n_samples):
        user = start_index + i
        paths = _draw_paths(env, pool_user.rekey(seed, "user", env_id, user))
        hu = cfr(paths, cfg.f_ul_hz, cfg)
        hd = cfr(paths, cfg.f_dl_hz, cfg)
        if noisy:
            hu = add_estimation_noise(hu, snr_db, pool_ul.rekey(seed, "noise-ul", env_id, user, float(snr_db)))
            hd = add_estimation_noise(hd, snr_db, pool_dl.rekey(seed, "noise-dl", env_id, user, float(snr_db)))
        h_ul[i] = hu
        h_dl[i] = hd
    return h_ul, h_dl
