"""Config-driven experiment runner: datasets, training regimes, metrics.

One run generates a source environment dataset and several target
environment datasets, trains the selected algorithms, and scores every
(algorithm, target environment, SNR) cell by feature NMSE, key error rate,
key generation ratio, and optionally the randomness battery over the keys.

Normalization statistics are per environment and per band: the source
normalizers come from the source training set, a target environment's from
its adaptation split.  All algorithms share the same normalized feature
spaces, the same network initialization, and the same data, so metric
differences are attributable to the training regime alone.

Everything is a deterministic function of the configuration; wall-clock
timing is the one exception and can be disabled (``record_wall_time``) when
byte-identical reports are required.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import _BLAS_PINNED
from .channel_sim import (
    Environment,
    EnvironmentDataset,
    EnvironmentSpec,
    OfdmConfig,
    build_environment,
    generate_env_dataset,
)
from .codec import decode, encode
from .errors import ConfigError
from .features import Normalizer, complex_to_features, fit_normalizer, normalize
from .keygen import (
    QuantizerConfig,
    align_keys,
    key_generation_ratio,
    quantize_guardband,
)
from .neuralnet import NetworkParams, TrainConfig, forward, init_network
from .randomness import run_battery
from .strategies import (
    MetaConfig,
    PairSet,
    adapt,
    meta_train,
    partition_source_into_tasks,
    train_supervised,
)

KNOWN_ALGORITHMS = ("direct", "joint", "dtl", "meta", "identity")

NMSE_DEGENERATE_FLOOR = 1e-12

CSV_COLUMNS = ("algorithm", "env", "snr_db", "nmse", "ker", "kgr", "wall_time_s", "seed")
SWEEP_COLUMNS = ("axis", "axis_value") + CSV_COLUMNS


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TaskSplitConfig:
    """How the pooled source data is cut into meta-learning tasks."""

    n_tasks: int = 400
    samples_per_task: int = 100
    support_fraction: float = 0.5


# field name -> (group, key) for the ExperimentConfig fields the config JSON nests
JSON_GROUPS = {
    "source_envs": ("environments", "source"),
    "target_envs": ("environments", "targets"),
    **{name: ("sizes", name) for name in ("n_source", "n_target", "n_adapt", "n_test")},
}


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One experiment; the config JSON holds these fields in this order, with
    ``source_envs``/``target_envs`` and ``n_source``..``n_test`` grouped as
    :data:`JSON_GROUPS` says."""

    seed: int = 0
    scale_factor: float = 1.0
    ofdm: OfdmConfig
    source_envs: list[EnvironmentSpec]
    target_envs: list[EnvironmentSpec]
    n_source: int
    n_target: int
    n_adapt: int
    n_test: int
    snr_list_db: list[float]
    train_snr_db: float
    algorithms: list[str]
    quantizer_epsilon: float
    hidden_dims: list[int]
    train: TrainConfig
    meta: MetaConfig
    meta_tasks: TaskSplitConfig
    record_wall_time: bool = True
    compute_randomness: bool = False

    def __post_init__(self) -> None:
        if not self.source_envs or not self.target_envs:
            raise ConfigError("need at least one source and one target environment")
        target_ids = [spec.env_id for spec in self.target_envs]
        if len(set(target_ids)) != len(target_ids):
            raise ConfigError(f"target environments need distinct env_ids, got {target_ids}")
        for alg in self.algorithms:
            if alg not in KNOWN_ALGORITHMS:
                raise ConfigError(f"unknown algorithm {alg!r}; choose from {KNOWN_ALGORITHMS}")
        if not self.algorithms:
            raise ConfigError("no algorithms selected")
        if not self.snr_list_db:
            raise ConfigError("snr_list_db must be non-empty")
        for snr in (*self.snr_list_db, self.train_snr_db):
            if math.isnan(snr) or snr == -math.inf:
                raise ConfigError(f"SNRs must be finite or +inf (noiseless), got {snr}")
        if not 0.0 < self.scale_factor <= 1.0:
            raise ConfigError(f"scale_factor must lie in (0, 1], got {self.scale_factor}")
        QuantizerConfig(self.quantizer_epsilon)  # validates epsilon
        if self.n_source < 1 or self.n_target < 1:
            raise ConfigError("n_source and n_target must be >= 1")
        if self.n_adapt < 1 or self.n_test < 1 or self.n_adapt + self.n_test > self.n_target:
            raise ConfigError(
                f"need n_adapt + n_test <= n_target, got {self.n_adapt}+{self.n_test} > {self.n_target}"
            )
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError(f"hidden_dims entries must be >= 1, got {self.hidden_dims}")
        if self.scale_factor != 1.0:
            apply_scale(self)  # the scaled sizes, which a run uses, must pass these checks too
        elif "meta" in self.algorithms:
            tasks = self.meta_tasks
            needed = tasks.n_tasks * tasks.samples_per_task
            pooled = self.n_source * len(self.source_envs)  # each source env contributes n_source
            if needed > pooled:
                raise ConfigError(
                    f"meta_tasks need {needed} source samples ({tasks.n_tasks} x "
                    f"{tasks.samples_per_task}), the source pool holds {pooled}"
                )
            if self.meta.task_batch > tasks.n_tasks:
                raise ConfigError(
                    f"meta.task_batch {self.meta.task_batch} exceeds meta_tasks.n_tasks {tasks.n_tasks}"
                )

    def to_dict(self) -> dict:
        doc: dict = {}
        for name, value in encode(self).items():
            group, key = JSON_GROUPS.get(name, (None, name))
            (doc.setdefault(group, {}) if group else doc)[key] = value
        return doc

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            flat = dict(d)
            groups = {group: flat.pop(group) for group in {g for g, _ in JSON_GROUPS.values()}}
            for name, (group, key) in JSON_GROUPS.items():
                flat[name] = groups[group][key]
            unknown = sorted(f"{g}.{k}" for g in groups for k in groups[g] if (g, k) not in JSON_GROUPS.values())
            if unknown:
                raise ConfigError(f"config: unknown fields {unknown}")
            return decode(cls, flat, "config")
        except KeyError as exc:
            raise ConfigError(f"missing config field: {exc}") from exc
        except TypeError as exc:
            raise ConfigError(f"bad config structure: {exc}") from exc
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _default_envs(seed: int) -> tuple[list[EnvironmentSpec], list[EnvironmentSpec]]:
    def env(env_id: int) -> EnvironmentSpec:
        return EnvironmentSpec(
            env_id=env_id,
            n_paths_range=(48, 64),
            delay_spread_s=200e-9,
            gain_decay=4.0,
            seed=seed * 1000 + env_id,
        )

    return [env(1)], [env(2), env(3)]


def paper_profile(seed: int = 0) -> ExperimentConfig:
    """Full-size configuration: one 40k-sample source, two 5k-sample targets."""
    source, targets = _default_envs(seed)
    return ExperimentConfig(
        ofdm=OfdmConfig(),
        source_envs=source,
        target_envs=targets,
        n_source=40000,
        n_target=5000,
        n_adapt=1000,
        n_test=4000,
        snr_list_db=[0.0, 10.0, 20.0, 30.0, 40.0],
        train_snr_db=20.0,
        algorithms=["direct", "joint", "dtl", "meta"],
        quantizer_epsilon=0.1,
        hidden_dims=[512, 1024, 1024, 512],
        train=TrainConfig(batch_size=128, learning_rate=1e-3, max_iterations=20000, seed=seed),
        meta=MetaConfig(
            inner_lr=1e-3,
            outer_lr=1e-3,
            inner_steps=1,
            task_batch=32,
            adapt_steps=300,
            max_meta_iterations=400,
        ),
        meta_tasks=TaskSplitConfig(n_tasks=400, samples_per_task=100, support_fraction=0.5),
        seed=seed,
    )


def desk_profile(seed: int = 0) -> ExperimentConfig:
    """Shrunk configuration for interactive checks and CI (same structure)."""
    source, targets = _default_envs(seed)
    return ExperimentConfig(
        ofdm=OfdmConfig(),
        source_envs=source,
        target_envs=targets,
        n_source=4000,
        n_target=1000,
        n_adapt=500,
        n_test=500,
        snr_list_db=[20.0],
        train_snr_db=20.0,
        algorithms=["direct", "joint", "dtl", "meta"],
        quantizer_epsilon=0.1,
        hidden_dims=[128, 256, 256, 128],
        train=TrainConfig(batch_size=128, learning_rate=1e-3, max_iterations=4000, seed=seed),
        meta=MetaConfig(
            inner_lr=1e-3,
            outer_lr=1e-3,
            inner_steps=1,
            task_batch=32,
            adapt_steps=300,
            max_meta_iterations=120,
        ),
        meta_tasks=TaskSplitConfig(n_tasks=40, samples_per_task=100, support_fraction=0.5),
        seed=seed,
    )


def apply_scale(cfg: ExperimentConfig) -> ExperimentConfig:
    """Shrink sample counts, task count and hidden widths by scale_factor."""
    s = cfg.scale_factor
    if s == 1.0:
        return cfg
    shrink = lambda v, floor=1: max(floor, int(round(v * s)))
    return replace(
        cfg,
        n_source=shrink(cfg.n_source),
        n_target=shrink(cfg.n_target),
        n_adapt=shrink(cfg.n_adapt),
        n_test=shrink(cfg.n_test),
        hidden_dims=[shrink(h, floor=8) for h in cfg.hidden_dims],
        meta_tasks=replace(cfg.meta_tasks, n_tasks=shrink(cfg.meta_tasks.n_tasks)),
        scale_factor=1.0,
    )


# ---------------------------------------------------------------------------
# report structures


@dataclass(frozen=True)
class ReportRow:
    algorithm: str
    env: int
    snr_db: float
    nmse: float
    ker: float
    kgr: float
    wall_time_s: float
    seed: int
    axis: str | None = None
    axis_value: float | None = None


@dataclass(frozen=True)
class RandomnessRow:
    algorithm: str
    env: int
    snr_db: float
    test_name: str
    mode: str
    pass_ratio: float
    n_keys: int
    axis: str | None = None
    axis_value: float | None = None


@dataclass(frozen=True)
class ExperimentReport:
    rows: list[ReportRow]
    randomness: list[RandomnessRow] = field(default_factory=list)

    def cell(self, algorithm: str, env: int, snr_db: float) -> ReportRow:
        for row in self.rows:
            if row.algorithm == algorithm and row.env == env and row.snr_db == snr_db:
                return row
        raise KeyError(f"no report row for ({algorithm}, {env}, {snr_db})")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return "" if value is None else str(value)


def emit_report(report: ExperimentReport, fmt: str, path: str | Path) -> None:
    """Write the report as long-format CSV or as JSON.

    CSV columns are exactly (algorithm, env, snr_db, nmse, ker, kgr,
    wall_time_s, seed); sweep reports prepend (axis, axis_value).
    """
    path = Path(path)
    if fmt == "csv":
        swept = any(r.axis is not None for r in report.rows)
        columns = SWEEP_COLUMNS if swept else CSV_COLUMNS
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in report.rows:
            writer.writerow([_fmt(getattr(row, c)) for c in columns])
        path.write_text(buf.getvalue())
    elif fmt == "json":
        path.write_text(json.dumps(encode(report), indent=2) + "\n")
    else:
        raise ConfigError(f"unknown report format {fmt!r}")


def report_from_json(path: str | Path) -> ExperimentReport:
    return decode(ExperimentReport, json.loads(Path(path).read_text()), str(path))


# ---------------------------------------------------------------------------
# metrics


def nmse(
    predicted: np.ndarray, actual: np.ndarray, return_excluded: bool = False
) -> float | tuple[float, int]:
    """Mean of per-sample squared-error to squared-norm ratios.

    Samples whose target norm falls below 1e-12 are excluded; requesting
    ``return_excluded`` also reports how many were dropped.
    """
    predicted = np.atleast_2d(np.asarray(predicted, dtype=float))
    actual = np.atleast_2d(np.asarray(actual, dtype=float))
    if predicted.shape != actual.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {actual.shape}")
    norms = np.sum(actual * actual, axis=1)
    keep = norms >= NMSE_DEGENERATE_FLOOR
    n_excluded = int(np.count_nonzero(~keep))
    if not np.any(keep):
        raise ValueError("all samples have degenerate target norms")
    err = np.sum((predicted[keep] - actual[keep]) ** 2, axis=1)
    value = float(np.mean(err / norms[keep]))
    return (value, n_excluded) if return_excluded else value


@dataclass(frozen=True)
class KeyMetrics:
    ker: float
    kgr: float
    alice_keys: list[np.ndarray]
    bob_keys: list[np.ndarray]


def score_keys(
    predicted: np.ndarray, actual: np.ndarray, epsilon: float, n_subcarriers: int
) -> KeyMetrics:
    """Quantize both parties per sample, align, and pool error statistics.

    KER is total disagreeing bits over total aligned bits (1.0 when nothing
    aligns anywhere); KGR is the mean per-sample aligned bits per subcarrier.
    """
    qcfg = QuantizerConfig(epsilon)
    errors = 0
    total = 0
    kgr_sum = 0.0
    alice_keys: list[np.ndarray] = []
    bob_keys: list[np.ndarray] = []
    for i in range(predicted.shape[0]):
        ka = quantize_guardband(predicted[i], qcfg, party="alice")
        kb = quantize_guardband(actual[i], qcfg, party="bob")
        bits_a, bits_b = align_keys(ka, kb)
        errors += int(np.count_nonzero(bits_a != bits_b))
        total += bits_a.size
        kgr_sum += key_generation_ratio(bits_a.size, n_subcarriers)
        if bits_a.size:
            alice_keys.append(bits_a)
            bob_keys.append(bits_b)
    ker = errors / total if total else 1.0
    return KeyMetrics(
        ker=ker, kgr=kgr_sum / predicted.shape[0], alice_keys=alice_keys, bob_keys=bob_keys
    )


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class _TargetData:
    spec: EnvironmentSpec
    adapt_pairs: PairSet
    test_pairs: dict[float, PairSet]


def _feature_pairs(ds: EnvironmentDataset, alice: Normalizer, bob: Normalizer) -> PairSet:
    return PairSet(
        inputs=normalize(alice, complex_to_features(ds.h_ul)),
        targets=normalize(bob, complex_to_features(ds.h_dl)),
    )


def _data_fields(cfg: ExperimentConfig) -> tuple:
    """Every config field that ``_prepare_data`` reads (keep the two in step):
    configs with equal fields get identical data."""
    return (
        cfg.ofdm,
        cfg.source_envs,
        cfg.target_envs,
        (cfg.n_source, cfg.n_target, cfg.n_adapt, cfg.n_test),
        cfg.snr_list_db,
        cfg.train_snr_db,
    )


def _source_features(spec: EnvironmentSpec, cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Uplink and downlink features of one source environment (its dataset is freed on return)."""
    ds = generate_env_dataset(build_environment(spec), cfg.n_source, cfg.train_snr_db, cfg.ofdm)
    return complex_to_features(ds.h_ul), complex_to_features(ds.h_dl)


def _prepare_data(cfg: ExperimentConfig) -> tuple[PairSet, list[_TargetData]]:
    ul_parts, dl_parts = zip(*(_source_features(spec, cfg) for spec in cfg.source_envs))
    src_ul = ul_parts[0] if len(ul_parts) == 1 else np.concatenate(ul_parts)
    src_dl = dl_parts[0] if len(dl_parts) == 1 else np.concatenate(dl_parts)
    del ul_parts, dl_parts  # with several source envs, keep only the pooled copies
    alice_src = fit_normalizer(src_ul)
    bob_src = fit_normalizer(src_dl)
    source_pairs = PairSet(inputs=normalize(alice_src, src_ul), targets=normalize(bob_src, src_dl))

    targets = []
    test_start = cfg.n_target - cfg.n_test
    for spec in cfg.target_envs:
        env = build_environment(spec)
        adapt_ds = generate_env_dataset(env, cfg.n_adapt, cfg.train_snr_db, cfg.ofdm)
        alice_t = fit_normalizer(complex_to_features(adapt_ds.h_ul))
        bob_t = fit_normalizer(complex_to_features(adapt_ds.h_dl))
        adapt_pairs = _feature_pairs(adapt_ds, alice_t, bob_t)
        test_pairs = {}
        for snr in cfg.snr_list_db:
            test_ds = generate_env_dataset(env, cfg.n_test, snr, cfg.ofdm, start_index=test_start)
            test_pairs[snr] = _feature_pairs(test_ds, alice_t, bob_t)
        targets.append(_TargetData(spec=spec, adapt_pairs=adapt_pairs, test_pairs=test_pairs))
    return source_pairs, targets


def _model_chains(
    cfg: ExperimentConfig,
    init: NetworkParams,
    source_pairs: PairSet,
    targets: list[_TargetData],
    clock,
) -> list[Callable[[], dict[tuple[str, int], tuple[NetworkParams, float]]]]:
    """The run's independent model-training chains, in queue order:
    meta-training with the ``meta`` adaptations, one ``joint`` training per
    target, and source pretraining with the ``direct`` and ``dtl`` models.
    (On two cores the benchmark's desk workload ran as fast in this order as
    with pretraining first, and its peak RSS was 5 MB lower.)  Each chain
    returns ``{(algorithm, env_id): (network, preparation time)}``; within a
    chain the order and the seeds are fixed, so the networks do not depend on
    which chains run at the same time.

    The chains call ``train_supervised``, ``meta_train`` and ``adapt`` by
    their module-global names, so wrappers set on this module see every call.
    """
    algorithms = cfg.algorithms
    adapt_seeds = [cfg.seed + 307 + env_idx for env_idx in range(len(targets))]

    def pretrain_chain():
        t0 = clock()
        pretrained = train_supervised(init, source_pairs, cfg.train)
        pretrain_elapsed = clock() - t0
        prepared = {}
        for target, seed in zip(targets, adapt_seeds):
            env_id = target.spec.env_id
            if "direct" in algorithms:
                prepared["direct", env_id] = (pretrained, pretrain_elapsed)
            if "dtl" in algorithms:
                t0 = clock()
                net = adapt(pretrained, target.adapt_pairs, cfg.meta, seed=seed)
                prepared["dtl", env_id] = (net, pretrain_elapsed + (clock() - t0))
        return prepared

    def joint_chain(target: _TargetData):
        t0 = clock()
        pooled = PairSet.concat([source_pairs, target.adapt_pairs])
        net = train_supervised(init, pooled, cfg.train)
        return {("joint", target.spec.env_id): (net, clock() - t0)}

    def meta_chain():
        tasks = partition_source_into_tasks(
            source_pairs,
            cfg.meta_tasks.n_tasks,
            cfg.meta_tasks.samples_per_task,
            cfg.meta_tasks.support_fraction,
            seed=cfg.seed + 101,
        )
        t0 = clock()
        meta_init = meta_train(init, tasks, cfg.meta, seed=cfg.seed + 211)
        meta_elapsed = clock() - t0
        del tasks  # the tasks copy the source rows they hold
        prepared = {}
        for target, seed in zip(targets, adapt_seeds):
            t0 = clock()
            net = adapt(meta_init, target.adapt_pairs, cfg.meta, seed=seed)
            prepared["meta", target.spec.env_id] = (net, meta_elapsed + (clock() - t0))
        return prepared

    chains = []
    if "meta" in algorithms:
        chains.append(meta_chain)
    if "joint" in algorithms:
        chains.extend(functools.partial(joint_chain, target) for target in targets)
    if "direct" in algorithms or "dtl" in algorithms:
        chains.append(pretrain_chain)
    return chains


def _chain_width(n_chains: int) -> int:
    """Threads that run the model chains: one per usable core, at most one per
    chain, and 1 (serial) unless every BLAS call runs on one thread."""
    if not _BLAS_PINNED:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_chains))


def _run_chains(chains: list[Callable], width: int) -> list:
    """Run ``chains`` on this thread and ``width - 1`` helper threads, which
    take them in order from one shared queue; return their results in chain
    order.  Once a chain raises, no further chain starts, and its error is
    raised here after the chains already running have ended.  An interrupt
    (Ctrl-C) also starts no further chain but is raised at once: the helpers
    are daemon threads, so the process need not wait for their chains."""
    results: list = [None] * len(chains)
    queue = iter(enumerate(chains))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work() -> None:
        while True:
            with lock:
                item = None if errors else next(queue, None)
            if item is None:
                return
            idx, chain = item
            try:
                results[idx] = chain()
            except Exception as exc:
                with lock:
                    errors.append(exc)

    helpers = [threading.Thread(target=work, daemon=True) for _ in range(width - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()  # this thread works too, so it reuses the memory that data synthesis freed here
        for helper in helpers:
            helper.join()
    except BaseException as exc:
        with lock:
            errors.append(exc)
        raise
    if errors:
        raise errors[0]
    return results


def run_pipeline(cfg: ExperimentConfig, key_sink=None, data=None) -> ExperimentReport:
    """Run every selected algorithm over every (target env, SNR) cell.

    ``key_sink(algorithm, env_id, snr_db, alice_keys, bob_keys)`` is called
    per cell when given, e.g. to write ASCII key dumps for external
    randomness suites.  ``data`` is the synthesized data of a run whose
    scaled config has the same :func:`_data_fields` (``sweep`` passes it);
    without it the data is synthesized here.
    """
    cfg = apply_scale(cfg)
    clock = time.perf_counter if cfg.record_wall_time else (lambda: 0.0)
    if cfg.record_wall_time and _BLAS_PINNED:
        # with one BLAS thread a stage computes only on its own thread, so that
        # thread's CPU time is the stage's time alone, whatever runs beside it
        clock = time.thread_time

    source_pairs, targets = _prepare_data(cfg) if data is None else data
    dim = 2 * cfg.ofdm.n_subcarriers
    dims = [dim, *cfg.hidden_dims, dim]
    init = init_network(dims, seed=cfg.seed)

    chains = _model_chains(cfg, init, source_pairs, targets, clock)
    # (algorithm, env_id) -> (network, preparation time); identity predicts its input
    models: dict[tuple[str, int], tuple[NetworkParams | None, float]] = {
        ("identity", t.spec.env_id): (None, 0.0) for t in targets if "identity" in cfg.algorithms
    }
    for prepared in _run_chains(chains, _chain_width(len(chains))):
        models.update(prepared)

    def evaluate(alg: str, target: _TargetData, snr: float) -> tuple[ReportRow, list[RandomnessRow]]:
        env_id = target.spec.env_id
        test = target.test_pairs[snr]
        net, prep_time = models[(alg, env_id)]
        t0 = clock()
        preds = test.inputs if net is None else forward(net, test.inputs)
        cell_nmse = nmse(preds, test.targets)
        keys = score_keys(preds, test.targets, cfg.quantizer_epsilon, cfg.ofdm.n_subcarriers)
        if key_sink is not None:
            key_sink(alg, env_id, snr, keys.alice_keys, keys.bob_keys)
        elapsed = (clock() - t0) + prep_time
        row = ReportRow(
            algorithm=alg,
            env=env_id,
            snr_db=snr,
            nmse=cell_nmse,
            ker=keys.ker,
            kgr=keys.kgr,
            wall_time_s=elapsed,
            seed=cfg.seed,
        )
        battery = run_battery(keys.alice_keys) if cfg.compute_randomness and keys.alice_keys else []
        return row, [
            RandomnessRow(alg, env_id, snr, b.test_name, b.mode, b.pass_ratio, b.n_keys) for b in battery
        ]

    results = [
        evaluate(alg, target, snr)
        for alg in cfg.algorithms
        for target in targets
        for snr in cfg.snr_list_db
    ]
    order = {alg: i for i, alg in enumerate(KNOWN_ALGORITHMS)}
    results.sort(key=lambda pair: (order[pair[0].algorithm], pair[0].env, pair[0].snr_db))
    rows = [r for r, _ in results]
    randomness = [rr for _, rand in results for rr in rand]
    return ExperimentReport(rows=rows, randomness=randomness)


# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = ("snr", "n_ad", "g_ad", "g_tr", "e_batch")


def _with_axis(cfg: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis == "n_ad":
        return replace(cfg, n_adapt=int(value))
    if axis == "g_ad":
        return replace(cfg, meta=replace(cfg.meta, adapt_steps=int(value)))
    if axis == "g_tr":
        return replace(cfg, meta=replace(cfg.meta, inner_steps=int(value)))
    if axis == "e_batch":
        return replace(cfg, meta=replace(cfg.meta, task_batch=int(value)))
    raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")


def sweep(cfg: ExperimentConfig, axis: str, values: list[float]) -> ExperimentReport:
    """Re-run the pipeline per axis value with shared seeds for pairing.

    The SNR axis is a single run (training is shared across test SNRs);
    other axes re-run the pipeline once per value, synthesizing the data
    again only when a value changes a data field (sizes, environments, SNRs).
    Report and randomness rows carry the axis name and value for plot-ready
    long-format output.
    """
    if not values:
        raise ConfigError("sweep values must be non-empty")
    if axis == "snr":
        report = run_pipeline(replace(cfg, snr_list_db=[float(v) for v in values]))
        return ExperimentReport(
            rows=[replace(r, axis="snr", axis_value=r.snr_db) for r in report.rows],
            randomness=[replace(r, axis="snr", axis_value=r.snr_db) for r in report.randomness],
        )
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    configs = [_with_axis(cfg, axis, value) for value in values]  # validate every value first
    rows: list[ReportRow] = []
    randomness: list[RandomnessRow] = []
    data_fields, data = None, None
    for value, value_cfg in zip(values, configs):
        scaled = apply_scale(value_cfg)
        fields = _data_fields(scaled)
        if fields != data_fields:
            data = None  # release the previous dataset before synthesizing the next
            data_fields, data = fields, _prepare_data(scaled)
        report = run_pipeline(value_cfg, data=data)
        tag = {"axis": axis, "axis_value": float(value)}
        rows.extend(replace(r, **tag) for r in report.rows)
        randomness.extend(replace(r, **tag) for r in report.randomness)
    return ExperimentReport(rows=rows, randomness=randomness)
