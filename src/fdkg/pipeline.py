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
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import _BLAS_PINNED
from .channel_sim import (
    EnvironmentSpec,
    OfdmConfig,
    build_environment,
    generate_env_dataset,
)
from .codec import decode, encode
from .errors import ConfigError, NumericError
from .features import Normalizer, complex_to_features, fit_normalizer, normalize
from .keygen import check_epsilon, quantize_guardband
from .neuralnet import NetworkParams, forward, init_network
from .randomness import run_battery
from .strategies import (
    ADAPT_BATCH_SIZE,
    MetaConfig,
    PairSet,
    TrainConfig,
    adapt,
    check_task_split,
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

    def __post_init__(self) -> None:
        check_task_split(self.n_tasks, self.samples_per_task, self.support_fraction)


@dataclass(frozen=True)
class Environments:
    """The known (source) environments, pooled for training, and the new (target) ones."""

    source: list[EnvironmentSpec]
    targets: list[EnvironmentSpec]

    def __post_init__(self) -> None:
        if not self.source or not self.targets:
            raise ConfigError("need at least one source and one target environment")
        target_ids = [spec.env_id for spec in self.targets]
        if len(set(target_ids)) != len(target_ids):
            raise ConfigError(f"target environments need distinct env_ids, got {target_ids}")


@dataclass(frozen=True)
class Sizes:
    """Samples per source and per target environment; a target's first ``n_adapt``
    samples fit its normalizers and adapt the networks, and its last ``n_test`` test them."""

    n_source: int
    n_target: int
    n_adapt: int
    n_test: int

    def __post_init__(self) -> None:
        if self.n_target < 1:
            raise ConfigError("n_target must be >= 1")
        # n_source and n_adapt samples fit normalizers, which one sample gives zero range
        for name, n in (("n_source", self.n_source), ("n_adapt", self.n_adapt)):
            if n < 2:
                raise ConfigError(f"{name} must be >= 2 after scale_factor is applied, got {n}")
        if self.n_test < 1 or self.n_adapt + self.n_test > self.n_target:
            raise ConfigError(
                f"need n_adapt + n_test <= n_target, got {self.n_adapt}+{self.n_test} > {self.n_target}"
            )


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One experiment; the config JSON holds these fields in this order."""

    seed: int = 0
    scale_factor: float = 1.0
    ofdm: OfdmConfig
    environments: Environments
    sizes: Sizes
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for alg in self.algorithms:
            if alg not in KNOWN_ALGORITHMS:
                raise ConfigError(f"unknown algorithm {alg!r}; choose from {KNOWN_ALGORITHMS}")
        if not self.algorithms:
            raise ConfigError("no algorithms selected")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigError(f"algorithms entries must be distinct, got {self.algorithms}")
        if not _print_distinct(self.snr_list_db):
            raise ConfigError(
                f"snr_list_db entries must be distinct at the report CSV's 9 significant digits, got {self.snr_list_db}"
            )
        if not self.snr_list_db:
            raise ConfigError("snr_list_db must be non-empty")
        for snr in (*self.snr_list_db, self.train_snr_db):
            if math.isnan(snr) or snr == -math.inf:
                raise ConfigError(f"SNRs must be finite or +inf (noiseless), got {snr}")
        if not 0.0 < self.scale_factor <= 1.0:
            raise ConfigError(f"scale_factor must lie in (0, 1], got {self.scale_factor}")
        check_epsilon(self.quantizer_epsilon)
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError(f"hidden_dims entries must be >= 1, got {self.hidden_dims}")
        if self.scale_factor != 1.0:
            apply_scale(self)  # the scaled sizes, which a run uses, must pass these checks too
        elif "meta" in self.algorithms:
            tasks = self.meta_tasks
            needed = tasks.n_tasks * tasks.samples_per_task
            pooled = self.sizes.n_source * len(self.environments.source)  # each source env contributes n_source
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
        return encode(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return decode(cls, d, "config")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _default_envs(seed: int) -> Environments:
    def env(env_id: int) -> EnvironmentSpec:
        return EnvironmentSpec(
            env_id=env_id,
            n_paths_range=(48, 64),
            delay_spread_s=200e-9,
            gain_decay=4.0,
            seed=seed * 1000 + env_id,
        )

    return Environments(source=[env(1)], targets=[env(2), env(3)])


def paper_profile(seed: int = 0) -> ExperimentConfig:
    """Full-size configuration: one 40k-sample source, two 5k-sample targets."""
    return ExperimentConfig(
        ofdm=OfdmConfig(),
        environments=_default_envs(seed),
        sizes=Sizes(n_source=40000, n_target=5000, n_adapt=1000, n_test=4000),
        snr_list_db=[0.0, 10.0, 20.0, 30.0, 40.0],
        train_snr_db=20.0,
        algorithms=["direct", "joint", "dtl", "meta"],
        quantizer_epsilon=0.1,
        hidden_dims=[512, 1024, 1024, 512],
        train=TrainConfig(batch_size=128, learning_rate=1e-3, max_iterations=20000),
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
    """The paper profile shrunk for interactive checks and CI: smaller sizes, hidden
    widths, iteration caps and task count, and one test SNR."""
    paper = paper_profile(seed)
    return replace(
        paper,
        sizes=Sizes(n_source=4000, n_target=1000, n_adapt=500, n_test=500),
        snr_list_db=[20.0],
        hidden_dims=[128, 256, 256, 128],
        train=replace(paper.train, max_iterations=4000),
        meta=replace(paper.meta, max_meta_iterations=120),
        meta_tasks=replace(paper.meta_tasks, n_tasks=40),
    )


def apply_scale(cfg: ExperimentConfig) -> ExperimentConfig:
    """Shrink sample counts, task count and hidden widths by scale_factor."""
    s = cfg.scale_factor
    if s == 1.0:
        return cfg
    shrink = lambda v, floor=1: max(floor, int(round(v * s)))
    return replace(
        cfg,
        sizes=Sizes(*map(shrink, astuple(cfg.sizes))),
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
    pass_ratio: float | None  # over the n_applicable results; None when none applied
    n_keys: int
    n_applicable: int
    axis: str | None = None
    axis_value: float | None = None


@dataclass(frozen=True)
class ExperimentReport:
    rows: list[ReportRow]
    randomness: list[RandomnessRow] = field(default_factory=list)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return "" if value is None else str(value)


def _print_distinct(values) -> bool:
    """Whether no two of the numbers ``values`` print alike in the report CSV."""
    return len({_fmt(float(v)) for v in values}) == len(values)


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
    norms = np.sum(actual * actual, axis=1)
    keep = norms >= NMSE_DEGENERATE_FLOOR
    n_excluded = int(np.count_nonzero(~keep))
    if not np.any(keep):
        raise NumericError("all samples have degenerate target norms")
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
    The keys are each sample's aligned bits, in sample order, omitting
    samples that align nothing.
    """
    ones_a, kept_a = quantize_guardband(predicted, epsilon)
    ones_b, kept_b = quantize_guardband(actual, epsilon)
    common = kept_a & kept_b
    bits_a = ones_a[common].astype(np.uint8)
    bits_b = ones_b[common].astype(np.uint8)
    lengths = np.count_nonzero(common, axis=1)
    errors = int(np.count_nonzero(bits_a != bits_b))
    ker = errors / bits_a.size if bits_a.size else 1.0
    cuts = np.cumsum(lengths)[:-1]
    return KeyMetrics(
        ker=ker,
        kgr=float(np.mean(lengths / n_subcarriers)),
        alice_keys=[key for key in np.split(bits_a, cuts) if key.size],
        bob_keys=[key for key in np.split(bits_b, cuts) if key.size],
    )


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class _TargetData:
    spec: EnvironmentSpec
    adapt_pairs: PairSet
    test_pairs: dict[float, PairSet]


def _feature_pairs(ul: np.ndarray, dl: np.ndarray, alice: Normalizer, bob: Normalizer) -> PairSet:
    return PairSet(inputs=normalize(alice, ul), targets=normalize(bob, dl))


def _source_features(spec: EnvironmentSpec, cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Uplink and downlink features of one source environment (its complex arrays are freed on return)."""
    h_ul, h_dl = generate_env_dataset(build_environment(spec), cfg.sizes.n_source, cfg.train_snr_db, cfg.ofdm)
    return complex_to_features(h_ul), complex_to_features(h_dl)


def _prepare_data(cfg: ExperimentConfig) -> tuple[PairSet, list[_TargetData]]:
    ul_parts, dl_parts = zip(*(_source_features(spec, cfg) for spec in cfg.environments.source))
    src_ul = ul_parts[0] if len(ul_parts) == 1 else np.concatenate(ul_parts)
    src_dl = dl_parts[0] if len(dl_parts) == 1 else np.concatenate(dl_parts)
    del ul_parts, dl_parts  # with several source envs, keep only the pooled copies
    source_pairs = _feature_pairs(src_ul, src_dl, fit_normalizer(src_ul), fit_normalizer(src_dl))

    targets = []
    sizes = cfg.sizes
    test_start = sizes.n_target - sizes.n_test
    for spec in cfg.environments.targets:
        env = build_environment(spec)
        adapt_ul, adapt_dl = map(
            complex_to_features, generate_env_dataset(env, sizes.n_adapt, cfg.train_snr_db, cfg.ofdm)
        )
        alice_t, bob_t = fit_normalizer(adapt_ul), fit_normalizer(adapt_dl)
        adapt_pairs = _feature_pairs(adapt_ul, adapt_dl, alice_t, bob_t)
        test_pairs = {}
        for snr in cfg.snr_list_db:
            test_h = generate_env_dataset(env, sizes.n_test, snr, cfg.ofdm, start_index=test_start)
            test_pairs[snr] = _feature_pairs(*map(complex_to_features, test_h), alice_t, bob_t)
        targets.append(_TargetData(spec=spec, adapt_pairs=adapt_pairs, test_pairs=test_pairs))
    return source_pairs, targets


_Cell = tuple[ReportRow, list[RandomnessRow]]


@dataclass(frozen=True)
class _Job:
    """One entry of a run's queue.  ``work()`` does it and returns the
    ``n_follow_ups`` jobs it makes ready; ``estimate`` is the work left until
    the last of those ends (optimizer steps x rows per step, this job's plus
    its longest follow-up's)."""

    estimate: int
    work: Callable[[], list["_Job"]]
    n_follow_ups: int = 0


def _model_jobs(
    cfg: ExperimentConfig,
    init: NetworkParams,
    source_pairs: PairSet,
    targets: list[_TargetData],
    key_sink,
    cells: list[_Cell],
) -> list[_Job]:
    """The run's jobs, in queue order: meta-training, one ``joint`` training per
    target, source pretraining, which also scores ``direct``, and the
    ``identity`` cells.  A finished meta-training or pretraining returns one
    adaptation job per target (``meta`` or ``dtl``).  A job scores the cells of
    each network it trains as soon as it has it and appends them to ``cells``,
    so no network outlives the jobs that read it.  Every job keeps its own
    seeds, so the cells do not depend on which jobs run at the same time.

    The estimates come from the config alone.  The jobs call
    ``train_supervised``, ``meta_train``, ``adapt``, ``forward``, ``nmse``,
    ``score_keys`` and ``run_battery`` by their module-global names, so
    wrappers set on this module see every call.
    """
    algorithms, sizes, meta, split = cfg.algorithms, cfg.sizes, cfg.meta, cfg.meta_tasks
    clock = time.perf_counter if cfg.record_wall_time else (lambda: 0.0)
    if cfg.record_wall_time and _BLAS_PINNED:
        # with one BLAS thread a stage computes only on its own thread, so that
        # thread's CPU time is the stage's time alone, whatever runs beside it
        clock = time.thread_time
    n_pool = sizes.n_source * len(cfg.environments.source)
    supervised_work = lambda n_rows: cfg.train.max_iterations * min(cfg.train.batch_size, n_rows)
    adapt_work = meta.adapt_steps * min(ADAPT_BATCH_SIZE, sizes.n_adapt)
    n_support = check_task_split(split.n_tasks, split.samples_per_task, split.support_fraction)
    task_rows = meta.inner_steps * n_support + split.samples_per_task - n_support
    meta_work = meta.max_meta_iterations * meta.task_batch * task_rows

    def score(alg: str, target: _TargetData, net: NetworkParams | None, prep_time: float) -> None:
        """Append the cells of ``net`` (None predicts the input) on ``target``, one per test SNR."""
        env_id = target.spec.env_id
        for snr in cfg.snr_list_db:
            test = target.test_pairs[snr]
            t0 = clock()
            preds = test.inputs if net is None else forward(net, test.inputs)
            cell_nmse = nmse(preds, test.targets)
            keys = score_keys(preds, test.targets, cfg.quantizer_epsilon, cfg.ofdm.n_subcarriers)
            elapsed = (clock() - t0) + prep_time  # the key dump is not the cell's work
            if key_sink is not None:
                key_sink(alg, env_id, snr, keys.alice_keys, keys.bob_keys)
            row = ReportRow(alg, env_id, snr, cell_nmse, keys.ker, keys.kgr, elapsed, cfg.seed)
            battery = run_battery(keys.alice_keys) if cfg.compute_randomness and keys.alice_keys else []
            randomness = [
                RandomnessRow(alg, env_id, snr, b.test_name, b.mode, b.pass_ratio, b.n_keys, b.n_applicable)
                for b in battery
            ]
            cells.append((row, randomness))

    def adapted(kind: str, target: _TargetData, seed: int, net: NetworkParams, elapsed: float) -> list[_Job]:
        t0 = clock()
        tuned = adapt(net, target.adapt_pairs, meta, seed=seed)
        score(kind, target, tuned, elapsed + (clock() - t0))
        return []

    def adaptations(kind: str, net: NetworkParams, elapsed: float) -> list[_Job]:
        """One job per target that adapts ``net``, trained in ``elapsed``, and scores its ``kind`` cells."""
        return [
            _Job(adapt_work, functools.partial(adapted, kind, target, cfg.seed + 307 + env_idx, net, elapsed))
            for env_idx, target in enumerate(targets)
        ]

    def pretrain() -> list[_Job]:
        t0 = clock()
        pretrained = train_supervised(init, source_pairs, cfg.train, seed=cfg.seed)
        elapsed = clock() - t0
        for target in targets if "direct" in algorithms else []:
            score("direct", target, pretrained, elapsed)
        return adaptations("dtl", pretrained, elapsed) if "dtl" in algorithms else []

    def joint(target: _TargetData) -> list[_Job]:
        t0 = clock()
        net = train_supervised(init, PairSet.concat([source_pairs, target.adapt_pairs]), cfg.train, seed=cfg.seed)
        score("joint", target, net, clock() - t0)
        return []

    def meta_training() -> list[_Job]:
        tasks = partition_source_into_tasks(
            source_pairs, split.n_tasks, split.samples_per_task, split.support_fraction, seed=cfg.seed + 101
        )
        t0 = clock()
        meta_init = meta_train(init, tasks, meta, seed=cfg.seed + 211)
        return adaptations("meta", meta_init, clock() - t0)

    def identity() -> list[_Job]:
        for target in targets:
            score("identity", target, None, 0.0)
        return []

    n_targets = len(targets)
    jobs = []
    if "meta" in algorithms:
        jobs.append(_Job(meta_work + adapt_work, meta_training, n_targets))
    if "joint" in algorithms:
        joint_work = supervised_work(n_pool + sizes.n_adapt)
        jobs.extend(_Job(joint_work, functools.partial(joint, target)) for target in targets)
    if "direct" in algorithms or "dtl" in algorithms:
        dtl = "dtl" in algorithms
        jobs.append(_Job(supervised_work(n_pool) + dtl * adapt_work, pretrain, dtl * n_targets))
    if "identity" in algorithms:
        jobs.append(_Job(0, identity))
    return jobs


def _chain_width(n_jobs: int) -> int:
    """Threads that run the jobs: one per usable core, at most one per job the
    run will ever have (``n_jobs``, follow-ups included), and 1 (serial)
    unless every BLAS call runs on one thread."""
    if not _BLAS_PINNED:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_jobs))


def _run_jobs(jobs: list[_Job], width: int) -> None:
    """Run ``jobs``, and the jobs they return, on this thread and ``width - 1``
    helper threads.  A free thread takes the ready job with the largest
    estimate (the first queued among equals), or waits while a running job
    may still return more.  Once a job raises, no further job starts, and its
    error is raised here after the jobs already running have ended.  An
    interrupt (Ctrl-C) also starts no further job but is raised at once: the
    helpers are daemon threads, so the process need not wait for their jobs."""
    ready = list(jobs)  # in queue order; scanning it per pick costs little next to any job
    cond = threading.Condition()
    errors: list[BaseException] = []
    running = 0

    def work() -> None:
        nonlocal running
        while True:
            with cond:
                while not (errors or ready) and running:
                    cond.wait()
                if errors or not ready:
                    return
                # max() returns the first of equal maxima, so ties go in queue order
                job = ready.pop(max(range(len(ready)), key=lambda i: ready[i].estimate))
                running += 1
            try:
                new = job.work()
            except Exception as exc:
                new = []
                errors.append(exc)
            with cond:
                running -= 1
                ready.extend(new)
                cond.notify_all()

    helpers = [threading.Thread(target=work, daemon=True) for _ in range(width - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()  # this thread works too, so it reuses the memory that data synthesis freed here
        for helper in helpers:
            helper.join()
    except BaseException as exc:
        with cond:
            errors.append(exc)
            cond.notify_all()
        raise
    if errors:
        raise errors[0]


def _run_group(cfgs: list[ExperimentConfig], key_sink=None) -> list[ExperimentReport]:
    """The reports of scaled configs with the same data and initial network (the
    values of one sweep on any axis but ``n_ad``): those are made once, from
    ``cfgs[0]``, and the jobs of all of them share one queue."""
    source_pairs, targets = _prepare_data(cfgs[0])
    dim = 2 * cfgs[0].ofdm.n_subcarriers
    init = init_network([dim, *cfgs[0].hidden_dims, dim], seed=cfgs[0].seed)
    cells: list[list[_Cell]] = [[] for _ in cfgs]
    jobs = [
        job
        for cfg, run_cells in zip(cfgs, cells)
        for job in _model_jobs(cfg, init, source_pairs, targets, key_sink, run_cells)
    ]
    _run_jobs(jobs, _chain_width(sum(1 + job.n_follow_ups for job in jobs)))
    order = {alg: i for i, alg in enumerate(KNOWN_ALGORITHMS)}
    reports = []
    for run_cells in cells:
        run_cells.sort(key=lambda cell: (order[cell[0].algorithm], cell[0].env, cell[0].snr_db))
        reports.append(
            ExperimentReport(rows=[row for row, _ in run_cells], randomness=[r for _, rs in run_cells for r in rs])
        )
    return reports


def run_pipeline(cfg: ExperimentConfig, key_sink=None) -> ExperimentReport:
    """Run every selected algorithm over every (target env, SNR) cell.

    ``key_sink(algorithm, env_id, snr_db, alice_keys, bob_keys)`` is called
    once per cell when given, e.g. to write ASCII key dumps for external
    randomness suites.  Cells are scored by the job that trained or adapted
    their model, so the sink may be called from pool threads, for several cells at
    once and in any order.
    """
    return _run_group([apply_scale(cfg)], key_sink)[0]


# ---------------------------------------------------------------------------
# sweeps

# integer sweep axis -> the (config section, field) it sets
SWEEP_FIELDS = {
    "n_ad": ("sizes", "n_adapt"),
    "g_ad": ("meta", "adapt_steps"),
    "g_tr": ("meta", "inner_steps"),
    "e_batch": ("meta", "task_batch"),
}
SWEEP_AXES = ("snr", *SWEEP_FIELDS)


def _with_axis(cfg: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    """``cfg`` with the integer ``axis`` set to ``value``, which must be a whole number."""
    if not float(value).is_integer():  # also rejects NaN and +-inf
        raise ConfigError(f"sweep axis {axis} takes whole numbers, got {value}")
    section, name = SWEEP_FIELDS[axis]
    return replace(cfg, **{section: replace(getattr(cfg, section), **{name: int(value)})})


def sweep(cfg: ExperimentConfig, axis: str, values: list[float]) -> ExperimentReport:
    """Re-run the pipeline per axis value with shared seeds for pairing.

    The SNR axis is a single run (training is shared across test SNRs);
    other axes train every value's models.  An ``n_ad`` value changes the
    data, so each one synthesizes its own and runs alone; the values of the
    other axes share one dataset, and their jobs run in one queue.
    Report and randomness rows carry the axis name and value for plot-ready
    long-format output.
    """
    if not values:
        raise ConfigError("sweep values must be non-empty")
    if not _print_distinct(values):
        raise ConfigError(f"sweep values must be distinct at the report CSV's 9 significant digits, got {values}")
    if axis == "snr":
        report = run_pipeline(replace(cfg, snr_list_db=[float(v) for v in values]))
        return ExperimentReport(
            rows=[replace(r, axis="snr", axis_value=r.snr_db) for r in report.rows],
            randomness=[replace(r, axis="snr", axis_value=r.snr_db) for r in report.randomness],
        )
    if axis not in SWEEP_FIELDS:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    # scaled first, so that each value is used as given; every value is validated before any work
    configs = [_with_axis(apply_scale(cfg), axis, value) for value in values]
    # only a sizes axis changes the data or the initial network; a group's data is freed before the next
    groups = [[c] for c in configs] if SWEEP_FIELDS[axis][0] == "sizes" else [configs]
    reports = [report for group in groups for report in _run_group(group)]
    tags = [{"axis": axis, "axis_value": float(value)} for value in values]
    return ExperimentReport(
        rows=[replace(r, **tag) for tag, report in zip(tags, reports) for r in report.rows],
        randomness=[replace(r, **tag) for tag, report in zip(tags, reports) for r in report.randomness],
    )
