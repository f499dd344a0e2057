import functools
import json
import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fdkg.channel_sim import EnvironmentSpec, OfdmConfig
from fdkg.codec import decode
from fdkg.errors import ConfigError, NumericError
from fdkg.pipeline import (
    CSV_COLUMNS,
    Environments,
    ExperimentConfig,
    ExperimentReport,
    Sizes,
    TaskSplitConfig,
    _Job,
    _run_jobs,
    _with_axis,
    apply_scale,
    desk_profile,
    emit_report,
    nmse,
    paper_profile,
    run_pipeline,
    score_keys,
    sweep,
)
from fdkg.strategies import MetaConfig, TrainConfig


def mini_config(
    seed: int = 0,
    f_dl: float = 2.5e9,
    snr: float = math.inf,
    algorithms: list[str] | None = None,
    **overrides,
) -> ExperimentConfig:
    def env(env_id: int) -> EnvironmentSpec:
        return EnvironmentSpec(
            env_id=env_id, n_paths_range=(8, 12), delay_spread_s=150e-9, seed=seed * 50 + env_id
        )

    cfg = ExperimentConfig(
        ofdm=OfdmConfig(f_ul_hz=2.4e9, f_dl_hz=f_dl, n_subcarriers=16),
        environments=Environments(source=[env(1)], targets=[env(2)]),
        sizes=Sizes(n_source=120, n_target=48, n_adapt=24, n_test=24),
        snr_list_db=[snr],
        train_snr_db=snr,
        algorithms=algorithms or ["identity"],
        quantizer_epsilon=0.1,
        hidden_dims=[24, 24],
        train=TrainConfig(batch_size=16, max_iterations=40),
        meta=MetaConfig(task_batch=2, adapt_steps=10, max_meta_iterations=3),
        meta_tasks=TaskSplitConfig(n_tasks=4, samples_per_task=20),
        seed=seed,
        record_wall_time=False,
    )
    return replace(cfg, **overrides) if overrides else cfg


class TestConfig:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            mini_config(algorithms=["direct", "bogus"])

    def test_inconsistent_split_sizes(self):
        with pytest.raises(ConfigError):
            mini_config(sizes=Sizes(n_source=120, n_target=48, n_adapt=40, n_test=40))  # 40 + 40 > 48

    def test_bad_epsilon(self):
        with pytest.raises(ConfigError):
            mini_config(quantizer_epsilon=0.7)

    def test_json_roundtrip(self, tmp_path):
        mini = mini_config(algorithms=["meta"])  # +inf SNRs, two source environments
        source = mini.environments.source
        mini = replace(mini, environments=replace(mini.environments, source=[*source, replace(source[0], env_id=5)]))
        for cfg in (desk_profile(seed=3), paper_profile(seed=1), mini):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg.to_dict()))
            assert ExperimentConfig.from_json(path) == cfg

    def test_json_layout(self):
        doc = desk_profile().to_dict()
        assert list(doc) == [
            "seed", "scale_factor", "ofdm", "environments", "sizes", "snr_list_db",
            "train_snr_db", "algorithms", "quantizer_epsilon", "hidden_dims", "train",
            "meta", "meta_tasks", "record_wall_time", "compute_randomness",
        ]
        assert list(doc["environments"]) == ["source", "targets"]
        assert list(doc["sizes"]) == ["n_source", "n_target", "n_adapt", "n_test"]
        assert doc["environments"]["source"][0]["n_paths_range"] == [48, 64]

    @pytest.mark.parametrize("profile, seed", [(desk_profile, 0), (paper_profile, 1)])
    def test_profile_json_matches_golden_file(self, profile, seed):
        golden = Path(__file__).parent / "golden" / f"{profile.__name__}_seed{seed}.json"
        assert json.dumps(profile(seed).to_dict(), indent=2) + "\n" == golden.read_text()

    def test_from_dict_unknown_group_key(self):
        doc = desk_profile().to_dict()
        doc["sizes"]["n_tset"] = 5
        with pytest.raises(ConfigError, match=r"config\.sizes: unknown fields \['n_tset'\]"):
            ExperimentConfig.from_dict(doc)

    def test_from_json_missing_field(self, tmp_path):
        doc = desk_profile().to_dict()
        del doc["sizes"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    def test_config_file_not_utf8(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(desk_profile().to_dict()).encode("utf-16-le"))
        with pytest.raises(ConfigError, match="not UTF-8 text"):
            ExperimentConfig.from_json(path)

    def test_scale_factor(self):
        cfg = replace(paper_profile(), scale_factor=0.1)
        scaled = apply_scale(cfg)
        assert scaled.sizes.n_source == 4000
        assert scaled.sizes.n_target == 500
        assert scaled.hidden_dims == [51, 102, 102, 51]
        assert scaled.meta_tasks.n_tasks == 40
        assert scaled.scale_factor == 1.0

    def test_hidden_dims_below_one_rejected(self):
        with pytest.raises(ConfigError):
            mini_config(hidden_dims=[24, 0])

    def test_meta_task_feasibility(self):
        with pytest.raises(ConfigError):  # 7 tasks x 20 samples > n_source 120
            mini_config(algorithms=["meta"], meta_tasks=TaskSplitConfig(n_tasks=7, samples_per_task=20))
        with pytest.raises(ConfigError):  # task_batch 5 > 4 tasks
            mini_config(algorithms=["meta"], meta=MetaConfig(task_batch=5))
        # without meta the task split is unused and not checked
        mini_config(algorithms=["direct"], meta_tasks=TaskSplitConfig(n_tasks=7, samples_per_task=20))

    def test_meta_task_feasibility_counts_every_source_env(self):
        cfg = mini_config(algorithms=["meta"])
        (source,) = cfg.environments.source
        two_envs = replace(cfg.environments, source=[source, replace(source, env_id=3, seed=source.seed + 1)])
        # 7 x 20 = 140 samples exceed n_source 120 but fit the pooled 2 x 120
        replace(cfg, environments=two_envs, meta_tasks=TaskSplitConfig(n_tasks=7, samples_per_task=20))
        with pytest.raises(ConfigError):  # 13 x 20 = 260 > 240
            replace(cfg, environments=two_envs, meta_tasks=TaskSplitConfig(n_tasks=13, samples_per_task=20))

    def test_duplicate_target_env_ids_rejected(self):
        cfg = mini_config(algorithms=["meta"])
        (target,) = cfg.environments.targets
        twin = replace(target, seed=target.seed + 7)  # same env_id
        with pytest.raises(ConfigError, match="distinct env_ids"):
            replace(cfg.environments, targets=[target, twin])
        replace(cfg.environments, targets=[target, replace(twin, env_id=3)])

    def test_meta_task_feasibility_rechecked_after_scaling(self):
        cfg = mini_config(algorithms=["meta"])
        # at scale 0.1: n_source 12, n_tasks max(1, 0) = 1, so 1 x 20 samples > 12
        with pytest.raises(ConfigError):
            replace(cfg, scale_factor=0.1)

    def test_sweep_validates_every_value_before_running(self, monkeypatch):
        import fdkg.pipeline as pipeline

        calls = []
        monkeypatch.setattr(pipeline, "generate_env_dataset", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError):
            sweep(mini_config(algorithms=["meta"]), "e_batch", [2, 99])
        assert calls == []

    @pytest.mark.parametrize(
        "split",
        [
            dict(n_tasks=0),
            dict(samples_per_task=0),
            dict(support_fraction=1.0),
            dict(support_fraction=0.0),
            dict(support_fraction=math.nan),
            dict(support_fraction=0.01),  # rounds to an empty support set of a 20-sample task
            dict(support_fraction=0.99),  # ... and to an empty query set
        ],
    )
    def test_task_split_rejected_when_built(self, split):
        with pytest.raises(ConfigError):
            TaskSplitConfig(**{"n_tasks": 4, "samples_per_task": 20, **split})

    def test_profiles_validate(self):
        assert desk_profile().sizes.n_source == 4000
        assert paper_profile().sizes.n_source == 40000


class TestNmse:
    def test_exact_match(self):
        x = np.random.default_rng(0).normal(size=(5, 8))
        assert nmse(x, x) == 0.0

    def test_double_prediction(self):
        x = np.random.default_rng(1).normal(size=(5, 8))
        assert nmse(2 * x, x) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert nmse(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == pytest.approx(2.0)

    def test_degenerate_exclusion(self):
        pred = np.array([[1.0, 0.0], [1.0, 1.0]])
        act = np.array([[0.0, 0.0], [1.0, 1.0]])
        value, excluded = nmse(pred, act, return_excluded=True)
        assert value == 0.0 and excluded == 1

    def test_all_degenerate_errors(self):
        with pytest.raises(NumericError):
            nmse(np.ones((2, 3)), np.zeros((2, 3)))


class TestReciprocitySanity:
    def test_identity_pipeline_perfect_keys(self):
        # equal carriers and no estimation noise: both parties see the same
        # features, so the identity mapping yields zero NMSE and zero KER
        cfg = mini_config(f_dl=2.4e9, snr=math.inf, algorithms=["identity"])
        report = run_pipeline(cfg)
        row = report.rows[0]
        assert row.nmse == 0.0
        assert row.ker == 0.0
        assert row.kgr > 0.0


class TestDeterminismAndCells:
    def test_identical_configs_identical_csv(self, tmp_path):
        cfg = mini_config(snr=20.0, algorithms=["direct", "meta"])
        a = run_pipeline(cfg)
        b = run_pipeline(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(a, "csv", pa)
        emit_report(b, "csv", pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_all_four_algorithms_report_rows(self):
        cfg = mini_config(snr=20.0, algorithms=["direct", "joint", "dtl", "meta"])
        report = run_pipeline(cfg)
        assert [r.algorithm for r in report.rows] == ["direct", "joint", "dtl", "meta"]

    def test_cell_isolation(self):
        # a cell computed inside a multi-SNR run matches the same cell
        # computed alone
        full = run_pipeline(
            mini_config(snr=20.0, algorithms=["direct"], snr_list_db=[10.0, 20.0])
        )
        alone = run_pipeline(mini_config(snr=20.0, algorithms=["direct"], snr_list_db=[20.0]))
        (row_full,) = [r for r in full.rows if r.snr_db == 20.0]
        (row_alone,) = alone.rows
        assert row_full.nmse == row_alone.nmse
        assert row_full.ker == row_alone.ker
        assert row_full.kgr == row_alone.kgr


def two_target_config() -> ExperimentConfig:
    cfg = mini_config(algorithms=["identity", "direct", "joint", "dtl", "meta"])
    (target,) = cfg.environments.targets
    second = replace(target, env_id=3, seed=target.seed + 1)
    return replace(cfg, environments=replace(cfg.environments, targets=[target, second]))


def job(fn, estimate: int = 0, then: tuple = ()) -> _Job:
    """A queue job that calls ``fn`` and then makes the jobs ``then`` ready."""
    return _Job(estimate, lambda: (fn(), list(then))[1], len(then))


class TestModelChains:
    """A run's jobs run concurrently when BLAS is pinned to one thread; the test
    modules import numpy before fdkg (width 1), so these tests set the width."""

    @staticmethod
    def set_width(monkeypatch, width):
        import fdkg.pipeline as pipeline

        monkeypatch.setattr(pipeline, "_chain_width", lambda n_chains: width)

    def test_concurrent_and_serial_reports_equal(self, monkeypatch):
        cfg = replace(two_target_config(), compute_randomness=True)
        reports = []
        for width in (1, 3):
            self.set_width(monkeypatch, width)
            reports.append(run_pipeline(cfg))
        assert reports[0] == reports[1]
        assert len(reports[0].rows) == 10

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_failed_chain_is_reraised_and_stops_the_queue(self, monkeypatch, width):
        import fdkg.pipeline as pipeline

        calls = []

        def diverge(*args, _name, **kwargs):
            calls.append(_name)
            raise FloatingPointError("non-finite activations in forward pass")

        for name in ("train_supervised", "meta_train", "adapt"):
            monkeypatch.setattr(pipeline, name, functools.partial(diverge, _name=name))
        self.set_width(monkeypatch, width)
        # five jobs, longest estimate first: pretrain, joint env 2, joint env 3, meta, identity;
        # each but identity fails at its first training call, so a call marks a started job
        with pytest.raises(FloatingPointError):
            run_pipeline(two_target_config())
        assert 1 <= len(calls) <= width and "adapt" not in calls
        if width == 1:
            assert calls == ["train_supervised"]

    def test_runner_starts_nothing_after_a_failure(self):
        import threading

        slow_started, started = threading.Event(), []

        def fail():
            started.append("fail")
            slow_started.wait(5.0)
            raise ZeroDivisionError("chain 0")

        def slow():
            started.append("slow")
            slow_started.set()
            time.sleep(0.2)  # still running while the failure is recorded
            return "done"

        later = job(lambda: started.append("later"))
        with pytest.raises(ZeroDivisionError, match="chain 0"):
            _run_jobs([job(fail), job(slow), later, later], width=2)
        assert sorted(started) == ["fail", "slow"]

    def test_interrupt_stops_the_queue_without_waiting_for_helpers(self):
        import _thread
        import threading

        both, release, started, threads = threading.Barrier(2), threading.Event(), [], []

        def slow():
            started.append("slow")
            threads.append(threading.current_thread())
            if both.wait(5.0) == 0:  # once both chains run, one of them presses Ctrl-C
                _thread.interrupt_main()
            deadline = time.monotonic() + 3.0
            while not release.is_set() and time.monotonic() < deadline:
                time.sleep(0.005)
            return "done"

        later = job(lambda: started.append("later"))
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            _run_jobs([job(slow), job(slow), later], width=2)
        assert time.monotonic() - t0 < 2.0  # the helper's chain was still running
        release.set()
        for thread in threads:
            if thread is not threading.main_thread():
                thread.join(5.0)
        assert started == ["slow", "slow"]

    def test_stage_times_exclude_waits_when_blas_is_pinned(self, monkeypatch):
        import fdkg.pipeline as pipeline

        train = pipeline.train_supervised

        def waiting(*args, **kwargs):
            time.sleep(0.5)  # stands in for waiting while other chains hold the cores
            return train(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train_supervised", waiting)
        monkeypatch.setattr(pipeline, "_BLAS_PINNED", True)
        self.set_width(monkeypatch, 2)
        cfg = replace(two_target_config(), algorithms=["direct", "joint"], record_wall_time=True)
        rows = run_pipeline(cfg).rows
        assert len(rows) == 4 and all(0.0 < row.wall_time_s < 0.5 for row in rows)

    def test_key_sink_gets_each_cell_once_at_any_width(self, monkeypatch):
        cfg = replace(two_target_config(), snr_list_db=[math.inf, 20.0])
        sunk = []
        for width in (1, 3):
            self.set_width(monkeypatch, width)
            calls = []
            report = run_pipeline(cfg, key_sink=lambda *cell: calls.append(cell))
            assert sorted(c[:3] for c in calls) == sorted((r.algorithm, r.env, r.snr_db) for r in report.rows)
            assert len(calls) == 20
            sunk.append({c[:3]: [k.tolist() for k in c[3] + c[4]] for c in calls})
        assert sunk[0] == sunk[1]

    def test_wall_time_leaves_out_the_key_sink(self):
        def slow_sink(*args):
            t0 = time.thread_time()
            while time.thread_time() - t0 < 0.3:  # CPU work, which thread and wall clocks both count
                pass

        cfg = mini_config(algorithms=["identity"], record_wall_time=True)
        rows = run_pipeline(cfg, key_sink=slow_sink).rows
        assert rows and all(row.wall_time_s < 0.3 for row in rows)

    def test_runner_runs_every_chain_once_under_fast_switching(self):
        import sys

        runs = [0] * 300

        def chain(i):
            runs[i] += 1

        counted = lambda i, estimate=0, then=(): job(functools.partial(chain, i), estimate, then)
        # 100 jobs of mixed estimates, each of which makes two more ready when it ends
        jobs = [counted(i, i % 7, (counted(100 + 2 * i), counted(101 + 2 * i))) for i in range(100)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:  # more threads than cores, switching as often as possible
            _run_jobs(jobs, width=8)
        finally:
            sys.setswitchinterval(interval)
        assert runs == [1] * 300


class TestJobQueue:
    def test_follow_up_runs_exactly_once(self):
        runs = []
        training = job(lambda: runs.append("training"), then=(job(lambda: runs.append("follow-up")),))
        for width in (1, 2, 3):
            runs.clear()
            _run_jobs([training, job(lambda: runs.append("other"))], width)
            assert sorted(runs) == ["follow-up", "other", "training"]

    @pytest.mark.parametrize("width", [1, 2])
    def test_failing_follow_up_stops_the_queue_after_running_jobs_end(self, width):
        import threading

        slow_started, failing, events = threading.Event(), threading.Event(), []

        def fail():
            events.append("fail")
            failing.set()
            raise ZeroDivisionError("follow-up")

        def slow():
            slow_started.set()
            failing.wait(5.0)
            time.sleep(0.1)  # still running while the failure is recorded
            events.append("slow done")

        def train():
            slow_started.wait(5.0)  # both threads are busy before the follow-up is made
            events.append("training")

        later = job(lambda: events.append("later"))
        if width == 1:
            jobs = [job(lambda: events.append("training"), 3, then=(job(fail, 2),)), later]
        else:  # the training and the slow job start first; then the follow-up outranks ``later``
            jobs = [job(train, 3, then=(job(fail, 2),)), job(slow, 1), later]
        with pytest.raises(ZeroDivisionError, match="follow-up"):
            _run_jobs(jobs, width)
        assert events == ["training", "fail"] + ["slow done"] * (width - 1)  # raised once the slow job ended

    def test_one_thread_takes_the_longest_estimate_first(self):
        order = []
        mark = lambda name, estimate, then=(): job(lambda: order.append(name), estimate, then)
        jobs = [
            mark("short", 1),
            mark("training a", 20, then=(mark("adapt a1", 5), mark("adapt a2", 5))),
            mark("middle", 10),
            mark("middle, queued later", 10),
            mark("zero", 0),
        ]
        _run_jobs(jobs, width=1)
        assert order == ["training a", "middle", "middle, queued later", "adapt a1", "adapt a2", "short", "zero"]

    def test_meta_only_run_adapts_to_both_targets_at_once(self, monkeypatch):
        import fdkg.pipeline as pipeline

        cfg = replace(two_target_config(), algorithms=["meta"])
        monkeypatch.setattr(pipeline, "_chain_width", lambda n_jobs: 1)
        serial = run_pipeline(cfg)
        monkeypatch.setattr(pipeline, "_chain_width", lambda n_jobs: 2)
        callers = meet_first_calls(monkeypatch, pipeline, "adapt")  # the two adaptations run at once
        assert run_pipeline(cfg) == serial
        assert len(set(callers)) == 2

    def test_width_counts_every_job_the_run_will_have(self, monkeypatch):
        import fdkg.pipeline as pipeline

        asked = []
        monkeypatch.setattr(pipeline, "_chain_width", lambda n_jobs: asked.append(n_jobs) or 1)
        run_pipeline(two_target_config())
        run_pipeline(replace(two_target_config(), algorithms=["meta"]))
        # meta + 2 adaptations, 2 joint, pretrain + 2 dtl adaptations, identity; then meta alone
        assert asked == [9, 3]

    def test_pipeline_at_width_one_runs_adaptations_after_their_training(self, monkeypatch):
        import fdkg.pipeline as pipeline

        monkeypatch.setattr(pipeline, "_chain_width", lambda n_jobs: 1)
        calls, made_by = [], {}

        def recorded(name):
            real = getattr(pipeline, name)

            def call(net, data, cfg, **kwargs):
                if name == "adapt":
                    calls.append(("adapt", made_by[id(net)], data.n))
                else:
                    calls.append((name, data.n if name == "train_supervised" else len(data.tasks)))
                out = real(net, data, cfg, **kwargs)
                made_by[id(out)] = name
                return out

            monkeypatch.setattr(pipeline, name, call)

        for name in ("train_supervised", "meta_train", "adapt"):
            recorded(name)
        run_pipeline(two_target_config())
        # estimates in rows: pretrain 40 x 16 + a dtl adaptation's 10 x 24 = 880, joint 40 x 16 = 640,
        # meta 3 x 2 x (10 + 10) + 240 = 360, each adaptation 240 (dtl queued before meta)
        assert calls == [
            ("train_supervised", 120),
            ("train_supervised", 144),
            ("train_supervised", 144),
            ("meta_train", 4),
            ("adapt", "train_supervised", 24),
            ("adapt", "train_supervised", 24),
            ("adapt", "meta_train", 24),
            ("adapt", "meta_train", 24),
        ]


def meet_first_calls(monkeypatch, module, name: str, parties: int = 2) -> list[int]:
    """Wrap ``module.name`` so that its first ``parties`` calls wait for each
    other: the test then fails (broken barrier) unless that many ran at once.
    Returns the idents of the calling threads, in call order."""
    import threading

    real, barrier, lock, callers = getattr(module, name), threading.Barrier(parties), threading.Lock(), []

    def meeting(*args, **kwargs):
        with lock:
            callers.append(threading.get_ident())
            first = len(callers) <= parties
        if first:
            barrier.wait(10.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, meeting)
    return callers


BLAS_PROBE = (
    "import os, sys\n"
    "if sys.argv[1] == 'numpy-first':\n"
    "    import numpy\n"
    "import fdkg\n"
    "from fdkg.pipeline import _chain_width\n"
    "print(*[os.environ.get(v, '-') for v in fdkg._BLAS_VARS], _chain_width(64))\n"
)


def probe_blas(mode: str, **env_vars) -> list[str]:
    import subprocess
    import sys
    from pathlib import Path

    import fdkg

    env = {k: v for k, v in os.environ.items() if k not in fdkg._BLAS_VARS}
    env.update(env_vars, PYTHONPATH=str(Path(fdkg.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE, mode], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


class TestBlasPin:
    def test_import_pins_one_blas_thread(self):
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert probe_blas("plain") == ["1", "1", "1", str(min(cores, 64))]

    def test_user_thread_count_is_kept_and_chains_run_serially(self):
        assert probe_blas("plain", OPENBLAS_NUM_THREADS="4") == ["4", "1", "1", "1"]

    def test_numpy_imported_first_leaves_environment_alone(self):
        assert probe_blas("numpy-first") == ["-", "-", "-", "1"]


class TestSnrMonotonicity:
    def test_meta_nmse_improves_with_snr_over_seeds(self):
        # heavier estimation noise can only hurt the feature match: for the
        # meta algorithm the mean test NMSE at 40 dB stays below 0 dB
        low, high = [], []
        for seed in range(5):
            cfg = mini_config(
                seed=seed, snr=20.0, algorithms=["meta"], snr_list_db=[0.0, 40.0]
            )
            nmse_at = {row.snr_db: row.nmse for row in run_pipeline(cfg).rows}  # the meta rows of env 2
            low.append(nmse_at[40.0])
            high.append(nmse_at[0.0])
        assert np.mean(low) <= np.mean(high)


class TestEmitReport:
    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report(ExperimentReport(rows=[]), "csv", path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_column_contract(self, tmp_path):
        report = run_pipeline(mini_config())
        path = tmp_path / "r.csv"
        emit_report(report, "csv", path)
        header = path.read_text().splitlines()[0]
        assert header.split(",") == list(CSV_COLUMNS)

    def test_json_roundtrip(self, tmp_path):
        report = run_pipeline(mini_config(snr=15.0))
        path = tmp_path / "r.json"
        emit_report(report, "json", path)
        assert decode(ExperimentReport, json.loads(path.read_text())) == report

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report(ExperimentReport(rows=[]), "yaml", tmp_path / "x")


class TestSweep:
    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep(mini_config(), "bogus", [1.0])

    def test_empty_values(self):
        with pytest.raises(ConfigError):
            sweep(mini_config(), "snr", [])

    def test_snr_axis_annotates_rows(self):
        report = sweep(mini_config(snr=20.0), "snr", [10.0, 20.0])
        assert {r.axis_value for r in report.rows} == {10.0, 20.0}
        assert all(r.axis == "snr" for r in report.rows)

    def test_n_ad_axis_includes_joint_rows(self):
        report = sweep(mini_config(snr=20.0, algorithms=["joint", "dtl"]), "n_ad", [12, 24])
        assert {r.axis_value for r in report.rows} == {12.0, 24.0}
        assert {r.algorithm for r in report.rows} == {"joint", "dtl"}

    def test_sweep_csv_includes_axis_columns(self, tmp_path):
        report = sweep(mini_config(snr=20.0), "snr", [20.0])
        path = tmp_path / "s.csv"
        emit_report(report, "csv", path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:2] == ["axis", "axis_value"]

    def test_sweep_json_roundtrip(self, tmp_path):
        report = sweep(mini_config(snr=20.0, compute_randomness=True), "snr", [10.0, 20.0])
        assert report.randomness
        assert all(r.axis == "snr" and r.axis_value == r.snr_db for r in report.randomness)
        path = tmp_path / "s.json"
        emit_report(report, "json", path)
        assert decode(ExperimentReport, json.loads(path.read_text())) == report

    def test_sweep_randomness_rows_are_tagged_and_unique(self, tmp_path):
        cfg = mini_config(snr=20.0, algorithms=["meta"], compute_randomness=True)
        report = sweep(cfg, "g_tr", [1, 2])
        keys = [
            (r.axis, r.axis_value, r.algorithm, r.env, r.snr_db, r.test_name, r.mode)
            for r in report.randomness
        ]
        assert {k[:2] for k in keys} == {("g_tr", 1.0), ("g_tr", 2.0)}
        assert len(set(keys)) == len(keys)
        path = tmp_path / "s.json"
        emit_report(report, "json", path)
        assert decode(ExperimentReport, json.loads(path.read_text())) == report
        # a plain run's randomness rows carry no axis fields
        emit_report(run_pipeline(cfg), "json", path)
        assert all("axis" not in r for r in json.loads(path.read_text())["randomness"])

    @staticmethod
    def count_synthesis(monkeypatch) -> list[int]:
        import fdkg.pipeline as pipeline

        calls, real = [], pipeline.generate_env_dataset
        monkeypatch.setattr(
            pipeline, "generate_env_dataset", lambda *a, **k: calls.append(a[1]) or real(*a, **k)
        )
        return calls

    @pytest.mark.parametrize("axis, values", [("g_tr", [1, 2]), ("g_ad", [5, 10]), ("e_batch", [1, 2])])
    def test_training_axis_synthesizes_data_once(self, monkeypatch, axis, values):
        cfg = mini_config(snr=20.0, algorithms=["dtl", "meta"])
        per_value = [
            replace(r, axis=axis, axis_value=float(v))
            for v in values
            for r in run_pipeline(_with_axis(cfg, axis, v)).rows
        ]
        calls = self.count_synthesis(monkeypatch)
        report = sweep(cfg, axis, values)
        assert calls == [120, 24, 24]  # source, target adaptation and test sets of the first value
        assert report.rows == per_value

    def test_values_train_concurrently_in_one_queue(self, monkeypatch):
        import fdkg.pipeline as pipeline

        cfg = mini_config(snr=20.0, algorithms=["meta"])
        monkeypatch.setattr(pipeline, "_chain_width", lambda n_chains: 1)
        per_value = [
            replace(r, axis="g_tr", axis_value=float(v))
            for v in (1, 2)
            for r in run_pipeline(_with_axis(cfg, "g_tr", v)).rows
        ]
        monkeypatch.setattr(pipeline, "_chain_width", lambda n_chains: 2)
        callers = meet_first_calls(monkeypatch, pipeline, "meta_train")  # both values meta-train at once
        assert sweep(cfg, "g_tr", [1, 2]).rows == per_value
        assert len(set(callers)) == 2

    def test_n_ad_axis_synthesizes_per_value(self, monkeypatch):
        calls = self.count_synthesis(monkeypatch)
        sweep(mini_config(snr=20.0, algorithms=["dtl"]), "n_ad", [12, 24])
        assert calls == [120, 12, 24, 120, 24, 24]

    def test_scaled_n_ad_axis_uses_each_value_as_given(self, monkeypatch):
        calls = self.count_synthesis(monkeypatch)
        report = sweep(mini_config(snr=20.0, algorithms=["dtl"], scale_factor=0.5), "n_ad", [10])
        assert calls == [60, 10, 12]  # half the source and test sets, and 10 adaptation samples
        assert {r.axis_value for r in report.rows} == {10.0}


class TestScoreKeys:
    def test_identical_features_zero_error(self):
        x = np.random.default_rng(7).normal(size=(10, 32))
        metrics = score_keys(x, x.copy(), epsilon=0.1, n_subcarriers=16)
        assert metrics.ker == 0.0
        assert metrics.kgr > 0.0
        assert len(metrics.alice_keys) == 10

    def test_kgr_monotone_in_epsilon(self):
        rng = np.random.default_rng(8)
        pred = rng.normal(size=(30, 64))
        act = pred + 0.1 * rng.normal(size=(30, 64))
        kgrs = [
            score_keys(pred, act, epsilon=e, n_subcarriers=32).kgr
            for e in (0.0, 0.05, 0.1, 0.2, 0.4)
        ]
        assert all(a >= b for a, b in zip(kgrs, kgrs[1:]))

    def test_pooled_ker_by_hand(self):
        # epsilon 0.1: the guard band is mu +- 0.253 sigma.  Sample 0 keeps all
        # four positions and agrees; sample 1 drops its two 1.5s (= mu) and both
        # kept bits disagree.  Pooled KER is 2/6, not the per-sample mean 1/2.
        act = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 1.5, 1.5, 3.0]])
        pred = np.array([[0.0, 1.0, 2.0, 3.0], [3.0, 1.5, 1.5, 0.0]])
        metrics = score_keys(pred, act, epsilon=0.1, n_subcarriers=2)
        assert metrics.ker == 2 / 6
        assert metrics.kgr == (4 / 2 + 2 / 2) / 2
        assert [k.tolist() for k in metrics.alice_keys] == [[0, 0, 1, 1], [1, 0]]
        assert [k.tolist() for k in metrics.bob_keys] == [[0, 0, 1, 1], [0, 1]]

    def test_complementary_features_full_error(self):
        x = np.random.default_rng(1).normal(size=(5, 64))
        metrics = score_keys(-x, x, epsilon=0.1, n_subcarriers=32)
        assert metrics.ker == 1.0
        assert len(metrics.alice_keys) == 5

    def test_nothing_aligned_ker_is_one(self):
        act = np.array([[0.0, 3.0, 1.5, 1.5]])
        pred = np.array([[1.5, 1.5, 0.0, 3.0]])  # keeps exactly the positions act drops
        metrics = score_keys(pred, act, epsilon=0.1, n_subcarriers=2)
        assert metrics.ker == 1.0 and metrics.kgr == 0.0
        assert metrics.alice_keys == [] and metrics.bob_keys == []
