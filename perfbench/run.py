"""fdkg benchmark: time the real CLI, one child process per run, from outside the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk|meta-sweep|keys [--seed N] [--seconds S] [--trace 0|1]

Every run is ``python -m fdkg.cli run|sweep --config <generated config>`` with
``PYTHONPATH=src``, FDKG_THREADS unset (one cell worker) and one BLAS thread
(see BLAS_VARS for why).  Runs form a closed loop with one client: the next
starts when the previous one exits.  The seed picks the config
(``desk_profile(seed)``, cut down per workload, see workloads.py); the program
sees only that config.

--trace 0 prints the end-to-end metrics, medians over the runs of the timed
loop: ``run_s`` (child wall time), ``cpu_s`` (child user+sys time),
``peak_rss_mb`` (child max RSS) and ``setup_s`` (a fresh interpreter importing
``fdkg.cli`` and loading and validating the config, median of several).
--trace 1 runs the same loop (its median is the base of ``trace_overhead``),
then one more run under tracer.py, and prints the per-layer metrics of
layers.py from that run's spans.

Every run's outputs are checked (checks.py); a run that exits non-zero or
fails a check counts in ``failed`` and makes ``correct`` false.  The last
stdout line is the JSON result; the run's samples, environment fingerprint and
(with --trace 1) the spans are written under perfbench/out/.

BENCHMARK.json lists desk and meta-sweep.  The keys workload runs the same way
but is left out of it: on a shared 2-core VM its run-to-run spread over ten
seeds (IQR/median of run_s) measured 0.15 to 0.24 with 30 s and 55 s windows,
against the 0.25 bound, because its Python-bound work swings up to 1.7x in
speed with the host's load while the BLAS-bound workloads swing about 1.2x.

Deliberately unmeasured: ``model_io`` (no shipped command writes or reads a
model file yet) and the wait of cells for the FDKG_THREADS pool (it needs spans
inside the program; the benchmark runs one worker).  ``fail_ratio`` is the
result's ``failed`` over ``attempted`` rather than a metric, because it is 0
on a healthy run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS, Workload, make_config

ROOT = Path.cwd()
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9
MIN_RUNS = 3
# a benchmark invocation must end within 180 s; children still running then are killed
TOTAL_BUDGET_S = 170.0
# One BLAS thread: with OpenBLAS's default of one thread per core, interleaved
# runs of one config spread 4x wider (IQR/median 0.28 against 0.07) on a shared
# 2-core machine, because its spinning threads stall whenever a neighbour
# takes a core.  FDKG_THREADS unset means one cell worker.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_VARS = BLAS_VARS + ("FDKG_THREADS",)
END_TO_END = [("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
SETUP_CODE = (
    "import sys, fdkg.cli\n"
    "from fdkg.pipeline import ExperimentConfig, apply_scale\n"
    "apply_scale(ExperimentConfig.from_json(sys.argv[1]))\n"
)


@dataclass
class Child:
    started: float  # time.perf_counter() just before the child was spawned
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    ok: bool = False
    reason: str = ""


@dataclass(frozen=True)
class Job:
    """One benchmark invocation: a workload, its generated config and a deadline."""

    workload: Workload
    cfg: dict
    config_path: Path
    work: Path
    deadline: float  # time.perf_counter() by which every child must have ended


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update({v: "1" for v in BLAS_VARS}, PYTHONPATH=str(ROOT / "src"))
    return env


def run_child(argv: list[str], log_path: Path, timeout_s: float) -> Child:
    """Run one child to completion (killed after timeout_s) and return its wall time and rusage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=log)
        watchdog = threading.Timer(max(timeout_s, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        started=start,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
    )


def cli_argv(workload: Workload, config_path: Path, out_dir: Path) -> list[str]:
    fill = {"config": str(config_path), "out": str(out_dir)}
    return [a.format(**fill) for a in workload.cli_args]


def checked_child(job: Job, run_dir: Path, prefix: list[str], first_csv: bytes | None):
    """Run the CLI once (prefix selects plain or traced) and check what it wrote.

    Returns the child and the CSV bytes later runs must match.  A passing run's
    directory is removed; a failing one is kept for inspection.
    """
    run_dir.mkdir(parents=True)
    child = run_child(
        prefix + cli_argv(job.workload, job.config_path, run_dir / "out"),
        run_dir / "child.log",
        job.deadline - time.perf_counter(),
    )
    if child.exit_code != 0:
        child.reason = f"exit code {child.exit_code}, see {run_dir / 'child.log'}"
        return child, first_csv
    try:
        first_csv = checks.check_run(job.workload, job.cfg, run_dir / "out", first_csv)
    except checks.CheckFailed as exc:
        child.reason = str(exc)
        return child, first_csv
    child.ok = True
    shutil.rmtree(run_dir)
    return child, first_csv


def timed_loop(job: Job, seconds: float) -> list[Child]:
    """Closed loop of plain CLI runs until the next one would overrun ``seconds``."""
    children: list[Child] = []
    first_csv = None
    start = time.perf_counter()
    while True:
        child, first_csv = checked_child(
            job, job.work / f"run{len(children)}", [sys.executable, "-m", "fdkg.cli"], first_csv
        )
        children.append(child)
        now = time.perf_counter()
        typical = statistics.median(c.wall_s for c in children)
        if now + typical > job.deadline or (
            len(children) >= MIN_RUNS and now - start + typical > seconds
        ):
            return children


def setup_times(job: Job) -> list[float]:
    times = []
    for i in range(SETUP_REPEATS):
        log = job.work / f"setup{i}.log"
        child = run_child(
            [sys.executable, "-c", SETUP_CODE, str(job.config_path)],
            log,
            job.deadline - time.perf_counter(),
        )
        if child.exit_code != 0:
            raise SystemExit(f"set-up failed (exit {child.exit_code}), see {log}")
        times.append(child.wall_s)
    return times


def traced_run(job: Job, run_id: str, untraced_s: float) -> tuple[Child, dict[str, float]]:
    """One checked run under tracer.py; returns it and its per-layer metrics."""
    spans_path = job.work / "spans.json"
    tracer = Path(__file__).with_name("tracer.py")
    prefix = [sys.executable, str(tracer), str(spans_path), run_id, "--"]
    child, _ = checked_child(job, job.work / "traced", prefix, None)
    try:
        doc = json.loads(spans_path.read_text())
    except (OSError, json.JSONDecodeError):
        doc = None
    if doc is None or not doc["restored"]:
        child.ok = False
        child.reason = child.reason or "no spans written, or wrapped names not restored"
    # the span write-out after the CLI returned is not traced work
    wall = doc["cli_end"] - child.started if doc else child.wall_s
    spans = doc["spans"] if doc else []
    return child, layers.per_layer_metrics(spans, wall, wall - untraced_s)


def tail(values: list[float]) -> dict:
    """Sample count, median and, given enough samples, the highest percentile
    with at least ten samples above it."""
    n = len(values)
    out = {"samples": n, "median": statistics.median(values)}
    if n > 10:
        pct = int(100 * (n - 10) / n)
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return out


def fingerprint(seed: int, config_bytes: bytes) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    commit = None  # an exported checkout has no .git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "inherited_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "child_thread_env": {**{v: "1" for v in BLAS_VARS}, "FDKG_THREADS": None},
        "seed": seed,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true", help="self-test scale (scale_factor 0.05, few iterations)"
    )
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + TOTAL_BUDGET_S
    if not (ROOT / "src" / "fdkg" / "cli.py").is_file():
        print(f"no fdkg sources under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from fdkg.pipeline import desk_profile

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}_seed{args.seed}_trace{args.trace}" + ("_tiny" if args.tiny else "")
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = make_config(desk_profile, workload, args.seed, tiny=args.tiny)
    config_bytes = (json.dumps(cfg, indent=2, sort_keys=True) + "\n").encode()
    config_path = work / "config.json"
    config_path.write_bytes(config_bytes)
    job = Job(workload, cfg, config_path, work, deadline)

    setup = setup_times(job) if args.trace == 0 else []
    children = timed_loop(job, args.seconds)
    ok_runs = [c for c in children if c.ok] or children
    run_median = statistics.median(c.wall_s for c in ok_runs)
    traced = None
    if args.trace == 1:
        traced, values = traced_run(job, tag, run_median)
        units = layers.PER_LAYER
    else:
        values = {
            "run_s": run_median,
            "cpu_s": statistics.median(c.cpu_s for c in ok_runs),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in ok_runs),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    attempted = children + ([traced] if traced else [])
    failed = [c for c in attempted if not c.ok]
    artifact = {
        "workload": workload.name,
        "why": workload.why,
        "fingerprint": fingerprint(args.seed, config_bytes),
        "runs": [asdict(c) for c in children],
        "traced_run": asdict(traced) if traced else None,
        "setup_s_samples": setup,
        "run_s": tail([c.wall_s for c in ok_runs]),
        "fail_ratio": len(failed) / len(attempted),
        "metrics": metrics,
    }
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(artifact, indent=2) + "\n")

    for c in failed:
        print(f"FAILED run: {c.reason}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed}: {len(attempted)} runs, {len(failed)} failed")
    print(f"run_s samples: {json.dumps(artifact['run_s'])}")
    print(f"fingerprint: {json.dumps(artifact['fingerprint'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
