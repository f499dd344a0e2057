"""Tiny-scale self-test of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that BENCHMARK.json's workloads are those of workloads.py.  Runs every
workload shape once at self-test scale (``--tiny``: scale_factor 0.05, a few
iterations) with --trace 0 and --trace 1, and asserts that the result line
holds exactly the metrics BENCHMARK.json names, each with its unit, and that
each was also printed on its own line.  Then breaks the outputs
of one tiny run in several ways and asserts that every break fails the checks,
and that a run whose report is corrupted counts as failed.  Exits non-zero on
the first broken assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import run
from workloads import WORKLOADS, make_config

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# runs the CLI with the given arguments, then writes a NaN into the CSV report
CORRUPTING_CLI = """
import glob, sys
import fdkg.cli
try:
    fdkg.cli.main(args=sys.argv[1:], prog_name="fdkg")
except SystemExit as exc:
    if exc.code:
        raise
out = sys.argv[sys.argv.index("--out") + 1]
path = sorted(glob.glob(out + "/*.csv"))[0]
text = open(path).read()
header, first, rest = text.split("\\n", 2)
cells = first.split(",")
cells[header.split(",").index("nmse")] = "nan"
open(path, "w").write("\\n".join([header, ",".join(cells), rest]))
"""


def check_listed_workloads() -> None:
    for listed in BENCHMARK["workloads"]:
        assert WORKLOADS[listed["name"]].why == listed["why"], f"{listed['name']}: why differs"
    print("ok: BENCHMARK.json workloads match workloads.py")


def check_printed_metrics() -> None:
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", name, "--seed", "0",
                 "--seconds", "0", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=False,
            )
            assert proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (name, trace, proc.stderr)
            want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{name} trace {trace}: metrics {got} != {want}"
            for metric, unit in want.items():
                assert any(
                    ln.startswith(f"{metric} ") and ln.endswith(f" {unit}") for ln in lines[:-1]
                ), f"{name} trace {trace}: {metric} not printed with its unit"
            print(f"ok: {name} --trace {trace} prints {len(want)} metrics")


def check_corruption_fails() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from fdkg.pipeline import desk_profile

    workload = WORKLOADS["keys"]
    cfg = make_config(desk_profile, workload, seed=0, tiny=True)
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg))
    good = work / "good"
    child = run.run_child(
        [sys.executable, "-m", "fdkg.cli", *run.cli_argv(workload, config_path, good)],
        work / "good.log",
        run.TOTAL_BUDGET_S,
    )
    assert child.exit_code == 0, child
    first_csv = checks.check_run(workload, cfg, good, None)

    def broken(label: str, edit) -> None:
        copy = work / label
        shutil.copytree(good, copy)
        edit(copy)
        try:
            checks.check_run(workload, cfg, copy, first_csv)
        except checks.CheckFailed as exc:
            print(f"ok: {label} fails the checks ({exc})")
            return
        raise AssertionError(f"{label} passed the checks")

    def edit_csv(fn):
        def edit(d: Path) -> None:
            path = d / "report.csv"
            rows = [line.split(",") for line in path.read_text().splitlines()]
            fn(rows)
            path.write_text("".join(",".join(r) + "\n" for r in rows))

        return edit

    nmse, ker = checks.CSV_COLUMNS.index("nmse"), checks.CSV_COLUMNS.index("ker")
    broken("missing-json", lambda d: (d / "report.json").unlink())
    broken("renamed-column", edit_csv(lambda rows: rows[0].__setitem__(-3, "kgr_ratio")))
    broken("dropped-row", edit_csv(lambda rows: rows.pop()))
    broken("nan-nmse", edit_csv(lambda rows: rows[1].__setitem__(nmse, "nan")))
    broken("ker-above-1", edit_csv(lambda rows: rows[1].__setitem__(ker, "1.5")))
    # same values, other bytes: the run is no longer byte-identical to the first
    broken("trailing-zero", edit_csv(lambda rows: rows[1].__setitem__(nmse, rows[1][nmse] + "0")))
    broken("missing-key-dump", lambda d: next(d.glob("keys_*.txt")).unlink())

    job = run.Job(workload, cfg, config_path, work, time.perf_counter() + run.TOTAL_BUDGET_S)
    corrupting = [sys.executable, "-c", CORRUPTING_CLI]
    failing, _ = run.checked_child(job, work / "corrupted", corrupting, None)
    assert not failing.ok and "non-finite" in failing.reason, failing
    print(f"ok: a run with a corrupted report counts as failed ({failing.reason})")
    shutil.rmtree(work)


def main() -> int:
    check_listed_workloads()
    check_printed_metrics()
    check_corruption_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
