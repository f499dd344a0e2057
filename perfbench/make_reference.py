"""Regenerate reference.json: the seed-0 report cells of every workload.

Usage (from the repository root): python3 perfbench/make_reference.py

Run it only when a change is meant to move the reported metrics, and say so in
CHANGES.md.

Tolerances.  Reports print nine significant digits, and a run is bit-identical
on one machine.  Float-rounding-level changes left every seed-0 value
unchanged at that precision: OPENBLAS_NUM_THREADS=1 against the default, the
Adam step rewritten as (lr/c1)*m/(sqrt(v)/sqrt(c2)+eps), and the sigmoid
rewritten as 0.5*(1+tanh(z/2)).  A relative change of 1e-4 in Adam's epsilon
moved desk nmse by 7e-9 relative.  So nmse may move by 1e-6 relative (200 times
the print resolution), and ker and kgr by 1e-3 absolute: about four flipped or
dropped key bits in the smallest cell (50 test rows of about 84 aligned bits).
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
from workloads import WORKLOADS, make_config

NMSE_REL_TOL = 1e-6
KEY_ABS_TOL = 1e-3


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from fdkg.pipeline import desk_profile

    work = run.OUT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    doc = {
        "tolerance": {
            "nmse_rel": NMSE_REL_TOL,
            "ker_abs": KEY_ABS_TOL,
            "kgr_abs": KEY_ABS_TOL,
            "why": "float-rounding changes leave the 9-digit values unchanged; see make_reference.py",
        },
        "workloads": {},
    }
    for workload in WORKLOADS.values():
        cfg = make_config(desk_profile, workload, seed=0)
        config_path = work / f"{workload.name}.json"
        config_path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        out_dir = work / workload.name
        child = run.run_child(
            [sys.executable, "-m", "fdkg.cli", *run.cli_argv(workload, config_path, out_dir)],
            work / f"{workload.name}.log",
            timeout_s=run.TOTAL_BUDGET_S,
        )
        if child.exit_code != 0:
            print(f"{workload.name}: exit code {child.exit_code}", file=sys.stderr)
            return 1
        cells = checks.read_cells(workload, out_dir)
        doc["workloads"][workload.name] = {k: list(v[:3]) for k, v in sorted(cells.items())}
    checks.REFERENCE_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
