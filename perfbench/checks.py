"""Output checks applied to every child run.

A run passes when it exited 0 and its report files hold exactly the
documented columns, the expected cells, finite in-range metrics, wall time 0
(``record_wall_time`` is off) and the workload seed; when, for the default
seed, every cell matches reference.json; when its CSV bytes equal those of
the first run with the same config; and, for ``--dump-keys``, when every cell
left a non-empty 0/1 key dump.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from workloads import Workload

CSV_COLUMNS = ["algorithm", "env", "snr_db", "nmse", "ker", "kgr", "wall_time_s", "seed"]
SWEEP_COLUMNS = ["axis", "axis_value"] + CSV_COLUMNS
# nmse is a mean ratio of squared norms (>= 0, no upper limit: a normalizer fit
# on few adaptation rows can push it past 1); ker is a fraction of bits; kgr
# is at most one bit per real feature, two features per subcarrier
KGR_MAX = 2.0

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class CheckFailed(Exception):
    pass


def expected_cells(workload: Workload, cfg: dict) -> list[tuple]:
    envs = [e["env_id"] for e in cfg["environments"]["targets"]]
    cells = [(a, e, float(s)) for a in cfg["algorithms"] for e in envs for s in cfg["snr_list_db"]]
    if workload.sweep_values:
        return [(v, *c) for v in workload.sweep_values for c in cells]
    return cells


def _cell_key(cell: tuple) -> str:
    return "/".join(f"{v:g}" if isinstance(v, float) else str(v) for v in cell)


def read_cells(workload: Workload, out_dir: Path) -> dict[str, tuple]:
    """Parse the run's CSV report into {cell: (nmse, ker, kgr, wall_time_s, seed)}."""
    csv_path = out_dir / f"{workload.report_stem}.csv"
    json_path = out_dir / f"{workload.report_stem}.json"
    if not csv_path.is_file() or not json_path.is_file():
        raise CheckFailed(f"missing {csv_path.name} or {json_path.name}")
    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    columns = SWEEP_COLUMNS if workload.sweep_values else CSV_COLUMNS
    if not rows or rows[0] != columns:
        raise CheckFailed(f"{csv_path.name} header {rows[:1]} != {columns}")
    try:
        doc = json.loads(json_path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{json_path.name} is not JSON: {exc}") from exc
    if len(doc.get("rows", [])) != len(rows) - 1 or not doc.get("randomness"):
        raise CheckFailed(f"{json_path.name} rows/randomness disagree with {csv_path.name}")
    cells = {}
    for row in rows[1:]:
        if len(row) != len(columns):
            raise CheckFailed(f"{csv_path.name}: ragged row {row}")
        rec = dict(zip(columns, row))
        try:
            key_parts = [rec["algorithm"], int(rec["env"]), float(rec["snr_db"])]
            if workload.sweep_values:
                key_parts.insert(0, float(rec["axis_value"]))
            nmse, ker, kgr = (float(rec[c]) for c in ("nmse", "ker", "kgr"))
            wall, seed = float(rec["wall_time_s"]), int(rec["seed"])
        except ValueError as exc:
            raise CheckFailed(f"{csv_path.name}: unparsable row {row}: {exc}") from exc
        cells[_cell_key(tuple(key_parts))] = (nmse, ker, kgr, wall, seed)
    return cells


def check_run(
    workload: Workload, cfg: dict, out_dir: Path, first_csv: bytes | None
) -> bytes:
    """Raise CheckFailed on any broken output; return the CSV bytes for the next comparison."""
    cells = read_cells(workload, out_dir)
    want = [_cell_key(c) for c in expected_cells(workload, cfg)]
    if sorted(cells) != sorted(want) or len(cells) != len(want):
        raise CheckFailed(f"cells {sorted(cells)} != expected {sorted(want)}")
    for key, (nmse, ker, kgr, wall, seed) in cells.items():
        if not all(math.isfinite(v) for v in (nmse, ker, kgr)):
            raise CheckFailed(f"{key}: non-finite metric {(nmse, ker, kgr)}")
        if not (0.0 <= nmse and 0.0 <= ker <= 1.0 and 0.0 <= kgr <= KGR_MAX):
            raise CheckFailed(f"{key}: metric out of range nmse={nmse} ker={ker} kgr={kgr}")
        if wall != 0.0 or seed != cfg["seed"]:
            raise CheckFailed(f"{key}: wall_time_s={wall} seed={seed}, want 0 and {cfg['seed']}")
    if cfg["seed"] == 0 and cfg["scale_factor"] == 1.0:
        _check_reference(workload, cells)
    if workload.dumps_keys:
        _check_key_dumps(cfg, out_dir)
    csv_bytes = (out_dir / f"{workload.report_stem}.csv").read_bytes()
    if first_csv is not None and csv_bytes != first_csv:
        raise CheckFailed("report CSV differs from the first run of the same config")
    return csv_bytes


def _check_reference(workload: Workload, cells: dict) -> None:
    ref = json.loads(REFERENCE_PATH.read_text())
    tol = ref["tolerance"]
    want = ref["workloads"].get(workload.name)
    if want is None or sorted(want) != sorted(cells):
        raise CheckFailed(f"reference.json has no matching cells for {workload.name}")
    for key, (nmse, ker, kgr, _, _) in cells.items():
        r_nmse, r_ker, r_kgr = want[key]
        if (
            abs(nmse - r_nmse) > tol["nmse_rel"] * abs(r_nmse)
            or abs(ker - r_ker) > tol["ker_abs"]
            or abs(kgr - r_kgr) > tol["kgr_abs"]
        ):
            raise CheckFailed(
                f"{key}: (nmse, ker, kgr) = {(nmse, ker, kgr)} off reference {want[key]}"
            )


def _check_key_dumps(cfg: dict, out_dir: Path) -> None:
    envs = [e["env_id"] for e in cfg["environments"]["targets"]]
    for alg in cfg["algorithms"]:
        for env in envs:
            for snr in cfg["snr_list_db"]:
                path = out_dir / f"keys_{alg}_env{env}_snr{snr:g}.txt"
                if not path.is_file():
                    raise CheckFailed(f"missing key dump {path.name}")
                text = path.read_bytes()
                if not text or set(text) - set(b"01\n"):
                    raise CheckFailed(f"{path.name} is empty or not 0/1 lines")
