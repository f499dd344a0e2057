"""Workload definitions: each one is a generated config plus the fdkg CLI arguments a user types.

Every config is derived from ``desk_profile(seed)`` with ``record_wall_time``
off (so reports are byte-comparable) and ``compute_randomness`` on.  Sizes are
cut from the desk profile so that one child run takes seconds, not minutes,
while each workload keeps the work split of the command it stands for:
training is over 2/3 of desk and meta-sweep, synthesis, quantizer and battery
over 2/3 of keys (the traced run reports both as ``split.*``).  Iteration caps
stay below the point where a plateau stop could fire (21 evaluation windows
for supervised training, 21 meta iterations), so the amount of work does not
depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

G_TR_VALUES = (1.0, 2.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # CLI arguments after ``python -m fdkg.cli``; {config} and {out} are filled in per run
    cli_args: tuple[str, ...]
    # stem of the report files the command writes (<stem>.csv, <stem>.json)
    report_stem: str
    sweep_values: tuple[float, ...]
    dumps_keys: bool
    edit: Callable[[dict], None]


def _scaled_desk(d: dict) -> None:
    """The desk profile (all four algorithms, SNR 20 dB) at about 1/8 of its training work."""
    d["sizes"] = {"n_source": 1000, "n_target": 178, "n_adapt": 128, "n_test": 50}
    d["train"]["max_iterations"] = 400
    d["meta"].update(task_batch=10, max_meta_iterations=20, adapt_steps=50)
    d["meta_tasks"]["n_tasks"] = 10


def _meta_sweep(d: dict) -> None:
    _scaled_desk(d)
    d["algorithms"] = ["meta"]


def _keys(d: dict) -> None:
    # one tenth of the paper-sized target sets and of the 200-iteration pretrain cap
    d["sizes"] = {"n_source": 400, "n_target": 500, "n_adapt": 100, "n_test": 400}
    d["train"]["max_iterations"] = 20
    d["algorithms"] = ["identity", "direct"]
    d["snr_list_db"] = [0.0, 10.0, 20.0, 30.0, 40.0]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            why=(
                "the run users type: desk profile, all 4 algorithms, cut to ~11 s; batch-128 Adam"
                " training is ~70% of it, synthesis and key scoring under 5%"
            ),
            cli_args=("run", "--config", "{config}", "--out", "{out}"),
            report_stem="report",
            sweep_values=(),
            dumps_keys=False,
            edit=_scaled_desk,
        ),
        Workload(
            name="meta-sweep",
            why=(
                "sweep g_tr=1,2, meta only: the network layer used differently (50-row full-batch"
                " backward, SGD inner steps, task-averaged Adam) and the sweep path"
            ),
            cli_args=(
                "sweep", "--axis", "g_tr", "--values", ",".join(f"{v:g}" for v in G_TR_VALUES),
                "--config", "{config}", "--out", "{out}",
            ),
            report_stem="sweep_g_tr",
            sweep_values=G_TR_VALUES,
            dumps_keys=False,
            edit=_meta_sweep,
        ),
        Workload(
            name="keys",
            why=(
                "run --dump-keys, identity+direct, 5 SNRs: channel synthesis, per-row quantizer,"
                " randomness battery and key dumps dominate; training under 5%"
            ),
            cli_args=("run", "--dump-keys", "--config", "{config}", "--out", "{out}"),
            report_stem="report",
            sweep_values=(),
            dumps_keys=True,
            edit=_keys,
        ),
    )
}

# Self-test shape: the README's scale_factor knob plus caps small enough that
# every workload shape finishes in about a second.
TINY_SCALE = 0.05


def _tiny(d: dict) -> None:
    d["scale_factor"] = TINY_SCALE
    d["train"]["max_iterations"] = min(d["train"]["max_iterations"], 5)
    d["meta"].update(task_batch=1, max_meta_iterations=2, adapt_steps=2)
    d["meta_tasks"]["samples_per_task"] = 20


def make_config(desk_profile, workload: Workload, seed: int, tiny: bool = False) -> dict:
    """The config dict a run of ``workload`` with ``seed`` feeds to the CLI."""
    d = desk_profile(seed).to_dict()
    d["record_wall_time"] = False
    d["compute_randomness"] = True
    workload.edit(d)
    if tiny:
        _tiny(d)
    return d
