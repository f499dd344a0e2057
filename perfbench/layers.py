"""Per-layer metrics from the spans of one traced run (see tracer.py).

Busy time of a name is the summed duration of its spans that do not sit inside
another span of the same name; self time is a span's duration minus the time
its direct child spans cover.  The network operation counts are computed from
the layer dims and traced row counts, not measured: a dense layer of fan-in i
and fan-out o costs 2*i*o flops per row in each matmul, a forward pass does
one matmul per layer, and ``backward`` does the forward pass again, the weight
gradient for every layer and the delta product for every layer but the first.
Parameter bytes per optimizer step are computed from ``n_parameters`` in
float64: Adam reads theta, g, m, v and writes theta, m, v (7 arrays); SGD
reads theta, g and writes theta (3 arrays).
"""

from __future__ import annotations

from collections import defaultdict

from tracer import RANDOMNESS_TESTS

FLOAT64_BYTES = 8

# (name, unit) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("neuralnet.backward.calls", "count"),
    ("neuralnet.backward.rows", "count"),
    ("neuralnet.backward.busy_s", "s"),
    ("neuralnet.adam_step.calls", "count"),
    ("neuralnet.adam_step.busy_s", "s"),
    ("neuralnet.adam_step.bytes_per_call", "B"),
    ("neuralnet.sgd_step.calls", "count"),
    ("neuralnet.sgd_step.busy_s", "s"),
    ("neuralnet.sgd_step.bytes_per_call", "B"),
    ("neuralnet.forward.rows", "count"),
    ("neuralnet.forward.busy_s", "s"),
    ("neuralnet.gflop", "GFLOP"),
    ("neuralnet.gflop_per_s", "GFLOP/s"),
    ("strategies.train_supervised.steps", "count"),
    ("strategies.train_supervised.busy_s", "s"),
    ("strategies.train_supervised.self_s", "s"),
    ("strategies.inner_update.busy_s", "s"),
    ("strategies.meta_train.iterations", "count"),
    ("strategies.meta_train.busy_s", "s"),
    ("strategies.meta_train.self_s", "s"),
    ("strategies.adapt.steps", "count"),
    ("strategies.adapt.busy_s", "s"),
    ("strategies.adapt.self_s", "s"),
    ("channel_sim.samples", "count"),
    ("channel_sim.busy_s", "s"),
    ("channel_sim.us_per_sample", "us"),
    ("features.busy_s", "s"),
    ("pipeline.nmse.busy_s", "s"),
    ("pipeline.score_keys.busy_s", "s"),
    ("keygen.quantize_guardband.calls", "count"),
    ("keygen.quantize_guardband.busy_s", "s"),
    ("keygen.usable_key_ratio", "ratio"),
    ("randomness.run_battery.busy_s", "s"),
    *[(f"randomness.{t}.busy_s", "s") for t in RANDOMNESS_TESTS],
    ("randomness.keys_tested", "count"),
    ("pipeline.run_pipeline.self_s", "s"),
    ("pipeline.sweep.self_s", "s"),
    ("cli.self_s", "s"),
    ("split.train_share", "ratio"),
    ("split.keys_share", "ratio"),
    ("trace_overhead", "s"),
]

TRAIN_PREFIXES = ("neuralnet.", "strategies.")
KEYS_PREFIXES = ("channel_sim.", "keygen.", "randomness.", "pipeline.score_keys")


def _matmul_flops_per_row(dims: list[int]) -> tuple[int, int]:
    """(forward, backward) flops per row for a dense net with these layer dims."""
    layers = [2 * i * o for i, o in zip(dims[:-1], dims[1:])]
    forward = sum(layers)
    return forward, forward + sum(layers) + sum(layers[1:])


def _covered(spans: list[dict], idx: list[int]) -> float:
    """Summed duration of the spans in idx that have no ancestor in idx."""
    members = set(idx)
    total = 0.0
    for i in idx:
        p = spans[i]["parent"]
        while p is not None and p not in members:
            p = spans[p]["parent"]
        if p is None:
            total += spans[i]["end"] - spans[i]["start"]
    return total


def per_layer_metrics(
    span_rows: list[list], child_wall_s: float, overhead_s: float
) -> dict[str, float]:
    """Metrics of PER_LAYER from tracer.py's span rows and the traced run's wall time."""
    spans = [
        {"id": i, "name": n, "start": t0, "end": t1, "parent": p, "counts": c}
        for i, (n, t0, t1, p, c) in enumerate(span_rows)
    ]
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def dur(s: dict) -> float:
        return s["end"] - s["start"]

    def busy(*names: str) -> float:
        return _covered(spans, [s["id"] for n in names for s in by_name[n]])

    def self_s(name: str) -> float:
        return sum(dur(s) - sum(dur(c) for c in children[s["id"]]) for s in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def count(name: str, key: str) -> int:
        return sum(s["counts"][key] for s in by_name[name])

    def child_calls(parent: str, child: str) -> int:
        return sum(1 for s in by_name[parent] for c in children[s["id"]] if c["name"] == child)

    def bytes_per_call(name: str, arrays: int) -> float:
        n = calls(name)
        return arrays * FLOAT64_BYTES * count(name, "params") / n if n else 0.0

    flops = 0
    for name, which in (("neuralnet.forward", 0), ("neuralnet.backward", 1)):
        for s in by_name[name]:
            flops += _matmul_flops_per_row(s["counts"]["dims"])[which] * s["counts"]["rows"]
    gflop = flops / 1e9
    matmul_busy = busy("neuralnet.forward") + busy("neuralnet.backward")
    samples = count("channel_sim.generate_env_dataset", "samples")
    scored_rows = count("pipeline.score_keys", "rows")
    top_level = "pipeline.sweep" if by_name["pipeline.sweep"] else "pipeline.run_pipeline"
    names = list(by_name)

    return {
        "neuralnet.backward.calls": calls("neuralnet.backward"),
        "neuralnet.backward.rows": count("neuralnet.backward", "rows"),
        "neuralnet.backward.busy_s": busy("neuralnet.backward"),
        "neuralnet.adam_step.calls": calls("neuralnet.adam_step"),
        "neuralnet.adam_step.busy_s": busy("neuralnet.adam_step"),
        "neuralnet.adam_step.bytes_per_call": bytes_per_call("neuralnet.adam_step", 7),
        "neuralnet.sgd_step.calls": calls("neuralnet.sgd_step"),
        "neuralnet.sgd_step.busy_s": busy("neuralnet.sgd_step"),
        "neuralnet.sgd_step.bytes_per_call": bytes_per_call("neuralnet.sgd_step", 3),
        "neuralnet.forward.rows": count("neuralnet.forward", "rows"),
        "neuralnet.forward.busy_s": busy("neuralnet.forward"),
        "neuralnet.gflop": gflop,
        "neuralnet.gflop_per_s": gflop / matmul_busy if matmul_busy else 0.0,
        "strategies.train_supervised.steps": child_calls(
            "strategies.train_supervised", "neuralnet.backward"
        ),
        "strategies.train_supervised.busy_s": busy("strategies.train_supervised"),
        "strategies.train_supervised.self_s": self_s("strategies.train_supervised"),
        "strategies.inner_update.busy_s": busy("strategies.inner_update"),
        "strategies.meta_train.iterations": child_calls(
            "strategies.meta_train", "neuralnet.adam_step"
        ),
        "strategies.meta_train.busy_s": busy("strategies.meta_train"),
        "strategies.meta_train.self_s": self_s("strategies.meta_train"),
        "strategies.adapt.steps": child_calls("strategies.adapt", "neuralnet.backward"),
        "strategies.adapt.busy_s": busy("strategies.adapt"),
        "strategies.adapt.self_s": self_s("strategies.adapt"),
        "channel_sim.samples": samples,
        "channel_sim.busy_s": busy("channel_sim.generate_env_dataset"),
        "channel_sim.us_per_sample": (
            1e6 * busy("channel_sim.generate_env_dataset") / samples if samples else 0.0
        ),
        "features.busy_s": busy(*[n for n in names if n.startswith("features.")]),
        "pipeline.nmse.busy_s": busy("pipeline.nmse"),
        "pipeline.score_keys.busy_s": busy("pipeline.score_keys"),
        "keygen.quantize_guardband.calls": calls("keygen.quantize_guardband"),
        "keygen.quantize_guardband.busy_s": busy("keygen.quantize_guardband"),
        "keygen.usable_key_ratio": (
            count("pipeline.score_keys", "usable") / scored_rows if scored_rows else 0.0
        ),
        "randomness.run_battery.busy_s": busy("randomness.run_battery"),
        **{f"randomness.{t}.busy_s": busy(f"randomness.{t}") for t in RANDOMNESS_TESTS},
        "randomness.keys_tested": count("randomness.run_battery", "keys"),
        "pipeline.run_pipeline.self_s": self_s("pipeline.run_pipeline"),
        "pipeline.sweep.self_s": self_s("pipeline.sweep"),
        "cli.self_s": child_wall_s - busy(top_level),
        "split.train_share": busy(*[n for n in names if n.startswith(TRAIN_PREFIXES)])
        / child_wall_s,
        "split.keys_share": busy(*[n for n in names if n.startswith(KEYS_PREFIXES)])
        / child_wall_s,
        "trace_overhead": overhead_s,
    }
