"""Run the fdkg CLI in this process with a span recorded around every layer call.

Usage: python perfbench/tracer.py SPANS_JSON RUN_ID -- <fdkg CLI arguments>

Each layer's public functions are replaced, for the length of the run, at the
module attribute their callers look up (``fdkg.pipeline.train_supervised``,
``fdkg.strategies.backward``, ...).  A span is (name, start, end, parent, run
id) plus a few work counts read from the call's arguments.  Spans stay in
memory and are written to SPANS_JSON when the CLI returns; every replaced name
is restored first, and the file records whether the restore held and when the
CLI returned (``cli_end``, a ``time.perf_counter`` reading), so the write-out
is not counted as traced work.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

RANDOMNESS_TESTS = (
    "frequency",
    "block_frequency",
    "runs",
    "cumulative_sums",
    "dft",
    "rank",
    "approximate_entropy",
    "serial",
)


def _rows(x) -> int:
    return int(x.shape[0]) if getattr(x, "ndim", 1) == 2 else 1


# (module, attribute, span name, counts(args, result) -> dict or None)
TARGETS = [
    ("fdkg.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("fdkg.cli", "run_sweep", "pipeline.sweep", None),
    ("fdkg.cli", "write_key_dump", "keygen.write_key_dump", None),
    ("fdkg.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("fdkg.pipeline", "train_supervised", "strategies.train_supervised", None),
    ("fdkg.pipeline", "meta_train", "strategies.meta_train", None),
    ("fdkg.pipeline", "adapt", "strategies.adapt", None),
    (
        "fdkg.pipeline",
        "generate_env_dataset",
        "channel_sim.generate_env_dataset",
        lambda a, r: {"samples": int(a[1])},
    ),
    (
        "fdkg.pipeline",
        "forward",
        "neuralnet.forward",
        lambda a, r: {"rows": _rows(a[1]), "dims": list(a[0].layer_dims)},
    ),
    (
        "fdkg.pipeline",
        "score_keys",
        "pipeline.score_keys",
        lambda a, r: {"rows": _rows(a[0]), "usable": len(r.alice_keys)},
    ),
    ("fdkg.pipeline", "nmse", "pipeline.nmse", None),
    ("fdkg.pipeline", "run_battery", "randomness.run_battery", lambda a, r: {"keys": len(a[0])}),
    ("fdkg.pipeline", "quantize_guardband", "keygen.quantize_guardband", None),
    ("fdkg.pipeline", "complex_to_features", "features.complex_to_features", None),
    ("fdkg.pipeline", "normalize", "features.normalize", None),
    ("fdkg.pipeline", "fit_normalizer", "features.fit_normalizer", None),
    (
        "fdkg.strategies",
        "backward",
        "neuralnet.backward",
        lambda a, r: {"rows": _rows(a[1]), "dims": list(a[0].layer_dims)},
    ),
    ("fdkg.strategies", "adam_step", "neuralnet.adam_step", lambda a, r: {"params": a[0].n_parameters}),
    ("fdkg.strategies", "sgd_step", "neuralnet.sgd_step", lambda a, r: {"params": a[0].n_parameters}),
    ("fdkg.strategies", "inner_update", "strategies.inner_update", None),
] + [("fdkg.randomness", f"{t}_test", f"randomness.{t}", None) for t in RANDOMNESS_TESTS]


class Recorder:
    """In-memory span list with a parent stack (the CLI runs cells on one thread).

    A span is the list [name, start, end, parent index, counts or None]; every
    span of one recorder belongs to its run id.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span[4] = counts(args, result)
            return result

        return traced


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    recorder = Recorder(run_id)
    originals = []
    for mod_name, attr, span_name, counts in TARGETS:
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr)
        originals.append((mod, attr, fn))
        setattr(mod, attr, recorder.wrap(fn, span_name, counts))

    import fdkg.cli

    code = 0
    try:
        fdkg.cli.main(args=cli_args, prog_name="fdkg")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        cli_end = time.perf_counter()
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)
        restored = all(getattr(mod, attr) is fn for mod, attr, fn in originals)
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "run_id": run_id,
                    "exit_code": code,
                    "restored": restored,
                    "cli_end": cli_end,
                    "span_fields": ["name", "start", "end", "parent", "counts"],
                    "spans": recorder.spans,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
