import csv
import dataclasses
import json
import math
import typing

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fdkg.cli import main
from fdkg.keygen import write_key_dump
from fdkg.pipeline import KNOWN_ALGORITHMS, ExperimentConfig, desk_profile

from test_pipeline import mini_config


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def write_mini_config(tmp_path, **overrides):
    cfg = mini_config(snr=20.0, algorithms=["direct"], **overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


def test_run_writes_reports(tmp_path):
    cfg_path = write_mini_config(tmp_path)
    out = tmp_path / "out"
    result = invoke("run", "--config", str(cfg_path), "--out", str(out))
    assert result.exit_code == 0, result.output
    assert (out / "report.csv").exists()
    assert (out / "report.json").exists()
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "algorithm,env,snr_db,nmse,ker,kgr,wall_time_s,seed"


def test_run_dump_keys_feeds_nist(tmp_path):
    # fdkg nist on a cell's key dump reports the cell's report.json randomness rows
    cfg = mini_config(snr=20.0, algorithms=["identity", "direct"], compute_randomness=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "out"
    result = invoke("run", "--config", str(cfg_path), "--out", str(out), "--dump-keys")
    assert result.exit_code == 0, result.output
    report_rows = json.loads((out / "report.json").read_text())["randomness"]
    assert any(r["n_applicable"] == 0 and r["pass_ratio"] is None for r in report_rows)
    for alg in cfg.algorithms:
        dump = out / f"keys_{alg}_env2_snr20.txt"
        nist_out = tmp_path / f"nist_{alg}.csv"
        result = invoke("nist", "--keys", str(dump), "--out", str(nist_out))
        assert result.exit_code == 0, result.output
        with open(nist_out, newline="") as fh:
            nist_rows = [
                (r["test"], r["mode"], int(r["n_keys"]), int(r["n_applicable"]), r["pass_ratio"])
                for r in csv.DictReader(fh)
            ]
        cell_rows = [
            (r["test_name"], r["mode"], r["n_keys"], r["n_applicable"],
             "" if r["pass_ratio"] is None else f"{r['pass_ratio']:.9g}")
            for r in report_rows
            if r["algorithm"] == alg
        ]
        assert len(nist_rows) == 8 and nist_rows == cell_rows


def test_run_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"not\": \"a config\"}")
    result = invoke("run", "--config", str(path), "--out", str(tmp_path / "o"))
    assert result.exit_code == 2


def write_config_dict(tmp_path, edit):
    doc = mini_config(snr=20.0, algorithms=["direct", "meta"]).to_dict()
    edit(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def forbid_work(monkeypatch):
    """Replace the pipeline's synthesis and training entry points with stubs that record calls."""
    import fdkg.pipeline as pipeline

    called = []
    for name in ("generate_env_dataset", "train_supervised", "meta_train", "adapt"):
        monkeypatch.setattr(pipeline, name, lambda *a, _n=name, **k: called.append(_n))
    return called


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["train"].update(batch_size=0),
        lambda d: d.update(hidden_dims=[0]),
        lambda d: d["meta_tasks"].update(n_tasks=100),
        lambda d: d["meta"].update(task_batch=5),
        lambda d: d.update(train_snr_db=math.nan),
        lambda d: d.update(snr_list_db=[-math.inf]),
        lambda d: d["train"].update(batch_size=1.5),
        lambda d: d.update(record_wall_time="false"),
        lambda d: d.update(compute_randomnes=True),
        lambda d: d["environments"]["targets"].append(dict(d["environments"]["targets"][0], seed=99)),
        lambda d: d.update(n_source=5),
        lambda d: d.update(algorithms=["direct", "direct"]),
        lambda d: d.update(snr_list_db=[20.0, 20.0]),
        lambda d: d["meta_tasks"].update(support_fraction=1.0),
        # scaling once lifted n_tasks 0 to 1
        lambda d: (d.update(scale_factor=0.5), d["meta_tasks"].update(n_tasks=0), d["meta"].update(task_batch=1)),
        # one adaptation sample gives every target a zero-range normalizer
        lambda d: d["sizes"].update(n_adapt=1),
        lambda d: (d.update(scale_factor=0.05, algorithms=["direct"]), d["sizes"].update(n_adapt=20)),
        # one source sample gives every source feature a zero-range normalizer (meta would refuse it anyway)
        lambda d: (d.update(algorithms=["direct"]), d["sizes"].update(n_source=1)),
        lambda d: (
            d.update(scale_factor=0.05, algorithms=["direct"]),
            d["sizes"].update(n_source=20, n_target=100, n_adapt=40, n_test=40),
        ),
        # an infinite carrier or delay spread once failed in synthesis, an infinite learning rate in training
        lambda d: d["ofdm"].update(f_dl_hz=math.inf),
        lambda d: d["environments"]["targets"][0].update(delay_spread_s=math.inf),
        lambda d: d["train"].update(learning_rate=math.inf),
        lambda d: d["meta"].update(inner_lr=math.inf),
        lambda d: d["meta"].update(outer_lr=math.inf),
        # a negative seed once failed in init_network after synthesis, an environment key
        # outside signed 64-bit when the random streams were keyed
        lambda d: d.update(seed=-3),
        lambda d: d["environments"]["source"][0].update(seed=2**63),
        lambda d: d["environments"]["targets"][0].update(seed=-(2**63) - 1),
        lambda d: d["environments"]["targets"][0].update(env_id=2**63),
        # only the config checks these: synthesis and key scoring trust them
        lambda d: d["ofdm"].update(n_subcarriers=0),
        lambda d: d.update(quantizer_epsilon=0.5),
    ],
    ids=[
        "zero_batch_size",
        "zero_hidden_dim",
        "too_many_meta_tasks",
        "task_batch_over_tasks",
        "nan_train_snr",
        "minus_inf_test_snr",
        "fractional_batch_size",
        "string_bool",
        "unknown_key",
        "duplicate_target_env_id",
        "grouped_field_at_top_level",
        "duplicate_algorithm",
        "duplicate_test_snr",
        "support_fraction_one",
        "zero_meta_tasks_scaled",
        "one_adaptation_sample",
        "one_adaptation_sample_scaled",
        "one_source_sample",
        "one_source_sample_scaled",
        "inf_f_dl",
        "inf_delay_spread",
        "inf_learning_rate",
        "inf_inner_lr",
        "inf_outer_lr",
        "negative_seed",
        "env_seed_over_int64",
        "env_seed_under_int64",
        "env_id_over_int64",
        "zero_subcarriers",
        "epsilon_one_half",
    ],
)
def test_run_invalid_config_exits_2_before_any_work(tmp_path, monkeypatch, edit):
    called = forbid_work(monkeypatch)
    cfg_path = write_config_dict(tmp_path, edit)
    result = invoke("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert result.exit_code == 2, result.output
    assert "config error" in result.output
    assert called == []


def config_sites(tp, doc, path=()):
    """Where a config document can be broken, walking the dataclass ``tp`` beside ``doc``:
    ("leaf", path, the JSON types it may hold), ("object", path, its keys) and
    ("required", path, None) for a field without a default."""
    if dataclasses.is_dataclass(tp):
        yield "object", path, set(doc)
        hints = typing.get_type_hints(tp)
        for f in dataclasses.fields(tp):
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                yield "required", path + (f.name,), None
            yield from config_sites(hints[f.name], doc[f.name], path + (f.name,))
    elif typing.get_origin(tp) in (list, tuple):
        hints = typing.get_args(tp) * len(doc) if typing.get_origin(tp) is list else typing.get_args(tp)
        for i, (hint, item) in enumerate(zip(hints, doc)):
            yield from config_sites(hint, item, path + (i,))
    else:
        yield "leaf", path, (int, float) if tp is float else (tp,)


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def break_config(doc, change):
    op, path, value = change
    doc = json.loads(json.dumps(doc))
    parent = at(doc, path[:-1])
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


DESK_DOC = desk_profile().to_dict()
SITES = list(config_sites(ExperimentConfig, DESK_DOC))
# every key the config uses somewhere, so that a key known at one level is tried at another
KNOWN_KEYS = sorted(
    {key for _, path, _ in SITES for key in path if isinstance(key, str)}
    | {f.name for f in dataclasses.fields(ExperimentConfig)}
)
OTHER_JSON_VALUES = (None, True, 7, 0.5, "x", [], {})
CONFIG_BREAKS = st.one_of(
    # a leaf of another JSON type (an int where a float goes is valid, so it is not tried)
    st.sampled_from([(p, ok) for kind, p, ok in SITES if kind == "leaf"]).flatmap(
        lambda site: st.sampled_from([v for v in OTHER_JSON_VALUES if type(v) not in site[1]]).map(
            lambda v: ("set", site[0], v)
        )
    ),
    # an unknown key at any object level
    st.sampled_from([(p, keys) for kind, p, keys in SITES if kind == "object"]).flatmap(
        lambda site: (st.sampled_from(KNOWN_KEYS) | st.text(min_size=1, max_size=8))
        .filter(lambda key: key not in site[1])
        .map(lambda key: ("set", site[0] + (key,), 1))
    ),
    # a field without a default dropped
    st.sampled_from([p for kind, p, _ in SITES if kind == "required"]).map(lambda p: ("drop", p, None)),
    # NaN in a float leaf
    st.sampled_from([p for kind, p, ok in SITES if kind == "leaf" and float in ok]).map(
        lambda p: ("set", p, math.nan)
    ),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(change=CONFIG_BREAKS)
@example(change=("set", ("n_source",), 1))  # a grouped field at the top level was once ignored
@example(change=("set", ("ofdm", "f_ul_hz"), math.nan))  # once failed in synthesis with a traceback
def test_run_rejects_a_config_broken_in_one_place_before_any_work(tmp_path, monkeypatch, change):
    called = forbid_work(monkeypatch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(break_config(DESK_DOC, change)))
    result = invoke("run", "--config", str(path), "--out", str(tmp_path / "o"))
    assert result.exit_code == 2, (change, result.output)
    assert "config error" in result.output
    assert called == []


def test_run_negative_profile_seed_exits_2_before_any_work(tmp_path, monkeypatch):
    called = forbid_work(monkeypatch)
    result = invoke("run", "--profile", "desk", "--seed", "-1", "--out", str(tmp_path / "o"))
    assert result.exit_code == 2, result.output
    assert "config error: seed must be >= 0" in result.output
    assert called == []


def test_run_gain_decay_underflow_exits_3(tmp_path):
    # a tiny positive gain_decay once underflowed every far path gain to 0 and ended in a traceback
    cfg_path = write_config_dict(tmp_path, lambda d: d["environments"]["source"][0].update(gain_decay=1e-4))
    result = invoke("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert result.exit_code == 3, result.output
    assert "numeric failure: path gains underflow to 0" in result.output


def overflow_delay_spreads(d):
    for spec in d["environments"]["source"] + d["environments"]["targets"]:
        spec.update(delay_spread_s=1e300)


def overflow_carrier(d):
    d["ofdm"].update(f_ul_hz=1e300)
    for spec in d["environments"]["source"] + d["environments"]["targets"]:
        spec.update(delay_spread_s=1e10)


@pytest.mark.parametrize("snr", [20.0, math.inf])
@pytest.mark.parametrize("overflow", [overflow_delay_spreads, overflow_carrier])
# numpy's overflow warnings once printed the failure a second time, before the numeric failure line
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_overflowing_carrier_phase_exits_3(tmp_path, overflow, snr):
    # 2*pi * carrier * delay overflowing to inf once ended in a ValueError traceback (exit 1)
    cfg_path = write_config_dict(tmp_path, lambda d: (d.update(snr_list_db=[snr], train_snr_db=snr), overflow(d)))
    result = invoke("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert result.exit_code == 3, result.output
    assert "numeric failure: non-finite channel response" in result.output


def test_run_dump_keys_with_colliding_dump_names_exits_2_before_any_work(tmp_path, monkeypatch):
    # both SNRs format as snr20, so one cell's key dump once overwrote the other's
    called = forbid_work(monkeypatch)
    cfg_path = write_config_dict(tmp_path, lambda d: d.update(snr_list_db=[20.0, 20.0000001]))
    result = invoke("run", "--dump-keys", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert result.exit_code == 2, result.output
    assert "config error: --dump-keys" in result.output
    assert called == []
    assert not (tmp_path / "o").exists()


@st.composite
def tiny_configs(draw):
    """A tiny config document: at most 8 samples per set once scaled, one 8-wide hidden
    layer and at most 5 steps per training.  Carriers and delay spreads are physical, but
    about one document in ten has a target whose carrier phase 2*pi*f*delay overflows.
    Its values may still conflict, and the CLI must then exit 2."""
    scale = draw(st.just(1.0) | st.floats(0.05, 1.0))

    def unscaled(n):
        """The count that scale_factor maps back to exactly n (n / scale lies within 1/2 of it)."""
        return round(n / scale)

    doc = mini_config(hidden_dims=[8]).to_dict()
    for spec in doc["environments"]["source"] + doc["environments"]["targets"]:
        spec.update(
            # both ranges end one past signed 64-bit
            seed=draw(st.integers(-(2**63) - 1, 2**63)),
            env_id=draw(st.integers(-(2**63) - 1, 2**63)),
            gain_decay=draw(st.floats(1e-6, math.inf)),
            delay_spread_s=draw(st.floats(1e-9, 1e-5)),
        )
    if draw(st.integers(0, 9)) == 0:
        draw(st.sampled_from(doc["environments"]["targets"])).update(delay_spread_s=1e300)
    doc["ofdm"].update(f_ul_hz=draw(st.floats(1e8, 1e11)), f_dl_hz=draw(st.floats(1e8, 1e11)))
    doc.update(
        seed=draw(st.integers(-1, 3) | st.integers(4, 2**64)),
        scale_factor=scale,
        algorithms=draw(st.lists(st.sampled_from(KNOWN_ALGORITHMS), min_size=1, unique=True)),
        snr_list_db=draw(st.lists(st.sampled_from([0.0, 20.0, math.inf]), min_size=1, unique=True)),
        compute_randomness=draw(st.booleans()),
    )
    # hypothesis draws the low end of a range far more often than the high end, so n_source
    # counts down from 8 and a single source sample (exit 2) is a rare draw; a target set
    # may also round below n_adapt + n_test once scaled and exit 2
    n_source, n_adapt, n_test = 9 - draw(st.integers(1, 8)), draw(st.integers(2, 4)), draw(st.integers(1, 4))
    n_spare = draw(st.integers(0, 8 - n_adapt - n_test))
    doc["sizes"] = dict(
        n_source=unscaled(n_source),
        n_target=unscaled(n_adapt) + unscaled(n_test) + unscaled(n_spare),
        n_adapt=unscaled(n_adapt),
        n_test=unscaled(n_test),
    )
    doc["train"].update(batch_size=draw(st.integers(1, 8)), max_iterations=draw(st.integers(0, 5)))
    # meta tasks overfill the source (exit 2) only when n_source < samples_per_task
    samples_per_task = draw(st.integers(2, 4))
    n_tasks = draw(st.integers(1, max(1, n_source // samples_per_task)))
    doc["meta_tasks"].update(n_tasks=unscaled(n_tasks), samples_per_task=samples_per_task)
    doc["meta"].update(
        inner_steps=draw(st.integers(1, 2)),
        task_batch=draw(st.integers(1, n_tasks)),
        adapt_steps=draw(st.integers(0, 5)),
        max_meta_iterations=draw(st.integers(1, 5)),
    )
    return doc


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=tiny_configs())
@example(  # one adaptation sample once ended in a traceback after synthesis
    doc=dict(mini_config(hidden_dims=[8]).to_dict(), sizes=dict(n_source=4, n_target=2, n_adapt=1, n_test=1))
)
def test_run_exits_0_2_or_3_on_any_tiny_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    result = invoke("run", "--config", str(path), "--out", str(tmp_path / "o"))
    assert result.exit_code in (0, 2, 3), (doc, result.output, result.exception)


def test_run_numeric_failure_in_a_concurrent_chain_exits_3(tmp_path, monkeypatch):
    import fdkg.pipeline as pipeline

    def diverge(*args, **kwargs):
        raise FloatingPointError("non-finite activations in forward pass")

    monkeypatch.setattr(pipeline, "_chain_width", lambda n_chains: 3)
    monkeypatch.setattr(pipeline, "meta_train", diverge)
    cfg_path = write_config_dict(tmp_path, lambda d: d.update(algorithms=["direct", "joint", "meta"]))
    result = invoke("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert result.exit_code == 3, result.output
    assert "numeric failure" in result.output


def test_run_non_finite_predictions_exit_3(tmp_path, monkeypatch):
    import fdkg.pipeline as pipeline

    monkeypatch.setattr(pipeline, "forward", lambda net, inputs: np.full_like(inputs, np.nan))
    result = invoke("run", "--config", str(write_mini_config(tmp_path)), "--out", str(tmp_path / "o"))
    assert result.exit_code == 3, result.output
    assert "numeric failure: feature vectors must be finite" in result.output


def test_run_config_with_seed_flag_conflicts(tmp_path, monkeypatch):
    # --profile with --config once ran the file and ignored the profile
    called = forbid_work(monkeypatch)
    cfg_path = write_mini_config(tmp_path)
    for command in (["run"], ["sweep", "--axis", "snr", "--values", "20"]):
        for flag in (["--seed", "3"], ["--profile", "paper"]):
            result = invoke(*command, "--config", str(cfg_path), *flag, "--out", str(tmp_path / "o"))
            assert result.exit_code == 2, (command, flag, result.output)
            assert f"{flag[0]} with --config is ambiguous" in result.output
    assert called == []


def test_sweep_command(tmp_path):
    cfg_path = write_mini_config(tmp_path)
    out = tmp_path / "out"
    result = invoke(
        "sweep", "--axis", "snr", "--values", "10,20", "--config", str(cfg_path), "--out", str(out)
    )
    assert result.exit_code == 0, result.output
    lines = (out / "sweep_snr.csv").read_text().splitlines()
    assert lines[0].startswith("axis,axis_value,")
    assert len(lines) > 2


def test_sweep_bad_values_exits_2(tmp_path):
    cfg_path = write_mini_config(tmp_path)
    result = invoke(
        "sweep", "--axis", "snr", "--values", "a,b", "--config", str(cfg_path),
        "--out", str(tmp_path / "o"),
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["2.5", "nan", "inf"])
@pytest.mark.parametrize("axis", ["n_ad", "g_ad", "g_tr", "e_batch"])
def test_sweep_integer_axis_rejects_non_whole_values_before_any_work(tmp_path, monkeypatch, axis, value):
    called = forbid_work(monkeypatch)
    cfg_path = write_mini_config(tmp_path)
    out = tmp_path / "out"
    result = invoke(
        "sweep", "--axis", axis, "--values", f"2,{value}", "--config", str(cfg_path), "--out", str(out)
    )
    assert result.exit_code == 2, result.output
    assert "whole numbers" in result.output
    assert called == []
    assert not out.exists()


@pytest.mark.parametrize("axis, values", [("g_tr", "1,1"), ("e_batch", "2,1,2"), ("snr", "20,20")])
def test_sweep_duplicate_values_exit_2_before_any_work(tmp_path, monkeypatch, axis, values):
    called = forbid_work(monkeypatch)
    cfg_path = write_config_dict(tmp_path, lambda d: None)
    out = tmp_path / "out"
    result = invoke("sweep", "--axis", axis, "--values", values, "--config", str(cfg_path), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert "distinct" in result.output
    assert called == []
    assert not out.exists()


def test_sweep_n_ad_value_below_two_exits_2_before_any_work(tmp_path, monkeypatch):
    called = forbid_work(monkeypatch)
    cfg_path = write_mini_config(tmp_path)
    out = tmp_path / "out"
    result = invoke("sweep", "--axis", "n_ad", "--values", "12,1", "--config", str(cfg_path), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert "n_adapt must be >= 2" in result.output
    assert called == []
    assert not out.exists()


@pytest.mark.parametrize("width", [1, 2])
def test_sweep_numeric_failure_in_a_later_value_exits_3(tmp_path, monkeypatch, width):
    import fdkg.pipeline as pipeline

    real = pipeline.meta_train

    def diverge_at_g_tr_2(init, tasks, cfg, **kwargs):
        if cfg.inner_steps == 2:
            raise FloatingPointError("non-finite activations in forward pass")
        return real(init, tasks, cfg, **kwargs)

    monkeypatch.setattr(pipeline, "_chain_width", lambda n_chains: width)
    monkeypatch.setattr(pipeline, "meta_train", diverge_at_g_tr_2)
    cfg_path = write_config_dict(tmp_path, lambda d: d.update(algorithms=["meta"]))
    out = tmp_path / "out"
    result = invoke("sweep", "--axis", "g_tr", "--values", "1,2", "--config", str(cfg_path), "--out", str(out))
    assert result.exit_code == 3, result.output
    assert "numeric failure" in result.output
    assert not out.exists()


def test_nist_command(tmp_path):
    rng = np.random.default_rng(3)
    keys = [rng.integers(0, 2, 128).astype(np.uint8) for _ in range(40)]
    dump = tmp_path / "keys.txt"
    write_key_dump(keys, dump)
    out = tmp_path / "nist.csv"
    result = invoke("nist", "--keys", str(dump), "--out", str(out))
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "test,mode,params,n_keys,n_applicable,pass_ratio,p_values"
    names = {line.split(",")[0] for line in lines[1:]}
    assert "frequency" in names and "rank" in names


def test_nist_empty_dump_exits_2(tmp_path):
    dump = tmp_path / "empty.txt"
    dump.write_text("")
    result = invoke("nist", "--keys", str(dump), "--out", str(tmp_path / "o.csv"))
    assert result.exit_code == 2


def test_nist_csv_rows_have_one_field_per_column(tmp_path):
    # the rank test needs longer keys, and the reason it gives holds a comma
    rng = np.random.default_rng(3)
    dump = tmp_path / "keys.txt"
    write_key_dump([rng.integers(0, 2, 100) for _ in range(20)], dump)
    out = tmp_path / "nist.csv"
    result = invoke("nist", "--keys", str(dump), "--out", str(out))
    assert result.exit_code == 0, result.output
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["test", "mode", "params", "n_keys", "n_applicable", "pass_ratio", "p_values"]
    assert any("," in row[2] for row in rows)
    assert all(len(row) == len(header) for row in rows)
    # the rank test did not run: no pass ratio, no P-values, and n/a on stdout
    (rank,) = [row for row in rows if row[0] == "rank"]
    assert rank[4:] == ["0", "", ""]
    assert "pass ratio n/a" in result.output


@pytest.mark.parametrize(
    "content, reason",
    [(b"0101\n01x1\n", "non-binary"), (b"0101\n01\xff1\n", "not ASCII")],
    ids=["non-binary", "non-ascii"],
)
def test_nist_malformed_dump_exits_2(tmp_path, content, reason):
    dump = tmp_path / "bad.txt"
    dump.write_bytes(content)
    result = invoke("nist", "--keys", str(dump), "--out", str(tmp_path / "o.csv"))
    assert result.exit_code == 2, result.output
    assert "format error:" in result.output and reason in result.output
