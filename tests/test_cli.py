import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from fdkg.cli import main
from fdkg.features import fit_normalizer
from fdkg.keygen import write_key_dump
from fdkg.model_io import save_model
from fdkg.neuralnet import init_network

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
    cfg_path = write_mini_config(tmp_path)
    out = tmp_path / "out"
    result = invoke("run", "--config", str(cfg_path), "--out", str(out), "--dump-keys")
    assert result.exit_code == 0, result.output
    dumps = sorted(out.glob("keys_*.txt"))
    assert dumps, "no key dumps written"
    nist_out = tmp_path / "nist.csv"
    result = invoke("nist", "--keys", str(dumps[0]), "--out", str(nist_out))
    assert result.exit_code == 0, result.output
    assert nist_out.read_text().startswith("test,mode,params")


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
    ],
)
def test_run_invalid_config_exits_2_before_any_work(tmp_path, monkeypatch, edit):
    called = forbid_work(monkeypatch)
    cfg_path = write_config_dict(tmp_path, edit)
    result = invoke("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert result.exit_code == 2, result.output
    assert "config error" in result.output
    assert called == []


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


def test_run_config_with_seed_flag_conflicts(tmp_path):
    cfg_path = write_mini_config(tmp_path)
    result = invoke("run", "--config", str(cfg_path), "--seed", "3", "--out", str(tmp_path / "o"))
    assert result.exit_code == 2


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


def test_nist_command(tmp_path):
    rng = np.random.default_rng(3)
    keys = [rng.integers(0, 2, 128).astype(np.uint8) for _ in range(40)]
    dump = tmp_path / "keys.txt"
    write_key_dump(keys, dump)
    out = tmp_path / "nist.csv"
    result = invoke("nist", "--keys", str(dump), "--out", str(out))
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "test,mode,params,n_keys,pass_ratio,p_values"
    names = {line.split(",")[0] for line in lines[1:]}
    assert "frequency" in names and "rank" in names


def test_nist_empty_dump_exits_2(tmp_path):
    dump = tmp_path / "empty.txt"
    dump.write_text("")
    result = invoke("nist", "--keys", str(dump), "--out", str(tmp_path / "o.csv"))
    assert result.exit_code == 2


def test_model_inspect(tmp_path):
    net = init_network([8, 16, 8], seed=1)
    norm = fit_normalizer(np.random.default_rng(2).normal(size=(10, 8)))
    path = tmp_path / "m.fdkg"
    save_model(net, norm, path)
    result = invoke("model", "inspect", str(path))
    assert result.exit_code == 0, result.output
    assert "dims: [8, 16, 8]" in result.output
    assert "parameters:" in result.output


def test_model_inspect_bad_file_exits_2(tmp_path):
    path = tmp_path / "junk.fdkg"
    path.write_bytes(b"garbage bytes here")
    result = invoke("model", "inspect", str(path))
    assert result.exit_code == 2
