"""Acceptance checks: one test per criterion, each printing a PASS line.

The ordering benchmark (criterion 6) and the hyper-parameter sweeps
(criterion 7) train real models over five seeds and dominate the runtime;
everything is deterministic, so these results are stable across machines.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fdkg.keygen import quantize_guardband
from fdkg.neuralnet import (
    Gradients,
    NetworkParams,
    Workspace,
    adam_step,
    backward,
    forward,
    init_adam_state,
    init_network,
    mse_loss,
    sgd_step,
)
from fdkg.pipeline import (
    Sizes,
    apply_scale,
    desk_profile,
    emit_report,
    run_pipeline,
    score_keys,
    sweep,
    _prepare_data,
)
from fdkg.randomness import frequency_test, run_battery, runs_test
from fdkg.strategies import (
    MetaConfig,
    MetaTask,
    MetaTaskSet,
    PairSet,
    inner_update,
    meta_train,
    partition_source_into_tasks,
)

from test_neuralnet import hidden_pre_activations

SEEDS = range(5)


def announce(num: int, name: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): PASS{suffix}")


def mean_metric(reports: dict, algorithm: str, metric: str) -> float:
    values = [
        getattr(row, metric)
        for rep in reports.values()
        for row in rep.rows
        if row.algorithm == algorithm
    ]
    return float(np.mean(values))


@pytest.fixture(scope="module")
def ordering_runs():
    """Desk-profile runs over five seeds: direct vs fine-tuned vs meta."""
    t0 = time.perf_counter()
    reports = {}
    for seed in SEEDS:
        cfg = replace(
            desk_profile(seed=seed),
            algorithms=["direct", "dtl", "meta"],
            record_wall_time=False,
            compute_randomness=(seed == 0),
        )
        reports[seed] = run_pipeline(cfg)
    return reports, time.perf_counter() - t0


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    checked = 0
    seed = 0
    worst = 0.0
    while checked < 20:
        seed += 1
        net = init_network([6, 8, 8, 4], seed=seed)
        for b in net.biases:
            b += rng.normal(0.0, 0.1, b.shape)
        x = rng.uniform(0.0, 1.0, (4, 6))
        y = rng.uniform(0.05, 0.95, (4, 4))
        if min(float(np.min(np.abs(z))) for z in hidden_pre_activations(net, x)) < 1e-6:
            continue  # resample away from ReLU kinks
        _, grads = backward(net, x, y, Workspace(net, 4))
        h = 1e-5
        for arrs, gs in ((net.weights, grads.d_weights), (net.biases, grads.d_biases)):
            for arr, g in zip(arrs, gs):
                flat, gflat = arr.reshape(-1), g.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    lp = mse_loss(forward(net, x), y)
                    flat[i] = orig - h
                    lm = mse_loss(forward(net, x), y)
                    flat[i] = orig
                    fd = (lp - lm) / (2 * h)
                    rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
                    worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4, f"max relative gradient error {worst:.3e}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    announce(1, "gradient correctness", f"max rel err {worst:.2e}, {elapsed:.1f}s")


def scalar_net(w: float) -> NetworkParams:
    """The linear model y = w*x + b at b = 0."""
    return NetworkParams((1, 1), np.array([float(w), 0.0]), "linear")


def scalar_pairs(t: float) -> PairSet:
    # antisymmetric samples pin the bias gradient at zero: pure y = w*x model
    return PairSet(inputs=np.array([[1.0], [-1.0]]), targets=np.array([[t], [-t]]))


def test_criterion_2_optimizer_exactness():
    lr, r1, r2, eps = 1e-3, 0.9, 0.999, 1e-8
    theta, m, v = 0.0, 0.0, 0.0
    net = scalar_net(0.0)
    state = init_adam_state(net)
    for t, g in ((1, 1.0), (2, -0.5)):
        m = r1 * m + (1 - r1) * g
        v = r2 * v + (1 - r2) * g * g
        theta -= lr * (m / (1 - r1**t)) / (math.sqrt(v / (1 - r2**t)) + eps)
        grads = Gradients((1, 1), np.array([g, 0.0]))
        net, state = adam_step(net, grads, state, lr)
        assert abs(net.weights[0][0, 0] - theta) <= 1e-12

    sgd = sgd_step(scalar_net(0.0), Gradients((1, 1), np.array([-4.0, 0.0])), 0.1, np.empty(2))
    assert sgd.weights[0][0, 0] == 0.4  # exact float arithmetic
    announce(2, "optimizer exactness")


def test_criterion_3_maml_mechanics():
    t0 = time.perf_counter()

    # scalar inner update hits the hand value
    net, support = scalar_net(0.0), scalar_pairs(2.0)
    adapted = inner_update(net, support, 0.1, 1, Workspace(net, support.n), np.empty(net.n_parameters))
    assert abs(adapted.weights[0][0, 0] - 0.4) <= 1e-12

    # zero inner rate: the meta-update is exactly a pooled-query ADAM step
    init = init_network([16, 32, 16], seed=3)
    rng = np.random.default_rng(4)
    xs, ys = [], []
    for t in range(4):
        xs.append(rng.uniform(0.0, 1.0, (100, 16)))
        ys.append(rng.uniform(0.05, 0.95, (100, 16)))
    source = PairSet(inputs=np.concatenate(xs), targets=np.concatenate(ys))
    tasks = [MetaTask(support=np.arange(100 * t, 100 * t + 50), query=np.arange(100 * t + 50, 100 * (t + 1))) for t in range(4)]
    task_set = MetaTaskSet(source=source, tasks=tasks)
    cfg = MetaConfig(inner_lr=0.0, inner_steps=1, task_batch=4, max_meta_iterations=1)
    meta_net = meta_train(init, task_set, cfg, seed=5)
    pooled = np.concatenate([t.query for t in tasks])
    _, grads = backward(init, source.inputs[pooled], source.targets[pooled], Workspace(init, len(pooled)))
    ref, _ = adam_step(init, grads, init_adam_state(init), cfg.outer_lr)
    worst = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(meta_net.weights + meta_net.biases, ref.weights + ref.biases)
    )
    assert worst <= 1e-12, f"meta vs pooled ADAM mismatch {worst:.3e}"

    # summed query loss decreases (moving average) over the first 10
    # meta-iterations on the desk profile
    cfg_desk = apply_scale(desk_profile(seed=0))
    source_pairs, _ = _prepare_data(
        replace(
            cfg_desk,
            environments=replace(cfg_desk.environments, targets=cfg_desk.environments.targets[:1]),
            sizes=replace(cfg_desk.sizes, n_target=3, n_adapt=2, n_test=1),
        )
    )
    dims = [128, *cfg_desk.hidden_dims, 128]
    task_set = partition_source_into_tasks(source_pairs, 40, 100, 0.5, seed=101)
    hist: list[float] = []
    meta_train(
        init_network(dims, seed=0),
        task_set,
        replace(cfg_desk.meta, max_meta_iterations=10),
        seed=211,
        loss_history=hist,
    )
    moving = [float(np.mean(hist[i - 2 : i + 1])) for i in range(2, 10)]
    assert all(a > b for a, b in zip(moving, moving[1:])), f"moving averages {moving}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"MAML mechanics took {elapsed:.1f}s"
    announce(3, "MAML mechanics", f"pooled-ADAM gap {worst:.1e}, {elapsed:.1f}s")


def test_criterion_4_quantizer():
    # dropped fraction at epsilon 0.1 on 1e5 standard-normal features
    x = np.random.default_rng(42).standard_normal(100_000)
    _, kept = quantize_guardband(x, 0.1)
    dropped = 1.0 - kept.mean()
    assert abs(dropped - 0.20) <= 0.01, f"dropped fraction {dropped:.4f}"

    # shift/scale equivariance holds exactly
    rng = np.random.default_rng(7)
    for a, b in ((2.0, 0.5), (0.03, -4.0), (250.0, 12.0)):
        v = rng.normal(size=128)
        ones1, kept1 = quantize_guardband(v, 0.1)
        ones2, kept2 = quantize_guardband(a * v + b, 0.1)
        assert np.array_equal(kept1, kept2)
        assert np.array_equal(ones1, ones2)

    # KGR monotone non-increasing in epsilon
    pred = rng.normal(size=(50, 128))
    act = pred + 0.15 * rng.normal(size=(50, 128))
    kgrs = [
        score_keys(pred, act, epsilon=e, n_subcarriers=64).kgr for e in (0.0, 0.05, 0.1, 0.2, 0.4)
    ]
    assert all(hi >= lo for hi, lo in zip(kgrs, kgrs[1:])), f"KGR not monotone: {kgrs}"
    announce(4, "quantizer", f"dropped {dropped:.3f}, KGR {kgrs[0]:.2f}->{kgrs[-1]:.2f}")


def test_criterion_5_reciprocity_sanity():
    cfg = desk_profile(seed=0)
    cfg = replace(
        cfg,
        ofdm=replace(cfg.ofdm, f_dl_hz=cfg.ofdm.f_ul_hz),
        snr_list_db=[math.inf],
        train_snr_db=math.inf,
        algorithms=["identity"],
        sizes=Sizes(n_source=64, n_target=64, n_adapt=32, n_test=32),
        record_wall_time=False,
    )
    report = run_pipeline(cfg)
    for row in report.rows:
        assert row.nmse == 0.0, f"NMSE {row.nmse} in env {row.env}"
        assert row.ker == 0.0, f"KER {row.ker} in env {row.env}"
    announce(5, "reciprocity sanity")


def test_criterion_6_algorithm_ordering(ordering_runs):
    reports, elapsed = ordering_runs
    ker = {alg: mean_metric(reports, alg, "ker") for alg in ("direct", "dtl", "meta")}
    nmse_ = {alg: mean_metric(reports, alg, "nmse") for alg in ("direct", "dtl", "meta")}

    assert ker["meta"] <= ker["dtl"], f"meta {ker['meta']:.4f} > dtl {ker['dtl']:.4f}"
    assert ker["dtl"] < ker["direct"], f"dtl {ker['dtl']:.4f} >= direct {ker['direct']:.4f}"
    assert ker["direct"] >= 0.35, f"direct KER {ker['direct']:.4f} below 0.35"
    reduction = 1.0 - ker["meta"] / ker["direct"]
    assert reduction >= 0.25, f"meta KER reduction vs direct only {reduction:.1%}"
    assert nmse_["meta"] <= nmse_["dtl"] < nmse_["direct"], f"NMSE ordering broken: {nmse_}"
    assert elapsed <= 15 * 60, f"ordering benchmark took {elapsed:.0f}s"
    announce(
        6,
        "algorithm ordering",
        f"KER direct {ker['direct']:.3f} / dtl {ker['dtl']:.3f} / meta {ker['meta']:.3f}, "
        f"reduction {reduction:.0%}, {elapsed:.0f}s",
    )


def test_criterion_7_hyperparameter_robustness():
    def base(seed: int):
        cfg = desk_profile(seed=seed)
        return replace(
            cfg,
            algorithms=["meta"],
            environments=replace(cfg.environments, targets=cfg.environments.targets[:1]),
            record_wall_time=False,
        )

    # task-batch trend over five seeds (e_batch 32 case doubles as g_tr=1)
    nmse_eb4, nmse_eb32 = [], []
    for seed in SEEDS:
        rep = sweep(base(seed), "e_batch", [4, 32])
        nmse_eb4.append(np.mean([r.nmse for r in rep.rows if r.axis_value == 4.0]))
        nmse_eb32.append(np.mean([r.nmse for r in rep.rows if r.axis_value == 32.0]))
    eb4, eb32 = float(np.mean(nmse_eb4)), float(np.mean(nmse_eb32))
    assert eb32 <= eb4, f"E_batch=32 NMSE {eb32:.5f} > E_batch=4 NMSE {eb4:.5f}"

    # inner-step count barely matters: means within a +/-20% band
    band_seeds = (0, 1)
    gtr_values = {1: [nmse_eb32[s] for s in band_seeds]}
    for seed in band_seeds:
        rep = sweep(base(seed), "g_tr", [2, 4])
        for v in (2, 4):
            gtr_values.setdefault(v, []).append(
                np.mean([r.nmse for r in rep.rows if r.axis_value == float(v)])
            )
    means = {v: float(np.mean(vals)) for v, vals in gtr_values.items()}
    lo, hi = min(means.values()), max(means.values())
    assert hi <= 1.2 * lo, f"G_Tr means outside 20% band: {means}"
    announce(
        7,
        "hyper-parameter robustness",
        f"G_Tr band {hi / lo - 1:.1%}, E_batch 32 vs 4: {eb32:.5f} <= {eb4:.5f}",
    )


def test_criterion_8_randomness_suite(ordering_runs):
    # worked-example P-values
    p_freq = frequency_test("1011010101").p_values[0]
    assert abs(p_freq - 0.527089) <= 1e-4
    p_runs = runs_test("1001101011").p_values[0]
    assert abs(p_runs - 0.147232) <= 1e-4

    # 718 seeded high-quality PRNG keys of 128 bits
    rng = np.random.default_rng(2024)
    keys = [rng.integers(0, 2, 128).astype(np.uint8) for _ in range(718)]
    ratios = {row.test_name: row.pass_ratio for row in run_battery(keys)}
    for name, ratio in ratios.items():
        assert ratio >= 0.96, f"PRNG keys: {name} pass ratio {ratio:.4f}"

    # keys generated by the meta pipeline at 20 dB (seed-0 ordering run)
    reports, _ = ordering_runs
    meta_rows = [r for r in reports[0].randomness if r.algorithm == "meta"]
    assert meta_rows, "no randomness rows recorded for the meta run"
    for row in meta_rows:
        assert row.pass_ratio >= 0.85, (
            f"pipeline keys: {row.test_name} (env {row.env}) ratio {row.pass_ratio:.4f}"
        )
    worst = min(r.pass_ratio for r in meta_rows)
    announce(8, "randomness suite", f"PRNG min {min(ratios.values()):.3f}, pipeline min {worst:.3f}")


def test_criterion_9_reproducibility(tmp_path):
    cfg = replace(desk_profile(seed=0), record_wall_time=False)
    paths = []
    for tag in ("a", "b"):
        report = run_pipeline(cfg)
        path = tmp_path / f"report_{tag}.csv"
        emit_report(report, "csv", path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes(), "reports differ between runs"
    announce(9, "reproducibility")
