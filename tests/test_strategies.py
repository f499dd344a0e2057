import numpy as np
import pytest

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
)
from fdkg.strategies import (
    EVAL_INTERVAL,
    PLATEAU_WINDOW,
    MetaConfig,
    MetaTask,
    MetaTaskSet,
    PairSet,
    TrainConfig,
    adapt,
    inner_update,
    meta_train,
    partition_source_into_tasks,
    train_supervised,
)


def scalar_net(w: float) -> NetworkParams:
    """The linear model y = w*x + b at b = 0."""
    return NetworkParams((1, 1), np.array([float(w), 0.0]), "linear")


def run_inner_update(init: NetworkParams, support: PairSet, alpha: float, g_tr: int) -> NetworkParams:
    """inner_update with a workspace and an output vector of its own."""
    return inner_update(init, support, alpha, g_tr, Workspace(init, support.n), np.empty(init.n_parameters))


def scalar_support(target_w: float) -> PairSet:
    """Samples (1, t) and (-1, -t): for y = w*x + b this keeps the bias
    gradient identically zero, so the loss reduces to (w - t)^2."""
    return PairSet(
        inputs=np.array([[1.0], [-1.0]]),
        targets=np.array([[target_w], [-target_w]]),
    )


def toy_pairs(n: int, seed: int = 0, d: int = 6) -> PairSet:
    """A learnable task: targets are a squashed affine map of the inputs."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, d))
    w = rng.normal(size=(d, d)) * 0.8
    y = 1.0 / (1.0 + np.exp(-(x @ w + 0.1)))
    return PairSet(inputs=x, targets=y)


class TestPairSets:
    def test_concat(self):
        a, b = toy_pairs(3, seed=1), toy_pairs(4, seed=2)
        both = PairSet.concat([a, b])
        assert both.n == 7


class TestTrainSupervised:
    def test_zero_iterations_returns_init(self):
        init = init_network([6, 8, 6], seed=0)
        cfg = TrainConfig(batch_size=4, max_iterations=0)
        out = train_supervised(init, toy_pairs(16), cfg)
        assert np.array_equal(out.flat, init.flat)

    def test_learns_constructed_task(self):
        init = init_network([6, 16, 6], seed=1)
        data = toy_pairs(64, seed=3)
        cfg = TrainConfig(batch_size=16, learning_rate=3e-3, max_iterations=2000)
        hist: list[float] = []
        net = train_supervised(init, data, cfg, loss_history=hist)
        assert mse_loss(forward(net, data.inputs), data.targets) < 1e-3
        assert len(hist) <= 2000

    def test_deterministic(self):
        init = init_network([6, 8, 6], seed=2)
        cfg = TrainConfig(batch_size=8, max_iterations=60)
        a = train_supervised(init, toy_pairs(32, seed=4), cfg, seed=5)
        b = train_supervised(init, toy_pairs(32, seed=4), cfg, seed=5)
        assert np.array_equal(a.flat, b.flat)

    def test_flat_loss_stops_after_one_plateau_window(self):
        # every step takes the whole set at a negligible rate, so every evaluation reads the same loss
        cfg = TrainConfig(batch_size=16, learning_rate=1e-12, max_iterations=10_000)
        hist: list[float] = []
        train_supervised(init_network([6, 8, 6], seed=10), toy_pairs(16, seed=11), cfg, loss_history=hist)
        assert len(hist) == (PLATEAU_WINDOW + 1) * EVAL_INTERVAL

    def test_joint_pool_sees_all_samples(self):
        source = toy_pairs(40, seed=6)
        adapt_part = toy_pairs(10, seed=7)
        pooled = PairSet.concat([source, adapt_part])
        assert pooled.n == 50
        # every sample appears exactly once
        assert np.array_equal(pooled.inputs[:40], source.inputs)
        assert np.array_equal(pooled.inputs[40:], adapt_part.inputs)


class TestAdapt:
    def test_zero_steps_identity(self):
        init = init_network([6, 8, 6], seed=3)
        cfg = MetaConfig(adapt_steps=0)
        out = adapt(init, toy_pairs(8), cfg)
        assert np.array_equal(out.flat, init.flat)

    def test_default_step_count(self):
        assert MetaConfig().adapt_steps == 300

    def test_loss_decreases_on_average(self):
        init = init_network([6, 12, 6], seed=4)
        data = toy_pairs(32, seed=9)
        hist: list[float] = []
        adapt(init, data, MetaConfig(adapt_steps=300), seed=1, loss_history=hist)
        assert len(hist) == 300
        assert np.mean(hist[-20:]) <= np.mean(hist[:20])


class TestInnerUpdate:
    def test_zero_alpha_identity(self):
        init = init_network([6, 8, 6], seed=5)
        out = run_inner_update(init, toy_pairs(8), alpha=0.0, g_tr=3)
        assert np.array_equal(out.flat, init.flat)

    def test_scalar_hand_value_one_step(self):
        # model y = w*x with loss (w-2)^2 at w0=0: gradient -4, so
        # w1 = 0 + 0.1*4 = 0.4.  The antisymmetric sample pair keeps the
        # bias gradient exactly zero, leaving the pure scalar recursion.
        out = run_inner_update(scalar_net(0.0), scalar_support(2.0), alpha=0.1, g_tr=1)
        assert out.weights[0][0, 0] == pytest.approx(0.4, abs=1e-12)
        assert out.biases[0][0] == 0.0

    def test_scalar_hand_value_two_steps(self):
        # second step: w2 = 0.4 + 0.1 * 2 * (2 - 0.4) = 0.72
        out = run_inner_update(scalar_net(0.0), scalar_support(2.0), alpha=0.1, g_tr=2)
        assert out.weights[0][0, 0] == pytest.approx(0.72, abs=1e-12)


def task_set(parts: list[tuple[PairSet, PairSet]]) -> MetaTaskSet:
    """Tasks over a source that holds each (support, query) pair's rows in turn."""
    sizes = [p.n for pair in parts for p in pair]
    ends = np.cumsum(sizes)
    ranges = [np.arange(end - size, end) for size, end in zip(sizes, ends)]
    tasks = [MetaTask(support=ranges[2 * t], query=ranges[2 * t + 1]) for t in range(len(parts))]
    return MetaTaskSet(source=PairSet.concat([p for pair in parts for p in pair]), tasks=tasks)


class TestMetaTrain:
    def test_zero_alpha_single_iteration_equals_pooled_adam(self):
        # with no inner step the meta-update must coincide with one plain
        # ADAM step on the pooled query batch
        init = init_network([6, 8, 6], seed=7)
        parts = []
        rng = np.random.default_rng(11)
        for t in range(4):
            data = toy_pairs(20, seed=100 + t)
            parts.append((PairSet(data.inputs[:10], data.targets[:10]), PairSet(data.inputs[10:], data.targets[10:])))
        cfg = MetaConfig(inner_lr=0.0, inner_steps=1, task_batch=4, max_meta_iterations=1)
        meta_net = meta_train(init, task_set(parts), cfg, seed=3)

        pooled = PairSet.concat([query for _, query in parts])
        _, grads = backward(init, pooled.inputs, pooled.targets, Workspace(init, pooled.n))
        ref, _ = adam_step(init, grads, init_adam_state(init), cfg.outer_lr)
        for a, b in zip(meta_net.weights + meta_net.biases, ref.weights + ref.biases):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_scalar_first_order_meta_gradient_by_hand(self):
        # one task, scalar model y = w*x (bias pinned by antisymmetric
        # samples), support target 2, query target 3, alpha=0.1.  Per meta
        # iteration: inner step w' = w + 0.1*2*(2-w), query gradient
        # 2*(w'-3) applied to w through ADAM.  Two iterations verify the
        # gradient magnitude, not just its sign.
        tasks = task_set([(scalar_support(2.0), scalar_support(3.0))])
        cfg = MetaConfig(
            inner_lr=0.1, outer_lr=1e-3, inner_steps=1, task_batch=1, max_meta_iterations=2
        )
        out = meta_train(scalar_net(0.0), tasks, cfg, seed=0)

        ref = scalar_net(0.0)
        state = init_adam_state(ref)
        for _ in range(2):
            w = ref.weights[0][0, 0]
            w_adapted = w + 0.1 * 2.0 * (2.0 - w)
            g = 2.0 * (w_adapted - 3.0)
            grads = Gradients((1, 1), np.array([g, 0.0]))
            ref, state = adam_step(ref, grads, state, cfg.outer_lr)
        assert out.weights[0][0, 0] == pytest.approx(ref.weights[0][0, 0], abs=1e-10)
        assert out.biases[0][0] == 0.0

    def test_meta_loss_history_decreases(self):
        rng = np.random.default_rng(13)
        data = toy_pairs(800, seed=21)
        tasks = partition_source_into_tasks(data, n_tasks=8, samples_per_task=100, seed=0)
        cfg = MetaConfig(task_batch=8, max_meta_iterations=30)
        hist: list[float] = []
        meta_train(init_network([6, 16, 6], seed=8), tasks, cfg, seed=1, loss_history=hist)
        assert np.mean(hist[-5:]) < np.mean(hist[:5])

    def test_reproducible(self):
        data = toy_pairs(400, seed=30)
        tasks = partition_source_into_tasks(data, n_tasks=4, samples_per_task=100, seed=0)
        cfg = MetaConfig(task_batch=4, max_meta_iterations=10)
        init = init_network([6, 8, 6], seed=9)
        a = meta_train(init, tasks, cfg, seed=2)
        b = meta_train(init, tasks, cfg, seed=2)
        assert np.array_equal(a.flat, b.flat)

    def test_flat_totals_stop_after_one_plateau_window(self):
        # every iteration draws all tasks at a negligible rate, so the summed query losses stay flat
        tasks = partition_source_into_tasks(toy_pairs(80, seed=14), n_tasks=4, samples_per_task=20, seed=0)
        cfg = MetaConfig(inner_lr=0.0, outer_lr=1e-12, task_batch=4, max_meta_iterations=1000)
        hist: list[float] = []
        meta_train(init_network([6, 8, 6], seed=15), tasks, cfg, seed=0, loss_history=hist)
        assert len(hist) == PLATEAU_WINDOW + 1


class TestPartition:
    def test_exact_partition_no_reuse(self):
        data = toy_pairs(4000, seed=40)
        tasks = partition_source_into_tasks(data, n_tasks=40, samples_per_task=100, seed=1)
        assert len(tasks.tasks) == 40
        seen = []
        for t in tasks.tasks:
            assert len(t.support) == 50 and len(t.query) == 50
            seen.extend(tasks.source.inputs[t.support, 0].tolist())
            seen.extend(tasks.source.inputs[t.query, 0].tolist())
        assert len(seen) == 4000
        # multiset equality with the first 4000 source samples
        assert sorted(seen) == sorted(data.inputs[:, 0].tolist())

    def test_support_query_disjoint_by_index(self):
        data = toy_pairs(200, seed=41)
        # tag rows by a unique coordinate to track indices
        tagged = PairSet(
            inputs=np.column_stack([np.arange(200.0), data.inputs[:, :1]]),
            targets=data.targets,
        )
        tasks = partition_source_into_tasks(tagged, n_tasks=2, samples_per_task=100, seed=2)
        for t in tasks.tasks:
            support_ids = set(tasks.source.inputs[t.support, 0].tolist())
            query_ids = set(tasks.source.inputs[t.query, 0].tolist())
            assert not support_ids & query_ids

    def test_tasks_draw_from_the_whole_pool(self):
        # a pooled two-environment source set: first half labelled 1, second half 2
        data = toy_pairs(200, seed=42)
        labels = np.repeat([1.0, 2.0], 100)
        pooled = PairSet(inputs=np.column_stack([labels, data.inputs]), targets=data.targets)
        tasks = partition_source_into_tasks(pooled, n_tasks=4, samples_per_task=20, seed=3)
        used = np.concatenate([tasks.source.inputs[np.concatenate([t.support, t.query])] for t in tasks.tasks])
        assert len(used) == 80
        assert set(used[:, 0]) == {1.0, 2.0}
        assert len({tuple(row) for row in used}) == 80  # no sample reused


class TestInputsUntouched:
    """Training returns new parameters and never writes into the network it was given."""

    def test_training_functions_leave_init_unchanged(self):
        init = init_network([6, 8, 6], seed=12)
        data = toy_pairs(40, seed=13)
        tasks = partition_source_into_tasks(data, n_tasks=4, samples_per_task=10, seed=0)
        snap = init.flat.copy()  # the pipeline also hands one pretrained net to both direct and dtl
        outs = [
            train_supervised(init, data, TrainConfig(batch_size=8, max_iterations=10)),
            adapt(init, data, MetaConfig(adapt_steps=5)),
            run_inner_update(init, data, alpha=0.1, g_tr=2),
            meta_train(init, tasks, MetaConfig(task_batch=2, max_meta_iterations=3)),
        ]
        assert np.array_equal(init.flat, snap)
        for out in outs:
            assert not np.shares_memory(out.flat, init.flat)
            assert not np.array_equal(out.flat, init.flat)
