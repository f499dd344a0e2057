"""Training regimes over multi-environment feature datasets.

Four ways to obtain band-mapping network parameters for a new environment:

* direct / joint: plain minibatch ADAM supervised training (on source data
  alone, or on source plus target adaptation data pooled together);
* pretrain + fine-tune: supervised training on the source, then a fixed
  number of ADAM updates on the target adaptation set;
* meta-training: per task, clone the shared initialization, take a few plain
  gradient-descent steps on the task's support set, evaluate the loss on the
  task's query set at the adapted parameters, and update the shared
  initialization with ADAM on the first-order meta-gradient (query-loss
  gradients at the adapted parameters, averaged over the task batch).

Supervised training stops early once the smoothed loss improves by less than
1e-4 relative over a 20-evaluation window.  Everything is deterministic for
fixed seeds: batch orders come from seeded shuffles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .neuralnet import (
    Gradients,
    NetworkParams,
    TrainConfig,
    Workspace,
    adam_step,
    backward,
    init_adam_state,
    sgd_step,
)

PLATEAU_WINDOW = 20
PLATEAU_REL_TOL = 1e-4


@dataclass(frozen=True)
class PairSet:
    """Matched (input feature, target feature) rows for one data role."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise ValueError("inputs and targets must be 2-D (samples x features)")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must have the same sample count")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def subset(self, idx) -> "PairSet":
        return PairSet(inputs=self.inputs[idx], targets=self.targets[idx])

    @staticmethod
    def concat(parts: list["PairSet"]) -> "PairSet":
        return PairSet(
            inputs=np.concatenate([p.inputs for p in parts]),
            targets=np.concatenate([p.targets for p in parts]),
        )


@dataclass(frozen=True)
class MetaTask:
    support: PairSet
    query: PairSet


@dataclass(frozen=True)
class MetaTaskSet:
    tasks: list[MetaTask]
    samples_per_task: int

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class MetaConfig:
    """Meta-training and adaptation hyper-parameters."""

    inner_lr: float = 1e-3
    outer_lr: float = 1e-3
    inner_steps: int = 1
    task_batch: int = 32
    adapt_steps: int = 300
    max_meta_iterations: int = 200
    adapt_batch_size: int = 128

    def __post_init__(self) -> None:
        if self.inner_lr < 0 or self.outer_lr <= 0:
            raise ConfigError("learning rates must be positive (inner_lr may be 0 for diagnostics)")
        if self.inner_steps < 1:
            raise ConfigError("inner_steps must be >= 1")
        if self.task_batch < 1 or self.adapt_steps < 0 or self.max_meta_iterations < 1:
            raise ConfigError("task_batch, adapt_steps, max_meta_iterations out of range")
        if self.adapt_batch_size < 1:
            raise ConfigError("adapt_batch_size must be >= 1")


def _plateaued(history: list[float]) -> bool:
    if len(history) <= PLATEAU_WINDOW:
        return False
    old = history[-PLATEAU_WINDOW - 1]
    new = history[-1]
    return (old - new) < PLATEAU_REL_TOL * abs(old)


def _minibatches(n: int, batch_size: int, n_steps: int, rng: np.random.Generator):
    """Yield n_steps index batches, reshuffling each pass over the data."""
    produced = 0
    while produced < n_steps:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            if produced == n_steps:
                return
            yield order[start : start + batch_size]
            produced += 1


def train_supervised(
    init: NetworkParams,
    data: PairSet,
    cfg: TrainConfig,
    loss_history: list[float] | None = None,
) -> NetworkParams:
    """Minibatch ADAM until the loss plateaus or max_iterations is reached.

    The plateau check compares smoothed minibatch losses (one evaluation per
    ``cfg.eval_interval`` steps) across a 20-evaluation window.
    """
    if data.n == 0:
        raise ValueError("training data must be non-empty")
    net = init.copy()  # adam_step updates it in place
    if cfg.max_iterations == 0:
        return net
    state = init_adam_state(net)
    work = Workspace(net, min(cfg.batch_size, data.n))
    rng = np.random.default_rng(cfg.seed)
    evals: list[float] = []
    recent: list[float] = []
    for idx in _minibatches(data.n, cfg.batch_size, cfg.max_iterations, rng):
        loss, grads = backward(net, data.inputs[idx], data.targets[idx], work)
        adam_step(net, grads, state, cfg.learning_rate)
        recent.append(loss)
        if loss_history is not None:
            loss_history.append(loss)
        if len(recent) == cfg.eval_interval:
            evals.append(float(np.mean(recent)))
            recent.clear()
            if _plateaued(evals):
                break
    return net


def adapt(
    pretrained: NetworkParams,
    adapt_set: PairSet,
    cfg: MetaConfig,
    seed: int = 0,
    loss_history: list[float] | None = None,
) -> NetworkParams:
    """Fine-tune a copy of the pretrained parameters with adapt_steps ADAM updates."""
    if adapt_set.n == 0:
        raise ValueError("adaptation data must be non-empty")
    net = pretrained.copy()  # adam_step updates it in place
    if cfg.adapt_steps == 0:
        return net
    state = init_adam_state(net)
    rng = np.random.default_rng(seed)
    batch = min(cfg.adapt_batch_size, adapt_set.n)
    work = Workspace(net, batch)
    for idx in _minibatches(adapt_set.n, batch, cfg.adapt_steps, rng):
        loss, grads = backward(net, adapt_set.inputs[idx], adapt_set.targets[idx], work)
        adam_step(net, grads, state, cfg.outer_lr)
        if loss_history is not None:
            loss_history.append(loss)
    return net


def inner_update(
    global_params: NetworkParams,
    support_set: PairSet,
    alpha: float,
    g_tr: int,
    work: Workspace | None = None,
) -> NetworkParams:
    """Per-task update: g_tr full-batch gradient-descent steps on the support loss
    (returns ``global_params`` itself when g_tr is 0); ``work`` is passed to
    :func:`backward`."""
    if support_set.n == 0:
        raise ValueError("support set must be non-empty")
    net = global_params
    for _ in range(g_tr):
        _, grads = backward(net, support_set.inputs, support_set.targets, work)
        net = sgd_step(net, grads, alpha)
    return net


def meta_train(
    init: NetworkParams,
    tasks: MetaTaskSet,
    cfg: MetaConfig,
    seed: int = 0,
    loss_history: list[float] | None = None,
) -> NetworkParams:
    """First-order meta-training of a shared initialization.

    Per iteration: sample ``task_batch`` tasks, adapt each with
    :func:`inner_update`, sum the query losses at the adapted parameters
    (recorded to ``loss_history``), and apply ADAM to the shared parameters
    with the query-loss gradients averaged over the task batch.  The
    averaging makes one meta-iteration with zero inner rate coincide exactly
    with a plain ADAM step on the pooled query data.  Stops at the iteration
    cap or when the summed query loss plateaus.
    """
    if tasks.n_tasks < cfg.task_batch:
        raise ConfigError(
            f"task_batch {cfg.task_batch} exceeds available tasks {tasks.n_tasks}"
        )
    net = init.copy()  # adam_step updates it in place
    state = init_adam_state(net)
    work = Workspace(net, max(max(t.support.n, t.query.n) for t in tasks.tasks))
    meta_grads = Gradients.zeros_like(net)
    rng = np.random.default_rng(seed)
    totals: list[float] = []
    for _ in range(cfg.max_meta_iterations):
        chosen = rng.choice(tasks.n_tasks, size=cfg.task_batch, replace=False)
        meta_grads.flat.fill(0.0)
        total_loss = 0.0
        for t in chosen:
            task = tasks.tasks[int(t)]
            adapted = inner_update(net, task.support, cfg.inner_lr, cfg.inner_steps, work)
            loss, grads = backward(adapted, task.query.inputs, task.query.targets, work)
            total_loss += loss
            meta_grads.add_(grads)
        meta_grads.flat *= 1.0 / cfg.task_batch
        adam_step(net, meta_grads, state, cfg.outer_lr)
        totals.append(total_loss)
        if loss_history is not None:
            loss_history.append(total_loss)
        if _plateaued(totals):
            break
    return net


def partition_source_into_tasks(
    source: PairSet,
    n_tasks: int,
    samples_per_task: int,
    support_fraction: float = 0.5,
    seed: int = 0,
) -> MetaTaskSet:
    """Cut n_tasks disjoint tasks of samples_per_task samples from the source pool.

    The n_tasks*samples_per_task samples are drawn from the whole pool by a
    seeded permutation, so every part of a pooled multi-environment source
    set can reach a task; within each task the first ``support_fraction`` of
    samples form the support set and the rest the query set, so support and
    query never overlap.
    """
    needed = n_tasks * samples_per_task
    if needed > source.n:
        raise ConfigError(f"need {needed} samples for {n_tasks} tasks, have {source.n}")
    if not 0.0 < support_fraction < 1.0:
        raise ConfigError(f"support_fraction must lie in (0, 1), got {support_fraction}")
    n_support = int(round(samples_per_task * support_fraction))
    if n_support == 0 or n_support == samples_per_task:
        raise ConfigError("support_fraction leaves an empty support or query set")
    rng = np.random.default_rng(seed)
    order = rng.permutation(source.n)[:needed]
    tasks = []
    for t in range(n_tasks):
        chunk = order[t * samples_per_task : (t + 1) * samples_per_task]
        tasks.append(
            MetaTask(
                support=source.subset(chunk[:n_support]),
                query=source.subset(chunk[n_support:]),
            )
        )
    return MetaTaskSet(tasks=tasks, samples_per_task=samples_per_task)
