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

Supervised training and meta-training stop early once their loss (in
supervised training the mean of each 25 steps) improves by less than 1e-4
relative over 20 evaluations.  Everything is deterministic for fixed seeds:
batch orders come from seeded shuffles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .neuralnet import (
    Gradients,
    NetworkParams,
    Workspace,
    adam_step,
    backward,
    init_adam_state,
    sgd_step,
)

EVAL_INTERVAL = 25
PLATEAU_WINDOW = 20
PLATEAU_REL_TOL = 1e-4
ADAPT_BATCH_SIZE = 128


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

    @staticmethod
    def concat(parts: list["PairSet"]) -> "PairSet":
        return PairSet(
            inputs=np.concatenate([p.inputs for p in parts]),
            targets=np.concatenate([p.targets for p in parts]),
        )


@dataclass(frozen=True)
class MetaTask:
    """Row indices of one task's support and query sets into its task set's ``source``."""

    support: np.ndarray
    query: np.ndarray


@dataclass(frozen=True)
class MetaTaskSet:
    source: PairSet
    tasks: list[MetaTask]


@dataclass(frozen=True)
class TrainConfig:
    """Minibatch ADAM training parameters."""

    batch_size: int = 128
    learning_rate: float = 1e-3
    max_iterations: int = 10000

    def __post_init__(self) -> None:
        if self.batch_size <= 0 or not 0 < self.learning_rate < np.inf:
            raise ConfigError("batch_size and learning_rate must be positive (learning_rate finite)")
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be >= 0")


@dataclass(frozen=True)
class MetaConfig:
    """Meta-training and adaptation hyper-parameters."""

    inner_lr: float = 1e-3
    outer_lr: float = 1e-3
    inner_steps: int = 1
    task_batch: int = 32
    adapt_steps: int = 300
    max_meta_iterations: int = 200

    def __post_init__(self) -> None:
        if not (0 <= self.inner_lr < np.inf and 0 < self.outer_lr < np.inf):
            raise ConfigError("learning rates must be finite and positive (inner_lr may be 0 for diagnostics)")
        if self.inner_steps < 1:
            raise ConfigError("inner_steps must be >= 1")
        if self.task_batch < 1 or self.adapt_steps < 0 or self.max_meta_iterations < 1:
            raise ConfigError("task_batch, adapt_steps, max_meta_iterations out of range")


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


def _adam_losses(net: NetworkParams, data: PairSet, n_steps: int, lr: float, seed: int, state, work):
    """Take up to n_steps ADAM steps on ``net`` in place over ``work.max_rows``-row minibatches."""
    if data.n == 0:
        raise ValueError("training data must be non-empty")
    for idx in _minibatches(data.n, work.max_rows, n_steps, np.random.default_rng(seed)):
        loss, grads = backward(net, data.inputs[idx], data.targets[idx], work)
        adam_step(net, grads, state, lr)
        yield loss


def train_supervised(
    init: NetworkParams,
    data: PairSet,
    cfg: TrainConfig,
    seed: int = 0,
    loss_history: list[float] | None = None,
) -> NetworkParams:
    """Minibatch ADAM until the loss plateaus or max_iterations is reached;
    ``seed`` drives the minibatch shuffles.

    The plateau check compares smoothed minibatch losses (one evaluation per
    ``EVAL_INTERVAL`` steps) across a ``PLATEAU_WINDOW``-evaluation window.
    """
    net = init.copy()  # adam_step updates it in place
    state, work = init_adam_state(net), Workspace(net, min(cfg.batch_size, data.n))
    evals: list[float] = []
    recent: list[float] = []
    for loss in _adam_losses(net, data, cfg.max_iterations, cfg.learning_rate, seed, state, work):
        recent.append(loss)
        if loss_history is not None:
            loss_history.append(loss)
        if len(recent) == EVAL_INTERVAL:
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
    """Fine-tune a copy of the pretrained parameters with adapt_steps ADAM updates
    over ``ADAPT_BATCH_SIZE``-row minibatches."""
    net = pretrained.copy()  # adam_step updates it in place
    state, work = init_adam_state(net), Workspace(net, min(ADAPT_BATCH_SIZE, adapt_set.n))
    for loss in _adam_losses(net, adapt_set, cfg.adapt_steps, cfg.outer_lr, seed, state, work):
        if loss_history is not None:
            loss_history.append(loss)
    return net


def inner_update(
    global_params: NetworkParams,
    support_set: PairSet,
    alpha: float,
    g_tr: int,
    work: Workspace,
    out: np.ndarray,
) -> NetworkParams:
    """Per-task update: g_tr full-batch gradient-descent steps on the support loss
    (returns ``global_params`` itself when g_tr is 0); ``work`` is passed to
    :func:`backward` and ``out`` to :func:`sgd_step`, which writes every step there."""
    net = global_params
    for _ in range(g_tr):
        _, grads = backward(net, support_set.inputs, support_set.targets, work)
        net = sgd_step(net, grads, alpha, out)
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
    net = init.copy()  # adam_step updates it in place
    state = init_adam_state(net)
    # every task reuses one set of buffers: its gathered rows, a workspace and the adapted parameters
    rows = max(max(len(t.support), len(t.query)) for t in tasks.tasks)
    inputs, targets = np.empty((rows, net.layer_dims[0])), np.empty((rows, net.layer_dims[-1]))
    work, adapted_flat = Workspace(net, rows), np.empty(net.n_parameters)
    meta_grads = Gradients(net.layer_dims, np.zeros(net.n_parameters))
    rng = np.random.default_rng(seed)
    totals: list[float] = []

    def gather(idx: np.ndarray) -> PairSet:
        n = len(idx)
        return PairSet(
            np.take(tasks.source.inputs, idx, axis=0, out=inputs[:n]),
            np.take(tasks.source.targets, idx, axis=0, out=targets[:n]),
        )

    for _ in range(cfg.max_meta_iterations):
        chosen = rng.choice(len(tasks.tasks), size=cfg.task_batch, replace=False)
        meta_grads.flat.fill(0.0)
        total_loss = 0.0
        for t in chosen:
            task = tasks.tasks[t]
            adapted = inner_update(net, gather(task.support), cfg.inner_lr, cfg.inner_steps, work, adapted_flat)
            query = gather(task.query)
            loss, grads = backward(adapted, query.inputs, query.targets, work)
            total_loss += loss
            meta_grads.flat += grads.flat
        meta_grads.flat *= 1.0 / cfg.task_batch
        adam_step(net, meta_grads, state, cfg.outer_lr)
        totals.append(total_loss)
        if loss_history is not None:
            loss_history.append(total_loss)
        if _plateaued(totals):
            break
    return net


def check_task_split(n_tasks: int, samples_per_task: int, support_fraction: float) -> int:
    """Raise ConfigError unless there is at least one task of at least one sample and
    ``support_fraction`` leaves each task a non-empty support and query set; return
    the support set's size."""
    if n_tasks < 1 or samples_per_task < 1:
        raise ConfigError(f"need n_tasks >= 1 and samples_per_task >= 1, got {n_tasks} and {samples_per_task}")
    if not 0.0 < support_fraction < 1.0:
        raise ConfigError(f"support_fraction must lie in (0, 1), got {support_fraction}")
    n_support = int(round(samples_per_task * support_fraction))
    if n_support == 0 or n_support == samples_per_task:
        raise ConfigError(
            f"support_fraction {support_fraction} leaves an empty support or query set "
            f"in a task of {samples_per_task} samples"
        )
    return n_support


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
    query never overlap.  The tasks hold row indices into ``source``.
    """
    n_support = check_task_split(n_tasks, samples_per_task, support_fraction)
    rng = np.random.default_rng(seed)
    chunks = rng.permutation(source.n)[: n_tasks * samples_per_task].reshape(n_tasks, samples_per_task)
    return MetaTaskSet(source, [MetaTask(c[:n_support], c[n_support:]) for c in chunks])
