"""Fully connected feature-mapping network with manual backprop.

Hidden layers use ReLU (subgradient 0 at exactly 0), the output layer uses a
sigmoid so predictions live in (0, 1) like the normalized target features.
A linear output head is supported for hand-checkable scalar models and
gradient diagnostics.  All arithmetic is float64; the loss is the batch mean
of per-sample squared L2 errors, with no further division by the feature
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

RHO1_DEFAULT = 0.9
RHO2_DEFAULT = 0.999
ADAM_EPS = 1e-8
# elements per adam_step chunk: an AdamState's two scratch vectors take 512 kB
# rather than two parameter-sized vectors (on the desk workload, two chains
# training at once peaked 4 MB lower in RSS than with whole-vector scratch)
ADAM_CHUNK = 32768


def _views(dims: tuple[int, ...], flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a vector laid out as W0, b0, W1, b1, ..."""
    weights, biases, off = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        end = off + fan_out * fan_in
        weights.append(flat[off:end].reshape(fan_out, fan_in))
        biases.append(flat[end : end + fan_out])
        off = end + fan_out
    if flat.shape != (off,):
        raise ValueError(f"flat vector of shape {flat.shape} does not fit layer dims {dims}")
    return weights, biases


def _pack(weights: list[np.ndarray], biases: list[np.ndarray]) -> np.ndarray:
    parts = [np.ravel(a) for w, b in zip(weights, biases) for a in (w, b)]
    return np.concatenate(parts).astype(float, copy=False)


class NetworkParams:
    """Dense-layer parameters in one float64 vector ``flat``: per layer the
    row-major weights (shape (dims[m+1], dims[m])) followed by the bias.
    ``weights[m]`` and ``biases[m]`` are views into ``flat``; the constructor
    copies the given arrays into a new vector."""

    def __init__(self, layer_dims, weights, biases, output_activation: str = "sigmoid") -> None:
        dims = tuple(int(d) for d in layer_dims)
        if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise ValueError("weights/biases count must be len(dims) - 1")
        for m, (w, b) in enumerate(zip(weights, biases)):
            if np.shape(w) != (dims[m + 1], dims[m]) or np.shape(b) != (dims[m + 1],):
                raise ValueError(f"layer {m}: shape {np.shape(w)}/{np.shape(b)} breaks the chain {dims}")
        self._bind(dims, _pack(weights, biases), output_activation)

    @classmethod
    def from_flat(cls, layer_dims, flat: np.ndarray, output_activation: str = "sigmoid") -> "NetworkParams":
        """Wrap ``flat`` (not copied) as the parameters of a network with these dims."""
        net = cls.__new__(cls)
        net._bind(tuple(int(d) for d in layer_dims), flat, output_activation)
        return net

    def _bind(self, dims: tuple[int, ...], flat: np.ndarray, output_activation: str) -> None:
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise ValueError(f"invalid layer dims {dims}")
        if output_activation not in ("sigmoid", "linear"):
            raise ValueError(f"unknown output activation {output_activation!r}")
        self.layer_dims = dims
        self.flat = flat
        self.weights, self.biases = _views(dims, flat)
        self.output_activation = output_activation

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def n_parameters(self) -> int:
        return self.flat.size

    def copy(self) -> "NetworkParams":
        return NetworkParams.from_flat(self.layer_dims, self.flat.copy(), self.output_activation)


class Gradients:
    """Loss gradients laid out like ``NetworkParams.flat``; d_weights/d_biases are views."""

    def __init__(self, d_weights: list[np.ndarray], d_biases: list[np.ndarray]) -> None:
        dims = (d_weights[0].shape[1], *(g.shape[0] for g in d_weights))
        self._bind(dims, _pack(d_weights, d_biases))

    @classmethod
    def from_flat(cls, layer_dims: tuple[int, ...], flat: np.ndarray) -> "Gradients":
        grads = cls.__new__(cls)
        grads._bind(layer_dims, flat)
        return grads

    def _bind(self, dims: tuple[int, ...], flat: np.ndarray) -> None:
        self.layer_dims = dims
        self.flat = flat
        self.d_weights, self.d_biases = _views(dims, flat)

    def add_(self, other: "Gradients") -> None:
        self.flat += other.flat

    @classmethod
    def zeros_like(cls, net: NetworkParams) -> "Gradients":
        return cls.from_flat(net.layer_dims, np.zeros(net.n_parameters))


@dataclass
class AdamState:
    """ADAM step counter and moments laid out like ``NetworkParams.flat``.

    ``adam_step`` updates ``m``, ``v`` and ``step_count`` in place, using the
    two chunk-sized vectors ``scratch`` as its work buffers."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = min(self.m.size, ADAM_CHUNK)
        self.scratch = (np.empty(n), np.empty(n))


def init_adam_state(net: NetworkParams) -> AdamState:
    n = net.n_parameters
    return AdamState(m=np.zeros(n), v=np.zeros(n))


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


def init_network(
    dims: list[int] | tuple[int, ...], seed: int, output_activation: str = "sigmoid"
) -> NetworkParams:
    """He-initialized weights (variance 2/fan_in) and zero biases."""
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal((o, i)) * np.sqrt(2.0 / i) for i, o in zip(dims[:-1], dims[1:])]
    return NetworkParams(dims, weights, [np.zeros(o) for o in dims[1:]], output_activation)


def _sigmoid(
    z: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, in one pass.

    ``out`` may be ``z`` itself; ``scratch`` (shaped like ``z``) holds exp(-|z|).
    """
    e = np.abs(z, out=scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)
    # e <= 1, so max(e, z >= 0) is 1 where z >= 0 and e below (NaN stays NaN)
    out = np.maximum(e, z >= 0, out=out)
    e += 1.0
    out /= e
    return out


def _forward_into(
    net: NetworkParams, x: np.ndarray, acts: list[np.ndarray], scratch: np.ndarray
) -> np.ndarray:
    """Forward pass of the rows ``x`` writing layer m's activation into ``acts[m]``.

    Hidden ReLU runs in place on the pre-activation; ``scratch`` is shaped
    like the output.  Returns ``acts[-1]``.
    """
    a = x
    last = net.n_layers - 1
    for m, (w, b, z) in enumerate(zip(net.weights, net.biases, acts)):
        np.matmul(a, w.T, out=z)
        z += b
        if m < last:
            np.maximum(z, 0.0, out=z)
        elif net.output_activation == "sigmoid":
            _sigmoid(z, out=z, scratch=scratch)
        a = z
    return a


def forward(net: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Map inputs through the network; accepts one vector or a batch of rows."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x2 = x[None, :] if single else x
    if x2.shape[1] != net.layer_dims[0]:
        raise ValueError(f"input dim {x2.shape[1]} != network input dim {net.layer_dims[0]}")
    acts = [np.empty((x2.shape[0], d)) for d in net.layer_dims[1:]]
    out = _forward_into(net, x2, acts, np.empty_like(acts[-1]))
    return out[0] if single else out


def mse_loss(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Batch mean of per-sample squared L2 errors."""
    outputs = np.atleast_2d(np.asarray(outputs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if outputs.shape != targets.shape:
        raise ValueError(f"shape mismatch: {outputs.shape} vs {targets.shape}")
    if outputs.shape[0] == 0:
        raise ValueError("empty batch")
    diff = outputs - targets
    return float(np.mean(np.sum(diff * diff, axis=1)))


class Workspace:
    """Buffers that :func:`backward` reuses across calls on one network shape.

    Holds, for up to ``max_rows`` rows, one activation array per layer (each
    later overwritten by that layer's delta), output-shaped scratch, a ReLU
    mask, and one gradient vector.  A smaller batch uses leading-row views of
    the same buffers.
    """

    def __init__(self, net: NetworkParams, max_rows: int) -> None:
        dims = net.layer_dims
        self.layer_dims = dims
        self.max_rows = int(max_rows)
        self._acts = [np.empty((self.max_rows, d)) for d in dims[1:]]
        self._scratch = np.empty((self.max_rows, dims[-1]))
        self._mask = np.empty(self.max_rows * max(dims[1:-1], default=0), dtype=bool)
        self.grads = Gradients.from_flat(dims, np.empty(net.n_parameters))


def backward(
    net: NetworkParams, inputs: np.ndarray, targets: np.ndarray, work: Workspace | None = None
) -> tuple[float, Gradients]:
    """Loss and its exact analytic gradient w.r.t. every weight and bias.

    Without ``work`` the gradients are a fresh vector.  With it, the pass runs
    in the workspace's buffers and the returned ``Gradients`` is the
    workspace's own vector: it stays valid only until the next call on
    ``work``.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.atleast_2d(np.asarray(targets, dtype=float))
    n_batch = x.shape[0]
    if n_batch == 0:
        raise ValueError("empty batch")
    if n_batch != y.shape[0]:
        raise ValueError("inputs and targets must have the same batch size")
    if work is None:
        work = Workspace(net, n_batch)
    elif work.layer_dims != net.layer_dims or n_batch > work.max_rows:
        raise ValueError(
            f"workspace for dims {work.layer_dims} and {work.max_rows} rows cannot hold "
            f"{n_batch} rows of a {net.layer_dims} network"
        )
    acts = [a[:n_batch] for a in work._acts]
    delta = work._scratch[:n_batch]
    out = _forward_into(net, x, acts, delta)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite activations in forward pass")
    if y.shape != out.shape:
        raise ValueError(f"shape mismatch: {out.shape} vs {y.shape}")

    np.subtract(out, y, out=delta)
    loss = float(np.mean(np.sum(delta * delta, axis=1)))
    delta *= 2.0 / n_batch
    if net.output_activation == "sigmoid":
        delta *= out
        np.subtract(1.0, out, out=out)
        delta *= out
    grads = work.grads
    for m in range(net.n_layers - 1, -1, -1):
        a_in = acts[m - 1] if m > 0 else x
        np.matmul(delta.T, a_in, out=grads.d_weights[m])
        delta.sum(axis=0, out=grads.d_biases[m])
        if m > 0:
            # a = max(z, 0) > 0 exactly where z > 0, NaN included
            mask = np.greater(a_in, 0.0, out=work._mask[: a_in.size].reshape(a_in.shape))
            delta = np.matmul(delta, net.weights[m], out=a_in)
            delta *= mask
    return loss, grads


def adam_step(
    net: NetworkParams, grads: Gradients, state: AdamState, lr: float
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected ADAM update of ``net`` in place.

    The parameters of ``net`` and the moments and step count of ``state`` are
    updated in place, chunk by chunk, and both objects are returned;
    ``grads`` is only read.  Callers that must keep a network copy it first.
    """
    t = state.step_count + 1
    c1 = 1.0 - RHO1_DEFAULT**t
    c2 = 1.0 - RHO2_DEFAULT**t
    s_full, u_full = state.scratch
    for lo in range(0, net.flat.size, ADAM_CHUNK):
        hi = lo + ADAM_CHUNK
        g, m, v, theta = grads.flat[lo:hi], state.m[lo:hi], state.v[lo:hi], net.flat[lo:hi]
        s, u = s_full[: g.size], u_full[: g.size]
        # m = rho1*m + (1-rho1)*g, v = rho2*v + (1-rho2)*g*g in this operation order (bit-identical)
        m *= RHO1_DEFAULT
        np.multiply(g, 1.0 - RHO1_DEFAULT, out=s)
        m += s
        v *= RHO2_DEFAULT
        np.multiply(g, g, out=s)
        s *= 1.0 - RHO2_DEFAULT
        v += s
        # theta - lr*(m/c1) / (sqrt(v/c2) + eps)
        np.divide(v, c2, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        np.divide(m, c1, out=u)
        u *= lr
        u /= s
        theta -= u
    state.step_count = t
    return net, state


def sgd_step(net: NetworkParams, grads: Gradients, lr: float, out: np.ndarray | None = None) -> NetworkParams:
    """Plain gradient descent: theta <- theta - lr * g, as new parameters, written
    into ``out`` when given (it may be ``net.flat``; ``grads`` then becomes lr * g)."""
    theta = lr * grads.flat if out is None else np.multiply(grads.flat, lr, out=grads.flat)
    theta = np.subtract(net.flat, theta, out=theta if out is None else out)
    return NetworkParams.from_flat(net.layer_dims, theta, net.output_activation)
