"""Fully connected feature-mapping network with manual backprop.

Hidden layers use ReLU (subgradient 0 at exactly 0), the output layer uses a
sigmoid so predictions live in (0, 1) like the normalized target features.
A linear output head is supported for hand-checkable scalar models and
gradient diagnostics.  All arithmetic is float64; the loss is the batch mean
of per-sample squared L2 errors, with no further division by the feature
dimension.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RHO1_DEFAULT = 0.9
RHO2_DEFAULT = 0.999
ADAM_EPS = 1e-8
# elements per chunk of adam_step's NumPy fallback: an AdamState's one scratch
# vector takes 256 kB rather than a parameter-sized vector.  The fallback makes
# 12 NumPy calls per chunk, but 65 536-element chunks (half the calls) ran the
# benchmark's desk workload no faster and peaked 0.6% higher in RSS.
ADAM_CHUNK = 32768

# adam_step's update in one pass: the fallback's 12 operations per element, in
# its order.  Each is a correctly rounded IEEE double operation, and
# -ffp-contract=off forbids fusing a multiply and an add, so the bits match the
# fallback's.  -ffast-math or -Ofast could set flush-to-zero for the whole
# process, and -march=native would tie the cached library to this host.
_ADAM_C = r"""
#include <math.h>
#include <stddef.h>

void adam_step(double *theta, double *m, double *v, const double *g, size_t n,
               double rho1, double rho2, double step, double eps)
{
    for (size_t i = 0; i < n; i++) {
        double gi = g[i], s = gi * gi;
        double mi = (m[i] - gi) * rho1 + gi;
        double vi = (v[i] - s) * rho2 + s;
        m[i] = mi;
        v[i] = vi;
        theta[i] -= mi / (sqrt(vi) + eps) * step;
    }
}
"""
_ADAM_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")


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


class NetworkParams:
    """Dense-layer parameters in one float64 vector ``flat`` (not copied): per
    layer the row-major weights (shape (dims[m+1], dims[m])) followed by the
    bias.  ``weights[m]`` and ``biases[m]`` are views into ``flat``."""

    def __init__(self, layer_dims, flat: np.ndarray, output_activation: str) -> None:
        dims = tuple(int(d) for d in layer_dims)
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
        return NetworkParams(self.layer_dims, self.flat.copy(), self.output_activation)


class Gradients:
    """Loss gradients laid out like ``NetworkParams.flat``; d_weights/d_biases are views."""

    def __init__(self, layer_dims: tuple[int, ...], flat: np.ndarray) -> None:
        self.flat = flat
        self.d_weights, self.d_biases = _views(layer_dims, flat)


@dataclass
class AdamState:
    """ADAM step counter and moments laid out like ``NetworkParams.flat``.

    ``adam_step`` updates ``m``, ``v`` and ``step_count`` in place; its NumPy
    fallback uses the chunk-sized vector ``scratch`` as its work buffer."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.scratch = np.empty(min(self.m.size, ADAM_CHUNK))


def init_adam_state(net: NetworkParams) -> AdamState:
    n = net.n_parameters
    return AdamState(m=np.zeros(n), v=np.zeros(n))


def init_network(dims: list[int] | tuple[int, ...], seed: int) -> NetworkParams:
    """Sigmoid-headed network with He-initialized weights (variance 2/fan_in)
    and zero biases, drawing each layer's weights in turn."""
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(seed)
    n = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    net = NetworkParams(dims, np.zeros(n), "sigmoid")
    for w in net.weights:
        rng.standard_normal(out=w)
        w *= np.sqrt(2.0 / w.shape[1])
    return net


def _sigmoid(z: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, in one pass.

    ``out`` may be ``z`` itself; ``scratch`` (shaped like ``z``) holds exp(-|z|).
    """
    e = np.abs(z, out=scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)
    # e <= 1, so max(e, z >= 0) is 1 where z >= 0 and e below (NaN stays NaN)
    np.maximum(e, z >= 0, out=out)
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
            _sigmoid(z, z, scratch)
        a = z
    return a


def forward(net: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Map a batch of input rows (samples x input dim) through the network."""
    if x.shape[1] != net.layer_dims[0]:
        raise ValueError(f"input dim {x.shape[1]} != network input dim {net.layer_dims[0]}")
    acts = [np.empty((x.shape[0], d)) for d in net.layer_dims[1:]]
    return _forward_into(net, x, acts, np.empty_like(acts[-1]))


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
        self.grads = Gradients(dims, np.empty(net.n_parameters))


def backward(net: NetworkParams, x: np.ndarray, y: np.ndarray, work: Workspace) -> tuple[float, Gradients]:
    """Loss on the input rows ``x`` and target rows ``y`` and its exact analytic
    gradient w.r.t. every weight and bias; FloatingPointError when the loss is
    not finite (a non-finite output, say).

    The pass runs in the workspace's buffers, and the returned ``Gradients``
    is the workspace's own vector: it stays valid only until the next call
    on ``work``.
    """
    n_batch = x.shape[0]
    fits = work.layer_dims == net.layer_dims and 0 < n_batch <= work.max_rows
    if not fits or y.shape != (n_batch, net.layer_dims[-1]):
        raise ValueError(
            f"a workspace for {work.max_rows} rows of a {work.layer_dims} network cannot take "
            f"{n_batch} rows with targets of shape {y.shape} for a {net.layer_dims} network"
        )
    acts = [a[:n_batch] for a in work._acts]
    delta = work._scratch[:n_batch]
    out = _forward_into(net, x, acts, delta)
    np.subtract(out, y, out=delta)
    residual = delta.reshape(-1)  # leading rows of a C-ordered buffer: a view
    loss = float(np.dot(residual, residual)) / n_batch
    if not math.isfinite(loss):  # a non-finite output makes the loss non-finite
        raise FloatingPointError("non-finite training loss: the network's outputs diverged")
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


def _load_adam_kernel(cache_dir: Path):
    """``_ADAM_C`` compiled by ``cc`` and loaded, or None where there is no
    ``cc`` or it fails.  The library is cached in ``cache_dir`` under a hash of
    what went into it, or, where that directory cannot be written, built for
    this process alone.  The compiler's output is captured, never shown."""
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    key = "\0".join((_ADAM_C, compiler, *_ADAM_CFLAGS, platform.machine()))
    cached = cache_dir / f"adam_step.{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"

    def build(tmp: str) -> str | None:
        import subprocess  # only here, so that a run that finds the library cached never loads it

        src, lib = os.path.join(tmp, "adam_step.c"), os.path.join(tmp, "adam_step.so")
        Path(src).write_text(_ADAM_C)
        try:
            done = subprocess.run(
                [compiler, *_ADAM_CFLAGS, "-o", lib, src],
                stdin=subprocess.DEVNULL,
                capture_output=True,
                timeout=120,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return lib if done.returncode == 0 else None

    def load(lib: str):
        fn = ctypes.CDLL(lib).adam_step
        fn.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_size_t] + [ctypes.c_double] * 4
        fn.restype = None
        return fn

    if not cached.exists():
        try:
            cache_dir.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache_dir) as tmp:
                lib = build(tmp)
                if lib is None:
                    return None
                os.replace(lib, cached)  # atomic: a concurrent process loads a whole file or none
        except OSError:  # cache_dir cannot be written
            with tempfile.TemporaryDirectory() as tmp:
                lib = build(tmp)
                # a loaded library stays mapped after its file is removed
                return None if lib is None else load(lib)
    return load(str(cached))


class _AdamKernel:
    """The compiled Adam loop, loaded by the first :meth:`get` (None where it
    could not be built), once however many threads make that first call."""

    def __init__(self, cache_dir: Path) -> None:
        self.cache_dir = cache_dir
        self._lock = threading.Lock()
        self._loaded = False
        self._fn = None

    def get(self):
        if not self._loaded:
            with self._lock:
                if not self._loaded:
                    try:
                        self._fn = _load_adam_kernel(self.cache_dir)
                    except OSError:  # a library that cannot be loaded, say
                        self._fn = None
                    self._loaded = True
        return self._fn


# cached next to this module's .pyc files; deleting __pycache__ clears it
_ADAM_KERNEL = _AdamKernel(Path(__file__).resolve().parent / "__pycache__")


def _adam_chunks(theta, m, v, g, scratch, step: float, eps: float) -> None:
    """The update of :func:`adam_step` in NumPy calls, one chunk at a time."""
    for lo in range(0, theta.size, ADAM_CHUNK):
        hi = lo + ADAM_CHUNK
        gc, mc, vc, tc = g[lo:hi], m[lo:hi], v[lo:hi], theta[lo:hi]
        s = scratch[: gc.size]
        # m = rho1*(m - g) + g and v = rho2*(v - g*g) + g*g, the moving averages in 7 passes
        mc -= gc
        mc *= RHO1_DEFAULT
        mc += gc
        np.multiply(gc, gc, out=s)
        vc -= s
        vc *= RHO2_DEFAULT
        vc += s
        # theta -= step * m / (sqrt(v) + eps)
        np.sqrt(vc, out=s)
        s += eps
        np.divide(mc, s, out=s)
        s *= step
        tc -= s


def adam_step(
    net: NetworkParams, grads: Gradients, state: AdamState, lr: float
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected ADAM update of ``net`` in place.

    The parameters of ``net`` and the moments and step count of ``state`` are
    updated in place, and both objects are returned; ``grads`` is only read.
    Callers that must keep a network copy it first.  The update runs in one
    compiled pass (one call, which releases the GIL) when a C compiler built
    it and the four vectors are writable C-contiguous float64 vectors of one
    length; otherwise in NumPy calls over ``state.scratch``-sized chunks.
    Both give the same bits.
    """
    t = state.step_count + 1
    c1 = 1.0 - RHO1_DEFAULT**t
    root_c2 = math.sqrt(1.0 - RHO2_DEFAULT**t)
    # lr*(m/c1) / (sqrt(v/c2) + eps) with the bias corrections folded into two
    # scalars, as at the end of section 2 of Kingma & Ba (arXiv:1412.6980)
    step, eps = lr * root_c2 / c1, ADAM_EPS * root_c2
    vectors = (net.flat, state.m, state.v, grads.flat)
    n = net.flat.size
    kernel = _ADAM_KERNEL.get()
    # the loop writes theta, m and v through bare pointers, so it takes only what its C types say
    if (
        kernel is not None
        and all(a.dtype == np.float64 and a.shape == (n,) and a.flags.c_contiguous for a in vectors)
        and all(a.flags.writeable for a in vectors[:3])
    ):
        kernel(*(a.ctypes.data for a in vectors), n, RHO1_DEFAULT, RHO2_DEFAULT, step, eps)
    else:
        _adam_chunks(*vectors, state.scratch, step, eps)
    state.step_count = t
    return net, state


def sgd_step(net: NetworkParams, grads: Gradients, lr: float, out: np.ndarray) -> NetworkParams:
    """Plain gradient descent theta <- theta - lr * g, written into ``out`` (it
    may be ``net.flat``) and returned as new parameters; ``grads`` becomes lr * g."""
    np.multiply(grads.flat, lr, out=grads.flat)
    np.subtract(net.flat, grads.flat, out=out)
    return NetworkParams(net.layer_dims, out, net.output_activation)
