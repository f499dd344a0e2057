"""Binary model files: network weights plus the input normalizer.

Layout: magic, version u32, layer count u32 (= number of dims), dims as
u32s, then the network's flat parameter vector as little-endian f64 (per
layer the row-major weight matrix followed by the bias vector), then the
normalizer's col_min and col_max (f64, length = input dim).  Round-trips are
bit-exact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .features import Normalizer
from .neuralnet import NetworkParams

MODEL_MAGIC = b"FDKG-NN"
MODEL_VERSION = 1


def save_model(net: NetworkParams, normalizer: Normalizer, path: str | Path) -> None:
    if normalizer.col_min.shape[0] != net.layer_dims[0]:
        raise ValueError("normalizer dimension must match the network input dimension")
    if net.output_activation != "sigmoid":  # the file has no activation field; load_model builds sigmoid
        raise ValueError(f"only sigmoid-output networks can be saved, got {net.output_activation!r}")
    dims = net.layer_dims
    with open(Path(path), "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", MODEL_VERSION, len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        fh.write(np.ascontiguousarray(net.flat, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(normalizer.col_min, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(normalizer.col_max, dtype="<f8").tobytes())


def load_model(path: str | Path) -> tuple[NetworkParams, Normalizer]:
    path = Path(path)
    raw = path.read_bytes()
    off = len(MODEL_MAGIC)
    if len(raw) < off + 8:
        raise FormatError(f"{path}: truncated header")
    if raw[:off] != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:off]!r}")
    version, n_dims = struct.unpack_from("<II", raw, off)
    off += 8
    if version != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported model version {version}")
    if n_dims < 2 or len(raw) < off + 4 * n_dims:
        raise FormatError(f"{path}: truncated dims block")
    dims = struct.unpack_from(f"<{n_dims}I", raw, off)
    off += 4 * n_dims
    if 0 in dims:
        raise FormatError(f"{path}: zero layer dim in {list(dims)}")

    n_params = sum(o * i + o for i, o in zip(dims[:-1], dims[1:]))
    expected = off + 8 * (n_params + 2 * dims[0])
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")

    values = np.frombuffer(raw, dtype="<f8", offset=off).astype(float)
    flat, col_min, col_max = np.split(values, [n_params, n_params + dims[0]])
    return NetworkParams.from_flat(dims, flat), Normalizer(col_min=col_min, col_max=col_max)
