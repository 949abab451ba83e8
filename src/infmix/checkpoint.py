"""Binary checkpoint container for every model kind.

Layout (all integers u32 little-endian, all floats f64 little-endian):

  magic "IMIX" | version | kind | kind header | one body per net

  kind header : nothing for kind 0 (stochastic net) and kind 1 (point
                estimate: dropout at p_drop = 0), p_drop for kind 2
                (dropout; a stored 0 loads too), n_members for kind 3
                (ensemble), whose bodies are its members'
  net body    : n_layers, per-layer (n_rows, n_cols), then the net's
                arrays in its ``named_params`` order, each row-major

Round trips are bit-exact; writes go through ``data.atomic_open`` so a
concurrent reader never sees a torn checkpoint.  The reader checks each
net's layer dims, and their size against the bytes left in the file before
it allocates, so a malformed file raises ``CheckpointError``.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .baselines import DeepEnsemble, DropoutMlp
from .data import atomic_open
from .network import StochasticMlp
from .posterior import MvnLayerPosterior

MAGIC = b"IMIX"
VERSION = 1

KIND_STOCHASTIC = 0
KIND_DETERMINISTIC = 1
KIND_DROPOUT = 2
KIND_ENSEMBLE = 3


class CheckpointError(ValueError):
    """Malformed or mismatched checkpoint contents."""


def _write_u32(f, *values: int):
    f.write(struct.pack(f"<{len(values)}I", *values))


def _read_u32(f) -> int:
    raw = f.read(4)
    if len(raw) < 4:
        raise CheckpointError("truncated checkpoint (u32)")
    return struct.unpack("<I", raw)[0]


def _write_f64s(f, arr: np.ndarray):
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _bytes_left(f) -> int:
    return os.fstat(f.fileno()).st_size - f.tell()


def _read_f64s(f, shape) -> np.ndarray:
    n = int(np.prod(shape))
    raw = f.read(8 * n)
    if len(raw) < 8 * n:
        raise CheckpointError("truncated checkpoint (payload)")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def save_model(model, path) -> None:
    kind = {StochasticMlp: KIND_STOCHASTIC, DropoutMlp: KIND_DROPOUT,
            DeepEnsemble: KIND_ENSEMBLE}.get(type(model))
    if kind == KIND_DROPOUT and model.p_drop == 0.0:
        kind = KIND_DETERMINISTIC
    if kind is None:
        raise CheckpointError(f"cannot checkpoint {type(model).__name__}")
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        _write_u32(f, VERSION, kind)
        if kind == KIND_DROPOUT:
            _write_f64s(f, np.array([model.p_drop]))
        if kind == KIND_ENSEMBLE:
            _write_u32(f, model.k)
        for net in model.members if kind == KIND_ENSEMBLE else [model]:
            arrays = [a for _, a in net.named_params()]
            shapes = [a.shape for a in arrays if a.ndim == 2]
            _write_u32(f, len(shapes))
            for shape in shapes:
                _write_u32(f, *shape)
            for a in arrays:
                _write_f64s(f, a)


def _read_net(f, make):
    """One net body: the layer dims, checked, then the arrays of
    ``make(dims)`` filled in its ``named_params`` order."""
    dims = [(_read_u32(f), _read_u32(f)) for _ in range(_read_u32(f))]
    if not dims:
        raise CheckpointError("checkpoint net has no layers")
    for l, (n_rows, n_cols) in enumerate(dims):
        if n_rows < 2 or n_cols < 1:
            raise CheckpointError(f"layer {l} has shape {n_rows}x{n_cols}")
        if l and n_rows != dims[l - 1][1] + 1:
            raise CheckpointError(
                f"layer {l} has {n_rows} rows after a layer of {dims[l - 1][1]} "
                f"outputs (expected {dims[l - 1][1] + 1})")
    # Every other array is one row or column of a matrix, so this bounds
    # what ``make`` allocates by the file's size.
    if 8 * sum(r * c for r, c in dims) > _bytes_left(f):
        raise CheckpointError("truncated checkpoint (payload)")
    net = make(dims)
    for _, a in net.named_params():
        a[...] = _read_f64s(f, a.shape)
    return net


def _point_net(dims) -> DropoutMlp:
    return DropoutMlp(weights=[np.empty(d) for d in dims], p_drop=0.0)


def _stochastic_net(dims) -> StochasticMlp:
    return StochasticMlp(layers=[
        MvnLayerPosterior(mean=np.empty(d), row_scale_raw=np.empty(d[0]),
                          col_scale_raw=np.empty(d[1])) for d in dims])


def load_model(path):
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r} in {path}")
        version = _read_u32(f)
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        kind = _read_u32(f)
        if kind == KIND_STOCHASTIC:
            model = _read_net(f, _stochastic_net)
        elif kind == KIND_DETERMINISTIC:
            model = _read_net(f, _point_net)
        elif kind == KIND_DROPOUT:
            p_drop = float(_read_f64s(f, (1,))[0])
            if not 0.0 <= p_drop < 1.0:
                raise CheckpointError(f"stored p_drop {p_drop} is outside [0, 1)")
            model = DropoutMlp(weights=_read_net(f, _point_net).weights,
                               p_drop=p_drop)
        elif kind == KIND_ENSEMBLE:
            n_members = _read_u32(f)
            if n_members == 0:
                raise CheckpointError("ensemble checkpoint has no members")
            model = DeepEnsemble(members=[_read_net(f, _point_net)
                                          for _ in range(n_members)])
            if len({tuple(w.shape for w in m.weights) for m in model.members}) > 1:
                raise CheckpointError("ensemble members differ in shape")
        else:
            raise CheckpointError(f"unknown model kind {kind} in {path}")
        if f.read(1):
            raise CheckpointError(f"trailing bytes after the checkpoint body in {path}")
    return model
