"""Sequential model container: forward/backward, checkpoints, complexity.

Checkpoint layout (little-endian): magic "CVNN", version u16, u32 JSON
header length, JSON header, then raw tensor blobs in manifest order. The
header is an object with exactly the keys `layers` (layer specs), `tensors`
(manifest: layer index, name, disk dtype and shape per tensor), `meta` and
`adam`, which is always null (optimizer state is not stored). Real tensors
are f32, complex tensors are c8 (interleaved re/im f32).

Nets are built at f64/c16 and train at their disk dtype (f32/c8): Adam
(optim.py) rounds a built net's parameters to it and updates them in
place, and a layer computes in the dtype of its own tensors (layers.py).
A loaded net holds each tensor at its disk dtype, and so does a trained
one (`quantize_state`, which training ends with, also rounds the
batch-norm running statistics), so both infer at that precision. Save ->
load -> save is byte identical. Save writes beside the target and
renames the file into place.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from immimo.cvnn.layers import (Layer, RealHeadDense, Residual, _backward_chain,
                                _forward_chain, _walk_items, layer_from_spec)
from immimo.files import replace_file

_MAGIC = b"CVNN"
_VERSION = 1


def _disk_dtype(a: np.ndarray) -> np.dtype:
    return np.dtype("<c8" if np.iscomplexobj(a) else "<f4")


def _at_disk_precision(a: np.ndarray) -> np.ndarray:
    """A native-order copy of `a` at its disk dtype (complex64 or float32)."""
    return a.astype(_disk_dtype(a).type)


def _manifest_entry(key, a: np.ndarray) -> dict:
    layer, name = key
    return {"layer": layer, "name": name, "dtype": _disk_dtype(a).str,
            "shape": list(a.shape)}


def _read(f, nbytes: int) -> bytes:
    buf = f.read(nbytes)
    if len(buf) != nbytes:
        raise ValueError(f"truncated checkpoint: wanted {nbytes} bytes, got {len(buf)}")
    return buf


# the JSON type of each header key; optimizer state is never stored
_HEADER_TYPES = {"adam": type(None), "layers": list, "meta": dict, "tensors": list}


def _check_header(header) -> None:
    """ValueError unless `header` has the keys and types that save writes."""
    if (not isinstance(header, dict) or header.keys() != _HEADER_TYPES.keys()
            or any(type(header[k]) is not t for k, t in _HEADER_TYPES.items())):
        raise ValueError("checkpoint header must be an object with exactly adam "
                         "(null), layers (array), meta (object), tensors (array)")


class Model:
    """A fixed sequence of layers with shared forward/backward plumbing."""

    def __init__(self, layers: list[Layer], meta: dict | None = None):
        self.layers = list(layers)
        self.meta = dict(meta or {})

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        return _forward_chain(self.layers, x, train)

    def backward(self, grad: np.ndarray) -> None:
        """Parameter gradients for grad_items() after a train-mode forward
        (else RuntimeError); no input gradient (layers._backward_chain)."""
        _backward_chain(self.layers, grad, input_grad=False)

    # items are keyed (layer index, tensor name)
    def param_items(self) -> list:
        return _walk_items(self.layers, "param_items", lambda i, n: (i, n))

    def grad_items(self) -> list:
        return _walk_items(self.layers, "grad_items", lambda i, n: (i, n))

    def tensor_items(self) -> list:
        return _walk_items(self.layers, "tensor_items", lambda i, n: (i, n))

    # -- state copy (for best-checkpoint bookkeeping during training) --

    def state_arrays(self) -> list[np.ndarray]:
        return [a.copy() for _, a in self.tensor_items()]

    def load_state_arrays(self, arrays: list[np.ndarray]) -> None:
        items = self.tensor_items()
        if len(items) != len(arrays):
            raise ValueError("state length mismatch")
        for ((_, _), dst), src in zip(items, arrays):
            dst[...] = src

    def set_tensors(self, items) -> None:
        """Replace tensors by their tensor_items() key (layer index, name)."""
        for (i, name), a in items:
            self.layers[i].set_tensor(name, a)

    def quantize_state(self) -> None:
        """Replace every tensor with its disk-dtype copy (complex64 or
        float32): the net then is the one a reader of its checkpoint loads,
        and it infers at that precision."""
        self.set_tensors([(k, _at_disk_precision(a)) for k, a in self.tensor_items()])

    # -- checkpoint io --

    def save(self, path) -> None:
        """Write the checkpoint beside `path`, then rename it into place."""
        tensors = self.tensor_items()
        header = {"layers": [layer.spec() for layer in self.layers],
                  "tensors": [_manifest_entry(k, a) for k, a in tensors],
                  "meta": self.meta, "adam": None}
        hj = json.dumps(header, sort_keys=True).encode()
        replace_file(path, [_MAGIC, struct.pack("<HI", _VERSION, len(hj)), hj,
                            *(a.astype(_disk_dtype(a)).tobytes() for _, a in tensors)])

    @classmethod
    def load(cls, path):
        """Read a checkpoint; its tensors keep their disk dtype (c8/f4).
        ValueError on any malformed or truncated part, on a NaN or
        infinite tensor (training never saves one) and on a batch-norm
        running variance or covariance that eps does not make positive
        (definite)."""
        with open(path, "rb") as f:
            magic = f.read(4)
            if magic != _MAGIC:
                raise ValueError(f"bad checkpoint magic {magic!r}")
            (version,) = struct.unpack("<H", _read(f, 2))
            if version != _VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            (hlen,) = struct.unpack("<I", _read(f, 4))
            header = json.loads(_read(f, hlen))
            _check_header(header)
            model = cls([layer_from_spec(s) for s in header["layers"]],
                        meta=header["meta"])
            items = model.tensor_items()
            if len(items) != len(header["tensors"]):
                raise ValueError("checkpoint tensor manifest mismatch")
            loaded = []
            for (key, built), entry in zip(items, header["tensors"]):
                # as JSON text, so that e.g. false does not pass for 0
                if json.dumps(entry, sort_keys=True) != json.dumps(
                        _manifest_entry(key, built), sort_keys=True):
                    raise ValueError(f"checkpoint manifest entry {entry!r} does not "
                                     f"match layer {key[0]} tensor {key[1]}")
                disk = _disk_dtype(built)
                a = _at_disk_precision(np.frombuffer(
                    _read(f, disk.itemsize * built.size), disk).reshape(built.shape))
                fault = model.layers[key[0]].tensor_fault(key[1], a)
                if fault:
                    raise ValueError(f"checkpoint layer {key[0]} tensor {key[1]} {fault}")
                loaded.append((key, a))
            if f.read(1):
                raise ValueError("checkpoint has trailing bytes")
        model.set_tensors(loaded)
        return model


def _leaf_layers(layers):
    """The layers in execution order, each Residual's branch in its place."""
    for layer in layers:
        if isinstance(layer, Residual):
            yield from _leaf_layers(layer.layers)
        else:
            yield layer


def count_params(model: Model) -> int:
    """Real parameter slots in the conv/dense trunk, biases excluded.

    This counts the weight tensors that the real-vs-complex pairing argument
    covers: a complex weight holds two real slots but a complex layer of
    width C replaces a real layer of width 2C, so the trunk count halves
    exactly. Biases, batch-norm parameters, and the real probability readout
    are identical across variants and are left out of the comparison.
    """
    total = 0
    for layer in _leaf_layers(model.layers):
        w = getattr(layer, "weight", None)
        if w is not None and not isinstance(layer, RealHeadDense):
            total += (2 if np.iscomplexobj(w) else 1) * w.size
    return total


def count_flops(model: Model, input_shape) -> int:
    """Forward-pass FLOPs for one frame at `input_shape` (no batch axis).

    Convention: one complex multiply-accumulate = 8 FLOPs, one real MAC =
    2 FLOPs. Only MAC-bearing layers (conv, dense, readout) are counted;
    normalization and activation costs are sub-percent at these shapes and
    excluded. The count runs one inference pass of a real zero frame at
    batch 1 through the layers and reads each output's shape, so, like any
    inference pass, it drops a pending train-mode cache; a frame the net
    cannot take is the ValueError its forward raises.
    """
    # real: a bare real layer would warn on casting a complex frame, and
    # complex layers cast a real one exactly
    x = np.zeros((1, *input_shape))
    total = 0
    for layer in _leaf_layers(model.layers):
        x = layer.forward(x)
        # conv and dense layers, the readout too, hold a weight: each of its
        # entries is one MAC per output position, x.size / channels at batch 1
        w = getattr(layer, "weight", None)
        if w is not None:
            total += (8 if np.iscomplexobj(w) else 2) * w.size * x.size // x.shape[1]
    return total
