"""Sequential model container: forward/backward, checkpoints, complexity.

Checkpoint layout (little-endian): magic "CVNN", version u16, u32 JSON
header length, JSON header, then raw tensor blobs in manifest order. The
header is an object with exactly the keys `layers` (layer specs), `tensors`
(manifest: layer index, name, disk dtype and shape per tensor), `meta` and
`adam`, which is always null (optimizer state is not stored). Real tensors
are f32, complex tensors are c8 (interleaved re/im f32). In-memory compute
stays f64/c16; loading upcasts, so save -> load -> save is byte identical.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from immimo.cvnn.layers import Layer, _walk_items, layer_from_spec

_MAGIC = b"CVNN"
_VERSION = 1


def _disk_dtype(a: np.ndarray) -> np.dtype:
    return np.dtype("<c8" if np.iscomplexobj(a) else "<f4")


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
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # items are keyed (layer index, tensor name)
    def param_items(self) -> list:
        return _walk_items(self.layers, "param_items", lambda i, n: (i, n))

    def grad_items(self) -> list:
        return _walk_items(self.layers, "grad_items", lambda i, n: (i, n))

    def tensor_items(self) -> list:
        return _walk_items(self.layers, "tensor_items", lambda i, n: (i, n))

    def specs(self) -> list[dict]:
        return [layer.spec() for layer in self.layers]

    # -- state copy (for best-checkpoint bookkeeping during training) --

    def state_arrays(self) -> list[np.ndarray]:
        return [a.copy() for _, a in self.tensor_items()]

    def load_state_arrays(self, arrays: list[np.ndarray]) -> None:
        items = self.tensor_items()
        if len(items) != len(arrays):
            raise ValueError("state length mismatch")
        for ((_, _), dst), src in zip(items, arrays):
            dst[...] = src

    def quantize_state(self) -> None:
        """Pass every tensor through its on-disk f32 precision in place."""
        for (_, _), a in self.tensor_items():
            a[...] = a.astype(_disk_dtype(a)).astype(a.dtype)

    # -- checkpoint io --

    def save(self, path) -> None:
        tensors = self.tensor_items()
        header = {"layers": self.specs(),
                  "tensors": [_manifest_entry(k, a) for k, a in tensors],
                  "meta": self.meta, "adam": None}
        hj = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<H", _VERSION))
            f.write(struct.pack("<I", len(hj)))
            f.write(hj)
            for _, a in tensors:
                f.write(a.astype(_disk_dtype(a)).tobytes())

    @classmethod
    def load(cls, path):
        """Read a checkpoint; ValueError on any malformed or truncated part."""
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
            for (key, dst), entry in zip(items, header["tensors"]):
                # as JSON text, so that e.g. false does not pass for 0
                if json.dumps(entry, sort_keys=True) != json.dumps(
                        _manifest_entry(key, dst), sort_keys=True):
                    raise ValueError(f"checkpoint manifest entry {entry!r} does not "
                                     f"match layer {key[0]} tensor {key[1]}")
                disk = _disk_dtype(dst)
                dst[...] = np.frombuffer(_read(f, disk.itemsize * dst.size),
                                         disk).reshape(dst.shape)
            if f.read(1):
                raise ValueError("checkpoint has trailing bytes")
        return model


def _walk_specs(specs):
    for s in specs:
        if s["kind"] == "residual_add":
            yield from _walk_specs(s["layers"])
        else:
            yield s


def count_params(model: Model) -> int:
    """Real parameter slots in the conv/dense trunk, biases excluded.

    This counts the weight tensors that the real-vs-complex pairing argument
    covers: a complex weight holds two real slots but a complex layer of
    width C replaces a real layer of width 2C, so the trunk count halves
    exactly. Biases, batch-norm parameters, and the real probability readout
    are identical across variants and are left out of the comparison.
    """
    total = 0
    for s in _walk_specs(model.specs()):
        prefix, _, op = s["kind"].partition("_")
        if op == "conv2d":
            n = s["kernel"] ** 2 * s["in_channels"] * s["out_channels"]
        elif op == "dense":
            n = s["in_features"] * s["out_features"]
        else:
            continue
        total += 2 * n if prefix == "complex" else n
    return total


def count_flops(model: Model, input_shape) -> int:
    """Forward-pass FLOPs for one frame at `input_shape` (no batch axis).

    Convention: one complex multiply-accumulate = 8 FLOPs, one real MAC =
    2 FLOPs. Only MAC-bearing layers (conv, dense, readout) are counted;
    normalization and activation costs are sub-percent at these shapes and
    excluded.
    """
    shape = tuple(input_shape)
    total = 0
    for s in _walk_specs(model.specs()):
        kind = s["kind"]
        prefix, _, op = kind.partition("_")
        flops_per_mac = 8 if prefix == "complex" else 2
        if op == "conv2d":
            c, h, w = shape
            if c != s["in_channels"]:
                raise ValueError(f"shape {shape} does not feed {s}")
            if s["padding"] == "valid":
                h, w = h - s["kernel"] + 1, w - s["kernel"] + 1
            macs = h * w * s["kernel"] ** 2 * s["in_channels"] * s["out_channels"]
            total += macs * flops_per_mac
            shape = (s["out_channels"], h, w)
        elif op in ("dense", "head_dense"):
            total += s["in_features"] * s["out_features"] * flops_per_mac
            shape = (s["out_features"],)
        elif kind == "flatten":
            shape = (int(np.prod(shape)),)
        elif kind == "split_reim":
            shape = (2 * shape[0],) + shape[1:]
        elif kind == "merge_reim":
            shape = (shape[0] // 2,) + shape[1:]
        # batchnorm / activations: shape-preserving, not counted
    return total
