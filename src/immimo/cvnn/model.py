"""Sequential model container: forward/backward, checkpoints, complexity.

Checkpoint layout (little-endian): magic "CVNN", version u16, u32 JSON
header length, JSON header (layer specs, tensor manifest, metadata, Adam
presence), then raw tensor blobs in manifest order. Real tensors are f32,
complex tensors are c8 (interleaved re/im f32). In-memory compute stays
f64/c16; loading upcasts, so save -> load -> save is byte identical.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from immimo.cvnn.layers import Layer, _walk_items, layer_from_spec

_MAGIC = b"CVNN"
_VERSION = 1


def _to_disk(a: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(a):
        return a.astype("<c8")
    return a.astype("<f4")


def _read(f, nbytes: int) -> bytes:
    buf = f.read(nbytes)
    if len(buf) != nbytes:
        raise ValueError(f"truncated checkpoint: wanted {nbytes} bytes, got {len(buf)}")
    return buf


def _from_disk(buf: bytes, dtype: str, shape) -> np.ndarray:
    a = np.frombuffer(buf, dtype=dtype).reshape(shape)
    return a.astype(np.complex128 if dtype == "<c8" else np.float64)


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
            a[...] = _to_disk(a).astype(a.dtype)

    # -- checkpoint io --

    def save(self, path, adam_state: dict | None = None) -> None:
        tensors = self.tensor_items()
        manifest = []
        blobs = []
        for (li, name), a in tensors:
            d = _to_disk(a)
            manifest.append({"layer": li, "name": name,
                             "dtype": "<c8" if np.iscomplexobj(a) else "<f4",
                             "shape": list(a.shape)})
            blobs.append(d.tobytes())
        header = {"layers": self.specs(), "tensors": manifest, "meta": self.meta,
                  "adam": None}
        if adam_state is not None:
            adam_manifest = []
            for slot in adam_state["slots"]:
                for key in ("m", "v"):
                    a = slot[key]
                    adam_manifest.append({"dtype": "<c8" if np.iscomplexobj(a) else "<f4",
                                          "shape": list(a.shape)})
                    blobs.append(_to_disk(a).tobytes())
            header["adam"] = {"step": adam_state["step"], "lr": adam_state["lr"],
                              "tensors": adam_manifest}
        hj = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<H", _VERSION))
            f.write(struct.pack("<I", len(hj)))
            f.write(hj)
            for b in blobs:
                f.write(b)

    @classmethod
    def load(cls, path, with_adam: bool = False):
        with open(path, "rb") as f:
            magic = f.read(4)
            if magic != _MAGIC:
                raise ValueError(f"bad checkpoint magic {magic!r}")
            (version,) = struct.unpack("<H", _read(f, 2))
            if version != _VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            (hlen,) = struct.unpack("<I", _read(f, 4))
            header = json.loads(_read(f, hlen))
            layers = [layer_from_spec(s) for s in header["layers"]]
            model = cls(layers, meta=header.get("meta", {}))
            items = model.tensor_items()
            if len(items) != len(header["tensors"]):
                raise ValueError("checkpoint tensor manifest mismatch")
            for ((li, name), dst), m in zip(items, header["tensors"]):
                if list(dst.shape) != m["shape"]:
                    raise ValueError(f"shape mismatch for layer {li} tensor {name}")
                nbytes = int(np.prod(m["shape"])) * (8 if m["dtype"] == "<c8" else 4)
                dst[...] = _from_disk(_read(f, nbytes), m["dtype"], m["shape"])
            adam_state = None
            if header.get("adam") is not None:
                ah = header["adam"]
                slots = []
                arrays = []
                for m in ah["tensors"]:
                    nbytes = int(np.prod(m["shape"])) * (8 if m["dtype"] == "<c8" else 4)
                    arrays.append(_from_disk(_read(f, nbytes), m["dtype"], m["shape"]))
                for i in range(0, len(arrays), 2):
                    slots.append({"m": arrays[i], "v": arrays[i + 1]})
                adam_state = {"step": ah["step"], "lr": ah["lr"], "slots": slots}
            if f.read(1):
                raise ValueError("checkpoint has trailing bytes")
        if with_adam:
            return model, adam_state
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
