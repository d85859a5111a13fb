"""Minimal dense-network numerics: forward evaluation, tape-based reverse-mode
gradients, Adam updates, and versioned checkpoint serialization.

Fixed-topology MLPs are all this system needs (actor, critics, success
predictor), so there is no general autodiff graph - a recorded forward tape
keeps the backward pass simple and finite-difference checkable.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("identity", "relu", "tanh", "sigmoid")

CHECKPOINT_MAGIC = b"DNCK"
CHECKPOINT_VERSION = 1


class GradientError(RuntimeError):
    """Non-finite gradients; training must abort loudly rather than drift."""


class CheckpointError(RuntimeError):
    """Unreadable, corrupted, or version-incompatible checkpoint file."""


def _apply_activation(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "identity":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(f"unknown activation {kind!r}")


def _backprop_activation(kind: str, g: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Adjoint times the activation derivative (identity passes through)."""
    if kind == "identity":
        return g
    if kind == "relu":
        return g * (z > 0.0)
    if kind == "tanh":
        return g * (1.0 - out**2)
    if kind == "sigmoid":
        return g * (out * (1.0 - out))
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class Tape:
    """Per-layer inputs, pre-activations, and outputs of one forward pass."""

    inputs: list
    pre: list
    outputs: list
    squeezed: bool


@dataclass
class Gradients:
    """Result of :meth:`DenseNet.backward`. A field is ``None`` when the pass
    was told to skip it: ``weights`` and ``biases`` with ``params=False``,
    ``wrt_input`` with ``wrt_input=False``."""

    weights: list[np.ndarray] | None
    biases: list[np.ndarray] | None
    wrt_input: np.ndarray | None


class DenseNet:
    """Fully-connected network; weights are (n_in, n_out) so batched inputs
    multiply as ``x @ W + b``. Evaluation never mutates parameters."""

    def __init__(self, layer_sizes, activations, rng=None, dtype=np.float64):
        if len(activations) != len(layer_sizes) - 1:
            raise ValueError("need one activation per non-input layer")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        self.activations = tuple(activations)
        self.dtype = np.dtype(dtype)
        rng = rng or np.random.default_rng()
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            limit = 1.0 / np.sqrt(n_in)  # uniform fan-in scaling
            self.weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)).astype(self.dtype))
            self.biases.append(rng.uniform(-limit, limit, size=n_out).astype(self.dtype))

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    def _check_input(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=self.dtype)
        squeezed = x.ndim == 1
        if squeezed:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected input of width {self.in_dim}, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite network input")
        return x, squeezed

    def forward(self, x) -> np.ndarray:
        x, squeezed = self._check_input(x)
        for W, b, act in zip(self.weights, self.biases, self.activations):
            x = _apply_activation(act, x @ W + b)
        return x[0] if squeezed else x

    def forward_tape(self, x) -> tuple[np.ndarray, Tape]:
        x, squeezed = self._check_input(x)
        inputs, pres, outs = [], [], []
        for W, b, act in zip(self.weights, self.biases, self.activations):
            inputs.append(x)
            z = x @ W + b
            x = _apply_activation(act, z)
            pres.append(z)
            outs.append(x)
        return (x[0] if squeezed else x), Tape(inputs, pres, outs, squeezed)

    def backward(self, tape: Tape, out_adjoint, skip_last_activation: bool = False,
                 params: bool = True, wrt_input: bool = True) -> Gradients:
        """Reverse pass for a recorded forward. ``out_adjoint`` is dLoss/dOutput
        (or dLoss/dLogit with ``skip_last_activation``, which folds losses like
        sigmoid+BCE into a numerically safe form).

        ``params=False`` skips the weight and bias gradients and
        ``wrt_input=False`` the input gradient; a skipped field comes back as
        ``None``. The gradients that are computed are the same bits either way.
        """
        g = np.asarray(out_adjoint, dtype=self.dtype)
        if tape.squeezed and g.ndim == 1:
            g = g[None, :]
        d_weights = [None] * len(self.weights) if params else None
        d_biases = [None] * len(self.biases) if params else None
        last = len(self.weights) - 1
        for l in range(last, -1, -1):
            if not (l == last and skip_last_activation):
                g = _backprop_activation(self.activations[l], g, tape.pre[l], tape.outputs[l])
            if params:
                d_weights[l] = tape.inputs[l].T @ g
                d_biases[l] = g.sum(axis=0)
            if l or wrt_input:  # at layer 0 this product is the input gradient
                g = g @ self.weights[l].T
        d_input = (g[0] if tape.squeezed else g) if wrt_input else None
        return Gradients(d_weights, d_biases, d_input)

    # -- parameter plumbing -------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        out = []
        for W, b in zip(self.weights, self.biases):
            out.extend((W, b))
        return out

    def set_parameters(self, params) -> None:
        expect = self.parameters()
        if len(params) != len(expect):
            raise ValueError("parameter list length mismatch")
        for dst, src in zip(expect, params):
            if dst.shape != src.shape:
                raise ValueError(f"parameter shape mismatch {dst.shape} vs {src.shape}")
            dst[...] = src

    def copy(self) -> "DenseNet":
        clone = DenseNet.__new__(DenseNet)
        clone.layer_sizes = self.layer_sizes
        clone.activations = self.activations
        clone.dtype = self.dtype
        clone.weights = [W.copy() for W in self.weights]
        clone.biases = [b.copy() for b in self.biases]
        return clone


class AdamState:
    """Bias-corrected Adam accumulators for a list of parameter arrays."""

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def adam_step(params, grads, state: AdamState):
    """One in-place Adam update; raises :class:`GradientError` on non-finite
    gradients so a diverging run dies instead of silently corrupting weights."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("params/grads/state length mismatch")
    for g in grads:
        if not np.isfinite(g).all():
            raise GradientError("non-finite gradient in adam_step")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params


def net_grads_list(g: Gradients) -> list[np.ndarray]:
    out = []
    for dW, db in zip(g.weights, g.biases):
        out.extend((dW, db))
    return out


# -- checkpoint container ------------------------------------------------
#
# Layout: magic, format version, little-endian uint32 header length, JSON
# header (array names, shapes, layer-size metadata, user metadata), raw
# little-endian float64 array payloads in header order, SHA-256 of everything
# before the digest.


def write_checkpoint(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = []
    payload = bytearray()
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape)})
        payload.extend(data.tobytes())
    header = json.dumps({"version": CHECKPOINT_VERSION, "meta": meta, "arrays": entries}).encode()
    blob = bytearray()
    blob.extend(CHECKPOINT_MAGIC)
    blob.extend(len(header).to_bytes(4, "little"))
    blob.extend(header)
    blob.extend(payload)
    blob.extend(hashlib.sha256(bytes(blob)).digest())
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(bytes(blob))
    os.replace(tmp, path)


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 4 + 32 or blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch")
    off = len(CHECKPOINT_MAGIC)
    hlen = int.from_bytes(body[off : off + 4], "little")
    off += 4
    header = json.loads(body[off : off + hlen].decode())
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {header.get('version')}")
    off += hlen
    arrays = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=off).reshape(shape)
        arrays[entry["name"]] = arr.astype(np.float64)
        off += nbytes
    if off != len(body):
        raise CheckpointError(f"{path}: trailing bytes in checkpoint")
    return header["meta"], arrays


def net_to_arrays(prefix: str, net: DenseNet) -> dict[str, np.ndarray]:
    out = {}
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        out[f"{prefix}.W{i}"] = W
        out[f"{prefix}.b{i}"] = b
    return out


def net_meta(net: DenseNet) -> dict:
    return {"layer_sizes": list(net.layer_sizes), "activations": list(net.activations),
            "dtype": net.dtype.name}


def load_net_arrays(net: DenseNet, prefix: str, arrays: dict[str, np.ndarray]) -> DenseNet:
    """Overwrite ``net``'s parameters with the ``{prefix}.W{i}``/``{prefix}.b{i}``
    arrays written by :func:`net_to_arrays`, cast to the network's dtype."""
    params = []
    for i in range(len(net.weights)):
        params.extend((arrays[f"{prefix}.W{i}"].astype(net.dtype),
                       arrays[f"{prefix}.b{i}"].astype(net.dtype)))
    net.set_parameters(params)
    return net


def net_from_arrays(prefix: str, meta: dict, arrays: dict[str, np.ndarray]) -> DenseNet:
    net = DenseNet(meta["layer_sizes"], meta["activations"], dtype=np.dtype(meta["dtype"]))
    return load_net_arrays(net, prefix, arrays)
