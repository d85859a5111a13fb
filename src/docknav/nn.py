"""Minimal dense-network numerics: forward evaluation, tape-based reverse-mode
gradients, Adam updates, and versioned checkpoint serialization.

Fixed-topology MLPs are all this system needs (actor, critics, success
predictor), so there is no general autodiff graph - a recorded forward tape
keeps the backward pass simple and finite-difference checkable.

Each network keeps its parameters, and returns its parameter gradients, in
one flat array whose layout only :class:`DenseNet` knows, so optimizers,
target copies and checkpoints handle one array per network.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("identity", "relu", "tanh", "sigmoid")

CHECKPOINT_MAGIC = b"DNCK"
CHECKPOINT_VERSION = 4


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
    """Result of :meth:`DenseNet.backward`: ``flat`` holds the parameter
    gradients in the network's ``flat`` layout, ``weights`` and ``biases`` are
    views into it. A field is ``None`` when the pass was told to skip it:
    ``flat``, ``weights`` and ``biases`` with ``params=False``, ``wrt_input``
    with ``wrt_input=False``."""

    flat: np.ndarray | None
    weights: list[np.ndarray] | None
    biases: list[np.ndarray] | None
    wrt_input: np.ndarray | None


class DenseNet:
    """Fully-connected network; weights are (n_in, n_out) so batched inputs
    multiply as ``x @ W + b``. Evaluation never mutates parameters. ``flat``
    holds every parameter, laid out ``W0, b0, W1, b1, ...``, and
    ``weights[l]`` and ``biases[l]`` are views into it."""

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
        sizes = zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        self.flat = np.empty(sum((n_in + 1) * n_out for n_in, n_out in sizes), self.dtype)
        self.weights, self.biases = self._views(self.flat)
        for W, b in zip(self.weights, self.biases):
            limit = 1.0 / np.sqrt(W.shape[0])  # uniform fan-in scaling
            W[...] = rng.uniform(-limit, limit, size=W.shape)
            b[...] = rng.uniform(-limit, limit, size=b.shape)

    def _views(self, buf: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into ``buf``, an array the size of
        ``flat``: the only code that knows the ``W0, b0, W1, b1, ...`` layout."""
        weights, biases = [], []
        start = 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(buf[start : start + n_in * n_out].reshape(n_in, n_out))
            start += n_in * n_out
            biases.append(buf[start : start + n_out])
            start += n_out
        return weights, biases

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
        d_flat = np.empty_like(self.flat) if params else None
        d_weights, d_biases = self._views(d_flat) if params else (None, None)
        last = len(self.weights) - 1
        for l in range(last, -1, -1):
            if not (l == last and skip_last_activation):
                g = _backprop_activation(self.activations[l], g, tape.pre[l], tape.outputs[l])
            if params:
                np.matmul(tape.inputs[l].T, g, out=d_weights[l])
                g.sum(axis=0, out=d_biases[l])
            if l or wrt_input:  # at layer 0 this product is the input gradient
                g = g @ self.weights[l].T
        d_input = (g[0] if tape.squeezed else g) if wrt_input else None
        return Gradients(d_flat, d_weights, d_biases, d_input)

    # -- parameter plumbing -------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        return [self.flat]

    def copy(self) -> "DenseNet":
        clone = DenseNet.__new__(DenseNet)
        clone.layer_sizes = self.layer_sizes
        clone.activations = self.activations
        clone.dtype = self.dtype
        clone.flat = self.flat.copy()
        clone.weights, clone.biases = clone._views(clone.flat)
        return clone


class AdamState:
    """Bias-corrected Adam accumulators for a list of parameter arrays."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr: float):
        self.lr = lr
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
        # Moments of a gradient gone to zero decay into the subnormal range,
        # where arithmetic is many times slower; flush them to zero. Adding
        # 0.0 turns the -0.0 of a flushed negative moment into +0.0.
        tiny = np.finfo(m.dtype).tiny
        m *= np.abs(m) >= tiny
        m += 0.0
        v *= v >= tiny
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params


def net_grads_list(g: Gradients) -> list[np.ndarray]:
    """The gradients in the order of :meth:`DenseNet.parameters`."""
    return [g.flat]


# -- checkpoint container ------------------------------------------------
#
# Layout (format version 4): magic, little-endian uint32 header length, JSON
# header (format version, user metadata and, per array, its name, dtype and
# shape), each array's raw little-endian bytes in its own dtype in header
# order, then a 32-byte digest: the SHA-256 of the concatenated SHA-256
# digests of consecutive 4 MiB chunks of everything before it (the last
# chunk may be shorter). The chunks of a larger file are hashed on the standard
# library's thread pool, one thread per usable CPU, each reading through its
# own buffer; a file of one chunk is hashed in the calling thread. On 2 cores a
# 142 MB file saves in 0.08 s and restores, verified, in 0.13 s, against
# 0.16 s and 0.20 s with a single-core pass each way. Arrays are streamed to
# and from the file: neither side builds the whole payload in memory, and a
# reader that already holds an array of the right dtype and shape has the
# bytes read straight into it, so restoring a state costs no second copy of
# it. Versions 1 to 3 ended in the plain SHA-256 of the same bytes; they are
# recognised by it only to be rejected by their version.

_DIGEST_SIZE = 32
_HASH_CHUNK = 4 << 20  # bytes per separately hashed chunk
_READ_CHUNK = 256 << 10  # the read buffer of one hashing thread; 1 MiB ones raised peak RSS
_PREAMBLE = len(CHECKPOINT_MAGIC) + 4


def _checked_dtype(dtype) -> np.dtype:
    """``dtype`` if it is a numeric little-endian (or byte-sized) scalar type;
    the container stores nothing else."""
    dtype = np.dtype(dtype)
    if dtype.kind not in "biuf" or dtype.str[0] not in "<|":
        raise TypeError(f"unsupported checkpoint dtype {dtype.str}")
    return dtype


def _byte_view(arr: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array, without a copy."""
    return memoryview(arr.reshape(-1).view(np.uint8))


def _sha256(pieces) -> bytes:
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    return digest.digest()


def _split_chunks(pieces) -> list[list[memoryview]]:
    """The bytes of ``pieces``, laid end to end, as chunks of ``_HASH_CHUNK``
    bytes (the last may be shorter), each a list of views into the pieces."""
    chunks, chunk, room = [], [], _HASH_CHUNK
    for piece in map(memoryview, pieces):
        while len(piece):
            head, piece = piece[:room], piece[room:]
            chunk.append(head)
            room -= len(head)
            if not room:
                chunks.append(chunk)
                chunk, room = [], _HASH_CHUNK
    return chunks + [chunk] if chunk else chunks


def _container_digest(n_chunks: int, chunk_digest, meanwhile=lambda: None,
                      buf_size: int = 0) -> bytes:
    """SHA-256 of the SHA-256 digests of chunks 0 to ``n_chunks - 1`` in order,
    chunk ``i`` hashed by ``chunk_digest(i, buf)``, where ``buf`` is the hashing
    thread's own buffer of ``buf_size`` bytes.

    More than one chunk is hashed on a ``ThreadPoolExecutor`` of one thread per
    usable CPU while the calling thread runs ``meanwhile()``; one chunk is
    hashed in the calling thread after it, and no thread is started. The
    digest is the same for every thread count. An exception in a hashing
    thread is raised in the calling thread; one in ``meanwhile()`` cancels the
    chunks not yet started. Either way every hashing thread has ended."""
    if n_chunks == 1:
        meanwhile()
        return hashlib.sha256(chunk_digest(0, memoryview(bytearray(buf_size)))).digest()
    # imported here: at module level it raised the peak RSS of a grid
    # evaluation, which hashes no multi-chunk file, by about 0.6 MB
    from concurrent.futures import ThreadPoolExecutor

    local = threading.local()
    with ThreadPoolExecutor(min(len(os.sched_getaffinity(0)), n_chunks), "checkpoint-hash",
                            lambda: setattr(local, "buf", memoryview(bytearray(buf_size)))) as pool:
        digests = pool.map(lambda i: chunk_digest(i, local.buf), range(n_chunks))
        try:
            meanwhile()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
        return hashlib.sha256(b"".join(digests)).digest()


def write_checkpoint(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = []
    datas = []
    for name, arr in arrays.items():
        dtype = _checked_dtype(np.asarray(arr).dtype.newbyteorder("<"))
        data = np.asarray(arr, dtype=dtype, order="C")
        entries.append({"name": name, "dtype": dtype.str, "shape": list(data.shape)})
        datas.append(data)
    header = json.dumps({"version": CHECKPOINT_VERSION, "meta": meta, "arrays": entries}).encode()
    pieces = [CHECKPOINT_MAGIC, len(header).to_bytes(4, "little"), header, *map(_byte_view, datas)]
    chunks = _split_chunks(pieces)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:

            def write_pieces():
                for piece in pieces:
                    fh.write(piece)

            fh.write(_container_digest(len(chunks), lambda i, _: _sha256(chunks[i]), write_pieces))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_exact(fh, view: memoryview, path) -> None:
    if fh.readinto(view) != len(view):
        raise CheckpointError(f"{path}: checkpoint file truncated while reading")


def _hash_range(fd: int, start: int, stop: int, buf: memoryview, path) -> bytes:
    """SHA-256 of the file's bytes ``[start, stop)``, read through ``buf``."""
    digest = hashlib.sha256()
    for pos in range(start, stop, len(buf)):
        view = buf[: stop - pos]
        if os.preadv(fd, [view], pos) != len(view):
            raise CheckpointError(f"{path}: checkpoint file truncated while reading")
        digest.update(view)
    return digest.digest()


def _verify_digest(fh, size: int, path) -> None:
    """Check the digest of a file of ``size`` bytes; each hashing thread reads
    its own chunks through one buffer of at most ``_READ_CHUNK`` bytes."""
    fd = fh.fileno()
    end = size - _DIGEST_SIZE
    buf_size = min(_READ_CHUNK, end)
    digest = _container_digest(
        -(-end // _HASH_CHUNK),
        lambda i, buf: _hash_range(fd, i * _HASH_CHUNK, min(end, (i + 1) * _HASH_CHUNK), buf, path),
        buf_size=buf_size)
    stored = os.pread(fd, _DIGEST_SIZE, end)
    if digest != stored:
        if _hash_range(fd, 0, end, memoryview(bytearray(buf_size)), path) == stored:
            _read_header(fh, size, path)  # an intact file of versions 1 to 3 fails here
        raise CheckpointError(f"{path}: checksum mismatch")


def _read_header(fh, size: int, path) -> tuple[dict, int]:
    """The JSON header of a current-version file and its length in bytes."""
    fh.seek(len(CHECKPOINT_MAGIC))
    hlen = int.from_bytes(fh.read(4), "little")
    if hlen > size - _PREAMBLE - _DIGEST_SIZE:
        raise CheckpointError(f"{path}: header length {hlen} exceeds the file")
    try:
        header = json.loads(fh.read(hlen).decode())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"{path}: unreadable checkpoint header") from exc
    version = header.get("version") if isinstance(header, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    return header, hlen


def _parse_entries(entries, payload_size: int, path) -> list[tuple[str, np.dtype, tuple, int]]:
    """Validate the header's array list against the payload before anything is
    allocated: (name, dtype, shape, byte count) per array."""
    parsed = []
    total = 0
    try:
        for entry in entries:
            name, shape = entry["name"], tuple(entry["shape"])
            if not isinstance(name, str) or not all(type(d) is int and d >= 0 for d in shape):
                raise ValueError(f"bad name or shape in {entry}")
            dtype = _checked_dtype(entry["dtype"])
            nbytes = math.prod(shape) * dtype.itemsize
            parsed.append((name, dtype, shape, nbytes))
            total += nbytes
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint header: {exc}") from exc
    if total != payload_size:
        raise CheckpointError(
            f"{path}: header gives {total} payload bytes, file holds {payload_size}")
    return parsed


def _check_destinations(entries, destinations: dict[str, np.ndarray], path) -> None:
    """Each destination names an array of the file, has its exact dtype and
    shape, and is C-contiguous, so the array's bytes can be read into it."""
    layout = {name: (dtype, shape) for name, dtype, shape, _ in entries}
    for name, arr in destinations.items():
        if name not in layout:
            raise CheckpointError(f"{path}: checkpoint holds no array {name}")
        dtype, shape = layout[name]
        if arr.dtype != dtype or arr.shape != shape or not arr.flags.c_contiguous:
            raise CheckpointError(
                f"{path}: array {name} mismatch: checkpoint holds {dtype.str} {list(shape)}, "
                f"destination is {'' if arr.flags.c_contiguous else 'non-contiguous '}"
                f"{arr.dtype.str} {list(arr.shape)}")


def read_checkpoint(path, prefix: str = "", into=None) -> tuple[dict, dict[str, np.ndarray]]:
    """Metadata and the arrays whose names start with ``prefix``.

    The digest is checked over the whole file, then the header is parsed and
    its sizes checked. Only then is ``into(meta)``, when given, asked for
    destinations ``{name: array}``: each must match its array's dtype and
    shape exactly and be C-contiguous, or :class:`CheckpointError` names it
    before any array is read. A destination gets its array's bytes read
    straight into it and is returned under its name; every other selected
    array is read into a fresh one, and arrays that are not selected are
    skipped without being read into memory."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _PREAMBLE + _DIGEST_SIZE or fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        _verify_digest(fh, size, path)
        header, hlen = _read_header(fh, size, path)
        entries = _parse_entries(header.get("arrays"), size - _PREAMBLE - hlen - _DIGEST_SIZE, path)
        meta = header.get("meta")
        destinations = into(meta) if into else {}
        _check_destinations(entries, destinations, path)
        arrays = {}
        for name, dtype, shape, nbytes in entries:
            arr = destinations.get(name)
            if arr is None and name.startswith(prefix):
                arr = np.empty(shape, dtype=dtype)
            if arr is None:
                fh.seek(nbytes, os.SEEK_CUR)
            else:
                _read_exact(fh, _byte_view(arr), path)
                arrays[name] = arr
    return meta, arrays


def load_net_arrays(net: DenseNet, prefix: str, arrays: dict[str, np.ndarray]) -> DenseNet:
    """Overwrite ``net``'s parameters with the array ``{prefix}.params``, a
    network's ``flat``, cast to the network's dtype."""
    net.flat[...] = arrays[f"{prefix}.params"].reshape(net.flat.shape)  # no broadcast
    return net
