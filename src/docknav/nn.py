"""Minimal dense-network numerics: forward evaluation, tape-based reverse-mode
gradients, Adam updates, and versioned checkpoint serialization.

Fixed-topology MLPs are all this system needs (actor, critics, success
predictor), so there is no general autodiff graph - a recorded forward tape
keeps the backward pass simple and finite-difference checkable.

Each network keeps its parameters, and returns its parameter gradients, in
one flat array whose layout only :class:`DenseNet` knows, so optimizers,
target copies and checkpoints handle one array per network.

Training works in arrays kept from one call to the next: batch-sized
temporaries made and freed on every update had the allocator hand their pages
back and fault them in again. A network keeps, per number of rows, the arrays
of its tape and of its backward pass, and :class:`AdamState` keeps the scratch
of its update. The contract: a :class:`Tape` and a ``Gradients.wrt_input``
are valid until that network's next taped or backward pass over the same
number of rows. What a caller keeps is fresh: ``forward`` outputs and
``Gradients.flat`` are new arrays on every call, and no two networks (a
:meth:`DenseNet.copy` included) share a kept array.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("identity", "relu", "sigmoid")

CHECKPOINT_MAGIC = b"DNCK"
CHECKPOINT_VERSION = 6


class GradientError(RuntimeError):
    """Non-finite gradients; training must abort loudly rather than drift."""


class CheckpointError(RuntimeError):
    """Unreadable, corrupted, or version-incompatible checkpoint file."""


def _apply_activation(kind: str, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The activation of ``z``, written into ``out`` (which may be ``z``);
    identity returns ``z`` itself."""
    if kind == "identity":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "sigmoid":  # 1 / (1 + exp(-z))
        np.negative(z, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)
    raise ValueError(f"unknown activation {kind!r}")


def _backprop_activation(kind: str, g: np.ndarray, z: np.ndarray, y: np.ndarray,
                         out=None, mask=None) -> np.ndarray:
    """Adjoint ``g`` times the derivative of the activation at pre-activation
    ``z`` and output ``y``, written into ``out`` (which may be ``g``; a new
    array when None). ``mask`` is boolean scratch of ``z``'s shape for relu;
    sigmoid takes a temporary. Identity returns ``g``."""
    if kind == "identity":
        return g
    if kind == "relu":
        return np.multiply(g, np.greater(z, 0.0, out=mask), out=out)
    if kind == "sigmoid":
        return np.multiply(g, y * (1.0 - y), out=out)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class Tape:
    """Per-layer inputs, pre-activations, and outputs of one forward pass
    over a 2-D batch. Every array but the first input is the network's own,
    valid until its next taped or backward pass over as many rows."""

    inputs: list
    pre: list
    outputs: list


@dataclass
class Gradients:
    """Result of :meth:`DenseNet.backward`: ``flat`` holds the parameter
    gradients in the network's ``flat`` layout (``DenseNet._views`` splits it
    per layer), a new array on every call; ``wrt_input`` the gradient of the
    input batch, an array the network keeps (valid until its next taped or
    backward pass over as many rows). A field is ``None`` when the pass was
    told to skip it: ``flat`` with ``params=False``, ``wrt_input`` with
    ``wrt_input=False``."""

    flat: np.ndarray | None
    wrt_input: np.ndarray | None


class _Buffers:
    """The arrays a network reuses in every taped forward and backward pass
    over one number of rows, per layer: the pre-activation, the output (the
    pre-activation itself for an identity layer), boolean scratch of their
    shape, and the gradient of the layer's input, which the backward pass
    also carries through the activation below it."""

    def __init__(self, net: "DenseNet", rows: int):
        self.pre = [np.empty((rows, n), net.dtype) for n in net.layer_sizes[1:]]
        self.outputs = [z if act == "identity" else np.empty_like(z)
                        for z, act in zip(self.pre, net.activations)]
        self.mask = [np.empty(z.shape, bool) for z in self.pre]
        self.d_input = [np.empty((rows, n), net.dtype) for n in net.layer_sizes[:-1]]


class DenseNet:
    """Fully-connected network; weights are (n_in, n_out) so batched inputs
    multiply as ``x @ W + b``. Inputs are 2-D batches ``(rows, in_dim)``; one
    observation is a batch of one row. Evaluation never mutates parameters.
    ``flat`` holds every parameter, laid out ``W0, b0, W1, b1, ...``, and
    ``weights[l]`` and ``biases[l]`` are views into it. ``rng`` draws the
    initial parameters; it has no unseeded default. Taped and backward passes
    work in :class:`_Buffers` made on the first pass over each row count."""

    def __init__(self, layer_sizes, activations, rng, dtype=np.float64):
        if len(activations) != len(layer_sizes) - 1:
            raise ValueError("need one activation per non-input layer")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        self.activations = tuple(activations)
        self.dtype = np.dtype(dtype)
        sizes = zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        self.flat = np.empty(sum((n_in + 1) * n_out for n_in, n_out in sizes), self.dtype)
        self.weights, self.biases = self._views(self.flat)
        self._buffers: dict[int, _Buffers] = {}
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

    def _buffers_for(self, rows: int) -> _Buffers:
        buffers = self._buffers.get(rows)
        if buffers is None:
            buffers = self._buffers[rows] = _Buffers(self, rows)
        return buffers

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected input of width {self.in_dim}, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite network input")
        return x

    def forward(self, x) -> np.ndarray:
        """The network's output for batch ``x``, a new array."""
        x = self._check_input(x)
        for W, b, act in zip(self.weights, self.biases, self.activations):
            z = x @ W
            z += b
            x = _apply_activation(act, z, out=z)
        return x

    def forward_tape(self, x) -> tuple[np.ndarray, Tape]:
        """The output for batch ``x`` and the tape :meth:`backward` reads. The
        output and every tape array but the input ``x`` are the network's
        own, valid until its next taped or backward pass over ``len(x)`` rows."""
        x = self._check_input(x)
        buffers = self._buffers_for(len(x))
        inputs = [x, *buffers.outputs[:-1]]
        for W, b, act, z, out in zip(self.weights, self.biases, self.activations,
                                     buffers.pre, buffers.outputs):
            np.matmul(x, W, out=z)
            z += b
            x = _apply_activation(act, z, out=out)
        return x, Tape(inputs, buffers.pre, buffers.outputs)

    def backward(self, tape: Tape, out_adjoint, skip_last_activation: bool = False,
                 params: bool = True, wrt_input: bool = True) -> Gradients:
        """Reverse pass for a recorded forward. ``out_adjoint`` is dLoss/dOutput
        (or dLoss/dLogit with ``skip_last_activation``, which folds losses like
        sigmoid+BCE into a numerically safe form).

        ``params=False`` skips the weight and bias gradients and
        ``wrt_input=False`` the input gradient; a skipped field comes back as
        ``None``. The gradients that are computed are the same bits either way.
        The parameter gradients are a new array; the input gradient is the
        network's own, valid until its next taped or backward pass over as
        many rows. The tape stays valid.
        """
        g = np.asarray(out_adjoint, dtype=self.dtype)
        buffers = self._buffers_for(len(g))
        d_flat = np.empty_like(self.flat) if params else None
        d_weights, d_biases = self._views(d_flat) if params else (None, None)
        last = len(self.weights) - 1
        for l in range(last, -1, -1):
            if not (l == last and skip_last_activation):
                # below the top layer g is this network's own array: overwrite it
                g = _backprop_activation(self.activations[l], g, tape.pre[l], tape.outputs[l],
                                         out=None if l == last else g, mask=buffers.mask[l])
            if params:
                np.matmul(tape.inputs[l].T, g, out=d_weights[l])
                g.sum(axis=0, out=d_biases[l])
            if l or wrt_input:  # at layer 0 this product is the input gradient
                g = np.matmul(g, self.weights[l].T, out=buffers.d_input[l])
        return Gradients(d_flat, g if wrt_input else None)

    # -- parameter plumbing -------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        return [self.flat]

    def copy(self) -> "DenseNet":
        """A network with a copy of the parameters and no buffers of its own yet."""
        clone = DenseNet.__new__(DenseNet)
        clone.layer_sizes = self.layer_sizes
        clone.activations = self.activations
        clone.dtype = self.dtype
        clone.flat = self.flat.copy()
        clone.weights, clone.biases = clone._views(clone.flat)
        clone._buffers = {}
        return clone


class AdamState:
    """Bias-corrected Adam accumulators for a list of parameter arrays, and
    per array the scratch :func:`adam_step` works in: two arrays of its shape
    and dtype."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr: float):
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]


def adam_step(params, grads, state: AdamState):
    """One in-place Adam update; raises :class:`GradientError` on non-finite
    gradients so a diverging run dies instead of silently corrupting weights.
    Each gradient has its parameter's shape and dtype; the arithmetic runs in
    the state's scratch and allocates nothing the size of a parameter."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("params/grads/state length mismatch")
    for p, g, (finite, _) in zip(params, grads, state._scratch):
        if g.shape != p.shape or g.dtype != p.dtype:
            raise ValueError(f"gradient {g.dtype} {g.shape} for a parameter {p.dtype} {p.shape}")
        if not np.isfinite(g, out=finite).all():  # 1.0 where finite, else 0.0
            raise GradientError("non-finite gradient in adam_step")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for p, g, m, v, (step, denom) in zip(params, grads, state.m, state.v, state._scratch):
        m *= state.beta1
        m += np.multiply(1.0 - state.beta1, g, out=step)
        v *= state.beta2
        np.multiply(1.0 - state.beta2, g, out=step)
        v += np.multiply(step, g, out=step)
        # Moments of a gradient gone to zero decay into the subnormal range,
        # where arithmetic is many times slower; flush them to zero. Adding
        # 0.0 turns the -0.0 of a flushed negative moment into +0.0. The
        # comparisons write 1.0 and 0.0, which multiply as True and False do.
        tiny = np.finfo(m.dtype).tiny
        m *= np.greater_equal(np.abs(m, out=step), tiny, out=step)
        m += 0.0
        v *= np.greater_equal(v, tiny, out=step)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=step)
        step *= state.lr
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        p -= np.divide(step, denom, out=step)
    return params


def net_grads_list(g: Gradients) -> list[np.ndarray]:
    """The gradients in the order of :meth:`DenseNet.parameters`."""
    return [g.flat]


# -- checkpoint container ------------------------------------------------
#
# Layout (format version 6): a preamble of the magic and two little-endian
# uint32s, the format version and the header length; the JSON header (user
# metadata and, per array, its name, dtype and shape); each array's raw
# little-endian bytes in its own dtype in header order; then a 32-byte
# digest: the SHA-256 of the concatenated SHA-256 digests of consecutive
# 4 MiB chunks of everything before it (the last may be shorter). Another
# version is rejected before anything is hashed (files of versions 1 to 5
# hold their header length there). Chunks are hashed on the standard
# library's thread pool, one thread per usable CPU, each chunk read through a
# buffer of its own; a file of one chunk is hashed in the calling thread. On 2 cores
# a 73 MB checkpoint (a full 2^15 replay) saves in 0.04 s and restores,
# verified, in 0.07 s. Arrays are streamed to and from the file, and a reader
# that already holds an array of the right dtype and shape has its bytes
# read straight into it, so a restore costs no second copy of the state.

_DIGEST_SIZE = 32
_HASH_CHUNK = 4 << 20  # bytes per separately hashed chunk
_READ_CHUNK = 256 << 10  # the read buffer of one hashed chunk; 1 MiB ones raised peak RSS
_PREAMBLE = len(CHECKPOINT_MAGIC) + 8  # magic, version, header length


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


def _container_digest(n_chunks: int, chunk_digest, meanwhile=lambda: None) -> bytes:
    """SHA-256 of the SHA-256 digests of chunks 0 to ``n_chunks - 1`` in order,
    chunk ``i`` hashed by ``chunk_digest(i)``.

    More than one chunk is hashed on a ``ThreadPoolExecutor`` of one thread per
    usable CPU while the calling thread runs ``meanwhile()``; one chunk is
    hashed in the calling thread after it, and no thread is started. The
    digest is the same for every thread count. An exception in a hashing
    thread is raised in the calling thread; one in ``meanwhile()`` cancels the
    chunks not yet started. Either way every hashing thread has ended."""
    if n_chunks == 1:
        meanwhile()
        return hashlib.sha256(chunk_digest(0)).digest()
    # imported here: at module level it raised the peak RSS of a grid
    # evaluation, which hashes no multi-chunk file, by about 0.6 MB
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(len(os.sched_getaffinity(0)), n_chunks), "checkpoint-hash") as pool:
        digests = pool.map(chunk_digest, range(n_chunks))
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
    header = json.dumps({"meta": meta, "arrays": entries}).encode()
    pieces = [CHECKPOINT_MAGIC, CHECKPOINT_VERSION.to_bytes(4, "little"),
              len(header).to_bytes(4, "little"), header, *map(_byte_view, datas)]
    chunks = _split_chunks(pieces)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:

            def write_pieces():
                for piece in pieces:
                    fh.write(piece)

            fh.write(_container_digest(len(chunks), lambda i: _sha256(chunks[i]), write_pieces))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_exact(fh, view: memoryview, path) -> None:
    if fh.readinto(view) != len(view):
        raise CheckpointError(f"{path}: checkpoint file truncated while reading")


def _hash_range(fd: int, start: int, stop: int, path) -> bytes:
    """SHA-256 of the file's bytes ``[start, stop)``, read through a buffer of
    at most ``_READ_CHUNK`` bytes."""
    buf = memoryview(bytearray(min(_READ_CHUNK, stop - start)))
    digest = hashlib.sha256()
    for pos in range(start, stop, len(buf)):
        view = buf[: stop - pos]
        if os.preadv(fd, [view], pos) != len(view):
            raise CheckpointError(f"{path}: checkpoint file truncated while reading")
        digest.update(view)
    return digest.digest()


def _verify_digest(fd: int, size: int, path) -> None:
    """Check the digest of a file of ``size`` bytes."""
    end = size - _DIGEST_SIZE
    digest = _container_digest(
        -(-end // _HASH_CHUNK),
        lambda i: _hash_range(fd, i * _HASH_CHUNK, min(end, (i + 1) * _HASH_CHUNK), path))
    if digest != os.pread(fd, _DIGEST_SIZE, end):
        raise CheckpointError(f"{path}: checksum mismatch")


def _read_header(fh, size: int, path) -> tuple[dict, int]:
    """The JSON header that follows the preamble, and its length in bytes."""
    hlen = int.from_bytes(fh.read(4), "little")
    if hlen > size - _PREAMBLE - _DIGEST_SIZE:
        raise CheckpointError(f"{path}: header length {hlen} exceeds the file")
    try:
        header = json.loads(fh.read(hlen).decode())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"{path}: unreadable checkpoint header") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: malformed checkpoint header: not an object")
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

    A file of another format version is rejected before anything is hashed.
    Then the digest is checked over the whole file, and the header is parsed
    and its sizes checked. Only then is ``into(meta)``, when given, asked for
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
        version = int.from_bytes(fh.read(4), "little")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        _verify_digest(fh.fileno(), size, path)
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
