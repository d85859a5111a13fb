import hashlib
import json
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from docknav.nn import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    AdamState,
    CheckpointError,
    DenseNet,
    GradientError,
    adam_step,
    load_net_arrays,
    net_grads_list,
    read_checkpoint,
    write_checkpoint,
)

from _oracles import finite_difference_grads, forward_oracle, relative_grad_error


def identity_net(n):
    net = DenseNet([n, n], ["identity"])
    net.weights[0][...] = np.eye(n)
    net.biases[0][...] = 0.0
    return net


def test_identity_layer_passthrough():
    net = identity_net(3)
    x = np.array([0.5, -1.0, 2.0])
    assert np.array_equal(net.forward(x), x)


def test_relu_layer():
    net = DenseNet([2, 2], ["relu"])
    net.weights[0][...] = np.eye(2)
    net.biases[0][...] = 0.0
    assert np.array_equal(net.forward(np.array([-1.0, 2.0])), [0.0, 2.0])


def test_forward_matches_independent_evaluator():
    rng = np.random.default_rng(0)
    net = DenseNet([4, 7, 5, 3], ["relu", "tanh", "identity"], rng=rng)
    for _ in range(20):
        x = rng.normal(size=4)
        assert np.max(np.abs(net.forward(x) - forward_oracle(net, x))) < 1e-12


def test_forward_batch_matches_single():
    rng = np.random.default_rng(1)
    net = DenseNet([3, 6, 2], ["relu", "identity"], rng=rng)
    xs = rng.normal(size=(5, 3))
    batch = net.forward(xs)
    for i in range(5):
        assert np.allclose(batch[i], net.forward(xs[i]), atol=1e-14)


def test_dimension_mismatch_raises():
    net = DenseNet([3, 2], ["identity"])
    with pytest.raises(ValueError):
        net.forward(np.zeros(4))
    with pytest.raises(ValueError):
        net.forward(np.array([1.0, np.nan, 0.0]))


def test_linear_net_squared_loss_closed_form():
    rng = np.random.default_rng(2)
    net = DenseNet([3, 2], ["identity"], rng=rng)
    x = rng.normal(size=3)
    y = rng.normal(size=2)
    out, tape = net.forward_tape(x)
    # loss = sum((Wx + b - y)^2), adjoint = 2 * residual
    residual = out - y
    grads = net.backward(tape, 2.0 * residual)
    assert np.allclose(grads.weights[0], np.outer(x, 2.0 * residual), atol=1e-14)
    assert np.allclose(grads.biases[0], 2.0 * residual, atol=1e-14)


def test_zero_adjoint_gives_zero_grads():
    rng = np.random.default_rng(3)
    net = DenseNet([3, 4, 2], ["tanh", "identity"], rng=rng)
    out, tape = net.forward_tape(rng.normal(size=3))
    grads = net.backward(tape, np.zeros(2))
    for g in net_grads_list(grads):
        assert np.all(g == 0.0)
    assert np.all(grads.wrt_input == 0.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    for acts in (["relu", "identity"], ["tanh", "sigmoid"], ["relu", "tanh"]):
        net = DenseNet([4, 6, 3], acts, rng=rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss_fn():
            out = net.forward(x)
            return float(0.5 * np.sum((out - target) ** 2))

        out, tape = net.forward_tape(x)
        grads = net.backward(tape, out - target)
        numeric = finite_difference_grads(net.parameters(), loss_fn)
        assert relative_grad_error(net_grads_list(grads), numeric) <= 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("skip_last", [False, True])
def test_backward_switches_skip_only_their_fields(dtype, skip_last):
    rng = np.random.default_rng(10)
    net = DenseNet([6, 32, 16, 2], ["relu", "tanh", "sigmoid"], rng=rng, dtype=dtype)
    for x in (rng.normal(size=(9, 6)), rng.normal(size=6)):  # batch and squeezed
        out, tape = net.forward_tape(x)
        adjoint = rng.normal(size=out.shape)
        full = net.backward(tape, adjoint, skip_last_activation=skip_last)
        no_params = net.backward(tape, adjoint, skip_last_activation=skip_last, params=False)
        no_input = net.backward(tape, adjoint, skip_last_activation=skip_last, wrt_input=False)
        assert no_params.flat is None
        assert no_params.weights is None and no_params.biases is None
        assert no_input.wrt_input is None
        assert no_params.wrt_input.dtype == full.wrt_input.dtype
        assert no_params.wrt_input.tobytes() == full.wrt_input.tobytes()
        for a, b in zip(net_grads_list(no_input), net_grads_list(full), strict=True):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    net = DenseNet([3, 5, 1], ["relu", "identity"], rng=rng)
    x = rng.normal(size=3)
    out, tape = net.forward_tape(x)
    grads = net.backward(tape, np.ones(1))
    h = 1e-6
    for i in range(3):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        num = (net.forward(xp)[0] - net.forward(xm)[0]) / (2 * h)
        assert abs(grads.wrt_input[i] - num) < 1e-6


# -- adam --------------------------------------------------------------------


def test_adam_zero_gradient_no_change():
    params = [np.array([1.0, -2.0]), np.array([[0.5]])]
    state = AdamState(params, lr=1e-3)
    before = [p.copy() for p in params]
    adam_step(params, [np.zeros(2), np.zeros((1, 1))], state)
    for p, b in zip(params, before):
        assert np.array_equal(p, b)


def test_adam_first_step_is_signed_lr():
    for g in (3.0, -0.25, 1e-4):
        params = [np.array([0.0])]
        state = AdamState(params, lr=1e-2)
        adam_step(params, [np.array([g])], state)
        # first bias-corrected step is -lr * g / (|g| + eps)
        expected = -1e-2 * np.sign(g) * abs(g) / (abs(g) + 1e-8)
        assert params[0][0] == pytest.approx(expected, rel=1e-9)


def test_adam_deterministic():
    rng = np.random.default_rng(6)
    grads = [rng.normal(size=4)]
    results = []
    for _ in range(2):
        params = [np.linspace(0, 1, 4)]
        state = AdamState(params, lr=1e-3)
        for _ in range(10):
            adam_step(params, grads, state)
        results.append(params[0].copy())
    assert np.array_equal(results[0], results[1])


def test_adam_rejects_non_finite_gradient():
    params = [np.array([1.0])]
    state = AdamState(params, lr=1e-3)
    with pytest.raises(GradientError):
        adam_step(params, [np.array([np.inf])], state)


def test_adam_matches_reference_sequence():
    # scalar reference implementation carried along independently
    params = [np.array([0.7])]
    state = AdamState(params, lr=0.05)
    m = v = 0.0
    x = 0.7
    for t in range(1, 8):
        g = 2 * x  # gradient of x^2
        adam_step(params, [np.array([g])], state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert params[0][0] == pytest.approx(x, abs=1e-12)
        # keep the reference and the unit under test in lockstep
        x = float(params[0][0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_flushes_subnormal_moments(dtype):
    tiny = np.finfo(dtype).tiny
    params = [np.array([0.5, -0.5, 0.25, 1.0], dtype=dtype)]
    state = AdamState(params, lr=1e-3)
    # with a zero gradient the moments decay by beta1 and beta2: the first
    # two entries fall below tiny, the last two stay normal
    state.m[0][:] = [tiny / 2, -tiny / 2, 2 * tiny, 0.5]
    state.v[0][:] = [tiny / 2, tiny / 2, 2 * tiny, 0.5]
    decayed_m = state.m[0] * dtype(0.9)
    decayed_v = state.v[0] * dtype(0.999)
    assert np.all(decayed_m[:2] != 0) and np.all(np.abs(decayed_m[:2]) < tiny)
    before = params[0].copy()
    adam_step(params, [np.zeros(4, dtype=dtype)], state)
    assert state.m[0].tobytes() == np.r_[0.0, 0.0, decayed_m[2:]].astype(dtype).tobytes()
    assert state.v[0].tobytes() == np.r_[0.0, 0.0, decayed_v[2:]].astype(dtype).tobytes()
    assert np.all(np.abs(state.m[0][2:]) >= tiny) and np.all(state.v[0][2:] >= tiny)
    assert params[0][:2].tobytes() == before[:2].tobytes()


# -- checkpoint container ------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    net = DenseNet([4, 8, 2], ["relu", "identity"], rng=rng)
    path = tmp_path / "net.ckpt"
    write_checkpoint(path, {"note": 1}, {"net.params": net.flat})
    meta, arrays = read_checkpoint(path)
    restored = load_net_arrays(DenseNet([4, 8, 2], ["relu", "identity"]), "net", arrays)
    for a, b in zip(net.parameters(), restored.parameters()):
        assert np.array_equal(a, b)
    assert meta["note"] == 1


def test_checkpoint_corruption_detected(tmp_path):
    net = DenseNet([2, 2], ["identity"], rng=np.random.default_rng(8))
    path = tmp_path / "net.ckpt"
    write_checkpoint(path, {}, {"net.params": net.flat})
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        read_checkpoint(path)


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all, far too short to be real" * 2)
    with pytest.raises(CheckpointError):
        read_checkpoint(path)
    path.write_bytes(b"xx")
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_checkpoint_float32_roundtrip_exact(tmp_path):
    # float32 arrays are stored in their own dtype and come back exact
    arr = np.random.default_rng(9).normal(size=17).astype(np.float32)
    path = tmp_path / "f32.ckpt"
    write_checkpoint(path, {}, {"a": arr})
    _, arrays = read_checkpoint(path)
    assert np.array_equal(arrays["a"].astype(np.float32), arr)


def test_checkpoint_roundtrip_keeps_dtype_and_shape(tmp_path):
    rng = np.random.default_rng(10)
    arrays = {
        "f4": rng.normal(size=(3, 5)).astype(np.float32),
        "f8": rng.normal(size=7),
        "bool": rng.random(9) < 0.5,
        "i4": rng.integers(-5, 5, size=(2, 2)).astype(np.int32),
        "scalar": np.array(2.5),
        "empty": np.zeros((0, 3), dtype=np.float32),
    }
    path = tmp_path / "dtypes.ckpt"
    write_checkpoint(path, {"k": "v"}, arrays)
    meta, back = read_checkpoint(path)
    assert meta == {"k": "v"}
    assert list(back) == list(arrays)
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype, name
        assert back[name].shape == arr.shape, name
        assert back[name].tobytes() == arr.tobytes(), name


def test_checkpoint_prefix_reads_only_matching_arrays(tmp_path):
    rng = np.random.default_rng(11)
    arrays = {"actor.W0": rng.normal(size=(3, 2)), "replay.obs": rng.normal(size=(50, 4)),
              "actor.b0": rng.normal(size=2)}
    path = tmp_path / "prefix.ckpt"
    write_checkpoint(path, {}, arrays)
    _, back = read_checkpoint(path, prefix="actor.")
    assert sorted(back) == ["actor.W0", "actor.b0"]
    for name in back:
        assert np.array_equal(back[name], arrays[name])
    # the digest still covers the skipped arrays
    blob = bytearray(path.read_bytes())
    blob[-32 - 2 * 8 - 100] ^= 0x01  # inside replay.obs
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        read_checkpoint(path, prefix="actor.")


CHUNK = 4 << 20  # bytes per separately hashed chunk of the version 4 digest


def _chunked_digest(body: bytes) -> bytes:
    """The version 4 digest, computed independently of the reader and writer."""
    return hashlib.sha256(b"".join(hashlib.sha256(body[i : i + CHUNK]).digest()
                                   for i in range(0, len(body), CHUNK))).digest()


def _body(header: dict, payload: bytes) -> bytes:
    text = json.dumps(header).encode()
    return CHECKPOINT_MAGIC + len(text).to_bytes(4, "little") + text + payload


def _container(header: dict, payload: bytes) -> bytes:
    """A hand-built checkpoint file with a valid version 4 digest."""
    body = _body(header, payload)
    return body + _chunked_digest(body)


def _legacy_container(header: dict, payload: bytes) -> bytes:
    """A hand-built file of versions 1 to 3, which ended in the plain SHA-256."""
    body = _body(header, payload)
    return body + hashlib.sha256(body).digest()


@pytest.mark.parametrize("version", [1, 2, 3])
def test_checkpoint_old_version_rejected(tmp_path, version):
    path = tmp_path / f"v{version}.ckpt"
    header = {"version": version, "meta": {}, "arrays": [{"name": "a", "shape": [3]}]}
    path.write_bytes(_legacy_container(header, np.arange(3, dtype="<f8").tobytes()))
    with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
        read_checkpoint(path)


@pytest.mark.parametrize("dtype", ["|O", "<U1", "<c8", "|V8", ">f8", "<M8[s]"])
def test_checkpoint_non_numeric_dtype_rejected(tmp_path, dtype):
    path = tmp_path / "dtype.ckpt"
    entry = {"name": "a", "dtype": dtype, "shape": [2]}
    path.write_bytes(_container({"version": CHECKPOINT_VERSION, "meta": {}, "arrays": [entry]},
                                bytes(2 * np.dtype(dtype).itemsize)))
    with pytest.raises(CheckpointError, match="unsupported checkpoint dtype"):
        read_checkpoint(path)


@pytest.mark.parametrize("arrays", [
    [{"name": "a", "dtype": "<f8", "shape": [1 << 22]}],  # claims 32 MiB, holds 8 bytes
    [{"name": "a", "dtype": "<f8", "shape": [1]}, {"name": "b", "dtype": "<f8", "shape": [1]}],
    [{"name": "a", "dtype": "<f8", "shape": [-1]}],
    [{"name": "a", "dtype": "<f8"}],
    None,
])
def test_checkpoint_header_inconsistent_with_payload_rejected_before_allocation(tmp_path, arrays):
    path = tmp_path / "sizes.ckpt"
    path.write_bytes(_container({"version": CHECKPOINT_VERSION, "meta": {}, "arrays": arrays},
                                bytes(8)))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="payload bytes|malformed checkpoint header"):
            read_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_checkpoint_write_of_object_array_raises_and_leaves_no_file(tmp_path):
    path = tmp_path / "obj.ckpt"
    with pytest.raises(TypeError, match="dtype"):
        write_checkpoint(path, {}, {"ok": np.zeros(3), "bad": np.array([None, 1], dtype=object)})
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_failed_write_removes_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "fail.ckpt"

    def refuse(src, dst):
        raise OSError("no space left")

    monkeypatch.setattr("docknav.nn.os.replace", refuse)
    with pytest.raises(OSError, match="no space"):
        write_checkpoint(path, {}, {"a": np.zeros(3)})
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_reads_into_destinations(tmp_path):
    rng = np.random.default_rng(12)
    arrays = {"a": rng.normal(size=(4, 3)), "b": rng.integers(0, 9, size=5).astype(np.int32),
              "c": rng.normal(size=2).astype(np.float32)}
    path = tmp_path / "into.ckpt"
    write_checkpoint(path, {"k": 1}, arrays)
    rows = np.zeros((6, 3))
    seen = []

    def into(meta):
        seen.append(meta)
        return {"a": rows[:4], "b": np.zeros(5, dtype=np.int32)}

    meta, back = read_checkpoint(path, into=into)
    assert seen == [meta] == [{"k": 1}]
    assert back["a"].base is rows  # read in place, not copied
    assert rows[:4].tobytes() == arrays["a"].tobytes() and not rows[4:].any()
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype and back[name].tobytes() == arr.tobytes(), name
    # destinations are only asked for once the digest has been checked
    blob = bytearray(path.read_bytes())
    blob[-40] ^= 0x01
    path.write_bytes(bytes(blob))
    seen.clear()
    with pytest.raises(CheckpointError, match="checksum"):
        read_checkpoint(path, into=into)
    assert seen == []


@pytest.mark.parametrize("destination, problem", [
    (np.zeros((4, 3), dtype=np.float32), "<f4"),
    (np.zeros((3, 3)), r"\[3, 3\]"),
    (np.zeros((3, 4)).T, "non-contiguous"),
], ids=["dtype", "shape", "layout"])
def test_checkpoint_rejects_mismatched_destination(tmp_path, destination, problem):
    path = tmp_path / "bad_into.ckpt"
    write_checkpoint(path, {}, {"a": np.ones((4, 3)), "b": np.ones(2)})
    b = np.zeros(2)
    with pytest.raises(CheckpointError, match=rf"array a mismatch.*{problem}"):
        read_checkpoint(path, into=lambda meta: {"b": b, "a": destination})
    assert not b.any()  # nothing is read before every destination is checked
    with pytest.raises(CheckpointError, match="no array z"):
        read_checkpoint(path, into=lambda meta: {"z": np.zeros(2)})


# -- version 4 digest: 4 MiB chunks hashed on a pool of threads -------------------


def _roundtrip_and_digest(path, meta, arrays):
    """Write, check the trailing digest against an independent computation, read
    back and compare bitwise; the file's bytes."""
    write_checkpoint(path, meta, arrays)
    blob = path.read_bytes()
    assert blob[-32:] == _chunked_digest(blob[:-32])
    back_meta, back = read_checkpoint(path)
    assert back_meta == meta and list(back) == list(arrays)
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype and back[name].tobytes() == arr.tobytes(), name
    return blob


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["before", "on", "after"])
def test_checkpoint_payload_ending_at_a_chunk_boundary(tmp_path, offset):
    path = tmp_path / "edge.ckpt"
    write_checkpoint(path, {}, {"a": np.zeros(2 * CHUNK, dtype=np.uint8)})
    hlen = int.from_bytes(path.read_bytes()[4:8], "little")  # same digit count below
    data = np.random.default_rng(13).integers(0, 256, 2 * CHUNK - 8 - hlen + offset, np.uint8)
    blob = _roundtrip_and_digest(path, {}, {"a": data})
    assert len(blob) - 32 == 2 * CHUNK + offset


def test_checkpoint_header_crossing_a_chunk_boundary(tmp_path):
    meta = {"note": "x" * (CHUNK + 100)}
    arrays = {"a": np.arange(5.0), "b": np.arange(3, dtype=np.int32)}
    blob = _roundtrip_and_digest(tmp_path / "long_header.ckpt", meta, arrays)
    assert int.from_bytes(blob[4:8], "little") > CHUNK


def test_checkpoint_empty_payload(tmp_path):
    _roundtrip_and_digest(tmp_path / "none.ckpt", {"k": 1}, {})
    _roundtrip_and_digest(tmp_path / "empty.ckpt", {}, {"e": np.zeros((0, 3))})


def _three_chunk_file(path) -> bytes:
    data = np.random.default_rng(14).integers(0, 256, 2 * CHUNK + 1000, np.uint8)
    write_checkpoint(path, {"k": 1}, {"a": data})
    return path.read_bytes()


@pytest.mark.parametrize("where", ["first", "middle", "last", "version"])
def test_checkpoint_flip_in_any_chunk_fails_before_parsing(tmp_path, where):
    path = tmp_path / "flip.ckpt"
    blob = bytearray(_three_chunk_file(path))
    assert -(-(len(blob) - 32) // CHUNK) == 3
    at = {"first": CHUNK // 2, "middle": CHUNK + CHUNK // 2, "last": len(blob) - 33,
          "version": blob.index(b'"version": 4') + len(b'"version": ')}[where]
    blob[at] ^= 0x01  # the version flip turns "4" into "5"
    path.write_bytes(bytes(blob))
    seen = []
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        read_checkpoint(path, into=lambda meta: seen.append(meta) or {})
    assert seen == []


def test_checkpoint_truncated_multi_chunk_file_rejected(tmp_path, monkeypatch):
    path = tmp_path / "cut.ckpt"
    blob = _three_chunk_file(path)
    for size in (len(blob) - 1, len(blob) - 32, CHUNK + 5, 100):
        path.write_bytes(blob[:size])
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            read_checkpoint(path)
    # a file that shrinks once its size is known: a hashing thread's read
    # comes up short, and the error is raised in the calling thread
    path.write_bytes(blob[: CHUNK + 5])
    real_fstat = os.fstat
    monkeypatch.setattr("docknav.nn.os.fstat",
                        lambda fd: os.stat_result((*real_fstat(fd)[:6], len(blob), *real_fstat(fd)[7:])))
    with pytest.raises(CheckpointError, match="file truncated while reading"):
        read_checkpoint(path)


def test_checkpoint_read_error_in_a_hashing_thread_is_raised_in_the_caller(tmp_path, monkeypatch):
    path = tmp_path / "eio.ckpt"
    _three_chunk_file(path)
    real_preadv = os.preadv

    def failing_in_threads(fd, buffers, offset):
        if threading.current_thread() is not threading.main_thread():
            raise OSError("input/output error")
        return real_preadv(fd, buffers, offset)

    monkeypatch.setattr("docknav.nn.os.preadv", failing_in_threads)
    with pytest.raises(OSError, match="input/output error"):
        read_checkpoint(path)


def test_checkpoint_bytes_do_not_depend_on_thread_count(tmp_path, monkeypatch):
    # six chunks; four threads on this host's cores, switched between often,
    # so a chunk lost or hashed twice would change the digest
    arrays = {"a": np.random.default_rng(15).normal(size=(5 * CHUNK // 8 + 7,)),
              "b": np.arange(9, dtype=np.int32)}
    blobs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 4):
            monkeypatch.setattr("os.sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            path = tmp_path / f"cpus{cpus}.ckpt"
            blobs.append(_roundtrip_and_digest(path, {"k": 1}, arrays))
    finally:
        sys.setswitchinterval(interval)
    assert -(-(len(blobs[0]) - 32) // CHUNK) == 6
    assert blobs[0] == blobs[1]


def test_checkpoint_of_one_chunk_starts_no_thread(tmp_path, monkeypatch):
    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self.name) or real_start(self))
    _roundtrip_and_digest(tmp_path / "small.ckpt", {}, {"a": np.arange(CHUNK // 8 - 100.0)})
    assert started == []
    _three_chunk_file(tmp_path / "big.ckpt")
    read_checkpoint(tmp_path / "big.ckpt")
    assert len(started) == 2 * min(len(os.sched_getaffinity(0)), 3)


def _hashing_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("checkpoint-hash")]


def test_checkpoint_failed_multi_chunk_write_stops_its_hashing_threads(tmp_path, monkeypatch):
    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self.name) or real_start(self))

    class FullDisk:
        """A file that takes the first chunk of a long write, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if len(data) > CHUNK:
                self.fh.write(data[:CHUNK])
                raise OSError("no space left on device")
            return self.fh.write(data)

    monkeypatch.setattr("docknav.nn.open", lambda path, mode: FullDisk(open(path, mode)),
                        raising=False)
    with pytest.raises(OSError, match="no space left on device"):
        _three_chunk_file(tmp_path / "full.ckpt")
    assert list(tmp_path.iterdir()) == []
    assert started and all(name.startswith("checkpoint-hash") for name in started)
    assert _hashing_threads() == []


def test_checkpoint_multi_chunk_round_trip_leaves_no_hashing_thread(tmp_path):
    _three_chunk_file(tmp_path / "big.ckpt")
    assert _hashing_threads() == []
    read_checkpoint(tmp_path / "big.ckpt")
    assert _hashing_threads() == []
