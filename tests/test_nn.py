import hashlib
import json
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
    net_to_arrays,
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


# -- checkpoint container ------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    net = DenseNet([4, 8, 2], ["relu", "identity"], rng=rng)
    path = tmp_path / "net.ckpt"
    write_checkpoint(path, {"note": 1}, net_to_arrays("net", net))
    meta, arrays = read_checkpoint(path)
    restored = load_net_arrays(DenseNet([4, 8, 2], ["relu", "identity"]), "net", arrays)
    for a, b in zip(net.parameters(), restored.parameters()):
        assert np.array_equal(a, b)
    assert meta["note"] == 1


def test_checkpoint_corruption_detected(tmp_path):
    net = DenseNet([2, 2], ["identity"], rng=np.random.default_rng(8))
    path = tmp_path / "net.ckpt"
    write_checkpoint(path, {}, net_to_arrays("net", net))
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


def _container(header: dict, payload: bytes) -> bytes:
    """A hand-built checkpoint file with a valid digest."""
    text = json.dumps(header).encode()
    body = CHECKPOINT_MAGIC + len(text).to_bytes(4, "little") + text + payload
    return body + hashlib.sha256(body).digest()


def test_checkpoint_version_1_rejected(tmp_path):
    path = tmp_path / "v1.ckpt"
    path.write_bytes(_container({"version": 1, "meta": {}, "arrays": [{"name": "a", "shape": [3]}]},
                                np.arange(3, dtype="<f8").tobytes()))
    with pytest.raises(CheckpointError, match="version 1"):
        read_checkpoint(path)


@pytest.mark.parametrize("dtype", ["|O", "<U1", "<c8", "|V8", ">f8", "<M8[s]"])
def test_checkpoint_non_numeric_dtype_rejected(tmp_path, dtype):
    path = tmp_path / "dtype.ckpt"
    entry = {"name": "a", "dtype": dtype, "shape": [2]}
    path.write_bytes(_container({"version": CHECKPOINT_VERSION, "meta": {}, "arrays": [entry]},
                                bytes(2 * np.dtype(dtype).itemsize)))
    with pytest.raises(CheckpointError, match="dtype"):
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
        with pytest.raises(CheckpointError, match="payload|header"):
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
