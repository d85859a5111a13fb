import math
import os
import shutil
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from docknav.config import RunConfig
from docknav.nn import GradientError, net_grads_list
from docknav.sac import (
    Actor,
    CriticPair,
    SacLearner,
    actor_loss_and_grads,
    alpha_loss_and_grad,
    critic_losses,
    td_target,
)

from _oracles import finite_difference_grads, relative_grad_error, sac_update_reference

OBS_DIM, ACT_DIM = 5, 2


def make_actor(rng=None, hidden=(8,)):
    return Actor(OBS_DIM, ACT_DIM, hidden, rng or np.random.default_rng(0))


def make_critics(rng=None, hidden=(8,)):
    return CriticPair(OBS_DIM, ACT_DIM, hidden, rng or np.random.default_rng(1))


def zero_actor(log_std_bias=0.0):
    actor = make_actor()
    for W, b in zip(actor.net.weights, actor.net.biases):
        W[...] = 0.0
        b[...] = 0.0
    actor.net.biases[-1][ACT_DIM:] = log_std_bias
    return actor


def constant_critics(value):
    critics = make_critics()
    for net in (critics.q1, critics.q2, critics.target_q1, critics.target_q2):
        for W, b in zip(net.weights, net.biases):
            W[...] = 0.0
            b[...] = 0.0
        net.biases[-1][...] = value
    return critics


# -- squashed-gaussian policy -------------------------------------------------


def test_log_prob_standard_normal_at_zero():
    actor = zero_actor()  # mu = 0, log_std = 0
    a, logp = actor.act(np.zeros(OBS_DIM), mode="mean")  # u = mu = 0
    per_dim = -0.5 * math.log(2 * math.pi) - math.log(1 + 1e-6)
    assert np.array_equal(a, np.zeros(ACT_DIM))
    assert logp == pytest.approx(ACT_DIM * per_dim, abs=1e-12)
    assert per_dim == pytest.approx(-0.918939 - math.log(1 + 1e-6), abs=1e-6)


def test_mean_mode_deterministic():
    actor = make_actor()
    obs = np.random.default_rng(2).normal(size=OBS_DIM)
    a1, lp1 = actor.act(obs, mode="mean")
    a2, lp2 = actor.act(obs, mode="mean")
    assert np.array_equal(a1, a2) and lp1 == lp2


def test_sampled_actions_strictly_inside_box():
    actor = make_actor()
    rng = np.random.default_rng(3)
    obs = np.repeat(rng.normal(size=OBS_DIM)[None, :], 10000, axis=0)
    acts, logp = actor.sample_with_noise(obs, rng.standard_normal((10000, ACT_DIM)))
    assert np.all(np.abs(acts) < 1.0)
    assert np.all(np.isfinite(logp))


def test_log_prob_finite_under_saturation():
    actor = zero_actor()
    actor.net.biases[-1][:ACT_DIM] = 50.0  # mean far outside: tanh saturates
    _, logp = actor.act(np.zeros(OBS_DIM), mode="mean")
    assert math.isfinite(logp)


def test_density_integrates_to_one():
    # uniform Monte-Carlo estimate of the integral of exp(log_prob) over the
    # action box, for a few random (mu, sigma)
    rng = np.random.default_rng(4)
    for _ in range(3):
        mu = rng.uniform(-0.8, 0.8, size=ACT_DIM)
        log_std = rng.uniform(-0.7, 0.4, size=ACT_DIM)
        actor = zero_actor()
        actor.net.biases[-1][:ACT_DIM] = mu
        actor.net.biases[-1][ACT_DIM:] = log_std
        n = 1_000_000
        a = rng.uniform(-1.0, 1.0, size=(n, ACT_DIM))
        u = np.arctanh(a)
        sigma = np.exp(log_std)
        log_gauss = (-0.5 * math.log(2 * math.pi) - log_std
                     - 0.5 * ((u - mu) / sigma) ** 2).sum(axis=1)
        logp = log_gauss - np.log(1 - a**2 + 1e-6).sum(axis=1)
        volume = 2.0**ACT_DIM
        integral = float(np.exp(logp).mean()) * volume
        assert integral == pytest.approx(1.0, rel=0.01)


# -- td target ----------------------------------------------------------------


def test_td_target_terminal_is_reward():
    actor = make_actor()
    critics = constant_critics(123.0)
    targets = td_target(np.array([10.0]), np.array([True]), np.zeros((1, OBS_DIM)),
                        actor, critics, alpha=0.2, gamma=0.999,
                        rng=np.random.default_rng(0))
    assert targets[0] == 10.0


def test_td_target_arithmetic():
    actor = zero_actor()
    critics = constant_critics(5.0)
    targets = td_target(np.array([-0.1]), np.array([False]), np.zeros((1, OBS_DIM)),
                        actor, critics, alpha=0.0, gamma=0.999,
                        rng=np.random.default_rng(0))
    assert targets[0] == pytest.approx(-0.1 + 0.999 * 5.0, abs=1e-12)


def test_td_target_alpha_zero_is_double_q():
    actor = make_actor()
    critics = make_critics()
    rng_state = np.random.default_rng(5)
    obs = rng_state.normal(size=(4, OBS_DIM))
    rewards = rng_state.normal(size=4)
    targets = td_target(rewards, np.zeros(4, dtype=bool), obs, actor, critics,
                        alpha=0.0, gamma=0.9, rng=np.random.default_rng(7))
    # replay the same noise to recover the sampled next action
    noise = np.random.default_rng(7).standard_normal((4, ACT_DIM))
    next_a, _ = actor.sample_with_noise(obs, noise)
    expected = rewards + 0.9 * critics.min_target_q(obs, next_a)
    assert np.allclose(targets, expected, atol=1e-12)


# -- critic loss ----------------------------------------------------------------


def test_critic_loss_zero_at_fit():
    critics = constant_critics(0.0)
    obs = np.zeros((3, OBS_DIM))
    act = np.zeros((3, ACT_DIM))
    loss, g1, g2, td = critic_losses(critics, obs, act, np.zeros(3), np.ones(3))
    assert loss == 0.0
    assert np.all(td == 0.0)
    for g in net_grads_list(g1) + net_grads_list(g2):
        assert np.all(g == 0.0)


def test_critic_loss_single_sample_arithmetic():
    critics = constant_critics(1.0)
    loss, _, _, td = critic_losses(critics, np.zeros((1, OBS_DIM)), np.zeros((1, ACT_DIM)),
                                   np.array([3.0]), np.array([1.0]))
    # 0.5 * (1 - 3)^2 = 2 per critic, summed over the twin pair
    assert loss == pytest.approx(4.0, abs=1e-12)
    assert td[0] == pytest.approx(2.0, abs=1e-12)


def test_critic_loss_gradient_check():
    rng = np.random.default_rng(8)
    critics = make_critics(rng)
    obs = rng.normal(size=(6, OBS_DIM))
    act = rng.uniform(-1, 1, size=(6, ACT_DIM))
    targets = rng.normal(size=6)
    weights = rng.uniform(0.2, 1.0, size=6)

    _, g1, g2, _ = critic_losses(critics, obs, act, targets, weights)

    def loss_fn():
        x = np.concatenate([obs, act], axis=1)
        e1 = critics.q1.forward(x)[:, 0] - targets
        e2 = critics.q2.forward(x)[:, 0] - targets
        return float(np.mean(weights * 0.5 * e1**2) + np.mean(weights * 0.5 * e2**2))

    num1 = finite_difference_grads(critics.q1.parameters(), loss_fn)
    num2 = finite_difference_grads(critics.q2.parameters(), loss_fn)
    assert relative_grad_error(net_grads_list(g1), num1) <= 1e-4
    assert relative_grad_error(net_grads_list(g2), num2) <= 1e-4


# -- actor loss -------------------------------------------------------------------


def test_actor_loss_no_signal_when_alpha_zero_and_flat_q():
    critics = constant_critics(2.0)
    actor = make_actor()
    rng = np.random.default_rng(9)
    obs = rng.normal(size=(4, OBS_DIM))
    noise = rng.standard_normal((4, ACT_DIM))
    _, grads, _ = actor_loss_and_grads(actor, critics, obs, noise, alpha=0.0)
    for g in net_grads_list(grads):
        assert np.max(np.abs(g)) < 1e-12


def test_actor_loss_gradient_check_fixed_noise():
    rng = np.random.default_rng(10)
    actor = make_actor(rng)
    critics = make_critics(rng)
    obs = rng.normal(size=(5, OBS_DIM))
    noise = rng.standard_normal((5, ACT_DIM))
    alpha = 0.37

    loss, grads, _ = actor_loss_and_grads(actor, critics, obs, noise, alpha)

    def loss_fn():
        l, _, _ = actor_loss_and_grads(actor, critics, obs, noise, alpha)
        return l

    assert loss == pytest.approx(loss_fn())
    numeric = finite_difference_grads(actor.net.parameters(), loss_fn)
    assert relative_grad_error(net_grads_list(grads), numeric) <= 1e-4


def test_actor_loss_increases_with_alpha_when_logp_positive():
    actor = zero_actor(log_std_bias=-2.5)  # tight policy: log pi > 0
    critics = constant_critics(0.0)
    rng = np.random.default_rng(11)
    obs = rng.normal(size=(8, OBS_DIM))
    noise = rng.standard_normal((8, ACT_DIM))
    l_small, _, logp = actor_loss_and_grads(actor, critics, obs, noise, alpha=0.1)
    l_big, _, _ = actor_loss_and_grads(actor, critics, obs, noise, alpha=0.5)
    assert float(logp.mean()) > 0
    assert l_big > l_small


# -- temperature ----------------------------------------------------------------


def test_alpha_loss_stationary_at_target_entropy():
    target = -2.0
    loss, grad = alpha_loss_and_grad(np.full(16, -target), math.log(0.2), target)
    # log pi == -target_entropy for every sample: exactly stationary
    assert loss == 0.0 and grad == 0.0


def test_alpha_gradient_pushes_alpha_up_when_entropy_low():
    target = -2.0
    log_probs = np.full(16, 3.0)  # log pi > -target: entropy below the bound
    _, grad = alpha_loss_and_grad(log_probs, math.log(0.2), target)
    assert grad < 0.0  # descending on log_alpha raises alpha


def test_alpha_loss_finite_difference():
    rng = np.random.default_rng(12)
    log_probs = rng.normal(size=32)
    la = math.log(0.3)
    h = 1e-6
    _, grad = alpha_loss_and_grad(log_probs, la, -2.0)
    up, _ = alpha_loss_and_grad(log_probs, la + h, -2.0)
    down, _ = alpha_loss_and_grad(log_probs, la - h, -2.0)
    assert grad == pytest.approx((up - down) / (2 * h), rel=1e-4)


# -- target updates and learner ----------------------------------------------------


def test_hard_update_copies_exactly():
    critics = make_critics()
    critics.q1.weights[0] += 0.5
    critics.hard_update()
    for a, b in zip(critics.q1.parameters(), critics.target_q1.parameters()):
        assert np.array_equal(a, b)


def test_target_update_interval_boundary():
    cfg = RunConfig(hidden=(8,), batch_size=4, target_update_interval=1000)
    learner = SacLearner(OBS_DIM, ACT_DIM, cfg, np.random.default_rng(13))
    rng = np.random.default_rng(14)
    obs = rng.normal(size=(4, OBS_DIM))
    act = rng.uniform(-1, 1, size=(4, ACT_DIM))
    rew = rng.normal(size=4)
    term = np.zeros(4, dtype=bool)
    nxt = rng.normal(size=(4, OBS_DIM))
    w = np.ones(4)
    for _ in range(999):
        learner.update(obs, act, rew, term, nxt, w, rng)
    # 999 updates: targets still the originals, so they differ from running
    assert not np.array_equal(learner.critics.q1.weights[0],
                              learner.critics.target_q1.weights[0])
    learner.update(obs, act, rew, term, nxt, w, rng)
    for a, b in zip(learner.critics.q1.parameters(), learner.critics.target_q1.parameters()):
        assert np.array_equal(a, b)


def test_learner_update_deterministic():
    results = []
    for _ in range(2):
        cfg = RunConfig(hidden=(8,), batch_size=4)
        learner = SacLearner(OBS_DIM, ACT_DIM, cfg, np.random.default_rng(15))
        rng = np.random.default_rng(16)
        obs = rng.normal(size=(4, OBS_DIM))
        act = rng.uniform(-1, 1, size=(4, ACT_DIM))
        for _ in range(20):
            learner.update(obs, act, np.ones(4), np.zeros(4, bool), obs, np.ones(4), rng)
        results.append([p.copy() for p in learner.actor.net.parameters()])
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def _learner_state(learner):
    """Every array and counter an update writes, as bytes."""
    nets = (learner.actor.net, learner.critics.q1, learner.critics.q2,
            learner.critics.target_q1, learner.critics.target_q2)
    arrays = [p for net in nets for p in net.parameters()]
    optimizers = (learner.adam_actor, learner.adam_q1, learner.adam_q2, learner.adam_alpha)
    for st in optimizers:
        arrays.extend(st.m + st.v)
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
            [st.step_count for st in optimizers],
            float.hex(learner.log_alpha), learner._alpha_param[0].tobytes(), learner.n_updates)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_learner_update_bitwise_equals_reference(dtype):
    # a batch size that is not a power of two, so the 1/B adjoints round; a
    # hidden width at which BLAS rounds a narrower product differently
    obs_dim, batch, n_updates = 64, 40, 32
    # 32 updates cross the hard-copy interval three times
    cfg = RunConfig(hidden=(128, 128), batch_size=batch, target_update_interval=10)
    learner = SacLearner(obs_dim, ACT_DIM, cfg, np.random.default_rng(21), dtype=dtype)
    reference = SacLearner(obs_dim, ACT_DIM, cfg, np.random.default_rng(21), dtype=dtype)
    data = np.random.default_rng(22)
    rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
    for _ in range(n_updates):
        # dtypes as the replay buffer hands them out
        obs = data.normal(size=(batch, obs_dim)).astype(dtype)
        act = data.uniform(-1.0, 1.0, size=(batch, ACT_DIM)).astype(dtype)
        rew = data.normal(size=batch)
        term = data.uniform(size=batch) < 0.2
        nxt = data.normal(size=(batch, obs_dim)).astype(dtype)
        w = data.uniform(0.1, 1.0, size=batch)
        td, metrics = learner.update(obs, act, rew, term, nxt, w, rng)
        td_ref, metrics_ref = sac_update_reference(reference, obs, act, rew, term, nxt, w,
                                                   ref_rng)
        assert (td.dtype, td.tobytes()) == (td_ref.dtype, td_ref.tobytes())
        assert {k: float.hex(v) for k, v in metrics.items()} == \
            {k: float.hex(v) for k, v in metrics_ref.items()}
    assert _learner_state(learner) == _learner_state(reference)
    # the critics moved on after the last hard copy, so the targets differ
    assert not np.array_equal(learner.critics.q1.weights[0], learner.critics.target_q1.weights[0])
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_desk_size_update_keeps_its_working_arrays():
    # the desk learner: 524 observations, two hidden layers of 128, batches
    # of 256, float32; one update allocates about 4 MB of batch-sized
    # temporaries when its networks and optimizers keep no working arrays
    obs_dim, batch = 524, 256
    cfg = RunConfig(hidden=(128, 128), batch_size=batch)
    learner = SacLearner(obs_dim, ACT_DIM, cfg, np.random.default_rng(31), dtype=np.float32)
    data = np.random.default_rng(32)
    obs = data.normal(size=(batch, obs_dim)).astype(np.float32)
    act = data.uniform(-1.0, 1.0, size=(batch, ACT_DIM)).astype(np.float32)
    rew = data.normal(size=batch).astype(np.float32)
    term = data.uniform(size=batch) < 0.2
    nxt = data.normal(size=(batch, obs_dim)).astype(np.float32)
    w = data.uniform(0.1, 1.0, size=batch)
    rng = np.random.default_rng(33)
    for _ in range(2):  # the first updates make the kept arrays
        learner.update(obs, act, rew, term, nxt, w, rng)

    def array_bytes():  # numpy array data only: Python's free lists hold object memory
        numpy_domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        return sum(t.size for t in tracemalloc.take_snapshot().filter_traces([numpy_domain]).traces)

    tracemalloc.start()
    try:
        learner.update(obs, act, rew, term, nxt, w, rng)
        peak = tracemalloc.get_traced_memory()[1]
        kept = array_bytes()
        for _ in range(10):
            learner.update(obs, act, rew, term, nxt, w, rng)
        grown = array_bytes() - kept
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, f"one update peaked at {peak / 1e6:.2f} MB"
    assert grown <= 0, f"10 updates kept {grown} more bytes of arrays"


# -- the twin passes on two threads --------------------------------------------

DESK_OBS, DESK_BATCH = 524, 256  # the desk learner's sizes, above the pairing gate
PAIRED = len(os.sched_getaffinity(0)) > 1
SRC = str(Path(__file__).resolve().parents[1] / "src")


def helper_alive():
    return any(t.name == "docknav-critic" for t in threading.enumerate())


def desk_learner(seed, **overrides):
    cfg = RunConfig(hidden=(128, 128), batch_size=DESK_BATCH, **overrides)
    return SacLearner(DESK_OBS, ACT_DIM, cfg, np.random.default_rng(seed), dtype=np.float32)


def desk_batch(data):
    """One batch as the replay hands it out at the desk learner's sizes."""
    return (data.normal(size=(DESK_BATCH, DESK_OBS)).astype(np.float32),
            data.uniform(-1.0, 1.0, size=(DESK_BATCH, ACT_DIM)).astype(np.float32),
            data.normal(size=DESK_BATCH).astype(np.float32),
            data.uniform(size=DESK_BATCH) < 0.2,
            data.normal(size=(DESK_BATCH, DESK_OBS)).astype(np.float32),
            data.uniform(0.1, 1.0, size=DESK_BATCH))


def test_desk_size_update_bitwise_equals_reference():
    # the paired path: every pass of both critics is above the gate
    learner = desk_learner(41, target_update_interval=2)
    reference = desk_learner(41, target_update_interval=2)
    data = np.random.default_rng(42)
    rng, ref_rng = np.random.default_rng(43), np.random.default_rng(43)
    for _ in range(5):  # two hard copies, then the critics move on
        batch = desk_batch(data)
        td, metrics = learner.update(*batch, rng)
        td_ref, metrics_ref = sac_update_reference(reference, *batch, ref_rng)
        assert (td.dtype, td.tobytes()) == (td_ref.dtype, td_ref.tobytes())
        assert {k: float.hex(v) for k, v in metrics.items()} == \
            {k: float.hex(v) for k, v in metrics_ref.items()}
    assert _learner_state(learner) == _learner_state(reference)
    assert not np.array_equal(learner.critics.q1.weights[0], learner.critics.target_q1.weights[0])
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert helper_alive() == PAIRED


@pytest.mark.parametrize("poisoned", [("q1",), ("q2",), ("q1", "q2")])
def test_non_finite_critic_gradient_fails_as_in_turn(poisoned):
    # q1's failure leaves q2 unstepped, q2's leaves q1 stepped, and when both
    # fail q1's is raised with neither stepped: the serial order's states
    learner, reference = desk_learner(51), desk_learner(51)
    for sac in (learner, reference):
        for name in poisoned:  # a NaN weight makes every gradient of that critic NaN
            getattr(sac.critics, name).weights[0][0, 0] = np.nan
    batch = desk_batch(np.random.default_rng(52))
    rng, ref_rng = np.random.default_rng(53), np.random.default_rng(53)
    with pytest.raises(GradientError):
        learner.update(*batch, rng)
    with pytest.raises(GradientError):
        sac_update_reference(reference, *batch, ref_rng)
    assert _learner_state(learner) == _learner_state(reference)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    stepped = [learner.adam_q1.step_count, learner.adam_q2.step_count]
    assert stepped == {("q1",): [0, 0], ("q2",): [1, 0], ("q1", "q2"): [0, 0]}[poisoned]


def fail(exc):
    raise exc


def test_pair_waits_for_the_helper_and_raises_q1s_exception_first():
    critics = CriticPair(DESK_OBS, ACT_DIM, (128, 128), np.random.default_rng(61), np.float32)
    where = []

    def second(exc=None):
        time.sleep(0.05)
        where.append(threading.get_ident())
        if exc:
            raise exc

    assert critics.both(DESK_BATCH, lambda: 1, second) == (1, None)
    assert (where.pop() != threading.get_ident()) == PAIRED
    with pytest.raises(ValueError, match="q1"):
        critics.both(DESK_BATCH, lambda: fail(ValueError("q1")), lambda: second(KeyError("q2")))
    assert len(where) == 1  # the second pass had ended before the first's exception
    with pytest.raises(KeyError, match="q2"):  # raised on the helper, surfaced here
        critics.both(DESK_BATCH, lambda: 1, lambda: second(KeyError("q2")))
    # a pass too small for the handoff runs in turn, on this thread
    assert critics.both(1, lambda: 1, lambda: threading.get_ident()) == (1, threading.get_ident())


def test_pairs_from_several_threads_wait_their_turn_at_the_one_helper():
    # three threads, more than a 2-core host has cores, update a desk learner
    # each at once, switching often: their q2 jobs queue for the one helper, and
    # each learner ends with the in-turn reference's bits
    seeds = (81, 82, 83)
    learners, references = [desk_learner(s) for s in seeds], [desk_learner(s) for s in seeds]
    batches = [[desk_batch(np.random.default_rng(10 * s + k)) for k in range(2)] for s in seeds]
    start = threading.Barrier(len(seeds))

    def train(i):
        start.wait()
        rng = np.random.default_rng(seeds[i])
        for batch in batches[i]:
            learners[i].update(*batch, rng)

    threads = [threading.Thread(target=train, args=(i,)) for i in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, reference in enumerate(references):
        rng = np.random.default_rng(seeds[i])
        for batch in batches[i]:
            sac_update_reference(reference, *batch, rng)
        assert _learner_state(learners[i]) == _learner_state(reference)
    assert [t.name for t in threading.enumerate()].count("docknav-critic") == PAIRED


def run_python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_interrupted_pair_leaves_the_one_helper_to_finish_its_job():
    # a KeyboardInterrupt while a pair waits for its answer: the helper
    # finishes the interrupted job, and the next pair's job queues behind it
    # on the same helper. In a subprocess, so the signal cannot reach pytest.
    done = run_python("""
        import os, signal, threading, time
        from docknav.sac import _paired

        spans = {}

        def job(name, seconds):
            start = time.monotonic()
            time.sleep(seconds)
            spans[name] = start, time.monotonic()

        threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGINT)).start()
        try:
            _paired(lambda: None, lambda: job("interrupted", 1.0))
            raise AssertionError("the pair was not interrupted")
        except KeyboardInterrupt:
            assert "interrupted" not in spans  # the wait was cut short
        _paired(lambda: None, lambda: job("next", 0.0))
        deadline = time.monotonic() + 10
        while len(spans) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        helpers = [t.name for t in threading.enumerate()].count("docknav-critic")
        print(helpers, spans["next"][0] >= spans["interrupted"][1])
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "True"]  # one helper; the jobs did not overlap


def test_forked_child_pairs_on_a_helper_of_its_own():
    # a child forked after the parent paired inherits the parent's job queue
    # but not its helper thread; it starts its own, and its desk update has the
    # in-turn reference's bits. A child that waited on the parent's queue
    # would hang until its alarm.
    done = run_python(f"""
        import os, signal, sys
        import numpy as np
        sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
        from _oracles import sac_update_reference
        from test_sac import _learner_state, desk_batch, desk_learner, helper_alive
        from docknav.sac import _paired

        _paired(lambda: None, lambda: None)
        learner, reference = desk_learner(71), desk_learner(71)
        batch = desk_batch(np.random.default_rng(72))
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)
            learner.update(*batch, np.random.default_rng(73))
            sac_update_reference(reference, *batch, np.random.default_rng(73))
            print(_learner_state(learner) == _learner_state(reference), helper_alive(),
                  flush=True)
            os._exit(0)
        print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", str(PAIRED), "0"]


def test_no_thread_at_import_toy_size_grid_eval_or_one_cpu():
    done = run_python("""
        import os, threading
        import numpy as np
        import docknav.cli
        from docknav.config import RunConfig
        from docknav.grid_eval import GridEvalConfig, run_grid_eval
        from docknav.sac import SacLearner

        def python_threads():
            return [t.name for t in threading.enumerate() if t is not threading.main_thread()]

        def updates(obs_dim, batch, hidden, dtype):
            learner = SacLearner(obs_dim, 2, RunConfig(hidden=hidden, batch_size=batch),
                                 np.random.default_rng(1), dtype=dtype)
            data, rng = np.random.default_rng(2), np.random.default_rng(3)
            for _ in range(3):
                learner.update(data.normal(size=(batch, obs_dim)).astype(dtype),
                               data.uniform(-1, 1, size=(batch, 2)).astype(dtype),
                               data.normal(size=batch), np.zeros(batch, bool),
                               data.normal(size=(batch, obs_dim)).astype(dtype),
                               np.ones(batch), rng)

        assert python_threads() == [], python_threads()
        updates(30, 32, (48,), np.float64)
        grid = GridEvalConfig(grid_extent=1.0, grid_cell=0.5, orientations_deg=(0.0,),
                              repeats=1, grid_offset=1.0, room_side=14.0)
        run_grid_eval(lambda obs: np.array([1.0, 0.0]), grid, step_limit=20)
        assert python_threads() == [], python_threads()
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        updates(524, 256, (128, 128), np.float32)
        assert python_threads() == [], python_threads()
        print("no thread")
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "no thread"


def test_benchmark_run_with_a_live_helper_exits_promptly(tmp_path):
    # the helper is a daemon thread: waiting for its next job, it does not
    # keep the interpreter alive once the main thread ends. One desk
    # train_sync round of the benchmark, in a copy of the tree; the threads
    # alive at exit are printed after the result line.
    root = Path(SRC).parent
    skip = shutil.ignore_patterns("out", "__pycache__")
    for name in ("src", "configs", "perfbench"):
        shutil.copytree(root / name, tmp_path / name, ignore=skip)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    code = """
        import atexit, runpy, sys, threading
        atexit.register(lambda: print(sorted(t.name for t in threading.enumerate())))
        sys.argv = ["run.py", "--workload", "train_sync", "--seconds", "0", "--trace", "0"]
        runpy.run_path("perfbench/run.py", run_name="__main__")
    """
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    threads = ["MainThread", "docknav-critic"] if PAIRED else ["MainThread"]
    assert done.stdout.splitlines()[-1] == str(threads)
