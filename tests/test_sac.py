import math
import tracemalloc

import numpy as np
import pytest

from docknav.config import RunConfig
from docknav.nn import net_grads_list
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
