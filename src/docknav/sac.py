"""Soft actor-critic: tanh-squashed Gaussian policy, twin critics with
hard-updated target copies, and a learnable entropy temperature.

All gradients are computed analytically against the dense-network tape (see
:mod:`docknav.nn`) so every loss here is finite-difference checkable.

The twin critics are two independent networks, and numpy releases the GIL
inside its matrix products, so an update runs q2's share of each twin pass
(the two target forwards, each critic's forward and backward, each critic's
Adam step, and the actor loss's critic forwards and input gradients) on one
helper thread while the calling thread runs q1's, then joins. Each network
makes the same BLAS calls on the same arrays as in turn, and every random
draw, every write of the joined input and every reduction over the pair stays
on the calling thread in the same order, so the bits do not depend on the
pairing. A pair runs in turn, and no thread is started, when the process may
use one CPU only or a critic pass is below :data:`PAIR_MIN_WORK`. The helper
is a daemon thread started by the first pair that needs it, and it keeps no
reference to a job once it has answered it. Measured on 2 cores, one BLAS
thread, at desk sizes: a desk update took 10.1 ms paired against 12.4 ms in
turn (faster in 20 of 20 alternating pairs) and 16-episode desk trainers
19% less time (10 of 12); a one-thread ``ThreadPoolExecutor`` in the
helper's place made the update 2.7% slower (slower in 16 of 20). Run again
without the helper, 16-episode desk trainers took as long (2.20 s in turn
against 2.27 s paired, paired faster in 8 of 16) and the benchmark's raw
episodes/s did not move, but its host-normalised ``train_sync`` rate read
16% lower in turn (lower in 10 of 10 alternating pairs), so the helper stays.
"""

from __future__ import annotations

import math
import os
import queue
import threading

import numpy as np

from .config import RunConfig
from .nn import AdamState, DenseNet, adam_step, check_grads, net_grads_list

LOG_2PI = math.log(2.0 * math.pi)

# Multiply-adds of one critic pass (rows times parameters) below which the
# pair runs in turn: under it the handoff and the GIL traffic between two
# threads of small numpy calls cost more than the second core gives. Measured
# on 2 cores, one BLAS thread, a forward and backward pass: 5.4M (64 rows of
# a desk critic) ran 15% faster paired, 3.4M (40 rows) 16% slower.
PAIR_MIN_WORK = 4_000_000

_jobs: dict[int, queue.SimpleQueue] = {}  # process id -> its helper's job queue


def _serve(jobs):
    while True:
        job, answer = jobs.get()
        try:
            answer.put((job(), None))
        except BaseException as exc:
            answer.put((None, exc))
        del job, answer  # keep nothing of a job once it is answered


def _paired(first, second):
    """``(first(), second())``, ``second()`` run on the helper thread while
    this one runs ``first()``. Returns when both have ended; when both raised,
    ``first``'s exception is the one raised. Pairs from several threads put
    their jobs on the one helper's queue and wait their turn; a job never
    pairs, as the helper would wait for itself. Each pair takes its answer
    from a queue of its own, so a wait cut short (by a KeyboardInterrupt)
    leaves the helper to finish the job and the next pair's job to queue
    behind it."""
    pid = os.getpid()
    jobs = _jobs.get(pid)
    if jobs is None:  # none yet in this process; a forked child has none running
        new = queue.SimpleQueue()
        jobs = _jobs.setdefault(pid, new)  # atomic: of threads racing here, one inserts
        if jobs is new:
            threading.Thread(target=_serve, args=(jobs,), name="docknav-critic",
                             daemon=True).start()
    answer = queue.SimpleQueue()
    jobs.put((second, answer))
    try:
        one = first()
    finally:
        two, exc = answer.get()
    if exc is not None:
        raise exc
    return one, two


class Actor:
    """Policy network mapping observation -> (mean, log_std) of a Gaussian
    whose samples are squashed through tanh into the [-1, 1] action box."""

    def __init__(self, obs_dim, act_dim, hidden, rng, dtype=np.float64,
                 log_std_min=-20.0, log_std_max=2.0, tanh_eps=1e-6):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.log_std_min = log_std_min
        self.log_std_max = log_std_max
        self.tanh_eps = tanh_eps
        sizes = [obs_dim, *hidden, 2 * act_dim]
        acts = ["relu"] * len(hidden) + ["identity"]
        self.net = DenseNet(sizes, acts, rng=rng, dtype=dtype)

    def dist_params(self, obs, tape=False):
        """(mu, log_std, gate, tape). With ``tape``, ``gate`` is 1 where the
        log-std clip passes its gradient and ``tape`` is the forward record;
        without it both are None."""
        if tape:
            out, rec = self.net.forward_tape(obs)
        else:
            out, rec = self.net.forward(obs), None
        mu = out[:, : self.act_dim]
        raw = out[:, self.act_dim :]
        # np.clip's values without its Python wrappers
        log_std = np.minimum(np.maximum(raw, self.log_std_min), self.log_std_max)
        gate = None
        if tape:
            gate = ((raw > self.log_std_min) & (raw < self.log_std_max)).astype(out.dtype)
        return mu, log_std, gate, rec

    def _squash(self, mu, log_std, noise):
        """(action, log_prob, sigma, 1 - action**2) of the unit ``noise``'s sample."""
        sigma = np.exp(log_std)
        u = mu + sigma * noise
        a = np.tanh(u)
        one_m_a2 = 1.0 - a**2
        # Gaussian density of u (noise is exactly (u - mu) / sigma) plus the
        # tanh change-of-variables correction.
        logp = (-0.5 * LOG_2PI - log_std - 0.5 * noise**2).sum(axis=1)
        logp -= np.log(one_m_a2 + self.tanh_eps).sum(axis=1)
        return a, logp, sigma, one_m_a2

    def sample_with_noise(self, obs, noise):
        """Reparameterized batch sample with caller-supplied unit noise."""
        mu, log_std, _, _ = self.dist_params(obs)
        return self._squash(mu, log_std, np.asarray(noise))[:2]

    def act(self, obs, rng=None, mode="sample"):
        """One action for one observation; returns (action, log_prob)."""
        obs = np.asarray(obs)
        if mode == "sample":
            noise = rng.standard_normal((1, self.act_dim))
        elif mode == "mean":
            noise = np.zeros((1, self.act_dim))
        else:
            raise ValueError(f"unknown act mode {mode!r}")
        mu, log_std, _, _ = self.dist_params(obs[None, :])
        a, logp, _, _ = self._squash(mu, log_std, noise)
        return a[0], float(logp[0])


class CriticPair:
    """Twin Q networks plus hard-updated target copies, and per number of
    rows the array their joined ``(obs, action)`` input is written into.
    Without the kept array a desk update was no faster, and it allocated
    1.67 MB of arrays at its peak instead of 1.13 MB."""

    def __init__(self, obs_dim, act_dim, hidden, rng, dtype=np.float64):
        sizes = [obs_dim + act_dim, *hidden, 1]
        acts = ["relu"] * len(hidden) + ["identity"]
        self.q1 = DenseNet(sizes, acts, rng=rng, dtype=dtype)
        self.q2 = DenseNet(sizes, acts, rng=rng, dtype=dtype)
        self.target_q1 = self.q1.copy()
        self.target_q2 = self.q2.copy()
        self._inputs: dict[int, np.ndarray] = {}

    def joined(self, obs, act) -> np.ndarray:
        """``obs`` and ``act`` side by side, cast to the critics' dtype, in an
        array the pair keeps: valid until its next join of as many rows."""
        x = self._inputs.get(len(obs))
        if x is None:
            x = self._inputs[len(obs)] = np.empty((len(obs), self.q1.in_dim), self.q1.dtype)
        return np.concatenate([obs, act], axis=1, out=x)

    def both(self, rows, first, second):
        """``(first(), second())`` for q1's and q2's share of a twin pass over
        ``rows`` rows: side by side on two threads when the process may use
        more than one CPU and the pass is big enough, else in turn."""
        if rows * self.q1.flat.size < PAIR_MIN_WORK or len(os.sched_getaffinity(0)) < 2:
            return first(), second()
        return _paired(first, second)

    def hard_update(self):
        np.copyto(self.target_q1.flat, self.q1.flat)
        np.copyto(self.target_q2.flat, self.q2.flat)

    def min_target_q(self, obs, act):
        x = self.joined(obs, act)
        v1, v2 = self.both(len(x), lambda: self.target_q1.forward(x),
                           lambda: self.target_q2.forward(x))
        return np.minimum(v1[:, 0], v2[:, 0])


def td_target(rewards, terminals, next_obs, actor: Actor, critics: CriticPair,
              alpha: float, gamma: float, rng) -> np.ndarray:
    """Entropy-regularized bootstrap target; terminal transitions use the raw
    reward with no bootstrap."""
    rewards = np.asarray(rewards, dtype=np.float64)
    terminals = np.asarray(terminals, dtype=bool)
    noise = rng.standard_normal((len(rewards), actor.act_dim))
    next_a, next_logp = actor.sample_with_noise(next_obs, noise)
    boot = critics.min_target_q(next_obs, next_a) - alpha * next_logp
    return np.where(terminals, rewards, rewards + gamma * boot)


def critic_losses(critics: CriticPair, obs, act, targets, weights):
    """Importance-weighted half-squared TD loss, summed over both critics.

    Returns (loss, grads_q1, grads_q2, |td_error|) where the TD error that
    feeds replay priorities comes from the first critic.
    """
    x = critics.joined(obs, act)
    targets = np.asarray(targets)
    weights = np.asarray(weights)
    batch = len(targets)

    def td_and_grads(q):
        v, tape = q.forward_tape(x)
        e = v[:, 0] - targets
        return e, q.backward(tape, (weights * e / batch)[:, None], wrt_input=False)

    (e1, g1), (e2, g2) = critics.both(batch, lambda: td_and_grads(critics.q1),
                                      lambda: td_and_grads(critics.q2))
    loss = float(np.mean(weights * 0.5 * e1**2) + np.mean(weights * 0.5 * e2**2))
    return loss, g1, g2, np.abs(e1)


def actor_loss_and_grads(actor: Actor, critics: CriticPair, obs, noise, alpha: float):
    """Reparameterized policy loss E[alpha * log pi - min Q] with fixed unit
    noise, plus exact gradients through the squash and the critic inputs.

    Returns (loss, actor gradients, per-sample log probs).
    """
    obs = np.asarray(obs)
    noise = np.asarray(noise)
    batch = len(obs)
    mu, log_std, gate, tape = actor.dist_params(obs, tape=True)
    a, logp, sigma, one_m_a2 = actor._squash(mu, log_std, noise)

    x = critics.joined(obs, a)
    (v1, tape1), (v2, tape2) = critics.both(batch, lambda: critics.q1.forward_tape(x),
                                            lambda: critics.q2.forward_tape(x))
    q1v, q2v = v1[:, 0], v2[:, 0]
    use1 = q1v <= q2v
    qmin = np.where(use1, q1v, q2v)
    loss = float(np.mean(alpha * logp - qmin))

    # dL/da through the selected critic (adjoint -1/B on the min branch). Only
    # the input gradient is needed; it stays full width, because a product with
    # just the action rows of the first layer rounds differently.
    adj1 = (-use1.astype(x.dtype) / batch)[:, None]
    adj2 = (-(~use1).astype(x.dtype) / batch)[:, None]
    d1, d2 = critics.both(batch, lambda: critics.q1.backward(tape1, adj1, params=False),
                          lambda: critics.q2.backward(tape2, adj2, params=False))
    dl_da = d1.wrt_input[:, actor.obs_dim :] + d2.wrt_input[:, actor.obs_dim :]

    g_tanh = 2.0 * a * one_m_a2 / (one_m_a2 + actor.tanh_eps)  # d(-log(1-a^2+eps))/du
    d_mu = (alpha / batch) * g_tanh + dl_da * one_m_a2
    d_ls = (alpha / batch) * (-1.0 + g_tanh * sigma * noise) + dl_da * one_m_a2 * sigma * noise
    adjoint = np.concatenate([d_mu, d_ls * gate], axis=1)
    grads = actor.net.backward(tape, adjoint, wrt_input=False)
    return loss, grads, logp


def alpha_loss_and_grad(log_probs, log_alpha: float, target_entropy: float):
    """Temperature loss mean(-alpha * (log pi + target)); its derivative with
    respect to log_alpha equals the loss itself since d(exp)/dlog = exp."""
    value = float(np.mean(-math.exp(log_alpha) * (np.asarray(log_probs) + target_entropy)))
    return value, value


class SacLearner:
    """Bundles networks, optimizers, and the per-batch update sequence.

    The update order is fixed for determinism: targets, critic step, actor
    step, temperature step, then the periodic hard target copy.
    """

    def __init__(self, obs_dim, act_dim, config: RunConfig, rng, dtype=np.float64):
        self.config = config
        self.actor = Actor(obs_dim, act_dim, config.hidden, rng, dtype,
                           config.log_std_min, config.log_std_max, config.tanh_eps)
        self.critics = CriticPair(obs_dim, act_dim, config.hidden, rng, dtype)
        self.adam_actor = AdamState(self.actor.net.parameters(), config.actor_lr)
        self.adam_q1 = AdamState(self.critics.q1.parameters(), config.critic_lr)
        self.adam_q2 = AdamState(self.critics.q2.parameters(), config.critic_lr)
        self._alpha_param = [np.array([math.log(config.initial_alpha)])]
        self.adam_alpha = AdamState(self._alpha_param, config.alpha_lr)
        self.n_updates = 0

    @property
    def log_alpha(self) -> float:
        """The temperature's log, read from the one array Adam steps."""
        return float(self._alpha_param[0][0])

    @property
    def alpha(self) -> float:
        return math.exp(self.log_alpha)

    def update(self, obs, act, rewards, terminals, next_obs, weights, rng):
        """One gradient step for both critics, the actor, and the temperature.

        Returns (|td_error| per sample for priority updates, metrics dict).
        """
        cfg = self.config
        targets = td_target(rewards, terminals, next_obs, self.actor, self.critics,
                            self.alpha, cfg.gamma, rng)
        critics = self.critics
        closs, g1, g2, td_abs = critic_losses(critics, obs, act, targets, weights)
        # q1's check comes before either step, as when the steps ran in turn: a
        # non-finite q1 gradient leaves q2 unstepped, a non-finite q2 one q1 stepped
        check_grads(critics.q1.parameters(), net_grads_list(g1), self.adam_q1)
        critics.both(len(obs),
                     lambda: adam_step(critics.q1.parameters(), net_grads_list(g1), self.adam_q1),
                     lambda: adam_step(critics.q2.parameters(), net_grads_list(g2), self.adam_q2))

        noise = rng.standard_normal((len(obs), self.actor.act_dim))
        aloss, ga, logp = actor_loss_and_grads(self.actor, self.critics, obs, noise, self.alpha)
        adam_step(self.actor.net.parameters(), net_grads_list(ga), self.adam_actor)

        tloss, tgrad = alpha_loss_and_grad(logp, self.log_alpha, cfg.target_entropy)
        adam_step(self._alpha_param, [np.array([tgrad])], self.adam_alpha)

        self.n_updates += 1
        if self.n_updates % cfg.target_update_interval == 0:
            self.critics.hard_update()
        metrics = {"critic_loss": closs, "actor_loss": aloss, "alpha_loss": tloss,
                   "alpha": self.alpha, "mean_log_prob": float(logp.mean())}
        if not all(math.isfinite(v) for v in metrics.values()):
            raise FloatingPointError(f"non-finite SAC loss: {metrics}")
        return td_abs, metrics
