"""Soft actor-critic: tanh-squashed Gaussian policy, twin critics with
hard-updated target copies, and a learnable entropy temperature.

All gradients are computed analytically against the dense-network tape (see
:mod:`docknav.nn`) so every loss here is finite-difference checkable.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .nn import AdamState, DenseNet, adam_step, net_grads_list

LOG_2PI = math.log(2.0 * math.pi)


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
    rows the array their joined ``(obs, action)`` input is written into."""

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

    def hard_update(self):
        np.copyto(self.target_q1.flat, self.q1.flat)
        np.copyto(self.target_q2.flat, self.q2.flat)

    def min_target_q(self, obs, act):
        x = self.joined(obs, act)
        return np.minimum(self.target_q1.forward(x)[:, 0], self.target_q2.forward(x)[:, 0])


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
    v1, tape1 = critics.q1.forward_tape(x)
    v2, tape2 = critics.q2.forward_tape(x)
    e1 = v1[:, 0] - targets
    e2 = v2[:, 0] - targets
    loss = float(np.mean(weights * 0.5 * e1**2) + np.mean(weights * 0.5 * e2**2))
    g1 = critics.q1.backward(tape1, (weights * e1 / batch)[:, None], wrt_input=False)
    g2 = critics.q2.backward(tape2, (weights * e2 / batch)[:, None], wrt_input=False)
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
    v1, tape1 = critics.q1.forward_tape(x)
    v2, tape2 = critics.q2.forward_tape(x)
    q1v, q2v = v1[:, 0], v2[:, 0]
    use1 = q1v <= q2v
    qmin = np.where(use1, q1v, q2v)
    loss = float(np.mean(alpha * logp - qmin))

    # dL/da through the selected critic (adjoint -1/B on the min branch). Only
    # the input gradient is needed; it stays full width, because a product with
    # just the action rows of the first layer rounds differently.
    adj1 = (-use1.astype(x.dtype) / batch)[:, None]
    adj2 = (-(~use1).astype(x.dtype) / batch)[:, None]
    dl_da = (critics.q1.backward(tape1, adj1, params=False).wrt_input[:, actor.obs_dim :]
             + critics.q2.backward(tape2, adj2, params=False).wrt_input[:, actor.obs_dim :])

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
        closs, g1, g2, td_abs = critic_losses(self.critics, obs, act, targets, weights)
        adam_step(self.critics.q1.parameters(), net_grads_list(g1), self.adam_q1)
        adam_step(self.critics.q2.parameters(), net_grads_list(g2), self.adam_q2)

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
