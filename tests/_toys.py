"""Small control problems and run configurations used by the acceptance
suite. The toy environments have analytically known optima so convergence is
checkable without reference to the simulator."""

import numpy as np

from docknav.config import RunConfig
from docknav.per import Episode, PerConfig, PrioritizedReplay
from docknav.sac import SacConfig, SacLearner


def one_step_episode(obs, action, reward, next_obs, terminal, worker_id=0) -> Episode:
    """One transition as an episode, the replay's unit of insertion."""
    return Episode(
        worker_id=worker_id, task_type="toy", features=np.zeros(5),
        fpi_prediction=float("nan"), observations=np.stack([obs, next_obs]),
        actions=np.asarray(action)[None], rewards=np.array([reward], dtype=np.float64),
        terminals=np.array([terminal]), success=False, snapshot_version=0,
    )


class DriveToOrigin:
    """1D precision task: x' = x + 0.5 * a, reward -|x'|, episode ends when
    |x| < 0.1 or after 10 steps.

    From x0 = 2 the best policy takes four full-speed steps and collects
    -(1.5 + 1.0 + 0.5 + 0.0) = -3; any slower approach costs strictly more.
    """

    horizon = 10
    x0 = 2.0
    goal_tol = 0.1
    optimal_return = -3.0

    def __init__(self):
        self.reset()

    def reset(self):
        self.x = self.x0
        self.t = 0
        return np.array([self.x])

    def step(self, a):
        self.x = self.x + 0.5 * float(np.clip(a[0], -1, 1))
        self.t += 1
        done = abs(self.x) < self.goal_tol or self.t >= self.horizon
        return np.array([self.x]), -abs(self.x), done


class FixedStateBandit:
    """One state, 2D action, reward -|a - a*|^2; every step is terminal."""

    optimal_action = np.array([0.3, -0.4])

    def __init__(self):
        self.obs = np.zeros(1)

    def reward(self, a):
        return -float(((a - self.optimal_action) ** 2).sum())


def train_drive_to_origin(seed: int, env_steps: int = 20000):
    """SAC on the drive task; returns (mean-policy return, learner).

    The entropy target is set below -action_dim: reaching the optimum needs a
    saturated tanh mean, which a high entropy floor actively fights.
    """
    cfg = SacConfig(gamma=0.99, critic_lr=1e-3, actor_lr=1e-3, alpha_lr=1e-3,
                    target_entropy=-3.0, batch_size=256, hidden=(48, 48),
                    target_update_interval=1000)
    rng = np.random.default_rng(seed)
    learner = SacLearner(1, 1, cfg, np.random.default_rng(seed + 1000))
    buf = PrioritizedReplay(2**15, PerConfig(), obs_dim=1, act_dim=1, dtype=np.float64)
    env = DriveToOrigin()
    obs = env.reset()
    for step in range(env_steps):
        a, _ = learner.actor.act(obs, rng=rng, mode="sample")
        nxt, r, done = env.step(a)
        buf.push_episode(one_step_episode(obs, a, r, nxt, done))
        obs = env.reset() if done else nxt
        if len(buf) >= 1000 and step % 3 == 0:
            batch, idx, w = buf.sample(cfg.batch_size, 0.4, rng)
            td, _ = learner.update(batch["obs"], batch["actions"], batch["rewards"],
                                   batch["terminals"], batch["next_obs"], w, rng)
            buf.update_priorities(idx, td)
    total = 0.0
    obs = env.reset()
    done = False
    while not done:
        a, _ = learner.actor.act(obs, mode="mean")
        obs, r, done = env.step(a)
        total += r
    return total, learner


def train_bandit(seed: int, env_steps: int = 8000, alpha_lr: float = 1e-3):
    """SAC on the fixed-state bandit; returns the learner."""
    cfg = SacConfig(gamma=0.99, critic_lr=1e-3, actor_lr=1e-3, alpha_lr=alpha_lr,
                    target_entropy=-2.0, batch_size=256, hidden=(48, 48),
                    target_update_interval=1000)
    rng = np.random.default_rng(seed)
    learner = SacLearner(1, 2, cfg, np.random.default_rng(seed + 500))
    buf = PrioritizedReplay(2**14, PerConfig(), obs_dim=1, act_dim=2, dtype=np.float64)
    env = FixedStateBandit()
    for step in range(env_steps):
        a, _ = learner.actor.act(env.obs, rng=rng, mode="sample")
        buf.push_episode(one_step_episode(env.obs, a, env.reward(a), env.obs, True))
        if len(buf) >= 1000 and step % 2 == 0:
            batch, idx, w = buf.sample(cfg.batch_size, 0.4, rng)
            td, _ = learner.update(batch["obs"], batch["actions"], batch["rewards"],
                                   batch["terminals"], batch["next_obs"], w, rng)
            buf.update_priorities(idx, td)
    return learner


def desk_nav_config(variant: str = "navacl_q", obstacles: bool = False, **overrides) -> RunConfig:
    """The desk-scale navigation experiment arena (criteria 7 and 8)."""
    base = dict(
        variant=variant, seeds=(1, 2, 3), episode_budget=20000, workers=4,
        updates_per_episode=8, replay_capacity=2**17, dtype="float32",
        step_limit=500, room_min=8.0, room_max=9.0, distance_min=1.5,
        distance_max=3.0, relative_yaw_half_deg=45.0,
        obstacle_count_min=1 if obstacles else 0,
        obstacle_count_max=2 if obstacles else 0,
        batch_size=256, hidden=(128, 128),
    )
    base.update(overrides)
    return RunConfig(**base)
