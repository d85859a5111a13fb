import math

import numpy as np
import pytest

from docknav.curriculum import (
    NavAclConfig,
    RunningStats,
    SuccessPredictor,
    bce_loss,
    classify,
    draw_task_type,
    fit_normal,
    get_dynamic_task,
    initial_q_feature,
    is_easy,
    is_frontier,
)
from docknav.nn import DenseNet, net_grads_list
from docknav.sac import Actor

from _oracles import finite_difference_grads, relative_grad_error


def brute_force_label(f, mu, sigma, cfg):
    """Literal transcription of the banding rules, kept separate from the
    implementation on purpose."""
    band_top = mu + cfg.easy_band * sigma
    if band_top < 1.0:
        easy = (f > band_top) or (f > cfg.easy_threshold)
    else:
        easy = f > mu
    frontier = (mu - cfg.frontier_band * sigma) < f < (mu + cfg.frontier_band * sigma)
    if easy:
        return "easy"
    if frontier:
        return "frontier"
    return "neither"


# -- fit_normal ---------------------------------------------------------------


def test_fit_normal_example():
    mu, sigma = fit_normal([0.2, 0.4, 0.6])
    assert mu == pytest.approx(0.4, abs=1e-12)
    assert sigma == pytest.approx(0.163299, abs=1e-6)
    assert sigma == pytest.approx(math.sqrt(0.08 / 3), abs=1e-15)


def test_fit_normal_degenerate():
    mu, sigma = fit_normal([0.7, 0.7, 0.7, 0.7])
    assert (mu, sigma) == (0.7, 0.0)


def test_fit_normal_requires_two_values():
    with pytest.raises(ValueError):
        fit_normal([0.5])


def test_fit_normal_matches_two_pass_oracle():
    rng = np.random.default_rng(0)
    values = rng.uniform(0.01, 0.99, size=100)
    mu, sigma = fit_normal(values)
    om = sum(values) / len(values)
    ov = sum((v - om) ** 2 for v in values) / len(values)
    assert abs(mu - om) < 1e-12
    assert abs(sigma - math.sqrt(ov)) < 1e-12


# -- classification ---------------------------------------------------------------


def test_classify_spec_examples():
    cfg = NavAclConfig()
    assert classify(0.65, 0.5, 0.1, cfg) == "easy"
    assert classify(0.96, 0.95, 0.1, cfg) == "easy"  # mu + beta*sigma > 1 branch
    assert classify(0.505, 0.5, 0.1, cfg) == "frontier"
    assert classify(0.96, 0.5, 0.1, cfg) == "easy"  # chi threshold
    assert classify(0.3, 0.5, 0.1, cfg) == "neither"


def test_classify_matches_bruteforce_on_random_tuples():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        cfg = NavAclConfig(
            easy_band=float(rng.uniform(0.0, 2.0)),
            frontier_band=float(rng.uniform(0.0, 0.5)),
            easy_threshold=float(rng.uniform(0.5, 0.999)),
        )
        mu = float(rng.uniform(0.0, 1.0))
        sigma = float(rng.uniform(0.0, 0.5))
        f = float(rng.uniform(0.0, 1.0))
        assert classify(f, mu, sigma, cfg) == brute_force_label(f, mu, sigma, cfg)


def test_classify_corner_branches_hit():
    cfg = NavAclConfig()
    # saturated band: easy degrades to f > mu
    assert is_easy(0.96, 0.95, 0.2, cfg)
    assert not is_easy(0.94, 0.95, 0.2, cfg)
    # chi: high prediction is easy even far above the band
    assert is_easy(0.97, 0.2, 0.05, cfg)
    # boundary: mu + beta*sigma == 1 exactly takes the saturated branch
    assert is_easy(0.85, 0.8, 0.2, NavAclConfig(easy_band=1.0, easy_threshold=0.95))


def test_easy_region_superset_of_band_when_chi_below_band():
    cfg = NavAclConfig(easy_threshold=0.6)
    mu, sigma = 0.5, 0.2  # band top 0.7 < 1, chi 0.6 < band top
    assert is_easy(0.65, mu, sigma, cfg)  # above chi, below band
    assert is_easy(0.75, mu, sigma, cfg)  # above band
    assert not is_easy(0.55, mu, sigma, cfg)


def test_frontier_band_is_open_interval():
    cfg = NavAclConfig()
    assert not is_frontier(0.51, 0.5, 0.1, cfg)  # boundary excluded
    assert is_frontier(0.509999, 0.5, 0.1, cfg)
    assert not is_frontier(0.3, 0.5, 0.0, cfg)  # zero sigma: empty band


# -- dynamic task generation ---------------------------------------------------------


class CountingSampler:
    def __init__(self, values):
        self.values = values
        self.calls = 0

    def __call__(self):
        v = self.values[self.calls % len(self.values)]
        self.calls += 1
        return v


def test_random_type_returns_first_sample():
    sampler = CountingSampler([0.42])
    task, ttype, pred = get_dynamic_task(sampler, lambda t: t, 0.5, 0.1,
                                         NavAclConfig(), np.random.default_rng(0),
                                         task_type="random")
    assert (task, ttype) == (0.42, "random")
    assert sampler.calls == 1


def test_fallback_after_max_trials():
    cfg = NavAclConfig(max_trials=100)
    sampler = CountingSampler([0.5])  # constant prediction can never be easy
    task, ttype, _ = get_dynamic_task(sampler, lambda t: 0.5, 0.9, 0.01, cfg,
                                      np.random.default_rng(0), task_type="easy")
    assert sampler.calls == cfg.max_trials + 1
    assert task == 0.5 and ttype == "easy"


def test_sampler_call_budget_never_exceeded():
    rng = np.random.default_rng(2)
    cfg = NavAclConfig(max_trials=100)
    for _ in range(200):
        mu = float(rng.uniform(0, 1))
        sigma = float(rng.uniform(0, 0.3))
        sampler = CountingSampler(list(rng.uniform(0, 1, size=7)))
        get_dynamic_task(sampler, lambda t: t, mu, sigma, cfg, rng)
        assert sampler.calls <= cfg.max_trials + 1


def test_accepted_task_satisfies_predicate():
    rng = np.random.default_rng(3)
    cfg = NavAclConfig(max_trials=100)
    for _ in range(10_000):
        mu = float(rng.uniform(0.2, 0.8))
        sigma = float(rng.uniform(0.01, 0.3))
        ttype = ("easy", "frontier")[int(rng.integers(0, 2))]
        sampler = CountingSampler(list(rng.uniform(0, 1, size=11)))
        task, got_type, pred = get_dynamic_task(sampler, lambda t: t, mu, sigma, cfg,
                                                rng, task_type=ttype)
        assert got_type == ttype
        fell_back = sampler.calls == cfg.max_trials + 1
        if not fell_back:
            check = is_easy if ttype == "easy" else is_frontier
            assert check(task, mu, sigma, cfg)


def test_task_type_distribution():
    cfg = NavAclConfig(p_easy=0.5, p_frontier=0.25, p_random=0.25)
    rng = np.random.default_rng(4)
    draws = [draw_task_type(rng, cfg) for _ in range(20_000)]
    assert abs(draws.count("easy") / 20_000 - 0.5) < 0.02
    assert abs(draws.count("frontier") / 20_000 - 0.25) < 0.02


def test_task_type_probabilities_validated():
    with pytest.raises(ValueError):
        NavAclConfig(p_easy=0.5, p_frontier=0.5, p_random=0.5)


# -- success predictor ------------------------------------------------------------


def test_bce_at_half_is_ln2():
    predictor = SuccessPredictor(rng=np.random.default_rng(5))
    for W, b in zip(predictor.net.weights, predictor.net.biases):
        W[...] = 0.0
        b[...] = 0.0
    # logits are 0 -> p = 0.5 regardless of input
    feats = np.random.default_rng(6).normal(size=(4, 5))
    p = predictor.predict(feats)
    assert np.allclose(p, 0.5)
    assert bce_loss(p, np.ones(4)) == pytest.approx(math.log(2), abs=1e-9)


def test_bce_gradient_check():
    rng = np.random.default_rng(7)
    net = DenseNet([5, 8, 1], ["relu", "sigmoid"], rng=rng)
    x = rng.normal(size=(6, 5))
    y = (rng.uniform(size=6) < 0.5).astype(float)

    p, tape = net.forward_tape(x)
    grads = net.backward(tape, ((p[:, 0] - y) / len(y))[:, None], skip_last_activation=True)

    def loss_fn():
        return bce_loss(net.forward(x)[:, 0], y)

    numeric = finite_difference_grads(net.parameters(), loss_fn)
    assert relative_grad_error(net_grads_list(grads), numeric) <= 1e-4


def test_predictor_output_strictly_in_unit_interval():
    predictor = SuccessPredictor(rng=np.random.default_rng(8))
    extreme = np.array([[1e6, -1e6, 1e6, -1e6, 1e6], [0.0, 0.0, 0.0, 0.0, 0.0]])
    p = predictor.predict(extreme)
    assert np.all(p > 0.0) and np.all(p < 1.0)


def test_predictor_rejects_non_finite_features():
    predictor = SuccessPredictor(rng=np.random.default_rng(9))
    bad = np.array([[1.0, np.nan, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        predictor.predict(bad)
    with pytest.raises(ValueError):
        predictor.train_batch(bad, np.ones(1))


def test_predictor_learns_separable_rule():
    rng = np.random.default_rng(10)
    predictor = SuccessPredictor(rng=rng)

    def sample_features(n):
        return np.column_stack([
            rng.uniform(1.5, 5.0, n),  # distance drives the label
            rng.uniform(0.0, 8.0, n),
            rng.uniform(0.0, 8.0, n),
            rng.uniform(-math.pi / 2, math.pi / 2, n),
            rng.normal(0.0, 1.0, n),
        ])

    for _ in range(2000):
        feats = sample_features(16)
        predictor.train_batch(feats, (feats[:, 0] < 3.0).astype(float))
    held = sample_features(1000)
    pred = predictor.predict(held) > 0.5
    accuracy = float(np.mean(pred == (held[:, 0] < 3.0)))
    assert accuracy >= 0.95


def test_running_stats_standardization():
    stats = RunningStats(3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(stats.standardize(x), x)  # identity before data
    batch = np.random.default_rng(11).normal(2.0, 3.0, size=(100, 3))
    stats.update(batch)
    z = stats.standardize(batch)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-6)


# -- initial Q feature -------------------------------------------------------------


def test_initial_q_zero_critic():
    actor = Actor(4, 2, (8,), np.random.default_rng(12))
    critic = DenseNet([6, 8, 1], ["relu", "identity"], rng=np.random.default_rng(13))
    for W, b in zip(critic.weights, critic.biases):
        W[...] = 0.0
        b[...] = 0.0
    assert initial_q_feature(critic, actor, np.ones(4)) == 0.0


def test_initial_q_deterministic_and_matches_forward():
    for dtype in (np.float64, np.float32):
        rng = np.random.default_rng(14)
        actor = Actor(4, 2, (8,), rng, dtype=dtype)
        critic = DenseNet([6, 8, 1], ["relu", "identity"], rng=rng, dtype=dtype)
        obs = rng.normal(size=4).astype(dtype)
        q_a = initial_q_feature(critic, actor, obs)
        q_b = initial_q_feature(critic, actor, obs)
        assert type(q_a) is float
        assert q_a == q_b
        action, _ = actor.act(obs, mode="mean")
        direct = critic.forward(np.concatenate([obs, action]))[0]
        assert abs(q_a - direct) < 1e-12
        # a stack of observations: one value per row, each as the one-row call gives it
        stack = rng.normal(size=(7, 4)).astype(dtype)
        stacked = initial_q_feature(critic, actor, stack)
        assert stacked.shape == (7,)
        single = np.array([initial_q_feature(critic, actor, row) for row in stack])
        assert np.max(np.abs(stacked - single)) <= 1e-6
