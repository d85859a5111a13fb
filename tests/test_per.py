import threading

import numpy as np
import pytest

from docknav.per import (
    Episode,
    EpisodeQueue,
    PerConfig,
    PrioritizedReplay,
    QueueClosed,
    SumTree,
    anneal_b,
)

from _oracles import sumtree_find_prefix


def make_episode(worker_id=0, steps=3, seq=0):
    return Episode(
        worker_id=worker_id, task_type="random",
        features=np.zeros(5), fpi_prediction=float("nan"),
        observations=np.full((steps + 1, 4), float(seq)),
        actions=np.zeros((steps, 2)), rewards=np.arange(steps, dtype=float),
        terminals=np.array([False] * (steps - 1) + [True]),
        success=False, snapshot_version=seq,
    )


# -- sum tree -----------------------------------------------------------------


def test_capacity_must_be_power_of_two():
    with pytest.raises(ValueError):
        SumTree(5)


def test_single_push_total_mass():
    tree = SumTree(4)
    tree.set(0, 2.0)
    assert tree.total == 2.0


def test_prefix_walk_example():
    tree = SumTree(2)
    tree.set(0, 1.0)
    tree.set(1, 3.0)
    assert sumtree_find_prefix(tree, 2.4) == 1
    assert sumtree_find_prefix(tree, 0.5) == 0
    assert sumtree_find_prefix(tree, 1.0) == 0  # boundary goes left


def test_prefix_walk_matches_linear_scan_oracle():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 10_000:
        n = int(rng.integers(1, 64))
        cap = 1
        while cap < n:
            cap *= 2
        tree = SumTree(cap)
        priorities = rng.uniform(0.0, 5.0, size=n)
        for i, p in enumerate(priorities):
            tree.set(i, float(p))
        cumsum = np.cumsum(priorities)
        total = tree.total
        draws = rng.uniform(0.0, total, size=16)
        got = tree.find_prefix_batch(draws)
        for v, g in zip(draws, got):
            expected = int(np.searchsorted(cumsum, v, side="left"))
            assert g == min(expected, n - 1)
            assert sumtree_find_prefix(tree, float(v)) == g  # scalar path agrees
            checked += 1


def test_root_sum_invariant_after_mutations():
    rng = np.random.default_rng(1)
    tree = SumTree(256)
    for _ in range(10_000):
        tree.set(int(rng.integers(0, 256)), float(rng.uniform(0, 10)))
    leaves = tree.leaves()
    assert abs(tree.total - leaves.sum()) < 1e-9
    # every internal node equals the sum of its children
    for i in range(255):
        assert abs(tree.nodes[i] - (tree.nodes[2 * i + 1] + tree.nodes[2 * i + 2])) < 1e-9


@pytest.mark.parametrize("capacity,n", [(1, 1), (2, 1), (64, 37), (64, 64)])
def test_set_many_prefix_equals_sequential_sets(capacity, n):
    # checkpoint restore writes the first n leaves in one call
    priorities = np.random.default_rng(capacity + n).uniform(0.0, 5.0, size=n)
    one_by_one, batched = SumTree(capacity), SumTree(capacity)
    for i, p in enumerate(priorities):
        one_by_one.set(i, float(p))
    batched.set_many(np.arange(n), priorities)
    assert np.array_equal(batched.nodes, one_by_one.nodes)
    assert np.array_equal(batched.node_max, one_by_one.node_max)


@pytest.mark.parametrize("capacity", [1, 2, 64])
def test_empty_priority_update_changes_nothing(capacity):
    buf = PrioritizedReplay(capacity, obs_dim=1)
    buf.push(np.zeros(1), (0, 0), 0.0, np.zeros(1), False, td_error=3.0)
    before = buf.tree.nodes.tobytes(), buf.tree.node_max.tobytes()
    buf.tree.set_many([], [])
    buf.tree.set_many(np.arange(0), np.zeros(0))
    buf.update_priorities([], [])
    assert (buf.tree.nodes.tobytes(), buf.tree.node_max.tobytes()) == before


def test_max_leaf_tracks_current_maximum():
    tree = SumTree(8)
    tree.set(0, 5.0)
    tree.set(1, 7.0)
    assert tree.max_leaf == 7.0
    tree.set(1, 0.5)  # lowering the max is reflected exactly
    assert tree.max_leaf == 5.0


# -- replay buffer ---------------------------------------------------------------


def test_fifo_overwrite():
    buf = PrioritizedReplay(4, obs_dim=2)
    for i in range(5):
        buf.push(np.full(2, float(i)), (0, 0), 0.0, np.zeros(2), False)
    assert len(buf) == 4
    assert buf.obs[0, 0] == 4.0  # oldest slot reused
    assert buf.inserted_total == 5


def test_stored_priority_formula():
    buf = PrioritizedReplay(4, PerConfig(), obs_dim=1)
    buf.push(np.zeros(1), (0, 0), 0.0, np.zeros(1), False, td_error=1.0)
    expected = (1.0 + 1e-6) ** 0.6
    assert buf.tree.leaf(0) == pytest.approx(expected, abs=1e-12)


def test_new_transitions_get_max_priority():
    buf = PrioritizedReplay(8, obs_dim=1)
    buf.push(np.zeros(1), (0, 0), 0.0, np.zeros(1), False, td_error=4.0)
    buf.push(np.zeros(1), (0, 0), 0.0, np.zeros(1), False, td_error=0.1)
    fresh = buf.push(np.zeros(1), (0, 0), 0.0, np.zeros(1), False)
    assert buf.tree.leaf(fresh) == pytest.approx(buf.tree.leaf(0))


def test_uniform_priorities_give_unit_weights():
    buf = PrioritizedReplay(8, obs_dim=1)
    for _ in range(8):
        buf.push(np.zeros(1), (0, 0), 0.0, np.zeros(1), False, td_error=1.0)
    _, _, weights = buf.sample(4, b=0.5, rng=np.random.default_rng(2))
    assert np.allclose(weights, 1.0)


def test_importance_weights_formula():
    buf = PrioritizedReplay(4, PerConfig(priority_exponent=1.0, priority_floor=1e-12),
                            obs_dim=1)
    for p in (1.0, 3.0):
        buf.push(np.zeros(1), (0, 0), 0.0, np.zeros(1), False, td_error=p)
    batch, idx, weights = buf.sample(2, b=0.5, rng=np.random.default_rng(3))
    total = buf.tree.total
    probs = np.array([buf.tree.leaf(int(i)) for i in idx]) / total
    raw = (len(buf) * probs) ** (-0.5)
    assert np.allclose(weights, raw / raw.max())


def test_stratified_frequencies_converge():
    buf = PrioritizedReplay(4, PerConfig(priority_exponent=1.0, priority_floor=1e-12),
                            obs_dim=1)
    for p in (1.0, 2.0, 3.0, 4.0):
        buf.push(np.zeros(1), (0, 0), 0.0, np.zeros(1), False, td_error=p)
    rng = np.random.default_rng(4)
    n = 1_000_000
    total = buf.tree.total
    draws = total * (np.arange(n) + rng.uniform(0, 1, n)) / n
    idx = buf.tree.find_prefix_batch(draws)
    freq = np.bincount(idx, minlength=4) / n
    assert np.max(np.abs(freq - np.array([0.1, 0.2, 0.3, 0.4]))) < 0.01


def test_update_priorities_and_stale_index():
    buf = PrioritizedReplay(2, obs_dim=1)
    buf.push(np.zeros(1), (0, 0), 0.0, np.zeros(1), False, td_error=1.0)
    buf.push(np.ones(1), (0, 0), 0.0, np.zeros(1), False, td_error=1.0)
    before = buf.tree.total
    buf.update_priorities([0], [0.0])  # drops to the floor priority
    floor_p = (1e-6) ** 0.6
    assert buf.tree.total == pytest.approx(before - buf.tree.leaf(1) + floor_p)
    assert buf.tree.leaf(0) == pytest.approx(floor_p)
    # overwrite slot 0 (FIFO cursor wrapped), then a stale update to index 0
    # applies to the new occupant
    buf.push(np.full(1, 7.0), (0, 0), 0.0, np.zeros(1), False, td_error=2.0)
    buf.update_priorities([0], [5.0])
    assert buf.tree.leaf(0) == pytest.approx((5.0 + 1e-6) ** 0.6)


def test_equal_errors_restore_uniform_sampling():
    buf = PrioritizedReplay(4, obs_dim=1)
    for p in (0.5, 1.5, 2.5, 3.5):
        buf.push(np.zeros(1), (0, 0), 0.0, np.zeros(1), False, td_error=p)
    buf.update_priorities([0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0])
    _, _, weights = buf.sample(4, b=0.6, rng=np.random.default_rng(5))
    assert np.allclose(weights, 1.0)


def test_sample_from_small_buffer_raises():
    buf = PrioritizedReplay(4, obs_dim=1)
    with pytest.raises(ValueError):
        buf.sample(1, b=0.4, rng=np.random.default_rng(0))


def test_push_episode_stores_all_transitions():
    buf = PrioritizedReplay(16, obs_dim=4)
    ep = make_episode(worker_id=3, steps=5)
    buf.push_episode(ep)
    assert len(buf) == 5
    assert np.all(buf.worker_ids[:5] == 3)
    assert buf.terminals[4] and not buf.terminals[0]


# -- b annealing -------------------------------------------------------------------


def test_anneal_b_endpoints_and_midpoint():
    cfg = PerConfig()
    assert anneal_b(0.0, cfg) == pytest.approx(0.4)
    assert anneal_b(1.0, cfg) == pytest.approx(0.6)
    assert anneal_b(0.5, cfg) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        anneal_b(1.5, cfg)


# -- episode queue -------------------------------------------------------------------


def test_queue_preserves_episode_order_per_producer():
    q = EpisodeQueue(maxsize=4)
    n_producers, per_producer = 8, 50

    def produce(wid):
        for s in range(per_producer):
            q.put(make_episode(worker_id=wid, seq=s))

    threads = [threading.Thread(target=produce, args=(w,)) for w in range(n_producers)]
    for t in threads:
        t.start()
    received = []
    while len(received) < n_producers * per_producer:
        ep = q.get(timeout=5.0)
        assert ep is not None, "queue starved"
        received.append(ep)
    for t in threads:
        t.join()
    for w in range(n_producers):
        seqs = [ep.snapshot_version for ep in received if ep.worker_id == w]
        assert seqs == list(range(per_producer))  # no loss, duplication, reorder


def test_queue_close_unblocks_producers():
    q = EpisodeQueue(maxsize=1)
    q.put(make_episode())
    errors = []

    def produce():
        try:
            q.put(make_episode())
        except QueueClosed:
            errors.append("closed")

    t = threading.Thread(target=produce)
    t.start()
    q.close()
    t.join(timeout=5.0)
    assert errors == ["closed"]
