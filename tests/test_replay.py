from __future__ import annotations

import numpy as np
import pytest

from opdlab.distill import collect_teacher_trajectories, rollout_b2f, rollout_f2b, rollout_opd
from opdlab.env import EnvConfig, make_env, make_teacher
from opdlab.errors import ConfigError
from opdlab.policy import PolicyParams, forward_kl
from opdlab.replay import ExperienceEntry, RingBuffer, decompose


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def env():
    return make_env(EnvConfig())


@pytest.fixture(scope="module")
def teacher(env):
    return make_teacher(env)


def entry(i, version=0):
    return ExperienceEntry(history_key=(i,), action=0, student_dist=np.array([0.5, 0.5]),
                           teacher_dist=np.array([1.0, 0.0]), turn_index=0,
                           turn_kl=float(np.log(2.0)), policy_version=version)


def ids(entries):
    return [e.history_key[0] for e in entries]


# -- decompose --------------------------------------------------------------------


def test_decompose_one_entry_per_student_turn(env, teacher):
    student = PolicyParams(num_actions=env.config.num_actions)
    traj = rollout_opd(env, student, teacher, 0, rng(1))
    entries = decompose(traj)
    assert len(entries) == traj.rounds
    assert [e.turn_index for e in entries] == list(range(traj.rounds))


def test_decompose_skips_expert_prefix(env, teacher):
    sharp = make_teacher(env, on_support_temperature=1e-3)
    store = collect_teacher_trajectories(env, sharp, 1, rng(2))
    student = PolicyParams(num_actions=env.config.num_actions)
    traj = rollout_b2f(env, store, student, teacher, 0, 1, rng(3))
    entries = decompose(traj)
    assert len(entries) == traj.rounds
    assert traj.prefix_len == store.length(0) - 1
    assert all(e.turn_index >= traj.prefix_len for e in entries)


def test_decompose_counts_for_all_modes(env, teacher):
    student = PolicyParams(num_actions=env.config.num_actions)
    for traj in (rollout_opd(env, student, teacher, 1, rng(4)),
                 rollout_f2b(env, student, teacher, 1, 4, rng(5))):
        assert len(decompose(traj)) == traj.rounds


def test_entries_reconstruct_trajectory_loss(env, teacher):
    from opdlab.distill import trajectory_loss

    student = PolicyParams(num_actions=env.config.num_actions)
    traj = rollout_opd(env, student, teacher, 2, rng(6))
    loss, _ = trajectory_loss(traj)
    from_entries = sum(forward_kl(e.teacher_dist, e.student_dist)
                       for e in decompose(traj))
    assert from_entries == pytest.approx(loss, abs=1e-12)


# -- ring buffer -------------------------------------------------------------------


def test_ring_eviction_keeps_newest_in_order():
    buf = RingBuffer(capacity=2)
    buf.push([entry(1), entry(2), entry(3)])
    batch = buf.sample_batch(0, 10, 2, rng(0))
    assert sorted(ids(batch)) == [2, 3]


def test_ring_push_empty_is_noop():
    buf = RingBuffer(capacity=4)
    buf.push([entry(1)])
    buf.push([])
    assert len(buf) == 1


def test_ring_interleaved_pushes_serialize_in_order():
    buf = RingBuffer(capacity=10)
    a = [entry(i) for i in (0, 2, 4)]
    b = [entry(i) for i in (1, 3, 5)]
    for x, y in zip(a, b):
        buf.push([x])
        buf.push([y])
    everything = buf.sample_batch(0, 10, 10, rng(0))
    assert sorted(ids(everything)) == [0, 1, 2, 3, 4, 5]


def test_staleness_boundary_is_inclusive():
    buf = RingBuffer(capacity=10)
    buf.push([entry(1, version=3), entry(2, version=2)])
    batch = buf.sample_batch(current_version=5, delta_max=2, batch_size=10, rng=rng(0))
    assert ids(batch) == [1]  # 5-3=2 eligible, 5-2=3 discarded
    assert buf.discarded_stale_total == 1
    assert len(buf) == 1  # stale entry physically removed


def test_sampled_entries_always_within_staleness_bound():
    gen = rng(9)
    buf = RingBuffer(capacity=200)
    buf.push([entry(i, version=int(gen.integers(0, 8))) for i in range(100)])
    for current in range(3, 10):
        batch = buf.sample_batch(current, 2, 16, gen)
        assert all(current - e.policy_version <= 2 for e in batch)


def test_sample_without_replacement():
    buf = RingBuffer(capacity=50)
    buf.push([entry(i) for i in range(20)])
    batch = buf.sample_batch(0, 2, 20, rng(1))
    drawn = ids(batch)
    assert len(set(drawn)) == len(drawn)


def test_short_pool_returns_fewer():
    buf = RingBuffer(capacity=50)
    buf.push([entry(i) for i in range(3)])
    assert len(buf.sample_batch(0, 2, 32, rng(2))) == 3


def test_sample_empty_pool():
    buf = RingBuffer(capacity=4)
    assert buf.sample_batch(0, 2, 8, rng(3)) == []


def test_capacity_validation():
    with pytest.raises(ConfigError):
        RingBuffer(capacity=0)


def test_staleness_histogram():
    buf = RingBuffer(capacity=10)
    buf.push([entry(1, version=1), entry(2, version=1), entry(3, version=3)])
    assert buf.staleness_histogram(current_version=3) == {2: 2, 0: 1}


def test_version_counts_match_a_scan_through_eviction_and_discards():
    gen = rng(12)
    buf = RingBuffer(capacity=7)

    def check(current):
        versions = [e.policy_version for e in buf._entries]
        assert buf.count_at_version(current) == versions.count(current)
        for delta_max in range(4):
            assert buf.count_eligible(current, delta_max) == sum(
                1 for v in versions if current - v <= delta_max)
        hist = {}
        for v in versions:
            hist[current - v] = hist.get(current - v, 0) + 1
        assert buf.staleness_histogram(current) == hist

    version = 0
    for i in range(300):
        if gen.random() < 0.6:
            # pushes run past capacity, some longer than the buffer itself
            size = int(gen.integers(0, 10))
            buf.push([entry(i, version=version - int(gen.integers(0, 3)))
                      for _ in range(size)])
        else:
            version += int(gen.integers(0, 2))
            buf.sample_batch(version, int(gen.integers(0, 3)), 4, gen)
        check(version)
