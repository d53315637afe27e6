from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from opdlab.distill import (
    _kl_block,
    apply_gradient,
    batch_gradient,
    collect_teacher_trajectories,
)
from opdlab.env import EnvConfig, make_env, make_teacher
from opdlab.errors import ConfigError
from opdlab.policy import KeyIndex, PolicyParams, forward_kl, softmax
from opdlab.replay import RingBuffer, Turns, decompose

from joined import episode


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def env():
    return make_env(EnvConfig())


@pytest.fixture(scope="module")
def teacher(env):
    return make_teacher(env)


KEYS = KeyIndex(2)  # the key ids of every entry pushed below


def turns(*entries):
    """Replay columns of the (key token, version) ``entries``: each has the
    key (token,), action 0, turn 0 and state id 0."""
    n = len(entries)
    zeros = np.zeros(n, dtype=np.int64)
    return Turns(KEYS, np.array([KEYS.intern((i,)) for i, _ in entries], dtype=np.int64),
                 zeros, zeros, zeros, np.array([v for _, v in entries], dtype=np.int64))


def entry(i, version=0):
    """The (key token, version) of one entry, as ``turns`` takes them."""
    return i, version


def ids(batch):
    return [key[0] for key in KEYS.keys(batch.key)]


# -- decompose --------------------------------------------------------------------


def test_decompose_one_entry_per_student_turn(env, teacher):
    student = PolicyParams(num_actions=env.config.num_actions)
    rollouts = episode("opd", env, student, teacher, 0, 12, rng(1))
    entries = decompose(rollouts)
    assert len(entries) == rollouts.rounds[0]
    assert entries.turn.tolist() == list(range(rollouts.rounds[0]))


def test_decompose_skips_expert_prefix(env, teacher):
    sharp = make_teacher(env, on_support_temperature=1e-3)
    store = collect_teacher_trajectories(env, sharp, 1, rng(2))
    student = PolicyParams(num_actions=env.config.num_actions)
    rollouts = episode("b2f", env, student, teacher, 0, 1, rng(3), store=store)
    entries = decompose(rollouts)
    assert len(entries) == rollouts.rounds[0]
    assert rollouts.prefix_len[0] == len(store.get(0)) - 1
    assert all(t >= rollouts.prefix_len[0] for t in entries.turn)


def test_decompose_counts_for_all_modes(env, teacher):
    student = PolicyParams(num_actions=env.config.num_actions)
    for rollouts in (episode("opd", env, student, teacher, 1, 12, rng(4)),
                     episode("f2b", env, student, teacher, 1, 4, rng(5))):
        assert len(decompose(rollouts)) == rollouts.rounds[0]


def test_entries_reconstruct_trajectory_loss(env, teacher):
    student = PolicyParams(num_actions=env.config.num_actions)
    rollouts = episode("opd", env, student, teacher, 2, 12, rng(6))
    entries = decompose(rollouts)
    loss = _kl_block(entries, student, teacher)[0]
    a = env.config.num_actions
    from_entries = sum(forward_kl(teacher.pairs(t, s)[:a],
                                  softmax(student.logits.get(key, student.default_logits)))
                       for t, s, key in zip(entries.turn, entries.state,
                                            rollouts.index.keys(entries.key)))
    assert from_entries == pytest.approx(loss, abs=1e-12)


def int_columns(columns):
    """The dataclass fields of ``columns`` but its key index, checked to be
    integer arrays."""
    arrays = [getattr(columns, f.name) for f in fields(columns) if f.name != "index"]
    assert arrays and all(np.issubdtype(x.dtype, np.integer) for x in arrays), arrays
    return arrays


def test_entries_and_the_buffer_hold_ints_only(env, teacher):
    """Rollouts record no float column but the turn KL; an entry, in a wave's
    student turns and in the buffer after pushes, evictions and stale
    discards, is ints only."""
    store = collect_teacher_trajectories(env, make_teacher(env, on_support_temperature=1e-3),
                                         1, rng(2))
    buf = RingBuffer(capacity=40)
    student, pushed = PolicyParams(num_actions=env.config.num_actions), 0
    for step in range(4):
        for algo, k in (("opd", 12), ("f2b", 4), ("b2f", 2)):
            rollouts = episode(algo, env, student, teacher, step, k, rng(step), store=store)
            assert [f.name for f in fields(rollouts) if f.name not in ("index", "algo")
                    and getattr(rollouts, f.name).dtype.kind == "f"] == ["kl"]
            entries = rollouts.student_turns()
            assert len(int_columns(entries)) == 5
            buf.push(entries)
            pushed += len(entries)
            int_columns(buf._turns)
        batch = buf.sample_batch(student.version, 0, 8, rng(step))
        int_columns(batch)
        int_columns(buf._turns)
        student = apply_gradient(student, batch_gradient(batch, student, teacher)[1], 0.5)
    evicted = pushed - buf.discarded_stale_total - len(buf)
    assert buf.discarded_stale_total > 0 and evicted > 0


# -- ring buffer -------------------------------------------------------------------


def test_ring_eviction_keeps_newest_in_order():
    buf = RingBuffer(capacity=2)
    buf.push(turns(entry(1), entry(2), entry(3)))
    batch = buf.sample_batch(0, 10, 2, rng(0))
    assert sorted(ids(batch)) == [2, 3]


def test_ring_push_empty_is_noop():
    buf = RingBuffer(capacity=4)
    buf.push(turns(entry(1)))
    buf.push(turns())
    assert len(buf) == 1


def test_ring_interleaved_pushes_serialize_in_order():
    buf = RingBuffer(capacity=10)
    a = [entry(i) for i in (0, 2, 4)]
    b = [entry(i) for i in (1, 3, 5)]
    for x, y in zip(a, b):
        buf.push(turns(x))
        buf.push(turns(y))
    everything = buf.sample_batch(0, 10, 10, rng(0))
    assert sorted(ids(everything)) == [0, 1, 2, 3, 4, 5]


def test_staleness_boundary_is_inclusive():
    buf = RingBuffer(capacity=10)
    buf.push(turns(entry(1, version=3), entry(2, version=2)))
    batch = buf.sample_batch(current_version=5, delta_max=2, batch_size=10, rng=rng(0))
    assert ids(batch) == [1]  # 5-3=2 eligible, 5-2=3 discarded
    assert buf.discarded_stale_total == 1
    assert len(buf) == 1  # stale entry physically removed


def test_sampled_entries_always_within_staleness_bound():
    gen = rng(9)
    buf = RingBuffer(capacity=200)
    buf.push(turns(*[entry(i, version=int(gen.integers(0, 8))) for i in range(100)]))
    for current in range(3, 10):
        batch = buf.sample_batch(current, 2, 16, gen)
        assert all(current - v <= 2 for v in batch.version)


def test_sample_without_replacement():
    buf = RingBuffer(capacity=50)
    buf.push(turns(*[entry(i) for i in range(20)]))
    batch = buf.sample_batch(0, 2, 20, rng(1))
    drawn = ids(batch)
    assert len(set(drawn)) == len(drawn)


def test_short_pool_returns_fewer():
    buf = RingBuffer(capacity=50)
    buf.push(turns(*[entry(i) for i in range(3)]))
    assert len(buf.sample_batch(0, 2, 32, rng(2))) == 3


def test_sample_empty_pool():
    buf = RingBuffer(capacity=4)
    assert buf.sample_batch(0, 2, 8, rng(3)) == []


def test_capacity_validation():
    with pytest.raises(ConfigError):
        RingBuffer(capacity=0)


def test_version_counts_match_a_scan_through_eviction_and_discards():
    gen = rng(12)
    buf = RingBuffer(capacity=7)

    def check(current):
        versions = buf._versions().tolist()
        assert buf.count_at_version(current) == versions.count(current)
        for delta_max in range(4):
            assert buf.count_eligible(current, delta_max) == sum(
                1 for v in versions if current - v <= delta_max)

    version = 0
    for i in range(300):
        if gen.random() < 0.6:
            # pushes run past capacity, some longer than the buffer itself
            size = int(gen.integers(0, 10))
            buf.push(turns(*[entry(i, version=version - int(gen.integers(0, 3)))
                             for _ in range(size)]))
        else:
            version += int(gen.integers(0, 2))
            buf.sample_batch(version, int(gen.integers(0, 3)), 4, gen)
        check(version)
