"""The lockstep evaluation path against the scalar definitions it batches."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from opdlab.distill import rollout_lockstep, rollout_opd
from opdlab.env import (
    COMPOUNDING_CHAIN,
    MEMORY_LOCK,
    EnvConfig,
    EnvState,
    make_env,
    make_teacher,
)
from opdlab.errors import UsageError
from opdlab.metrics import per_turn_kl_profile
from opdlab.policy import (
    PolicyParams,
    forward_kl,
    forward_kl_rows,
    sample_action,
    sample_rows,
    softmax,
    softmax_rows,
)
from opdlab.runtime import _episode_summary, evaluate


class RowRng:
    """Stands in for a Generator: random() returns u[0], u[1], ... in turn."""

    def __init__(self, u):
        self._u = iter(u.tolist())

    def random(self):
        return next(self._u)


def partial_student(teacher, window, seed):
    """The materialized teacher, damped and jittered, so episodes both win and fail."""
    gen = np.random.default_rng(seed)
    params = teacher.materialize(window)
    for key, row in params.logits.items():
        params.logits[key] = 0.25 * row + gen.normal(0.0, 0.5, row.shape)
    return params


def reachable_states(env):
    """Every (task, pos, recovery, turn) state reachable within the horizon."""
    seen = set()
    frontier = [env.reset(task)[0] for task in range(env.config.task_count)]
    while frontier:
        state = frontier.pop()
        key = (state.task_id, state.pos, state.recovery_left, state.turn)
        if state.done or key in seen:
            continue
        seen.add(key)
        frontier.extend(env.step(state, a)[0] for a in range(env.config.num_actions))
    return [EnvState(task_id=t, pos=p, recovery_left=r, turn=n, done=False, success=False)
            for t, p, r, n in sorted(seen)]


# -- oracle: lockstep evaluation equals the scalar rollouts ------------------------


@pytest.mark.parametrize("kind,window,temperature",
                         list(product((COMPOUNDING_CHAIN, MEMORY_LOCK), (None, 0, 2),
                                      (0.4, 1.0))))
def test_evaluate_matches_scalar_rollouts_on_same_uniforms(kind, window, temperature):
    env = make_env(EnvConfig(kind=kind))
    teacher = make_teacher(env)
    params = partial_student(teacher, window, seed=3)
    episodes, horizon = 64, env.config.horizon_cap
    record = evaluate(params, env, teacher, episodes, np.random.default_rng(11),
                      temperature=temperature, window=window, step=4, active_k=2)

    u = np.random.default_rng(11).random((episodes, horizon))
    trajs = [rollout_opd(env, params, teacher, e % env.config.task_count, RowRng(u[e]),
                         temperature=temperature, window=window)
             for e in range(episodes)]
    kl, rounds, success = rollout_lockstep(env, params, teacher,
                                           np.arange(episodes) % env.config.task_count,
                                           u, temperature=temperature, window=window)
    assert rounds.tolist() == [t.rounds for t in trajs]
    assert success.tolist() == [t.success for t in trajs]
    assert 0 < success.sum() < episodes  # the oracle sees both outcomes
    for e, traj in enumerate(trajs):
        expected = [turn.turn_kl for turn in traj.turns]
        np.testing.assert_allclose(kl[e, :traj.rounds], expected, rtol=1e-12, atol=0)
        assert not kl[e, traj.rounds:].any()

    expected = _episode_summary([t.success for t in trajs], [t.rounds for t in trajs],
                                [sum(turn.turn_kl for turn in t.turns) for t in trajs])
    assert record.success_rate == expected["success_rate"]
    assert record.avg_rounds == expected["avg_rounds"]
    for name in ("traj_kl_mean", "traj_kl_turn_mean"):
        assert getattr(record, name) == pytest.approx(expected[name], rel=1e-12)
    profile = per_turn_kl_profile(trajs)
    assert len(record.per_turn_kl) == len(profile)
    np.testing.assert_allclose(record.per_turn_kl, profile, rtol=1e-12, atol=0)
    assert (record.step, record.active_k, record.n_rollouts) == (4, 2, episodes)


def test_evaluate_draws_do_not_depend_on_batch_makeup():
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    params = partial_student(teacher, None, seed=5)
    u = np.random.default_rng(2).random((64, env.config.horizon_cap))
    tasks = np.arange(64) % env.config.task_count
    full = rollout_lockstep(env, params, teacher, tasks, u, temperature=0.4)
    part = rollout_lockstep(env, params, teacher, tasks[10:20], u[10:20], temperature=0.4)
    for whole, piece in zip(full, part):
        assert np.array_equal(whole[10:20], piece)


def test_rollout_lockstep_rejects_wrong_uniform_shape():
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    with pytest.raises(UsageError):
        rollout_lockstep(env, PolicyParams(num_actions=6), teacher, np.arange(4),
                         np.zeros((4, env.config.horizon_cap - 1)))


# -- the batched transition and teacher agree with the scalar ones ------------------


@pytest.mark.parametrize("config", [
    EnvConfig(task_count=8),
    EnvConfig(kind=MEMORY_LOCK, task_count=8),
    EnvConfig(num_actions=3, chain_length=3, horizon_cap=9, off_support_depth=0,
              task_count=4, seed=5),
    EnvConfig(kind=MEMORY_LOCK, num_actions=3, chain_length=2, horizon_cap=9,
              off_support_depth=3, task_count=4, seed=5),
], ids=["chain", "lock", "chain-depth0", "lock-depth3"])
def test_batched_step_and_teacher_match_scalar_on_every_reachable_state(config):
    env = make_env(config)
    teacher = make_teacher(env)
    states = reachable_states(env)
    n_actions = config.num_actions
    assert len(states) > config.task_count * config.chain_length
    task = np.array([s.task_id for s in states])
    pos = np.array([s.pos for s in states])
    recovery = np.array([s.recovery_left for s in states])
    turn = np.array([s.turn for s in states])

    assert env.expert_actions(task, pos, recovery).tolist() == \
        [env.expert_action(s) for s in states]
    for a in range(n_actions):
        new_pos, new_rec, tokens, success = env.step_batch(
            task, pos, recovery, np.full(len(states), a))
        for i, state in enumerate(states):
            after, result = env.step(state, a)
            assert (new_pos[i], new_rec[i], tokens[i], success[i]) == \
                (after.pos, after.recovery_left, result.observation.token_id,
                 result.success)

    for t in np.unique(turn):
        at = turn == t
        rows = teacher.dist_batch(task[at], pos[at], recovery[at], int(t))
        expected = [teacher.dist(s) for s, keep in zip(states, at) if keep]
        np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-15)
    assert env.initial_tokens.tolist() == \
        [env.reset(t)[1].token_id for t in range(config.task_count)]


def test_row_functions_match_their_scalar_forms():
    gen = np.random.default_rng(8)
    logits = gen.normal(0.0, 3.0, (50, 5))
    logits[0] = [40.0, 0.0, 0.0, 0.0, 0.0]  # underflowing entries
    u = gen.random(50)
    for temperature in (0.4, 1.0):
        q = softmax_rows(logits, temperature)
        np.testing.assert_allclose(q, [softmax(z, temperature) for z in logits],
                                   rtol=1e-13, atol=1e-300)
        assert sample_rows(q, u).tolist() == \
            [sample_action(row, RowRng(np.array([x]))) for row, x in zip(q, u)]
    p = softmax_rows(logits * 30.0)  # has exact zeros, which KL terms skip
    assert (p == 0).any()
    q = softmax_rows(logits)
    np.testing.assert_allclose(forward_kl_rows(p, q),
                               [forward_kl(a, b) for a, b in zip(p, q)],
                               rtol=1e-12, atol=1e-300)
