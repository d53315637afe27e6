from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from opdlab.env import (
    COMPOUNDING_CHAIN,
    MEMORY_LOCK,
    EnvConfig,
    EnvState,
    make_env,
    make_teacher,
)
from opdlab.errors import ConfigError, UsageError

import oracles


def small_config(**kw):
    base = dict(num_actions=3, chain_length=3, horizon_cap=9,
                off_support_depth=2, task_count=2, seed=5)
    base.update(kw)
    return EnvConfig(**base)


def expert_rollout(env, task_id):
    state = env.reset(task_id)
    tokens = [state.token]
    while not state.done:
        state = env.step(state, env.expert_action(state))
        tokens.append(state.token)
    return state, tokens


def live_state(env, task_id, pos, recovery_left, turn):
    """A not-done state built by hand, with the token it would emit."""
    return EnvState(task_id=task_id, pos=pos, recovery_left=recovery_left, turn=turn,
                    done=False, success=False,
                    token=int(env.token[env.state_id(task_id, pos, recovery_left)]))


# -- determinism ---------------------------------------------------------------


def test_reset_is_deterministic():
    env = make_env(EnvConfig(seed=0))
    first = env.reset(0)
    for _ in range(5):
        assert env.reset(0) == first


def test_observation_sequence_bit_identical_across_instances():
    cfg = EnvConfig(seed=3)
    env_a, env_b = make_env(cfg), make_env(cfg)
    actions = np.random.default_rng(0).integers(0, cfg.num_actions, 12)
    for task in (0, 7, 31):
        sa, sb = env_a.reset(task), env_b.reset(task)
        seq_a, seq_b = [sa.token], [sb.token]
        for a in actions:
            if sa.done:
                break
            sa, sb = env_a.step(sa, int(a)), env_b.step(sb, int(a))
            seq_a.append(sa.token)
            seq_b.append(sb.token)
        assert seq_a == seq_b


# -- reset/step contracts --------------------------------------------------------


def test_reset_out_of_range_task():
    env = make_env(EnvConfig())
    with pytest.raises(ConfigError):
        env.reset(env.config.task_count)


def test_step_terminal_state_rejected():
    env = make_env(small_config())
    state, _ = expert_rollout(env, 0)
    assert state.done
    with pytest.raises(UsageError):
        env.step(state, 0)


def test_expert_path_succeeds_at_chain_length():
    env = make_env(EnvConfig())
    for task in range(env.config.task_count):
        state, _ = expert_rollout(env, task)
        assert state.success
        assert state.turn == env.config.chain_length


def test_truncation_at_horizon_without_goal():
    env = make_env(EnvConfig())
    state = env.reset(0)
    wrong = (env.correct_action(0, 0) + 1) % env.config.num_actions
    while not state.done:
        state = env.step(state, wrong)
    assert state.done and not state.success
    assert state.turn == env.config.horizon_cap


def test_success_implies_done():
    env = make_env(small_config())
    state = env.reset(0)
    while not state.done:
        state = env.step(state, env.expert_action(state))
        assert state.success == state.done or not state.success
    assert state.success and state.done


# -- play ------------------------------------------------------------------------------
#
# oracles.play, the walk over reset and step that other tests take as the reference


def mostly_expert(env, u, noise):
    """An action rule: the expert's action at turn t if u[t] < 0.7, else noise[t]."""
    def choose(state):
        t = state.turn
        return env.expert_action(state) if u[t] < 0.7 else int(noise[t])
    return choose


@pytest.mark.parametrize("kind", [COMPOUNDING_CHAIN, MEMORY_LOCK])
def test_play_equals_a_reset_step_loop_on_random_actions(kind):
    env = make_env(EnvConfig(kind=kind, seed=4))
    c = env.config
    gen = np.random.default_rng(17)
    wins = 0
    for episode in range(60):
        task = episode % c.task_count
        u, noise = gen.random(c.horizon_cap), gen.integers(0, c.num_actions, c.horizon_cap)
        stop = int(gen.integers(0, c.horizon_cap + 2))  # choose gives None from turn stop
        rule = mostly_expert(env, u, noise)

        states, actions = oracles.play(env, task, lambda s: rule(s) if s.turn < stop else None)

        state = env.reset(task)
        expected_states, expected_actions = [state], []
        while not state.done and state.turn < stop:
            a = rule(state)
            state = env.step(state, a)
            expected_states.append(state)
            expected_actions.append(a)
        assert states == expected_states
        assert actions == expected_actions
        assert states[0] == env.reset(task)
        assert len(states) == len(actions) + 1
        wins += states[-1].success
    assert 0 < wins < 60


@pytest.mark.parametrize("kind", [COMPOUNDING_CHAIN, MEMORY_LOCK])
def test_play_stops_when_done_and_when_choose_returns_none(kind):
    env = make_env(EnvConfig(kind=kind, seed=4))
    c = env.config
    states, actions = oracles.play(env, 2, env.expert_action)
    assert states[-1].done and states[-1].success and len(actions) == c.chain_length
    assert not any(s.done for s in states[:-1])

    wrong = (env.correct_action(2, 0) + 1) % c.num_actions
    states, actions = oracles.play(env, 2, lambda s: wrong)
    assert states[-1].done and not states[-1].success
    assert actions == [wrong] * c.horizon_cap

    states, actions = oracles.play(env, 2, lambda s: None)
    assert (states, actions) == ([env.reset(2)], [])
    states, actions = oracles.play(env, 2, lambda s: env.expert_action(s) if s.turn < 3 else None)
    assert len(actions) == 3 and [s.turn for s in states] == [0, 1, 2, 3]
    assert not states[-1].done


# -- brute-force transition oracle ------------------------------------------------


def brute_force_shortest(env, task, first_wrong):
    """Shortest successful action sequence by exhaustive enumeration."""
    n = env.config.num_actions
    for length in range(1, env.config.horizon_cap + 1):
        for seq in product(range(n), repeat=length):
            if first_wrong and seq[0] == env.correct_action(task, 0):
                continue
            state = env.reset(task)
            feasible = True
            for a in seq:
                if state.done:
                    feasible = False
                    break
                state = env.step(state, a)
            if feasible and state.success:
                return length
    return None


def test_one_error_costs_exactly_the_recovery_debt():
    env = make_env(small_config())
    for task in range(env.config.task_count):
        optimal = brute_force_shortest(env, task, first_wrong=False)
        with_error = brute_force_shortest(env, task, first_wrong=True)
        assert optimal == env.config.chain_length
        # one wasted turn plus off_support_depth consecutive recovery turns
        assert with_error == optimal + 1 + env.config.off_support_depth


def test_recovery_draws_stop_at_the_largest_debt_a_state_holds():
    env = make_env(EnvConfig())
    assert env.recovery_table.shape == (env.config.task_count, env.recovery_levels)
    assert env.recovery_levels - 1 == env.recovery.max()
    for task in (0, env.config.task_count - 1):
        last = env.recovery_table[task, -1]
        assert env.recovery_action(task, env.recovery_levels - 1) == last
        assert env.recovery_action(task, 10 * env.recovery_levels) == last


def test_reachability_within_horizon_for_every_task():
    env = make_env(EnvConfig())
    for task in range(env.config.task_count):
        state, _ = expert_rollout(env, task)
        assert state.success and state.turn <= env.config.horizon_cap


# -- memory lock -------------------------------------------------------------------


def test_memory_lock_golden_initial_observation():
    env = make_env(EnvConfig(kind=MEMORY_LOCK, seed=7))
    token = env.reset(3).token
    assert token == 23  # task 3, key symbol 5
    assert token % env.config.num_actions == 5


def test_memory_lock_requires_key_from_first_observation():
    env = make_env(EnvConfig(kind=MEMORY_LOCK, seed=7))
    state = env.reset(3)
    key = state.token % env.config.num_actions
    # follow the expert to the lock position, then try a non-key action
    while state.pos < env.config.chain_length - 1 and not state.done:
        state = env.step(state, env.expert_action(state))
    assert env.expert_action(state) == key
    wrong = (key + 1) % env.config.num_actions
    bad_state = env.step(state, wrong)
    assert not bad_state.success and bad_state.recovery_left > 0
    assert env.step(state, key).success


def test_memory_lock_observations_distinct_from_chain():
    chain = make_env(EnvConfig(seed=7))
    lock = make_env(EnvConfig(kind=MEMORY_LOCK, seed=7))
    assert lock.observation_alphabet_size > chain.observation_alphabet_size


# -- invariants ---------------------------------------------------------------------


def test_on_support_flag_tracks_recovery_debt():
    env = make_env(EnvConfig())
    state = env.reset(0)
    assert env.on_support(state)
    wrong = (env.correct_action(0, 0) + 1) % env.config.num_actions
    state = env.step(state, wrong)
    assert not env.on_support(state)
    for _ in range(env.config.off_support_depth):
        state = env.step(state, env.expert_action(state))
    assert env.on_support(state)


def test_token_ids_within_alphabet():
    env = make_env(EnvConfig())
    rng = np.random.default_rng(11)
    for task in range(0, env.config.task_count, 5):
        state = env.reset(task)
        assert 0 <= state.token < env.observation_alphabet_size
        while not state.done:
            state = env.step(state, int(rng.integers(0, 6)))
            assert 0 <= state.token < env.observation_alphabet_size


# -- constructed teacher ---------------------------------------------------------------


def test_teacher_sharp_limit():
    env = make_env(EnvConfig())
    teacher = make_teacher(env, on_support_temperature=1e-3)
    state = env.reset(0)
    dist = teacher.dist(state)
    assert dist[env.expert_action(state)] == pytest.approx(1.0, abs=1e-12)


def test_teacher_floor_one_is_uniform_off_support():
    env = make_env(EnvConfig())
    teacher = make_teacher(env, off_support_floor=1.0)
    state = env.reset(0)
    wrong = (env.correct_action(0, 0) + 1) % env.config.num_actions
    state = env.step(state, wrong)
    assert np.allclose(teacher.dist(state), 1.0 / env.config.num_actions, atol=1e-15)


def test_teacher_softmax_closed_form_four_actions():
    env = make_env(EnvConfig(num_actions=4))
    teacher = make_teacher(env, on_support_temperature=0.5)
    state = env.reset(0)  # turn 0: unit logit scaled by 1/temperature
    p = teacher.dist(state)[env.expert_action(state)]
    assert p == pytest.approx(math.exp(2) / (math.exp(2) + 3), abs=1e-12)
    assert p == pytest.approx(0.7112, abs=1e-4)


def entropy(p):
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def test_teacher_off_support_entropy_dominates_on_support():
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    for turn in range(env.config.horizon_cap):
        on = live_state(env, 0, min(turn, env.config.chain_length - 1), 0, turn)
        h_on = entropy(teacher.dist(on))
        for depth in (1, 2, 4, 8):
            off = live_state(env, 0, 2, depth, turn)
            assert entropy(teacher.dist(off)) >= h_on - 1e-12


def test_teacher_off_support_mass_floor():
    env = make_env(EnvConfig())
    floor = 0.3
    teacher = make_teacher(env, off_support_floor=floor)
    for depth in (1, 3, 9):
        state = live_state(env, 1, 1, depth, 5)
        assert (teacher.dist(state) >= floor / env.config.num_actions - 1e-15).all()


def test_teacher_materialized_matches_live_on_expert_path():
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    params = oracles.materialize(teacher)
    from opdlab.policy import encode_history, softmax

    for task in (0, 13):
        state = env.reset(task)
        observations, actions = [state.token], []
        while not state.done:
            key = encode_history(observations, actions)
            np.testing.assert_array_equal(softmax(params.logits[key]), teacher.dist(state))
            a = env.expert_action(state)
            state = env.step(state, a)
            actions.append(a)
            observations.append(state.token)


def test_teacher_parameter_validation():
    env = make_env(small_config())
    with pytest.raises(ConfigError):
        make_teacher(env, on_support_temperature=0.0)
    with pytest.raises(ConfigError):
        make_teacher(env, off_support_floor=0.0)
    with pytest.raises(ConfigError):
        make_teacher(env, off_support_floor=1.5)


# -- config validation -------------------------------------------------------------


def test_config_rejects_unreachable_chain():
    with pytest.raises(ConfigError):
        EnvConfig(chain_length=13, horizon_cap=12)


def test_config_rejects_bad_kind():
    with pytest.raises(ConfigError):
        EnvConfig(kind="maze")


def test_config_rejects_more_state_ids_than_int32_holds():
    """State ids are int32, so the config check refuses more than 2**31 of
    them, task_count * (chain_length + 1) * (off_support_depth * horizon_cap
    + 1), before any table is built; the default env at horizon_cap 1e8
    would ask for 5.8e10."""
    with pytest.raises(ConfigError, match="57600000288 state ids"):
        EnvConfig(horizon_cap=100_000_000)
    EnvConfig(task_count=2 ** 30, chain_length=1, off_support_depth=0)  # 2**31 ids
    with pytest.raises(ConfigError, match=f"{2 ** 31 + 2} state ids"):
        EnvConfig(task_count=2 ** 30 + 1, chain_length=1, off_support_depth=0)


def test_state_shape_is_the_layout_of_the_env_tables():
    """The ids the config check counts are the ids Env builds tables for."""
    config = EnvConfig(task_count=3, chain_length=4, horizon_cap=5, off_support_depth=2)
    env = make_env(config)
    assert len(env.next_state) == math.prod(config.state_shape)
    assert env.recovery_levels == config.state_shape[2]
    assert env.state_id(*(n - 1 for n in config.state_shape)) == len(env.next_state) - 1
