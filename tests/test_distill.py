from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opdlab.distill import (
    Rollouts,
    TeacherTrajectoryStore,
    _check_trajectory,
    _kl_block,
    apply_gradient,
    batch_gradient,
    collect_teacher_trajectories,
    load_store,
    nll_loss,
    save_store,
    sft_block,
    sft_update,
    store_turns,
)
from opdlab.env import COMPOUNDING_CHAIN, MEMORY_LOCK, EnvConfig, make_env, make_teacher
from opdlab.errors import ConfigError, UsageError
from opdlab.policy import (
    KeyIndex,
    PolicyParams,
    encode_history,
    forward_kl,
    kl_logit_gradient,
    softmax,
)
from opdlab.metrics import MetricsLog, TrainRecord
from opdlab.replay import Turns
from opdlab.runtime import RunConfig, _seed_streams, evaluate, run_training

import oracles
from joined import episode


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def env():
    return make_env(EnvConfig())


@pytest.fixture(scope="module")
def teacher(env):
    return make_teacher(env)


@pytest.fixture(scope="module")
def sharp_teacher(env):
    # effectively deterministic: softmax underflows to an exact one-hot
    return make_teacher(env, on_support_temperature=1e-3)


def uniform_student(env):
    return PolicyParams(num_actions=env.config.num_actions)


def logits_at(params, key):
    """The logits ``params`` gives ``key``: its row, or the default row."""
    return params.logits.get(key, params.default_logits)


def loss_and_grads(rollouts, params, teacher):
    """The summed KL and gradient of the student turns of ``rollouts`` at
    ``params`` against ``teacher``: what batch_gradient computes, before it
    averages."""
    return _kl_block(rollouts.student_turns(), params, teacher)[:2]


def played(r):
    """(p, n): episode 0 of the batch ``r`` played turns [0, p) from its expert
    prefix and turns [p, n) as the student."""
    p = int(r.prefix_len[0])
    return p, p + int(r.rounds[0])


def content_fields(r):
    """What a one-episode batch recorded: each turn's key (expert prefix
    first), the student turns' actions and KL, and the episode's counts."""
    p, n = played(r)
    return (r.index.keys(r.keys[0, :n]), r.actions[0, p:n].tolist(), r.kl[0, p:n].tolist(),
            r.versions.tolist(), r.success.tolist(), r.rounds.tolist(), r.prefix_len.tolist())


# -- opd rollouts -----------------------------------------------------------------


def test_opd_student_equals_teacher_zero_kl(env, sharp_teacher):
    params = oracles.materialize(sharp_teacher)
    r = episode("opd", env, params, sharp_teacher, 0, 12, rng(1))
    assert r.success[0]
    assert (r.kl[r.student_mask()] == 0.0).all()


def test_opd_uniform_student_turn0_kl_closed_form(env, teacher):
    r = episode("opd", env, uniform_student(env), teacher, 0, 12, rng(2))
    a = env.config.num_actions
    p = teacher.dist(env.reset(0))
    expected = float(np.sum(p * np.log(p * a)))
    assert r.kl[0, 0] == pytest.approx(expected, abs=1e-12)
    assert expected > 0


def test_opd_deterministic_per_seed(env, teacher):
    t1 = episode("opd", env, uniform_student(env), teacher, 5, 12, rng(42))
    t2 = episode("opd", env, uniform_student(env), teacher, 5, 12, rng(42))
    assert content_fields(t1) == content_fields(t2)


def test_opd_respects_horizon(env, teacher):
    r = episode("opd", env, uniform_student(env), teacher, 0, 12, rng(3))
    assert r.rounds[0] <= env.config.horizon_cap
    assert r.algo == "opd"


# -- f2b rollouts -----------------------------------------------------------------


def test_f2b_saturated_matches_opd(env, teacher):
    a = episode("opd", env, uniform_student(env), teacher, 3, 12, rng(7))
    b = episode("f2b", env, uniform_student(env), teacher, 3, env.config.horizon_cap, rng(7))
    assert content_fields(a) == content_fields(b)
    assert b.algo == "f2b"


def test_f2b_single_turn(env, teacher):
    r = episode("f2b", env, uniform_student(env), teacher, 0, 1, rng(8))
    assert r.rounds[0] == 1
    assert len(r.student_turns()) == 1


def test_f2b_truncated_optimal_student_cannot_succeed(env, sharp_teacher):
    params = oracles.materialize(sharp_teacher)
    r = episode("f2b", env, params, sharp_teacher, 0, 3, rng(9))
    assert r.rounds[0] == 3
    assert not r.success[0]


def test_f2b_rejects_bad_k(env, teacher):
    with pytest.raises(ConfigError):
        episode("f2b", env, uniform_student(env), teacher, 0, 0, rng(0))


# -- b2f rollouts -----------------------------------------------------------------


@pytest.fixture(scope="module")
def store(env, sharp_teacher):
    return collect_teacher_trajectories(env, sharp_teacher, 1, rng(100))


def test_b2f_full_k_matches_opd(env, teacher, store):
    a = episode("opd", env, uniform_student(env), teacher, 2, 12, rng(11))
    b = episode("b2f", env, uniform_student(env), teacher, 2, len(store.get(2)), rng(11),
                store=store)
    assert content_fields(a) == content_fields(b)
    assert b.prefix_len[0] == 0


def test_b2f_doorstep_prefix(env, teacher, store):
    r = episode("b2f", env, uniform_student(env), teacher, 4, 1, rng(12), store=store)
    assert len(store.get(4)) == 8
    assert r.prefix_len[0] == 7
    assert np.count_nonzero(r.keys[0, :7]) == 7  # every prefix turn has its key
    assert r.student_turns().turn[0] == 7
    assert r.rounds[0] >= 1


def test_b2f_missing_task(env, teacher):
    empty = TeacherTrajectoryStore()
    with pytest.raises(ConfigError):
        episode("b2f", env, uniform_student(env), teacher, 0, 1, rng(0), store=empty)


def test_b2f_prefix_only_keys_do_not_move_loss(env, teacher, store):
    student = uniform_student(env)
    r = episode("b2f", env, student, teacher, 1, 2, rng(13), store=store)
    p, n = played(r)
    keys = r.index.keys(r.keys[0, :n])
    prefix_only = [key for key in keys[:p] if key not in keys[p:]]
    assert prefix_only
    base_loss, base_grads = loss_and_grads(r, student, teacher)
    perturbed = student.snapshot().with_rows(
        np.array([r.index.find(key) for key in prefix_only]),
        np.tile([100.0, -3.0, 7.0, 0.0, 1.0, -50.0], (len(prefix_only), 1)), student.version)
    new_loss, new_grads = loss_and_grads(r, perturbed, teacher)
    assert new_loss == base_loss
    assert set(base_grads) == set(new_grads)
    assert not (set(new_grads) & set(prefix_only))


# -- the per-turn record -------------------------------------------------------------


@pytest.mark.parametrize("window", [None, 2])
def test_b2f_prefix_keys_are_the_stored_turns_keys(env, teacher, store, window):
    # the rollout's prefix and store_turns over a store holding only that
    # task, on one key index, so their key ids are equal
    for task, k in ((4, 1), (1, 3), (7, 5)):
        student = uniform_student(env)
        r = episode("b2f", env, student, teacher, task, k, rng(14), store=store, window=window)
        only_task = TeacherTrajectoryStore(actions_by_task={task: store.get(task)})
        ids, actions = store_turns(env, teacher, only_task, student, window)
        p = r.prefix_len[0]
        assert p == len(store.get(task)) - k
        assert r.keys[0, :p].tolist() == ids[:p].tolist()
        assert actions.tolist() == store.get(task)
        assert r.student_turns().turn[0] == p


def test_rollouts_record_one_entry_per_student_turn(env, teacher, store):
    student = PolicyParams(num_actions=env.config.num_actions, version=3)
    for r in (episode("opd", env, student, teacher, 3, 12, rng(15)),
              episode("f2b", env, student, teacher, 3, 4, rng(15)),
              episode("b2f", env, student, teacher, 3, 2, rng(15), store=store)):
        turns = r.student_turns()
        assert r.rounds[0] == len(turns) >= 1
        assert turns.turn.tolist() == list(range(*played(r)))
        assert (turns.version == 3).all()


# -- the loss of a rollout's student turns --------------------------------------------


def one_episode(keys, teacher_rows, index, prefix_len=0):
    """A one-episode batch, made by hand, whose turns have the keys ``keys``
    (interned in ``index``; the first ``prefix_len`` of an expert prefix) and
    turn t the state id t, and the RowTeacher whose row at state id t is
    teacher_rows[t]; what the losses do not read is 0."""
    n = len(keys)
    return Rollouts(index, "opd", np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
                    np.array([[index.intern(k) for k in keys]], dtype=np.int64),
                    np.zeros((1, n), dtype=np.int64), np.arange(n)[None],
                    np.zeros((1, n)), np.array([prefix_len]), np.array([n - prefix_len]),
                    np.zeros(1, dtype=bool)), oracles.RowTeacher(teacher_rows)


def synthetic_episode(p, q, key=(1, 0, 2)):
    """A one-turn episode with teacher row p, its teacher, and params whose
    row at its key is log q, so the student's distribution there is q up to
    round-off."""
    params = PolicyParams(num_actions=len(q), logits={key: np.log(q)})
    return *one_episode([key], [p], params.index), params


def test_loss_single_turn_closed_form():
    r, teacher, params = synthetic_episode([1.0, 0.0], [0.5, 0.5])
    loss, grads = loss_and_grads(r, params, teacher)
    assert loss == pytest.approx(math.log(2), abs=1e-12)
    assert np.allclose(grads[(1, 0, 2)], [-0.5, 0.5], atol=1e-15)


def test_loss_zero_when_matched():
    r, teacher, params = synthetic_episode([0.25, 0.75], [0.25, 0.75])
    loss, grads = loss_and_grads(r, params, teacher)
    # softmax(log q) is q up to one ulp, so the KL is 0 up to round-off
    assert loss == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(grads[(1, 0, 2)], 0.0, atol=1e-15)


def test_loss_all_prefix_is_empty():
    params = PolicyParams(num_actions=2)
    r, teacher = one_episode([(0,)], [[0.5, 0.5]], params.index, prefix_len=1)
    assert (r.rounds[0], r.prefix_len[0]) == (0, 1)
    loss, grads = loss_and_grads(r, params, teacher)
    assert math.copysign(1.0, loss) == 1.0 and loss == 0.0
    assert len(grads) == 0 and grads.rows.shape == (0, 2)


def test_loss_matches_recorded_kl_sum(env, teacher):
    student = uniform_student(env)
    r = episode("opd", env, student, teacher, 1, 12, rng(21))
    loss, _ = loss_and_grads(r, student, teacher)
    assert loss == pytest.approx(sum(r.kl[r.student_mask()].tolist()), abs=1e-12)
    # an equal table gives the same loss: it depends on the rows, not the object
    recomputed, _ = loss_and_grads(r, student.snapshot(), teacher)
    assert recomputed == pytest.approx(loss, abs=1e-12)


# -- collection -------------------------------------------------------------------


def test_collect_oracle_teacher_pass1_full_coverage(env, sharp_teacher):
    store = collect_teacher_trajectories(env, sharp_teacher, 1, rng(31))
    assert len(store) == env.config.task_count
    assert all(len(store.get(t)) == env.config.chain_length
               for t in store.task_ids())


def test_collect_default_teacher_pass10_covers_all_tasks(env, teacher):
    for seed in range(5):
        store = collect_teacher_trajectories(env, teacher, 10, rng(seed))
        assert len(store) == env.config.task_count
        assert not store.skipped_tasks


def test_collect_uniform_teacher_yields_empty_store(env):
    sabotaged = make_teacher(env, off_support_floor=1.0, on_support_temperature=1e6)
    store = collect_teacher_trajectories(env, sabotaged, 10, rng(17))
    assert len(store) == 0
    assert len(store.skipped_tasks) == env.config.task_count
    with pytest.raises(ConfigError):
        run_training(RunConfig(algo="b2f", total_steps=2), store)


@pytest.mark.parametrize("kind", [COMPOUNDING_CHAIN, MEMORY_LOCK])
@pytest.mark.parametrize("pass_m", [1, 10])
def test_collection_equals_the_oracle_collection(kind, pass_m):
    """The state-id walk keeps the stores and the draws of play episodes that
    sample teacher.dist: for the default teacher, one that skips some tasks
    at either pass_m, and one that skips them all."""
    env = make_env(EnvConfig(kind=kind, seed=2))
    for teacher in (make_teacher(env), make_teacher(env, on_support_temperature=1.0),
                    make_teacher(env, off_support_floor=1.0, on_support_temperature=1e6)):
        gen, oracle_gen = rng(8), rng(8)
        store = collect_teacher_trajectories(env, teacher, pass_m, gen, 8)
        assert store == oracles.collect_teacher_trajectories(env, teacher, pass_m, oracle_gen, 8)
        assert gen.random() == oracle_gen.random()  # as many draws
        if teacher.config.on_support_temperature == 1.0:
            assert 0 < len(store) < env.config.task_count


def test_store_round_trip_and_revalidation(env, sharp_teacher, tmp_path):
    store = collect_teacher_trajectories(env, sharp_teacher, 1, rng(5),
                                         collection_seed=5)
    path = tmp_path / "store.jsonl"
    save_store(store, path)
    loaded = load_store(path, env)
    assert loaded.actions_by_task == store.actions_by_task
    assert loaded.collection_seed == 5


def test_store_load_rejects_broken_replay(env, sharp_teacher, tmp_path):
    store = collect_teacher_trajectories(env, sharp_teacher, 1, rng(5))
    task0 = store.task_ids()[0]
    store.actions_by_task[task0][0] = (store.actions_by_task[task0][0] + 1) % 6
    with pytest.raises(ConfigError):
        _check_trajectory(env, task0, store.actions_by_task[task0])
    path = tmp_path / "store.jsonl"
    save_store(store, path)
    with pytest.raises(ConfigError):
        load_store(path, env)


@pytest.mark.parametrize("field,value", [("task_id", 0.2), ("task_id", 0.0),
                                         ("task_id", True), ("length", 8.0),
                                         ("actions", "shift"), ("actions", [False])])
def test_load_store_rejects_values_that_are_not_ints(env, store, tmp_path, field, value):
    # int() would read task_id 0.2 as task 0, and actions [1.7, 4.7] as [1, 4]
    path = tmp_path / "store.jsonl"
    save_store(store, path)
    header, first, *rest = path.read_text().splitlines()
    row = json.loads(first)
    if value == "shift":
        value = [a + 0.7 for a in row["actions"]]
    row[field] = value
    path.write_text("\n".join([header, json.dumps(row), *rest]) + "\n")
    with pytest.raises(ConfigError) as err:
        load_store(path, env)
    assert str(err.value) == f"{path}: line 2: task_id, length and actions must be ints"


@pytest.mark.parametrize("field,value", [("skipped_tasks", [0.5, "x"]), ("skipped_tasks", [True]),
                                         ("skipped_tasks", "3"), ("collection_seed", 2.5),
                                         ("collection_seed", "5")])
def test_load_store_rejects_header_values_that_are_not_ints(env, store, tmp_path, field,
                                                            value):
    # these were kept as they were, where a row's task ids and actions must be ints
    path = tmp_path / "store.jsonl"
    save_store(store, path)
    header, *rows = path.read_text().splitlines()
    header = json.loads(header)
    header[field] = value
    path.write_text("\n".join([json.dumps(header), *rows]) + "\n")
    with pytest.raises(ConfigError) as err:
        load_store(path, env)
    assert str(err.value) == (f"{path}: line 1: collection_seed must be an int or null and "
                              "skipped_tasks a list of ints")


def test_load_store_rejects_a_task_row_that_repeats_an_earlier_one(env, store, tmp_path):
    # a dict would keep the last row of the task and load a store of 32 tasks
    path = tmp_path / "store.jsonl"
    save_store(store, path)
    header, first, *rest = path.read_text().splitlines()
    path.write_text("\n".join([header, first, *rest, first]) + "\n")
    with pytest.raises(ConfigError) as err:
        load_store(path, env)
    assert str(err.value) == f"{path}: line {len(rest) + 3}: task 0 has a row on an earlier line"


@pytest.mark.parametrize("task_id", [-1, 32])
def test_load_store_rejects_a_task_id_out_of_range(env, store, tmp_path, task_id):
    path = tmp_path / "store.jsonl"
    save_store(store, path)
    header, first, *rest = path.read_text().splitlines()
    row = dict(json.loads(first), task_id=task_id)
    path.write_text("\n".join([header, *rest, json.dumps(row)]) + "\n")
    with pytest.raises(ConfigError) as err:
        load_store(path, env)
    assert str(err.value) == (f"{path}: line {len(rest) + 2}: "
                              f"task_id {task_id} out of range [0, 32)")


def test_the_store_check_accepts_every_collected_trajectory(env, store):
    for task in store.task_ids():
        actions = store.get(task)
        assert _check_trajectory(env, task, actions) is None
        assert actions == oracles.play(env, task, env.expert_action)[1]  # the sharp expert's path


def bad_trajectory(env, store, case):
    """A stored trajectory for task 0 that must not load, of the given kind."""
    c, actions = env.config, store.get(0)
    if case == "goal_before_last_action":
        return actions + [actions[0]]
    if case == "ends_off_goal":
        return actions[:-1]
    # two errors and their recoveries, then the chain: it would reach the goal
    # only after horizon_cap turns
    wrong = (env.correct_action(0, 0) + 1) % c.num_actions
    detour = [wrong] + [env.recovery_action(0, d) for d in range(c.off_support_depth, 0, -1)]
    too_long = 2 * detour + [env.correct_action(0, pos) for pos in range(c.chain_length)]
    assert len(too_long) > c.horizon_cap
    return too_long


@pytest.mark.parametrize("case", ["goal_before_last_action", "longer_than_horizon_cap",
                                  "ends_off_goal"])
def test_replay_and_load_store_reject_bad_trajectories(env, teacher, store, tmp_path, case):
    actions = bad_trajectory(env, store, case)
    with pytest.raises(ConfigError, match="task 0 "):
        _check_trajectory(env, 0, actions)
    bad = TeacherTrajectoryStore(actions_by_task={**store.actions_by_task, 0: actions})
    with pytest.raises(ConfigError, match="task 0 "):
        store_turns(env, teacher, bad, uniform_student(env))
    path = tmp_path / "store.jsonl"
    save_store(bad, path)
    with pytest.raises(ConfigError) as err:
        load_store(path, env)
    assert str(err.value).startswith(f"{path}: ")


# -- SFT baseline -----------------------------------------------------------------


def stored_turns(env, teacher, store, params, window=None):
    """store_turns as (history key, expert action) pairs, its keys interned in
    ``params.index``."""
    ids, actions = store_turns(env, teacher, store, params, window)
    return list(zip(params.index.keys(ids), actions.tolist()))


def block_of(turns, params):
    """sft_block of the (history key, expert action) pairs ``turns``, whose
    keys are interned in ``params.index``."""
    ids = np.array([params.index.intern(key) for key, _ in turns], dtype=np.int64)
    return sft_block(ids, [a for _, a in turns], params)


def table_of(block, params):
    """The block's rows written over a copy of ``params``, as an sft run writes
    them into its table."""
    return params.snapshot().with_rows(block.ids, block.z, block.version)


def sft_step(turns, params, lr):
    """One sft_update from ``params``, as a table."""
    return table_of(sft_update(block_of(turns, params), lr), params)


def nll(turns, params):
    return nll_loss(block_of(turns, params))


@pytest.mark.parametrize("kind", [COMPOUNDING_CHAIN, MEMORY_LOCK])
@pytest.mark.parametrize("window", [None, 0, 2])
def test_store_turns_keys_are_those_of_the_oracle_walk(kind, window):
    """The engine's key of each stored turn is encode_history of the tokens
    and actions of the trajectory replayed through reset and step; a soft
    teacher's detours make keys with recovery tokens."""
    env = make_env(EnvConfig(kind=kind, seed=3))
    teacher = make_teacher(env, on_support_temperature=1.0)
    store = collect_teacher_trajectories(env, teacher, 10, rng(6))
    assert len(store) > 20 and store.max_length() > env.config.chain_length
    params = uniform_student(env)
    ids, actions = store_turns(env, teacher, store, params, window)
    expected = oracles.store_turns(env, store, window)
    assert params.index.keys(ids) == [key for key, _ in expected]
    assert actions.tolist() == [a for _, a in expected]


def test_sft_update_moves_toward_expert_actions(env, sharp_teacher):
    store = collect_teacher_trajectories(env, sharp_teacher, 1, rng(41))
    student = uniform_student(env)
    turns = stored_turns(env, sharp_teacher, store, student)
    updated = sft_step(turns, student, 0.5)
    assert updated.version == student.version + 1
    assert nll(turns, updated) < nll(turns, student)
    for key, a_star in turns:
        before = softmax(logits_at(student, key))[a_star]
        after = softmax(logits_at(updated, key))[a_star]
        assert after > before


def test_sft_near_minimum_has_small_update(env, sharp_teacher):
    store = collect_teacher_trajectories(env, sharp_teacher, 1, rng(42))
    params = oracles.materialize(sharp_teacher)
    turns = stored_turns(env, sharp_teacher, store, params)
    updated = sft_step(turns, params, 0.5)
    deltas = [np.abs(logits_at(updated, k) - logits_at(params, k)).max()
              for k, _ in turns]
    assert max(deltas) < 1e-6


def test_sft_nll_gradient_matches_finite_differences(env, sharp_teacher):
    store = collect_teacher_trajectories(env, sharp_teacher, 1, rng(43))
    gen = rng(44)
    step = 1e-5
    for _key, a_star in stored_turns(env, sharp_teacher, store, uniform_student(env))[:10]:
        z = gen.normal(0, 1.0, env.config.num_actions)
        numeric = np.zeros_like(z)
        for i in range(len(z)):
            zp, zm = z.copy(), z.copy()
            zp[i] += step
            zm[i] -= step
            numeric[i] = (-math.log(softmax(zp)[a_star])
                          + math.log(softmax(zm)[a_star])) / (2 * step)
        analytic = softmax(z).copy()
        analytic[a_star] -= 1.0
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-6


def test_sft_uniform_single_turn_direction():
    # two actions, expert picks 0: NLL gradient is q - onehot = [-0.5, +0.5]
    z = np.zeros(2)
    analytic = softmax(z).copy()
    analytic[0] -= 1.0
    assert np.allclose(analytic, [-0.5, 0.5])


def test_sft_on_no_turns():
    student = PolicyParams(num_actions=2)
    assert nll([], student) == 0.0
    with pytest.raises(ConfigError):
        sft_step([], student, 0.5)


def test_nll_of_certain_turns_is_positive_zero():
    # -log 1 is -0.0 per turn; the per-turn loop's 0.0 - 0.0 sum is +0.0
    student = PolicyParams(2, {(0,): np.array([400.0, -400.0])})
    assert math.copysign(1.0, nll([((0,), 0), ((0,), 0)], student)) == 1.0


# -- learner step -----------------------------------------------------------------


def entries(batch, index):
    """Replay columns of the (key, teacher row) pairs ``batch``, keys interned
    in ``index`` and entry i at state id i, and the RowTeacher of their rows;
    batch_gradient reads only the key ids, turns and state ids."""
    n = len(batch)
    zeros = np.zeros(n, dtype=np.int64)
    return (Turns(index, np.array([index.intern(key) for key, _ in batch], dtype=np.int64),
                  zeros, zeros, np.arange(n), zeros),
            oracles.RowTeacher([p for _, p in batch]))


def learner_gradient(batch, index, params):
    """batch_gradient of the entries of the (key, teacher row) pairs ``batch``."""
    turns, teacher = entries(batch, index)
    return batch_gradient(turns, params, teacher)


def gradient_step(batch, params, lr):
    """The runtime's learner update on the (key, teacher row) pairs ``batch``:
    batch_gradient, then apply_gradient."""
    _, grads = learner_gradient(batch, params.index, params)
    return apply_gradient(params, grads, lr)


def entry(key, p):
    return key, np.array(p)


def test_learner_step_noop_when_matched():
    params = PolicyParams(num_actions=2)
    batch = [entry((0,), [0.5, 0.5])]
    updated = gradient_step(batch, params.snapshot(), 0.1)
    assert updated.version == 1
    assert np.allclose(logits_at(updated, (0,)), logits_at(params, (0,)), atol=1e-15)


def test_learner_step_gradient_descent_arithmetic():
    params = PolicyParams(num_actions=2)
    batch = [entry((7,), [1.0, 0.0])]
    updated = gradient_step(batch, params, 0.1)
    assert np.allclose(logits_at(updated, (7,)), [0.05, -0.05], atol=1e-15)


def test_learner_step_averages_repeated_keys():
    params = PolicyParams(num_actions=2)
    batch = [entry((1,), [1.0, 0.0]),
             entry((1,), [1.0, 0.0])]
    one = gradient_step([batch[0]], params.snapshot(), 0.1)
    two = gradient_step(batch, params, 0.1)
    assert np.allclose(logits_at(one, (1,)), logits_at(two, (1,)), atol=1e-15)


def test_batch_gradient_refuses_turns_of_another_key_index():
    """Key ids mean nothing outside their KeyIndex: turns of another one are
    refused, even when that index holds the same keys."""
    rows = {(0,): np.array([0.5, -0.5])}
    params, twin = PolicyParams(2, rows), PolicyParams(2, rows)
    for index in (KeyIndex(2), twin.index):
        with pytest.raises(UsageError, match="another KeyIndex"):
            learner_gradient([entry((0,), [1.0, 0.0])], index, params)
    assert learner_gradient([entry((0,), [1.0, 0.0])], params.index, params)[0] > 0


def test_learner_step_empty_batch_rejected():
    with pytest.raises(UsageError):
        gradient_step([], PolicyParams(num_actions=2), 0.1)


def test_learner_version_strictly_increments():
    params = PolicyParams(num_actions=2)
    for expected in range(1, 5):
        params = gradient_step([entry((0,), [1.0, 0.0])], params, 0.1)
        assert params.version == expected


def test_repeated_steps_on_fixed_batch_descend_kl():
    gen = rng(55)
    params = PolicyParams(num_actions=4)
    batch = []
    for i in range(6):
        p = gen.uniform(0.05, 1.0, 4)
        batch.append(entry((i,), p / p.sum()))
    previous = None
    for _ in range(100):
        kl = sum(forward_kl(p, softmax(logits_at(params, key))) for key, p in batch)
        if previous is not None:
            assert kl <= previous + 1e-12
        previous = kl
        params = gradient_step(batch, params, 1.0)


def test_snapshots_unaffected_by_later_updates():
    params = PolicyParams(num_actions=2)
    snap = params.snapshot()
    updated = gradient_step([entry((3,), [1.0, 0.0])], params, 0.5)
    assert (3,) not in snap.logits
    assert (3,) in updated.logits


# -- row-block learner against the per-entry definitions ----------------------------
#
# batch_gradient, sft_update, nll_loss and the loss of a rollout work on (N, A) row
# blocks; each must be bitwise equal to a loop over the scalar definitions,
# entry by entry.


def same_bits(x, y):
    return np.asarray(x, dtype=np.float64).tobytes() == np.asarray(y, dtype=np.float64).tobytes()


@st.composite
def row_block_case(draw):
    """A table with some of a small key pool stored, and keys drawn with repeats."""
    a = draw(st.integers(2, 12))
    pool = draw(st.integers(1, 6))
    # wide logits, so softmax rows can hold exact zeros
    row = arrays(np.float64, a, elements=st.floats(-400, 400))
    default, rows = draw(row), {}
    for i in range(pool):
        if draw(st.booleans()):  # the other keys are unseen: default row
            rows[(i,)] = draw(row)
    params = PolicyParams(a, rows, default)
    n = draw(st.integers(1, 40))
    keys = [(i,) for i in draw(st.lists(st.integers(0, pool - 1), min_size=n, max_size=n))]
    return params, keys


@st.composite
def teacher_rows(draw, n, a):
    """n distributions over a actions whose entries may be exactly zero."""
    raw = draw(arrays(np.float64, (n, a),
                      elements=st.one_of(st.just(0.0), st.floats(1e-6, 1.0))))
    raw[np.arange(n), draw(arrays(np.int64, n, elements=st.integers(0, a - 1)))] += 0.5
    return raw / raw.sum(axis=1, keepdims=True)


def reference_batch_gradient(batch, params):
    loss = 0.0
    sums, counts = {}, {}
    for key, p in batch:
        q = softmax(logits_at(params, key))
        loss += forward_kl(p, q)
        g = kl_logit_gradient(p, q)
        sums[key] = sums[key] + g if key in sums else g
        counts[key] = counts.get(key, 0) + 1
    return loss / len(batch), {k: sums[k] / counts[k] for k in sums}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batch_gradient_bitwise_equals_per_entry_loop(data):
    params, keys = data.draw(row_block_case())
    p = data.draw(teacher_rows(len(keys), params.num_actions))
    batch = [entry(k, row) for k, row in zip(keys, p)]
    loss, grads = learner_gradient(batch, params.index, params)
    ref_loss, ref_grads = reference_batch_gradient(batch, params)
    assert same_bits(loss, ref_loss)
    assert list(grads) == list(ref_grads)
    assert all(same_bits(grads[k], ref_grads[k]) for k in grads)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sft_update_and_nll_bitwise_equal_per_turn_loop(data):
    params, keys = data.draw(row_block_case())
    turns = [(k, data.draw(st.integers(0, params.num_actions - 1))) for k in keys]
    ref_grads, ref_nll = {}, 0.0
    for key, a_star in turns:
        q = softmax(logits_at(params, key))
        g = q.copy()
        g[a_star] -= 1.0
        ref_grads[key] = ref_grads[key] + g if key in ref_grads else g
        ref_nll -= float(np.log(max(q[a_star], 1e-300)))
    assert same_bits(nll(turns, params), ref_nll)
    updated = sft_step(turns, params, 0.7)
    expected = apply_gradient(params, ref_grads, 0.7)
    assert list(updated.logits) == list(expected.logits)
    assert all(same_bits(updated.logits[k], expected.logits[k]) for k in updated.logits)
    assert updated.version == expected.version


def per_turn_trajectory_loss(turns, params):
    """loss_and_grads as a loop over the (key, teacher row) pairs ``turns``:
    the reference for its row block."""
    loss = 0.0
    grads = {}
    for key, p in turns:
        q = softmax(logits_at(params, key))
        loss += forward_kl(p, q)
        g = kl_logit_gradient(p, q)
        acc = grads.get(key)
        grads[key] = g if acc is None else acc + g
    return loss, grads


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_trajectory_loss_bitwise_equals_per_turn_loop(data):
    params, keys = data.draw(row_block_case())
    p = data.draw(teacher_rows(len(keys), params.num_actions))
    r, teacher = one_episode(keys, p, params.index)
    loss, grads = loss_and_grads(r, params, teacher)
    ref_loss, ref_grads = per_turn_trajectory_loss(zip(keys, p), params)
    assert same_bits(loss, ref_loss)
    assert list(grads) == list(ref_grads)
    assert all(same_bits(grads[k], ref_grads[k]) for k in grads)


# -- the SFT block and the row-block apply_gradient against per-key loops ----------


def reference_sft(turns, params, lr, steps):
    """SFT by its per-turn definitions on a dict table: each step sums every
    turn's softmax - onehot per key in turn order, updates each key's row in
    first-occurrence order, then takes the NLL turn by turn. Returns the
    table and NLL after each step."""
    default = params.default_logits
    logits = dict(params.logits)
    tables, losses = [], []
    for _ in range(steps):
        grads = {}
        for key, a_star in turns:
            g = softmax(logits.get(key, default)).copy()
            g[a_star] -= 1.0
            grads[key] = grads[key] + g if key in grads else g
        for key, g in grads.items():
            logits[key] = logits.get(key, default) - lr * g
        loss = 0.0
        for key, a_star in turns:
            loss -= float(np.log(max(softmax(logits.get(key, default))[a_star], 1e-300)))
        tables.append(dict(logits))
        losses.append(loss)
    return tables, losses


def assert_same_table(params, table):
    assert list(params.logits) == list(table)
    assert all(same_bits(params.logits[k], table[k]) for k in table)


def check_sft_against_reference(turns, params, lr, steps):
    ref_tables, ref_losses = reference_sft(turns, params, lr, steps)
    block = block_of(turns, params)
    kept = {k: row.copy() for k, row in params.logits.items()}
    stepped = []
    for n in range(steps):
        block = sft_update(block, lr)
        assert same_bits(nll_loss(block), ref_losses[n])
        stepped.append(table_of(block, params))
        assert stepped[-1].version == params.version + n + 1
        # the starting rows outside the turns come back as they were
        turn_keys = {key for key, _ in turns}
        assert all(same_bits(stepped[-1].logits[k], row) for k, row in params.logits.items()
                   if k not in turn_keys)
    # no step writes the rows of an earlier step's table, or the starting table
    for table, ref in zip(stepped, ref_tables):
        assert_same_table(table, ref)
    assert all(same_bits(params.logits[k], row) for k, row in kept.items())


@st.composite
def sft_case(draw):
    """store_turns-like turns over a few short trajectories whose tokens come
    from three values, so window-2 keys alias; a starting table that holds
    some turn keys and rows outside the turns; wide logits, so some turns
    are certain."""
    a = draw(st.integers(2, 8))
    window = draw(st.sampled_from([None, 2]))
    turns = []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.integers(1, 6))
        tokens = draw(st.lists(st.integers(0, 2), min_size=length + 1, max_size=length + 1))
        actions = draw(st.lists(st.integers(0, a - 1), min_size=length, max_size=length))
        turns += [(encode_history(tokens[:t + 1], actions[:t], window), actions[t])
                  for t in range(length)]
    row = arrays(np.float64, a, elements=st.floats(-400, 400))
    default, version, rows = draw(row), draw(st.integers(0, 3)), {}
    for key, _ in turns:
        if key not in rows and draw(st.booleans()):
            rows[key] = draw(row)
    for i in range(draw(st.integers(0, 3))):
        rows[(-1 - i,)] = draw(row)  # no history has a negative token
    return turns, PolicyParams(a, rows, default, version)


@settings(max_examples=150, deadline=None)
@given(sft_case(), st.integers(1, 5), st.sampled_from([0.1, 0.7, 3.0]))
def test_sft_block_steps_bitwise_equal_per_turn_loop(case, steps, lr):
    turns, params = case
    check_sft_against_reference(turns, params, lr, steps)


def test_sft_block_of_certain_turns_keeps_a_positive_zero_nll():
    params = PolicyParams(2, {(0,): np.array([400.0, -400.0])})
    turns = [((0,), 0), ((0,), 0)]
    check_sft_against_reference(turns, params, 0.7, 3)
    block = block_of(turns, params)
    for _ in range(3):
        block = sft_update(block, 0.7)
        assert math.copysign(1.0, nll_loss(block)) == 1.0


def test_sft_block_of_no_turns_is_the_starting_table():
    params = PolicyParams(3, {(5,): np.array([1.0, 2.0, 3.0])}, version=2)
    block = block_of([], params)
    assert nll_loss(block) == 0.0
    with pytest.raises(ConfigError):
        sft_update(block, 0.5)
    table = table_of(block, params)
    assert table.version == 2 and table.logits == {(5,): params.logits[(5,)]}


@pytest.mark.parametrize("window", [None, 2])
def test_sft_run_bitwise_equals_per_turn_loop(env, window):
    """run_training's SFT records and final table against reference_sft, with
    each evaluation made on the reference table of its step."""
    config = RunConfig(algo="sft", total_steps=12, eval_every=5, eval_episodes=16,
                       seed=3, window=window)
    teacher = make_teacher(env)
    store = collect_teacher_trajectories(env, teacher, config.pass_m, rng(17))
    turns = oracles.store_turns(env, store, window)
    start = PolicyParams(num_actions=env.config.num_actions)
    tables, losses = reference_sft(turns, start, config.lr, config.total_steps)
    eval_rng = _seed_streams(config)[2]
    expected = MetricsLog()  # which rounds floats as the run's log does
    for n, (table, loss) in enumerate(zip(tables, losses)):
        expected.append(TrainRecord(step=n, loss=loss / len(turns), grad_norm=0.0,
                                    buffer_size=0, discarded_stale=0, active_k=0,
                                    mean_staleness=0.0))
        if (n + 1) % config.eval_every == 0 or n == config.total_steps - 1:
            params = PolicyParams(num_actions=start.num_actions, logits=table, version=n + 1)
            expected.append(evaluate(params, env, teacher, config.eval_episodes, eval_rng,
                                     temperature=config.eval_temperature, window=window,
                                     step=n, active_k=0))
    result = run_training(config, store)
    # repr keeps every float bit, and the sign of a zero
    assert [repr(r) for r in result.log.records] == [repr(r) for r in expected.records]
    assert_same_table(result.final_params, tables[-1])
    assert result.final_params.version == config.total_steps


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_gradient_bitwise_equals_per_key_loop(data):
    params, keys = data.draw(row_block_case())  # unseen keys start on the default row
    a = params.num_actions
    grads = {k: data.draw(arrays(np.float64, a, elements=st.floats(-50, 50)))
             for k in dict.fromkeys(keys)}
    lr = data.draw(st.sampled_from([0.1, 0.7, 3.0]))
    expected = dict(params.logits)
    for key, g in grads.items():
        expected[key] = logits_at(params, key) - lr * g
    updated = apply_gradient(params, grads, lr)
    assert_same_table(updated, expected)
    assert updated.version == params.version + 1
    assert updated.default_logits is params.default_logits


def test_apply_gradient_leaves_earlier_rows_unchanged():
    """A snapshot of each published table keeps its rows through later steps."""
    gen = rng(9)
    params = PolicyParams(num_actions=4)
    published = []
    for n in range(6):
        keys = [(int(i),) for i in gen.choice(5, size=3, replace=False)]
        params = apply_gradient(params, {k: gen.normal(size=4) for k in keys}, 0.7)
        published.append((params.snapshot(), {k: row.copy() for k, row in params.logits.items()}))
    for table, rows in published:
        assert_same_table(table, rows)
    rows = dict(params.logits)
    assert apply_gradient(params, {}, 0.7).logits == rows
