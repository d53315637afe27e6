from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opdlab.distill import (
    TeacherTrajectoryStore,
    Trajectory,
    apply_gradient,
    batch_gradient,
    collect_teacher_trajectories,
    load_store,
    replay_succeeds,
    rollout_b2f,
    rollout_f2b,
    rollout_opd,
    nll_loss,
    save_store,
    sft_update,
    store_turns,
    trajectory_loss,
)
from opdlab.env import EnvConfig, make_env, make_teacher
from opdlab.errors import ConfigError, UsageError
from opdlab.policy import PolicyParams, forward_kl, kl_logit_gradient, softmax
from opdlab.replay import ExperienceEntry
from opdlab.runtime import RunConfig, run_training


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


def content_fields(traj):
    return ([(t.history_key, t.action, t.turn_index, t.turn_kl, t.policy_version)
             for t in traj.turns], traj.prefix_keys, traj.success, traj.rounds,
            traj.policy_version)


# -- rollout_opd -----------------------------------------------------------------


def test_opd_student_equals_teacher_zero_kl(env, sharp_teacher):
    params = sharp_teacher.materialize()
    traj = rollout_opd(env, params, sharp_teacher, 0, rng(1))
    assert traj.success
    assert all(t.turn_kl == 0.0 for t in traj.turns)


def test_opd_uniform_student_turn0_kl_closed_form(env, teacher):
    traj = rollout_opd(env, uniform_student(env), teacher, 0, rng(2))
    a = env.config.num_actions
    p = teacher.dist(env.reset(0)[0])
    expected = float(np.sum(p * np.log(p * a)))
    assert traj.turns[0].turn_kl == pytest.approx(expected, abs=1e-12)
    assert expected > 0


def test_opd_deterministic_per_seed(env, teacher):
    t1 = rollout_opd(env, uniform_student(env), teacher, 5, rng(42))
    t2 = rollout_opd(env, uniform_student(env), teacher, 5, rng(42))
    assert content_fields(t1) == content_fields(t2)


def test_opd_respects_horizon(env, teacher):
    traj = rollout_opd(env, uniform_student(env), teacher, 0, rng(3))
    assert traj.rounds <= env.config.horizon_cap
    assert traj.algo == "opd"


# -- rollout_f2b -----------------------------------------------------------------


def test_f2b_saturated_matches_opd(env, teacher):
    a = rollout_opd(env, uniform_student(env), teacher, 3, rng(7))
    b = rollout_f2b(env, uniform_student(env), teacher, 3, env.config.horizon_cap, rng(7))
    assert content_fields(a) == content_fields(b)
    assert b.algo == "f2b"


def test_f2b_single_turn(env, teacher):
    traj = rollout_f2b(env, uniform_student(env), teacher, 0, 1, rng(8))
    assert traj.rounds == 1
    assert len(traj.turns) == 1


def test_f2b_truncated_optimal_student_cannot_succeed(env, sharp_teacher):
    params = sharp_teacher.materialize()
    traj = rollout_f2b(env, params, sharp_teacher, 0, 3, rng(9))
    assert traj.rounds == 3
    assert not traj.success


def test_f2b_rejects_bad_k(env, teacher):
    with pytest.raises(ConfigError):
        rollout_f2b(env, uniform_student(env), teacher, 0, 0, rng(0))


# -- rollout_b2f -----------------------------------------------------------------


@pytest.fixture(scope="module")
def store(env, sharp_teacher):
    return collect_teacher_trajectories(env, sharp_teacher, 1, rng(100))


def test_b2f_full_k_matches_opd(env, teacher, store):
    a = rollout_opd(env, uniform_student(env), teacher, 2, rng(11))
    b = rollout_b2f(env, store, uniform_student(env), teacher, 2,
                    store.length(2), rng(11))
    assert content_fields(a) == content_fields(b)
    assert b.prefix_len == 0


def test_b2f_doorstep_prefix(env, teacher, store):
    traj = rollout_b2f(env, store, uniform_student(env), teacher, 4, 1, rng(12))
    assert store.length(4) == 8
    assert traj.prefix_len == 7
    assert len(traj.prefix_keys) == 7
    assert traj.turns[0].turn_index == 7
    assert traj.rounds >= 1


def test_b2f_missing_task(env, teacher):
    empty = TeacherTrajectoryStore()
    with pytest.raises(ConfigError):
        rollout_b2f(env, empty, uniform_student(env), teacher, 0, 1, rng(0))


def test_b2f_prefix_only_keys_do_not_move_loss(env, teacher, store):
    student = uniform_student(env)
    traj = rollout_b2f(env, store, student, teacher, 1, 2, rng(13))
    student_keys = {t.history_key for t in traj.turns}
    prefix_only = [key for key in traj.prefix_keys if key not in student_keys]
    assert prefix_only
    base_loss, base_grads = trajectory_loss(traj, student)
    perturbed = PolicyParams(num_actions=student.num_actions,
                             logits=dict(student.logits),
                             default_logits=student.default_logits)
    for key in prefix_only:
        perturbed.logits[key] = np.array([100.0, -3.0, 7.0, 0.0, 1.0, -50.0])
    new_loss, new_grads = trajectory_loss(traj, perturbed)
    assert new_loss == base_loss
    assert set(base_grads) == set(new_grads)
    assert not (set(new_grads) & set(prefix_only))


# -- the per-turn record -------------------------------------------------------------


@pytest.mark.parametrize("window", [None, 2])
def test_b2f_prefix_keys_are_the_stored_turns_keys(env, teacher, store, window):
    # two independent walks of the same expert actions: the rollout's prefix
    # and store_turns over a store holding only that task
    for task, k in ((4, 1), (1, 3), (7, 5)):
        traj = rollout_b2f(env, store, uniform_student(env), teacher, task, k,
                           rng(14), window=window)
        only_task = TeacherTrajectoryStore(actions_by_task={task: store.get(task)})
        stored_keys = [key for key, _ in store_turns(env, only_task, window)]
        assert traj.prefix_len == store.length(task) - k
        assert traj.prefix_keys == stored_keys[:traj.prefix_len]
        assert traj.turns[0].turn_index == traj.prefix_len


def test_rollouts_record_one_entry_per_student_turn(env, teacher, store):
    student = PolicyParams(num_actions=env.config.num_actions, version=3)
    for traj in (rollout_opd(env, student, teacher, 3, rng(15)),
                 rollout_f2b(env, student, teacher, 3, 4, rng(15)),
                 rollout_b2f(env, store, student, teacher, 3, 2, rng(15))):
        assert traj.rounds == len(traj.turns) >= 1
        assert [t.turn_index for t in traj.turns] == list(
            range(traj.prefix_len, traj.prefix_len + traj.rounds))
        assert all(t.policy_version == 3 for t in traj.turns)


# -- trajectory_loss -----------------------------------------------------------------


def synthetic_trajectory(p, q, key=(1, 0, 2)):
    turn = ExperienceEntry(history_key=key, action=0, student_dist=np.array(q),
                           teacher_dist=np.array(p), turn_index=0,
                           turn_kl=forward_kl(np.array(p), np.array(q)),
                           policy_version=0)
    return Trajectory(task_id=0, turns=[turn], prefix_keys=[], success=False,
                      policy_version=0, algo="opd")


def test_loss_single_turn_closed_form():
    traj = synthetic_trajectory([1.0, 0.0], [0.5, 0.5])
    loss, grads = trajectory_loss(traj)
    assert loss == pytest.approx(math.log(2), abs=1e-12)
    assert np.allclose(grads[(1, 0, 2)], [-0.5, 0.5], atol=1e-15)


def test_loss_zero_when_matched():
    traj = synthetic_trajectory([0.25, 0.75], [0.25, 0.75])
    loss, grads = trajectory_loss(traj)
    assert loss == 0.0
    assert np.allclose(grads[(1, 0, 2)], 0.0, atol=1e-15)


def test_loss_all_prefix_is_empty():
    traj = Trajectory(task_id=0, turns=[], prefix_keys=[(0,)], success=False,
                      policy_version=0, algo="b2f")
    assert (traj.rounds, traj.prefix_len) == (0, 1)
    assert trajectory_loss(traj) == (0.0, {})
    assert trajectory_loss(traj, PolicyParams(num_actions=2)) == (0.0, {})


def test_loss_matches_recorded_kl_sum(env, teacher):
    student = uniform_student(env)
    traj = rollout_opd(env, student, teacher, 1, rng(21))
    loss, _ = trajectory_loss(traj)
    assert loss == pytest.approx(sum(t.turn_kl for t in traj.turns), abs=1e-12)
    recomputed, _ = trajectory_loss(traj, student)
    assert recomputed == pytest.approx(loss, abs=1e-12)


# -- collection -------------------------------------------------------------------


def test_collect_oracle_teacher_pass1_full_coverage(env, sharp_teacher):
    store = collect_teacher_trajectories(env, sharp_teacher, 1, rng(31))
    assert len(store) == env.config.task_count
    assert all(store.length(t) == env.config.chain_length
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
    assert not replay_succeeds(env, task0, store.actions_by_task[task0])
    path = tmp_path / "store.jsonl"
    save_store(store, path)
    with pytest.raises(ConfigError):
        load_store(path, env)


# -- SFT baseline -----------------------------------------------------------------


def test_sft_update_moves_toward_expert_actions(env, sharp_teacher):
    store = collect_teacher_trajectories(env, sharp_teacher, 1, rng(41))
    student = uniform_student(env)
    turns = store_turns(env, store)
    updated = sft_update(turns, student, 0.5)
    assert updated.version == student.version + 1
    assert nll_loss(turns, updated) < nll_loss(turns, student)
    for key, a_star in turns:
        before = softmax(student.logits_for(key))[a_star]
        after = softmax(updated.logits_for(key))[a_star]
        assert after > before


def test_sft_near_minimum_has_small_update(env, sharp_teacher):
    store = collect_teacher_trajectories(env, sharp_teacher, 1, rng(42))
    params = sharp_teacher.materialize()
    turns = store_turns(env, store)
    updated = sft_update(turns, params, 0.5)
    deltas = [np.abs(updated.logits_for(k) - params.logits_for(k)).max()
              for k, _ in turns]
    assert max(deltas) < 1e-6


def test_sft_nll_gradient_matches_finite_differences(env, sharp_teacher):
    store = collect_teacher_trajectories(env, sharp_teacher, 1, rng(43))
    gen = rng(44)
    step = 1e-5
    for _key, a_star in store_turns(env, store)[:10]:
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
    assert nll_loss([], student) == 0.0
    with pytest.raises(ConfigError):
        sft_update([], student, 0.5)


def test_nll_of_certain_turns_is_positive_zero():
    # -log 1 is -0.0 per turn; the per-turn loop's 0.0 - 0.0 sum is +0.0
    student = PolicyParams(num_actions=2)
    student.logits[(0,)] = np.array([400.0, -400.0])
    assert math.copysign(1.0, nll_loss([((0,), 0), ((0,), 0)], student)) == 1.0


# -- learner step -----------------------------------------------------------------


def gradient_step(batch, params, lr):
    """The runtime's learner update: batch_gradient, then apply_gradient."""
    _, grads = batch_gradient(batch, params)
    return apply_gradient(params, grads, lr)


def entry(key, p, q, version=0):
    # the learner reads only the key, the teacher row and the version
    return ExperienceEntry(history_key=key, action=0, student_dist=np.array(q),
                           teacher_dist=np.array(p), turn_index=0, turn_kl=0.0,
                           policy_version=version)


def test_learner_step_noop_when_matched():
    params = PolicyParams(num_actions=2)
    batch = [entry((0,), [0.5, 0.5], [0.5, 0.5])]
    updated = gradient_step(batch, params, 0.1)
    assert updated.version == 1
    assert np.allclose(updated.logits_for((0,)), params.logits_for((0,)), atol=1e-15)


def test_learner_step_gradient_descent_arithmetic():
    params = PolicyParams(num_actions=2)
    batch = [entry((7,), [1.0, 0.0], [0.5, 0.5])]
    updated = gradient_step(batch, params, 0.1)
    assert np.allclose(updated.logits_for((7,)), [0.05, -0.05], atol=1e-15)


def test_learner_step_averages_repeated_keys():
    params = PolicyParams(num_actions=2)
    batch = [entry((1,), [1.0, 0.0], [0.5, 0.5]),
             entry((1,), [1.0, 0.0], [0.5, 0.5])]
    one = gradient_step([batch[0]], params, 0.1)
    two = gradient_step(batch, params, 0.1)
    assert np.allclose(one.logits_for((1,)), two.logits_for((1,)), atol=1e-15)


def test_learner_step_empty_batch_rejected():
    with pytest.raises(UsageError):
        gradient_step([], PolicyParams(num_actions=2), 0.1)


def test_learner_version_strictly_increments():
    params = PolicyParams(num_actions=2)
    for expected in range(1, 5):
        params = gradient_step([entry((0,), [1.0, 0.0], [0.5, 0.5])], params, 0.1)
        assert params.version == expected


def test_repeated_steps_on_fixed_batch_descend_kl():
    gen = rng(55)
    params = PolicyParams(num_actions=4)
    batch = []
    for i in range(6):
        p = gen.uniform(0.05, 1.0, 4)
        batch.append(entry((i,), p / p.sum(), [0.25] * 4))
    previous = None
    for _ in range(100):
        kl = sum(forward_kl(e.teacher_dist, softmax(params.logits_for(e.history_key)))
                 for e in batch)
        if previous is not None:
            assert kl <= previous + 1e-12
        previous = kl
        params = gradient_step(batch, params, 1.0)


def test_snapshots_unaffected_by_later_updates():
    params = PolicyParams(num_actions=2)
    snap = params.snapshot()
    updated = gradient_step([entry((3,), [1.0, 0.0], [0.5, 0.5])], params, 0.5)
    assert (3,) not in snap.logits
    assert (3,) in updated.logits


# -- row-block learner against the per-entry definitions ----------------------------
#
# batch_gradient, sft_update and nll_loss work on (N, A) row blocks; each must
# be bitwise equal to a loop over the scalar definitions, entry by entry.


def same_bits(x, y):
    return np.asarray(x, dtype=np.float64).tobytes() == np.asarray(y, dtype=np.float64).tobytes()


@st.composite
def row_block_case(draw):
    """A table with some of a small key pool stored, and keys drawn with repeats."""
    a = draw(st.integers(2, 12))
    pool = draw(st.integers(1, 6))
    # wide logits, so softmax rows can hold exact zeros
    row = arrays(np.float64, a, elements=st.floats(-400, 400))
    params = PolicyParams(num_actions=a, default_logits=draw(row))
    for i in range(pool):
        if draw(st.booleans()):  # the other keys are unseen: default row
            params.logits[(i,)] = draw(row)
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
    for e in batch:
        q = softmax(params.logits_for(e.history_key))
        loss += forward_kl(e.teacher_dist, q)
        g = kl_logit_gradient(e.teacher_dist, q)
        sums[e.history_key] = sums[e.history_key] + g if e.history_key in sums else g
        counts[e.history_key] = counts.get(e.history_key, 0) + 1
    return loss / len(batch), {k: sums[k] / counts[k] for k in sums}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batch_gradient_bitwise_equals_per_entry_loop(data):
    params, keys = data.draw(row_block_case())
    p = data.draw(teacher_rows(len(keys), params.num_actions))
    batch = [entry(k, row, [0.0]) for k, row in zip(keys, p)]
    loss, grads = batch_gradient(batch, params)
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
        q = softmax(params.logits_for(key))
        g = q.copy()
        g[a_star] -= 1.0
        ref_grads[key] = ref_grads[key] + g if key in ref_grads else g
        ref_nll -= float(np.log(max(q[a_star], 1e-300)))
    assert same_bits(nll_loss(turns, params), ref_nll)
    updated = sft_update(turns, params, 0.7)
    expected = apply_gradient(params, ref_grads, 0.7)
    assert list(updated.logits) == list(expected.logits)
    assert all(same_bits(updated.logits[k], expected.logits[k]) for k in updated.logits)
    assert updated.version == expected.version
