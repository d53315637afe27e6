"""The lockstep rollout engine against the scalar definitions it batches.

``scalar_rollout`` defines a rollout one turn at a time, on scalars: the
engine must reproduce it on the same uniforms.
"""

from __future__ import annotations

import warnings
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opdlab.curriculum import b2f_prefix_len
from opdlab import distill
from opdlab.distill import collect_teacher_trajectories, rollout_batch, rollout_lockstep
from opdlab.env import (
    COMPOUNDING_CHAIN,
    MEMORY_LOCK,
    EnvConfig,
    TeacherPolicy,
    make_env,
    make_teacher,
)
from opdlab.errors import ConfigError, UsageError
from opdlab.metrics import per_turn_kl_profile
from opdlab.policy import (
    PolicyParams,
    encode_history,
    forward_kl,
    forward_kl_rows,
    log_floor,
    log_rows,
    sample_action,
    sample_rows,
    softmax,
    softmax_rows,
)
from opdlab.runtime import _episode_summary, evaluate

import oracles
from joined import episode, episodes


class RowRng:
    """Stands in for a Generator: random() returns u[0], u[1], ... in turn."""

    def __init__(self, u):
        self._u = iter(u.tolist())

    def random(self):
        return next(self._u)


def scalar_rollout(env, student, teacher, task_id, rng, *, max_student_turns,
                   prefix_actions, temperature=1.0, window=None):
    """One rollout, turn by turn on scalars: the reference for the engine.
    Returns what ``episode_fields`` reads of an engine episode, and the
    student turns' KL."""
    state = env.reset(task_id)
    observations = [state.token]
    actions = []
    keys = []  # every turn's history key, expert prefix first
    kl = []

    for a in prefix_actions or []:
        if state.done:
            raise UsageError(
                f"stored trajectory for task {task_id} terminated during its prefix"
            )
        keys.append(encode_history(observations, actions, window))
        state = env.step(state, int(a))
        actions.append(int(a))
        observations.append(state.token)

    prefix_len = len(actions)
    while not state.done and len(kl) < max_student_turns:
        key = encode_history(observations, actions, window)
        logits = student.logits.get(key, student.default_logits)
        q_policy = softmax(logits)
        q_sample = q_policy if temperature == 1.0 else softmax(logits, temperature)
        p_teacher = teacher.dist(state)
        a = sample_action(q_sample, rng)
        assert state.turn == len(keys)
        keys.append(key)
        kl.append(forward_kl(p_teacher, q_policy))
        state = env.step(state, a)
        actions.append(a)
        observations.append(state.token)

    return (keys, actions[prefix_len:], prefix_len, state.success, student.version), kl


def partial_student(teacher, window, seed, version=0):
    """The materialized teacher, damped and jittered, so episodes both win and fail."""
    gen = np.random.default_rng(seed)
    rows = {key: 0.25 * row + gen.normal(0.0, 0.5, row.shape)
            for key, row in oracles.materialize(teacher, window).logits.items()}
    return PolicyParams(teacher.num_actions, rows, version=version)


def reachable_states(env):
    """Every live state reachable within the horizon, as reached, one per
    (task, pos, recovery, turn) in sorted order."""
    seen = {}
    frontier = [env.reset(task) for task in range(env.config.task_count)]
    while frontier:
        state = frontier.pop()
        key = (state.task_id, state.pos, state.recovery_left, state.turn)
        if state.done or key in seen:
            continue
        seen[key] = state
        frontier.extend(env.step(state, a) for a in range(env.config.num_actions))
    return [seen[key] for key in sorted(seen)]


def played(r, e):
    """(p, n): episode e of the batch ``r`` played turns [0, p) from its expert
    prefix and turns [p, n) as the student."""
    p = int(r.prefix_len[e])
    return p, p + int(r.rounds[e])


def episode_fields(r, e):
    """Everything of episode e of the batch ``r`` that must match exactly:
    each turn's key (expert prefix first), the student turns' actions, the
    prefix length, success and version; KL is compared apart."""
    p, n = played(r, e)
    return (r.index.keys(r.keys[e, :n]), r.actions[e, p:n].tolist(), p, bool(r.success[e]),
            int(r.versions[e]))


def episode_bits(r, e):
    """Episode e of the batch ``r`` to the last bit."""
    p, n = played(r, e)
    return (episode_fields(r, e), int(r.task_ids[e]), r.kl[e, p:n].tobytes(),
            r.states[e, p:n].tobytes())


# -- oracle: the engine equals the scalar rollouts ------------------------------------


ALGO_KS = [("opd", 12), ("f2b", 1), ("f2b", 3), ("f2b", 7), ("b2f", 1), ("b2f", 3),
           ("b2f", 6), ("b2f", 12)]


@pytest.mark.parametrize("kind,window,temperature",
                         list(product((COMPOUNDING_CHAIN, MEMORY_LOCK), (None, 0, 2),
                                      (0.4, 1.0))))
def test_engine_matches_scalar_oracle_on_same_uniforms(kind, window, temperature):
    env = make_env(EnvConfig(kind=kind))
    teacher = make_teacher(env)
    store = collect_teacher_trajectories(env, teacher, 10, np.random.default_rng(7))
    assert len(store) == env.config.task_count
    # three tables of different versions, each rolled out as its own batch
    snapshots = [partial_student(teacher, window, seed=s, version=v)
                 for s, v in ((3, 4), (5, 5), (6, 6))]
    episodes, horizon = 45, env.config.horizon_cap
    tasks = np.arange(episodes) % env.config.task_count
    outcomes = set()
    for algo, k in ALGO_KS:
        u = np.random.default_rng(k).random((episodes, horizon))
        for j, student in enumerate(snapshots):
            # episodes j, j + 3, ... act on snapshot j
            mine, rows = tasks[j::3], u[j::3]
            r = rollout_batch(algo, env, student, teacher, mine, k, rows, store=store,
                              temperature=temperature, window=window)
            assert r.algo == algo and r.task_ids.tolist() == mine.tolist()
            for e, task in enumerate(mine.tolist()):
                stored = store.get(task)
                prefix = stored[:b2f_prefix_len(len(stored), k)] if algo == "b2f" else None
                cap = min(k, horizon) if algo == "f2b" else horizon
                fields, kl = scalar_rollout(env, student, teacher, task, RowRng(rows[e]),
                                            max_student_turns=cap, prefix_actions=prefix,
                                            temperature=temperature, window=window)
                assert episode_fields(r, e) == fields, (algo, k, e)
                np.testing.assert_allclose(r.kl[e, slice(*played(r, e))], kl, rtol=1e-12,
                                           atol=0)
            if algo == "b2f" and k < 6:
                assert (r.prefix_len > 0).all()
            assert r.versions.tolist() == [student.version] * len(mine)
            outcomes |= set(r.success.tolist())
    assert outcomes == {False, True}  # the oracle sees both outcomes


@pytest.mark.parametrize("window", [None, 2])
def test_engine_matches_scalar_oracle_on_env_configs_other_than_its_index_learned(window):
    """A table whose key index holds the histories of one env config, and
    its child edges with that config's tokens, rolls out other configs (and
    its own, after learning theirs) as the scalar oracle does."""
    gen = np.random.default_rng(5)
    learned = make_env(EnvConfig(seed=0))
    seen = rollout_batch("opd", learned, PolicyParams(num_actions=6),
                         make_teacher(learned), np.arange(200) % 32, 12, gen.random((200, 12)),
                         window=window)
    keys = set(seen.index.keys(seen.student_turns().key))
    params = PolicyParams(6, {key: gen.normal(0.0, 2.0, 6) for key in sorted(keys)})
    for config in (EnvConfig(seed=1), EnvConfig(kind=MEMORY_LOCK), EnvConfig(seed=0)):
        env = make_env(config)
        teacher = make_teacher(env)
        episodes, horizon = 48, env.config.horizon_cap
        tasks = np.arange(episodes) % env.config.task_count
        u = gen.random((episodes, horizon))
        for algo, temperature in (("opd", 1.0), (None, 0.4)):  # training, then evaluation
            kl, rounds, success, r = rollout_lockstep(
                env, params, teacher, tasks, u, temperature=temperature,
                window=window, algo=algo)
            for e in range(episodes):
                fields, expected = scalar_rollout(env, params, teacher, int(tasks[e]),
                                                  RowRng(u[e]), max_student_turns=horizon,
                                                  prefix_actions=None, temperature=temperature,
                                                  window=window)
                assert (rounds[e], success[e]) == (len(expected), fields[3])
                np.testing.assert_allclose(kl[e, :rounds[e]], expected, rtol=1e-12)
                if r is not None:
                    assert episode_fields(r, e) == fields


@pytest.mark.parametrize("algo,k", [("opd", 12), ("f2b", 4), ("b2f", 3)])
def test_episode_results_do_not_depend_on_wave_makeup(algo, k):
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    store = collect_teacher_trajectories(env, teacher, 10, np.random.default_rng(7))
    student = partial_student(teacher, 2, seed=1, version=1)
    episodes = 24
    tasks = (np.arange(episodes) * 5) % env.config.task_count
    u = np.random.default_rng(3).random((episodes, env.config.horizon_cap))
    whole = rollout_batch(algo, env, student, teacher, tasks, k, u, store=store, window=2)
    alone = [rollout_batch(algo, env, student, teacher, tasks[e:e + 1], k,
                           u[e:e + 1], store=store, window=2) for e in range(episodes)]
    part = rollout_batch(algo, env, student, teacher, tasks[5:13], k, u[5:13],
                         store=store, window=2)
    assert all(episode_bits(whole, e) == episode_bits(alone[e], 0) for e in range(episodes))
    assert all(episode_bits(whole, 5 + e) == episode_bits(part, e) for e in range(8))


def test_prefix_that_reaches_the_goal_early_is_rejected():
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    store = collect_teacher_trajectories(env, teacher, 10, np.random.default_rng(7))
    stored = store.get(0)
    store.actions_by_task[0] = stored + stored[:3]  # goes on past the goal
    u = np.zeros((1, env.config.horizon_cap))
    with pytest.raises(UsageError, match="prefix"):
        rollout_batch("b2f", env, PolicyParams(num_actions=6), teacher, [0], 1, u,
                      store=store)


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
    oracle = [scalar_rollout(env, params, teacher, e % env.config.task_count, RowRng(u[e]),
                             max_student_turns=horizon, prefix_actions=None,
                             temperature=temperature, window=window)
              for e in range(episodes)]
    kls = [kl for _, kl in oracle]
    successes = [fields[3] for fields, _ in oracle]
    kl, rounds, success, _ = rollout_lockstep(env, params, teacher,
                                              np.arange(episodes) % env.config.task_count,
                                              u, temperature=temperature, window=window)
    assert rounds.tolist() == [len(turns) for turns in kls]
    assert success.tolist() == successes
    assert 0 < success.sum() < episodes  # the oracle sees both outcomes
    for e, expected in enumerate(kls):
        np.testing.assert_allclose(kl[e, :len(expected)], expected, rtol=1e-12, atol=0)
        assert not kl[e, len(expected):].any()

    expected = _episode_summary(successes, [len(turns) for turns in kls],
                                [sum(turns) for turns in kls])
    assert record.success_rate == expected["success_rate"]
    assert record.avg_rounds == expected["avg_rounds"]
    for name in ("traj_kl_mean", "traj_kl_turn_mean"):
        assert getattr(record, name) == pytest.approx(expected[name], rel=1e-12)
    # the mean KL at turn t over the episodes that played it
    profile = [np.mean([turns[t] for turns in kls if len(turns) > t])
               for t in range(max(map(len, kls)))]
    assert len(record.per_turn_kl) == len(profile)
    np.testing.assert_allclose(record.per_turn_kl, profile, rtol=1e-12, atol=0)
    assert (record.step, record.active_k, record.n_rollouts) == (4, 2, episodes)


@pytest.mark.parametrize("kind,window", list(product((COMPOUNDING_CHAIN, MEMORY_LOCK),
                                                     (None, 2))))
def test_evaluate_profile_bitwise_equals_the_profile_of_single_rollouts(kind, window):
    """The two KL-profile entry points agree: evaluate at temperature 1 and
    per_turn_kl_profile of opd rollouts on the same uniforms, played both as
    one-episode batches on one generator (rollout e draws row e of
    evaluate's uniforms) and as one rollout_batch."""
    env = make_env(EnvConfig(kind=kind))
    teacher = make_teacher(env)
    params = partial_student(teacher, window, seed=4)
    n, horizon = 256, env.config.horizon_cap
    tasks = np.arange(n) % env.config.task_count
    record = evaluate(params, env, teacher, n, np.random.default_rng(12),
                      temperature=1.0, window=window)
    rng = np.random.default_rng(12)
    single = episodes([episode("opd", env, params, teacher, task, horizon, rng, window=window)
                       for task in tasks.tolist()])
    u = np.random.default_rng(12).random((n, horizon))  # evaluate's uniforms
    batch = rollout_batch("opd", env, params, teacher, tasks, horizon, u, window=window)
    for name in ("keys", "actions", "kl", "rounds", "success"):
        assert np.array_equal(getattr(single, name), getattr(batch, name))
    for rollouts in (single, batch):
        profile = np.array(per_turn_kl_profile(rollouts))
        assert np.array(record.per_turn_kl).tobytes() == profile.tobytes()
    assert (record.success_rate, record.avg_rounds) == (batch.success.mean(),
                                                        batch.rounds.mean())


def test_evaluate_draws_do_not_depend_on_batch_makeup():
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    params = partial_student(teacher, None, seed=5)
    u = np.random.default_rng(2).random((64, env.config.horizon_cap))
    tasks = np.arange(64) % env.config.task_count
    full = rollout_lockstep(env, params, teacher, tasks, u, temperature=0.4)[:3]
    part = rollout_lockstep(env, params, teacher, tasks[10:20], u[10:20],
                            temperature=0.4)[:3]
    for whole, piece in zip(full, part):
        assert np.array_equal(whole[10:20], piece)


# -- oracle: the engine equals its in-loop form, byte for byte -----------------------


def random_walk_rows(env, window, gen, walks):
    """Logit rows at the keys of ``walks`` random walks and of every task's
    expert path, so that some episodes win and others leave the index; some
    rows are steep enough that their softmax has exact zeros."""
    a = env.config.num_actions
    rows = {}
    for w in range(walks + env.config.task_count):
        task = w % env.config.task_count
        rule = env.expert_action if w >= walks else lambda s: int(gen.integers(a))
        states, actions = oracles.play(env, task, rule)
        tokens = [s.token for s in states]
        for t in range(len(actions)):
            rows[encode_history(tokens[:t + 1], actions[:t], window)] = (
                gen.normal(0.0, 3.0, a) * (40.0 if gen.random() < 0.2 else 1.0))
    return rows


@settings(max_examples=80, deadline=None)
@given(num_actions=st.integers(2, 12), kind=st.sampled_from((COMPOUNDING_CHAIN, MEMORY_LOCK)),
       temperature=st.sampled_from((0.4, 1.0)), window=st.sampled_from((None, 0, 2)),
       algo=st.sampled_from(("opd", "f2b", "b2f", None)), k=st.integers(1, 8),
       episodes=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1))
# A >= 8 sums the KL terms pairwise; the evaluation example leaves the index
@example(num_actions=12, kind=MEMORY_LOCK, temperature=0.4, window=2, algo=None, k=1,
         episodes=16, seed=1)
@example(num_actions=8, kind=COMPOUNDING_CHAIN, temperature=1.0, window=None, algo="b2f",
         k=2, episodes=16, seed=2)
@example(num_actions=9, kind=COMPOUNDING_CHAIN, temperature=1.0, window=0, algo="f2b",
         k=3, episodes=16, seed=3)
def test_engine_matches_the_in_loop_oracle_bitwise(num_actions, kind, temperature, window,
                                                   algo, k, episodes, seed):
    """KL, teacher rows, keys and actions built once per call after the walk
    have the bytes of the same computed turn by turn inside it, for training
    batches of every algo and for evaluation (algo None), whose episodes may
    leave the index; b2f prefixes and f2b caps end episodes at different turns."""
    gen = np.random.default_rng(seed)
    env = make_env(EnvConfig(kind=kind, num_actions=num_actions, chain_length=4,
                             horizon_cap=9, off_support_depth=2, task_count=5,
                             seed=seed % 1000))
    teacher = make_teacher(env)
    rows = random_walk_rows(env, window, gen, walks=6)
    tasks = gen.integers(0, env.config.task_count, episodes)
    u = gen.random((episodes, env.config.horizon_cap))
    prefixes, cap = None, None
    if algo == "b2f":
        paths = [oracles.play(env, task, env.expert_action)[1] for task in tasks.tolist()]
        prefixes = [path[:b2f_prefix_len(len(path), k)] for path in paths]
    elif algo == "f2b":
        cap = min(k, env.config.horizon_cap)
    results = [engine(env, PolicyParams(num_actions, rows), teacher, tasks, u,
                      temperature=temperature, window=window, max_student_turns=cap,
                      prefixes=prefixes, algo=algo)
               for engine in (rollout_lockstep, oracles.rollout_lockstep)]
    (kl, rounds, success, r), (kl0, rounds0, success0, r0) = results
    assert kl.tobytes() == kl0.tobytes() and kl.shape == kl0.shape
    assert rounds.tolist() == rounds0.tolist() and success.tolist() == success0.tolist()
    assert (r is None) == (r0 is None) == (algo is None)
    if r is not None:
        for name in ("keys", "actions", "states", "kl", "prefix_len", "rounds", "success",
                     "kl_sum"):
            x, y = getattr(r, name), getattr(r0, name)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("window", (None, 0, 2))
@pytest.mark.parametrize("algo,k", [("opd", 12), ("f2b", 3), ("b2f", 3)])
def test_entry_teacher_rows_are_the_rows_the_oracle_gathers(monkeypatch, algo, k, window):
    """The teacher row the learner reads for a replay entry,
    teacher.pairs(turn, state), has the bytes of the row the in-loop oracle
    engine gathers for that turn."""
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    store = collect_teacher_trajectories(env, teacher, 10, np.random.default_rng(7))
    params = partial_student(teacher, window, seed=6)
    tasks = np.arange(24) % env.config.task_count
    u = np.random.default_rng(9).random((24, env.config.horizon_cap))
    r = rollout_batch(algo, env, params, teacher, tasks, k, u, store=store, window=window)
    gathered = np.full(r.kl.shape + (env.config.num_actions,), np.nan)
    monkeypatch.setattr(distill, "rollout_lockstep",
                        partial(oracles.rollout_lockstep, teacher_rows=gathered))
    rollout_batch(algo, env, params, teacher, tasks, k, u, store=store, window=window)
    turns, (e, t) = r.student_turns(), np.nonzero(r.student_mask())
    rows = teacher.pairs(turns.turn, turns.state)[0]
    assert rows.tobytes() == gathered[e, t].tobytes()
    # the entries span on- and off-support rows
    assert (env.recovery[turns.state] > 0).any() and (env.recovery[turns.state] == 0).any()


def test_teacher_rows_and_kl_are_built_once_per_call(monkeypatch):
    """The engine gathers teacher rows and calls forward_kl_rows once per
    rollout_lockstep call, for all its turns."""
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(distill, "forward_kl_rows", spy("kl", distill.forward_kl_rows))
    monkeypatch.setattr(TeacherPolicy, "pairs", spy("teacher", TeacherPolicy.pairs))
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    store = collect_teacher_trajectories(env, teacher, 10, np.random.default_rng(7))
    params = partial_student(teacher, None, seed=2)
    u = np.random.default_rng(4).random((16, env.config.horizon_cap))
    tasks = np.arange(16)
    for algo, k in (("opd", 12), ("f2b", 5), ("b2f", 3)):
        calls.clear()
        r = rollout_batch(algo, env, params, teacher, tasks, k, u, store=store)
        assert (r.prefix_len + r.rounds).max() > 1  # several turns were played
        assert sorted(calls) == ["kl", "teacher"], algo
    calls.clear()
    record = evaluate(params, env, teacher, 64, np.random.default_rng(1))
    assert len(record.per_turn_kl) > 1
    assert sorted(calls) == ["kl", "teacher"]


def test_rollout_lockstep_rejects_wrong_uniform_shape():
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    with pytest.raises(UsageError):
        rollout_lockstep(env, PolicyParams(num_actions=6), teacher, np.arange(4),
                         np.zeros((4, env.config.horizon_cap - 1)))


@pytest.mark.parametrize("temperature", [0.0, -1.0])
def test_rollouts_reject_a_temperature_that_is_not_positive(temperature):
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    store = collect_teacher_trajectories(env, teacher, 10, np.random.default_rng(7))
    params = PolicyParams(num_actions=env.config.num_actions)
    rng = np.random.default_rng(0)
    calls = {
        "lockstep": lambda: rollout_lockstep(env, params, teacher, [0, 1],
                                             np.zeros((2, env.config.horizon_cap)),
                                             temperature=temperature),
        "evaluate": lambda: evaluate(params, env, teacher, 8, rng, temperature=temperature),
        "opd": lambda: episode("opd", env, params, teacher, 0, 12, rng, temperature=temperature),
        "f2b": lambda: episode("f2b", env, params, teacher, 0, 3, rng, temperature=temperature),
        "b2f": lambda: episode("b2f", env, params, teacher, 0, 3, rng, store=store,
                               temperature=temperature),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NaN rows are sampled first
        for call in calls.values():
            with pytest.raises(ConfigError, match="temperature must be > 0"):
                call()


# -- the state tables against the transition rule and teacher, written out --------
#
# The oracle the tables must reproduce: the rule on scalars, over the per-task
# draws correct_action / recovery_action rather than over the tables.


def oracle_expert(env, task, pos, recovery):
    if recovery > 0:
        return env.recovery_action(task, recovery)
    return env.correct_action(task, pos)


def oracle_step(env, task, pos, recovery, action):
    """(pos, recovery_left, token, success) of the state ``action`` leads to."""
    c = env.config
    if action == oracle_expert(env, task, pos, recovery):
        pos, recovery = (pos + 1, 0) if recovery == 0 else (pos, recovery - 1)
    else:
        recovery += c.off_support_depth
    if recovery == 0:
        token = env.pos_base + pos
    else:
        token = env.off_base + min(recovery - 1, env.off_buckets - 1)
    return pos, recovery, token, recovery == 0 and pos == c.chain_length


def sharp_rows(teacher, turn):
    """(A, A): row a is the on-support distribution favoring a at ``turn``."""
    c, n = teacher.config, teacher.num_actions
    rows = []
    for a in range(n):
        logits = np.zeros(n)
        logits[a] = (1.0 + c.turn_sharpening * turn) / c.on_support_temperature
        rows.append(softmax(logits))
    return np.stack(rows)


def oracle_teacher_dist(teacher, expert, recovery, turn):
    """The teacher's distribution at one state, on scalars."""
    c = teacher.config
    sharp = sharp_rows(teacher, turn)[expert]
    if recovery == 0:
        return sharp
    lam = max(c.off_support_floor, c.depth_decay ** recovery)
    return lam * np.full(teacher.num_actions, 1.0 / teacher.num_actions) + (1.0 - lam) * sharp


def oracle_teacher_rows(teacher, expert, recovery, turn):
    """oracle_teacher_dist for arrays of states at one turn, with numpy's power
    (Python's float power can differ in the last bit): the table rows must
    equal it bit for bit."""
    c = teacher.config
    sharp = sharp_rows(teacher, turn)[expert]
    lam = np.maximum(c.off_support_floor, c.depth_decay ** recovery)[:, None]
    mixed = lam * np.full(teacher.num_actions, 1.0 / teacher.num_actions) + (1.0 - lam) * sharp
    return np.where((recovery == 0)[:, None], sharp, mixed)


def state_ids(env, states):
    return np.array([env.state_id(s.task_id, s.pos, s.recovery_left) for s in states])


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
    # the teacher's quantities are two whole arrays, each read-only and C-contiguous
    shape = (config.horizon_cap, config.num_actions * env.recovery_levels, config.num_actions)
    for table in (teacher.p, teacher.log_p):
        assert table.shape == shape and table.flags.c_contiguous and not table.flags.writeable
    assert teacher.log_p.tobytes() == log_rows(teacher.p).tobytes()
    states = reachable_states(env)
    n_actions = config.num_actions
    assert len(states) > config.task_count * config.chain_length
    ids = state_ids(env, states)
    recovery = np.array([s.recovery_left for s in states])
    turn = np.array([s.turn for s in states])

    experts = [oracle_expert(env, s.task_id, s.pos, s.recovery_left) for s in states]
    assert env.expert[ids].tolist() == experts
    assert [env.expert_action(s) for s in states] == experts
    for a in range(n_actions):
        to = env.next_state[ids, a].tolist()
        for i, state in enumerate(states):
            expected = oracle_step(env, state.task_id, state.pos, state.recovery_left, a)
            s = to[i]
            assert (env.pos[s], env.recovery[s], env.token[s], env.success[s]) == expected
            after = env.step(state, a)
            assert (after.pos, after.recovery_left, after.token, after.success) == expected
    goals = np.array([env.state_id(t, config.chain_length, 0)
                      for t in range(config.task_count)])
    assert env.success[goals].all()
    assert (env.next_state[goals] == goals[:, None]).all()  # the goal maps to itself

    for t in np.unique(turn):
        at = turn == t
        rows = teacher.p[int(t), teacher.row_class[ids[at]]]
        at_states = [s for s, keep in zip(states, at) if keep]
        np.testing.assert_array_equal(
            rows, oracle_teacher_rows(teacher, np.array(experts)[at], recovery[at], int(t)))
        expected = [oracle_teacher_dist(teacher, e, s.recovery_left, s.turn)
                    for s, e in zip(at_states, np.array(experts)[at].tolist())]
        np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal([teacher.dist(s) for s in at_states], rows)
    assert env.initial_tokens.tolist() == \
        [env.reset(t).token for t in range(config.task_count)]
    assert env.initial_state.tolist() == \
        [env.state_id(t, 0, 0) for t in range(config.task_count)]


@st.composite
def small_env_configs(draw):
    chain_length = draw(st.integers(1, 4))
    return EnvConfig(kind=draw(st.sampled_from((COMPOUNDING_CHAIN, MEMORY_LOCK))),
                     num_actions=draw(st.integers(2, 4)), chain_length=chain_length,
                     horizon_cap=draw(st.integers(chain_length, 8)),
                     off_support_depth=draw(st.integers(0, 3)),
                     task_count=draw(st.integers(1, 3)), seed=draw(st.integers(0, 10**6)))


@settings(max_examples=40, deadline=None)
@given(small_env_configs())
def test_every_reachable_state_steps_as_the_oracle_inside_the_tables(config):
    env = make_env(config)
    bound = config.off_support_depth * config.horizon_cap
    states = reachable_states(env)
    assert {s.task_id for s in states} == set(range(config.task_count))
    ids = state_ids(env, states)
    for a in range(config.num_actions):
        to = env.next_state[ids, a].tolist()
        for state, s in zip(states, to):
            assert state.turn < config.horizon_cap
            expected = oracle_step(env, state.task_id, state.pos, state.recovery_left, a)
            assert expected[1] <= bound  # never reaches the clipped debt levels
            after = env.step(state, a)
            assert (after.pos, after.recovery_left, after.token, after.success) == expected
            assert (env.pos[s], env.recovery[s], env.token[s], env.success[s]) == expected
            assert after.turn == state.turn + 1
            assert after.done == (after.success or after.turn == config.horizon_cap)


@pytest.mark.parametrize("kind", [COMPOUNDING_CHAIN, MEMORY_LOCK])
def test_reachability_walk_names_the_task_a_corrupted_table_strands(kind):
    env = make_env(EnvConfig(kind=kind))
    env._check_reachability()  # the tables as built pass
    # send task 5's expert action at pos 3 back to its start
    s = env.state_id(5, 3, 0)
    env.next_state[s, env.expert[s]] = env.initial_state[5]
    with pytest.raises(ConfigError, match="task 5 is unreachable"):
        env._check_reachability()
    env.next_state[s, env.expert[s]] = env.state_id(5, 4, 0)
    env._check_reachability()
    env.success[env.state_id(31, env.config.chain_length, 0)] = False
    with pytest.raises(ConfigError, match="task 31 is unreachable"):
        env._check_reachability()


# -- the row functions against the per-distribution formulas, written out ----------


def oracle_softmax(logits, temperature):
    z = np.asarray(logits, dtype=np.float64) / temperature
    e = np.exp(z - z.max())
    return e / e.sum()


def oracle_sample(dist, u):
    """Inverse CDF: the first action whose cumulative mass exceeds u."""
    cum = np.cumsum(dist)
    return min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)


def oracle_forward_kl(p, q):
    mask = p > 0
    log_p = np.log(p, out=np.zeros_like(p), where=mask)
    terms = np.where(mask, p * (log_p - np.log(np.maximum(q, 1e-12))), 0.0)
    return max(0.0, float(terms.sum()))


def test_row_functions_match_their_scalar_forms():
    gen = np.random.default_rng(8)
    logits = gen.normal(0.0, 3.0, (50, 5))
    logits[0] = [40.0, 0.0, 0.0, 0.0, 0.0]  # underflowing entries
    u = gen.random(50)
    for temperature in (0.4, 1.0):
        q = softmax_rows(logits, temperature)
        np.testing.assert_allclose(q, [softmax(z, temperature) for z in logits],
                                   rtol=1e-13, atol=1e-300)
        assert np.array_equal(q, [oracle_softmax(z, temperature) for z in logits])
        assert sample_rows(q, u).tolist() == \
            [sample_action(row, RowRng(np.array([x]))) for row, x in zip(q, u)] == \
            [oracle_sample(row, x) for row, x in zip(q, u)]
    p = softmax_rows(logits * 30.0)  # has exact zeros, which KL terms skip
    assert (p == 0).any()
    q = softmax_rows(logits)
    kl = forward_kl_rows(p, log_rows(p), log_floor(q))
    np.testing.assert_allclose(kl, [forward_kl(a, b) for a, b in zip(p, q)],
                               rtol=1e-12, atol=1e-300)
    assert kl.tolist() == [oracle_forward_kl(a, b) for a, b in zip(p, q)]
    # a draw that lands exactly on a cumulative mass moves on to the next action
    edge = np.array([[0.25, 0.25, 0.5]])
    assert sample_rows(edge, np.array([0.25])).tolist() == [oracle_sample(edge[0], 0.25)] == [1]
