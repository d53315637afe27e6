from __future__ import annotations

import contextlib
import itertools
import os
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opdlab import distill, runtime
from opdlab.curriculum import b2f_prefix_len, horizon_at
from opdlab.distill import collect_teacher_trajectories
from opdlab.env import Env, EnvConfig, TeacherPolicy, make_env, make_teacher
from opdlab.errors import ConfigError, UsageError
from opdlab.metrics import MetricsLog, write_csv, write_records
from opdlab.policy import PolicyParams, load_params, save_params
from opdlab.runtime import RunConfig, SnapshotBoard, _episode_summary, _mean, evaluate, run_training

import oracles


def rng(seed=0):
    return np.random.default_rng(seed)


def tiny_cfg(**kw):
    base = dict(total_steps=12, batch_size=8, eval_every=6, eval_episodes=16,
                seed=1)
    base.update(kw)
    return RunConfig(**base)


def collect_for(cfg, seed=1):
    env = make_env(cfg.env)
    teacher = TeacherPolicy(env, cfg.teacher)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 919])))
    return collect_teacher_trajectories(env, teacher, cfg.pass_m, gen)


# -- snapshot board ---------------------------------------------------------------


def test_board_versions_strictly_increase():
    params = PolicyParams(num_actions=2)
    board = SnapshotBoard(params)
    newer = PolicyParams(num_actions=2, version=1)
    board.publish(newer)
    with pytest.raises(UsageError, match="version 1 does not advance past 1"):
        board.publish(PolicyParams(num_actions=2, version=1))


# -- evaluate ---------------------------------------------------------------------


def test_evaluate_teacher_against_itself_zero_profile():
    env = make_env(EnvConfig())
    teacher = make_teacher(env, on_support_temperature=1e-3)
    params = oracles.materialize(teacher)
    record = evaluate(params, env, teacher, 64, rng(5))
    assert record.per_turn_kl == [0.0] * len(record.per_turn_kl)
    assert record.traj_kl_mean == 0.0
    assert record.success_rate == 1.0


def test_evaluate_oracle_student_high_sr():
    for seed in range(5):
        env = make_env(EnvConfig())
        teacher = make_teacher(env)
        params = oracles.materialize(teacher)
        record = evaluate(params, env, teacher, 64, rng(seed))
        assert record.success_rate >= 0.95


def test_evaluate_uniform_student_near_zero_sr():
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    record = evaluate(PolicyParams(num_actions=6), env, teacher, 64, rng(3))
    assert record.success_rate <= 0.01


@pytest.mark.parametrize("window", [None, 2])
def test_evaluation_in_slices_writes_the_record_of_one_call(monkeypatch, tmp_path, window):
    """evaluate runs its episodes as rollout_lockstep calls of at most
    EVAL_SLICE episodes; an episode does not depend on its batch, so slices
    of 7 write the bytes of the one call that a slice of 1024 makes."""
    cfg = tiny_cfg(algo="f2b", window=window)
    params = run_training(cfg).final_params
    env = make_env(cfg.env)
    teacher = make_teacher(env)
    calls, real = [], runtime.rollout_lockstep

    def lockstep(*args, **kwargs):
        calls.append(len(args[3]))
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime, "rollout_lockstep", lockstep)
    lines = []
    for size in (runtime.EVAL_SLICE, 7):
        monkeypatch.setattr(runtime, "EVAL_SLICE", size)
        log = MetricsLog()
        log.append(evaluate(params, env, teacher, 64, rng(8), window=window))
        write_records(log, tmp_path / "eval.jsonl")
        lines.append((tmp_path / "eval.jsonl").read_text().splitlines()[1])
    assert calls == [64] + [7] * 9 + [1]
    assert lines[0] == lines[1]


def test_evaluate_validates_episodes():
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    with pytest.raises(ConfigError):
        evaluate(PolicyParams(num_actions=6), env, teacher, 0, rng(0))


def test_evaluate_deterministic_per_rng_state():
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    params = PolicyParams(num_actions=6)
    a = evaluate(params, env, teacher, 32, rng(7))
    b = evaluate(params, env, teacher, 32, rng(7))
    assert a == b


# -- sync training -----------------------------------------------------------------


def test_sync_run_reproducible_bitwise():
    cfg = tiny_cfg()
    r1 = run_training(cfg)
    r2 = run_training(cfg)
    assert r1.log.records == r2.log.records
    assert set(r1.final_params.logits) == set(r2.final_params.logits)
    for k in r1.final_params.logits:
        assert np.array_equal(r1.final_params.logits[k], r2.final_params.logits[k])
    assert r1.final_params.version == cfg.total_steps


def test_flat_curriculum_f2b_equals_opd():
    cap = EnvConfig().horizon_cap
    opd = run_training(tiny_cfg(algo="opd", k_start=cap, cap=cap))
    f2b = run_training(tiny_cfg(algo="f2b", k_start=cap, cap=cap))
    assert opd.log.records == f2b.log.records
    for k in opd.final_params.logits:
        assert np.array_equal(opd.final_params.logits[k], f2b.final_params.logits[k])


def test_active_k_logged_matches_schedule():
    cfg = tiny_cfg(algo="f2b", k_start=1, eta=3)
    result = run_training(cfg)
    schedule = cfg.schedule()
    for record in result.log.train_records():
        assert record.active_k == horizon_at(schedule, record.step)


def test_train_records_cover_every_step():
    cfg = tiny_cfg()
    result = run_training(cfg)
    assert [r.step for r in result.log.train_records()] == list(range(cfg.total_steps))
    assert result.log.eval_records(split="eval")[-1].step == cfg.total_steps - 1


def test_staleness_bound_enforced_sync():
    cfg = tiny_cfg(total_steps=30, delta_max=2)
    result = run_training(cfg)
    assert result.max_staleness_seen <= 2
    for r in result.log.train_records():
        assert r.mean_staleness <= 2.0


def test_b2f_requires_store():
    with pytest.raises(ConfigError):
        run_training(tiny_cfg(algo="b2f"))


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_b2f_rejects_store_missing_a_task_before_running(mode, monkeypatch):
    cfg = tiny_cfg(algo="b2f", mode=mode, actor_count=2)
    store = collect_for(cfg)
    del store.actions_by_task[3]

    def no_rollouts(*args, **kwargs):
        raise AssertionError("a rollout ran before the store was checked")

    monkeypatch.setattr(runtime, "rollout_batch", no_rollouts)
    with pytest.raises(ConfigError, match=r"lacks tasks \[3\]"):
        run_training(cfg, store)


def test_b2f_warns_when_budget_too_small():
    cfg = tiny_cfg(algo="b2f", total_steps=4, eta=6)
    store = collect_for(cfg)
    with pytest.warns(UserWarning, match="prefix"):
        run_training(cfg, store)


def test_b2f_prefix_shrinks_to_zero():
    cfg = tiny_cfg(algo="b2f", total_steps=24, eta=2)
    store = collect_for(cfg)
    result = run_training(cfg, store)
    rollouts = result.log.eval_records(split="rollout")
    max_l = store.max_length()
    clear_step = (max_l - cfg.k_start) * cfg.eta
    late = [r for r in rollouts if r.step >= clear_step]
    assert late and all(r.mean_prefix_len == 0.0 for r in late)
    early = [r for r in rollouts if r.step == 0]
    assert early[0].mean_prefix_len > 0


def test_sft_run_improves_over_uniform():
    cfg = tiny_cfg(algo="sft", total_steps=20, lr=0.5, eval_every=20)
    store = collect_for(cfg)
    result = run_training(cfg, store)
    final = result.log.eval_records(split="eval")[-1]
    assert final.success_rate > 0.3
    train = result.log.train_records()
    assert train[-1].loss < train[0].loss


def test_sft_replays_the_store_once_per_run(monkeypatch):
    """An sft run plays its store in one engine call, however many steps it
    takes; evaluation's calls have no algo. Neither it nor collection walks
    EnvState values."""
    def refuse(*args):
        raise AssertionError("an EnvState walk")

    for name in ("step", "reset"):
        monkeypatch.setattr(Env, name, refuse)
    monkeypatch.setattr(TeacherPolicy, "dist", refuse)
    cfg = tiny_cfg(algo="sft", total_steps=20, eval_every=20)
    store = collect_for(cfg)
    algos, real = [], distill.rollout_lockstep

    def spy(*args, **kwargs):
        algos.append(kwargs.get("algo"))
        return real(*args, **kwargs)

    monkeypatch.setattr(distill, "rollout_lockstep", spy)
    monkeypatch.setattr(runtime, "rollout_lockstep", spy)
    for total_steps in (5, 20):
        algos.clear()
        run_training(tiny_cfg(algo="sft", total_steps=total_steps, eval_every=20), store)
        assert algos == ["sft", None]


def test_sft_requires_store():
    with pytest.raises(ConfigError):
        run_training(tiny_cfg(algo="sft"))


# -- async training ----------------------------------------------------------------


def test_async_run_completes_with_staleness_bound():
    cfg = tiny_cfg(mode="async", total_steps=40, batch_size=16, actor_count=3,
                   eval_every=20)
    result = run_training(cfg)
    assert result.max_staleness_seen <= cfg.delta_max
    assert len(result.log.train_records()) == cfg.total_steps
    assert result.final_params.version == cfg.total_steps


@pytest.mark.parametrize("mode,failing_actors", [
    pytest.param("async", "all", id="all"),
    pytest.param("async", "one", id="one"),
    pytest.param("sync", "all", id="sync-all"),
    pytest.param("sync", "one", id="sync-one"),
])
def test_async_actor_failure_is_raised_by_the_learner(monkeypatch, mode, failing_actors):
    real = runtime.rollout_batch
    calls = itertools.count()

    def broken(*args, **kwargs):
        # "one": only the third wave of rollouts fails; the others keep going
        if failing_actors == "all" or next(calls) == 2:
            raise RuntimeError("actor exploded")
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime, "rollout_batch", broken)
    cfg = tiny_cfg(mode=mode, total_steps=2000, actor_count=3, eval_every=1000)
    raised = []

    def learner():
        try:
            run_training(cfg)
        except RuntimeError as exc:
            raised.append(exc)

    # run the learner on a thread so a learner that waits forever fails the
    # test instead of hanging it
    thread = threading.Thread(target=learner, daemon=True)
    thread.start()
    thread.join(timeout=5.0)
    assert not thread.is_alive(), "run_training still running 5 s after a rollout failed"
    assert [str(e) for e in raised] == ["actor exploded"]


def artifact_bodies(result, tmp_path, name):
    """metrics.jsonl without its header line, and checkpoint.jsonl, as bytes."""
    metrics, ckpt = tmp_path / f"{name}.metrics.jsonl", tmp_path / f"{name}.ckpt.jsonl"
    write_records(result.log, metrics)
    save_params(result.final_params, ckpt)
    return metrics.read_bytes().split(b"\n", 1)[1], ckpt.read_bytes()


@pytest.mark.parametrize("algo", ["opd", "f2b", "b2f"])
def test_async_with_one_actor_is_byte_identical_to_sync(algo, tmp_path):
    cfg = tiny_cfg(algo=algo, total_steps=30, eval_every=10)
    store = collect_for(cfg) if algo == "b2f" else None
    sync = run_training(cfg, store)
    lagless = run_training(tiny_cfg(algo=algo, total_steps=30, eval_every=10,
                                    mode="async", actor_count=1), store)
    assert (artifact_bodies(sync, tmp_path, "sync")
            == artifact_bodies(lagless, tmp_path, "async"))


@pytest.mark.parametrize("window", [None, 2])
@pytest.mark.parametrize("mode,actor_count", [("sync", 1), ("async", 2), ("async", 4)])
@pytest.mark.parametrize("algo", ["opd", "f2b", "b2f"])
def test_artifacts_do_not_depend_on_wave_width(monkeypatch, tmp_path, algo, mode,
                                               actor_count, window):
    cfg = tiny_cfg(algo=algo, mode=mode, actor_count=actor_count, window=window,
                   total_steps=16, batch_size=32, delta_max=1, eval_every=8)
    store = collect_for(cfg) if algo == "b2f" else None
    real_width = runtime._wave_width
    widths = []

    def spy(missing, max_turns):
        widths.append(real_width(missing, max_turns))
        return widths[-1]

    artifacts = []
    for name, width in (("derived", spy), ("one", lambda missing, max_turns: 1)):
        monkeypatch.setattr(runtime, "_wave_width", width)
        result = run_training(cfg, store)
        csv = tmp_path / f"{name}.csv"
        write_csv(result.log, csv)
        artifacts.append(artifact_bodies(result, tmp_path, name) + (csv.read_bytes(),))
    assert max(widths) > 1
    assert artifacts[0] == artifacts[1]


def test_async_run_reproducible_bitwise(tmp_path):
    cfg = tiny_cfg(algo="f2b", mode="async", actor_count=3, total_steps=40, eval_every=10)
    first = artifact_bodies(run_training(cfg), tmp_path, "a")
    assert first == artifact_bodies(run_training(cfg), tmp_path, "b")
    sync = artifact_bodies(run_training(tiny_cfg(algo="f2b", total_steps=40, eval_every=10)),
                           tmp_path, "sync")
    assert first != sync


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_each_rollout_acts_on_the_snapshot_newest_depth_minus_one_rollouts_earlier(
        monkeypatch, depth):
    """Observed on the delivered rollouts: rollout j acts on the table that was
    newest when rollout j - depth + 1 was delivered, and at the curriculum
    horizon of the step in which it started, the one that delivered rollout
    j - depth + 1 (b2f, whose expert prefix shows the horizon)."""
    delivered = []  # (step, version, task, prefix length) per delivered rollout, in order
    real_deliver = runtime._Starter.deliver

    def deliver(self, step, *args):
        b = real_deliver(self, step, *args)
        delivered.extend((step, v, task, p) for v, task, p in zip(
            b.versions.tolist(), b.task_ids.tolist(), b.prefix_len.tolist()))
        return b

    monkeypatch.setattr(runtime._Starter, "deliver", deliver)
    cfg = tiny_cfg(algo="b2f", mode="async", actor_count=depth, total_steps=30,
                   batch_size=4, delta_max=3)
    store = collect_for(cfg)
    result = run_training(cfg, store)
    # version n is the newest table throughout step n
    steps = [n for n, *_ in delivered]
    started = [steps[max(0, j - depth + 1)] for j in range(len(delivered))]
    assert [v for _, v, *_ in delivered] == started
    # a step has at least one rollout, so a snapshot lags by at most depth - 1
    lags = [n - v for n, v, *_ in delivered]
    assert max(lags) <= depth - 1
    assert (max(lags) > 0) == (depth > 1)
    schedule = cfg.schedule()

    def prefixes(at):
        return [b2f_prefix_len(len(store.get(task)), horizon_at(schedule, n))
                for (_, _, task, _), n in zip(delivered, at)]

    assert [p for *_, p in delivered] == prefixes(started)
    assert (prefixes(started) != prefixes(steps)) == (depth > 1)
    assert result.max_staleness_seen <= cfg.delta_max


@pytest.mark.parametrize("depth", [2, 4])
def test_an_async_run_starts_only_the_rollouts_it_delivers(monkeypatch, depth):
    """Every rollout started is delivered: the last step starts none past its
    own. (A batch of 32 takes at least 3 opd rollouts a step, so the last
    step also delivers the depth - 1 <= 3 that the step before started.)"""
    started, delivered = [], []
    real_batch, real_deliver = runtime.rollout_batch, runtime._Starter.deliver

    def batch(*args, **kwargs):
        rollouts = real_batch(*args, **kwargs)
        started.append(len(rollouts))
        return rollouts

    def deliver(*args):
        rollouts = real_deliver(*args)
        delivered.append(len(rollouts))
        return rollouts

    monkeypatch.setattr(runtime, "rollout_batch", batch)
    monkeypatch.setattr(runtime._Starter, "deliver", deliver)
    run_training(tiny_cfg(algo="opd", mode="async", actor_count=depth, batch_size=32))
    assert sum(started) == sum(delivered) > 0


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_undelivered_rollouts_are_fewer_than_the_depth(monkeypatch, mode):
    """A rollout started but never delivered costs compute and changes no
    artifact. The last step of an async run delivers the rollouts the step
    before started ahead of it, but when it needs fewer than depth - 1 of
    them, the rest are never delivered: at a batch of 8, a step takes one or
    two opd rollouts, and here the last step takes one of the three started
    ahead. A sync run starts only what it delivers. (At a batch of 32, an
    async run delivers all it starts; see the test above.)"""
    started = [0]
    real_batch = runtime.rollout_batch

    def batch(*args, **kwargs):
        rollouts = real_batch(*args, **kwargs)
        started[0] += len(rollouts)
        return rollouts

    monkeypatch.setattr(runtime, "rollout_batch", batch)
    cfg = tiny_cfg(algo="opd", mode=mode, actor_count=4)
    result = run_training(cfg)
    delivered = sum(r.n_rollouts for r in result.log.eval_records(split="rollout"))
    undelivered = started[0] - delivered
    assert delivered > 0
    if mode == "async":
        assert 0 < undelivered <= cfg.actor_count - 1
    else:
        assert undelivered == 0


@st.composite
def small_runs(draw):
    """Short opd, f2b and b2f runs over the settings that decide when a
    pre-started rollout must run again: few tasks, deep lags, a large
    staleness budget and a curriculum horizon that moves."""
    cap = EnvConfig().horizon_cap
    return RunConfig(
        algo=draw(st.sampled_from(["opd", "f2b", "b2f"])),
        env=EnvConfig(task_count=draw(st.integers(2, 40))),
        mode=draw(st.sampled_from(["sync", "async"])), actor_count=draw(st.integers(1, 4)),
        batch_size=draw(st.integers(4, 64)), delta_max=draw(st.integers(0, 8)),
        window=draw(st.sampled_from([None, 0, 2])),
        train_temperature=draw(st.sampled_from([1.0, 0.7])),
        k_start=draw(st.integers(1, cap)), eta=draw(st.integers(1, 4)),
        total_steps=draw(st.integers(1, 24)), eval_every=draw(st.integers(4, 24)),
        eval_episodes=8, seed=draw(st.integers(0, 2 ** 16)))


@contextlib.contextmanager
def training_rollouts():
    """Record, in the list it yields, the width of each training call of the
    engine (evaluation calls are not recorded)."""
    widths, real = [], distill.rollout_lockstep

    def lockstep(*args, **kwargs):
        if kwargs.get("algo") is not None:
            widths.append(len(args[3]))
        return real(*args, **kwargs)

    with mock.patch.object(distill, "rollout_lockstep", lockstep):
        yield widths


def test_prestarted_rollouts_give_the_bytes_of_starting_each_when_due(tmp_path):
    """A run that pre-starts its rollouts writes the records and checkpoint
    of the loop that starts each rollout when it comes due, and runs no
    rollout twice: a call pre-starts none from the first whose task has
    entries the learner may still sample, and none past the horizon's next
    change. The explicit examples are those where wider calls re-ran
    rollouts: a task read again within the staleness budget (few tasks,
    large delta_max), and a horizon that moves before they come due. (The
    re-run itself is checked on the queue, in the test below.)"""
    stores, reruns = {}, []

    def run(train, cfg, store, name):
        with training_rollouts() as started, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # short b2f curricula
            result = train(cfg, store)
        save_params(result.final_params, tmp_path / name)
        return result, sum(started), (tmp_path / name).read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(small_runs())
    @example(RunConfig(algo="opd", env=EnvConfig(task_count=8), total_steps=12,
                       delta_max=8, eval_every=6, eval_episodes=8))
    @example(RunConfig(algo="f2b", mode="async", actor_count=3, total_steps=16,
                       batch_size=16, eta=1, eval_every=8, eval_episodes=8))
    @example(RunConfig(algo="b2f", total_steps=16, batch_size=8, window=2,
                       train_temperature=0.7, eta=1, eval_every=8, eval_episodes=8))
    def check(cfg):
        store = None
        if cfg.algo == "b2f":
            if cfg.env.task_count not in stores:
                stores[cfg.env.task_count] = collect_for(cfg)
            store = stores[cfg.env.task_count]
        result, engine, ckpt = run(run_training, cfg, store, "run.jsonl")
        reference, due, reference_ckpt = run(oracles.run_distill, cfg, store, "ref.jsonl")
        assert result.log.records == reference.log.records
        assert ckpt == reference_ckpt
        assert result.max_staleness_seen == reference.max_staleness_seen
        assert engine >= due
        reruns.append(engine - due)

    check()
    assert sum(reruns) == 0


def test_a_queued_rollout_whose_row_was_written_runs_again_when_it_starts():
    """The queue's safety net: a pre-started rollout that read a key written
    by a learner step after it ran (marked through ``wrote``) runs again when
    it starts, so it is delivered as the rollout run fresh on the table of
    that time, on its own row of uniforms; the queued rollouts beside it,
    which read no written key, are kept."""
    config = RunConfig(algo="opd", total_steps=10)
    env = make_env(config.env)
    teacher = TeacherPolicy(env, config.teacher)
    params = PolicyParams(config.env.num_actions)
    starter = runtime._Starter(config, env, teacher, None, rng(3))
    starter.deliver(0, 1, params, 1)
    queued, u = starter.queue, starter.u[:3].copy()
    before = queued.take(slice(3)).entries.copy()
    assert len(queued) > 3
    # a learner step writes the keys of the second queued rollout, each row
    # peaked on another action than the one it took
    played = slice(int(queued.rounds[1]))
    ids, taken = queued.keys[1, played].astype(np.int64), queued.actions[1, played]
    a = config.env.num_actions
    params.write(ids, np.where(np.arange(a) == (taken[:, None] + 1) % a, 30.0, 0.0), 1)
    starter.wrote(ids, params.version)
    runs = []

    def batch(algo, env, params, teacher, tasks, *args, **kwargs):
        runs.append(len(tasks))
        return distill.rollout_batch(algo, env, params, teacher, tasks, *args, **kwargs)

    with mock.patch.object(runtime, "rollout_batch", batch):
        delivered = starter.deliver(1, 3, params, 1)
    fresh = distill.rollout_batch("opd", env, params, teacher, delivered.task_ids, 1, u)
    assert runs == [1]
    for got, expected in zip(delivered._columns(), fresh._columns()):
        assert got.tobytes() == expected.tobytes()
    assert delivered.actions[1, 0] != before[1, 0, 1]
    kept = [0, 2]
    assert np.array_equal(delivered.entries[kept, :, :4], before[kept, :, :4])


@pytest.mark.parametrize("window", [None, 2])
@pytest.mark.parametrize("mode,actor_count", [("sync", 1), ("async", 2), ("async", 4)])
@pytest.mark.parametrize("algo", ["opd", "f2b", "b2f"])
def test_records_equal_those_made_in_the_loop(monkeypatch, algo, mode, actor_count, window):
    """The records a run builds after its loop, from per-step numbers, are
    bitwise those that the in-loop oracle makes in each step from its
    delivered batches. Each run delivers more than the 64 waves that the run
    loop joins into one, and at a batch of 8, every b2f run and every run at
    an actor lag of 4 has steps of several waves."""
    cfg = tiny_cfg(algo=algo, mode=mode, actor_count=actor_count, window=window,
                   total_steps=70, eval_every=30)
    store = collect_for(cfg) if algo == "b2f" else None
    waves, real_deliver = [], runtime._Starter.deliver

    def deliver(self, step, *args):
        waves.append(step)
        return real_deliver(self, step, *args)

    monkeypatch.setattr(runtime._Starter, "deliver", deliver)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # short b2f curricula
        result = run_training(cfg, store)
        reference = oracles.run_distill(cfg, store)
    assert [repr(r) for r in result.log.records] == [repr(r) for r in reference.log.records]
    several = len(waves) > len(set(waves))
    assert several or (algo != "b2f" and actor_count < 4)
    assert len(waves) > 64


@pytest.mark.parametrize("algo,mode", [("opd", "sync"), ("f2b", "async")])
def test_no_delivered_rollout_is_kept_to_the_end_of_the_run(monkeypatch, algo, mode):
    """A delivered Rollouts is a view that keeps its engine call's entries
    block alive, so the run keeps per-step numbers instead: the first
    call's block, a task cycle of rollouts at most, is freed before the last
    step of a run that delivers more."""
    first, alive = [], []
    real_batch, real_horizon = runtime.rollout_batch, runtime.horizon_at

    def batch(*args, **kwargs):
        rollouts = real_batch(*args, **kwargs)
        if not first:
            first.append(weakref.ref(rollouts.entries))
        return rollouts

    def horizon(schedule, n):
        if n == schedule.total_steps - 1:
            alive.append(first[0]() is not None)
        return real_horizon(schedule, n)

    monkeypatch.setattr(runtime, "rollout_batch", batch)
    monkeypatch.setattr(runtime, "horizon_at", horizon)
    run_training(tiny_cfg(algo=algo, mode=mode, actor_count=2, total_steps=60))
    assert alive == [False]


def test_a_default_opd_run_reruns_no_prestarted_rollout():
    """With 32 tasks and a staleness budget of 2, no row a pre-started opd
    rollout read is written before it comes due, so the engine runs each
    rollout once. (Evaluation, which pre-starting leaves alone, runs once.)
    It does so in few wide calls: the rollouts of about 8 waves a call, up
    to the first task whose entries the learner may still sample, and
    never more than a task cycle."""
    config = RunConfig(algo="opd", eval_every=400)
    with training_rollouts() as widths:
        result = run_training(config)
    assert sum(widths) == sum(r.n_rollouts for r in result.log.eval_records(split="rollout"))
    assert len(widths) <= 52
    assert max(widths) <= config.env.task_count


@pytest.mark.parametrize("algo", ["f2b", "b2f"])
def test_a_default_curriculum_run_reruns_few_prestarted_rollouts(algo):
    """f2b and b2f pre-start no rollout past those sure to start before the
    curriculum horizon next changes, so few run again when they come due."""
    config = RunConfig(algo=algo, eval_every=400)
    with training_rollouts() as widths:
        result = run_training(config, collect_for(config) if algo == "b2f" else None)
    delivered = sum(r.n_rollouts for r in result.log.eval_records(split="rollout"))
    assert 0 <= sum(widths) - delivered <= 5


def test_the_sampling_sums_are_built_once_per_temperature(tmp_path):
    """A run builds the whole-table block of each temperature it samples at
    once, not once per evaluation or engine call: a default opd run those of
    training's 1.0 and evaluation's 0.4, and one at a training temperature
    of 0.7 those of 0.7 and 0.4; the records are those of the in-loop
    engine, which takes the softmax of the logits every turn. An sft run
    builds its evaluation block once too, and none at 1.0: the engine call
    that walks the store plays expert-prefix turns only, and a turn on which
    every live episode is in its prefix samples nothing. A loaded table that
    is only evaluated builds no block at 1.0 either."""
    builds, real = [], PolicyParams._build_cum

    def spy(self, temperature):
        builds.append(temperature)
        return real(self, temperature)

    with mock.patch.object(PolicyParams, "_build_cum", spy):
        result = run_training(RunConfig(algo="opd"))
    assert sorted(builds) == [0.4, 1.0]
    config = RunConfig(algo="opd", total_steps=40, eval_every=5, train_temperature=0.7)
    builds.clear()
    with mock.patch.object(PolicyParams, "_build_cum", spy):
        records = run_training(config).log.records
    assert sorted(builds) == [0.4, 0.7]
    with mock.patch.object(distill, "rollout_lockstep", oracles.rollout_lockstep), \
            mock.patch.object(runtime, "rollout_lockstep", oracles.rollout_lockstep):
        assert run_training(config).log.records == records
    # a default sft run writes its block into one table at each of its 80 evaluations
    sft = RunConfig(algo="sft")
    builds.clear()
    with mock.patch.object(PolicyParams, "_build_cum", spy):
        run_training(sft, collect_for(sft))
    assert builds == [0.4]
    save_params(result.final_params, tmp_path / "checkpoint.jsonl")
    env = make_env(config.env)
    builds.clear()
    with mock.patch.object(PolicyParams, "_build_cum", spy):
        evaluate(load_params(tmp_path / "checkpoint.jsonl"), env, make_teacher(env), 64, rng(1))
    assert builds == [0.4]


def test_runs_do_not_import_numpy_ma():
    """numpy.ma holds about 1 MB once imported, and a plain np.unique (also
    inside np.isin) imports it; no run of any algo or mode does."""
    code = """
import sys
import numpy as np
from opdlab.distill import collect_teacher_trajectories
from opdlab.env import TeacherPolicy, make_env
from opdlab.runtime import RunConfig, run_training

cfg = RunConfig()
env = make_env(cfg.env)
store = collect_teacher_trajectories(env, TeacherPolicy(env, cfg.teacher), cfg.pass_m,
                                     np.random.default_rng(1))
for algo in ("opd", "f2b", "b2f", "sft"):
    for mode in ("sync", "async"):
        run_training(RunConfig(algo=algo, mode=mode, actor_count=2, total_steps=6,
                               batch_size=8, eta=1, eval_every=3, eval_episodes=8), store)
assert "numpy.ma" not in sys.modules
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "ignore::UserWarning", "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300).flatmap(lambda n: st.tuples(
    arrays(bool, n), arrays(np.int64, n, elements=st.sampled_from((0, 0, 1, 7, 12))),
    arrays(np.float64, n, elements=st.floats(0.0, 1e300) | st.sampled_from((0.0, 1e-300))))))
def test_episode_summary_equals_its_np_mean_form_bitwise(columns):
    """One episode or many, rounds all 0 or not, KL sums up to 1e300."""
    success, rounds, kl_sums = columns
    assert _episode_summary(success, rounds, kl_sums) == oracles.episode_summary(
        success, rounds, kl_sums)
    for x in columns:
        assert _mean(x) == float(np.mean(x))
    assert _mean(rounds * 2 ** 40) == float(np.mean(rounds * 2 ** 40))


def test_async_and_sync_reach_similar_final_sr():
    # easier environment so both modes converge within a small budget
    env = EnvConfig(num_actions=4, chain_length=4, horizon_cap=6,
                    off_support_depth=1, task_count=8)
    finals = {}
    for mode in ("sync", "async"):
        srs = []
        for seed in (1, 2, 3):
            cfg = RunConfig(algo="f2b", env=env, mode=mode, seed=seed,
                            total_steps=120, batch_size=16, eval_every=40,
                            eval_episodes=32, lr=0.7)
            res = run_training(cfg)
            srs.append(res.log.eval_records(split="eval")[-1].success_rate)
        finals[mode] = float(np.mean(srs))
    assert finals["sync"] > 0.5
    assert finals["async"] > 0.5
    assert abs(finals["sync"] - finals["async"]) < 0.25


def test_async_sync_parity_two_sample_default_config():
    # not bit-equality: final success rates from the two modes should be
    # statistically indistinguishable on the default configuration
    from scipy import stats

    finals = {"sync": [], "async": []}
    for mode in finals:
        for seed in (1, 2, 3, 4, 5):
            cfg = RunConfig(algo="f2b", mode=mode, seed=seed, total_steps=400,
                            eval_every=100, eval_episodes=64)
            res = run_training(cfg)
            finals[mode].append(res.log.eval_records(split="eval")[-1].success_rate)
    u = stats.mannwhitneyu(finals["sync"], finals["async"],
                           alternative="two-sided")
    assert u.pvalue > 0.01, finals
    assert abs(np.median(finals["sync"]) - np.median(finals["async"])) < 0.15, finals


def test_record_invariants_hold_on_real_run():
    cfg = tiny_cfg(total_steps=20, eval_every=4)
    result = run_training(cfg)
    horizon = cfg.env.horizon_cap
    for record in result.log.eval_records():
        assert record.avg_rounds <= horizon
        assert all(v >= 0 for v in record.per_turn_kl)
        assert 0.0 <= record.success_rate <= 1.0
    discards = [r.discarded_stale for r in result.log.train_records()]
    assert all(a <= b for a, b in zip(discards, discards[1:]))


# -- config validation ----------------------------------------------------------------


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(algo="dagger")
    with pytest.raises(ConfigError):
        RunConfig(mode="turbo")
    with pytest.raises(ConfigError):
        RunConfig(lr=0.0)
    with pytest.raises(ConfigError):
        RunConfig(eval_episodes=0)
    with pytest.raises(ConfigError, match="window"):
        RunConfig(window=-1)
    with pytest.raises(ConfigError, match="buffer_capacity"):
        RunConfig(batch_size=32, buffer_capacity=31)
    assert RunConfig(window=0).window == 0


def test_run_config_cap_defaults_to_horizon():
    cfg = RunConfig()
    assert cfg.cap == cfg.env.horizon_cap
    assert cfg.schedule().cap == cfg.env.horizon_cap
