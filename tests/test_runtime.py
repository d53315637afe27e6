from __future__ import annotations

import itertools
import threading

import numpy as np
import pytest

from opdlab import runtime
from opdlab.curriculum import horizon_at
from opdlab.distill import collect_teacher_trajectories
from opdlab.env import Env, EnvConfig, TeacherPolicy, make_env, make_teacher
from opdlab.errors import ConfigError, UsageError
from opdlab.metrics import write_records
from opdlab.policy import PolicyParams, save_params
from opdlab.runtime import RunConfig, SnapshotBoard, evaluate, run_training


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
    assert board.latest().version == 1
    with pytest.raises(UsageError):
        board.publish(PolicyParams(num_actions=2, version=1))


# -- evaluate ---------------------------------------------------------------------


def test_evaluate_teacher_against_itself_zero_profile():
    env = make_env(EnvConfig())
    teacher = make_teacher(env, on_support_temperature=1e-3)
    params = teacher.materialize()
    record = evaluate(params, env, teacher, 64, rng(5))
    assert record.per_turn_kl == [0.0] * len(record.per_turn_kl)
    assert record.traj_kl_mean == 0.0
    assert record.success_rate == 1.0


def test_evaluate_oracle_student_high_sr():
    for seed in range(5):
        env = make_env(EnvConfig())
        teacher = make_teacher(env)
        params = teacher.materialize()
        record = evaluate(params, env, teacher, 64, rng(seed))
        assert record.success_rate >= 0.95


def test_evaluate_uniform_student_near_zero_sr():
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    record = evaluate(PolicyParams(num_actions=6), env, teacher, 64, rng(3))
    assert record.success_rate <= 0.01


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

    monkeypatch.setattr(runtime, "_rollout_for", no_rollouts)
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
    cfg = tiny_cfg(algo="sft", total_steps=20, eval_every=20)
    store = collect_for(cfg)
    calls = [0]
    real_step = Env.step

    def counting_step(self, state, action):
        calls[0] += 1
        return real_step(self, state, action)

    monkeypatch.setattr(Env, "step", counting_step)
    make_env(cfg.env)
    reachability_check = calls[0]
    stored_turns = sum(len(a) for a in store.actions_by_task.values())
    per_run = {}
    for total_steps in (5, 20):
        calls[0] = 0
        run_training(tiny_cfg(algo="sft", total_steps=total_steps, eval_every=20), store)
        per_run[total_steps] = calls[0]
    assert per_run[20] <= stored_turns + reachability_check
    assert per_run[5] == per_run[20]


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
    real = runtime._rollout_for
    calls = itertools.count()

    def broken(*args, **kwargs):
        # "one": only the third rollout fails; the others keep going
        if failing_actors == "all" or next(calls) == 2:
            raise RuntimeError("actor exploded")
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime, "_rollout_for", broken)
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
    newest = [0]
    seen = []  # (newest published version, snapshot version) per rollout
    real_publish = SnapshotBoard.publish
    real_rollout = runtime._rollout_for

    def publish(self, params):
        newest[0] = params.version
        real_publish(self, params)

    def rollout(algo, env, store, snapshot, *args):
        seen.append((newest[0], snapshot.version))
        return real_rollout(algo, env, store, snapshot, *args)

    monkeypatch.setattr(SnapshotBoard, "publish", publish)
    monkeypatch.setattr(runtime, "_rollout_for", rollout)
    cfg = tiny_cfg(mode="async", actor_count=depth, total_steps=30, batch_size=4,
                   delta_max=3)
    result = run_training(cfg)
    newest_at = [v for v, _ in seen]
    used = [v for _, v in seen]
    assert used == [newest_at[max(0, j - depth + 1)] for j in range(len(seen))]
    # a step has at least one rollout, so a snapshot lags by at most depth - 1
    lags = [a - b for a, b in seen]
    assert max(lags) <= depth - 1
    assert (max(lags) > 0) == (depth > 1)
    assert result.max_staleness_seen <= cfg.delta_max


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
