"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one line (visible with `pytest -s` or in the captured
output summary) of the form `ACCEPTANCE <n> PASS <description>`. The
phenomenon criteria share one set of training runs via module fixtures.
"""

from __future__ import annotations

import math
import time
from itertools import product

import numpy as np
import pytest
from scipy import stats

from opdlab.cli import main
from opdlab.curriculum import CurriculumSchedule, horizon_at, steps_to_full_horizon
from opdlab.distill import _kl_block, collect_teacher_trajectories, rollout_batch
from opdlab.env import EnvConfig, make_env, make_teacher
from opdlab.metrics import per_turn_kl_profile
from opdlab.policy import PolicyParams, forward_kl, kl_logit_gradient, save_params, softmax
from opdlab.runtime import RunConfig, run_training

SEEDS = (1, 2, 3, 4, 5)
N_STEPS = 400
BATCH = 32
LR = 0.7  # shared by every compared algorithm


def report(num: int, description: str, elapsed: float) -> None:
    print(f"\nACCEPTANCE {num:2d} PASS  {description}  [{elapsed:.1f}s]")


def fresh_rng(*entropy):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def collect_store(env, seed, pass_m=10):
    teacher = make_teacher(env)
    return collect_teacher_trajectories(env, teacher, pass_m, fresh_rng(seed, 919))


def run_config(algo, seed, total_steps=N_STEPS, **kw):
    base = dict(algo=algo, seed=seed, total_steps=total_steps, lr=LR,
                batch_size=BATCH, eta=2, k_start=1, eval_every=5,
                eval_episodes=64)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def phenomenon_runs():
    """The criterion-7 training grid: {opd, f2b, b2f} x 5 seeds at N=400, and
    the expert store of each b2f run under ("store", seed)."""
    t0 = time.perf_counter()
    runs = {}
    for algo in ("opd", "f2b", "b2f"):
        for seed in SEEDS:
            cfg = run_config(algo, seed)
            store = None
            if algo == "b2f":
                store = runs[("store", seed)] = collect_store(make_env(cfg.env), seed)
            runs[(algo, seed)] = run_training(cfg, store)
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def final_sr(result):
    return result.log.eval_records(split="eval")[-1].success_rate


def tail_kl(result, fraction=0.1):
    evals = result.log.eval_records(split="eval")
    cutoff = (1.0 - fraction) * (N_STEPS - 1)
    return float(np.mean([r.traj_kl_mean for r in evals if r.step >= cutoff]))


# -- 1. pacing law exactness ---------------------------------------------------------


def test_01_pacing_law_exactness():
    t0 = time.perf_counter()
    checked = 0
    for k_start, eta, cap in product(range(1, 5), range(1, 7), range(1, 31)):
        if cap < k_start:
            continue
        schedule = CurriculumSchedule(k_start=k_start, eta=eta, cap=cap,
                                      total_steps=101)
        for n in range(0, 101):
            expected = min(k_start + n // eta, cap)
            assert horizon_at(schedule, n) == expected
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"pacing law exact on {checked} (k_start, eta, cap, n) points", elapsed)


# -- 2. gradient correctness -----------------------------------------------------------


def test_02_gradient_correctness():
    t0 = time.perf_counter()
    gen = np.random.default_rng(2024)
    step = 1e-5

    def fd(loss, z):
        g = np.zeros_like(z)
        for i in range(len(z)):
            zp, zm = z.copy(), z.copy()
            zp[i] += step
            zm[i] -= step
            g[i] = (loss(zp) - loss(zm)) / (2 * step)
        return g

    for _ in range(120):
        n = int(gen.integers(2, 8))
        p_raw = gen.uniform(0.05, 1.0, n)
        p = p_raw / p_raw.sum()
        z = gen.normal(0.0, 1.5, n)
        analytic = kl_logit_gradient(p, softmax(z))
        numeric = fd(lambda zz: forward_kl(p, softmax(zz)), z)
        assert np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric) < 1e-6

    for _ in range(120):
        n = int(gen.integers(2, 8))
        z = gen.normal(0.0, 1.5, n)
        a_star = int(gen.integers(0, n))
        analytic = softmax(z).copy()
        analytic[a_star] -= 1.0
        numeric = fd(lambda zz: -math.log(softmax(zz)[a_star]), z)
        assert np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric) < 1e-6

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, "KL and NLL logit gradients match central differences "
              "(240 cases, rel err < 1e-6)", elapsed)


# -- 3. equivalence limit ----------------------------------------------------------------


def test_03_equivalence_limit(tmp_path):
    t0 = time.perf_counter()
    cap = EnvConfig().horizon_cap

    # paired rollouts: bit-identical turn content under identical rng states
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    student = PolicyParams(num_actions=env.config.num_actions)
    for seed in range(40):
        a, b = (rollout_batch(algo, env, student, teacher, [seed % 32], cap,
                              fresh_rng(3, seed).random((1, cap))) for algo in ("opd", "f2b"))
        # one student, so one key index: equal key ids are equal keys
        for column in ("success", "rounds", "versions", "keys", "actions", "kl", "states"):
            assert np.array_equal(getattr(a, column), getattr(b, column)), column

    # 200-step sync runs: identical losses, records, and checkpoint bytes
    results = {}
    for algo in ("opd", "f2b"):
        cfg = run_config(algo, seed=11, total_steps=200, k_start=cap, cap=cap)
        results[algo] = run_training(cfg)
    assert [r.loss for r in results["opd"].log.train_records()] == \
           [r.loss for r in results["f2b"].log.train_records()]
    assert results["opd"].log.records == results["f2b"].log.records
    paths = {}
    for algo, result in results.items():
        paths[algo] = tmp_path / f"{algo}.jsonl"
        save_params(result.final_params, paths[algo])
    assert paths["opd"].read_bytes() == paths["f2b"].read_bytes()

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, "flat-curriculum f2b is bit-identical to opd "
              "(40 paired rollouts + 200-step runs)", elapsed)


# -- 4. stop-gradient contract ---------------------------------------------------------------


def test_04_stop_gradient_contract():
    t0 = time.perf_counter()
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    store = collect_store(env, seed=4, pass_m=10)
    gen = np.random.default_rng(4)
    tested = 0
    horizon = env.config.horizon_cap
    for i in range(50):
        task = int(gen.integers(0, env.config.task_count))
        length = len(store.get(task))
        k = int(gen.integers(1, max(2, length)))  # keep a nonempty prefix
        rows = {}
        for j in range(int(gen.integers(0, 8))):  # random partially trained table
            rows[(int(gen.integers(0, 50)),)] = gen.normal(0, 1, 6)
        student = PolicyParams(env.config.num_actions, rows)
        rollouts = rollout_batch("b2f", env, student, teacher, [task], k,
                                 fresh_rng(4, i).random((1, horizon)), store=store)
        p = int(rollouts.prefix_len[0])
        keys = rollouts.index.keys(rollouts.keys[0, :p + int(rollouts.rounds[0])])
        prefix_only = [key for key in keys[:p] if key not in keys[p:]]
        if not prefix_only:
            continue
        # the learner's loss and gradient: _kl_block of the replay entries
        base_loss, base_grads = _kl_block(rollouts.student_turns(), student, teacher)[:2]
        ids = np.array([rollouts.index.find(key) for key in prefix_only])
        perturbed = student.snapshot()
        perturbed.write(ids, np.array([gen.normal(0, 50, 6) for _ in prefix_only]),
                        student.version)
        new_loss, new_grads = _kl_block(rollouts.student_turns(), perturbed, teacher)[:2]
        assert new_loss - base_loss == 0.0
        assert set(new_grads) == set(base_grads)
        assert not (set(new_grads) & set(prefix_only))
        tested += 1
    assert tested >= 40
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(4, f"prefix-only perturbations moved the loss by exactly 0 "
              f"on {tested} b2f trajectories", elapsed)


# -- 5. staleness soundness ---------------------------------------------------------------------


def test_05_staleness_soundness_async():
    t0 = time.perf_counter()
    cfg = run_config("f2b", seed=5, total_steps=500, mode="async",
                     eval_every=50, actor_count=4, delta_max=2)
    result = run_training(cfg)
    assert result.max_staleness_seen <= 2
    assert len(result.log.train_records()) == 500
    assert all(r.mean_staleness <= 2.0 for r in result.log.train_records())
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(5, f"async 500-step run consumed no entry older than delta_max=2 "
              f"(max seen {result.max_staleness_seen})", elapsed)


# -- 6. phenomenon A: per-turn KL growth --------------------------------------------------------


def test_06_per_turn_kl_growth():
    t0 = time.perf_counter()
    worst_rho, worst_ratio = 1.0, float("inf")
    for seed in SEEDS:
        env = make_env(EnvConfig())
        teacher = make_teacher(env)
        student = PolicyParams(num_actions=env.config.num_actions)
        # 256 opd rollouts, episode i on row i of one generator's uniforms
        horizon = env.config.horizon_cap
        rollouts = rollout_batch("opd", env, student, teacher,
                                 np.arange(256) % env.config.task_count, horizon,
                                 fresh_rng(6, seed).random((256, horizon)))
        profile = per_turn_kl_profile(rollouts)
        rho = stats.spearmanr(np.arange(len(profile)), profile).statistic
        ratio = float(np.mean(profile[9:12]) / np.mean(profile[0:3]))
        assert rho > 0.6, f"seed {seed}: spearman rho {rho:.3f} <= 0.6"
        assert ratio >= 1.5, f"seed {seed}: late/early KL ratio {ratio:.2f} < 1.5"
        worst_rho = min(worst_rho, rho)
        worst_ratio = min(worst_ratio, ratio)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, f"per-turn KL grows with turn index for every seed "
              f"(worst rho {worst_rho:.2f}, worst late/early {worst_ratio:.2f})",
           elapsed)


# -- 7. phenomenon B: curriculum benefit ---------------------------------------------------------


def test_07_curriculum_benefit(phenomenon_runs):
    t0 = time.perf_counter()
    medians = {algo: float(np.median([final_sr(phenomenon_runs[(algo, s)])
                                      for s in SEEDS]))
               for algo in ("opd", "f2b", "b2f")}
    assert medians["f2b"] >= medians["opd"] + 0.10, medians
    assert medians["b2f"] >= medians["opd"] + 0.10, medians
    elapsed = time.perf_counter() - t0 + phenomenon_runs["elapsed"]
    assert phenomenon_runs["elapsed"] < 600.0
    report(7, f"median final SR: opd={medians['opd']:.3f} "
              f"f2b={medians['f2b']:.3f} b2f={medians['b2f']:.3f} "
              f"(both gaps >= 0.10)", elapsed)


# -- 8. phenomenon C: KL stability ----------------------------------------------------------------


def test_08_kl_stability(phenomenon_runs):
    t0 = time.perf_counter()
    wins = 0
    pairs = []
    for seed in SEEDS:
        f2b = tail_kl(phenomenon_runs[("f2b", seed)])
        opd = tail_kl(phenomenon_runs[("opd", seed)])
        pairs.append((f2b, opd))
        wins += f2b < opd
    assert wins >= 4, pairs
    report(8, f"f2b evaluation trajectory-KL over the final 10% of training "
              f"is below opd in {wins}/5 seeds", time.perf_counter() - t0)


# -- 9. b2f train-test alignment -------------------------------------------------------------------


def test_09_b2f_train_test_alignment(phenomenon_runs):
    t0 = time.perf_counter()
    for seed in SEEDS:
        result = phenomenon_runs[("b2f", seed)]
        store = phenomenon_runs[("store", seed)]
        schedule = run_config("b2f", seed).schedule()
        clear_step = steps_to_full_horizon(schedule, store.max_length())
        assert clear_step < N_STEPS
        rollouts = result.log.eval_records(split="rollout")
        late = [r for r in rollouts if r.step >= clear_step]
        assert late and all(r.mean_prefix_len == 0.0 for r in late)
        assert any(r.mean_prefix_len > 0 for r in rollouts)  # curriculum was active

        # final evaluation runs end to end with zero expert turns
        env = make_env(EnvConfig())
        teacher = make_teacher(env)
        horizon = env.config.horizon_cap
        for episode in range(16):
            rollouts = rollout_batch("opd", env, result.final_params, teacher,
                                     [episode % env.config.task_count], horizon,
                                     fresh_rng(9, seed, episode).random((1, horizon)),
                                     temperature=0.4)
            assert rollouts.prefix_len[0] == 0
    report(9, "b2f prefix length reaches 0 and stays 0; evaluation uses "
              "zero expert turns", time.perf_counter() - t0)


# -- 10. efficiency analogue -------------------------------------------------------------------------


def test_10_efficiency_analogue():
    t0 = time.perf_counter()
    total = 120  # quarter = 30 steps, spanning the eta=2 curriculum ramp
    ratios = []
    for seed in SEEDS:
        rounds = {}
        for algo in ("opd", "f2b"):
            cfg = run_config(algo, seed, total_steps=total, eval_every=60)
            result = run_training(cfg)
            quarter = [r for r in result.log.eval_records(split="rollout")
                       if r.step < total // 4]
            n_rollouts = sum(r.n_rollouts for r in quarter)
            rounds[algo] = sum(r.avg_rounds * r.n_rollouts for r in quarter) / n_rollouts
        ratios.append(rounds["f2b"] / rounds["opd"])
    worst = max(ratios)
    assert worst <= 0.5, ratios
    elapsed = time.perf_counter() - t0
    report(10, f"f2b mean rounds per rollout in the first quarter is "
               f"<= 0.5x opd for every seed (worst ratio {worst:.3f})", elapsed)


# -- 11. determinism ----------------------------------------------------------------------------------


def test_11_sync_determinism(tmp_path):
    t0 = time.perf_counter()
    import yaml

    config = {
        "run": {"name": "det", "output_dir": str(tmp_path / "out")},
        "env": {"task_count": 16},
        "curriculum": {"total_steps": 40},
        "runtime": {"algo": "f2b", "batch_size": 16, "eval_every": 10,
                    "eval_episodes": 32, "seed": 7},
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(config))

    artifacts = []
    for attempt in ("first", "second"):
        out_dir = tmp_path / "out" / "det"
        if out_dir.exists():
            import shutil

            shutil.rmtree(out_dir)
        assert main(["train", str(cfg_path)]) == 0
        artifacts.append(((out_dir / "metrics.jsonl").read_bytes(),
                          (out_dir / "checkpoint.jsonl").read_bytes(),
                          (out_dir / "metrics.csv").read_bytes()))
    assert artifacts[0] == artifacts[1]

    stores = []
    for name in ("s1.jsonl", "s2.jsonl"):
        assert main(["collect", str(cfg_path), "--out", str(tmp_path / name)]) == 0
        stores.append((tmp_path / name).read_bytes())
    assert stores[0] == stores[1]

    report(11, "repeated sync-mode train and collect commands produced "
               "byte-identical logs, checkpoints, and stores",
           time.perf_counter() - t0)
