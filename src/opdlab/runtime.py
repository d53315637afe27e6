"""Training orchestration: rollouts, learner, snapshots, and evaluation.

One loop serves both modes. Each rollout appends the newest published
snapshot to a FIFO of the last ``depth`` snapshots and acts on the oldest
one in it, so rollout j uses the parameters that were newest when rollout
j - depth + 1 started: ``depth`` rollouts are in flight, as in an
IMPALA-style actor/learner lag. Sync mode has depth 1 (every rollout acts
on the current parameters); async mode has depth ``actor_count``. Tasks
run round-robin and every rollout draws from one seeded stream in schedule
order, so both modes are bit-reproducible per seed.

The curriculum clock is the learner's step counter: at step n the rollouts
run under horizon_at(schedule, n). Evaluation always runs full-horizon with
no truncation and no expert prefix, regardless of the training algorithm.
"""

from __future__ import annotations

import math
import time  # noqa: F401  (bench/tracing.py patches runtime.time)
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .curriculum import CurriculumSchedule, horizon_at, steps_to_full_horizon
from .distill import (
    ALGO_B2F,
    ALGO_F2B,
    ALGO_OPD,
    ALGO_SFT,
    TeacherTrajectoryStore,
    Trajectory,
    apply_gradient,
    batch_gradient,
    nll_loss,
    rollout_b2f,
    rollout_f2b,
    rollout_lockstep,
    rollout_opd,
    sft_update,
    store_turns,
)
from .env import Env, EnvConfig, TeacherConfig, TeacherPolicy, make_env
from .errors import ConfigError, UsageError
from .metrics import (
    SPLIT_EVAL,
    SPLIT_ROLLOUT,
    EvalRecord,
    MetricsLog,
    TrainRecord,
)
from .policy import PolicyParams
from .replay import RingBuffer

MODE_SYNC = "sync"
MODE_ASYNC = "async"
ALGOS = (ALGO_OPD, ALGO_F2B, ALGO_B2F, ALGO_SFT)


@dataclass
class RunConfig:
    algo: str = ALGO_OPD
    env: EnvConfig = field(default_factory=EnvConfig)
    teacher: TeacherConfig = field(default_factory=TeacherConfig)
    k_start: int = 1
    eta: int = 2
    cap: int | None = None  # defaults to env.horizon_cap
    total_steps: int = 400
    lr: float = 0.7
    batch_size: int = 32
    actor_count: int = 4
    delta_max: int = 2
    buffer_capacity: int = 4096
    eval_every: int = 5
    eval_episodes: int = 64
    seed: int = 42
    mode: str = MODE_SYNC
    pass_m: int = 10
    train_temperature: float = 1.0
    eval_temperature: float = 0.4
    window: int | None = None

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ConfigError(f"unknown algo {self.algo!r}, expected one of {ALGOS}")
        if self.mode not in (MODE_SYNC, MODE_ASYNC):
            raise ConfigError(f"mode must be 'sync' or 'async', got {self.mode!r}")
        if self.cap is None:
            self.cap = self.env.horizon_cap
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.buffer_capacity < self.batch_size:
            raise ConfigError(f"buffer_capacity ({self.buffer_capacity}) must be "
                              f">= batch_size ({self.batch_size})")
        if self.actor_count < 1:
            raise ConfigError("actor_count must be >= 1")
        if self.delta_max < 0:
            raise ConfigError("delta_max must be >= 0")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be >= 1")
        if self.pass_m < 1:
            raise ConfigError("pass_m must be >= 1")
        if self.train_temperature <= 0 or self.eval_temperature <= 0:
            raise ConfigError("temperatures must be > 0")
        if self.window is not None and self.window < 0:
            raise ConfigError(f"window must be >= 0 or None, got {self.window}")

    def schedule(self) -> CurriculumSchedule:
        return CurriculumSchedule(k_start=self.k_start, eta=self.eta,
                                  cap=self.cap, total_steps=self.total_steps)


class SnapshotBoard:
    """Latest published parameter snapshot; published versions only increase."""

    def __init__(self, params: PolicyParams):
        self._params = params

    def publish(self, params: PolicyParams) -> None:
        if params.version <= self._params.version:
            raise UsageError(
                f"snapshot version {params.version} does not advance "
                f"past {self._params.version}"
            )
        self._params = params

    def latest(self) -> PolicyParams:
        return self._params


@dataclass
class TrainingResult:
    log: MetricsLog
    final_params: PolicyParams
    max_staleness_seen: int
    store: TeacherTrajectoryStore | None = None


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _episode_summary(success, rounds, kl_sums) -> dict:
    """The EvalRecord fields that summarize a set of episodes.

    ``kl_sums`` holds each episode's summed per-turn KL; the per-turn mean
    averages kl_sum / rounds over the episodes with at least one round.
    """
    rounds = np.asarray(rounds)
    kl_sums = np.asarray(kl_sums, dtype=np.float64)
    played = rounds > 0
    return dict(
        success_rate=float(np.mean(success)),
        avg_rounds=float(np.mean(rounds)),
        traj_kl_mean=float(np.mean(kl_sums)),
        traj_kl_turn_mean=(float(np.mean(kl_sums[played] / rounds[played]))
                           if played.any() else 0.0),
    )


def evaluate(params: PolicyParams, env: Env, teacher: TeacherPolicy,
             episodes: int, rng: np.random.Generator, *,
             temperature: float = 0.4, window: int | None = None,
             step: int = 0, active_k: int = 0) -> EvalRecord:
    """Full-horizon, prefix-free evaluation of ``params``.

    Episodes cycle round-robin over tasks and advance together, one turn at
    a time (see rollout_lockstep). One call draws
    ``u = rng.random((episodes, horizon_cap))``; episode e samples its
    turn-t action by inverse CDF from u[e, t], so no draw depends on the
    other episodes or their lengths. Sampling uses the evaluation
    temperature; the KL profile compares the expert's distribution against
    the student's canonical (temperature-1) policy on the realized states.
    """
    if episodes < 1:
        raise ConfigError(f"episodes must be >= 1, got {episodes}")
    tasks = np.arange(episodes) % env.config.task_count
    u = rng.random((episodes, env.config.horizon_cap))
    kl, rounds, success = rollout_lockstep(env, params, teacher, tasks, u,
                                           temperature=temperature, window=window)
    # every episode is live from turn 0 until it ends, so the episodes that
    # played turn t are those with rounds > t
    turns = rounds.max()
    played = (rounds[:, None] > np.arange(turns)).sum(axis=0)
    return EvalRecord(
        step=step,
        **_episode_summary(success, rounds, kl.sum(axis=1)),
        per_turn_kl=(kl[:, :turns].sum(axis=0) / played).tolist(),
        active_k=active_k,
        split=SPLIT_EVAL,
        n_rollouts=episodes,
    )


# ---------------------------------------------------------------------------
# Shared learner-side helpers
# ---------------------------------------------------------------------------


def _rollout_for(algo: str, env: Env, store, snapshot: PolicyParams,
                 teacher: TeacherPolicy, task_id: int, k: int,
                 rng: np.random.Generator, temperature: float,
                 window: int | None) -> Trajectory:
    if algo == ALGO_OPD:
        return rollout_opd(env, snapshot, teacher, task_id, rng,
                           temperature=temperature, window=window)
    if algo == ALGO_F2B:
        return rollout_f2b(env, snapshot, teacher, task_id, k, rng,
                           temperature=temperature, window=window)
    if algo == ALGO_B2F:
        return rollout_b2f(env, store, snapshot, teacher, task_id, k, rng,
                           temperature=temperature, window=window)
    raise ConfigError(f"no rollout mode for algo {algo!r}")


def _rollout_record(step: int, k: int, trajs: list[Trajectory]) -> EvalRecord:
    return EvalRecord(
        step=step,
        **_episode_summary([t.success for t in trajs], [t.rounds for t in trajs],
                           [sum(t.turn_kl for t in traj.turns) for traj in trajs]),
        per_turn_kl=[],
        active_k=k,
        split=SPLIT_ROLLOUT,
        n_rollouts=len(trajs),
        mean_prefix_len=float(np.mean([t.prefix_len for t in trajs])),
    )


def _learner_step(n: int, k: int, params: PolicyParams, buffer: RingBuffer,
                  board: SnapshotBoard, config: RunConfig,
                  sample_rng: np.random.Generator):
    """Sample a batch, take one gradient step and publish it; returns the new
    params, the step's TrainRecord and the batch's largest staleness.

    apply_gradient returns a fresh table and never mutates published rows,
    so the new params are published as they are, without a snapshot copy.
    """
    batch = buffer.sample_batch(params.version, config.delta_max,
                                config.batch_size, sample_rng)
    staleness = [params.version - e.policy_version for e in batch]
    assert all(s <= config.delta_max for s in staleness)
    loss, grads = batch_gradient(batch, params)
    params = apply_gradient(params, grads, config.lr)
    board.publish(params)
    record = TrainRecord(
        step=n, loss=loss,
        grad_norm=math.sqrt(sum(float(g @ g) for g in grads.values())),
        buffer_size=len(buffer),
        discarded_stale=buffer.discarded_stale_total,
        active_k=k,
        mean_staleness=float(np.mean(staleness)),
    )
    return params, record, max(staleness)


def _validate_run(config: RunConfig, store) -> None:
    if config.algo == ALGO_B2F:
        if store is None or len(store) == 0:
            raise ConfigError("b2f training requires a non-empty expert "
                              "trajectory store; run collection first")
        missing = sorted(set(range(config.env.task_count)) - set(store.task_ids()))
        if missing:
            raise ConfigError(f"b2f training needs a stored expert trajectory for "
                              f"every task; the store lacks tasks {missing}")
        max_l = store.max_length()
        need = steps_to_full_horizon(config.schedule(), min(max_l, config.cap))
        if need >= config.total_steps:
            warnings.warn(
                f"total_steps={config.total_steps} never clears the expert "
                f"prefix for the longest stored trajectory (L={max_l}, needs "
                f"step {need}); the curriculum will not reach end-to-end rollouts",
                stacklevel=2,
            )
    if config.algo == ALGO_F2B:
        need = steps_to_full_horizon(config.schedule(), config.cap)
        if need >= config.total_steps:
            warnings.warn(
                f"total_steps={config.total_steps} never reaches the full "
                f"horizon cap {config.cap} (needs step {need})",
                stacklevel=2,
            )


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


def run_training(config: RunConfig, store: TeacherTrajectoryStore | None = None,
                 ) -> TrainingResult:
    """Execute total_steps learner steps and return the log and final params.

    B2F runs need a pre-collected store. Snapshots are published after every
    learner step; every eval_every steps (and at the end) an evaluation
    record is appended.
    """
    _validate_run(config, store)
    env = make_env(config.env)
    teacher = TeacherPolicy(env, config.teacher)
    if config.algo == ALGO_SFT:
        return _run_sft(config, env, teacher, store)
    return _run_distill(config, env, teacher, store)


def _seed_streams(config: RunConfig):
    root = np.random.SeedSequence(config.seed)
    ss_rollout, ss_sample, ss_eval = root.spawn(3)
    return ss_rollout, ss_sample, ss_eval


def _run_distill(config: RunConfig, env: Env, teacher: TeacherPolicy,
                 store) -> TrainingResult:
    ss_rollout, ss_sample, ss_eval = _seed_streams(config)
    rollout_rng = np.random.Generator(np.random.PCG64(ss_rollout))
    sample_rng = np.random.Generator(np.random.PCG64(ss_sample))
    eval_rng = np.random.Generator(np.random.PCG64(ss_eval))

    params = PolicyParams(num_actions=config.env.num_actions)
    board = SnapshotBoard(params)
    buffer = RingBuffer(config.buffer_capacity)
    schedule = config.schedule()
    log = MetricsLog()
    depth = config.actor_count if config.mode == MODE_ASYNC else 1
    in_flight: deque[PolicyParams] = deque(maxlen=depth)
    rollouts = 0
    max_staleness = 0

    for n in range(config.total_steps):
        k = horizon_at(schedule, n)
        step_trajs: list[Trajectory] = []
        # entries pushed this step that the learner may still consume; once
        # depth - 1 rollouts ran in this step every snapshot in flight is
        # current, so the loop ends
        fresh = 0
        while fresh < config.batch_size:
            in_flight.append(board.latest())
            snapshot = in_flight[0]
            traj = _rollout_for(config.algo, env, store, snapshot, teacher,
                                rollouts % config.env.task_count, k, rollout_rng,
                                config.train_temperature, config.window)
            rollouts += 1
            buffer.push(traj.turns)
            if params.version - snapshot.version <= config.delta_max:
                fresh += traj.rounds
            step_trajs.append(traj)

        params, record, staleness = _learner_step(n, k, params, buffer, board,
                                                  config, sample_rng)
        max_staleness = max(max_staleness, staleness)
        log.append(record)
        log.append(_rollout_record(n, k, step_trajs))
        if (n + 1) % config.eval_every == 0 or n == config.total_steps - 1:
            log.append(evaluate(params, env, teacher, config.eval_episodes,
                                eval_rng, temperature=config.eval_temperature,
                                window=config.window, step=n, active_k=k))

    return TrainingResult(log=log, final_params=params,
                          max_staleness_seen=max_staleness, store=store)


def _run_sft(config: RunConfig, env: Env, teacher: TeacherPolicy,
             store) -> TrainingResult:
    if store is None or len(store) == 0:
        raise ConfigError("sft training requires a non-empty expert "
                          "trajectory store; run collection first")
    _, _, ss_eval = _seed_streams(config)
    eval_rng = np.random.Generator(np.random.PCG64(ss_eval))
    params = PolicyParams(num_actions=config.env.num_actions)
    log = MetricsLog()
    turns = store_turns(env, store, config.window)

    for n in range(config.total_steps):
        params = sft_update(turns, params, config.lr)
        loss = nll_loss(turns, params) / len(turns)
        log.append(TrainRecord(step=n, loss=loss, grad_norm=0.0, buffer_size=0,
                               discarded_stale=0, active_k=0,
                               mean_staleness=0.0))
        if (n + 1) % config.eval_every == 0 or n == config.total_steps - 1:
            log.append(evaluate(params, env, teacher, config.eval_episodes,
                                eval_rng, temperature=config.eval_temperature,
                                window=config.window, step=n, active_k=0))

    return TrainingResult(log=log, final_params=params, max_staleness_seen=0,
                          store=store)
