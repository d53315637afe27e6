"""Training orchestration: rollouts, learner, snapshots, and evaluation.

One loop serves both modes, and one queue (``_Starter``) decides when each
rollout starts. Rollout j plays task j mod task_count and reads row j of
the rollout stream, a row of horizon_cap uniforms drawn in rollout order;
its student turn i uses entry i. A step delivers (pushes to the buffer) its
rollouts in lockstep waves of ceil(missing / m) rollouts, where ``missing``
counts the fresh entries the step still needs and m is the most student
turns one rollout plays. Before a wave is delivered, every rollout up to
depth - 1 past its last has started, on the table and curriculum horizon
current then; in the last step only up to its last, as no later step
delivers them. So rollout j acts on the table that was newest when rollout
j - depth + 1 was delivered, as in an IMPALA-style actor/learner lag: sync
mode has depth 1, async mode depth ``actor_count``.

The queue holds the rollouts that have run but are not yet delivered. The
engine runs them before they start, as optimistic concurrency control
would: when the queue runs short, one call runs those that start now and
pre-starts the next ones, up to half a task cycle in all (16 rollouts at
the default 32 tasks, against a wave's 3), on the current table and
horizon, but none past the rollouts the remaining steps are sure to start
(for f2b and b2f, those before the horizon next changes). A pre-started
rollout is kept when it starts if it ran with the student-turn cap (f2b)
and expert prefix lengths (b2f) of the current horizon and no key id in
its ``keys`` row was written by a learner step after the version it ran
on; it is then tagged with the current version.
The others run again, together, on their own rows of uniforms. Every key
starts with the task's first token, and the rollouts of half a task cycle
are of distinct tasks, so a learner step writes a row that a pre-started
rollout read only when the staleness budget reaches back to the last
rollout of its task. A rollout depends only on its row, task, horizon and
the table rows it reads, so runs are bit-identical to starting each
rollout alone when it comes due, for any wave or call width, and
bit-reproducible per seed in both modes.

Rollouts, replay and learner exchange columns, not per-turn objects: a
wave's ``Rollouts`` hand the buffer their student turns as ``Turns`` of
int ids, the learner gathers a sampled batch's student rows by key id and
its teacher rows from the run's teacher by (turn, state id), and a step's
rollout record sums each episode's KL from the engine's KL matrix. All
tables of a run share one key index, and only the newest table is read
(see ``policy``).

The curriculum clock is the learner's step counter: the rollouts started
at step n run under horizon_at(schedule, n). Evaluation always runs
full-horizon with no truncation and no expert prefix, regardless of the
training algorithm.
"""

from __future__ import annotations

import math
import time  # noqa: F401  (bench/tracing.py patches runtime.time)
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curriculum import (
    CurriculumSchedule,
    horizon_at,
    steps_to_full_horizon,
)
from .distill import (
    ALGO_B2F,
    ALGO_F2B,
    ALGO_OPD,
    ALGO_SFT,
    Rollouts,
    TeacherTrajectoryStore,
    apply_gradient,
    batch_gradient,
    max_student_turns,
    nll_loss,
    prefix_lens,
    rollout_batch,
    rollout_lockstep,
    sft_block,
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
    kl_profile,
)
from .policy import PolicyParams, _grown
from .replay import RingBuffer

MODE_SYNC = "sync"
MODE_ASYNC = "async"
ALGOS = (ALGO_OPD, ALGO_F2B, ALGO_B2F, ALGO_SFT)
# Evaluation episodes per rollout_lockstep call: a call holds every turn it
# played until it returns, so slices bound an evaluation's memory
EVAL_SLICE = 1024


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
        if self.cap is None:
            self.cap = self.env.horizon_cap
        for ok, message in (
            (self.algo in ALGOS, f"unknown algo {self.algo!r}, expected one of {ALGOS}"),
            (self.mode in (MODE_SYNC, MODE_ASYNC),
             f"mode must be 'sync' or 'async', got {self.mode!r}"),
            (0 < self.lr < math.inf, "lr must be finite and > 0"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.buffer_capacity >= self.batch_size, f"buffer_capacity "
             f"({self.buffer_capacity}) must be >= batch_size ({self.batch_size})"),
            (self.actor_count >= 1, "actor_count must be >= 1"),
            (self.delta_max >= 0, "delta_max must be >= 0"),
            (self.eval_every >= 1, "eval_every must be >= 1"),
            (self.eval_episodes >= 1, "eval_episodes must be >= 1"),
            (self.pass_m >= 1, "pass_m must be >= 1"),
            (0 < self.train_temperature < math.inf and 0 < self.eval_temperature < math.inf,
             "temperatures must be finite and > 0"),
            (self.window is None or self.window >= 0,
             f"window must be >= 0 or None, got {self.window}"),
        ):
            if not ok:
                raise ConfigError(message)
        self.schedule()  # checks the curriculum, which every algo must pass

    def schedule(self) -> CurriculumSchedule:
        return CurriculumSchedule(k_start=self.k_start, eta=self.eta,
                                  cap=self.cap, total_steps=self.total_steps)


class SnapshotBoard:
    """The version of the last published snapshot; published versions only increase."""

    def __init__(self, params: PolicyParams):
        self.version = params.version

    def publish(self, params: PolicyParams) -> None:
        if params.version <= self.version:
            raise UsageError(
                f"snapshot version {params.version} does not advance past {self.version}")
        self.version = params.version


@dataclass
class TrainingResult:
    log: MetricsLog
    final_params: PolicyParams
    max_staleness_seen: int


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _mean(x: np.ndarray) -> float:
    """np.mean(x) of a non-empty 1-D array without its overhead; bitwise (int sums < 2**53)."""
    return np.add.reduce(x).item() / len(x)


def _episode_summary(success, rounds, kl_sums) -> dict:
    """The EvalRecord fields that summarize a set of episodes.

    ``kl_sums`` holds each episode's summed per-turn KL; the per-turn mean
    averages kl_sum / rounds over the episodes with at least one round.
    """
    rounds = np.asarray(rounds)
    kl_sums = np.asarray(kl_sums, dtype=np.float64)
    played = rounds > 0
    return dict(
        success_rate=_mean(np.asarray(success)),
        avg_rounds=_mean(rounds),
        traj_kl_mean=_mean(kl_sums),
        traj_kl_turn_mean=_mean(kl_sums[played] / rounds[played]) if played.any() else 0.0,
    )


def evaluate(params: PolicyParams, env: Env, teacher: TeacherPolicy,
             episodes: int, rng: np.random.Generator, *,
             temperature: float = 0.4, window: int | None = None,
             step: int = 0, active_k: int = 0) -> EvalRecord:
    """Full-horizon, prefix-free evaluation of ``params``: rollout_lockstep
    batches of at most EVAL_SLICE episodes that cycle round-robin over tasks,
    with uniforms ``rng.random((episodes, horizon_cap))``; an episode does
    not depend on its batch, so the slices change no result. Sampling uses
    the evaluation temperature; the KL profile compares the expert's
    distribution against the student's canonical (temperature-1) policy on
    the realized states.
    """
    if episodes < 1:
        raise ConfigError(f"episodes must be >= 1, got {episodes}")
    tasks = np.arange(episodes) % env.config.task_count
    u = rng.random((episodes, env.config.horizon_cap))
    parts = [rollout_lockstep(env, params, teacher, tasks[s:s + EVAL_SLICE], u[s:s + EVAL_SLICE],
                              temperature=temperature, window=window)[:3]
             for s in range(0, episodes, EVAL_SLICE)]
    kl, rounds, success = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    # every episode is live from turn 0 until it ends, so the episodes that
    # played turn t are those with rounds > t
    turns = rounds.max()
    return EvalRecord(
        step=step,
        **_episode_summary(success, rounds, kl.sum(axis=1)),
        per_turn_kl=kl_profile(kl[:, :turns], rounds[:, None] > np.arange(turns)),
        active_k=active_k,
        split=SPLIT_EVAL,
        n_rollouts=episodes,
    )


# ---------------------------------------------------------------------------
# Shared learner-side helpers
# ---------------------------------------------------------------------------


def _wave_width(missing: int, max_turns: int) -> int:
    """Rollouts that a one-at-a-time loop is sure to run next: each adds at
    most ``max_turns`` fresh entries, and ``missing`` are still needed."""
    return -(-missing // max_turns)


def _rollout_record(step: int, k: int, batches: list[Rollouts]) -> EvalRecord:
    """The rollout record of a step's batches: each episode's KL is the sum of
    its student turns' entries in the batch's KL matrix."""
    success, rounds, kl_sums, prefix_len = (np.concatenate(columns) for columns in zip(
        *((b.success, b.rounds, b.kl_sums(), b.prefix_len) for b in batches)))
    return EvalRecord(
        step=step,
        **_episode_summary(success, rounds, kl_sums),
        per_turn_kl=[],
        active_k=k,
        split=SPLIT_ROLLOUT,
        n_rollouts=len(success),
        mean_prefix_len=_mean(prefix_len),
    )


def _grad_norm(grads: np.ndarray) -> float:
    """The L2 norm of the (K, A) gradient block: the per-row squared norms
    summed left to right, bitwise as a per-key ``g @ g`` loop adds them."""
    return math.sqrt(sum(np.vecdot(grads, grads).tolist()))


def _learner_step(n: int, k: int, params: PolicyParams, teacher: TeacherPolicy,
                  buffer: RingBuffer, board: SnapshotBoard, config: RunConfig,
                  sample_rng: np.random.Generator):
    """Sample a batch, take one gradient step against ``teacher`` and publish
    it; returns the new params, the step's TrainRecord, the batch's largest
    staleness and the key ids the step wrote.

    apply_gradient writes its rows in place into the table it returns, so
    the new params are published as they are; nothing reads the old table.
    """
    batch = buffer.sample_batch(params.version, config.delta_max,
                                config.batch_size, sample_rng)
    staleness = params.version - batch.version
    assert staleness.max() <= config.delta_max
    loss, grads = batch_gradient(batch, params, teacher)
    params = apply_gradient(params, grads, config.lr)
    board.publish(params)
    record = TrainRecord(
        step=n, loss=loss,
        grad_norm=_grad_norm(grads.rows),
        buffer_size=len(buffer),
        discarded_stale=buffer.discarded_stale_total,
        active_k=k,
        mean_staleness=_mean(staleness),
    )
    return params, record, int(staleness.max()), grads.ids


class _Starter:
    """The queue of a run's rollouts that have run but are not yet delivered,
    in rollout order (see the module docstring): the first ``started`` have
    started; the rest were run ahead at horizon ``k_then`` on their rows
    ``u`` of uniforms and are renewed when they start. Rollout j plays task
    j mod task_count on row j of the rollout stream. ``written[i]`` is the
    version of key id i's last write, -1 for none; the last entry stays -1,
    for the ids past the array.
    """

    def __init__(self, config: RunConfig, env: Env, teacher: TeacherPolicy, store,
                 rng: np.random.Generator):
        self.config, self.env, self.teacher, self.store, self.rng = (
            config, env, teacher, store, rng)
        self.depth = config.actor_count if config.mode == MODE_ASYNC else 1
        # the fewest rollouts a step delivers: each plays at most the student
        # turns of the largest horizon
        self.least = _wave_width(config.batch_size, max_student_turns(
            config.algo, config.cap, config.env.horizon_cap))
        self.queue: Rollouts | None = None
        self.u, self.k_then = np.zeros((0, config.env.horizon_cap)), None
        self.started = self.delivered = 0
        self.written = np.full(64, -1, dtype=np.int32)

    def _run(self, params: PolicyParams, tasks, k: int, u: np.ndarray) -> Rollouts:
        config = self.config
        return rollout_batch(config.algo, self.env, params, self.teacher, tasks, k, u,
                             store=self.store, temperature=config.train_temperature,
                             window=config.window)

    def wrote(self, ids: np.ndarray, version: int) -> None:
        """Record that the learner step to ``version`` wrote key ``ids``."""
        top = int(ids.max(initial=0)) + 2  # keep the last entry -1
        if top > len(self.written):
            self.written = _grown(self.written, max(len(self.written) * 3 // 2, top), -1)
        self.written[ids] = version

    def _renew(self, stop: int, params: PolicyParams, k: int) -> None:
        """Start the queued rollouts up to ``stop`` on ``params`` at horizon k:
        those whose inputs or read rows changed run again."""
        algo, horizon = self.config.algo, self.env.config.horizon_cap
        batch, u = self.queue.take(slice(self.started, stop)), self.u[self.started:stop]
        redo = self.written.take(batch.keys, mode="clip").max(axis=1) > batch.versions
        if max_student_turns(algo, self.k_then, horizon) != max_student_turns(algo, k, horizon):
            redo[:] = True
        elif self.k_then != k:
            redo |= batch.prefix_len != prefix_lens(algo, self.store, batch.task_ids, k)
        rows = np.flatnonzero(redo)
        if rows.size:
            batch.put(rows, self._run(params, batch.task_ids[rows], k, u[rows]))
        batch.versions[:] = params.version

    def deliver(self, n: int, width: int, params: PolicyParams, k: int) -> Rollouts:
        """The next ``width`` rollouts, delivered in step n. First every rollout
        up to depth - 1 past them starts on ``params`` at horizon k; in the
        last step none past them does, as no later step delivers them."""
        config = self.config
        due = width + (self.depth - 1 if n + 1 < config.total_steps else 0)
        held = len(self.u)
        if self.started < min(due, held):
            self._renew(min(due, held), params, k)
        if due > held:
            # the missing rollouts and, pre-started, the next ones up to half a
            # task cycle, but none past those sure to start before the run ends,
            # or for f2b and b2f before k next changes: this wave's and
            # ``least`` in each later step
            tasks, stop = config.env.task_count, config.total_steps
            if config.algo != ALGO_OPD and k < config.cap:
                stop = min(stop, steps_to_full_horizon(config.schedule(), k + 1))
            count = max(due - held, min(tasks // 2, width + (stop - n - 1) * self.least - held))
            u = self.rng.random((count, config.env.horizon_cap))
            batch = self._run(params, (self.delivered + held + np.arange(count)) % tasks, k, u)
            self.queue = self.queue.joined(batch) if held else batch
            self.u, self.k_then = np.concatenate((self.u, u)), k
        self.started = max(self.started, due) - width
        self.delivered += width
        out, self.queue, self.u = (self.queue.take(slice(width)),
                                   self.queue.take(slice(width, None)), self.u[width:])
        return out


def _validate_run(config: RunConfig, store) -> None:
    if config.algo == ALGO_B2F:
        if store is None or len(store) == 0:
            raise ConfigError("b2f training requires a non-empty expert "
                              "trajectory store; run collection first")
        missing = sorted(set(range(config.env.task_count)) - set(store.task_ids()))
        if missing:
            raise ConfigError(f"b2f training needs a stored expert trajectory for "
                              f"every task; the store lacks tasks {missing}")
    if config.algo in (ALGO_F2B, ALGO_B2F):
        target, goal = config.cap, f"reaches the full horizon cap {config.cap}"
        if config.algo == ALGO_B2F:
            target = min(store.max_length(), config.cap)
            goal = (f"clears the expert prefix for the longest stored trajectory, "
                    f"L={store.max_length()}")
        need = steps_to_full_horizon(config.schedule(), target)
        if need >= config.total_steps:
            warnings.warn(f"total_steps={config.total_steps} never {goal} (needs step "
                          f"{need}); the curriculum will not reach end-to-end rollouts",
                          stacklevel=2)


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
    """The rollout, replay-sampling and evaluation generators of a run."""
    return [np.random.Generator(np.random.PCG64(ss))
            for ss in np.random.SeedSequence(config.seed).spawn(3)]


def _run_distill(config: RunConfig, env: Env, teacher: TeacherPolicy,
                 store) -> TrainingResult:
    rollout_rng, sample_rng, eval_rng = _seed_streams(config)
    params = PolicyParams(num_actions=config.env.num_actions)
    board = SnapshotBoard(params)
    buffer = RingBuffer(config.buffer_capacity)
    schedule = config.schedule()
    log = MetricsLog()
    starter = _Starter(config, env, teacher, store, rollout_rng)
    max_staleness = 0

    for n in range(config.total_steps):
        k = horizon_at(schedule, n)
        max_turns = max_student_turns(config.algo, k, config.env.horizon_cap)
        step_batches: list[Rollouts] = []
        # entries pushed this step that the learner may still consume; once
        # depth - 1 rollouts were delivered in this step, the rest started on
        # the current table, so the loop ends
        fresh = 0
        while fresh < config.batch_size:
            batch = starter.deliver(n, _wave_width(config.batch_size - fresh, max_turns),
                                    params, k)
            buffer.push(batch.student_turns())
            fresh += int(batch.rounds[params.version - batch.versions <= config.delta_max].sum())
            step_batches.append(batch)

        params, record, staleness, ids = _learner_step(n, k, params, teacher, buffer, board,
                                                       config, sample_rng)
        starter.wrote(ids, params.version)
        max_staleness = max(max_staleness, staleness)
        log.append(record)
        log.append(_rollout_record(n, k, step_batches))
        if (n + 1) % config.eval_every == 0 or n == config.total_steps - 1:
            log.append(evaluate(params, env, teacher, config.eval_episodes,
                                eval_rng, temperature=config.eval_temperature,
                                window=config.window, step=n, active_k=k))

    return TrainingResult(log=log, final_params=params,
                          max_staleness_seen=max_staleness)


def _run_sft(config: RunConfig, env: Env, teacher: TeacherPolicy,
             store) -> TrainingResult:
    if store is None or len(store) == 0:
        raise ConfigError("sft training requires a non-empty expert "
                          "trajectory store; run collection first")
    eval_rng = _seed_streams(config)[2]
    log = MetricsLog()
    params = PolicyParams(config.env.num_actions)
    block = sft_block(*store_turns(env, teacher, store, params, config.window), params)

    for n in range(config.total_steps):
        block = sft_update(block, config.lr)
        log.append(TrainRecord(step=n, loss=nll_loss(block) / len(block.slots), grad_norm=0.0,
                               buffer_size=0, discarded_stale=0, active_k=0, mean_staleness=0.0))
        if (n + 1) % config.eval_every == 0 or n == config.total_steps - 1:
            # the last step evaluates, so the final table holds the last block
            params = params.with_rows(block.ids, block.z, block.version)
            log.append(evaluate(params, env, teacher, config.eval_episodes,
                                eval_rng, temperature=config.eval_temperature,
                                window=config.window, step=n, active_k=0))

    return TrainingResult(log=log, final_params=params, max_staleness_seen=0)
