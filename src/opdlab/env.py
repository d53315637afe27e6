"""Deterministic multi-turn toy environments and a constructed expert policy.

Two environment families share one transition skeleton:

* ``compounding_chain``: the agent must emit a task-specific sequence of
  correct actions to reach the goal. Any wrong action knocks the episode
  off-support: it stops advancing and owes ``off_support_depth`` consecutive
  correct recovery actions before progress can resume. Errors therefore
  compound (each one costs the wasted turn plus the recovery debt).
* ``memory_lock``: same chain mechanics, but the final advance only
  succeeds with the action matching a secret key symbol announced in the
  very first observation, adding a long-range history dependence.

Every transition is a pure function of (config, task_id, action sequence),
so observation sequences are bit-reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError
from .policy import PolicyParams, encode_history, softmax

COMPOUNDING_CHAIN = "compounding_chain"
MEMORY_LOCK = "memory_lock"
ENV_KINDS = (COMPOUNDING_CHAIN, MEMORY_LOCK)

# Salts for the per-task pseudorandom tables (SeedSequence entropy tags).
_SALT_CORRECT = 101
_SALT_RECOVERY = 202
_SALT_KEY = 303


@dataclass(frozen=True)
class EnvConfig:
    kind: str = COMPOUNDING_CHAIN
    horizon_cap: int = 12
    num_actions: int = 6
    chain_length: int = 8
    off_support_depth: int = 2
    seed: int = 0
    task_count: int = 32

    def __post_init__(self):
        if self.kind not in ENV_KINDS:
            raise ConfigError(f"unknown env kind {self.kind!r}, expected one of {ENV_KINDS}")
        if self.horizon_cap < 1:
            raise ConfigError("horizon_cap must be >= 1")
        if self.num_actions < 2:
            raise ConfigError("num_actions must be >= 2")
        if self.chain_length < 1:
            raise ConfigError("chain_length must be >= 1")
        if self.chain_length > self.horizon_cap:
            raise ConfigError(
                f"chain_length {self.chain_length} exceeds horizon_cap "
                f"{self.horizon_cap}; the goal would be unreachable"
            )
        if self.off_support_depth < 0:
            raise ConfigError("off_support_depth must be >= 0")
        if self.task_count < 1:
            raise ConfigError("task_count must be >= 1")


@dataclass(frozen=True)
class Observation:
    token_id: int
    on_support: bool  # diagnostic only; never enters history keys


@dataclass(frozen=True)
class StepResult:
    observation: Observation
    done: bool
    success: bool


@dataclass(frozen=True)
class EnvState:
    """Opaque per-episode state. Policies never read this directly."""

    task_id: int
    pos: int
    recovery_left: int
    turn: int
    done: bool
    success: bool


def _task_rng(seed: int, task_id: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, task_id, salt])))


class Env:
    """Deterministic simulator for one EnvConfig.

    Instances are single-threaded values: distinct instances may run
    concurrently, and episode state lives entirely in EnvState values.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        c = config
        # recovery_left can exceed the nominal depth through repeated errors;
        # size the recovery-action table for the worst case within a horizon.
        max_recovery = c.off_support_depth * (c.horizon_cap + 1) + 1
        # The transition tables, shared by the scalar and the batched step:
        # correct_table[task, pos] is the action that advances from pos (for
        # memory_lock the last one is the key), and recovery_table[task, d]
        # the action that pays off one unit of a recovery debt d (clipped).
        self.correct_table = np.stack([
            _task_rng(c.seed, t, _SALT_CORRECT).integers(0, c.num_actions, size=c.chain_length)
            for t in range(c.task_count)
        ])
        self.recovery_table = np.stack([
            _task_rng(c.seed, t, _SALT_RECOVERY).integers(0, c.num_actions, size=max_recovery + 1)
            for t in range(c.task_count)
        ])
        # Observation token layout: [initial tokens][on-support positions][off
        # buckets]; a memory_lock initial token also announces the task's key.
        if c.kind == MEMORY_LOCK:
            key = np.array([
                int(_task_rng(c.seed, t, _SALT_KEY).integers(0, c.num_actions))
                for t in range(c.task_count)
            ])
            self.correct_table[:, -1] = key
            self.initial_tokens = np.arange(c.task_count) * c.num_actions + key
            n_initial_tokens = c.task_count * c.num_actions
        else:
            self.initial_tokens = np.arange(c.task_count)
            n_initial_tokens = c.task_count
        self.pos_base = n_initial_tokens
        self.off_base = self.pos_base + c.chain_length + 1
        self.off_buckets = c.off_support_depth + 2
        self.observation_alphabet_size = self.off_base + self.off_buckets
        # Python-list views of the tables: scalar indexing is cheaper on lists.
        self._correct_rows = self.correct_table.tolist()
        self._recovery_rows = self.recovery_table.tolist()
        self._max_recovery_idx = self.recovery_table.shape[1] - 1
        self._initial_token_list = self.initial_tokens.tolist()

        self._check_reachability()

    # -- episode interface --------------------------------------------------

    def reset(self, task_id: int) -> tuple[EnvState, Observation]:
        c = self.config
        if not 0 <= task_id < c.task_count:
            raise ConfigError(
                f"task_id {task_id} out of range [0, {c.task_count})"
            )
        state = EnvState(task_id=task_id, pos=0, recovery_left=0, turn=0,
                         done=False, success=False)
        return state, self._initial_observation(task_id)

    def step(self, state: EnvState, action: int) -> tuple[EnvState, StepResult]:
        c = self.config
        if state.done:
            raise UsageError("step() called on a terminal state")
        if not 0 <= action < c.num_actions:
            raise UsageError(f"action {action} out of range [0, {c.num_actions})")

        pos, recovery = state.pos, state.recovery_left
        if recovery == 0:
            if action == self.correct_action(state.task_id, pos):
                pos += 1
            else:
                recovery += c.off_support_depth
        else:
            if action == self.recovery_action(state.task_id, recovery):
                recovery -= 1
            else:
                recovery += c.off_support_depth

        turn = state.turn + 1
        success = recovery == 0 and pos == c.chain_length
        done = success or turn >= c.horizon_cap
        new_state = EnvState(task_id=state.task_id, pos=pos, recovery_left=recovery,
                             turn=turn, done=done, success=success)
        obs = self._observation(new_state)
        return new_state, StepResult(observation=obs, done=done, success=success)

    # -- oracle surface (used by the constructed teacher) --------------------

    def correct_action(self, task_id: int, pos: int) -> int:
        return self._correct_rows[task_id][pos]

    def recovery_action(self, task_id: int, recovery_left: int) -> int:
        return self._recovery_rows[task_id][min(recovery_left, self._max_recovery_idx)]

    def expert_action(self, state: EnvState) -> int:
        if state.recovery_left > 0:
            return self.recovery_action(state.task_id, state.recovery_left)
        return self.correct_action(state.task_id, state.pos)

    def on_support(self, state: EnvState) -> bool:
        return state.recovery_left == 0

    def error_depth(self, state: EnvState) -> int:
        return state.recovery_left

    def optimal_length(self, task_id: int) -> int:
        return self.config.chain_length

    # -- observation encoding -------------------------------------------------

    def _initial_observation(self, task_id: int) -> Observation:
        return Observation(token_id=self._initial_token_list[task_id], on_support=True)

    def _observation(self, state: EnvState) -> Observation:
        if state.recovery_left == 0:
            token = self.pos_base + state.pos
            return Observation(token_id=token, on_support=True)
        bucket = min(state.recovery_left - 1, self.off_buckets - 1)
        return Observation(token_id=self.off_base + bucket, on_support=False)

    # -- batched interface ------------------------------------------------------
    #
    # Array versions of the oracle and of step() over the same tables, for a
    # batch of live (not done) states: task, pos and recovery are int arrays.

    def expert_actions(self, task: np.ndarray, pos: np.ndarray,
                       recovery: np.ndarray) -> np.ndarray:
        """expert_action for each state of the batch."""
        return np.where(recovery == 0, self.correct_table[task, pos],
                        self.recovery_table[task, np.minimum(recovery, self._max_recovery_idx)])

    def observation_tokens(self, pos: np.ndarray, recovery: np.ndarray) -> np.ndarray:
        """Observation token id for each state of the batch."""
        bucket = np.minimum(recovery - 1, self.off_buckets - 1)
        return np.where(recovery == 0, self.pos_base + pos, self.off_base + bucket)

    def step_batch(self, task: np.ndarray, pos: np.ndarray, recovery: np.ndarray,
                   actions: np.ndarray):
        """step() for each live state of the batch.

        Returns the new ``(pos, recovery, tokens, success)`` arrays. An
        episode is done on success or once its turn count reaches
        horizon_cap; the turn count is the caller's to keep.
        """
        on = recovery == 0
        hit = actions == self.expert_actions(task, pos, recovery)
        pos = pos + (hit & on)
        recovery = np.where(hit, recovery - ~on, recovery + self.config.off_support_depth)
        success = (recovery == 0) & (pos == self.config.chain_length)
        return pos, recovery, self.observation_tokens(pos, recovery), success

    # -- construction-time checks ---------------------------------------------

    def _check_reachability(self) -> None:
        for task_id in range(self.config.task_count):
            state, _ = self.reset(task_id)
            while not state.done:
                state, result = self.step(state, self.expert_action(state))
            if not result.success:
                raise ConfigError(
                    f"task {task_id} is unreachable within the horizon; "
                    "environment construction is broken"
                )


def make_env(config: EnvConfig) -> Env:
    return Env(config)


# ---------------------------------------------------------------------------
# Constructed teacher
# ---------------------------------------------------------------------------


class TeacherPolicy:
    """Fixed (never-trained) expert policy built on the environment oracle.

    On-support histories get a softmax sharply favoring the expert action:
    a unit logit on that action, scaled by ``(1 + turn_sharpening * t) /
    temperature`` at turn t. The per-turn sharpening reproduces the way an
    expert's confidence concentrates as an episode progresses.

    Off-support histories get ``lam * uniform + (1 - lam) * sharp`` where
    ``sharp`` favors the recovery action at the same turn's sharpness and
    ``lam = max(floor, depth_decay ** error_depth)``. Mixing with uniform
    can only raise entropy, so off-support entropy dominates on-support
    entropy at every turn index; a floor of 1 yields exactly uniform.
    """

    def __init__(self, env: Env, on_support_temperature: float = 0.3,
                 off_support_floor: float = 0.05, turn_sharpening: float = 0.75,
                 depth_decay: float = 0.85):
        if on_support_temperature <= 0:
            raise ConfigError("on_support_temperature must be > 0")
        if not 0 < off_support_floor <= 1:
            raise ConfigError("off_support_floor must be in (0, 1]")
        if turn_sharpening < 0:
            raise ConfigError("turn_sharpening must be >= 0")
        if not 0 < depth_decay <= 1:
            raise ConfigError("depth_decay must be in (0, 1]")
        self.env = env
        self.num_actions = env.config.num_actions
        self.temperature = on_support_temperature
        self.floor = off_support_floor
        self.turn_sharpening = turn_sharpening
        self.depth_decay = depth_decay
        self._uniform = np.full(self.num_actions, 1.0 / self.num_actions)
        self._sharp_by_turn: dict[int, np.ndarray] = {}

    def _gap(self, turn: int) -> float:
        return (1.0 + self.turn_sharpening * turn) / self.temperature

    def _sharp(self, turn: int) -> np.ndarray:
        """(A, A) table whose row a is the sharp distribution favoring a at ``turn``."""
        table = self._sharp_by_turn.get(turn)
        if table is None:
            rows = []
            for action in range(self.num_actions):
                logits = np.zeros(self.num_actions)
                logits[action] = self._gap(turn)
                rows.append(softmax(logits))
            table = self._sharp_by_turn[turn] = np.stack(rows)
        return table

    def dist(self, state: EnvState) -> np.ndarray:
        """Action distribution for the realized history behind ``state``."""
        sharp = self._sharp(state.turn)[self.env.expert_action(state)]
        if self.env.on_support(state):
            return sharp.copy()
        lam = max(self.floor, self.depth_decay ** self.env.error_depth(state))
        return lam * self._uniform + (1.0 - lam) * sharp

    def dist_batch(self, task: np.ndarray, pos: np.ndarray, recovery: np.ndarray,
                   turn: int) -> np.ndarray:
        """dist() for a batch of live states at one turn index, as (B, A) rows."""
        sharp = self._sharp(turn)[self.env.expert_actions(task, pos, recovery)]
        lam = np.maximum(self.floor, self.depth_decay ** recovery)[:, None]
        mixed = lam * self._uniform + (1.0 - lam) * sharp
        return np.where((recovery == 0)[:, None], sharp, mixed)

    def materialize(self, window: int | None = None) -> PolicyParams:
        """Freeze the teacher into a checkpointable logit table.

        Walks every task's expert path and records the on-support logits at
        each visited history key; unseen keys fall back to the uniform
        default. The result reproduces the teacher exactly on expert paths.
        """
        params = PolicyParams(num_actions=self.num_actions)
        for task_id in range(self.env.config.task_count):
            state, obs = self.env.reset(task_id)
            observations = [obs.token_id]
            actions: list[int] = []
            while not state.done:
                key = encode_history(observations, actions, window)
                expert = self.env.expert_action(state)
                logits = np.zeros(self.num_actions)
                logits[expert] = self._gap(state.turn)
                params.logits[key] = logits
                state, result = self.env.step(state, expert)
                actions.append(expert)
                observations.append(result.observation.token_id)
        return params


def make_teacher(env: Env, on_support_temperature: float = 0.3,
                 off_support_floor: float = 0.05, turn_sharpening: float = 0.75,
                 depth_decay: float = 0.85) -> TeacherPolicy:
    """Build the fixed expert policy for ``env``; see TeacherPolicy."""
    return TeacherPolicy(env, on_support_temperature, off_support_floor,
                         turn_sharpening, depth_decay)
