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

An episode is a sequence of frozen ``EnvState`` values, each carrying the
observation token it emits; ``Env.play`` walks one from reset, taking each
action from a caller's rule. Every transition is a pure function of
(config, task_id, action sequence), so token sequences are bit-reproducible
across runs and platforms.
"""

from __future__ import annotations

from collections.abc import Callable
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
class EnvState:
    """One point of an episode, after reset or after a step.

    ``token`` is the observation the state emits; it is the only field a
    policy sees, as an entry of its history key.
    """

    task_id: int
    pos: int
    recovery_left: int
    turn: int
    done: bool
    success: bool
    token: int


def _task_rng(seed: int, task_id: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, task_id, salt])))


class Env:
    """Deterministic simulator for one EnvConfig.

    Episode state lives entirely in EnvState values: ``reset`` and ``step``
    return a new one and never change the Env. ``play`` walks one episode
    through them; the ``*_batch`` methods step arrays of states for the
    lockstep rollout engine.
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

    def reset(self, task_id: int) -> EnvState:
        c = self.config
        if not 0 <= task_id < c.task_count:
            raise ConfigError(
                f"task_id {task_id} out of range [0, {c.task_count})"
            )
        return EnvState(task_id=task_id, pos=0, recovery_left=0, turn=0, done=False,
                        success=False, token=self._initial_token_list[task_id])

    def step(self, state: EnvState, action: int) -> EnvState:
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
        return EnvState(task_id=state.task_id, pos=pos, recovery_left=recovery, turn=turn,
                        done=success or turn >= c.horizon_cap, success=success,
                        token=self._token(pos, recovery))

    def _token(self, pos: int, recovery: int) -> int:
        """Token of a stepped-to state: its chain position while on support,
        else a bucket of its recovery debt (observation_tokens, on scalars)."""
        if recovery == 0:
            return self.pos_base + pos
        return self.off_base + min(recovery - 1, self.off_buckets - 1)

    def play(self, task_id: int, choose: Callable[[EnvState], int | None],
             ) -> tuple[list[EnvState], list[int]]:
        """Play one episode of ``task_id`` from reset.

        Each action is ``choose(state)`` on the latest state, until the
        episode is done or ``choose`` returns None. Returns the states
        visited, the reset state first, and the actions taken, one fewer.
        """
        state = self.reset(task_id)
        states, actions = [state], []
        while not state.done:
            action = choose(state)
            if action is None:
                break
            state = self.step(state, action)
            states.append(state)
            actions.append(action)
        return states, actions

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
            if not self.play(task_id, self.expert_action)[0][-1].success:
                raise ConfigError(
                    f"task {task_id} is unreachable within the horizon; "
                    "environment construction is broken"
                )


def make_env(config: EnvConfig) -> Env:
    return Env(config)


# ---------------------------------------------------------------------------
# Constructed teacher
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TeacherConfig:
    """The expert's shape parameters (see TeacherPolicy), checked on creation."""

    on_support_temperature: float = 0.3
    off_support_floor: float = 0.05
    turn_sharpening: float = 0.75
    depth_decay: float = 0.85

    def __post_init__(self):
        if self.on_support_temperature <= 0:
            raise ConfigError("on_support_temperature must be > 0")
        if not 0 < self.off_support_floor <= 1:
            raise ConfigError("off_support_floor must be in (0, 1]")
        if self.turn_sharpening < 0:
            raise ConfigError("turn_sharpening must be >= 0")
        if not 0 < self.depth_decay <= 1:
            raise ConfigError("depth_decay must be in (0, 1]")


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

    def __init__(self, env: Env, config: TeacherConfig):
        self.env = env
        self.config = config
        self.num_actions = env.config.num_actions
        self._uniform = np.full(self.num_actions, 1.0 / self.num_actions)
        self._sharp_by_turn: dict[int, np.ndarray] = {}

    def _gap(self, turn: int) -> float:
        c = self.config
        return (1.0 + c.turn_sharpening * turn) / c.on_support_temperature

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
        c = self.config
        lam = max(c.off_support_floor, c.depth_decay ** self.env.error_depth(state))
        return lam * self._uniform + (1.0 - lam) * sharp

    def dist_batch(self, task: np.ndarray, pos: np.ndarray, recovery: np.ndarray,
                   turn: int) -> np.ndarray:
        """dist() for a batch of live states at one turn index, as (B, A) rows."""
        sharp = self._sharp(turn)[self.env.expert_actions(task, pos, recovery)]
        c = self.config
        lam = np.maximum(c.off_support_floor, c.depth_decay ** recovery)[:, None]
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
            states, actions = self.env.play(task_id, self.env.expert_action)
            tokens = [s.token for s in states]
            for t, expert in enumerate(actions):
                logits = np.zeros(self.num_actions)
                logits[expert] = self._gap(t)
                params.logits[encode_history(tokens[:t + 1], actions[:t], window)] = logits
        return params


def make_teacher(env: Env, **overrides) -> TeacherPolicy:
    """The expert for ``env`` with TeacherConfig(**overrides); see TeacherPolicy."""
    return TeacherPolicy(env, TeacherConfig(**overrides))
