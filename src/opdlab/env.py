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

Each ``Env`` compiles the skeleton into state-indexed tables when it is
built: the transition rule is written once, in ``Env._compile``, and
applied to every (task, pos, recovery debt) at once. ``Env.step``, the
teacher and the lockstep rollout engine in ``distill`` all read those
tables, and expert collection and the store checks in ``distill`` walk
state ids through them too. ``reset`` and ``step`` give an episode as a
sequence of frozen ``EnvState`` values, each carrying the observation token
it emits. Every transition is a pure function of (config, task_id, action
sequence), so token sequences are bit-reproducible across runs and
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError
from .policy import log_rows, softmax_rows

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
        for ok, message in (
            (self.kind in ENV_KINDS,
             f"unknown env kind {self.kind!r}, expected one of {ENV_KINDS}"),
            (self.horizon_cap >= 1, "horizon_cap must be >= 1"),
            (self.num_actions >= 2, "num_actions must be >= 2"),
            (self.chain_length >= 1, "chain_length must be >= 1"),
            (self.chain_length <= self.horizon_cap, f"chain_length {self.chain_length} exceeds "
             f"horizon_cap {self.horizon_cap}; the goal would be unreachable"),
            (self.off_support_depth >= 0, "off_support_depth must be >= 0"),
            (self.seed >= 0, "env.seed must be >= 0"),
            (self.task_count >= 1, "task_count must be >= 1"),
        ):
            if not ok:
                raise ConfigError(message)


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
    """Deterministic simulator for one EnvConfig, compiled into state tables.

    Every (task, pos, recovery_left) with recovery_left at most
    ``off_support_depth * horizon_cap`` (the most one horizon can accrue)
    has an int id, ``state_id``, with ``recovery_levels`` debts per task
    and position. The transition rule is applied once, at construction, to
    all ids at once, and kept as tables indexed by id: ``next_state[s, a]``
    (goal states map to themselves), the token ``token[s]`` a state emits
    when stepped to, ``success[s]``, ``expert[s]`` (the action that
    advances or pays off debt), and ``pos[s]`` and ``recovery[s]``.
    ``initial_state[task]`` is the id after reset, whose token is
    ``initial_tokens[task]``.

    Episode state lives entirely in EnvState values: ``reset`` and ``step``
    return a new one and never change the Env. The lockstep rollout engine
    steps arrays of ids through the same tables.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        c = config
        self.recovery_levels = c.off_support_depth * c.horizon_cap + 1
        # The per-task draws the transition rule reads: correct_table[task,
        # pos] is the action that advances from pos (for memory_lock the last
        # one is the key), and recovery_table[task, d] the action that pays
        # off one unit of a recovery debt d (clipped).
        self.correct_table = np.stack([
            _task_rng(c.seed, t, _SALT_CORRECT).integers(0, c.num_actions, size=c.chain_length)
            for t in range(c.task_count)
        ])
        self.recovery_table = np.stack([
            _task_rng(c.seed, t, _SALT_RECOVERY).integers(0, c.num_actions,
                                                          size=self.recovery_levels)
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

        self._compile()
        self._check_reachability()

    # -- state tables ---------------------------------------------------------

    def state_id(self, task, pos, recovery):
        """Id of (task, pos, recovery_left), on ints or int arrays alike."""
        return (task * (self.config.chain_length + 1) + pos) * self.recovery_levels + recovery

    def _compile(self) -> None:
        """Build the state tables: the only place the transition rule is written."""
        c = self.config
        task, pos, recovery = (a.ravel() for a in np.indices(
            (c.task_count, c.chain_length + 1, self.recovery_levels)))
        ids = self.state_id(task, pos, recovery)
        on = recovery == 0
        goal = on & (pos == c.chain_length)
        expert = np.where(on, self.correct_table[task, np.minimum(pos, c.chain_length - 1)],
                          self.recovery_table[task, recovery])
        # The expert action advances on support and pays off one unit of debt
        # off it; any other action adds off_support_depth of debt. A live
        # state owes at most off_support_depth * (horizon_cap - 1), so the
        # clip only touches states no episode steps from. The goal is final.
        hit = np.where(goal, ids, self.state_id(task, pos + on, np.maximum(recovery - 1, 0)))
        miss = np.where(goal, ids, self.state_id(
            task, pos, np.minimum(recovery + c.off_support_depth, self.recovery_levels - 1)))
        self.next_state = np.empty((ids.size, c.num_actions), dtype=np.int32)
        self.next_state[:] = miss[:, None]
        self.next_state[ids, expert] = hit
        self.token = np.where(on, self.pos_base + pos,
                              self.off_base + np.minimum(recovery - 1, self.off_buckets - 1)
                              ).astype(np.int32)
        self.success = goal
        self.expert = expert.astype(np.int32)
        self.pos = pos.astype(np.int32)
        self.recovery = recovery.astype(np.int32)
        self.initial_state = self.state_id(np.arange(c.task_count), 0, 0).astype(np.int32)

    def _id_of(self, state: EnvState) -> int:
        """state_id of ``state``, whose debt must lie inside the tables."""
        if not 0 <= state.recovery_left < self.recovery_levels:
            raise UsageError(f"recovery_left {state.recovery_left} is outside the state "
                             f"tables [0, {self.recovery_levels})")
        return self.state_id(state.task_id, state.pos, state.recovery_left)

    # -- episode interface --------------------------------------------------

    def reset(self, task_id: int) -> EnvState:
        """The reset state of ``task_id``; kept as a name because bench/tracing.py traces it."""
        c = self.config
        if not 0 <= task_id < c.task_count:
            raise ConfigError(
                f"task_id {task_id} out of range [0, {c.task_count})"
            )
        return EnvState(task_id=task_id, pos=0, recovery_left=0, turn=0, done=False,
                        success=False, token=int(self.initial_tokens[task_id]))

    def step(self, state: EnvState, action: int) -> EnvState:
        """The state after ``action``; kept as a name because bench/tracing.py traces it."""
        c = self.config
        if state.done:
            raise UsageError("step() called on a terminal state")
        if not 0 <= action < c.num_actions:
            raise UsageError(f"action {action} out of range [0, {c.num_actions})")
        s = self.next_state.item(self._id_of(state), action)
        turn = state.turn + 1
        success = self.success.item(s)
        return EnvState(task_id=state.task_id, pos=self.pos.item(s),
                        recovery_left=self.recovery.item(s), turn=turn,
                        done=success or turn >= c.horizon_cap, success=success,
                        token=self.token.item(s))

    # -- oracle surface: the per-task draws and the expert ---------------------

    def correct_action(self, task_id: int, pos: int) -> int:
        return int(self.correct_table[task_id, pos])

    def recovery_action(self, task_id: int, recovery_left: int) -> int:
        return int(self.recovery_table[task_id, min(recovery_left, self.recovery_levels - 1)])

    def expert_action(self, state: EnvState) -> int:
        return self.expert.item(self._id_of(state))

    def on_support(self, state: EnvState) -> bool:
        return state.recovery_left == 0

    # -- construction-time checks ---------------------------------------------

    def _check_reachability(self) -> None:
        """Walk every task's expert path through the tables for horizon_cap
        steps; a goal state maps to itself, so each must end on its goal."""
        s = self.initial_state
        for _ in range(self.config.horizon_cap):
            s = self.next_state[s, self.expert[s]]
        failed = np.flatnonzero(~self.success[s])
        if failed.size:
            raise ConfigError(
                f"task {int(failed[0])} is unreachable within the horizon; "
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
        for ok, message in (
            (0 < self.on_support_temperature < np.inf,
             "on_support_temperature must be finite and > 0"),
            (0 < self.off_support_floor <= 1, "off_support_floor must be in (0, 1]"),
            (0 <= self.turn_sharpening < np.inf, "turn_sharpening must be finite and >= 0"),
            (0 < self.depth_decay <= 1, "depth_decay must be in (0, 1]"),
        ):
            if not ok:
                raise ConfigError(message)


class TeacherPolicy:
    """Fixed (never-trained) expert policy built on the environment oracle.

    On-support histories get a softmax sharply favoring the expert action:
    a unit logit on that action, scaled by ``(1 + turn_sharpening * t) /
    temperature`` at turn t. The per-turn sharpening reproduces the way an
    expert's confidence concentrates as an episode progresses.

    Off-support histories get ``lam * uniform + (1 - lam) * sharp`` where
    ``sharp`` favors the recovery action at the same turn's sharpness and
    ``lam = max(floor, depth_decay ** recovery_left)``. Mixing with uniform
    can only raise entropy, so off-support entropy dominates on-support
    entropy at every turn index; a floor of 1 yields exactly uniform.

    A state's distribution depends on it only through its turn, expert
    action and recovery debt: ``p`` and ``log_p`` hold each turn's
    distributions and their log_rows, a row per (expert action, debt) class
    (a state's is ``row_class[s]``), and every read goes through them.
    """

    def __init__(self, env: Env, config: TeacherConfig):
        self.env = env
        self.config = config
        self.num_actions = env.config.num_actions
        self._uniform = np.full(self.num_actions, 1.0 / self.num_actions)
        self.row_class = env.expert * env.recovery_levels + env.recovery
        # the read-only (horizon_cap, classes, A) distributions and their log_rows
        self.p = np.stack([self._turn(t) for t in range(env.config.horizon_cap)])
        self.log_p = log_rows(self.p)
        self.p.flags.writeable = self.log_p.flags.writeable = False
        self._rows = self.p.reshape(-1, self.num_actions), self.log_p.reshape(-1, self.num_actions)

    def _gap(self, turn: int) -> float:
        c = self.config
        return (1.0 + c.turn_sharpening * turn) / c.on_support_temperature

    def _turn(self, turn: int) -> np.ndarray:
        """The (classes, A) distributions of ``turn``."""
        # (A, 1, A): a row per expert action
        sharp = softmax_rows(self._gap(turn) * np.eye(self.num_actions))[:, None, :]
        c = self.config
        recovery = np.arange(self.env.recovery_levels)
        lam = np.maximum(c.off_support_floor, c.depth_decay ** recovery)[:, None]
        mixed = lam * self._uniform + (1.0 - lam) * sharp
        return np.where((recovery == 0)[:, None], sharp, mixed).reshape(-1, self.num_actions)

    def pairs(self, turns, states) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``p`` and ``log_p`` of state ids ``states`` at ``turns``,
        one take each."""
        at = turns * self.p.shape[1] + self.row_class[states]
        return self._rows[0].take(at, axis=0), self._rows[1].take(at, axis=0)

    def dist(self, state: EnvState) -> np.ndarray:
        """Action distribution for the realized history behind ``state``
        (kept as a name because bench/tracing.py traces it)."""
        return self.p[state.turn, self.row_class[self.env._id_of(state)]].copy()


def make_teacher(env: Env, **overrides) -> TeacherPolicy:
    """The expert for ``env`` with TeacherConfig(**overrides); see TeacherPolicy."""
    return TeacherPolicy(env, TeacherConfig(**overrides))
