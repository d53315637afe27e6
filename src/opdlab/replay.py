"""Staleness-aware sub-trajectory experience replay, held as columns.

A replay entry is one student turn. Rollouts hand the buffer their student
turns as ``Turns``: one array per field, one row per entry (the key id of
the realized history, the sampled action, the turn index, the teacher's
distribution, the turn KL and the acting policy version). The history key
already encodes the whole prefix (expert-prefix turns included), so nothing
needs to be re-simulated at learn time; the expert-prefix turns themselves
get no entry. The sampler eagerly discards entries older than the staleness
budget before drawing a batch. ``ExperienceEntry`` is the same record as one
object, built on demand (``Turns.entries``) for tests and per-turn readers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError
from .policy import HistoryKey, KeyIndex

DEFAULT_CAPACITY = 4096


@dataclass
class ExperienceEntry:
    """One student turn: the realized history, the sampled action, the teacher's
    distribution, its KL and the acting policy version. The student's
    distribution is not kept: it is its policy's softmax at ``history_key``."""

    history_key: HistoryKey
    action: int
    teacher_dist: np.ndarray
    turn_index: int
    turn_kl: float
    policy_version: int


@dataclass(eq=False)
class Turns:
    """Replay entries as columns, one row per student turn; ``key`` holds key
    ids of ``index`` and ``teacher`` the (n, A) teacher rows."""

    index: KeyIndex
    key: np.ndarray
    action: np.ndarray
    turn: np.ndarray
    teacher: np.ndarray
    kl: np.ndarray
    version: np.ndarray

    def __len__(self) -> int:
        return len(self.key)

    def __iter__(self):
        return iter(self.entries())

    def _columns(self) -> list[np.ndarray]:
        return [self.key, self.action, self.turn, self.teacher, self.kl, self.version]

    def take(self, rows) -> "Turns":
        """The entries at ``rows`` (indices, a slice or a bool mask)."""
        if isinstance(rows, np.ndarray) and rows.dtype == bool:
            rows = np.flatnonzero(rows)
        teacher = (self.teacher[rows] if isinstance(rows, slice)
                   else self.teacher.take(rows, axis=0))  # take gathers rows faster than []
        return Turns(self.index, self.key[rows], self.action[rows], self.turn[rows], teacher,
                     self.kl[rows], self.version[rows])

    def entries(self) -> list[ExperienceEntry]:
        return [ExperienceEntry(k, a, p, t, d, v) for k, a, p, t, d, v in zip(
            self.index.keys(self.key), self.action.tolist(), self.teacher, self.turn.tolist(),
            self.kl.tolist(), self.version.tolist())]

    @classmethod
    def of(cls, entries, index: KeyIndex) -> "Turns":
        """``entries`` (ExperienceEntry objects) as columns, keys interned in ``index``."""
        entries = list(entries)
        teacher = np.array([e.teacher_dist for e in entries], dtype=np.float64)
        return cls(index, np.array([index.intern(e.history_key) for e in entries], dtype=np.int64),
                   np.array([e.action for e in entries], dtype=np.int64),
                   np.array([e.turn_index for e in entries], dtype=np.int64),
                   teacher.reshape(len(entries), -1) if entries else teacher.reshape(0, 0),
                   np.array([e.turn_kl for e in entries], dtype=np.float64),
                   np.array([e.policy_version for e in entries], dtype=np.int64))


def decompose(traj) -> list[ExperienceEntry]:
    """The replay entries of a rollout: its student turns, in turn order.

    Kept as a name because bench/tracing.py traces ``replay.decompose``.
    """
    return traj.turns


class RingBuffer:
    """Bounded insertion-ordered store; oldest entries are overwritten first.
    Every entry's key ids must come from one KeyIndex."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._turns: Turns | None = None
        self.discarded_stale_total = 0

    def __len__(self) -> int:
        return 0 if self._turns is None else len(self._turns)

    def _versions(self) -> np.ndarray:
        return np.zeros(0, dtype=np.int64) if self._turns is None else self._turns.version

    def push(self, turns: Turns) -> None:
        if not len(turns):
            return
        held = self._turns
        if held is not None:
            if turns.index is not held.index:
                raise UsageError("pushed entries have key ids of another KeyIndex")
            turns = Turns(turns.index, *(np.concatenate(pair) for pair in
                                         zip(held._columns(), turns._columns())))
        self._turns = turns.take(slice(-self.capacity, None))

    def count_at_version(self, version: int) -> int:
        return int(np.count_nonzero(self._versions() == version))

    def count_eligible(self, current_version: int, delta_max: int) -> int:
        return int(np.count_nonzero(current_version - self._versions() <= delta_max))

    def sample_batch(self, current_version: int, delta_max: int, batch_size: int,
                     rng: np.random.Generator) -> Turns | list:
        """Uniform sample without replacement from the staleness-eligible pool.

        Entries with current_version - policy_version > delta_max are
        physically removed (and counted) before sampling, so buffer occupancy
        stays meaningful in the metrics. Returns fewer than batch_size
        entries when the pool is short, and [] when it is empty; callers
        decide whether to wait.
        """
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        if not len(self):
            return []
        fresh = current_version - self._turns.version <= delta_max
        kept = int(np.count_nonzero(fresh))
        if kept < len(fresh):
            self.discarded_stale_total += len(fresh) - kept
            self._turns = self._turns.take(fresh)
        if not kept:
            return []
        idx = rng.choice(kept, size=min(batch_size, kept), replace=False)
        return self._turns.take(idx)

    def staleness_histogram(self, current_version: int) -> dict[int, int]:
        stale, counts = np.unique(current_version - self._versions(), return_counts=True)
        return dict(zip(stale.tolist(), counts.tolist()))
