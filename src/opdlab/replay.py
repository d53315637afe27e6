"""Staleness-aware sub-trajectory experience replay, held as columns.

A replay entry is one student turn. Rollouts hand the buffer their student
turns as ``Turns``: one int array per field, one element per entry (the key
id of the realized history, the sampled action, the turn index, the env
state id and the acting policy version). The history key already encodes
the whole prefix (expert-prefix turns included), and the teacher's rows
are read from its fixed arrays at the entry's turn and state id, so
nothing needs to be re-simulated at learn time; the expert-prefix turns
themselves get no entry. The sampler eagerly discards entries older than
the staleness budget before drawing a batch. There is no per-entry
object: an entry is a row of a ``Turns``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError
from .policy import KeyIndex

DEFAULT_CAPACITY = 4096


@dataclass(eq=False)
class Turns:
    """Replay entries as int columns, one element per student turn: ``key``
    holds key ids of ``index``, ``state`` int32 env state ids, and
    ``TeacherPolicy.pairs(turn, state)`` gives an entry's teacher rows."""

    index: KeyIndex
    key: np.ndarray
    action: np.ndarray
    turn: np.ndarray
    state: np.ndarray
    version: np.ndarray

    def __len__(self) -> int:
        return len(self.key)

    def _columns(self) -> list[np.ndarray]:
        return [self.key, self.action, self.turn, self.state, self.version]

    def take(self, rows) -> "Turns":
        """The entries at ``rows`` (indices, a slice or a bool mask)."""
        if isinstance(rows, np.ndarray) and rows.dtype == bool:
            rows = np.flatnonzero(rows)
        return Turns(self.index, *(column[rows] for column in self._columns()))


def decompose(rollouts) -> Turns:
    """The replay entries of a ``distill.Rollouts`` batch: its student turns,
    episode by episode, each in turn order.

    Kept as a name because bench/tracing.py traces ``replay.decompose``.
    """
    return rollouts.student_turns()


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
