"""Staleness-aware sub-trajectory experience replay, held as packed rows.

A replay entry is one student turn. Rollouts hand the buffer their student
turns as ``Turns``: one packed (n, 5) int32 array with a row per entry and
a column per field (the key id of the realized history, the sampled action,
the turn index, the env state id and the acting policy version). The
history key already encodes the whole prefix (expert-prefix turns
included), and the teacher's rows are read from its fixed arrays at the
entry's turn and state id, so nothing needs to be re-simulated at learn
time; the expert-prefix turns themselves get no entry. The buffer is one
such array too: a push is one concatenate and one slice, and a sample one
row gather, after eagerly discarding the entries older than the staleness
budget. There is no per-entry object: an entry is a row.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, UsageError
from .policy import KeyIndex

DEFAULT_CAPACITY = 4096


class Turns:
    """Replay entries as the (n, 5) int32 array ``rows``, a row per student
    turn, as ``Rollouts.entries`` holds them; its columns, views named
    ``key`` (key ids of ``index``), ``action``, ``turn``, ``state`` (env
    state ids) and ``version``, are the fields. ``TeacherPolicy.pairs(turn,
    state)`` gives an entry's teacher rows."""

    key, action, turn, state, version = (property(lambda self, i=i: self.rows[:, i])
                                         for i in range(5))

    def __init__(self, index: KeyIndex, rows: np.ndarray):
        self.index, self.rows = index, rows

    def __len__(self) -> int:
        return len(self.rows)


def decompose(rollouts) -> Turns:
    """The replay entries of a ``distill.Rollouts`` batch: its student turns,
    episode by episode, each in turn order.

    Kept as a name because bench/tracing.py traces ``replay.decompose``.
    """
    return rollouts.student_turns()


class RingBuffer:
    """Bounded insertion-ordered store; oldest entries are overwritten first.
    Every entry's key ids must come from one KeyIndex. The entries are one
    Turns, whose rows are in push order."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._turns: Turns | None = None
        self.discarded_stale_total = 0

    def __len__(self) -> int:
        return 0 if self._turns is None else len(self._turns)

    def _versions(self) -> np.ndarray:
        return np.zeros(0, dtype=np.int32) if self._turns is None else self._turns.version

    def push(self, turns: Turns) -> None:
        if not len(turns):
            return
        held = self._turns
        rows = turns.rows
        if held is not None:
            if turns.index is not held.index:
                raise UsageError("pushed entries have key ids of another KeyIndex")
            rows = np.concatenate((held.rows, rows))
        self._turns = Turns(turns.index, rows[-self.capacity:])

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
        entries when the pool is short, and [] when it is empty; the run
        loop samples only once the step has pushed ``fresh >= batch_size``
        entries within the staleness budget, so its batches are full.
        """
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        if not len(self):
            return []
        held = self._turns
        fresh = current_version - held.version <= delta_max
        kept = int(np.count_nonzero(fresh))
        if kept < len(fresh):
            self.discarded_stale_total += len(fresh) - kept
            held = self._turns = Turns(held.index, held.rows[fresh])
        if not kept:
            return []
        idx = rng.choice(kept, size=min(batch_size, kept), replace=False)
        return Turns(held.index, held.rows.take(idx, axis=0))
