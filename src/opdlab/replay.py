"""Staleness-aware sub-trajectory experience replay.

Each student-executed turn of a rollout becomes one self-contained entry:
the history key already encodes the whole prefix, so nothing needs to be
re-simulated at learn time. Entries carry the policy version that produced
them; the sampler eagerly discards anything older than the staleness budget
before drawing a batch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .policy import HistoryKey

DEFAULT_CAPACITY = 4096


@dataclass
class ExperienceEntry:
    history_key: HistoryKey
    teacher_dist: np.ndarray
    student_dist_at_collection: np.ndarray
    action: int
    policy_version: int
    traj_id: int
    turn_index: int


def decompose(traj) -> list[ExperienceEntry]:
    """One entry per student-executed turn, in turn order.

    Expert prefix turns are skipped entirely, so len(result) == traj.rounds
    for every rollout mode.
    """
    entries = []
    for turn in traj.turns:
        if turn.executed_by != "student":
            continue
        entries.append(ExperienceEntry(
            history_key=turn.history_key,
            teacher_dist=turn.teacher_dist,
            student_dist_at_collection=turn.student_dist,
            action=turn.action,
            policy_version=traj.policy_version,
            traj_id=traj.traj_id,
            turn_index=turn.turn_index,
        ))
    return entries


class RingBuffer:
    """Bounded insertion-ordered store; oldest entries are overwritten first."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: deque[ExperienceEntry] = deque(maxlen=capacity)
        self.discarded_stale_total = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, entries) -> None:
        self._entries.extend(entries)

    def count_at_version(self, version: int) -> int:
        return sum(1 for e in self._entries if e.policy_version == version)

    def count_eligible(self, current_version: int, delta_max: int) -> int:
        return sum(1 for e in self._entries
                   if current_version - e.policy_version <= delta_max)

    def sample_batch(self, current_version: int, delta_max: int, batch_size: int,
                     rng: np.random.Generator) -> list[ExperienceEntry]:
        """Uniform sample without replacement from the staleness-eligible pool.

        Entries with current_version - policy_version > delta_max are
        physically removed (and counted) before sampling, so buffer occupancy
        stays meaningful in the metrics. Returns fewer than batch_size
        entries when the pool is short; callers decide whether to wait.
        """
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        kept = [e for e in self._entries
                if current_version - e.policy_version <= delta_max]
        self.discarded_stale_total += len(self._entries) - len(kept)
        self._entries = deque(kept, maxlen=self.capacity)
        if not kept:
            return []
        n = min(batch_size, len(kept))
        idx = rng.choice(len(kept), size=n, replace=False)
        return [kept[i] for i in idx]

    def staleness_histogram(self, current_version: int) -> dict[int, int]:
        hist: dict[int, int] = {}
        for e in self._entries:
            d = current_version - e.policy_version
            hist[d] = hist.get(d, 0) + 1
        return hist
