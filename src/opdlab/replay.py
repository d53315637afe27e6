"""Staleness-aware sub-trajectory experience replay.

An ``ExperienceEntry`` is the one per-turn record: a rollout writes one
for each student-executed turn, and the runtime pushes those entries into
the buffer as they are. The history key already encodes the whole prefix
(expert-prefix turns included), so nothing needs to be re-simulated at
learn time; the expert-prefix turns themselves get no entry. Entries carry
the policy version that produced them; the sampler eagerly discards
anything older than the staleness budget before drawing a batch.
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
    """One student turn: the realized history, the sampled action, the teacher's
    distribution, its KL and the acting policy version. The student's
    distribution is not kept: it is its policy's softmax at ``history_key``."""

    history_key: HistoryKey
    action: int
    teacher_dist: np.ndarray
    turn_index: int
    turn_kl: float
    policy_version: int


def decompose(traj) -> list[ExperienceEntry]:
    """The replay entries of a rollout: its student turns, in turn order.

    Kept as a name because bench/tracing.py traces ``replay.decompose``.
    """
    return traj.turns


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
