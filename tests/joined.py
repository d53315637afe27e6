"""Join rollout batches column by column, for tests that compare batches."""

from __future__ import annotations

import numpy as np

from opdlab.distill import Rollouts


def episodes(batches, rows=slice(None)):
    """The episodes ``rows`` of the batches ``batches`` taken end to end, as
    one batch (the batches share one key index)."""
    columns = [np.concatenate([getattr(b, name) for b in batches])[rows]
               for name in ("task_ids", "versions", "keys", "actions", "teacher", "kl",
                            "prefix_len", "rounds", "success")]
    return Rollouts(batches[0].index, batches[0].algo, *columns)
