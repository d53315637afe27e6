"""Rollout batches for tests: one-episode batches, and batches joined
column by column."""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from opdlab.distill import Rollouts, rollout_batch


def episode(algo, env, student, teacher, task, k, gen, **kwargs):
    """One ``algo`` episode of ``task`` at curriculum horizon k, as a
    one-episode rollout_batch on the uniform row ``gen.random((1,
    horizon_cap))``: on a fresh generator, student turn i uses its i-th draw."""
    return rollout_batch(algo, env, student, teacher, [task], k,
                         gen.random((1, env.config.horizon_cap)), **kwargs)


def episodes(batches, rows=slice(None)):
    """The episodes ``rows`` of the batches ``batches`` taken end to end, as
    one batch (the batches share one key index)."""
    columns = [np.concatenate([getattr(b, f.name) for b in batches])[rows]
               for f in fields(Rollouts) if f.name not in ("index", "algo")]
    return Rollouts(batches[0].index, batches[0].algo, *columns)
