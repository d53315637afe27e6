"""Tabular softmax policies over discrete action sets.

A policy is a table mapping an encoded interaction history to a logit
vector; the action distribution is the softmax of those logits at a given
temperature. KL divergence and its logit gradient are computed exactly
over the action set (no sampling), which keeps the distillation losses
variance-free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open
from .errors import UsageError

# Floor applied to the student side of the KL log; tabular students can
# assign exact zeros early in training.
Q_FLOOR = 1e-12

CHECKPOINT_SCHEMA = 1

# A history key is the canonical flat encoding of (o_0, a_0, ..., o_t).
HistoryKey = tuple[int, ...]


def encode_history(observations, actions, window: int | None = None) -> HistoryKey:
    """Build the table key for a history (o_0, a_0, ..., o_t).

    ``observations`` must have exactly one more element than ``actions``.
    With a finite ``window``, only the most recent ``window`` (o, a) pairs
    survive, but o_0 is always kept so task identity is never truncated
    away. Keys are built from observation token ids and action indices
    only; diagnostic flags never enter the encoding.
    """
    if len(observations) != len(actions) + 1:
        raise UsageError(
            f"history needs len(observations) == len(actions) + 1, "
            f"got {len(observations)} and {len(actions)}"
        )
    t = len(actions)
    if t == 0:
        return (int(observations[0]),)
    if window is None or window >= t:
        # Full history: (o_0, a_0, o_1, a_1, ..., o_t).
        parts = [int(observations[0])]
        for i in range(t):
            parts.append(int(actions[i]))
            parts.append(int(observations[i + 1]))
        return tuple(parts)
    # Windowed: (o_0 | o_{t-W}, a_{t-W}, ..., o_{t-1}, a_{t-1} | o_t). The
    # windowed form has even length, the full form odd, so the two regimes
    # can never alias each other.
    parts = [int(observations[0])]
    for i in range(t - window, t):
        parts.append(int(observations[i]))
        parts.append(int(actions[i]))
    parts.append(int(observations[t]))
    return tuple(parts)


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Numerically stable softmax of ``logits / temperature``."""
    if temperature <= 0:
        raise UsageError(f"temperature must be > 0, got {temperature}")
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def forward_kl(p: np.ndarray, q: np.ndarray) -> float:
    """Exact KL(p || q) over the action set, teacher first.

    Terms with p_i = 0 contribute zero; q is floored at ``Q_FLOOR`` inside
    the log. The result is clamped at 0 to absorb float round-off. The zero
    terms stay in the sum, so it runs over all A entries in the order that
    forward_kl_rows uses, and the two agree bitwise for any A.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise UsageError(f"dimension mismatch: {p.shape} vs {q.shape}")
    mask = p > 0
    log_p = np.log(p, out=np.zeros_like(p), where=mask)
    terms = np.where(mask, p * (log_p - np.log(np.maximum(q, Q_FLOOR))), 0.0)
    return max(0.0, float(terms.sum()))


def kl_logit_gradient(p_teacher: np.ndarray, q_student: np.ndarray) -> np.ndarray:
    """Gradient of KL(p || softmax(z)) with respect to the student logits z.

    For softmax at temperature 1 this is exactly q - p; the entries sum to
    zero (softmax shift invariance).
    """
    p = np.asarray(p_teacher, dtype=np.float64)
    q = np.asarray(q_student, dtype=np.float64)
    if p.shape != q.shape:
        raise UsageError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return q - p


def sample_action(dist: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF sample from ``dist``, traversing action indices ascending.

    The fixed traversal order makes draws reproducible per rng state.
    """
    cum = np.cumsum(np.asarray(dist, dtype=np.float64))
    u = rng.random()
    idx = int(np.searchsorted(cum, u, side="right"))
    return min(idx, len(cum) - 1)


# -- row-wise forms over (B, A) matrices, one row per episode or batch entry ---


def softmax_rows(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """softmax() applied to each row of ``logits``."""
    z = logits / temperature
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def forward_kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """forward_kl(p[i], q[i]) for each row i."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(np.maximum(q, Q_FLOOR))), 0.0)
    return np.maximum(terms.sum(axis=1), 0.0)


def sample_rows(dist: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sample_action() for each row, with the uniform draw u[i] for row i."""
    idx = (np.cumsum(dist, axis=1) <= u[:, None]).sum(axis=1)
    return np.minimum(idx, dist.shape[1] - 1)


@dataclass
class PolicyParams:
    """Logit table for one policy.

    Rows are treated as immutable once stored: updates replace the row with
    a fresh array, so published snapshots can share rows with the learner's
    working copy safely.
    """

    num_actions: int
    logits: dict[HistoryKey, np.ndarray] = field(default_factory=dict)
    default_logits: np.ndarray | None = None
    version: int = 0

    def __post_init__(self):
        if self.default_logits is None:
            self.default_logits = np.zeros(self.num_actions, dtype=np.float64)
        else:
            self.default_logits = np.asarray(self.default_logits, dtype=np.float64)

    def logits_for(self, key: HistoryKey) -> np.ndarray:
        row = self.logits.get(key)
        return row if row is not None else self.default_logits

    def snapshot(self) -> "PolicyParams":
        """Cheap immutable view: shares rows, copies the table."""
        return PolicyParams(
            num_actions=self.num_actions,
            logits=dict(self.logits),
            default_logits=self.default_logits,
            version=self.version,
        )


def action_dist(
    params: PolicyParams, key: HistoryKey, temperature: float = 1.0
) -> np.ndarray:
    """softmax(logits[key] / temperature); unseen keys use the default row."""
    return softmax(params.logits_for(key), temperature)


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------
#
# A checkpoint is line-delimited JSON: one header object, then one object per
# table row, sorted by key, with floats at full (repr round-trip) precision.
# Sorting keeps the file byte-stable across runs with identical parameters.


def save_params(params: PolicyParams, path) -> None:
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "kind": "policy_params",
        "num_actions": params.num_actions,
        "version": params.version,
        "default_logits": [float(x) for x in params.default_logits],
    }
    # the encoder json.dumps(sort_keys=True) builds, made once for all rows
    encode = json.JSONEncoder(sort_keys=True).encode
    with atomic_open(path) as f:
        f.write(encode(header) + "\n")
        for key in sorted(params.logits):
            row = {"key": list(key), "logits": params.logits[key].tolist()}
            f.write(encode(row) + "\n")


def load_params(path) -> PolicyParams:
    with open(path) as f:
        header = json.loads(f.readline())
        if header.get("schema") != CHECKPOINT_SCHEMA or header.get("kind") != "policy_params":
            raise UsageError(f"{path}: not a policy checkpoint (schema mismatch)")
        params = PolicyParams(
            num_actions=int(header["num_actions"]),
            default_logits=np.array(header["default_logits"], dtype=np.float64),
            version=int(header["version"]),
        )
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            params.logits[tuple(row["key"])] = np.array(row["logits"], dtype=np.float64)
    for key, logits in [("default", params.default_logits), *params.logits.items()]:
        if logits.shape != (params.num_actions,):
            raise UsageError(f"{path}: row {key} has {logits.size} logits, "
                             f"expected num_actions={params.num_actions}")
    return params
