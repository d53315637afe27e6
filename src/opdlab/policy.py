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


def window_key(history: HistoryKey, window: int | None) -> HistoryKey:
    """The table key of a full history (o_0, a_0, ..., o_t): the history itself
    if ``window`` is None or at least t, else o_0 (task identity) and the last
    W = ``window`` turns, (o_0 | o_{t-W}, a_{t-W}, ..., a_{t-1} | o_t). That
    form has even length and the full one odd, so the two never alias."""
    t = len(history) // 2
    if window is None or window >= t:
        return history
    return history[:1] + history[2 * (t - window):]


def encode_history(observations, actions, window: int | None = None) -> HistoryKey:
    """window_key of the history (o_0, a_0, ..., o_t) given as its token ids
    and actions; ``observations`` must have one more element than ``actions``."""
    if len(observations) != len(actions) + 1:
        raise UsageError(
            f"history needs len(observations) == len(actions) + 1, "
            f"got {len(observations)} and {len(actions)}"
        )
    full = [int(observations[0])]
    for a, o in zip(actions, observations[1:]):
        full += (int(a), int(o))
    return window_key(tuple(full), window)


# -- row-wise forms over (B, A) matrices, one row per episode or batch entry ---


def softmax_rows(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Numerically stable softmax of each row of ``logits / temperature``."""
    z = logits if temperature == 1.0 else logits / temperature
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def log_rows(p: np.ndarray) -> np.ndarray:
    """log p, with 0 where p = 0: the ``log_p`` that forward_kl_rows takes."""
    return np.log(np.where(p > 0, p, 1.0))


def forward_kl_rows(p: np.ndarray, q: np.ndarray, log_p: np.ndarray | None = None) -> np.ndarray:
    """Exact KL(p[i] || q[i]) over the action set for each row i, teacher first.

    ``log_p`` is log_rows(p), computed if not given. Terms with p_i = 0 are
    0 * (0 - log q_i) = +0.0 (q_i <= 1) and stay in the sum, which runs over
    all A entries in order; q is floored at ``Q_FLOOR`` inside the log. Each
    result is clamped at 0 to absorb float round-off.
    """
    log_p = log_rows(p) if log_p is None else log_p
    return np.maximum((p * (log_p - np.log(np.maximum(q, Q_FLOOR)))).sum(axis=1), 0.0)


def sample_rows(dist: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample from each row, with the uniform draw u[i] for row i,
    traversing action indices ascending, so draws are reproducible per u."""
    idx = (np.cumsum(dist, axis=1) <= u[:, None]).sum(axis=1)
    return np.minimum(idx, dist.shape[1] - 1)


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """softmax_rows of one row of logits."""
    if temperature <= 0:
        raise UsageError(f"temperature must be > 0, got {temperature}")
    return softmax_rows(np.asarray(logits, dtype=np.float64)[None], temperature)[0]


def forward_kl(p: np.ndarray, q: np.ndarray) -> float:
    """forward_kl_rows of one pair of rows."""
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise UsageError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return float(forward_kl_rows(p[None], q[None])[0])


def kl_logit_gradient(p_teacher: np.ndarray, q_student: np.ndarray) -> np.ndarray:
    """Gradient of KL(p || softmax(z)) with respect to the student logits z.

    For softmax at temperature 1 this is exactly q - p; the entries sum to
    zero (softmax shift invariance).
    """
    p, q = np.asarray(p_teacher, dtype=np.float64), np.asarray(q_student, dtype=np.float64)
    if p.shape != q.shape:
        raise UsageError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return q - p


def sample_action(dist: np.ndarray, rng: np.random.Generator) -> int:
    """sample_rows of one distribution, with the draw ``rng.random()``, by a
    search of its cumulative mass (on one row, half the cost of sample_rows)."""
    cum = np.cumsum(np.asarray(dist, dtype=np.float64))
    return min(int(np.searchsorted(cum, rng.random(), side="right")), len(cum) - 1)


def _check_width(num_actions: int, key, logits: np.ndarray) -> None:
    if logits.shape != (num_actions,):
        raise UsageError(f"row {key} has {logits.size} logits, "
                         f"expected num_actions={num_actions}")


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
        default = np.zeros(self.num_actions) if self.default_logits is None else self.default_logits
        self.default_logits = np.asarray(default, dtype=np.float64)
        _check_width(self.num_actions, "default", self.default_logits)

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
    """Read a checkpoint; any fault in it raises a UsageError that names
    ``path`` and the file line at fault."""
    where = ""  # the file line being read, once there is one
    try:
        with open(path) as f:
            where = "line 1: "
            header = json.loads(f.readline())
            if (not isinstance(header, dict) or header.get("schema") != CHECKPOINT_SCHEMA
                    or header.get("kind") != "policy_params"):
                raise UsageError("not a policy checkpoint (schema mismatch)")
            params = PolicyParams(int(header["num_actions"]), version=int(header["version"]),
                                  default_logits=np.array(header["default_logits"], dtype=float))
            for number, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                where = f"line {number}: "
                row = json.loads(line)
                key, logits = tuple(row["key"]), np.array(row["logits"], dtype=np.float64)
                _check_width(params.num_actions, key, logits)
                params.logits[key] = logits
    except UsageError as e:
        raise UsageError(f"{path}: {where}{e}") from None
    except (OSError, ValueError, KeyError, TypeError) as e:  # JSONDecodeError is a ValueError
        raise UsageError(f"{path}: {where}cannot read a policy checkpoint "
                         f"({type(e).__name__}: {e})") from e
    return params
