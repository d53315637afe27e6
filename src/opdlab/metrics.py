"""Computation and serialization of every logged quantity.

Logs are line-delimited JSON: one header object carrying the schema version
and a config hash, then one object per record. Float fields are rounded to
9 significant digits when a record is appended, so the in-memory log, the
file, and a round-tripped read all agree exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .atomic import atomic_open
from .errors import ConfigError, UsageError

SCHEMA_VERSION = 1

SPLIT_EVAL = "eval"
SPLIT_ROLLOUT = "rollout"


def round9(x: float) -> float:
    """Round to 9 significant digits (the log serialization precision)."""
    if x != x or math.isinf(x):  # nan propagates, inf preserved
        return x
    return float(f"{x:.9g}")


@dataclass
class EvalRecord:
    """Per-checkpoint evaluation summary, or per-step rollout aggregate."""

    step: int
    success_rate: float
    avg_rounds: float
    traj_kl_mean: float  # mean over episodes of the summed per-turn KL
    traj_kl_turn_mean: float  # mean over episodes of the per-turn mean KL
    per_turn_kl: list[float] = field(default_factory=list)
    active_k: int = 0
    split: str = SPLIT_EVAL
    n_rollouts: int = 0
    mean_prefix_len: float = 0.0


@dataclass
class TrainRecord:
    step: int
    loss: float
    grad_norm: float
    buffer_size: int
    discarded_stale: int  # cumulative over the run
    active_k: int
    mean_staleness: float


_RECORD_TYPES = {"eval": EvalRecord, "train": TrainRecord}
_TYPE_NAMES = {EvalRecord: "eval", TrainRecord: "train"}


def _rounded(record):
    """Copy of ``record`` with every float field rounded to 9 sig digits."""
    values = {}
    for f in fields(record):
        v = getattr(record, f.name)
        if isinstance(v, float):
            v = round9(v)
        elif isinstance(v, list):
            v = [round9(x) if isinstance(x, float) else x for x in v]
        values[f.name] = v
    return type(record)(**values)


class MetricsLog:
    """Ordered stream of train/eval records plus the header metadata."""

    def __init__(self, config_hash: str = ""):
        self.config_hash = config_hash
        self.records: list = []

    def append(self, record) -> None:
        if type(record) not in _TYPE_NAMES:
            raise UsageError(f"unknown record type {type(record).__name__}")
        self.records.append(_rounded(record))

    def eval_records(self, split: str | None = None) -> list[EvalRecord]:
        out = [r for r in self.records if isinstance(r, EvalRecord)]
        if split is not None:
            out = [r for r in out if r.split == split]
        return out

    def train_records(self) -> list[TrainRecord]:
        return [r for r in self.records if isinstance(r, TrainRecord)]

    def __len__(self) -> int:
        return len(self.records)


def config_hash(config_dict: dict) -> str:
    """Stable hash of a config mapping (order-insensitive)."""
    canon = json.dumps(config_dict, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Per-turn KL profile
# ---------------------------------------------------------------------------


def per_turn_kl_profile(trajectories) -> list[float]:
    """Mean turn KL at each absolute turn index across trajectories.

    Entry t averages turn_kl over all student turns recorded at index t.
    Expert prefix turns are not among a trajectory's turns, but they still
    advance the index, so prefix and student regions stay distinguishable.
    Indices with no student turn anywhere yield NaN.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise UsageError("per_turn_kl_profile needs at least one trajectory")
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    max_idx = -1
    for traj in trajectories:
        for turn in traj.turns:
            t = turn.turn_index
            sums[t] = sums.get(t, 0.0) + turn.turn_kl
            counts[t] = counts.get(t, 0) + 1
            max_idx = max(max_idx, t)
    return [sums[t] / counts[t] if counts.get(t) else math.nan
            for t in range(max_idx + 1)]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _json_safe(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    return value


def _json_restore_floats(record_cls, data: dict) -> dict:
    restored = {}
    float_fields = {f.name for f in fields(record_cls)
                    if f.type in ("float", float)}
    for k, v in data.items():
        if v is None and k != "per_turn_kl":
            v = math.nan
        if isinstance(v, list):
            v = [math.nan if x is None else x for x in v]
        elif k in float_fields and v is not None:
            v = float(v)
        restored[k] = v
    return restored


def write_records(log: MetricsLog, path) -> None:
    """Write the header line then one JSON object per record."""
    try:
        with atomic_open(path) as f:
            header = {
                "kind": "metrics",
                "schema_version": SCHEMA_VERSION,
                "config_hash": log.config_hash,
            }
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for record in log.records:
                obj = {"type": _TYPE_NAMES[type(record)]}
                obj.update({k: _json_safe(v) for k, v in asdict(record).items()})
                f.write(json.dumps(obj, sort_keys=True) + "\n")
    except OSError as e:
        raise OSError(f"failed writing metrics log to {path}: {e}") from e


def read_records(path) -> MetricsLog:
    """Inverse of write_records; rejects schema mismatches explicitly."""
    try:
        with open(path) as f:
            header = json.loads(f.readline())
            if header.get("kind") != "metrics":
                raise ConfigError(f"{path}: not a metrics log")
            if header.get("schema_version") != SCHEMA_VERSION:
                raise ConfigError(
                    f"{path}: metrics schema version "
                    f"{header.get('schema_version')} != expected {SCHEMA_VERSION}"
                )
            log = MetricsLog(config_hash=header.get("config_hash", ""))
            for line in f:
                if not line.strip():
                    continue
                data = json.loads(line)
                cls = _RECORD_TYPES.get(data.pop("type", None))
                if cls is None:
                    raise ConfigError(f"{path}: record with unknown type")
                log.records.append(cls(**_json_restore_floats(cls, data)))
            return log
    except OSError as e:
        raise OSError(f"failed reading metrics log from {path}: {e}") from e


def write_csv(log: MetricsLog, path) -> None:
    """Flat CSV export: one row per eval/rollout record, profile exploded."""
    evals = log.eval_records()
    width = max((len(r.per_turn_kl) for r in evals), default=0)
    base_cols = ["step", "split", "active_k", "success_rate", "avg_rounds",
                 "traj_kl_mean", "traj_kl_turn_mean", "n_rollouts",
                 "mean_prefix_len"]
    kl_cols = [f"kl_t{t}" for t in range(width)]
    try:
        with atomic_open(path, newline="") as f:
            writer = csv.writer(f)
            writer.writerow(base_cols + kl_cols)
            for r in evals:
                row = [getattr(r, c) for c in base_cols]
                profile = ["" if (isinstance(x, float) and math.isnan(x)) else x
                           for x in r.per_turn_kl]
                row += profile + [""] * (width - len(profile))
                writer.writerow(row)
    except OSError as e:
        raise OSError(f"failed writing CSV export to {path}: {e}") from e
