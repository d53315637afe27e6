"""Computation and serialization of every logged quantity.

Logs are line-delimited JSON: one header object carrying the schema version
and a config hash, then one object per record. A training run builds its
records after its loop (see ``runtime``). Float fields are rounded to 9
significant digits when a record is made there or appended, so the
in-memory log, the file, and a round-tripped read all agree exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

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


class MetricsLog:
    """Ordered stream of train/eval records plus the header metadata."""

    def __init__(self, config_hash: str = ""):
        self.config_hash = config_hash
        self.records: list = []

    def append(self, record) -> None:
        """Append ``record``, its float fields and the floats of its list
        fields rounded to 9 sig digits in place."""
        if type(record) not in _TYPE_NAMES:
            raise UsageError(f"unknown record type {type(record).__name__}")
        values = record.__dict__
        for name, v in values.items():
            if isinstance(v, float):
                values[name] = round9(v)
            elif isinstance(v, list):
                values[name] = [round9(x) if isinstance(x, float) else x for x in v]
        self.records.append(record)

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


def kl_profile(kl: np.ndarray, played: np.ndarray) -> list[float]:
    """Mean of each column of the (B >= 1, T) per-turn KL matrix ``kl`` over
    the rows set in the bool mask ``played``, NaN where none is. Columns are
    summed in row order, as a ``+=`` loop adds (np.sum adds one column pairwise)."""
    sums = np.cumsum(np.where(played, kl, 0.0), axis=0)[-1]
    counts = played.sum(axis=0)
    return np.divide(sums, counts, out=np.full(sums.shape, math.nan),
                     where=counts > 0).tolist()


def per_turn_kl_profile(rollouts) -> list[float]:
    """Mean turn KL at each absolute turn index over a ``distill.Rollouts``
    batch: kl_profile of its KL matrix over the student turns, cut after the
    last student turn. Entry t is NaN if no episode played a student turn t.
    Expert prefix turns are left out, but they advance the index, so prefix
    and student regions stay distinguishable.
    """
    if not len(rollouts):
        raise UsageError("per_turn_kl_profile needs at least one rollout")
    width = np.max(rollouts.prefix_len + rollouts.rounds, where=rollouts.rounds > 0, initial=0)
    return kl_profile(rollouts.kl[:, :width], rollouts.student_mask()[:, :width])


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


def _record_lines(log: MetricsLog, encode):
    """The lines of the header and of each record, made from its fields once."""
    yield encode({"kind": "metrics", "schema_version": SCHEMA_VERSION,
                  "config_hash": log.config_hash}) + "\n"
    for record in log.records:
        obj = dict(record.__dict__, type=_TYPE_NAMES[type(record)])
        for name, value in obj.items():
            if value != value or type(value) is list and value:  # NaN, or a profile
                obj[name] = _json_safe(value)
        yield encode(obj) + "\n"


def write_records(log: MetricsLog, path) -> None:
    """Write the header line then one JSON object per record, as
    json.dumps(sort_keys=True) writes them, with NaN as null."""
    try:
        with atomic_open(path) as f:
            f.writelines(_record_lines(log, json.JSONEncoder(sort_keys=True).encode))
    except OSError as e:
        raise OSError(f"failed writing metrics log to {path}: {e}") from e


def read_records(path) -> MetricsLog:
    """Inverse of write_records; any fault in the file raises a ConfigError
    that names ``path`` and the file line at fault."""
    where = ""  # the file line being read, once there is one
    try:
        with open(path) as f:
            where = "line 1: "
            header = json.loads(f.readline())
            if not isinstance(header, dict) or header.get("kind") != "metrics":
                raise ConfigError("not a metrics log")
            if header.get("schema_version") != SCHEMA_VERSION:
                raise ConfigError(f"metrics schema version {header.get('schema_version')} "
                                  f"!= expected {SCHEMA_VERSION}")
            log = MetricsLog(config_hash=header.get("config_hash", ""))
            for number, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                where = f"line {number}: "
                data = json.loads(line)
                cls = isinstance(data, dict) and _RECORD_TYPES.get(data.pop("type", None))
                if not cls:
                    raise ConfigError("not a record object of a known type")
                log.records.append(cls(**_json_restore_floats(cls, data)))
            return log
    except ConfigError as e:
        raise ConfigError(f"{path}: {where}{e}") from None
    except OSError as e:
        raise OSError(f"failed reading metrics log from {path}: {e}") from e
    except (ValueError, TypeError) as e:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{path}: {where}cannot read a metrics log "
                          f"({type(e).__name__}: {e})") from e


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
