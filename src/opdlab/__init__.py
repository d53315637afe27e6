"""Desk-scale laboratory for multi-turn on-policy distillation.

Trains tabular softmax students against a constructed expert in small
deterministic environments, with forward (truncation) and backward
(expert-prefix) temporal curricula, a deterministic actor/learner runtime
with an optional actor lag, and staleness-filtered sub-trajectory replay.
"""

from .curriculum import CurriculumSchedule, b2f_prefix_len, horizon_at
from .distill import (
    TeacherTrajectoryStore,
    collect_teacher_trajectories,
    rollout_batch,
    sft_block,
    sft_update,
)
from .env import Env, EnvConfig, TeacherPolicy, make_env, make_teacher
from .errors import ConfigError, UsageError
from .metrics import EvalRecord, MetricsLog, TrainRecord, write_records
from .policy import (
    PolicyParams,
    encode_history,
    forward_kl,
    kl_logit_gradient,
    sample_action,
)
from .replay import RingBuffer
from .runtime import RunConfig, SnapshotBoard, TeacherConfig, evaluate, run_training

__version__ = "0.1.0"
