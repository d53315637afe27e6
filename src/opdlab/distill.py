"""Trajectory generation and the distillation losses.

Three rollout modes share one loop: vanilla on-policy distillation runs the
student for the whole horizon, forward-curriculum (f2b) truncates after k
student turns, and backward-curriculum (b2f) replays the first L - k actions
of a stored expert trajectory before handing over to the student. Expert
prefix turns carry no distributions and are excluded from every loss and
gradient. ``rollout_lockstep`` runs the opd loop for a batch of episodes at
once, as arrays, for evaluation.

The per-turn loss is the exact categorical KL between the expert's and the
student's action distributions on the realized history, and its logit
gradient is q - p, so the learner update is plain gradient descent on the
logit table. The learner (``batch_gradient``) and the SFT baseline
(``sft_update``, ``nll_loss``) compute on (N, A) row blocks, one row per
batch entry or stored turn, and give bitwise the results of a per-entry loop
over the scalar softmax, KL and gradient. The SFT turns are materialized
once per run by ``store_turns``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .curriculum import b2f_prefix_len
from .env import Env, TeacherPolicy
from .errors import ConfigError, UsageError
from .policy import (
    HistoryKey,
    PolicyParams,
    action_dist,
    encode_history,
    forward_kl,
    forward_kl_rows,
    kl_logit_gradient,
    sample_action,
    sample_rows,
    softmax_rows,
)
from .replay import ExperienceEntry

ALGO_OPD = "opd"
ALGO_F2B = "f2b"
ALGO_B2F = "b2f"
ALGO_SFT = "sft"

EXECUTED_STUDENT = "student"
EXECUTED_PREFIX = "teacher_prefix"

STORE_SCHEMA = 1


@dataclass
class TurnRecord:
    history_key: HistoryKey
    action: int
    student_dist: np.ndarray | None
    teacher_dist: np.ndarray | None
    turn_index: int
    executed_by: str
    turn_kl: float


@dataclass
class Trajectory:
    task_id: int
    turns: list[TurnRecord]
    success: bool
    rounds: int  # student-executed turns only
    policy_version: int
    algo: str
    traj_id: int = 0

    @property
    def prefix_len(self) -> int:
        return sum(1 for t in self.turns if t.executed_by == EXECUTED_PREFIX)


# ---------------------------------------------------------------------------
# Rollouts
# ---------------------------------------------------------------------------


def _rollout(env: Env, student: PolicyParams, teacher: TeacherPolicy, task_id: int,
             rng: np.random.Generator, *, max_student_turns: int,
             prefix_actions: list[int] | None, algo: str,
             temperature: float = 1.0, window: int | None = None) -> Trajectory:
    """Shared rollout loop; the three modes differ only in their arguments."""
    state, obs = env.reset(task_id)
    observations = [obs.token_id]
    actions: list[int] = []
    turns: list[TurnRecord] = []

    for a in prefix_actions or []:
        if state.done:
            raise UsageError(
                f"stored trajectory for task {task_id} terminated during its prefix"
            )
        key = encode_history(observations, actions, window)
        turns.append(TurnRecord(history_key=key, action=int(a), student_dist=None,
                                teacher_dist=None, turn_index=state.turn,
                                executed_by=EXECUTED_PREFIX, turn_kl=0.0))
        state, result = env.step(state, int(a))
        actions.append(int(a))
        observations.append(result.observation.token_id)

    rounds = 0
    while not state.done and rounds < max_student_turns:
        key = encode_history(observations, actions, window)
        q_policy = action_dist(student, key, 1.0)
        q_sample = q_policy if temperature == 1.0 else action_dist(student, key, temperature)
        p_teacher = teacher.dist(state)
        a = sample_action(q_sample, rng)
        turns.append(TurnRecord(history_key=key, action=a, student_dist=q_policy,
                                teacher_dist=p_teacher, turn_index=state.turn,
                                executed_by=EXECUTED_STUDENT,
                                turn_kl=forward_kl(p_teacher, q_policy)))
        state, result = env.step(state, a)
        actions.append(a)
        observations.append(result.observation.token_id)
        rounds += 1

    return Trajectory(task_id=task_id, turns=turns, success=state.success,
                      rounds=rounds, policy_version=student.version, algo=algo)


def rollout_opd(env, student, teacher, task_id, rng, *, temperature=1.0,
                window=None) -> Trajectory:
    """Student acts every turn until done or the horizon cap."""
    return _rollout(env, student, teacher, task_id, rng,
                    max_student_turns=env.config.horizon_cap, prefix_actions=None,
                    algo=ALGO_OPD, temperature=temperature, window=window)


def rollout_f2b(env, student, teacher, task_id, k, rng, *, temperature=1.0,
                window=None) -> Trajectory:
    """Like rollout_opd but truncated after min(k, horizon_cap) student turns.

    Success is recorded only if the goal is reached inside the truncated
    window. For k >= horizon_cap this is bit-identical to rollout_opd
    (given identical rng state) apart from the algo tag.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return _rollout(env, student, teacher, task_id, rng,
                    max_student_turns=min(k, env.config.horizon_cap),
                    prefix_actions=None, algo=ALGO_F2B,
                    temperature=temperature, window=window)


def rollout_b2f(env, store, student, teacher, task_id, k, rng, *, temperature=1.0,
                window=None) -> Trajectory:
    """Replay the first L - k stored expert actions, then hand over.

    Prefix turns are tagged and excluded from losses. The student then acts
    until done or the horizon cap; with k >= L the prefix is empty and the
    rollout distribution matches rollout_opd.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    stored = store.get(task_id)
    if stored is None:
        raise ConfigError(f"task {task_id} missing from the expert trajectory store")
    n_prefix = b2f_prefix_len(len(stored), k)
    return _rollout(env, student, teacher, task_id, rng,
                    max_student_turns=env.config.horizon_cap,
                    prefix_actions=list(stored[:n_prefix]), algo=ALGO_B2F,
                    temperature=temperature, window=window)


def rollout_lockstep(env: Env, student: PolicyParams, teacher: TeacherPolicy,
                     task_ids: np.ndarray, u: np.ndarray, *, temperature: float = 1.0,
                     window: int | None = None):
    """rollout_opd for a batch of episodes that advance together, turn by turn.

    Episode e plays task_ids[e] and samples its turn-t action by inverse CDF
    from the uniform u[e, t], so each episode's draws depend only on its own
    row of ``u`` (shape (B, horizon_cap)). Each turn steps only the live
    episodes, with one (B, A) gather of student rows.

    Returns ``(kl, rounds, success)``: the (B, horizon_cap) matrix of
    per-turn KL (0 after an episode ends), and the student turns played and
    the success flag of each episode.
    """
    n, horizon = len(task_ids), env.config.horizon_cap
    if u.shape != (n, horizon):
        raise UsageError(f"u has shape {u.shape}, expected {(n, horizon)}")
    kl = np.zeros((n, horizon))
    rounds = np.zeros(n, dtype=np.int64)
    success = np.zeros(n, dtype=bool)
    # state of the live episodes only, in the order of ``live``
    live = np.arange(n)
    task = np.asarray(task_ids, dtype=np.int64)
    pos = np.zeros(n, dtype=np.int64)
    recovery = np.zeros(n, dtype=np.int64)
    # full histories (o_0, a_0, ..., o_t); a window keeps o_0 and the tail
    histories = [(tok,) for tok in env.initial_tokens[task].tolist()]
    get, default = student.logits.get, student.default_logits

    for t in range(horizon):
        if window is None or window >= t:
            keys = histories
        else:
            keys = [h[:1] + h[2 * (t - window):] for h in histories]
        rows = np.array([get(k, default) for k in keys])
        q_policy = softmax_rows(rows)
        q_sample = q_policy if temperature == 1.0 else softmax_rows(rows, temperature)
        p_teacher = teacher.dist_batch(task, pos, recovery, t)
        kl[live, t] = forward_kl_rows(p_teacher, q_policy)
        actions = sample_rows(q_sample, u[live, t])
        pos, recovery, tokens, won = env.step_batch(task, pos, recovery, actions)
        rounds[live] += 1
        success[live] = won
        histories = [h + (a, o) for h, a, o in
                     zip(histories, actions.tolist(), tokens.tolist())]
        if won.any():
            keep = ~won
            live, task, pos, recovery = live[keep], task[keep], pos[keep], recovery[keep]
            histories = [h for h, k in zip(histories, keep.tolist()) if k]
            if not live.size:
                break
    return kl, rounds, success


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------


def trajectory_loss(traj: Trajectory, params: PolicyParams | None = None,
                    ) -> tuple[float, dict[HistoryKey, np.ndarray]]:
    """Summed KL over student-executed turns plus its sparse logit gradient.

    With ``params`` given, the student distributions are recomputed at those
    parameters (same keys, softmax at temperature 1); otherwise the
    distributions recorded at collection time are used. Expert prefix turns
    contribute exactly zero to both outputs.
    """
    loss = 0.0
    grads: dict[HistoryKey, np.ndarray] = {}
    for turn in traj.turns:
        if turn.executed_by != EXECUTED_STUDENT:
            continue
        p = turn.teacher_dist
        q = turn.student_dist
        if p is None or (q is None and params is None):
            raise UsageError("student turn is missing recorded distributions")
        if params is not None:
            q = action_dist(params, turn.history_key, 1.0)
        loss += forward_kl(p, q)
        g = kl_logit_gradient(p, q)
        acc = grads.get(turn.history_key)
        grads[turn.history_key] = g if acc is None else acc + g
    return loss, grads


def _student_rows(params: PolicyParams, keys: list[HistoryKey]) -> np.ndarray:
    """softmax of ``params`` at ``keys`` as (N, A) rows; unseen keys use the default."""
    get, default = params.logits.get, params.default_logits
    return softmax_rows(np.array([get(k, default) for k in keys], dtype=np.float64))


def _sum_by_key(keys: list[HistoryKey], rows: np.ndarray):
    """Per-key sums of ``rows``, added in row order, as ``(keys, sums, counts)``
    with one entry per distinct key in order of first occurrence."""
    slot_of: dict[HistoryKey, int] = {}
    slots = [slot_of.setdefault(k, len(slot_of)) for k in keys]
    sums = np.zeros((len(slot_of), rows.shape[1]))
    np.add.at(sums, slots, rows)
    return list(slot_of), sums, np.bincount(slots)


def _sum_in_order(values: np.ndarray) -> float:
    """Left-to-right sum from 0.0, as a per-entry ``+=`` loop adds (np.sum is
    pairwise); the leading 0.0 + turns an all-zero -0.0 sum into 0.0, as there."""
    return 0.0 + float(np.cumsum(values)[-1])


def batch_gradient(batch: list[ExperienceEntry], params: PolicyParams,
                   ) -> tuple[float, dict[HistoryKey, np.ndarray]]:
    """Mean loss and per-key mean gradient over a replay batch.

    The student distribution is recomputed at the current parameters, so
    repeated steps on a fixed batch descend the current KL objective. The
    gradient for a key is averaged over that key's occurrences in the batch,
    keeping the learning rate independent of batch composition. The batch
    is one (N, A) row block; the result is bitwise the per-entry sum of
    forward_kl and kl_logit_gradient in batch order.
    """
    if not batch:
        raise UsageError("empty batch")
    keys = [e.history_key for e in batch]
    q = _student_rows(params, keys)
    p = np.array([e.teacher_dist for e in batch], dtype=np.float64)
    loss = _sum_in_order(forward_kl_rows(p, q))
    keys, sums, counts = _sum_by_key(keys, q - p)
    return loss / len(batch), dict(zip(keys, sums / counts[:, None]))


def apply_gradient(params: PolicyParams, grads: dict[HistoryKey, np.ndarray],
                   lr: float) -> PolicyParams:
    """Gradient-descent step on the logit table; bumps the version by 1.

    Rows are replaced, never mutated, so previously published snapshots
    remain valid.
    """
    new_logits = dict(params.logits)
    for key, g in grads.items():
        new_logits[key] = params.logits_for(key) - lr * g
    return PolicyParams(num_actions=params.num_actions, logits=new_logits,
                        default_logits=params.default_logits,
                        version=params.version + 1)


# ---------------------------------------------------------------------------
# Expert trajectory store
# ---------------------------------------------------------------------------


@dataclass
class TeacherTrajectoryStore:
    """Successful expert action sequences, one per covered task."""

    actions_by_task: dict[int, list[int]] = field(default_factory=dict)
    skipped_tasks: list[int] = field(default_factory=list)
    collection_seed: int | None = None

    def get(self, task_id: int) -> list[int] | None:
        return self.actions_by_task.get(task_id)

    def length(self, task_id: int) -> int:
        return len(self.actions_by_task[task_id])

    def task_ids(self) -> list[int]:
        return sorted(self.actions_by_task)

    def __len__(self) -> int:
        return len(self.actions_by_task)

    def max_length(self) -> int:
        return max((len(a) for a in self.actions_by_task.values()), default=0)


def collect_teacher_trajectories(env: Env, teacher: TeacherPolicy, pass_m: int,
                                 rng: np.random.Generator,
                                 collection_seed: int | None = None,
                                 ) -> TeacherTrajectoryStore:
    """Sample up to pass_m expert rollouts per task, keeping the first success.

    Tasks with no success within pass_m attempts are excluded from the store
    and reported via ``skipped_tasks``.
    """
    if pass_m < 1:
        raise ConfigError(f"pass_m must be >= 1, got {pass_m}")
    store = TeacherTrajectoryStore(collection_seed=collection_seed)
    for task_id in range(env.config.task_count):
        for _ in range(pass_m):
            state, _ = env.reset(task_id)
            actions: list[int] = []
            while not state.done:
                a = sample_action(teacher.dist(state), rng)
                state, _result = env.step(state, a)
                actions.append(a)
            if state.success:
                store.actions_by_task[task_id] = actions
                break
        else:
            store.skipped_tasks.append(task_id)
    return store


def replay_succeeds(env: Env, task_id: int, actions: list[int]) -> bool:
    """Replay an action sequence from reset and report terminal success."""
    state, _ = env.reset(task_id)
    for a in actions:
        if state.done:
            return False
        state, result = env.step(state, a)
    return state.success


def save_store(store: TeacherTrajectoryStore, path) -> None:
    header = {
        "schema": STORE_SCHEMA,
        "kind": "teacher_store",
        "collection_seed": store.collection_seed,
        "skipped_tasks": store.skipped_tasks,
    }
    with open(path, "w") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for task_id in store.task_ids():
            actions = store.actions_by_task[task_id]
            row = {"task_id": task_id, "actions": actions, "length": len(actions)}
            f.write(json.dumps(row, sort_keys=True) + "\n")


def load_store(path, env: Env) -> TeacherTrajectoryStore:
    """Read a store file and revalidate every trajectory against ``env``."""
    with open(path) as f:
        header = json.loads(f.readline())
        if header.get("schema") != STORE_SCHEMA or header.get("kind") != "teacher_store":
            raise ConfigError(f"{path}: not a teacher trajectory store")
        store = TeacherTrajectoryStore(
            collection_seed=header.get("collection_seed"),
            skipped_tasks=list(header.get("skipped_tasks", [])),
        )
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            task_id = int(row["task_id"])
            actions = [int(a) for a in row["actions"]]
            if len(actions) != int(row["length"]):
                raise ConfigError(f"{path}: length mismatch for task {task_id}")
            if not replay_succeeds(env, task_id, actions):
                raise ConfigError(
                    f"{path}: stored trajectory for task {task_id} no longer "
                    "replays to success in this environment"
                )
            store.actions_by_task[task_id] = actions
    return store


# ---------------------------------------------------------------------------
# SFT baseline
# ---------------------------------------------------------------------------


def store_turns(env: Env, store: TeacherTrajectoryStore,
                window: int | None = None) -> list[tuple[HistoryKey, int]]:
    """Materialize (history key, expert action) pairs for every stored turn."""
    pairs: list[tuple[HistoryKey, int]] = []
    for task_id in store.task_ids():
        state, obs = env.reset(task_id)
        observations = [obs.token_id]
        actions: list[int] = []
        for a in store.actions_by_task[task_id]:
            pairs.append((encode_history(observations, actions, window), a))
            state, result = env.step(state, a)
            actions.append(a)
            observations.append(result.observation.token_id)
    return pairs


def _expert_rows(turns: list[tuple[HistoryKey, int]], student: PolicyParams):
    """Student rows at the turns' keys, and the (row, expert action) index."""
    keys = [key for key, _ in turns]
    return keys, _student_rows(student, keys), (np.arange(len(turns)), [a for _, a in turns])


def sft_update(turns: list[tuple[HistoryKey, int]], student: PolicyParams,
               lr: float) -> PolicyParams:
    """One epoch of NLL gradient descent on the stored expert turns.

    ``turns`` is store_turns' output. The per-turn gradient is
    softmax(logits) - onehot(expert action); turns sharing a key accumulate
    in turn order. Returns new parameters with version + 1.
    """
    if not turns:
        raise ConfigError("SFT requires a non-empty trajectory store")
    keys, g, experts = _expert_rows(turns, student)
    g[experts] -= 1.0
    keys, sums, _ = _sum_by_key(keys, g)
    return apply_gradient(student, dict(zip(keys, sums)), lr)


def nll_loss(turns: list[tuple[HistoryKey, int]], student: PolicyParams) -> float:
    """-sum log softmax(logits)[expert action] over store_turns' turns; 0.0
    for none."""
    if not turns:
        return 0.0
    _, q, experts = _expert_rows(turns, student)
    return _sum_in_order(-np.log(np.maximum(q[experts], 1e-300)))
