"""Trajectory generation and the distillation losses.

One engine, ``rollout_lockstep``, runs every rollout: a batch of episodes
advance together, turn by turn, as arrays. The three modes differ only in
its inputs, which ``rollout_batch`` sets: vanilla on-policy distillation
lets the student act for the whole horizon, forward-curriculum (f2b) stops
after k student turns, and backward-curriculum (b2f) first replays the
first L - k actions of a stored expert trajectory. Evaluation is an opd
batch. It carries the live episodes' state ids and steps them through the
env's compiled tables (``next_state``, ``token``, ``success``) and the
teacher's per-turn row tables, so a turn costs a few array lookups on top
of the student's rows. Each episode reads its own row of uniforms, and its
student turn i samples from entry i of the row, so expert-prefix turns
draw nothing and an episode's results do not depend on the other episodes
of its batch.
``rollout_opd``, ``rollout_f2b`` and ``rollout_b2f`` are one-episode
batches. Each episode keeps its full history, and ``policy.window_key``
cuts it down to the turn's table key. A trajectory records one
``ExperienceEntry`` per student turn, which is also its replay entry;
expert-prefix turns are recorded only as their history keys
(``prefix_keys``), so they are outside every loss and gradient.

The per-turn loss is the exact categorical KL between the expert's and the
student's action distributions on the realized history, and its logit
gradient is q - p, so the learner update is plain gradient descent on the
logit table. An entry keeps the teacher's row but not the student's: the
learner (``batch_gradient``) and ``trajectory_loss`` recompute it as one
(N, A) row block, and ``apply_gradient`` writes its K rows as one (K, A)
block. The SFT baseline trains an ``SftBlock`` built once per run from
``store_turns`` (which replays the store through ``Env.play``): its steps
(``sft_update``, ``nll_loss``) touch only arrays. All give bitwise the
results of a per-entry loop over the scalar softmax, KL and gradient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .atomic import atomic_open
from .curriculum import b2f_prefix_len
from .env import Env, EnvState, TeacherPolicy
from .errors import ConfigError, UsageError
from .policy import (
    HistoryKey,
    PolicyParams,
    encode_history,
    forward_kl_rows,
    sample_action,
    sample_rows,
    softmax_rows,
    window_key,
)
from .replay import ExperienceEntry

ALGO_OPD = "opd"
ALGO_F2B = "f2b"
ALGO_B2F = "b2f"
ALGO_SFT = "sft"

STORE_SCHEMA = 1


@dataclass
class Trajectory:
    task_id: int
    turns: list[ExperienceEntry]  # student-executed turns only
    prefix_keys: list[HistoryKey]  # history keys of the expert prefix turns
    success: bool
    policy_version: int
    algo: str

    @property
    def rounds(self) -> int:
        return len(self.turns)

    @property
    def prefix_len(self) -> int:
        return len(self.prefix_keys)


# ---------------------------------------------------------------------------
# Rollouts
# ---------------------------------------------------------------------------


def rollout_lockstep(env: Env, students, teacher: TeacherPolicy, task_ids, u: np.ndarray, *,
                     temperature: float = 1.0, window: int | None = None,
                     max_student_turns: int | None = None, prefixes=None,
                     algo: str | None = None):
    """The rollout engine: a batch of episodes that advance together, turn by turn.

    Episode e plays task_ids[e] with the policy ``students[e]`` (episodes
    may share one, or act on snapshots of different ages). It first plays
    the expert actions ``prefixes[e]``, kept only as history keys; then the
    student acts until the goal, the horizon cap or ``max_student_turns``
    student turns. Student turn i samples by inverse CDF from u[e, i], so an
    episode depends only on its own row of ``u`` (shape (B, horizon_cap)),
    not on the other episodes. Each turn gathers the live rows as one (B, A)
    and steps the live episodes' state ids through ``env.next_state``.
    ``temperature`` must be > 0 (ConfigError otherwise, before any sampling).

    Returns ``(kl, rounds, success, trajectories)``: the (B, horizon_cap)
    per-turn KL on every turn played (0 after an episode ends), each
    episode's student turns and success, and with ``algo`` given one
    Trajectory per episode tagged ``algo`` (else None, as for evaluation).
    """
    n, horizon = len(task_ids), env.config.horizon_cap
    if not temperature > 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    if u.shape != (n, horizon):
        raise UsageError(f"u has shape {u.shape}, expected {(n, horizon)}")
    task = np.asarray(task_ids, dtype=np.int64)
    if n and not 0 <= task.min() <= task.max() < env.config.task_count:
        raise ConfigError(f"task ids must be in [0, {env.config.task_count})")
    # v[e, t] is the uniform of episode e's student at turn t, u[e, t - prefix
    # length], and forced[e, t] the expert action at a prefix turn t
    prefix_len = np.array([len(p) for p in prefixes] if prefixes else np.zeros(n),
                          dtype=np.int64)
    v, forced = u, None
    if prefix_len.any():
        v, forced = np.zeros_like(u), np.zeros((n, horizon), dtype=np.int64)
        for e, (prefix, p) in enumerate(zip(prefixes, prefix_len.tolist())):
            v[e, p:], forced[e, :p] = u[e, :horizon - p], prefix
    end = prefix_len + (horizon if max_student_turns is None else max_student_turns)
    first_end, last_prefix = int(end.min(initial=horizon)), int(prefix_len.max(initial=0))
    trajs = None if algo is None else [
        Trajectory(task_id=int(t), turns=[], prefix_keys=[], success=False,
                   policy_version=s.version, algo=algo) for t, s in zip(task, students)]

    kl = np.zeros((n, horizon))
    played = np.full(n, horizon)  # turns each episode played, prefix included
    success = np.zeros(n, dtype=bool)
    # state ids of the live episodes only, in the order of ``live``
    live = np.arange(n)
    state = env.initial_state[task]
    next_state, token, reached = env.next_state, env.token, env.success
    row_class = teacher.row_class
    tables = [(s.logits.get, s.default_logits) for s in students]
    # full histories (o_0, a_0, ..., o_t); a window keeps o_0 and the tail
    histories = [(tok,) for tok in env.initial_tokens[task].tolist()]

    for t in range(horizon):
        keys = histories if window is None else [window_key(h, window) for h in histories]
        rows = np.array([get(k, default) for (get, default), k in zip(tables, keys)])
        q_policy = softmax_rows(rows)
        q_sample = q_policy if temperature == 1.0 else softmax_rows(rows, temperature)
        cls = row_class[state]
        p_teacher = teacher.turn_rows(t)[cls]
        turn_kl = forward_kl_rows(p_teacher, q_policy, teacher.turn_rows(t, log=True)[cls])
        actions = sample_rows(q_sample, v[live, t])
        in_prefix = None
        if t < last_prefix:
            in_prefix = prefix_len[live] > t
            actions = np.where(in_prefix, forced[live, t], actions)
        kl[live, t] = turn_kl
        if trajs is not None:
            flags = [False] * len(keys) if in_prefix is None else in_prefix.tolist()
            for e, key, prefix, a, d, p in zip(live.tolist(), keys, flags, actions.tolist(),
                                               turn_kl.tolist(), p_teacher):
                if prefix:
                    trajs[e].prefix_keys.append(key)
                else:
                    trajs[e].turns.append(ExperienceEntry(
                        history_key=key, action=a, teacher_dist=p, turn_index=t,
                        turn_kl=d, policy_version=trajs[e].policy_version))
        state = next_state[state, actions]
        tokens, won = token[state], reached[state]
        if in_prefix is not None and (won & (t + 1 < prefix_len[live])).any():
            raise UsageError("a stored trajectory reached its goal during its expert prefix")
        histories = [h + (a, o) for h, a, o in
                     zip(histories, actions.tolist(), tokens.tolist())]
        ended = won if t + 1 < first_end else won | (end[live] == t + 1)
        if ended.any():
            played[live[ended]] = t + 1
            success[live[won]] = True
            keep = ~ended
            live, state = live[keep], state[keep]
            histories = [h for h, k in zip(histories, keep.tolist()) if k]
            tables = [s for s, k in zip(tables, keep.tolist()) if k]
            if not live.size:
                break
    for traj, won in zip(trajs or (), success.tolist()):
        traj.success = won
    return kl, played - prefix_len, success, trajs


def max_student_turns(algo: str, k: int, horizon: int) -> int:
    """The most student turns one ``algo`` rollout plays at curriculum horizon k."""
    return min(k, horizon) if algo == ALGO_F2B else horizon


def rollout_batch(algo: str, env: Env, students, teacher: TeacherPolicy, task_ids,
                  k: int, u: np.ndarray, *, store=None, temperature: float = 1.0,
                  window: int | None = None) -> list[Trajectory]:
    """``algo`` rollouts at curriculum horizon k as one rollout_lockstep batch:
    the student acts for the whole horizon (opd), for min(k, horizon_cap)
    turns (f2b), or after the first L - k stored expert actions (b2f)."""
    if algo not in (ALGO_OPD, ALGO_F2B, ALGO_B2F):
        raise ConfigError(f"no rollout mode for algo {algo!r}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    prefixes = None
    if algo == ALGO_B2F:
        stored = [store.get(task_id) for task_id in np.asarray(task_ids).tolist()]
        if None in stored:
            raise ConfigError("a task is missing from the expert trajectory store")
        prefixes = [s[:b2f_prefix_len(len(s), k)] for s in stored]
    return rollout_lockstep(
        env, students, teacher, task_ids, u, temperature=temperature, window=window,
        max_student_turns=max_student_turns(algo, k, env.config.horizon_cap),
        prefixes=prefixes, algo=algo)[3]


def _rollout(algo, env, student, teacher, task_id, k, rng, *, store=None,
             temperature=1.0, window=None) -> Trajectory:
    """One rollout_batch episode, whose uniform row is ``rng.random(horizon_cap)``:
    on a fresh generator, student turn i uses the generator's i-th draw."""
    u = rng.random((1, env.config.horizon_cap))
    return rollout_batch(algo, env, [student], teacher, [task_id], k, u, store=store,
                         temperature=temperature, window=window)[0]


def rollout_opd(env, student, teacher, task_id, rng, *, temperature=1.0,
                window=None) -> Trajectory:
    """Student acts every turn until done or the horizon cap."""
    return _rollout(ALGO_OPD, env, student, teacher, task_id, env.config.horizon_cap, rng,
                    temperature=temperature, window=window)


def rollout_f2b(env, student, teacher, task_id, k, rng, *, temperature=1.0,
                window=None) -> Trajectory:
    """rollout_opd truncated after min(k, horizon_cap) student turns: success
    needs the goal inside them, and k >= horizon_cap plays rollout_opd's turns."""
    return _rollout(ALGO_F2B, env, student, teacher, task_id, k, rng,
                    temperature=temperature, window=window)


def rollout_b2f(env, store, student, teacher, task_id, k, rng, *, temperature=1.0,
                window=None) -> Trajectory:
    """Replay the first L - k stored expert actions (kept only as history
    keys, outside every loss), then hand over; k >= L is rollout_opd."""
    return _rollout(ALGO_B2F, env, student, teacher, task_id, k, rng, store=store,
                    temperature=temperature, window=window)


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------


def trajectory_loss(traj: Trajectory, params: PolicyParams,
                    ) -> tuple[float, dict[HistoryKey, np.ndarray]]:
    """Summed KL over student-executed turns plus its sparse logit gradient,
    with the student's distributions recomputed at ``params`` (temperature 1).

    Expert prefix turns are not among ``traj.turns``, so they contribute
    exactly zero to both. The turns are one row block, as in batch_gradient,
    and the result is bitwise the per-turn sum of forward_kl and
    kl_logit_gradient.
    """
    if not traj.turns:
        return 0.0, {}
    loss, keys, sums, _ = _kl_block(traj.turns, params)
    return loss, dict(zip(keys, sums))


def _rows_at(params: PolicyParams, keys) -> np.ndarray:
    """The (N, A) logit rows of ``params`` at ``keys``; unseen keys get the default."""
    get, default = params.logits.get, params.default_logits
    return np.array([get(k, default) for k in keys], dtype=float).reshape(-1, params.num_actions)


def _slots(keys: list[HistoryKey]) -> tuple[list[HistoryKey], np.ndarray]:
    """The distinct keys in order of first occurrence, and each key's slot."""
    slot_of: dict[HistoryKey, int] = {}
    slots = [slot_of.setdefault(k, len(slot_of)) for k in keys]
    return list(slot_of), np.array(slots, dtype=np.intp)


def _sum_in_order(values: np.ndarray) -> float:
    """Left-to-right sum from 0.0, as a per-entry ``+=`` loop adds (np.sum is
    pairwise); the leading 0.0 + turns an all-zero -0.0 sum into 0.0, as there."""
    return 0.0 + float(np.cumsum(values)[-1])


def _kl_block(entries: list[ExperienceEntry], params: PolicyParams):
    """Summed KL of the entries' teacher rows p against the student rows q of
    ``params`` at their keys, and the logit gradients q - p summed per _slots
    key in entry order, as ``(loss, keys, sums, counts)``."""
    keys = [e.history_key for e in entries]
    q = softmax_rows(_rows_at(params, keys))
    p = np.array([e.teacher_dist for e in entries], dtype=np.float64)
    keys, slots = _slots(keys)
    sums = np.zeros((len(keys), q.shape[1]))
    np.add.at(sums, slots, q - p)
    return _sum_in_order(forward_kl_rows(p, q)), keys, sums, np.bincount(slots)


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
    loss, keys, sums, counts = _kl_block(batch, params)
    return loss / len(batch), dict(zip(keys, sums / counts[:, None]))


def apply_gradient(params: PolicyParams, grads: dict[HistoryKey, np.ndarray],
                   lr: float) -> PolicyParams:
    """Gradient-descent step on the logit table; bumps the version by 1.

    The K updated rows are one (K, A) block, old rows - lr * grads, that is
    never written, so rows are replaced, never mutated, and snapshots stay valid.
    """
    old = _rows_at(params, grads)
    new = old - lr * np.reshape(list(grads.values()), old.shape)
    return PolicyParams(params.num_actions, {**params.logits, **dict(zip(grads, new))},
                        params.default_logits, params.version + 1)


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
            states, actions = env.play(task_id, lambda s: sample_action(teacher.dist(s), rng))
            if states[-1].success:
                store.actions_by_task[task_id] = actions
                break
        else:
            store.skipped_tasks.append(task_id)
    return store


def _replay(env: Env, task_id: int, actions: list[int]) -> list[EnvState]:
    """The states of a stored expert trajectory replayed from reset, the reset
    state first. Raises ConfigError unless its last action, and no earlier
    one, reaches the goal."""
    remaining = iter(actions)
    states, played = env.play(task_id, lambda state: next(remaining, None))
    if len(played) != len(actions) or not states[-1].success:
        raise ConfigError(f"stored trajectory for task {task_id} does not reach the "
                          "goal at its last action in this environment")
    return states


def save_store(store: TeacherTrajectoryStore, path) -> None:
    header = {
        "schema": STORE_SCHEMA,
        "kind": "teacher_store",
        "collection_seed": store.collection_seed,
        "skipped_tasks": store.skipped_tasks,
    }
    with atomic_open(path) as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for task_id in store.task_ids():
            actions = store.actions_by_task[task_id]
            row = {"task_id": task_id, "actions": actions, "length": len(actions)}
            f.write(json.dumps(row, sort_keys=True) + "\n")


def load_store(path, env: Env) -> TeacherTrajectoryStore:
    """Read a store file and revalidate every trajectory against ``env``; any
    fault in it raises a ConfigError that names ``path`` and, past the
    header, the file line of the row at fault."""
    where = ""  # the file line being read, once there is one
    try:
        with open(path) as f:
            where = "line 1: "
            header = json.loads(f.readline())
            if (not isinstance(header, dict) or header.get("schema") != STORE_SCHEMA
                    or header.get("kind") != "teacher_store"):
                raise ConfigError("not a teacher trajectory store")
            store = TeacherTrajectoryStore(
                collection_seed=header.get("collection_seed"),
                skipped_tasks=list(header.get("skipped_tasks", [])),
            )
            for number, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                where = f"line {number}: "
                row = json.loads(line)
                task_id = int(row["task_id"])
                actions = [int(a) for a in row["actions"]]
                if len(actions) != int(row["length"]):
                    raise ConfigError(f"length mismatch for task {task_id}")
                if not all(0 <= a < env.config.num_actions for a in actions):
                    raise ConfigError(f"task {task_id} has an action outside "
                                      f"[0, {env.config.num_actions})")
                _replay(env, task_id, actions)
                store.actions_by_task[task_id] = actions
    except ConfigError as e:
        raise ConfigError(f"{path}: {where}{e}") from None
    except (OSError, ValueError, KeyError, TypeError) as e:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{path}: {where}cannot read a teacher trajectory store "
                          f"({type(e).__name__}: {e})") from e
    return store


# ---------------------------------------------------------------------------
# SFT baseline
# ---------------------------------------------------------------------------


def store_turns(env: Env, store: TeacherTrajectoryStore,
                window: int | None = None) -> list[tuple[HistoryKey, int]]:
    """Materialize (history key, expert action) pairs for every stored turn."""
    pairs: list[tuple[HistoryKey, int]] = []
    for task_id in store.task_ids():
        actions = store.actions_by_task[task_id]
        tokens = [s.token for s in _replay(env, task_id, actions)]
        pairs.extend((encode_history(tokens[:t + 1], actions[:t], window), a)
                     for t, a in enumerate(actions))
    return pairs


@dataclass(eq=False)
class SftBlock:
    """SFT state as arrays: the turns' distinct history keys in order of first
    occurrence, each turn's slot among them, the keys' (U, A) logit rows
    ``z``, which no step writes, and q = softmax_rows(z[slots])."""

    base: PolicyParams  # the table the run started from
    keys: list[HistoryKey]
    slots: np.ndarray
    experts: tuple[np.ndarray, np.ndarray]  # the (turn, expert action) index of q
    z: np.ndarray
    q: np.ndarray
    version: int

    def params(self) -> PolicyParams:
        """The block's rows laid over ``base``'s, as a table."""
        logits = {**self.base.logits, **dict(zip(self.keys, self.z))}
        return PolicyParams(self.base.num_actions, logits, self.base.default_logits, self.version)


def sft_block(turns: list[tuple[HistoryKey, int]], params: PolicyParams) -> SftBlock:
    """store_turns' ``turns`` as a block that starts from the rows of ``params``."""
    keys, slots = _slots([key for key, _ in turns])
    z = _rows_at(params, keys)
    experts = (np.arange(len(turns)), np.array([a for _, a in turns], dtype=np.intp))
    return SftBlock(params, keys, slots, experts, z, softmax_rows(z[slots]), params.version)


def sft_update(block: SftBlock, lr: float) -> SftBlock:
    """One epoch of NLL gradient descent on the block's turns, as a new block
    with version + 1: the per-turn gradient is softmax(logits) - onehot(expert
    action), and turns sharing a key accumulate in turn order, as in a
    per-turn loop followed by apply_gradient."""
    if not block.slots.size:
        raise ConfigError("SFT requires a non-empty trajectory store")
    g = block.q.copy()
    g[block.experts] -= 1.0
    sums = np.zeros_like(block.z)
    np.add.at(sums, block.slots, g)
    z = block.z - lr * sums
    return replace(block, z=z, q=softmax_rows(z[block.slots]), version=block.version + 1)


def nll_loss(block: SftBlock) -> float:
    """-sum log softmax(logits)[expert action] over the block's turns, read
    from the softmax the block holds; 0.0 for none."""
    if not block.slots.size:
        return 0.0
    return _sum_in_order(-np.log(np.maximum(block.q[block.experts], 1e-300)))
