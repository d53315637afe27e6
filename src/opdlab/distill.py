"""Rollouts and the distillation losses.

One engine, ``rollout_lockstep``, runs every rollout: a batch of episodes
advance together, turn by turn, as arrays. The three modes differ only in
its inputs, which ``rollout_batch`` sets: vanilla on-policy distillation
lets the student act for the whole horizon, forward-curriculum (f2b) stops
after k student turns, and backward-curriculum (b2f) first replays the
first L - k actions of a stored expert trajectory. Evaluation is an opd
batch. The engine carries the live episodes' env state ids, stepped
through the env's compiled tables (``next_state``, ``token``,
``success``), and their key ids, stepped through the student's
``KeyIndex`` (from turn W on, with a window of W turns, to window keys).
A turn only samples the next action from each episode's softmax cumsum
at the sampling temperature (gathered by key id from ``PolicyParams.cum``,
brought current at a call's first read), steps the env, drops the
episodes that ended, and steps the index for the others, a few array
operations whatever the batch width; only a key new to the index, or with
a window a lookup of the next window key, touches Python. The turn KL and
recorded columns of all played turns are built once per call, after the
walk. Each episode reads its own row of uniforms, and its student turn i
samples from entry i of the row, so expert-prefix turns draw nothing and
an episode's results do not depend on the other episodes of its batch.

Every batch comes back as ``Rollouts``: a (B, horizon_cap, 5) int32 block
of replay entry rows (key id, action, turn, env state id, version) and
(B, horizon_cap) turn KL, one row per episode, with each episode's
student-turn KL sum. The runtime takes the replay entries
(``Rollouts.student_turns``, one gather of the rows) and the KL sums from
them; expert-prefix turns are kept only as key ids, outside every loss and
gradient.

The per-turn loss is the exact categorical KL between the expert's and the
student's action distributions on the realized history, and its logit
gradient is q - p, so the learner update is plain gradient descent on the
logit table. An entry holds ints only, no row: the learner
(``batch_gradient``) gathers the teacher's rows and their logs
(``TeacherPolicy.pairs``) by (turn, state id) and the student's logits by
key id, takes their softmax for the gradient and its floored log for the
KL (the rows of ``PolicyParams.log_q``, which the learner thus does not
read), and ``apply_gradient`` writes its K rows into the run's one table
in place, as one (K, A) block. The SFT baseline trains an ``SftBlock``
built once per run from ``store_turns``, one engine call that plays the
store as expert prefixes, so SFT keys are built as b2f prefix keys are;
its steps (``sft_update``, ``nll_loss``) touch only arrays; neither they
nor the learner scatter per key where no key repeats. Expert collection
and the store checks walk state ids through the env's tables too. All
give bitwise the results of a per-entry loop over the scalar softmax, KL
and gradient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open
from .curriculum import b2f_prefix_len
from .env import Env, TeacherPolicy
from .errors import ConfigError, UsageError
from .policy import (
    KeyIndex,
    PolicyParams,
    RowBlock,
    forward_kl_rows,
    log_floor,
    sample_action,
    sample_cum,
    softmax_rows,
)
from .replay import Turns

ALGO_OPD = "opd"
ALGO_F2B = "f2b"
ALGO_B2F = "b2f"
ALGO_SFT = "sft"

STORE_SCHEMA = 1


@dataclass(eq=False)
class Rollouts:
    """A batch of rollouts as columns. ``entries[e, t]`` is episode e's turn
    t as a replay entry row (int32 key id of ``index``, action, turn, env
    state id, version), so ``keys``, ``actions`` and ``states`` are views of
    its (B, horizon_cap) columns, ``versions`` of turn 0's versions, and
    ``kl[e, t]`` is the turn's KL. Episode e played prefix_len[e] expert
    turns, then rounds[e] student turns; later entries are 0 but for the
    turn and version (set for all turns of an episode, and raising past
    int32). ``kl_sum[e]`` is its summed student-turn KL, added left to
    right from 0.0."""

    index: KeyIndex
    algo: str
    task_ids: np.ndarray
    entries: np.ndarray
    kl: np.ndarray
    prefix_len: np.ndarray
    rounds: np.ndarray
    success: np.ndarray
    kl_sum: np.ndarray

    keys, actions, states = (property(lambda self, i=i: self.entries[..., i]) for i in (0, 1, 3))
    versions = property(lambda self: self.entries[:, 0, 4])

    def student_mask(self) -> np.ndarray:
        """(B, horizon_cap): True at each episode's student turns."""
        t = np.arange(self.kl.shape[1])
        return (t >= self.prefix_len[:, None]) & (t < (self.prefix_len + self.rounds)[:, None])

    def student_turns(self) -> Turns:
        """The replay entries of the batch: its student turns, episode by
        episode, each in turn order, as one gather of its entry rows."""
        return Turns(self.index, self.entries[self.student_mask()])

    def _columns(self) -> list[np.ndarray]:
        return [self.task_ids, self.entries, self.kl, self.prefix_len, self.rounds, self.success,
                self.kl_sum]

    def take(self, rows: slice) -> "Rollouts":
        """The episodes at ``rows``, a slice (whose columns are views)."""
        return Rollouts(self.index, self.algo, self.task_ids[rows], self.entries[rows],
                        self.kl[rows], self.prefix_len[rows], self.rounds[rows],
                        self.success[rows], self.kl_sum[rows])

    def put(self, rows: np.ndarray, other: "Rollouts") -> None:
        """Write the episodes of ``other`` over those at ``rows``, in order."""
        for mine, theirs in zip(self._columns(), other._columns()):
            mine[rows] = theirs

    def joined(self, other: "Rollouts") -> "Rollouts":
        """The episodes of ``self``, then those of ``other``."""
        return Rollouts(self.index, self.algo,
                        *map(np.concatenate, zip(self._columns(), other._columns())))

    def __len__(self) -> int:
        return len(self.task_ids)


# ---------------------------------------------------------------------------
# Rollouts
# ---------------------------------------------------------------------------


def rollout_lockstep(env: Env, student: PolicyParams, teacher: TeacherPolicy, task_ids,
                     u: np.ndarray, *, temperature: float = 1.0, window: int | None = None,
                     max_student_turns: int | None = None, prefixes=None,
                     algo: str | None = None):
    """The rollout engine: a batch of episodes that advance together, turn by turn.

    Every episode acts on the one table ``student``. Episode e plays
    task_ids[e]: first the expert actions ``prefixes[e]``, kept only as
    history keys; then the student acts until the goal, the horizon cap or
    ``max_student_turns`` student turns. Student turn i samples by inverse
    CDF from u[e, i], so an episode depends only on its own row of ``u``
    (shape (B, horizon_cap)), not on the other episodes. ``temperature``
    must be > 0 (ConfigError otherwise, before any sampling).

    The live episodes are arrays (env state ids, history ids in the
    student's KeyIndex, uniforms, end turns, prefix lengths). A turn only
    samples the next action from each episode's cached softmax cumsum at
    ``temperature`` (``PolicyParams.cum``) by key id, steps the env, drops
    the episodes that ended and steps the index for the others; only a
    history new to the index touches Python. After the walk, every played
    turn is one block: teacher rows and their logs (``TeacherPolicy.pairs``),
    the student's floored log rows (``PolicyParams.log_q``), one
    forward_kl_rows call and a scatter per column; the table is fixed within
    a call and ids interned during it read the default row, so the block
    reads the rows the turns read. Each episode carries one key id, its full
    history's up to turn W = ``window`` and its window key's from then on.
    With ``algo`` or a window given every key is interned, as o_0 and W
    turns bound the window keys; in evaluation without a window none is, so
    the index does not grow, and a history outside it reads the default row.

    Returns ``(kl, rounds, success, rollouts)``: the (B, horizon_cap)
    per-turn KL on every turn played (0 after an episode ends), each
    episode's student turns and success, and with ``algo`` given the batch
    as Rollouts tagged ``algo`` (else None, as for evaluation).
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
    end = np.minimum(prefix_len + (horizon if max_student_turns is None else max_student_turns),
                     horizon)
    first_end, last_prefix = int(end.min(initial=horizon)), int(prefix_len.max(initial=0))

    record = algo is not None
    index = student.index
    played = np.full(n, horizon)  # turns each episode played, prefix included
    success = np.zeros(n, dtype=bool)
    intern = record or window is not None
    # the live episodes with their rows of v, end turns and prefix lengths,
    # their state ids and their key ids
    live, live_v, live_end, live_prefix = np.arange(n), v, end, prefix_len
    state = env.initial_state[task]
    next_state, token, reached = env.next_state, env.token, env.success
    key = index.roots(env.initial_tokens[task], intern)
    walked = []  # per turn: the live episodes, their key ids, actions and state ids

    for t in range(horizon):
        if t < last_prefix and not np.count_nonzero(live_prefix <= t):
            actions = forced[live, t]  # every live episode is in its prefix: no sample
        else:
            actions = sample_cum(student.cum(key, temperature), live_v[:, t])
            if t < last_prefix:
                actions = np.where(live_prefix > t, forced[live, t], actions)
        walked.append((live, key, actions, state))
        state = next_state[state, actions]
        won = reached[state]
        if t < last_prefix and np.count_nonzero(won & (t + 1 < live_prefix)):
            raise UsageError("a stored trajectory reached its goal during its expert prefix")
        ended = won if t + 1 < first_end else won | (live_end == t + 1)
        if np.count_nonzero(ended):
            played[live[ended]] = t + 1
            success[live[won]] = True
            keep = ~ended
            live, live_v, live_end, live_prefix, state, key, actions = (x[keep] for x in (
                live, live_v, live_end, live_prefix, state, key, actions))
            if not live.size:
                break
        key = index.step(key, actions, token[state], intern,
                         None if window is None or t < window else window)

    e, key, actions, state = [np.concatenate(column) for column in zip(*walked)]
    t = np.repeat(np.arange(len(walked)), [len(turn[0]) for turn in walked])
    kl = np.zeros((n, horizon))
    kl[e, t] = forward_kl_rows(*teacher.pairs(t, state), student.log_q(key))
    rollouts = None
    if record:  # key ids fit in int32 (KeyIndex), and so must the version
        entries = np.zeros((n, horizon, 5), np.int32)
        entries[e, t, 0], entries[e, t, 1], entries[e, t, 3] = key, actions, state
        entries[..., 2], entries[..., 4] = np.arange(horizon), student.version
        rollouts = Rollouts(index, algo, task, entries, kl, prefix_len, played - prefix_len,
                            success, _kl_sums(kl, prefix_len))
    return kl, played - prefix_len, success, rollouts


def _kl_sums(kl: np.ndarray, prefix_len: np.ndarray) -> np.ndarray:
    """Each episode's summed student-turn KL, added left to right from 0.0
    (the KL after an episode ends is 0.0, so only the prefix is masked)."""
    if prefix_len.any():
        kl = np.where(np.arange(kl.shape[1]) >= prefix_len[:, None], kl, 0.0)
    return 0.0 + np.cumsum(kl, axis=1)[:, -1]


def max_student_turns(algo: str, k: int, horizon: int) -> int:
    """The most student turns one ``algo`` rollout plays at curriculum horizon k."""
    return min(k, horizon) if algo == ALGO_F2B else horizon


def prefix_lens(algo: str, store, task_ids, k: int) -> np.ndarray:
    """The expert turns each ``algo`` rollout of ``task_ids`` plays first at
    curriculum horizon k: for b2f, the first L - k (at least 0) of the task's
    stored trajectory of length L; none for the other algos."""
    tasks = np.asarray(task_ids).tolist()
    if algo != ALGO_B2F:
        return np.zeros(len(tasks), dtype=np.int64)
    stored = [store.get(task_id) for task_id in tasks]
    if None in stored:
        raise ConfigError("a task is missing from the expert trajectory store")
    return np.array([b2f_prefix_len(len(s), k) for s in stored], dtype=np.int64)


def rollout_batch(algo: str, env: Env, student: PolicyParams, teacher: TeacherPolicy, task_ids,
                  k: int, u: np.ndarray, *, store=None, temperature: float = 1.0,
                  window: int | None = None) -> Rollouts:
    """``algo`` rollouts at curriculum horizon k as one rollout_lockstep batch:
    the student acts for the whole horizon (opd), for min(k, horizon_cap)
    turns (f2b), or after the first L - k stored expert actions (b2f)."""
    if algo not in (ALGO_OPD, ALGO_F2B, ALGO_B2F):
        raise ConfigError(f"no rollout mode for algo {algo!r}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    prefixes = None
    if algo == ALGO_B2F:
        prefixes = [store.get(task_id)[:p] for task_id, p in zip(
            np.asarray(task_ids).tolist(), prefix_lens(algo, store, task_ids, k).tolist())]
    return rollout_lockstep(
        env, student, teacher, task_ids, u, temperature=temperature, window=window,
        max_student_turns=max_student_turns(algo, k, env.config.horizon_cap),
        prefixes=prefixes, algo=algo)[3]


def _rollout(algo, env, student, teacher, task_id, k, rng, *, store=None,
             temperature=1.0, window=None) -> Rollouts:
    """A one-episode rollout_batch, whose uniform row is ``rng.random(horizon_cap)``.

    Kept as a name because bench/tracing.py traces ``distill._rollout``.
    """
    u = rng.random((1, env.config.horizon_cap))
    return rollout_batch(algo, env, student, teacher, [task_id], k, u, store=store,
                         temperature=temperature, window=window)


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------


def _first_occurrence(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The distinct ``ids`` in order of first occurrence, and each entry's
    position among them, None if no id repeats (entry i is then at i); on a
    few dozen ints a set, then a dict if an id repeats, beat np.unique."""
    keys = ids.tolist()
    if len(set(keys)) == len(keys):
        return ids.astype(np.int64), None
    position: dict[int, int] = {}
    slots = [position.setdefault(i, len(position)) for i in keys]
    return np.array(list(position), dtype=np.int64), np.array(slots, dtype=np.intp)


def _sum_rows(rows: np.ndarray, slots: np.ndarray | None, count: int) -> np.ndarray:
    """The (count, A) sums of ``rows`` by ``slots``, added in row order to 0.0
    by np.add.at; ``slots`` None means row i is slot i (distinct keys), whose
    sum 0.0 + row turns a -0.0 into 0.0 as the scatter does."""
    if slots is None:
        return 0.0 + rows
    sums = np.zeros((count, rows.shape[1]))
    np.add.at(sums, slots, rows)
    return sums


def _sum_in_order(values: np.ndarray) -> float:
    """Left-to-right sum from 0.0, as a per-entry ``+=`` loop adds (np.sum is
    pairwise); the leading 0.0 + turns an all-zero -0.0 sum into 0.0, as there."""
    return 0.0 + float(np.cumsum(values)[-1]) if values.size else 0.0


def _kl_block(turns: Turns, params: PolicyParams,
              teacher: TeacherPolicy) -> tuple[float, RowBlock, np.ndarray | None]:
    """Summed KL of the entries' teacher rows p (``teacher.pairs`` at their
    turns and state ids) against the student rows q of ``params`` at their
    keys, the logit gradients q - p summed per distinct key (in order of
    first occurrence) in entry order, and each key's count (None for distinct
    keys). The turns' key ids must be those of the table's KeyIndex."""
    if turns.index is not params.index:
        raise UsageError("the turns have key ids of another KeyIndex than the table's")
    ids, slots = _first_occurrence(turns.key)
    p, log_p = teacher.pairs(turns.turn, turns.state)
    q = softmax_rows(params.rows(turns.key))
    sums = _sum_rows(q - p, slots, len(ids))
    return (_sum_in_order(forward_kl_rows(p, log_p, log_floor(q))),
            RowBlock(turns.index, ids, sums), None if slots is None else np.bincount(slots))


def batch_gradient(batch: Turns, params: PolicyParams,
                   teacher: TeacherPolicy) -> tuple[float, RowBlock]:
    """Mean loss and per-key mean gradient over a replay batch.

    The student distribution is read at the current parameters, so
    repeated steps on a fixed batch descend the current KL objective. The
    gradient for a key is averaged over that key's occurrences in the batch,
    keeping the learning rate independent of batch composition. The batch
    is one row block gathered by key id, and the teacher rows one gather
    from ``teacher``'s table; the result is bitwise the per-entry sum of
    forward_kl and kl_logit_gradient in batch order.
    """
    if not len(batch):
        raise UsageError("empty batch")
    loss, sums, counts = _kl_block(batch, params, teacher)
    return loss / len(batch), (sums if counts is None else
                               RowBlock(sums.index, sums.ids, sums.rows / counts[:, None]))


def apply_gradient(params: PolicyParams, grads, lr: float) -> PolicyParams:
    """Gradient-descent step on the logit table; bumps the version by 1.

    ``grads`` maps keys to gradient rows (a RowBlock, or any mapping). The K
    updated rows are one (K, A) block, old rows - lr * grads, written in
    place by ``write``; returns ``params`` itself (take a snapshot() first
    to keep its rows).
    """
    grads = RowBlock.of(grads, params.index, params.num_actions)
    params.write(grads.ids, params.rows(grads.ids) - lr * grads.rows, params.version + 1)
    return params


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

    An attempt walks state ids through the env's tables, drawing each action
    with ``sample_action`` from the teacher's row, until the goal or
    horizon_cap turns. Tasks with no success within pass_m attempts are
    excluded from the store and reported via ``skipped_tasks``.
    """
    if pass_m < 1:
        raise ConfigError(f"pass_m must be >= 1, got {pass_m}")
    store = TeacherTrajectoryStore(collection_seed=collection_seed)
    for task_id in range(env.config.task_count):
        for _ in range(pass_m):
            state, actions = env.initial_state.item(task_id), []
            while len(actions) < env.config.horizon_cap and not env.success.item(state):
                dist = teacher.p[len(actions), teacher.row_class.item(state)]
                actions.append(sample_action(dist, rng))
                state = env.next_state.item(state, actions[-1])
            if env.success.item(state):
                store.actions_by_task[task_id] = actions
                break
        else:
            store.skipped_tasks.append(task_id)
    return store


def _check_trajectory(env: Env, task_id: int, actions: list[int]) -> None:
    """Raise ConfigError unless ``task_id`` is a task of ``env`` and the
    stored expert ``actions``, each in [0, num_actions), reach its goal at
    the last action and no earlier, within horizon_cap turns."""
    c = env.config
    if not 0 <= task_id < c.task_count:
        raise ConfigError(f"task_id {task_id} out of range [0, {c.task_count})")
    if not all(0 <= a < c.num_actions for a in actions):
        raise ConfigError(f"task {task_id} has an action outside [0, {c.num_actions})")
    state = env.initial_state.item(task_id)
    for action in actions[:-1]:
        state = env.next_state.item(state, action)
    # a goal state maps to itself, so one reached early is still reached here
    if not (0 < len(actions) <= c.horizon_cap and not env.success.item(state)
            and env.success.item(env.next_state.item(state, actions[-1]))):
        raise ConfigError(f"stored trajectory for task {task_id} does not reach the "
                          "goal at its last action in this environment")


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
            seed, skipped = header.get("collection_seed"), header.get("skipped_tasks", [])
            if type(seed) not in (int, type(None)) or type(skipped) is not list or any(
                    type(x) is not int for x in skipped):
                raise ConfigError("collection_seed must be an int or null and "
                                  "skipped_tasks a list of ints")
            store = TeacherTrajectoryStore(collection_seed=seed, skipped_tasks=skipped)
            for number, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                where = f"line {number}: "
                row = json.loads(line)
                task_id, actions = row["task_id"], row["actions"]
                if not all(type(x) is int for x in (task_id, row["length"], *actions)):
                    raise ConfigError("task_id, length and actions must be ints")
                if len(actions) != row["length"]:
                    raise ConfigError(f"length mismatch for task {task_id}")
                if task_id in store.actions_by_task:
                    raise ConfigError(f"task {task_id} has a row on an earlier line")
                _check_trajectory(env, task_id, actions)
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


def store_turns(env: Env, teacher: TeacherPolicy, store: TeacherTrajectoryStore,
                params: PolicyParams, window: int | None = None,
                ) -> tuple[np.ndarray, np.ndarray]:
    """The key ids (in ``params.index``) and expert actions of every stored
    turn, task by task in turn order: one rollout_lockstep call that plays
    each checked trajectory whole as its expert prefix, with no student turn,
    so each key is built as a b2f prefix key is."""
    tasks = store.task_ids()
    prefixes = [store.actions_by_task[task_id] for task_id in tasks]
    for task_id, actions in zip(tasks, prefixes):
        _check_trajectory(env, task_id, actions)
    u = np.zeros((len(tasks), env.config.horizon_cap))
    played = rollout_lockstep(env, params, teacher, tasks, u, window=window,
                              max_student_turns=0, prefixes=prefixes, algo=ALGO_SFT)[3]
    stored = np.arange(u.shape[1]) < played.prefix_len[:, None]
    return played.keys[stored], played.actions[stored]


@dataclass(eq=False)
class SftBlock:
    """SFT state as arrays: the turns' distinct key ids in order of first
    occurrence, each turn's slot among them (None if no key repeats), the
    keys' (U, A) logit rows ``z``, which no step writes, and q, their
    softmax by turn. A table takes the rows by ``write(ids, z, version)``."""

    ids: np.ndarray
    slots: np.ndarray | None
    experts: np.ndarray  # each turn's (turn, expert action) entry of q, as a flat index
    z: np.ndarray
    q: np.ndarray
    version: int


def sft_block(ids: np.ndarray, actions: np.ndarray, params: PolicyParams) -> SftBlock:
    """The turns with key ``ids`` (in ``params.index``) and expert ``actions``,
    as store_turns gives them, as a block that starts from the rows of
    ``params``."""
    ids, slots = _first_occurrence(np.asarray(ids, dtype=np.int64))
    z = params.rows(ids)
    experts = np.arange(len(actions)) * params.num_actions + np.asarray(actions, dtype=np.intp)
    return SftBlock(ids, slots, experts, z, softmax_rows(z if slots is None else z[slots]),
                    params.version)


def sft_update(block: SftBlock, lr: float) -> SftBlock:
    """One epoch of NLL gradient descent on the block's turns, as a new block
    with version + 1: the per-turn gradient is softmax(logits) - onehot(expert
    action), and turns sharing a key accumulate in turn order, as in a
    per-turn loop followed by apply_gradient. A block whose keys do not
    repeat has turn i at key i, and no scatter."""
    if not block.experts.size:
        raise ConfigError("SFT requires a non-empty trajectory store")
    g = block.q.copy()
    g.reshape(-1)[block.experts] -= 1.0
    z = block.z - lr * _sum_rows(g, block.slots, len(block.ids))
    q = softmax_rows(z if block.slots is None else z[block.slots])
    return SftBlock(block.ids, block.slots, block.experts, z, q, block.version + 1)


def nll_loss(block: SftBlock) -> float:
    """-sum log softmax(logits)[expert action] over the block's turns, read
    from the softmax the block holds; 0.0 for none."""
    return _sum_in_order(-np.log(np.maximum(block.q.take(block.experts), 1e-300)))
