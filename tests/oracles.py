"""Plain forms of opdlab functions that the tests require to give the same
bytes: the checkpoint and metrics writers, each row or record made as a
dict and written by a json encoder; the checkpoint reader, which reads,
checks and interns one line at a time; the rollout engine with its teacher
rows, KL and recorded columns computed inside the turn loop and each key
cut from its episode's full history; the training loop that starts each
rollout when it comes due and makes each step's records in the step; and
the episode summary averaged by np.mean. Also the teacher frozen into a
logit table, a student that plays the expert; a teacher made by hand from
rows, for replay entries made by hand; the replay buffer held as columns;
and the walks over ``Env.reset``/``Env.step`` that expert collection and
the SFT turns must give the same results as: one episode played with a
caller's action rule, expert collection with a ``teacher.dist`` draw per
turn, and each stored turn's history key made by ``encode_history``."""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import asdict

import numpy as np

from opdlab import runtime
from opdlab.atomic import atomic_open
from opdlab.curriculum import horizon_at
from opdlab.distill import (
    ALGO_SFT,
    Rollouts,
    TeacherTrajectoryStore,
    apply_gradient,
    batch_gradient,
    max_student_turns,
    rollout_batch,
)
from opdlab.env import TeacherPolicy, make_env
from opdlab.errors import ConfigError, UsageError
from opdlab.metrics import (
    SCHEMA_VERSION,
    SPLIT_ROLLOUT,
    _TYPE_NAMES,
    EvalRecord,
    MetricsLog,
    TrainRecord,
    _json_safe,
)
from opdlab.policy import (
    CHECKPOINT_SCHEMA,
    PolicyParams,
    _check_key,
    _grown,
    _logits,
    encode_history,
    forward_kl_rows,
    log_floor,
    log_rows,
    sample_action,
    sample_rows,
    softmax_rows,
    window_key,
)
from opdlab.replay import RingBuffer


def sorted_keys(index, ids):
    """(key, id) for the distinct ``ids`` (none 0), in the order of their
    keys: a walk of the trie that takes each node's children in (action,
    token) order, merged with the sorted kept tuples."""
    wanted = np.zeros(index.size, dtype=bool)
    wanted[ids] = True
    nodes = np.flatnonzero(index.parent[:index.size] >= 0)[1:]  # the histories
    nodes = nodes[np.lexsort((index.last[nodes], index.act[nodes], index.parent[nodes]))]
    # the children of node i, in order, are nodes[bounds[i]:bounds[i + 1]]
    bounds = np.searchsorted(index.parent[nodes], np.arange(index.size + 1))

    def histories():
        below = [(0, ())]  # (id, key) of the nodes still to visit, the next last
        while below:
            i, key = below.pop()
            if wanted.item(i):
                yield key, i
            for j in nodes[bounds.item(i):bounds.item(i + 1)][::-1].tolist():
                turn = (index.act.item(j), index.last.item(j)) if i else (index.last.item(j),)
                below.append((j, key + turn))
    kept = sorted((key, i) for i, key in index._tuple_of.items() if wanted.item(i))
    return heapq.merge(histories(), kept)


def save_params(params, path) -> None:
    """A checkpoint with each row a dict encoded by json.JSONEncoder(sort_keys=True)."""
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "kind": "policy_params",
        "num_actions": params.num_actions,
        "version": params.version,
        "default_logits": [float(x) for x in params.default_logits],
    }
    encode = json.JSONEncoder(sort_keys=True).encode
    with atomic_open(path) as f:
        f.write(encode(header) + "\n")
        block = params.logits
        ids, rows = block.ids, block.rows
        at = np.zeros(params.index.size, dtype=np.int64)
        at[ids] = np.arange(len(ids))  # the row of each written key id
        for key, i in sorted_keys(params.index, ids):
            f.write(encode({"key": list(key), "logits": rows[at.item(i)].tolist()}) + "\n")


def load_params(path) -> PolicyParams:
    """policy.load_params reading one line at a time: each row parsed by
    json.loads, checked, and its key interned by KeyIndex.intern."""
    where = ""  # the file line being read, once there is one
    try:
        with open(path) as f:
            where = "line 1: "
            header = json.loads(f.readline())
            if (not isinstance(header, dict) or header.get("schema") != CHECKPOINT_SCHEMA
                    or header.get("kind") != "policy_params"):
                raise UsageError("not a policy checkpoint (schema mismatch)")
            num_actions, version = header["num_actions"], header["version"]
            if type(num_actions) is not int or type(version) is not int:
                raise UsageError("num_actions and version must be ints")
            default = _logits(num_actions, "default", header["default_logits"])
            params = PolicyParams(num_actions, None, default, version)
            # the first ``count`` rows of ``ids``/``rows`` hold the keys in order of first
            # appearance, and at[i] is key id i's row (-1 if none), which a repeated key's
            # last row overwrites
            ids, rows, count = np.zeros(1024, np.int64), np.empty((1024, num_actions)), 0
            at = np.full(1024, -1)
            for number, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                where = f"line {number}: "
                row = json.loads(line)
                key = tuple(row["key"])
                _check_key(key)
                logits = _logits(num_actions, key, row["logits"])
                i = params.index.intern(key)
                if i >= len(at):
                    at = _grown(at, 2 * i, -1)
                if at.item(i) < 0:
                    if count == len(ids):
                        ids, rows = _grown(ids, 2 * count, 0), _grown(rows, 2 * count, 0.0)
                    ids[count], at[i], count = i, count, count + 1
                rows[at.item(i)] = logits
            where = ""
            params.write(ids[:count], rows[:count], params.version)
            params._refresh()  # a loaded table is current, as policy.load_params leaves it
    except UsageError as e:
        raise UsageError(f"{path}: {where}{e}") from None
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as e:
        raise UsageError(f"{path}: {where}cannot read a policy checkpoint "
                         f"({type(e).__name__}: {e})") from e
    return params


def write_records(log, path) -> None:
    """A metrics log with each record asdict-ed and written by json.dumps."""
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


def rollout_lockstep(env, student, teacher, task_ids, u, *, temperature=1.0, window=None,
                     max_student_turns=None, prefixes=None, algo=None, teacher_rows=None):
    """distill.rollout_lockstep with each turn's teacher rows (gathered from
    ``teacher.p[t]`` and ``teacher.log_p[t]``), the student's softmax of
    its logits, turn KL (one forward_kl_rows call per turn), each
    episode's KL sum and the recorded columns (state ids among them)
    computed and scattered inside the turn loop, reading the live rows of
    (B, ...) arrays through the live episode indices. Each live episode keeps its full history as a tuple,
    and its key is window_key of that tuple, looked up every turn: interned
    with ``algo`` given, else found (id 0, the default row, if the index
    lacks it). A given (B, horizon_cap, A) array ``teacher_rows`` receives
    the teacher row of each played turn, as gathered in the loop."""
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

    record = algo is not None
    index = student.index
    kl = np.zeros((n, horizon))
    kl_sum = np.zeros(n)  # each episode's student-turn KL, added turn by turn
    played = np.full(n, horizon)  # turns each episode played, prefix included
    success = np.zeros(n, dtype=bool)
    if record:  # each turn's (key id, action, turn, state id, version)
        entries = np.zeros((n, horizon, 5), dtype=np.int64)
        entries[:, :, 2], entries[:, :, 4] = np.arange(horizon), student.version
    # the live episodes, their state ids and their full histories
    live = np.arange(n)
    state = env.initial_state[task]
    next_state, token, reached = env.next_state, env.token, env.success
    row_class = teacher.row_class
    histories = [(o,) for o in env.initial_tokens[task].tolist()]
    lookup = index.intern if record else index.find

    for t in range(horizon):
        # the live rows of (B, ...) arrays; X[:, t][here] indexes faster than X[here, t]
        here = live if live.size < n else slice(None)
        key = np.array([lookup(window_key(h, window)) for h in histories], dtype=np.int64)
        z = student.rows(key)
        # the teacher's rows and their logs (take gathers rows faster than [])
        p_teacher = teacher.p[t].take(row_class[state], axis=0)
        log_p = teacher.log_p[t].take(row_class[state], axis=0)
        turn_kl = forward_kl_rows(p_teacher, log_p, log_floor(softmax_rows(z)))
        actions = sample_rows(softmax_rows(z, temperature), v[:, t][here])
        in_prefix = None
        if t < last_prefix:
            in_prefix = prefix_len[here] > t
            actions = np.where(in_prefix, forced[:, t][here], actions)
        kl[:, t][here] = turn_kl
        kl_sum[here] += turn_kl if in_prefix is None else np.where(in_prefix, 0.0, turn_kl)
        if teacher_rows is not None:
            teacher_rows[:, t][here] = p_teacher
        if record:
            entries[:, t, 0][here], entries[:, t, 1][here], entries[:, t, 3][here] = (
                key, actions, state)
        state = next_state[state, actions]
        tokens, won = token[state], reached[state]
        if in_prefix is not None and np.count_nonzero(won & (t + 1 < prefix_len[here])):
            raise UsageError("a stored trajectory reached its goal during its expert prefix")
        histories = [h + (a, o) for h, a, o in zip(histories, actions.tolist(), tokens.tolist())]
        ended = won if t + 1 < first_end else won | (end[here] == t + 1)
        if np.count_nonzero(ended):
            played[live[ended]] = t + 1
            success[live[won]] = True
            keep = ~ended
            live, state = live[keep], state[keep]
            histories = [h for h, kept in zip(histories, keep.tolist()) if kept]
            if not live.size:
                break
    rollouts = None if not record else Rollouts(
        index, algo, task, entries.astype(np.int32), kl, prefix_len, played - prefix_len,
        success, kl_sum)
    return kl, played - prefix_len, success, rollouts


class RowTeacher:
    """A teacher made by hand: at every turn, state id s has the row
    ``rows[s]``, so replay entries made with state ids 0..n-1 read the n rows
    they were made with; ``pairs`` gives rows[s] and log_rows(rows[s]), as
    TeacherPolicy.pairs does for its rows."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)

    def pairs(self, turns, states):
        rows = self.rows[states]
        return rows, log_rows(rows)


class ColumnRing:
    """replay.RingBuffer with its entries held as five int64 columns (key
    id, action, turn, state id, version): a push concatenates each column
    and keeps its last ``capacity`` entries, and a sample discards the stale
    entries of each column and draws its batch, a list of the columns at
    the drawn rows, as the ring does."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.columns = [np.zeros(0, dtype=np.int64) for _ in range(5)]
        self.discarded_stale_total = 0

    def __len__(self) -> int:
        return len(self.columns[0])

    def push(self, turns) -> None:
        pushed = (turns.key, turns.action, turns.turn, turns.state, turns.version)
        self.columns = [np.concatenate((held, column.astype(np.int64)))[-self.capacity:]
                        for held, column in zip(self.columns, pushed)]

    def sample_batch(self, current_version, delta_max, batch_size, rng):
        if not len(self):
            return []
        fresh = np.flatnonzero(current_version - self.columns[4] <= delta_max)
        self.discarded_stale_total += len(self) - len(fresh)
        self.columns = [column[fresh] for column in self.columns]
        if not len(fresh):
            return []
        idx = rng.choice(len(fresh), size=min(batch_size, len(fresh)), replace=False)
        return [column[idx] for column in self.columns]


def take(started: deque[Rollouts], width: int) -> list[Rollouts]:
    """The oldest ``width`` started rollouts, taken off ``started``: whole
    batches as they are, and the front part of a batch that is left over."""
    out = []
    while width:
        batch = started.popleft()
        if len(batch) > width:
            started.appendleft(batch.take(slice(width, None)))
            batch = batch.take(slice(width))
        out.append(batch)
        width -= len(batch)
    return out


def run_distill(config, store=None) -> runtime.TrainingResult:
    """runtime.run_training of an opd, f2b or b2f ``config`` with every
    rollout started when it comes due, as one rollout_batch call per wave on
    the table and horizon current then, and each step's records made and
    appended in that step."""
    assert config.algo != ALGO_SFT
    env = make_env(config.env)
    teacher = TeacherPolicy(env, config.teacher)
    rollout_rng, sample_rng, eval_rng = runtime._seed_streams(config)
    params = PolicyParams(num_actions=config.env.num_actions)
    board = runtime.SnapshotBoard(params)
    buffer = RingBuffer(config.buffer_capacity)
    schedule = config.schedule()
    log = MetricsLog()
    depth = config.actor_count if config.mode == runtime.MODE_ASYNC else 1
    started: deque[Rollouts] = deque()  # started rollouts not yet delivered, oldest first
    rollouts = 0  # started so far
    max_staleness = 0

    for n in range(config.total_steps):
        k = horizon_at(schedule, n)
        max_turns = max_student_turns(config.algo, k, config.env.horizon_cap)
        step_batches: list[Rollouts] = []
        fresh = 0
        while fresh < config.batch_size:
            width = runtime._wave_width(config.batch_size - fresh, max_turns)
            ahead = depth - 1 if n + 1 < config.total_steps else 0
            count = width + ahead - sum(map(len, started))
            if count > 0:
                tasks = (rollouts + np.arange(count)) % config.env.task_count
                rollouts += count
                started.append(rollout_batch(
                    config.algo, env, params, teacher, tasks, k,
                    rollout_rng.random((count, config.env.horizon_cap)), store=store,
                    temperature=config.train_temperature, window=config.window))
            for batch in take(started, width):
                buffer.push(batch.student_turns())
                fresh += int(batch.rounds[params.version - batch.versions
                                          <= config.delta_max].sum())
                step_batches.append(batch)

        record, staleness = learner_step(n, k, params, teacher, buffer, board, config,
                                         sample_rng)
        max_staleness = max(max_staleness, staleness)
        log.append(record)
        log.append(rollout_record(n, k, step_batches))
        if (n + 1) % config.eval_every == 0 or n == config.total_steps - 1:
            log.append(runtime.evaluate(params, env, teacher, config.eval_episodes,
                                        eval_rng, temperature=config.eval_temperature,
                                        window=config.window, step=n, active_k=k))

    return runtime.TrainingResult(log=log, final_params=params,
                                  max_staleness_seen=max_staleness)


def learner_step(n, k, params, teacher, buffer, board, config, sample_rng):
    """One learner step of the run loop, and its TrainRecord made at once;
    returns the record and the batch's largest staleness."""
    batch = buffer.sample_batch(params.version, config.delta_max, config.batch_size,
                                sample_rng)
    staleness = params.version - batch.version
    loss, grads = batch_gradient(batch, params, teacher)
    board.publish(apply_gradient(params, grads, config.lr))
    record = TrainRecord(step=n, loss=loss, grad_norm=runtime._grad_norm(grads.rows),
                         buffer_size=len(buffer), discarded_stale=buffer.discarded_stale_total,
                         active_k=k, mean_staleness=float(np.mean(staleness)))
    return record, int(staleness.max())


def rollout_record(step, k, batches) -> EvalRecord:
    """The rollout record of a step's delivered batches, made from their
    columns joined: runtime._episode_summary of its episodes."""
    success, rounds, kl_sums, prefix_len = (
        np.concatenate([getattr(b, name) for b in batches])
        for name in ("success", "rounds", "kl_sum", "prefix_len"))
    return EvalRecord(step=step, **runtime._episode_summary(success, rounds, kl_sums),
                      per_turn_kl=[], active_k=k, split=SPLIT_ROLLOUT,
                      n_rollouts=len(success), mean_prefix_len=float(np.mean(prefix_len)))


def episode_summary(success, rounds, kl_sums) -> dict:
    """runtime._episode_summary with every mean taken by np.mean."""
    rounds = np.asarray(rounds)
    kl_sums = np.asarray(kl_sums, dtype=np.float64)
    played = rounds > 0
    return dict(
        success_rate=float(np.mean(success)),
        avg_rounds=float(np.mean(rounds)),
        traj_kl_mean=float(np.mean(kl_sums)),
        traj_kl_turn_mean=(float(np.mean(kl_sums[played] / rounds[played]))
                           if played.any() else 0.0),
    )


def play(env, task_id: int, choose):
    """Play one episode of ``task_id`` from ``env.reset``.

    Each action is ``choose(state)`` on the latest state, until the episode
    is done or ``choose`` returns None. Returns the states visited, the
    reset state first, and the actions taken, one fewer.
    """
    state = env.reset(task_id)
    states, actions = [state], []
    while not state.done:
        action = choose(state)
        if action is None:
            break
        state = env.step(state, action)
        states.append(state)
        actions.append(action)
    return states, actions


def collect_teacher_trajectories(env, teacher, pass_m, rng, collection_seed=None):
    """distill.collect_teacher_trajectories as ``play`` episodes whose actions
    are ``sample_action(teacher.dist(state), rng)``."""
    store = TeacherTrajectoryStore(collection_seed=collection_seed)
    for task_id in range(env.config.task_count):
        for _ in range(pass_m):
            states, actions = play(env, task_id, lambda s: sample_action(teacher.dist(s), rng))
            if states[-1].success:
                store.actions_by_task[task_id] = actions
                break
        else:
            store.skipped_tasks.append(task_id)
    return store


def store_turns(env, store, window=None):
    """(history key, expert action) of every stored turn, task by task in
    turn order: each trajectory replayed by ``play`` and each key made by
    ``encode_history`` of its tokens and actions."""
    pairs = []
    for task_id in store.task_ids():
        remaining = iter(store.get(task_id))
        states, actions = play(env, task_id, lambda state: next(remaining, None))
        tokens = [s.token for s in states]
        pairs.extend((encode_history(tokens[:t + 1], actions[:t], window), a)
                     for t, a in enumerate(actions))
    return pairs


def materialize(teacher, window: int | None = None) -> PolicyParams:
    """Freeze the teacher into a checkpointable logit table.

    Walks every task's expert path and records the on-support logits at
    each visited history key; unseen keys fall back to the uniform default.
    The result reproduces the teacher exactly on expert paths.
    """
    rows = {}
    for task_id in range(teacher.env.config.task_count):
        states, actions = play(teacher.env, task_id, teacher.env.expert_action)
        tokens = [s.token for s in states]
        for t, expert in enumerate(actions):
            logits = np.zeros(teacher.num_actions)
            logits[expert] = teacher._gap(t)
            rows[encode_history(tokens[:t + 1], actions[:t], window)] = logits
    return PolicyParams(teacher.num_actions, rows)
