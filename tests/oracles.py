"""Plain forms of opdlab functions that the tests require to give the same
bytes: the checkpoint and metrics writers, each row or record made as a dict
and written by a json encoder; the rollout engine with its teacher rows, KL
and recorded columns computed inside the turn loop; and the episode summary
averaged by np.mean. Also the teacher frozen into a logit table, a student
that plays the expert."""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict

import numpy as np

from opdlab.atomic import atomic_open
from opdlab.distill import Rollouts
from opdlab.errors import ConfigError, UsageError
from opdlab.metrics import SCHEMA_VERSION, _TYPE_NAMES, _json_safe
from opdlab.policy import (
    CHECKPOINT_SCHEMA,
    PolicyParams,
    encode_history,
    forward_kl_rows,
    sample_cum,
    sample_rows,
    softmax_rows,
    window_key,
)


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
        ids, rows = params.written_rows()
        at = np.zeros(params.index.size, dtype=np.int64)
        at[ids] = np.arange(len(ids))  # the row of each written key id
        for key, i in sorted_keys(params.index, ids):
            f.write(encode({"key": list(key), "logits": rows[at.item(i)].tolist()}) + "\n")


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
                     max_student_turns=None, prefixes=None, algo=None):
    """distill.rollout_lockstep with each turn's teacher rows (gathered from
    ``teacher.table[t]``), turn KL (one forward_kl_rows call per turn) and
    recorded columns computed and scattered inside the turn loop, reading the
    live rows of (B, ...) arrays through the live episode indices."""
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
    a = env.config.num_actions
    kl = np.zeros((n, horizon))
    played = np.full(n, horizon)  # turns each episode played, prefix included
    success = np.zeros(n, dtype=bool)
    if record:
        key_col = np.zeros((n, horizon), dtype=np.int64)
        action_col = np.zeros((n, horizon), dtype=np.int64)
        teacher_col = np.zeros((n, horizon, a))
    # the live episodes, their state ids and their full histories' key ids
    live = np.arange(n)
    state = env.initial_state[task]
    next_state, token, reached = env.next_state, env.token, env.success
    row_class = teacher.row_class
    roots = env.initial_tokens[task].tolist()
    node = np.array([index.root(o, record) for o in roots], dtype=np.int64)
    # full histories outside the index, by episode, when a window must cut them
    cut = window is not None and not record
    outside = {e: (o,) for e, (o, i) in enumerate(zip(roots, node.tolist())) if cut and not i}

    for t in range(horizon):
        # the live rows of (B, ...) arrays; X[:, t][here] indexes faster than X[here, t]
        here = live if live.size < n else slice(None)
        key = node if window is None else index.windowed(node, window, record)
        for i in np.flatnonzero(node == 0).tolist() if cut else ():
            key[i] = index.find(window_key(outside[int(live[i])], window))
        slots = index.slot[key]  # re-read: interning may have grown the index
        rows = student.read(slots)
        # the teacher's rows and their logs (take gathers rows faster than [])
        pair = teacher.table[t].take(row_class[state], axis=0)
        p_teacher = pair[:, :a]
        turn_kl = forward_kl_rows(p_teacher, None, pair[:, a:], rows[:, 2 * a:])
        if temperature == 1.0:
            actions = sample_cum(rows[:, a:2 * a], v[:, t][here])
        else:
            actions = sample_rows(softmax_rows(rows[:, :a], temperature), v[:, t][here])
        in_prefix = None
        if t < last_prefix:
            in_prefix = prefix_len[here] > t
            actions = np.where(in_prefix, forced[:, t][here], actions)
        kl[:, t][here] = turn_kl
        if record:
            key_col[:, t][here], action_col[:, t][here], teacher_col[:, t][here] = (
                key, actions, p_teacher)
        state = next_state[state, actions]
        tokens, won = token[state], reached[state]
        if in_prefix is not None and np.count_nonzero(won & (t + 1 < prefix_len[here])):
            raise UsageError("a stored trajectory reached its goal during its expert prefix")
        child = index.step(node, actions, tokens, record)
        for i in np.flatnonzero(child == 0).tolist() if cut else ():
            e, step = int(live[i]), (int(actions[i]), int(tokens[i]))
            outside[e] = (outside[e] if node[i] == 0 else index.key(node.item(i))) + step
        node = child
        ended = won if t + 1 < first_end else won | (end[here] == t + 1)
        if np.count_nonzero(ended):
            played[live[ended]] = t + 1
            success[live[won]] = True
            keep = ~ended
            live, state, node = live[keep], state[keep], node[keep]
            if not live.size:
                break
    rollouts = None if not record else Rollouts(
        index, algo, task, np.full(n, student.version, dtype=np.int64), key_col,
        action_col, teacher_col, kl, prefix_len, played - prefix_len, success)
    return kl, played - prefix_len, success, rollouts


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


def materialize(teacher, window: int | None = None) -> PolicyParams:
    """Freeze the teacher into a checkpointable logit table.

    Walks every task's expert path and records the on-support logits at
    each visited history key; unseen keys fall back to the uniform default.
    The result reproduces the teacher exactly on expert paths.
    """
    rows = {}
    for task_id in range(teacher.env.config.task_count):
        states, actions = teacher.env.play(task_id, teacher.env.expert_action)
        tokens = [s.token for s in states]
        for t, expert in enumerate(actions):
            logits = np.zeros(teacher.num_actions)
            logits[expert] = teacher._gap(t)
            rows[encode_history(tokens[:t + 1], actions[:t], window)] = logits
    return PolicyParams(teacher.num_actions, rows)
