"""The plain forms of the checkpoint and metrics writers: each row or record
made as a dict and written by a json encoder. The writers in opdlab must give
the same bytes; the tests compare the two."""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict

import numpy as np

from opdlab.atomic import atomic_open
from opdlab.metrics import SCHEMA_VERSION, _TYPE_NAMES, _json_safe
from opdlab.policy import CHECKPOINT_SCHEMA


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
