"""Tabular softmax policies over discrete action sets.

A policy is a table mapping an encoded interaction history to a logit
vector; the action distribution is the softmax of those logits at a given
temperature. KL divergence and its logit gradient are computed exactly
over the action set (no sampling), which keeps the distillation losses
variance-free.

Keys are int ids. A ``KeyIndex``, shared by the tables of one lineage,
holds full histories as a trie (each id knows its parent, last action and
last token), so the rollout engine advances a batch of histories with one
array gather, and keeps any other key as a tuple. A ``PolicyParams`` owns
its rows by slot; each row holds the logits and, computed once when the row
is written, the cumulative sums of their softmax and its floored log, which
is what a rollout turn reads. A learner step writes its K rows in place and
hands the rows to the new table, so the stepped table can no longer be
read; ``snapshot`` is the copy that stays. ``logits`` is the table's dict
face: a read-only mapping from key tuple to row.
"""

from __future__ import annotations

import heapq
import json
import math
import struct
from collections.abc import Mapping

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


def log_floor(q: np.ndarray) -> np.ndarray:
    """log q with q floored at ``Q_FLOOR``: the student side of the KL log."""
    return np.log(np.maximum(q, Q_FLOOR))


def forward_kl_rows(p: np.ndarray, q: np.ndarray, log_p: np.ndarray | None = None,
                    log_q: np.ndarray | None = None) -> np.ndarray:
    """Exact KL(p[i] || q[i]) over the action set for each row i, teacher first.

    ``log_p`` is log_rows(p) and ``log_q`` log_floor(q), each computed if not
    given. Terms with p_i = 0 are 0 * (0 - log q_i) = +0.0 (q_i <= 1) and
    stay in the sum, which runs over all A entries in order; q is floored at
    ``Q_FLOOR`` inside the log. Each result is clamped at 0 to absorb float
    round-off.
    """
    log_p = log_rows(p) if log_p is None else log_p
    log_q = log_floor(q) if log_q is None else log_q
    return np.maximum(np.add.reduce(p * (log_p - log_q), axis=1), 0.0)


def sample_cum(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sample_rows of the rows whose cumulative sums (np.cumsum(dist, axis=1))
    are ``cum``: the number of sums at most u among all but the last, since
    sums never decrease and the index is capped at A - 1."""
    return np.add.reduce(cum[:, :-1] <= u[:, None], axis=1)


def sample_rows(dist: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample from each row, with the uniform draw u[i] for row i,
    traversing action indices ascending, so draws are reproducible per u."""
    return sample_cum(np.cumsum(dist, axis=1), u)


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


def _check_key(key) -> None:
    """Raise UsageError unless ``key`` is a tuple of ints (a bool is not one)."""
    if type(key) is not tuple:
        raise UsageError(f"row key {key!r} is not a tuple")
    if not all(type(x) is int for x in key):
        raise UsageError(f"row key {list(key)} has an entry that is not an int")


# The slot of a key that no table of its lineage has written: a table's last row.
NO_SLOT = -1


def _grown(array: np.ndarray, size: int, fill) -> np.ndarray:
    """``array`` extended along axis 0 to ``size`` entries, the new ones ``fill``."""
    out = np.empty((size,) + array.shape[1:], dtype=array.dtype)
    out[:len(array)] = array
    out[len(array):] = fill
    return out


class KeyIndex:
    """Append-only int ids for history keys, shared by a PolicyParams lineage.

    Id 0 stands for "no key". A full history (o_0, a_0, ..., o_t) with
    actions in [0, A) and tokens in [0, 2**31) is a node of a trie: its id
    holds its parent's id (that of (o_0, ..., o_{t-1}), 0 for (o_0,)), its
    last action ``act`` and its last token ``last``, and no tuple. So
    interning a history interns its prefixes, and a history outside the
    index has no descendant in it. ``child[i, a]`` is the first child of
    node i by action a to be interned; the engine trusts it only if its
    last token is the token the env emits now, and a child by the same
    action with another token (another env config) is found through a dict,
    so one index serves any env config. Any other key (windowed keys, other
    values) is kept as its tuple. A key gets the next table slot,
    ``slot[i]`` (NO_SLOT before), the first time a table of the lineage
    writes its row; ``slot_keys[s]`` is the key id of slot s. The arrays
    grow by half their size at a time; they are per lineage, not per table.
    """

    def __init__(self, num_actions: int):
        self.num_actions = num_actions
        self.size, self.slot_count = 1, 0  # ids and slots in use
        self.parent = np.zeros(64, dtype=np.int32)
        self.act = np.full(64, -1, dtype=np.int32)
        self.last = np.full(64, -1, dtype=np.int32)
        self.child = np.zeros((64, num_actions), dtype=np.int32)
        self.slot = np.full(64, NO_SLOT, dtype=np.int32)
        self.slot_keys = np.zeros(64, dtype=np.int32)
        self._roots: dict[int, int] = {}
        self._siblings: dict[tuple[int, int, int], int] = {}
        self._tuples: dict[HistoryKey, int] = {}
        self._tuple_of: dict[int, HistoryKey] = {}
        self._windowed: dict[int, np.ndarray] = {}  # window -> id of each id's window_key

    def _new(self, parent: int, action: int, token: int) -> int:
        i = self.size
        if i == len(self.last):
            size = i + i // 2
            self.parent, self.act = _grown(self.parent, size, 0), _grown(self.act, size, -1)
            self.last, self.child = _grown(self.last, size, -1), _grown(self.child, size, 0)
            self.slot = _grown(self.slot, size, NO_SLOT)
            for window, memo in self._windowed.items():
                self._windowed[window] = _grown(memo, size, -1)
        self.parent[i], self.act[i], self.last[i] = parent, action, token
        self.size += 1
        return i

    def _child(self, node: int, action: int, token: int, intern: bool) -> int:
        """The id of keys[node] + (action, token) (of (token,) for node 0), or 0."""
        if not node:
            i = self._roots.get(token)
            if i is None and intern:
                i = self._roots[token] = self._new(0, -1, token)
            return i or 0
        first = self.child.item(node, action)
        if first and self.last.item(first) == token:
            return first
        i = self._siblings.get((node, action, token)) if first else None
        if i is None and intern:
            i = self._new(node, action, token)
            if first:
                self._siblings[(node, action, token)] = i
            else:
                self.child[node, action] = i
        return i or 0

    def _is_history(self, key: HistoryKey) -> bool:
        """Whether ``key`` is a full history the trie holds."""
        tokens, actions = key[::2], key[1::2]
        return bool(len(key) % 2) and 0 <= min(tokens) and max(tokens) < 2 ** 31 and (
            not actions or 0 <= min(actions) and max(actions) < self.num_actions)

    def _lookup(self, key: HistoryKey, intern: bool) -> int:
        if not self._is_history(key):
            i = self._tuples.get(key)
            if i is None and intern:
                i = self._tuples[key] = self._new(-1, -1, -1)
                self._tuple_of[i] = key
            return i or 0
        i = self._child(0, -1, key[0], intern)
        for t in range(1, len(key), 2):
            if not i:
                break
            i = self._child(i, key[t], key[t + 1], intern)
        return i

    def intern(self, key: HistoryKey) -> int:
        return self._lookup(key, True)

    def root(self, token: int, intern: bool) -> int:
        """The id of the history (token,), as _child gives it."""
        return self._child(0, -1, token, intern)

    def find(self, key: HistoryKey) -> int:
        """The id of ``key``, 0 if it has none."""
        return self._lookup(key, False)

    def key(self, i: int) -> HistoryKey:
        """The key of id ``i`` (not 0), a history read back up the trie."""
        kept = self._tuple_of.get(i)
        if kept is not None:
            return kept
        entries = []  # (last token, last action) pairs, leaf first; a root's action is -1
        while i > 0:
            entries += (self.last.item(i), self.act.item(i))
            i = self.parent.item(i)
        return tuple(entries[-2::-1])

    def keys(self, ids) -> list[HistoryKey]:
        """The keys of ``ids`` (none 0)."""
        return [self.key(i) for i in np.asarray(ids).tolist()]

    def step(self, node: np.ndarray, actions: np.ndarray, tokens: np.ndarray,
             intern: bool) -> np.ndarray:
        """The ids of the histories keys[node] + (actions, tokens), through
        ``child``; a history outside the index is interned, or with ``intern``
        False gets id 0, as does every child of id 0."""
        child = self.child[node, actions]
        miss = self.last[child] != tokens
        if not intern:
            miss &= node > 0
        if np.count_nonzero(miss):
            for i, (m, n, a, o) in enumerate(zip(miss.tolist(), node.tolist(),
                                                 actions.tolist(), tokens.tolist())):
                if m:
                    child[i] = self._child(n, a, o, intern)
        return child

    def windowed(self, node: np.ndarray, window: int, intern: bool) -> np.ndarray:
        """The ids of window_key(keys[node], window), memoized per id; a key
        outside the index is interned, or with ``intern`` False gets id 0."""
        memo = self._windowed.get(window)
        if memo is None:
            memo = self._windowed[window] = np.full(len(self.last), -1, dtype=np.int32)
            memo[0] = 0
        key = memo[node]
        for i in np.flatnonzero(key < 0).tolist():
            n = node.item(i)
            key[i] = self._lookup(window_key(self.key(n), window), intern)
            if key[i]:
                self._windowed[window][n] = key[i]
        return key

    def slots_of(self, ids: np.ndarray) -> np.ndarray:
        """The slots of the distinct key ``ids``; those without one get the
        next free slots, in order."""
        slots = self.slot[ids]
        new = slots == NO_SLOT
        if new.any():
            start, count = self.slot_count, int(np.count_nonzero(new))
            slots[new] = np.arange(start, start + count)
            self.slot[ids[new]] = slots[new]
            if start + count > len(self.slot_keys):
                self.slot_keys = _grown(self.slot_keys, 2 * (start + count), 0)
            self.slot_keys[start:start + count] = ids[new]
            self.slot_count += count
        return slots


def _with_derived(z: np.ndarray) -> np.ndarray:
    """Logit rows ``z`` with what the rollout engine reads of them: [z | the
    cumulative sums of softmax_rows(z), which sample_cum takes | their log_floor]."""
    q = softmax_rows(z)
    return np.concatenate([z, np.cumsum(q, axis=1), log_floor(q)], axis=1)


class PolicyParams:
    """Logit table for one policy, over the key ids of a shared KeyIndex.

    The table owns its rows: an (R, 3A) array by slot, each row the logits
    ``z`` and what the rollout engine reads of them (see _with_derived), so
    a row's softmax is computed once, when it is written. The last row is
    the default row, as is every slot the table has not written; ids without
    a slot, or with a slot past R, read it. ``with_rows`` (which
    apply_gradient uses) makes the next table of the lineage by writing its
    K rows in place and handing the arrays on, so a learner step costs its K
    rows and the stepped table raises UsageError when read. ``snapshot`` is
    an independent copy. ``logits`` is the table as a read-only mapping from
    key to row.
    """

    def __init__(self, num_actions: int, logits=None, default_logits=None, version: int = 0):
        default = np.zeros(num_actions) if default_logits is None else default_logits
        self.num_actions = num_actions
        self.default_logits = np.asarray(default, dtype=np.float64)
        _check_width(num_actions, "default", self.default_logits)
        self.version = version
        self.index = KeyIndex(num_actions)
        row = _with_derived(self.default_logits[None])
        self._own(np.repeat(row, 8, axis=0), np.zeros(8, dtype=bool))
        if logits:
            rows = [np.asarray(row, dtype=np.float64) for row in logits.values()]
            for key, row in zip(logits, rows):
                _check_key(key)
                _check_width(num_actions, key, row)
            self._write_ids(np.array([self.index.intern(key) for key in logits], dtype=np.int64),
                            np.reshape(rows, (-1, num_actions)))

    def _own(self, table: np.ndarray | None, written: np.ndarray | None) -> None:
        """Take ``table`` and ``written`` as this table's rows, read-only
        between writes; None marks the table stepped."""
        self._table, self._written = table, written
        if table is not None:
            table.flags.writeable = written.flags.writeable = False

    def _next(self, version: int, table: np.ndarray, written: np.ndarray) -> "PolicyParams":
        """A table of this lineage at ``version`` that owns ``table`` and ``written``."""
        params = object.__new__(PolicyParams)
        params.num_actions, params.default_logits = self.num_actions, self.default_logits
        params.version, params.index = version, self.index
        params._own(table, written)
        return params

    @property
    def logits(self) -> "TableRows":
        return TableRows(self)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._table is None:
            raise UsageError(f"table version {self.version} was stepped, which wrote over "
                             f"its rows; read a snapshot() taken before the step")
        return self._table, self._written

    @property
    def table(self) -> np.ndarray:
        """The (R, 3A) read-only rows by slot; a slot at or past R reads row R - 1."""
        return self._arrays()[0]

    @property
    def written(self) -> np.ndarray:
        return self._arrays()[1]

    def read(self, slots: np.ndarray) -> np.ndarray:
        """The (len(slots), 3A) rows at ``slots``; NO_SLOT, or a slot past the
        table, reads the default row."""
        table = self.table
        if self.index.slot_count >= len(table):
            slots = np.minimum(slots, len(table) - 1)
        return table.take(slots, axis=0)  # take gathers rows faster than []

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """The (len(ids), A) logit rows at key ``ids``."""
        return self.read(self.index.slot[ids])[:, :self.num_actions]

    def with_rows(self, ids: np.ndarray, rows: np.ndarray, version: int) -> "PolicyParams":
        """The next table of this lineage, at ``version``: this one with the
        (K, A) ``rows`` written in place at the distinct key ``ids``. It takes
        this table's arrays, so reading this table afterwards raises."""
        table = self._next(version, *self._arrays())
        self._own(None, None)
        if len(ids):
            table._write_ids(ids, rows)
        return table

    @property
    def z(self) -> np.ndarray:
        """The logit rows of ``table``."""
        return self.table[:, :self.num_actions]

    def _write_ids(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Write the (K, A) logit rows ``rows`` at the distinct key ``ids`` in
        place, as their _with_derived rows."""
        table, marks = self._arrays()
        slots = self.index.slots_of(ids)
        if len(slots) and int(slots.max()) + 1 >= len(table):  # keep the default row last
            size = max(len(table) + len(table) // 2, int(slots.max()) + 2)
            table, marks = _grown(table, size, table[-1]), _grown(marks, size, False)
        table.flags.writeable = marks.flags.writeable = True
        for start in range(0, len(slots), 1024):  # in blocks, to bound the temporaries
            table[slots[start:start + 1024]] = _with_derived(rows[start:start + 1024])
        marks[slots] = True
        self._own(table, marks)

    def written_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The key ids of the written rows, in slot order, and the (K, A) rows."""
        slots = np.flatnonzero(self.written)
        return self.index.slot_keys[slots].astype(np.int64), self.z[slots]

    def snapshot(self) -> "PolicyParams":
        """An independent copy on the same index: later steps of this table's
        lineage leave its rows as they are."""
        return self._next(self.version, *(array.copy() for array in self._arrays()))


class TableRows(Mapping):
    """``PolicyParams.logits``: a table's written rows as a read-only mapping
    from key to row (a copy). It iterates in slot order, which is the order the
    lineage first wrote the keys; two mappings are equal when they hold the
    same keys with equal rows."""

    def __init__(self, params: PolicyParams):
        self._params = params

    def _slot(self, key) -> int:
        params = self._params
        slot = params.index.slot.item(params.index.find(key))
        written = params.written
        if not 0 <= slot < len(written) or not written[slot]:
            raise KeyError(key)
        return slot

    def __getitem__(self, key) -> np.ndarray:
        return self._params.z[self._slot(key)].copy()

    def __iter__(self):
        params = self._params
        return iter(params.index.keys(params.written_rows()[0]))

    def values(self) -> np.ndarray:
        """The rows, in slot order, as one (K, A) array (whose iteration gives
        them one at a time)."""
        return self._params.written_rows()[1]

    def __len__(self) -> int:
        return int(np.count_nonzero(self._params.written))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return len(self) == len(other) and all(
            key in other and np.array_equal(row, other[key]) for key, row in self.items())


class RowBlock(Mapping):
    """K rows at the distinct key ids ``ids`` of ``index``, as an (K, A)
    array: a mapping from key to row, in the order of ``ids``."""

    def __init__(self, index: KeyIndex, ids: np.ndarray, rows: np.ndarray):
        self.index, self.ids, self.rows = index, ids, rows

    @classmethod
    def of(cls, rows: Mapping, index: KeyIndex, num_actions: int) -> "RowBlock":
        """``rows``, a mapping from key to row, with its keys interned in ``index``."""
        if isinstance(rows, RowBlock) and rows.index is index:
            return rows
        for key in rows:
            _check_key(key)
        ids = np.array([index.intern(key) for key in rows], dtype=np.int64)
        return cls(index, ids, np.reshape([rows[key] for key in rows], (-1, num_actions)))

    def __getitem__(self, key) -> np.ndarray:
        where = np.flatnonzero(self.ids == (self.index.find(key) or -1))
        if not where.size:
            raise KeyError(key)
        return self.rows[where[0]]

    def __iter__(self):
        return iter(self.index.keys(self.ids))

    def __len__(self) -> int:
        return len(self.ids)


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------
#
# A checkpoint is line-delimited JSON: one header object, then one object per
# table row, sorted by key, with floats at full (repr round-trip) precision.
# Sorting keeps the file byte-stable across runs with identical parameters.
# The rows are written as json.JSONEncoder(sort_keys=True) would write them.


class _FloatTexts(dict):
    """json's text of a float by its int64 bits (so -0.0 is not 0.0), as a
    trained table holds few distinct floats; those of the first 1024 looked
    up are kept, which bounds the memo to about 0.15 MB."""

    def __missing__(self, bits: int) -> str:
        x = struct.unpack("<d", struct.pack("<q", bits))[0]
        text = repr(x) if math.isfinite(x) else json.dumps(x)
        if len(self) < 1024:
            self[bits] = text
        return text


def _histories(index: KeyIndex, wanted: np.ndarray):
    """(key, id, text) of the wanted histories in key order, with ``text`` the
    body of the key's json list made from its parent's: a walk of the trie
    that takes each node's children in (action, token) order."""
    parent = index.parent[:index.size]
    nodes = np.flatnonzero(parent >= 0)[1:]  # the histories
    nodes = nodes[np.lexsort((index.last[nodes], index.act[nodes], parent[nodes]))]
    # the children of node i, in order, are nodes[bounds[i]:bounds[i + 1]]
    bounds = np.searchsorted(parent[nodes], np.arange(index.size + 1))
    below = [(0, (), "")]  # (id, key, text) of the nodes still to visit, the next last
    while below:
        i, key, text = below.pop()
        if wanted.item(i):
            yield key, i, text
        for j in nodes[bounds.item(i):bounds.item(i + 1)][::-1].tolist():
            a, t = index.act.item(j), index.last.item(j)
            below.append((j, key + (a, t), f"{text}, {a}, {t}") if i else (j, (t,), str(t)))


def save_params(params: PolicyParams, path) -> None:
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "kind": "policy_params",
        "num_actions": params.num_actions,
        "version": params.version,
        "default_logits": [float(x) for x in params.default_logits],
    }
    index, width = params.index, params.num_actions
    bits = params.table.view(np.int64)  # the rows by slot, each float as its bits
    wanted = np.zeros(index.size, dtype=bool)
    wanted[index.slot_keys[np.flatnonzero(params.written)]] = True
    kept = sorted((key, i) for i, key in index._tuple_of.items() if wanted.item(i))
    kept = ((key, i, ", ".join(map(str, key)) if all(type(x) is int for x in key)
             else json.dumps(list(key))[1:-1]) for key, i in kept)  # texts made as written
    floats = _FloatTexts()
    with atomic_open(path) as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for key, i, text in heapq.merge(_histories(index, wanted), kept):
            logits = ", ".join(map(floats.__getitem__, bits[index.slot.item(i), :width].tolist()))
            f.write(f'{{"key": [{text}], "logits": [{logits}]}}\n')


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
            num_actions, version = header["num_actions"], header["version"]
            if type(num_actions) is not int or type(version) is not int:
                raise UsageError("num_actions and version must be ints")
            default = np.array(header["default_logits"], dtype=float)
            params = PolicyParams(num_actions, None, default, version)
            # the first ``count`` rows of ``ids``/``rows`` hold the keys in order of first
            # appearance, and at[i] is key id i's row (-1 if none), which a repeated key's
            # last row overwrites; arrays, as a dict of the ids measurably left the heap
            # fragmented (peak RSS) for the rest of the process
            ids, rows, count = np.zeros(1024, np.int64), np.empty((1024, num_actions)), 0
            at = np.full(1024, -1)
            for number, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                where = f"line {number}: "
                row = json.loads(line)
                key, logits = tuple(row["key"]), np.array(row["logits"], dtype=np.float64)
                _check_key(key)
                _check_width(num_actions, key, logits)
                i = params.index.intern(key)
                if i >= len(at):
                    at = _grown(at, 2 * i, -1)
                if at.item(i) < 0:
                    if count == len(ids):
                        ids, rows = _grown(ids, 2 * count, 0), _grown(rows, 2 * count, 0.0)
                    ids[count], at[i], count = i, count, count + 1
                rows[at.item(i)] = logits
            where = ""
            params._write_ids(ids[:count], rows[:count])
    except UsageError as e:
        raise UsageError(f"{path}: {where}{e}") from None
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as e:
        # JSONDecodeError is a ValueError
        raise UsageError(f"{path}: {where}cannot read a policy checkpoint "
                         f"({type(e).__name__}: {e})") from e
    return params
