"""Tabular softmax policies over discrete action sets.

A policy is a table mapping an encoded interaction history to a logit
vector; the action distribution is the softmax of those logits at a given
temperature. KL divergence and its logit gradient are computed exactly
over the action set (no sampling), which keeps the distillation losses
variance-free.

Keys are int ids. A ``KeyIndex``, shared by a table and its snapshots,
holds keys only: full histories as a trie (each id knows its parent, last
action and last token), so the rollout engine advances a batch of histories
with one array gather (window keys through a memo), and any other key as
a tuple. A ``PolicyParams`` owns its slot map, the slot of each key id, and
one (R, A) block by slot per quantity: the logits and the blocks derived
from them, the floored log of their softmax, which the rollout KL reads,
and the cumulative sums of the softmax at each temperature the table is
sampled at (built on the first read at it), which a rollout turn reads.
A write stores only logits; the derived rows it leaves pending are
brought current in one pass at the next derived read, snapshot or new
block, once per rollout call however many learner steps wrote them.
Tables are read by key id, and an id the table has not written, one
interned after its last write too, reads the default row. A run has one
table: ``write``, the one way rows enter it, writes them in place (the
slot map only for new keys) and sets its version, so a reference held
across a learner step reads the new rows; ``snapshot`` is the copy that
keeps them. ``logits`` is a copy of the written rows as a ``RowBlock``.

Checkpoints are read 256 lines at a time, each block's keys interned at
once by ``KeyIndex.intern_all``, and their logits must be JSON numbers; they
are written in key order, worked out on arrays from the trie.
"""

from __future__ import annotations

import copy
import heapq
import json
import math
import struct
from collections.abc import Mapping
from itertools import chain, count, islice

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
    form has even length 2W + 2 and the full one odd, so the two never alias.
    The rule goes by length alone, so it also cuts a window key followed by
    one more (action, token) turn to the next window key."""
    if window is None or len(history) <= 2 * window + 2:
        return history
    return history[:1] + history[-2 * window - 1:]


def encode_history(observations, actions, window: int | None = None) -> HistoryKey:
    """window_key of the history (o_0, a_0, ..., o_t) given as its token ids
    and actions; ``observations`` must have one more element than ``actions``.
    Kept as a name because bench/tracing.py traces it."""
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
    e = np.exp(z - np.maximum.reduce(z, axis=1, keepdims=True))  # .max, .sum, unwrapped
    return e / np.add.reduce(e, axis=1, keepdims=True)


def log_rows(p: np.ndarray) -> np.ndarray:
    """log p, with 0 where p = 0: the ``log_p`` that forward_kl_rows takes."""
    return np.log(np.where(p > 0, p, 1.0))


def log_floor(q: np.ndarray) -> np.ndarray:
    """log q with q floored at ``Q_FLOOR``: the student side of the KL log."""
    return np.log(np.maximum(q, Q_FLOOR))


def forward_kl_rows(p: np.ndarray, log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """Exact KL(p[i] || q[i]) over the action set for each row i, teacher first.

    ``log_p`` is log_rows(p) and ``log_q`` log_floor(q), so terms with
    p_i = 0 are 0 * (0 - log q_i) = +0.0 (q_i <= 1) and stay in the sum,
    which runs over all A entries in order. Each result is clamped at 0 to
    absorb float round-off.
    """
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
    """softmax_rows of one row of logits; kept as a name because bench/tracing.py traces it."""
    if temperature <= 0:
        raise UsageError(f"temperature must be > 0, got {temperature}")
    return softmax_rows(np.asarray(logits, dtype=np.float64)[None], temperature)[0]


def forward_kl(p: np.ndarray, q: np.ndarray) -> float:
    """forward_kl_rows of one pair of rows, with their logs taken here; no
    src path calls it, kept as a name because bench/tracing.py traces it."""
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise UsageError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return float(forward_kl_rows(p[None], log_rows(p)[None], log_floor(q)[None])[0])


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


# The slot of a key id that a table has not written: the table's last, default row.
NO_SLOT = -1


def _grown(array: np.ndarray, size: int, fill) -> np.ndarray:
    """``array`` extended along axis 0 to ``size`` entries, the new ones ``fill``."""
    out = np.empty((size,) + array.shape[1:], dtype=array.dtype)
    out[:len(array)] = array
    out[len(array):] = fill
    return out


class KeyIndex:
    """Append-only int ids for history keys, shared by a PolicyParams and its snapshots.

    Id 0 stands for "no key". A full history (o_0, a_0, ..., o_t) with
    actions in [0, A) and tokens in [0, 2**31) is a node of a trie: its id
    holds its parent's id (that of (o_0, ..., o_{t-1}), 0 for (o_0,)), its
    last action ``act`` and its last token ``last``, and no tuple. So
    interning a history interns its prefixes, and a history outside the
    index has no descendant in it. ``child[i, a]`` is the first child of
    node i by action a to be interned; the engine trusts it only if its
    last token is the token the env emits now, and a child by the same
    action with another token (another env config) is found through a dict,
    so one index serves any env config. Any other key (window keys, other
    values) is kept as its tuple; ``step`` memoizes the window key that
    follows a key by (action, token) in ``_cuts``. The arrays grow by half
    their size at a time. Which table row holds a key is each table's own
    record.
    """

    def __init__(self, num_actions: int):
        self.num_actions = num_actions
        self.size = 1  # ids in use
        self.parent = np.zeros(64, dtype=np.int32)
        self.act = np.full(64, -1, dtype=np.int32)
        self.last = np.full(64, -1, dtype=np.int32)
        self.child = np.zeros((64, num_actions), dtype=np.int32)
        self._roots: dict[int, int] = {}
        self._siblings: dict[tuple[int, int, int], int] = {}
        self._tuples: dict[HistoryKey, int] = {}
        self._tuple_of: dict[int, HistoryKey] = {}
        self._cuts: dict[tuple[int, int, int], int] = {}  # (id, action, token) -> window key id

    def _reserve(self, count: int) -> None:
        """Grow the arrays, by half their size at a time, to hold ``count`` ids,
        which must fit in int32, as the arrays and replay entries hold them."""
        if count > 2 ** 31:
            raise UsageError("a KeyIndex holds at most 2**31 ids")
        size = len(self.last)
        while size < count:
            size += size // 2
        if size > len(self.last):
            self.parent, self.act = _grown(self.parent, size, 0), _grown(self.act, size, -1)
            self.last, self.child = _grown(self.last, size, -1), _grown(self.child, size, 0)

    def _new(self, parent: int, action: int, token: int) -> int:
        i = self.size
        self._reserve(i + 1)
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

    def intern_all(self, keys) -> np.ndarray:
        """The ids that ``intern`` gives ``keys`` (sequences of ints) one at a
        time in order, leaving the index as those calls do. The histories, a
        padded matrix sorted so that the keys that share a prefix are
        adjacent, have a node at depth d where a key first differs from the
        one before it in column 2d or before. Nodes are looked up a depth at
        a time, and those outside the index take their ids in the order
        (first key, depth) in which those calls make them."""
        lengths = np.fromiter(map(len, keys), np.int64, len(keys))
        try:
            flat = np.fromiter(chain.from_iterable(keys), np.int64, int(lengths.sum()))
        except OverflowError:  # an int outside int64, in a kept tuple: one key at a time
            return np.array([self.intern(tuple(key)) for key in keys], dtype=np.int64)
        cols = np.arange(max(lengths.max(initial=0), 1))
        filled = cols < lengths[:, None]
        matrix = np.full(filled.shape, -1, dtype=np.int64)
        matrix[filled] = flat
        in_range = (matrix >= 0) & (matrix < np.where(cols % 2, self.num_actions, 2 ** 31))
        depth = (lengths + 1) // 2 * ((lengths % 2 == 1) & (in_range | ~filled).all(axis=1))
        kept = [(r, tuple(keys[r])) for r in np.flatnonzero(depth == 0).tolist()]
        fresh = {}  # the kept tuples outside the index -> first key
        for r, key in kept:
            if key not in self._tuples:
                fresh.setdefault(key, r)
        rows = np.flatnonzero(depth)
        deep = int(depth.max(initial=0))
        matrix = matrix[rows, :max(2 * deep - 1, 1)]
        # sorted by their bytes, the fastest order in which keys that share a prefix are adjacent
        order = np.argsort(matrix.view(np.dtype((np.void, 8 * matrix.shape[1]))).ravel())
        matrix, depth, rows = matrix[order], depth[rows[order]], rows[order]
        differ = matrix[1:] != matrix[:-1]
        common = np.concatenate([[0], np.where(differ.any(axis=1), differ.argmax(axis=1),
                                               matrix.shape[1])])
        levels = np.arange(deep)[:, None]
        live = levels < depth  # live[d, k]: the k-th key has a node at depth d
        begins = live & (common <= 2 * levels)
        node = np.cumsum(begins).reshape(begins.shape) - 1  # its number, depth by depth
        d, k = np.nonzero(begins)  # of each node, and its first key in sorted order
        t, a = matrix[k, 2 * d], np.where(d > 0, matrix[k, 2 * d - 1], -1)
        up = np.where(d > 0, node[d - 1, k], -1)  # the parent's number
        first = np.minimum.reduceat(np.broadcast_to(rows, live.shape)[live],
                                    np.flatnonzero(begins[live])) if len(d) else d
        # the ids of the nodes in the index, a depth at a time while a parent is in it
        found = np.zeros(len(d), dtype=np.int64)
        bounds = np.searchsorted(d, np.arange(deep + 2)).tolist()  # depth d: [d]:[d + 1]
        found[:bounds[1]] = self.roots(t[:bounds[1]], False)
        for lo, hi in zip(bounds[1:], bounds[2:]):
            parent = found[up[lo:hi]]
            old = np.flatnonzero(parent)
            if not len(old):
                break
            found[lo + old] = self.step(parent[old], a[lo + old], t[lo + old], False)
        # new ids in the order (first key, depth); a kept tuple is at depth 0
        new = np.flatnonzero(found == 0)
        kept_first = np.fromiter(fresh.values(), np.int64, len(fresh))
        rank = np.lexsort((np.concatenate([d[new], np.zeros_like(kept_first)]),
                           np.concatenate([first[new], kept_first])))
        made = np.empty(len(rank), dtype=np.int64)
        made[rank] = np.arange(self.size, self.size + len(rank))
        found[new] = made[:len(new)]
        self._reserve(self.size + len(made))
        new = new[np.argsort(found[new])]  # in id order
        i, p, a, t = found[new], np.where(d[new] > 0, found[up[new]], 0), a[new], t[new]
        self.parent[i], self.act[i], self.last[i] = p, a, t
        self._roots.update(zip(t[p == 0].tolist(), i[p == 0].tolist()))
        # per (parent, action), the first new child takes an empty child slot
        inner = np.flatnonzero(p > 0)
        taker = inner[np.unique(p[inner] * self.num_actions + a[inner], return_index=True)[1]]
        taker = taker[self.child[p[taker], a[taker]] == 0]
        self.child[p[taker], a[taker]] = i[taker]
        sibling = p > 0
        sibling[taker] = False
        self._siblings.update(zip(zip(p[sibling].tolist(), a[sibling].tolist(),
                                      t[sibling].tolist()), i[sibling].tolist()))
        for key, j in zip(fresh, made[len(new):].tolist()):
            self.parent[j] = self.act[j] = self.last[j] = -1
            self._tuples[key], self._tuple_of[j] = j, key
        self.size += len(made)
        ids = np.zeros(len(keys), dtype=np.int64)
        ids[rows] = found[node[depth - 1, np.arange(len(rows))]]
        for r, key in kept:
            ids[r] = self._tuples[key]
        return ids

    def roots(self, tokens: np.ndarray, intern: bool) -> np.ndarray:
        """The ids of the histories (token,) of ``tokens``, as _child gives
        them: those outside the index interned in order, or with ``intern``
        False id 0."""
        roots = self._roots
        ids = np.array([roots.get(o, 0) for o in tokens.tolist()], dtype=np.int64)
        if intern and not ids.all():
            for e in np.flatnonzero(ids == 0).tolist():
                ids[e] = self._child(0, -1, tokens.item(e), True)
        return ids

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

    def step(self, key: np.ndarray, actions: np.ndarray, tokens: np.ndarray,
             intern: bool, window: int | None = None) -> np.ndarray:
        """The ids of the histories keys[key] + (actions, tokens), through
        ``child``; a history outside the index is interned, or with ``intern``
        False gets id 0, as does every child of id 0, with no Python call for
        an empty child slot. With ``window`` W, given from turn W on, the ids
        of their window keys instead, always interned."""
        if window is not None:
            cuts = self._cuts
            return np.array([cuts.get(edge) or self._cut(edge, window) for edge in zip(
                key.tolist(), actions.tolist(), tokens.tolist())], dtype=np.int64)
        child = self.child[key, actions]
        miss = self.last[child] != tokens
        if not intern:
            miss &= child > 0  # an empty slot: outside the index, id 0
        if np.count_nonzero(miss):
            for i, (m, n, a, o) in enumerate(zip(miss.tolist(), key.tolist(),
                                                 actions.tolist(), tokens.tolist())):
                if m:
                    child[i] = self._child(n, a, o, intern)
        return child

    def _cut(self, edge: tuple[int, int, int], window: int) -> int:
        """The id of window_key(keys[i] + (action, token), window), memoized
        in ``_cuts`` for the ``edge`` (i, action, token)."""
        self._cuts[edge] = j = self.intern(window_key(self.key(edge[0]) + edge[1:], window))
        return j


def _derived(name: str | float, z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Derived block ``name``'s rows of the logit rows ``z``, with q =
    softmax_rows(z): log_floor(q), or the cumulative sums of the softmax at
    temperature ``name``, which sample_cum takes."""
    if name == "log_q":
        return log_floor(q)
    return np.cumsum(q if name == 1.0 else softmax_rows(z, name), axis=1)


class PolicyParams:
    """Logit table for one policy, over the key ids of a shared KeyIndex.

    The table owns its blocks, each (R, A) by slot: the logits "z", and
    derived from them the log_floor of their softmax "log_q" and, for each
    temperature the table was sampled at, the cumulative sums of the
    softmax at it (see ``cum``); ``slot[i]``, the slot of key id i; and
    ``keys[s]`` (R entries), the key id of slot s, for the K = ``_count``
    written slots in the order they were first written. The last row of
    each block is the default row and the last entry of ``slot`` is
    NO_SLOT, so an id the table has not written, or one past ``slot``,
    reads the default row; all grow by half their size at a time.
    ``write`` is the one way rows enter the table: it writes logits in
    place (a learner step costs its K rows), marks their slots in
    ``_pending`` and sets the version; ``_refresh`` brings the derived
    blocks current before they are read or copied. The arrays are read-only
    between writes. ``snapshot`` is an independent copy, which gives out
    its own slots from then on. ``logits`` is a copy of the written rows.
    """

    def __init__(self, num_actions: int, logits=None, default_logits=None, version: int = 0):
        default = np.zeros(num_actions) if default_logits is None else default_logits
        self.num_actions = num_actions
        self.default_logits = np.asarray(default, dtype=np.float64)
        _check_width(num_actions, "default", self.default_logits)
        self.version = version
        self.index = KeyIndex(num_actions)
        self._pending: np.ndarray | None = None  # by slot: written since the last refresh
        z = self.default_logits[None]
        blocks = {"z": z, "log_q": _derived("log_q", z, softmax_rows(z))}
        self._own({name: np.repeat(block, 8, axis=0) for name, block in blocks.items()},
                  np.full(64, NO_SLOT, dtype=np.int32), np.zeros(8, dtype=np.int64), 0)
        if logits:
            block = RowBlock.of(logits, self.index, num_actions)
            self.write(block.ids, block.rows, version)

    def _own(self, blocks: dict, slot, keys, count: int, written=None) -> None:
        """Take the ``blocks`` by name, ``slot`` and ``keys``, with ``count``
        slots written, as this table's arrays, read-only between writes: the
        ``written`` ones (all by default) are made so, by setflags."""
        self._blocks, self._slot, self._keys, self._count = blocks, slot, keys, count
        for array in written or (*blocks.values(), slot, keys):
            array.setflags(write=False)

    @property
    def logits(self) -> "RowBlock":
        """The written rows, in slot order, as a RowBlock (a copy)."""
        count = self._count
        return RowBlock(self.index, self._keys[:count].copy(), self._blocks["z"][:count].copy())

    def _read(self, name: str | float, ids: np.ndarray) -> np.ndarray:
        """The (len(ids), A) rows of block ``name`` at key ``ids``; an id the
        table has not written reads the default row."""
        return self._blocks[name].take(self._slot.take(ids, mode="clip"), axis=0)  # faster than []

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """The (len(ids), A) logit rows at key ``ids``."""
        return self._read("z", ids)

    def log_q(self, ids: np.ndarray) -> np.ndarray:
        """The (len(ids), A) rows log_floor(softmax_rows(logits)) at key ``ids``."""
        self._refresh()
        return self._read("log_q", ids)

    def cum(self, ids: np.ndarray, temperature: float) -> np.ndarray:
        """The (len(ids), A) rows np.cumsum(softmax_rows(logits, temperature),
        axis=1) at key ``ids``, which sample_cum takes, from the temperature's
        block: the first read at it builds it for the whole table."""
        self._refresh()
        if temperature not in self._blocks:
            self._build_cum(temperature)
        return self._read(temperature, ids)

    def _build_cum(self, temperature: float) -> None:
        """Add the temperature's block of cumulative sums, for every row."""
        self._refresh()
        blocks = self._blocks
        blocks[temperature] = np.cumsum(softmax_rows(blocks["z"], temperature), axis=1)
        blocks[temperature].setflags(write=False)

    def _refresh(self) -> None:
        """Bring the derived blocks current: grow them to the logits' size and
        write the pending slots' _derived rows, 1,024 at a time."""
        if self._pending is None:
            return
        blocks, z = self._blocks, self._blocks["z"]
        derived = [name for name in blocks if name != "z"]
        for name in derived:
            if len(blocks[name]) < len(z):
                blocks[name] = _grown(blocks[name], len(z), blocks[name][-1])
            blocks[name].setflags(write=True)
        at = np.flatnonzero(self._pending)
        for start in range(0, len(at), 1024):
            s = at[start:start + 1024]
            rows = z[s]
            q = softmax_rows(rows)  # log_q and the sums at temperature 1 share it
            for name in derived:
                blocks[name][s] = _derived(name, rows, q)
        self._own(blocks, self._slot, self._keys, self._count, [blocks[n] for n in derived])
        self._pending = None

    def write(self, ids: np.ndarray, rows: np.ndarray, version: int) -> None:
        """Write the (K, A) logit rows ``rows`` at the distinct key ``ids`` in
        place, mark their slots pending for the derived blocks, and set the
        version to ``version``; ids without a slot (past the slot array too)
        get the next free slots, in order, and only a write with such ids
        touches the slots."""
        z, slot, keys, count = self._blocks["z"], self._slot, self._keys, self._count
        pending = np.zeros(len(z), dtype=bool) if self._pending is None else self._pending
        slots = slot.take(ids, mode="clip")  # an id past slot reads its last entry, NO_SLOT
        new = slots == NO_SLOT
        added = np.count_nonzero(new)
        if added:
            slot_ids = ids[new]
            top = int(np.maximum.reduce(slot_ids)) + 2  # keep NO_SLOT last
            if top > len(slot):
                slot = _grown(slot, max(len(slot) + len(slot) // 2, top), NO_SLOT)
            if count + added >= len(keys):  # keep the default row last
                size = max(len(keys) + len(keys) // 2, count + added + 1)
                keys, z, pending = _grown(keys, size, 0), _grown(z, size, z[-1]), _grown(
                    pending, size, False)
            slots[new] = np.arange(count, count + added)
        written = (z, slot, keys) if added else (z,)
        for array in written:
            array.setflags(write=True)
        if added:
            keys[count:count + added] = slot_ids
            slot[slot_ids] = slots[new]
            count += added
        z[slots] = rows
        pending[slots] = True
        self._blocks["z"], self._pending = z, pending
        self._own(self._blocks, slot, keys, count, written)
        self.version = version

    def snapshot(self) -> "PolicyParams":
        """An independent copy on the same index: later writes to this table
        leave its rows, slots and blocks as they are."""
        self._refresh()
        params = copy.copy(self)
        params._own({name: block.copy() for name, block in self._blocks.items()},
                    self._slot.copy(), self._keys.copy(), self._count)
        return params


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
        values = [np.asarray(row, dtype=np.float64) for row in rows.values()]
        for key, row in zip(rows, values):
            _check_key(key)
            _check_width(num_actions, key, row)
        return cls(index, index.intern_all(list(rows)), np.reshape(values, (-1, num_actions)))

    def __getitem__(self, key) -> np.ndarray:
        where = np.flatnonzero(self.ids == (self.index.find(key) or -1))
        if not where.size:
            raise KeyError(key)
        return self.rows[where[0]]

    def __iter__(self):
        return iter(self.index.keys(self.ids))

    def __len__(self) -> int:
        return len(self.ids)

    def values(self) -> np.ndarray:
        """The rows, as one (K, A) array (whose iteration gives them one at a time)."""
        return self.rows

    def __eq__(self, other) -> bool:
        """Equal to a mapping that holds the same keys with equal rows."""
        if not isinstance(other, Mapping):
            return NotImplemented
        return len(self) == len(other) and all(
            key in other and np.array_equal(row, other[key]) for key, row in self.items())


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
    trained table holds few distinct floats; those of the first 1,400 looked
    up are kept, which bounds the memo to about 0.2 MB and holds every
    distinct float of a default 400-step table (1,273-1,316), so each of
    them is formatted once."""

    def __missing__(self, bits: int) -> str:
        x = struct.unpack("<d", struct.pack("<q", bits))[0]
        text = repr(x) if math.isfinite(x) else json.dumps(x)
        if len(self) < 1400:
            self[bits] = text
        return text


def _histories(index: KeyIndex, slot: np.ndarray, bits: np.ndarray, keyed: bool):
    """(key, text, logits) of the histories with a slot in ``slot``, in key
    order: the trie's preorder with each node's children in (action, token)
    order, in which a node comes one place after its parent and after the
    subtrees of the siblings before it. ``text``, the body of the key's
    json list, is made from its parent's, kept for the node last met at
    each depth; ``logits`` are the bits of its row in ``bits``; the key,
    which only a merge with kept tuples reads, is None unless ``keyed``.
    The arrays are int32, and rows are taken 256 nodes at a time, to bound
    the memory."""
    parent, act, last = index.parent[:index.size], index.act[:index.size], index.last[:index.size]
    nodes = np.flatnonzero(parent >= 0)[1:].astype(np.int32)  # the histories
    nodes = nodes[np.lexsort((last[nodes], act[nodes], parent[nodes]))]  # siblings in order
    up, depth = parent[nodes], np.ones(len(nodes), dtype=np.int32)
    while up.any():
        depth += up > 0
        up = parent[up]
    deep = int(depth.max(initial=0))
    size = np.ones(index.size, dtype=np.int32)  # of each node's subtree
    for d in range(deep, 1, -1):
        np.add.at(size, parent[nodes[depth == d]], size[nodes[depth == d]])
    before = np.cumsum(size[nodes], dtype=np.int32) - size[nodes]
    before -= before[np.searchsorted(parent[nodes], parent[nodes])]  # within the siblings
    place = size  # each node's place in key order, set a depth at a time
    place[0] = -1
    for d in range(1, deep + 1):
        place[nodes[depth == d]] = place[parent[nodes[depth == d]]] + 1 + before[depth == d]
    order, depths = np.empty_like(nodes), np.empty_like(depth)
    order[place[nodes]], depths[place[nodes]] = nodes, depth
    keys, texts = [None] * (deep + 1), [""] * (deep + 1)  # of the node last met at each depth
    for start in range(0, len(order), 256):
        part = order[start:start + 256]
        slots = slot.take(part, mode="clip")
        rows = iter(bits[slots[slots != NO_SLOT]].tolist())
        for s, d, a, t in zip(slots.tolist(), depths[start:start + 256].tolist(),
                              act[part].tolist(), last[part].tolist()):
            texts[d] = f"{texts[d - 1]}, {a}, {t}" if d > 1 else str(t)
            if keyed:
                keys[d] = keys[d - 1] + (a, t) if d > 1 else (t,)
            if s != NO_SLOT:
                yield keys[d], texts[d], next(rows)


def save_params(params: PolicyParams, path) -> None:
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "kind": "policy_params",
        "num_actions": params.num_actions,
        "version": params.version,
        "default_logits": [float(x) for x in params.default_logits],
    }
    index = params.index
    slot = params._slot
    bits = params._blocks["z"].view(np.int64)  # the logits by slot, each float as its bits
    text = _FloatTexts().__getitem__
    kept = sorted((key, slot.item(i)) for i, key in index._tuple_of.items()
                  if i < len(slot) and slot.item(i) != NO_SLOT)
    rows = _histories(index, slot, bits, bool(kept))
    if kept:  # each is a tuple of ints (_check_key), whose text str makes as json does
        rows = heapq.merge(rows, ((key, ", ".join(map(str, key)), bits[s].tolist())
                                  for key, s in kept))
    with atomic_open(path) as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        # 32 lines at a time: a block of 256 held 0.1 MB more on a 6,000-row table
        while lines := [f'{{"key": [{key}], "logits": [{", ".join(map(text, row))}]}}\n'
                        for _, key, row in islice(rows, 32)]:
            f.writelines(lines)


def _logits(num_actions: int, key, logits) -> np.ndarray:
    """A checkpoint row's ``logits``, num_actions JSON numbers (not strings,
    bools or nulls), as floats."""
    if type(logits) is not list or not set(map(type, logits)) <= {float, int}:
        raise UsageError(f"row {key} has a logit that is not a number")
    row = np.array(logits, dtype=np.float64)
    _check_width(num_actions, key, row)
    return row


def _block(decode, lines: list[str], index: KeyIndex, num_actions: int):
    """The key ids (interned by intern_all) and (n, A) logits of the
    checkpoint rows ``lines``, checked by type over the whole block; None,
    with nothing interned, if any line is at fault."""
    try:
        keys, logits = zip(*((row["key"], row["logits"]) for row in map(decode, lines)))
        if not (set(map(type, keys)) == set(map(type, logits)) == {list}
                and set(map(type, chain.from_iterable(keys))) <= {int}
                and set(map(len, logits)) == {num_actions}
                and set(map(type, chain.from_iterable(logits))) <= {float, int}):
            return None
        logits = np.array(logits, dtype=np.float64)
    except (ValueError, KeyError, TypeError, OverflowError):
        return None
    return index.intern_all(keys), logits


def _distinct(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``ids`` in order of first appearance, each with its last row."""
    keys, first = np.unique(ids, return_index=True)
    last = len(ids) - 1 - np.unique(ids[::-1], return_index=True)[1]
    order = np.argsort(first)
    return keys[order], rows[last[order]]


def load_params(path) -> PolicyParams:
    """Read a checkpoint; any fault in it raises a UsageError that names
    ``path`` and the file line at fault. Rows are read 256 lines at a time
    (see _block), and a block with a fault line by line; a repeated key's
    last row wins, and the slots follow the keys' first appearance. Blocks
    of 1,024 lines left about 1 MB more of the heap resident after a load."""
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
            params = PolicyParams(num_actions, None, default)
            decode = json.JSONDecoder().decode  # json.loads of a str, with its errors
            ids, rows = [np.zeros(0, dtype=np.int64)], [np.zeros((0, num_actions))]
            for start in count(2, 256):
                lines = list(islice(f, 256))
                if not lines:
                    break
                block = _block(decode, lines, params.index, num_actions)
                if block is None:
                    keys, logits = [], []
                    for number, line in enumerate(lines, start=start):
                        if line.strip():
                            where = f"line {number}: "
                            row = json.loads(line)
                            keys.append(tuple(row["key"]))
                            _check_key(keys[-1])
                            logits.append(_logits(num_actions, keys[-1], row["logits"]))
                    where = ""
                    block = params.index.intern_all(keys), np.reshape(logits, (-1, num_actions))
                ids.append(block[0])
                rows.append(block[1])
            params.write(*_distinct(np.concatenate(ids), np.concatenate(rows)), version)
            del ids, rows  # before the derived blocks are made, to bound the peak
            params._refresh()  # the derived rows are made while loading, not at a first read
    except UsageError as e:
        raise UsageError(f"{path}: {where}{e}") from None
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as e:
        # JSONDecodeError is a ValueError
        raise UsageError(f"{path}: {where}cannot read a policy checkpoint "
                         f"({type(e).__name__}: {e})") from e
    return params
