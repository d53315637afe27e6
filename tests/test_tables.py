"""Key ids, the tables' rows and the replay columns, against the per-turn
and per-key forms they replace."""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opdlab.distill import (
    Rollouts,
    apply_gradient,
    collect_teacher_trajectories,
    rollout_batch,
    rollout_lockstep,
)
from opdlab.env import EnvConfig, make_env, make_teacher
from opdlab.errors import UsageError
from opdlab.metrics import SPLIT_ROLLOUT, EvalRecord
from opdlab.policy import (
    NO_SLOT,
    KeyIndex,
    PolicyParams,
    load_params,
    save_params,
    softmax_rows,
)
from opdlab import runtime
from opdlab.runtime import (
    RunConfig,
    _episode_summary,
    _grad_norm,
    _rollout_record,
    run_training,
)


def tiny_cfg(**kw):
    base = dict(total_steps=20, batch_size=8, eval_every=10, eval_episodes=16, seed=1)
    base.update(kw)
    return RunConfig(**base)


# -- the gradient norm --------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(2, 12)),
              elements=st.floats(-1e6, 1e6)))
def test_grad_norm_bitwise_equals_the_per_key_sum(grads):
    expected = math.sqrt(sum(float(g @ g) for g in grads))
    assert _grad_norm(grads).hex() == expected.hex()


# -- the rollout record from the KL matrix --------------------------------------------


@st.composite
def rollout_batches(draw):
    """Rollouts columns with expert prefixes, episodes without a student turn,
    and turn KLs that are zero of either sign."""
    n, horizon = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    prefix_len = np.array([draw(st.integers(0, horizon)) for _ in range(n)])
    rounds = np.array([draw(st.integers(0, horizon - p)) for p in prefix_len])
    kl = np.zeros((n, horizon))
    value = st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 50.0))
    for e in range(n):
        for t in range(prefix_len[e] + rounds[e]):
            kl[e, t] = draw(value)
    success = np.array([draw(st.booleans()) for _ in range(n)])
    zeros = np.zeros((n, horizon), dtype=np.int64)
    return Rollouts(KeyIndex(2), "b2f", np.zeros(n, dtype=np.int64),
                    np.zeros(n, dtype=np.int64), zeros, zeros, zeros, kl,
                    prefix_len, rounds, success)


@settings(max_examples=200, deadline=None)
@given(st.lists(rollout_batches(), min_size=1, max_size=3))
def test_rollout_record_bitwise_equals_the_per_turn_sum(batches):
    def kl_sum(batch, e):
        """Episode e's student-turn KL, added turn by turn."""
        start = int(batch.prefix_len[e])
        return sum(batch.kl[e, start:start + int(batch.rounds[e])].tolist())

    def column(name):
        return [x for batch in batches for x in getattr(batch, name).tolist()]

    sums = [kl_sum(batch, e) for batch in batches for e in range(len(batch))]
    expected = EvalRecord(
        step=7, **_episode_summary(column("success"), column("rounds"), sums),
        per_turn_kl=[], active_k=3, split=SPLIT_ROLLOUT, n_rollouts=len(sums),
        mean_prefix_len=float(np.mean(column("prefix_len"))))
    assert repr(_rollout_record(7, 3, batches)) == repr(expected)
    for batch in batches:
        sums = [0.0 + kl_sum(batch, e) for e in range(len(batch))]
        assert batch.kl_sums().tobytes() == np.array(sums).tobytes()


# -- what the benchmark reads of a table -----------------------------------------------


def test_tables_offer_the_mapping_the_benchmark_reads(tmp_path):
    store_cfg = tiny_cfg()
    result = run_training(store_cfg)
    path = tmp_path / "checkpoint.jsonl"
    save_params(result.final_params, path)
    loaded = load_params(path)
    width = store_cfg.env.num_actions
    for params in (result.final_params, loaded):
        rows = params.logits
        keys = list(rows)
        assert len(rows) == len(keys) == len(set(keys)) > 0
        assert len(rows.values()) == len(rows.items()) == len(dict(rows)) == len(rows)
        assert all(len(row) == width for row in rows.values())
        assert all(row.shape == (width,) for _, row in rows.items())
        assert [key for key, _ in rows.items()] == keys
    assert len(loaded.logits) == len(result.final_params.logits)
    assert loaded.logits == result.final_params.logits


# -- no per-turn objects in a run -------------------------------------------------


def count_history_tuples(monkeypatch):
    """A counter of the history tuples the key index reads back from its trie."""
    built = [0]
    real_key = KeyIndex.key

    def key(self, i):
        built[0] += 1
        return real_key(self, i)

    monkeypatch.setattr(KeyIndex, "key", key)
    return built


@pytest.mark.parametrize("window", [None, 2])
def test_training_builds_no_per_turn_record_or_history(monkeypatch, window):
    # no per-turn record type exists; what a run could still build per turn
    # is a history key tuple
    built, in_evaluation = count_history_tuples(monkeypatch), [0]
    real_evaluate = runtime.evaluate

    def counting_evaluate(*args, **kwargs):
        before = built[0]
        record = real_evaluate(*args, **kwargs)
        in_evaluation[0] += built[0] - before
        return record

    monkeypatch.setattr(runtime, "evaluate", counting_evaluate)
    result = run_training(tiny_cfg(window=window))
    if window is None:
        assert built[0] == 0  # histories are trie ids; no key tuple is made at all
    else:
        # a run makes one tuple per (key, action, token) edge new to the index's
        # memo of cut edges, to cut the next window key; evaluation meets some too
        assert 0 < built[0] - in_evaluation[0]
        assert built[0] == len(result.final_params.index._cuts)


def trie_depths(index) -> np.ndarray:
    """The turns of each full history of ``index`` (0 for (o_0,)), -1 for a
    kept tuple; id 0 has depth -1."""
    depth = np.full(index.size, -1)
    for i in range(1, index.size):  # a parent's id is below its child's
        parent = index.parent.item(i)
        if parent >= 0:
            depth[i] = depth[parent] + 1 if parent else 0
    return depth


@pytest.mark.parametrize("window", [0, 2])
@pytest.mark.parametrize("algo", ["opd", "b2f"])
def test_a_windowed_run_interns_its_trie_only_window_turns_deep(algo, window):
    """Window keys are stepped from window keys, so a windowed run never
    interns a full history of more than W turns, and every tuple it keeps is
    a window key, of length 2W + 2."""
    env = make_env(EnvConfig())
    store = collect_teacher_trajectories(env, make_teacher(env), 10, np.random.default_rng(7))
    result = run_training(tiny_cfg(algo=algo, window=window, total_steps=40), store)
    index = result.final_params.index
    assert trie_depths(index).max() == window
    assert {len(key) for key in index._tuple_of.values()} == {2 * window + 2}


@pytest.mark.parametrize("window", [None, 0, 2])
def test_a_repeated_evaluation_interns_nothing(window):
    """Evaluation without a window interns no key, so a loaded table does not
    grow however often it is evaluated; with one it interns the keys it
    meets, which a second evaluation on the same draws meets again."""
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    for params in (run_training(tiny_cfg(window=window)).final_params,
                   PolicyParams(env.config.num_actions)):
        sizes, records = [params.index.size], []
        for _ in range(2):
            records.append(runtime.evaluate(params, env, teacher, 64,
                                            np.random.default_rng(3), window=window))
            sizes.append(params.index.size)
        assert records[0] == records[1]
        assert sizes[2] == sizes[1]
        assert sizes[1] == sizes[0] if window is None else sizes[1] >= sizes[0]
    assert (params.index.size == 1) == (window is None)  # the fresh table's


def test_an_evaluation_makes_no_key_call_per_episode(monkeypatch):
    """Without a window, an evaluation finds its root keys by one search and
    gives a history that leaves the index id 0 with no KeyIndex._child call
    (only a child by the same action with another token needs one)."""
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    params = run_training(tiny_cfg()).final_params
    calls, left, child, step = [], [], KeyIndex._child, KeyIndex.step
    monkeypatch.setattr(KeyIndex, "_child",
                        lambda self, *args: calls.append(args) or child(self, *args))

    def stepped(*args):
        ids = step(*args)
        left.append(np.count_nonzero(ids == 0))
        return ids

    monkeypatch.setattr(KeyIndex, "step", stepped)
    u = np.random.default_rng(3).random((64, env.config.horizon_cap))
    rollout_lockstep(env, params, teacher, np.arange(64) % env.config.task_count, u)
    assert calls == [] and sum(left) > 0  # histories left the index, with no call


@pytest.mark.parametrize("window", [None, 2])
def test_a_repeated_batch_builds_no_history_and_interns_nothing(monkeypatch, window):
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    store = collect_teacher_trajectories(env, teacher, 10, np.random.default_rng(7))
    params = PolicyParams(env.config.num_actions)
    u = np.random.default_rng(3).random((9, env.config.horizon_cap))
    first = rollout_batch("b2f", env, params, teacher, np.arange(9), 3, u, store=store,
                          window=window)
    size = params.index.size
    built = count_history_tuples(monkeypatch)
    again = rollout_batch("b2f", env, params, teacher, np.arange(9), 3, u, store=store,
                          window=window)
    assert (built[0], params.index.size) == (0, size)
    assert np.array_equal(first.keys, again.keys) and np.array_equal(first.kl, again.kl)


# -- stepped tables and snapshots -----------------------------------------------------


def row_at(table, key):
    """The logits that the table's row reads give ``key``: its row, or the
    default row if the table has not written it."""
    return table.rows(np.array([table.index.find(key)]))[0]


def test_reading_a_stepped_table_raises(tmp_path):
    """A learner step writes its rows in place into the table it returns, so
    every read of the table it stepped from raises; the next table reads on."""
    params = PolicyParams(3, {(1,): np.array([1.0, 2.0, 3.0])})
    stepped = params
    params = apply_gradient(params, {(2,): np.array([1.0, 0.0, -1.0])}, 0.5)
    reads = {
        "row": lambda: stepped.logits[(1,)],
        "logits": lambda: dict(stepped.logits),
        "table": lambda: stepped.table,
        "rows": lambda: stepped.rows(np.array([1])),
        "snapshot": stepped.snapshot,
        "step": lambda: apply_gradient(stepped, {(1,): np.ones(3)}, 0.5),
        "save": lambda: save_params(stepped, tmp_path / "checkpoint.jsonl"),
    }
    for name, read in reads.items():
        with pytest.raises(UsageError, match="table version 0 was stepped"):
            read()
    assert not (tmp_path / "checkpoint.jsonl").exists()
    assert stepped.version == 0 and params.version == 1
    assert params.logits == {(1,): np.array([1.0, 2.0, 3.0]),
                             (2,): np.array([-0.5, 0.0, 0.5])}


def test_a_snapshot_keeps_its_rows_through_later_steps():
    """A snapshot of each table of a lineage, read after all later steps,
    holds the rows a per-key dict update gave it; stepping or writing rows
    into one snapshot changes no other table."""
    gen = np.random.default_rng(4)
    default = np.array([0.5, -1.0, 2.0])
    params = PolicyParams(3, default_logits=default)
    tables, references = [params.snapshot()], [{}]
    for _ in range(8):
        keys = [(int(i),) for i in gen.choice(12, size=4, replace=False)]
        grads = {key: gen.normal(size=3) for key in keys}
        params = apply_gradient(params, grads, 0.7)
        tables.append(params.snapshot())
        references.append(dict(references[-1]))
        for key, g in grads.items():
            references[-1][key] = references[-2].get(key, default) - 0.7 * g
    # a step from a snapshot branches the lineage; rows written into another
    # change that table alone
    tables.append(apply_gradient(tables[2].snapshot(), {(99,): np.array([1.0, 2.0, 3.0])}, 0.7))
    references.append({**references[2], (99,): default - 0.7 * np.array([1.0, 2.0, 3.0])})
    tables[4] = tables[4].with_rows(np.array([params.index.intern((98,))]),
                                    np.array([[4.0, 5.0, 6.0]]), tables[4].version)
    references[4][(98,)] = np.array([4.0, 5.0, 6.0])
    params = apply_gradient(params, {(1,): np.ones(3), (98,): np.ones(3)}, 0.7)
    probes = [(i,) for i in range(12)] + [(98,), (99,)]
    for table, reference in zip(tables, references):
        assert list(table.logits) == list(reference)
        for key in probes:
            assert row_at(table, key).tobytes() == reference.get(key, default).tobytes()
    assert [t.version for t in tables] == list(range(9)) + [3]


@settings(max_examples=60, deadline=None)
@given(num_actions=st.integers(2, 9), temperature=st.sampled_from((0.25, 0.4, 0.7, 1.0, 2.0)),
       steps=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_the_sampling_sums_stay_those_of_a_softmax_taken_at_each_read(num_actions, temperature,
                                                                      steps, seed):
    """cum(ids, T) of a random table read at T has the bytes of the cumulative
    sums of softmax_rows(rows(ids), T) after each of 1-5 steps that write old
    and new keys, which grow it past 8 slots and 64 ids, for written,
    unwritten and past-the-end ids; a snapshot taken before the steps keeps
    its sums, and each stepped table raises."""
    gen = np.random.default_rng(seed)
    a = num_actions

    def logits(count):
        """Random rows, some steep enough that their softmax has exact zeros."""
        return gen.normal(0.0, 3.0, (count, a)) * np.where(gen.random((count, 1)) < 0.2, 40, 1)

    def check(table):
        ids = np.arange(table.index.size + 3)
        expected = np.cumsum(softmax_rows(table.rows(ids), temperature), axis=1)
        assert table.cum(ids, temperature).tobytes() == expected.tobytes()
        return expected

    keys = [(int(k),) for k in gen.permutation(1000)]  # distinct keys, drawn in order
    first = int(gen.integers(0, 6))
    params = PolicyParams(a, dict(zip(keys[:first], logits(first))), logits(1)[0])
    written, fresh = keys[:first], keys[first:]
    check(params)
    before = params.snapshot()
    sums = check(before)
    for version in range(1, steps + 1):
        old = [written[i] for i in gen.permutation(len(written))[:int(gen.integers(0, 10))]]
        count = int(gen.integers(40, 70))
        new, unwritten, fresh = fresh[:count], fresh[count:count + 30], fresh[count + 30:]
        for key in unwritten:
            params.index.intern(key)
        ids = np.array([params.index.intern(key) for key in old + new])
        stepped, params = params, params.with_rows(ids, logits(len(ids)), version)
        written += new
        check(params)
        with pytest.raises(UsageError, match="was stepped"):
            stepped.cum(ids, temperature)
    assert len(params.logits) > 8 and params.index.size > 64
    assert before.cum(np.arange(len(sums)), temperature).tobytes() == sums.tobytes()
    check(before)


def test_ids_interned_after_the_last_write_read_the_default_row(tmp_path):
    """A table reads by key id: the many ids interned after its last write
    read the default row, through read/rows and in rollouts that reach them;
    a write of the largest id keeps NO_SLOT last in the slot map; and the two
    branches of a snapshot count and save their own rows."""
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    a = env.config.num_actions
    default = np.linspace(-1.0, 1.0, a)
    params = PolicyParams(a, {(9999, 1): np.ones(a)}, default)  # a key no rollout reaches
    fresh = PolicyParams(a, None, default)  # its own index, no rows written
    index, tasks = params.index, np.arange(env.config.task_count)
    u = np.random.default_rng(5).random((len(tasks), env.config.horizon_cap))
    reference = rollout_lockstep(env, fresh, teacher, tasks, u)[:3]
    *recorded, rollouts = rollout_lockstep(env, params, teacher, tasks, u, algo="opd")
    assert index.size > 2 * len(params._arrays()[1])  # interned well past the slot map
    evaluated = rollout_lockstep(env, params, teacher, tasks, u)[:3]
    for got in (recorded, evaluated):
        assert all(np.array_equal(x, y) for x, y in zip(got, reference))
    ids = np.arange(index.size)
    assert np.array_equal(params.read(ids[2:]), np.repeat(params.table[-1:], len(ids) - 2, 0))
    assert (params.rows(rollouts.student_turns().key) == default).all()

    # the largest id at the slot map's last entry, then written
    table = PolicyParams(a, None, default)
    while table.index.size < len(table._arrays()[1]):
        table.index.intern((table.index.size,))
    largest = table.index.size - 1
    table = table.with_rows(np.array([largest]), np.ones((1, a)), 1)
    assert table._arrays()[1][-1] == NO_SLOT
    later = table.index.intern((largest + 1,))
    assert np.array_equal(table.rows(np.array([largest, later, largest - 1])),
                          [np.ones(a), default, default])

    # two branches of one lineage, each writing keys of its own into a slot
    # map that already covers them
    ids = [index.intern((k,)) for k in [*range(7000, 7005), *range(8000, 8090)]]
    params = params.with_rows(np.array(ids[-1:]), np.zeros((1, a)), 1)
    branch = params.snapshot()
    params = apply_gradient(params, {(7000 + i,): np.ones(a) for i in range(5)}, 0.5)
    branch = apply_gradient(branch, {(8000 + i,): np.ones(a) for i in range(89)}, 0.5)
    assert (len(params.logits), len(branch.logits)) == (7, 91)
    assert (params.rows(np.array(ids[5:-1])) == default).all()
    assert (branch.rows(np.array(ids[:5])) == default).all()
    for table in (params, branch):
        assert all(np.array_equal(row_at(table, key), row) for key, row in table.logits.items())
        save_params(table, tmp_path / "branch.jsonl")
        save_params(PolicyParams(a, dict(table.logits), default, table.version),
                    tmp_path / "alone.jsonl")
        assert (tmp_path / "branch.jsonl").read_bytes() == (tmp_path / "alone.jsonl").read_bytes()


def test_a_repeated_checkpoint_key_keeps_its_last_row(tmp_path):
    params = PolicyParams(3, {(1,): np.array([1.0, 2.0, 3.0]), (2,): np.array([4.0, 5.0, 6.0])})
    path = tmp_path / "checkpoint.jsonl"
    save_params(params, path)
    # the repeat comes after more rows than load_params writes at once
    more = {(3, 0, i): np.array([float(i), 0.0, 1.0]) for i in range(1100)}
    path.write_text(path.read_text() + "".join(
        json.dumps({"key": list(key), "logits": row.tolist()}) + "\n" for key, row in more.items())
        + '{"key": [1], "logits": [7.0, 8.0, 9.0]}\n')
    loaded = load_params(path)
    assert loaded.logits == {(1,): np.array([7.0, 8.0, 9.0]), (2,): np.array([4.0, 5.0, 6.0]),
                             **more}
    assert list(loaded.logits)[:3] == [(1,), (2,), (3, 0, 0)]


def test_a_checkpoint_with_actions_past_127_round_trips(tmp_path):
    """Keys whose actions do not fit in a byte are written, sorted and read
    back as they are, and the loaded table evaluates as the trained one."""
    cfg = tiny_cfg(env=EnvConfig(num_actions=200), total_steps=6, eval_every=6)
    trained = run_training(cfg).final_params
    path = tmp_path / "checkpoint.jsonl"
    save_params(trained, path)
    keys = [tuple(json.loads(line)["key"]) for line in path.read_text().splitlines()[1:]]
    assert keys == sorted(dict(trained.logits)) and max(max(key[1::2], default=0)
                                                        for key in keys) >= 128
    loaded = load_params(path)
    assert loaded.logits == trained.logits
    assert not loaded.index._tuple_of  # every key is a full history, kept in the trie
    again = tmp_path / "again.jsonl"
    save_params(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    env = make_env(cfg.env)
    teacher = make_teacher(env)
    records = [runtime.evaluate(params, env, teacher, 16, np.random.default_rng(5),
                                temperature=0.4) for params in (trained, loaded)]
    assert repr(records[0]) == repr(records[1])


# full histories over 3 actions and 4 tokens (many share prefixes), and other tuples
history_keys = st.builds(lambda o, turns: (o,) + sum(turns, ()), st.integers(0, 3),
                         st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), max_size=3))
other_keys = st.lists(st.integers(-3, 300), min_size=1, max_size=7).map(tuple)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(history_keys, other_keys), min_size=1, max_size=40, unique=True))
def test_a_checkpoint_lists_its_keys_in_sorted_order(keys):
    """Histories (read from the trie) and kept tuples, written in key order,
    whatever order the table wrote them in."""
    rows = {key: np.full(3, float(i)) for i, key in enumerate(keys)}
    params = PolicyParams(3, rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.jsonl"
        save_params(params, path)
        written = [tuple(json.loads(line)["key"]) for line in path.read_text().splitlines()[1:]]
        assert written == sorted(keys)
        assert load_params(path).logits == rows
