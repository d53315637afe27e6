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
)
from opdlab.env import EnvConfig, make_env, make_teacher
from opdlab.errors import UsageError
from opdlab.metrics import SPLIT_ROLLOUT, EvalRecord
from opdlab.policy import KeyIndex, PolicyParams, load_params, save_params
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
                    np.zeros(n, dtype=np.int64), zeros, zeros, np.zeros((n, horizon, 2)), kl,
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
        # training makes one tuple per history new to the index, to cut its
        # window key; evaluation also cuts those of histories outside the index
        assert 0 < built[0] - in_evaluation[0] <= result.final_params.index.size


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


def test_reading_a_stepped_table_raises(tmp_path):
    """A learner step writes its rows in place into the table it returns, so
    every read of the table it stepped from raises; the next table reads on."""
    params = PolicyParams(3, {(1,): np.array([1.0, 2.0, 3.0])})
    stepped = params
    params = apply_gradient(params, {(2,): np.array([1.0, 0.0, -1.0])}, 0.5)
    reads = {
        "logits_for": lambda: stepped.logits_for((1,)),
        "logits": lambda: dict(stepped.logits),
        "write": lambda: stepped.logits.__setitem__((4,), np.zeros(3)),
        "table": lambda: stepped.table,
        "written": lambda: stepped.written,
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
    holds the rows a per-key dict update gave it; stepping or writing one
    snapshot changes no other table."""
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
    # a step from a snapshot branches the lineage; a write through the
    # mapping of another changes that table alone
    tables.append(apply_gradient(tables[2].snapshot(), {(99,): np.array([1.0, 2.0, 3.0])}, 0.7))
    references.append({**references[2], (99,): default - 0.7 * np.array([1.0, 2.0, 3.0])})
    tables[4].logits[(98,)] = np.array([4.0, 5.0, 6.0])
    references[4][(98,)] = np.array([4.0, 5.0, 6.0])
    params = apply_gradient(params, {(1,): np.ones(3), (98,): np.ones(3)}, 0.7)
    probes = [(i,) for i in range(12)] + [(98,), (99,)]
    for table, reference in zip(tables, references):
        assert list(table.logits) == list(reference)
        for key in probes:
            assert table.logits_for(key).tobytes() == reference.get(key, default).tobytes()
    assert [t.version for t in tables] == list(range(9)) + [3]


def test_a_repeated_checkpoint_key_keeps_its_last_row_and_del_changes_one_table(tmp_path):
    params = PolicyParams(3, {(1,): np.array([1.0, 2.0, 3.0]), (2,): np.array([4.0, 5.0, 6.0])})
    shared = params.snapshot()
    del params.logits[(1,)]
    assert list(params.logits) == [(2,)]
    assert params.logits_for((1,)).tobytes() == np.zeros(3).tobytes()
    assert list(shared.logits) == [(1,), (2,)]
    path = tmp_path / "checkpoint.jsonl"
    save_params(shared, path)
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
