"""The checkpoint and metrics writers against their plain forms in
tests/oracles.py: the same bytes, and for checkpoints no more memory;
load_params against a plain intern of each key in file order and against
the plain loader; and KeyIndex.intern_all against plain interns in order."""

from __future__ import annotations

import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from opdlab.metrics import EvalRecord, MetricsLog, TrainRecord, write_records
from opdlab.policy import KeyIndex, PolicyParams, load_params, save_params, window_key
from opdlab.runtime import RunConfig, run_training


def bits_float(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# signed zeros, subnormals, the normal extremes, infinities and NaNs of either
# sign and with a payload, and values whose repr is long
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -2.5e-320,
           1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
           -math.nan, bits_float(0x7FF8000000000001), bits_float(0xFFF0000000000123),
           0.1, 1.0 / 3.0, 0.1 + 0.2, -2.5, 123456789.123456789]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.sampled_from([0.25, -0.75, 3.5]))


@st.composite
def tables(draw):
    """A table over histories that share prefixes (with actions past 127 when
    it has 200 actions), their windowed keys and other kept tuples, with
    rows of ``floats``; a snapshot of it also wrote some keys that it did
    not write."""
    num_actions = draw(st.sampled_from([3, 200]))
    turns = st.tuples(st.integers(0, num_actions - 1), st.integers(0, 3))
    history = st.builds(lambda o, t: (o,) + sum(t, ()), st.integers(0, 3),
                        st.lists(turns, max_size=4))
    windowed = st.builds(window_key, history, st.integers(1, 2))
    other = st.lists(st.integers(-3, 2 ** 31 + 1), min_size=1, max_size=5).map(tuple)
    keys = draw(st.lists(st.one_of(history, windowed, other), min_size=1, max_size=40,
                         unique=True))
    # a row repeats a drawn run of up to 8 floats
    row = st.lists(floats, min_size=1, max_size=8).map(lambda x: np.resize(x, num_actions))
    rows = np.array([draw(row) for _ in keys])
    default, version = draw(row), draw(st.integers(0, 10 ** 6))
    dropped = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    with np.errstate(all="ignore"):  # the softmax of a row with inf or NaN
        params = PolicyParams(num_actions, None, default, version)
        ids = np.array([params.index.intern(key) for key in keys])
        params.snapshot().write(ids, rows, version)  # the snapshot writes every key
        kept = np.array([key not in dropped for key in keys])
        params.write(ids[kept], rows[kept], version)
        return params


@settings(max_examples=150, deadline=None)
@given(tables())
def test_save_params_writes_the_bytes_of_the_plain_writer(params):
    with tempfile.TemporaryDirectory() as tmp:
        path, plain = Path(tmp) / "checkpoint.jsonl", Path(tmp) / "plain.jsonl"
        save_params(params, path)
        oracles.save_params(params, plain)
        assert path.read_bytes() == plain.read_bytes()


@settings(max_examples=150, deadline=None)
@given(tables())
def test_load_params_interns_each_key_as_a_plain_intern_in_file_order(params):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "checkpoint.jsonl", Path(tmp) / "again.jsonl"
        save_params(params, path)
        written = path.read_bytes()
        with np.errstate(all="ignore"):
            loaded = load_params(path)
        save_params(loaded, again)  # the same rows (a NaN comes back as json's NaN)
        assert again.read_bytes() == written
    plain = KeyIndex(params.num_actions)
    for key in loaded.logits:  # in file order: the order of first appearance
        plain.intern(key)
    index = loaded.index
    assert index.size == plain.size and index._tuple_of == plain._tuple_of
    for name in ("parent", "act", "last"):
        assert np.array_equal(getattr(index, name)[:index.size],
                              getattr(plain, name)[:plain.size])


def trained_like_table(rows: int, seed: int, distinct: int) -> PolicyParams:
    """About ``rows`` rows over 6 actions at histories of 32 tasks that share
    their prefixes, as a trained table has them, with their floats drawn from
    ``distinct`` values."""
    gen = np.random.default_rng(seed)
    pool = gen.normal(size=distinct)
    keys = set()
    while len(keys) < rows:
        key = (int(gen.integers(32)),)
        for _ in range(int(gen.integers(12))):
            key += (int(gen.integers(6)), int(gen.integers(4)))
            keys.add(key)
    return PolicyParams(6, {key: gen.choice(pool, 6) for key in keys})


def traced_peak(write, params, path) -> int:
    write(params, path)  # caches and imports first
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        write(params, path)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("distinct", [1200, 36000])  # about 1 float in 30, all
def test_save_params_peaks_at_no_more_memory_than_the_plain_writer(tmp_path, distinct):
    params = trained_like_table(6000, 3, distinct)
    peak = traced_peak(save_params, params, tmp_path / "checkpoint.jsonl")
    plain = traced_peak(oracles.save_params, params, tmp_path / "plain.jsonl")
    assert peak <= plain
    assert (tmp_path / "checkpoint.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()


def test_load_params_peaks_at_no_more_memory_than_the_plain_loader(tmp_path):
    path = tmp_path / "checkpoint.jsonl"
    save_params(trained_like_table(6000, 3, 1200), path)
    peak = traced_peak(lambda _, p: load_params(p), None, path)
    plain = traced_peak(lambda _, p: oracles.load_params(p), None, path)
    assert peak <= plain


@settings(max_examples=100, deadline=None)
@given(tables(), st.randoms(use_true_random=False))
def test_load_params_reads_shuffled_repeated_rows_as_the_plain_loader(params, rand):
    """Rows in any order, some repeated with other logits, and blank lines."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.jsonl"
        save_params(params, path)
        header, *rows = path.read_text().splitlines()
        for row in rand.sample(rows, len(rows) // 3):
            row = json.loads(row)
            rows.append(json.dumps({"key": row["key"], "logits": row["logits"][::-1]}))
        rand.shuffle(rows)
        path.write_text("\n".join([header] + rows[:2] + [""] + rows[2:]) + "\n")
        with np.errstate(all="ignore"):
            loaded, plain = load_params(path), oracles.load_params(path)
    assert np.array_equal(loaded.logits.ids, plain.logits.ids)
    assert loaded.logits.rows.tobytes() == plain.logits.rows.tobytes()
    assert_same_index(loaded.index, plain.index)


def assert_same_index(index, plain):
    assert index.size == plain.size
    for name in ("parent", "act", "last", "child"):
        assert np.array_equal(getattr(index, name), getattr(plain, name)), name
    for name in ("_roots", "_siblings", "_tuples", "_tuple_of"):
        assert list(getattr(index, name).items()) == list(getattr(plain, name).items()), name


# histories over 3 actions and 4 tokens, so a node often has two children by one
# action, the empty key, and kept tuples with negative ints and ints past int32 and int64
intern_keys = st.one_of(
    st.builds(lambda o, turns: (o,) + sum(turns, ()), st.integers(0, 3),
              st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), max_size=4)),
    st.just(()),
    st.lists(st.one_of(st.integers(-3, 3),
                       st.sampled_from([2 ** 31, 2 ** 40, 2 ** 63, -2 ** 63 - 1])),
             min_size=1, max_size=5).map(tuple))


@settings(max_examples=300, deadline=None)
@given(st.lists(intern_keys, max_size=30), st.lists(intern_keys, max_size=40),
       st.randoms(use_true_random=False))
def test_intern_all_interns_as_plain_interns_in_order(before, keys, rand):
    keys += rand.sample(keys, len(keys) // 3)  # repeats
    index, plain = KeyIndex(3), KeyIndex(3)
    for key in before:  # a non-empty index, as RowBlock.of meets one
        index.intern(key)
        plain.intern(key)
    ids = index.intern_all(keys)
    assert ids.tolist() == [plain.intern(key) for key in keys]
    assert_same_index(index, plain)


# -- metrics logs -----------------------------------------------------------------------


counts = st.integers(0, 10 ** 6)
eval_records = st.builds(EvalRecord, step=counts, success_rate=floats, avg_rounds=floats,
                         traj_kl_mean=floats, traj_kl_turn_mean=floats,
                         per_turn_kl=st.lists(floats, max_size=8), active_k=counts,
                         split=st.sampled_from(["eval", "rollout"]), n_rollouts=counts,
                         mean_prefix_len=floats)
train_records = st.builds(TrainRecord, step=counts, loss=floats, grad_norm=floats,
                          buffer_size=counts, discarded_stale=counts, active_k=counts,
                          mean_staleness=floats)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(eval_records, train_records), max_size=12), st.text(max_size=20))
def test_write_records_writes_the_bytes_of_the_plain_writer(records, config_hash):
    log = MetricsLog(config_hash)
    for record in records:
        log.append(record)
    with tempfile.TemporaryDirectory() as tmp:
        path, plain = Path(tmp) / "metrics.jsonl", Path(tmp) / "plain.jsonl"
        write_records(log, path)
        oracles.write_records(log, plain)
        assert path.read_bytes() == plain.read_bytes()


def test_the_plain_writers_are_what_a_run_wrote(tmp_path):
    """The oracles write a trained table and its log as the writers do."""
    result = run_training(RunConfig(algo="f2b", total_steps=12, eval_every=4, batch_size=8,
                                    eval_episodes=8, seed=5))
    for write, plain, value in ((save_params, oracles.save_params, result.final_params),
                                (write_records, oracles.write_records, result.log)):
        write(value, tmp_path / "a.jsonl")
        plain(value, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
