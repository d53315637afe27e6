from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdlab.distill import collect_teacher_trajectories, rollout_batch
from opdlab.env import COMPOUNDING_CHAIN, MEMORY_LOCK, EnvConfig, make_env, make_teacher
from opdlab.errors import ConfigError, UsageError
from opdlab.metrics import (
    EvalRecord,
    MetricsLog,
    TrainRecord,
    config_hash,
    kl_profile,
    per_turn_kl_profile,
    read_records,
    round9,
    write_csv,
    write_records,
)
from opdlab.policy import PolicyParams

import oracles
from joined import episode, episodes


def eval_record(step=0, **kw):
    base = dict(step=step, success_rate=0.5, avg_rounds=8.25, traj_kl_mean=1.5,
                traj_kl_turn_mean=0.1875, per_turn_kl=[0.1, 0.2], active_k=3,
                split="eval", n_rollouts=64, mean_prefix_len=0.0)
    base.update(kw)
    return EvalRecord(**base)


def train_record(step=0, **kw):
    base = dict(step=step, loss=0.25, grad_norm=1.125, buffer_size=96,
                discarded_stale=4, active_k=2, mean_staleness=0.5)
    base.update(kw)
    return TrainRecord(**base)


# -- profile ------------------------------------------------------------------------


def test_profile_zero_for_matched_policies():
    env = make_env(EnvConfig())
    teacher = make_teacher(env, on_support_temperature=1e-3)
    params = oracles.materialize(teacher)
    u = np.random.default_rng(0).random((8, env.config.horizon_cap))
    rollouts = rollout_batch("opd", env, params, teacher, np.arange(8),
                             env.config.horizon_cap, u)
    assert all(v == 0.0 for v in per_turn_kl_profile(rollouts))


def test_profile_single_trajectory_equals_turn_kls():
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    student = PolicyParams(num_actions=6)
    rollouts = episode("opd", env, student, teacher, 0, 12, np.random.default_rng(1))
    profile = per_turn_kl_profile(rollouts)
    assert profile == rollouts.kl[0, :rollouts.rounds[0]].tolist()


def test_profile_increases_for_uniform_student():
    from scipy import stats

    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    student = PolicyParams(num_actions=6)
    u = np.random.default_rng(2).random((64, env.config.horizon_cap))
    rollouts = rollout_batch("opd", env, student, teacher, np.arange(64) % 32,
                             env.config.horizon_cap, u)
    profile = per_turn_kl_profile(rollouts)
    rho = stats.spearmanr(np.arange(len(profile)), profile).statistic
    assert rho > 0


def test_profile_empty_input_rejected():
    env = make_env(EnvConfig())
    teacher = make_teacher(env)
    u = np.zeros((1, env.config.horizon_cap))
    one = rollout_batch("opd", env, PolicyParams(num_actions=6), teacher, [0], 1, u)
    with pytest.raises(UsageError):
        per_turn_kl_profile(episodes([one], []))


def dict_loop_profile(rollouts):
    """The per-turn KL profile as a loop of per-index sums and counts over
    each episode's student turns: the oracle."""
    sums, counts, max_idx = {}, {}, -1
    for e in range(len(rollouts)):
        start = int(rollouts.prefix_len[e])
        for t in range(start, start + int(rollouts.rounds[e])):
            sums[t] = sums.get(t, 0.0) + float(rollouts.kl[e, t])
            counts[t] = counts.get(t, 0) + 1
            max_idx = max(max_idx, t)
    return [sums[t] / counts[t] if counts.get(t) else math.nan for t in range(max_idx + 1)]


def bits(values):
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("kind,window", [(COMPOUNDING_CHAIN, None), (COMPOUNDING_CHAIN, 2),
                                         (MEMORY_LOCK, None), (MEMORY_LOCK, 2)])
def test_profile_bitwise_equals_the_dict_loop_on_b2f_batches(kind, window):
    env = make_env(EnvConfig(kind=kind))
    teacher = make_teacher(env)
    store = collect_teacher_trajectories(env, teacher, 10, np.random.default_rng(7))
    gen = np.random.default_rng(5)
    rows = oracles.materialize(teacher, window).logits
    student = PolicyParams(6, {key: 0.25 * row + gen.normal(0.0, 0.5, row.shape)
                               for key, row in rows.items()})
    by_k = []  # the batches of k = 1, 3, 6 and 12: episodes 0-23, 24-47, 48-71 and 72-95
    for k in (1, 3, 6, 12):
        tasks = gen.integers(0, env.config.task_count, 24)
        u = gen.random((24, env.config.horizon_cap))
        by_k.append(rollout_batch("b2f", env, student, teacher, tasks, k, u,
                                  store=store, window=window))
    rows = [np.arange(5), np.arange(24), np.r_[24:48, 0:24], np.arange(72, 73)]
    rows += [gen.permutation(96)[:n] for n in (2, 9, 40, 96)]
    batches = [episodes(by_k, r) for r in rows]
    nan_columns = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # empty columns divide without a warning
        for batch in batches:
            profile = per_turn_kl_profile(batch)
            assert bits(profile) == bits(dict_loop_profile(batch))
            nan_columns += sum(math.isnan(x) for x in profile)
    assert nan_columns  # the prefixes leave columns that no student played


def test_kl_profile_masks_unplayed_turns():
    kl = np.array([[0.5, 9.0, 0.25], [1.5, 0.75, 9.0]])
    played = np.array([[True, False, True], [True, True, False]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kl_profile(kl, played) == [1.0, 0.75, 0.25]
        assert bits(kl_profile(kl[:, :2], np.zeros((2, 2), dtype=bool))) == bits([math.nan] * 2)
    # one column of many rows: np.sum would add it pairwise, the loop adds in row order
    column = np.random.default_rng(0).random((300, 1)) ** 3
    total = 0.0
    for value in column[:, 0].tolist():
        total += value
    assert bits(kl_profile(column, np.ones((300, 1), dtype=bool))) == bits([total / 300])


def test_success_rate_is_exact_fraction():
    env = make_env(EnvConfig())
    teacher = make_teacher(env, on_support_temperature=1e-3)
    params = oracles.materialize(teacher)
    u = np.random.default_rng(3).random((10, env.config.horizon_cap))
    rollouts = rollout_batch("opd", env, params, teacher, np.arange(10) % 32,
                             env.config.horizon_cap, u)
    k = sum(rollouts.success.tolist())
    assert k / 10 == rollouts.success.mean()
    assert k == 10  # expert path always succeeds


# -- serialization --------------------------------------------------------------------


def test_round9():
    assert round9(0.123456789123456) == 0.123456789
    assert round9(1e-300) == 1e-300
    assert math.isnan(round9(math.nan))


def test_round_trip_equal_records(tmp_path):
    log = MetricsLog(config_hash="abc123")
    log.append(train_record(step=0))
    log.append(eval_record(step=0, success_rate=1 / 3, traj_kl_mean=math.pi))
    log.append(train_record(step=1, loss=1e-12))
    path = tmp_path / "m.jsonl"
    write_records(log, path)
    loaded = read_records(path)
    assert loaded.config_hash == "abc123"
    assert loaded.records == log.records


def test_empty_log_writes_header_only(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_records(MetricsLog(config_hash="x"), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["schema_version"] == 1


def test_schema_version_mismatch_rejected(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text('{"kind": "metrics", "schema_version": 99, "config_hash": ""}\n')
    with pytest.raises(ConfigError, match="schema version"):
        read_records(path)


HEADER = '{"config_hash": "", "kind": "metrics", "schema_version": 1}\n'


@pytest.mark.parametrize("text, line, error", [
    ("[1, 2]\n", 1, "not a metrics log"),
    (HEADER + "this is not json\n", 2, "JSONDecodeError"),
    (HEADER + '{"type": "train", "step": 1}\n', 2, "TypeError"),
    ("", 1, "JSONDecodeError"),
    (HEADER + "\n[1]\n", 3, "not a record object"),
])
def test_a_malformed_log_is_rejected_naming_the_file_and_line(tmp_path, text, line, error):
    path = tmp_path / "m.jsonl"
    path.write_text(text)
    with pytest.raises(ConfigError) as raised:
        read_records(path)
    assert str(raised.value).startswith(f"{path}: line {line}: ")
    assert error in str(raised.value)


def test_floats_serialized_at_9_significant_digits(tmp_path):
    log = MetricsLog()
    log.append(train_record(loss=0.12345678987654321))
    path = tmp_path / "m.jsonl"
    write_records(log, path)
    stored = json.loads(path.read_text().splitlines()[1])
    assert stored["loss"] == 0.123456790
    assert log.records[0].loss == 0.123456790


def test_write_is_byte_stable(tmp_path):
    log = MetricsLog(config_hash="h")
    log.append(eval_record())
    log.append(train_record())
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_records(log, a)
    write_records(log, b)
    assert a.read_bytes() == b.read_bytes()


# floats of every kind a record field can hold: NaN, infinities, signed zeros,
# subnormals, and ints in float fields
values = st.one_of(st.floats(), st.integers(-3, 3),
                   st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                                    -1e-310, 2.2250738585072014e-308, 1e300]))
records = st.one_of(
    st.builds(TrainRecord, step=st.integers(0, 500), loss=values, grad_norm=values,
              buffer_size=st.integers(0, 4096), discarded_stale=st.integers(0, 99),
              active_k=st.integers(0, 12), mean_staleness=values),
    st.builds(EvalRecord, step=st.integers(0, 500), success_rate=values, avg_rounds=values,
              traj_kl_mean=values, traj_kl_turn_mean=values,
              per_turn_kl=st.lists(values, max_size=6), active_k=st.integers(0, 12),
              split=st.sampled_from(["eval", "rollout"]), n_rollouts=st.integers(0, 64),
              mean_prefix_len=values))


def nulled(value):
    """``value`` with NaN, alone or in a list, as None."""
    if isinstance(value, list):
        return [nulled(x) for x in value]
    return None if isinstance(value, float) and math.isnan(value) else value


@settings(max_examples=200, deadline=None)
@given(st.lists(records, max_size=8))
def test_each_record_line_is_json_dumps_of_the_record(tmp_path_factory, appended):
    """A record appended holds the values of the record made by its
    constructor from each of its fields rounded by round9, and its line is
    json.dumps(sort_keys=True) of its fields and type, with NaN as null."""
    # each record's fields rounded, read before append rounds them in place
    rounded = [{name: [round9(x) if isinstance(x, float) else x for x in value]
                if isinstance(value, list) else round9(value) if isinstance(value, float)
                else value for name, value in asdict(record).items()} for record in appended]
    log = MetricsLog(config_hash="h")
    for record in appended:
        log.append(record)
    path = tmp_path_factory.mktemp("records") / "m.jsonl"
    write_records(log, path)
    header, *lines = path.read_text().splitlines()
    assert header == json.dumps({"kind": "metrics", "schema_version": 1,
                                 "config_hash": "h"}, sort_keys=True)
    assert len(lines) == len(appended)
    for line, record, fields_rounded, held in zip(lines, appended, rounded, log.records):
        assert repr(held) == repr(type(record)(**fields_rounded))
        kind = "train" if isinstance(record, TrainRecord) else "eval"
        fields = {name: nulled(value) for name, value in asdict(held).items()}
        assert line == json.dumps({**fields, "type": kind}, sort_keys=True)


def test_nan_profile_entries_round_trip(tmp_path):
    log = MetricsLog()
    log.append(eval_record(per_turn_kl=[0.5, math.nan, 1.0]))
    path = tmp_path / "m.jsonl"
    write_records(log, path)
    loaded = read_records(path).records[0]
    assert loaded.per_turn_kl[0] == 0.5
    assert math.isnan(loaded.per_turn_kl[1])
    assert loaded.per_turn_kl[2] == 1.0


def test_csv_export(tmp_path):
    log = MetricsLog()
    log.append(eval_record(step=5, per_turn_kl=[0.1, 0.2, 0.3]))
    log.append(train_record(step=5))
    log.append(eval_record(step=6, per_turn_kl=[0.4]))
    path = tmp_path / "m.csv"
    write_csv(log, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("step,split,active_k,success_rate")
    assert lines[0].endswith("kl_t0,kl_t1,kl_t2")
    assert len(lines) == 3  # header + two eval records, train excluded
    assert lines[2].endswith(",,")  # shorter profile padded


def test_config_hash_order_insensitive():
    a = config_hash({"x": 1, "y": {"z": 2}})
    b = config_hash({"y": {"z": 2}, "x": 1})
    assert a == b
    assert a != config_hash({"x": 2, "y": {"z": 2}})
