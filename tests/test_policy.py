from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdlab.distill import apply_gradient
from opdlab.errors import UsageError
from opdlab.policy import (
    PolicyParams,
    RowBlock,
    encode_history,
    forward_kl,
    kl_logit_gradient,
    load_params,
    sample_action,
    save_params,
    softmax,
    window_key,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# -- history encoding ---------------------------------------------------------


def test_encode_history_full():
    key = encode_history([5, 7, 9], [1, 2])
    assert key == (5, 1, 7, 2, 9)


def test_encode_history_initial_only():
    assert encode_history([4], []) == (4,)


def test_encode_history_window_keeps_o0():
    obs = [10, 11, 12, 13, 14]
    acts = [0, 1, 2, 3]
    key = encode_history(obs, acts, window=2)
    assert key[0] == 10
    assert key == (10, 12, 2, 13, 3, 14)


def test_encode_history_wide_window_equals_full():
    obs = [1, 2, 3]
    acts = [4, 5]
    assert encode_history(obs, acts, window=10) == encode_history(obs, acts)


def test_encode_history_window_regimes_never_alias():
    full = encode_history([1, 2, 3], [4, 5])
    windowed = encode_history([1, 9, 2, 3], [8, 4, 5], window=2)
    assert len(full) % 2 == 1 and len(windowed) % 2 == 0
    assert full != windowed


def test_encode_history_length_mismatch():
    with pytest.raises(UsageError):
        encode_history([1, 2], [0, 1])


def reference_key(observations, actions, window):
    """The key written out element by element: o_0, then (o_i, a_i) for every
    kept turn i < t, then o_t; a window keeps turns t - window .. t - 1."""
    t = len(actions)
    if window is None or window >= t:
        key = [observations[0]]
        for i in range(t):
            key += [actions[i], observations[i + 1]]
        return tuple(key)
    key = [observations[0]]
    for i in range(t - window, t):
        key += [observations[i], actions[i]]
    return tuple(key + [observations[t]])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_encode_history_equals_the_per_element_reference(data):
    t = data.draw(st.integers(0, 12))
    observations = data.draw(st.lists(st.integers(0, 99), min_size=t + 1, max_size=t + 1))
    actions = data.draw(st.lists(st.integers(0, 5), min_size=t, max_size=t))
    window = data.draw(st.sampled_from([None, 0, 1, t, t + 1, t + 7]))
    key = encode_history(np.array(observations), np.array(actions), window)
    assert key == reference_key(observations, actions, window)
    assert all(type(x) is int for x in key)
    full = encode_history(observations, actions)
    assert window_key(full, window) == key


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_window_key_of_a_window_key_and_one_turn_is_the_next_window_key(data):
    """Cutting the window key of h followed by one more turn gives the window
    key of h followed by that turn, so the engine can step window keys
    without the full history."""
    t = data.draw(st.integers(0, 9))
    history = tuple(data.draw(st.lists(st.integers(0, 99), min_size=2 * t + 1,
                                       max_size=2 * t + 1)))
    turn = (data.draw(st.integers(0, 5)), data.draw(st.integers(0, 99)))
    window = data.draw(st.integers(0, 3))
    assert window_key(window_key(history, window) + turn, window) == window_key(
        history + turn, window)


# -- softmax / a table's action distribution ------------------------------------


def test_softmax_symmetry():
    assert np.allclose(softmax(np.zeros(3)), [1 / 3] * 3)


def test_softmax_two_action_closed_form():
    expected = np.array([math.e / (math.e + 1), 1 / (math.e + 1)])
    assert np.allclose(softmax(np.array([1.0, 0.0])), expected, atol=1e-12)


def action_dist(params, key, temperature=1.0):
    """softmax(logits[key] / temperature); unseen keys use the default row."""
    return softmax(params.logits.get(key, params.default_logits), temperature)


def test_action_dist_unseen_key_uniform():
    params = PolicyParams(num_actions=4)
    assert np.allclose(action_dist(params, (9, 9, 9)), 0.25)


def test_action_dist_temperature_sharpens():
    params = PolicyParams(num_actions=3, logits={(0,): np.array([1.0, 0.0, 0.0])})
    hot = action_dist(params, (0,), temperature=0.25)
    mild = action_dist(params, (0,), temperature=1.0)
    assert hot[0] > mild[0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
       st.floats(0.01, 10))
def test_action_dist_always_valid(logits, temperature):
    p = softmax(np.array(logits), temperature)
    assert (p >= 0).all()
    assert abs(p.sum() - 1.0) < 1e-12


# -- forward KL ---------------------------------------------------------------


def test_forward_kl_identity():
    p = np.array([0.2, 0.3, 0.5])
    assert forward_kl(p, p) == 0.0


def test_forward_kl_half_vs_onehot():
    assert forward_kl(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
        math.log(2), abs=1e-12)


def test_forward_kl_closed_form():
    expected = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
    got = forward_kl(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.143841, abs=1e-6)


def test_forward_kl_dimension_mismatch():
    with pytest.raises(UsageError):
        forward_kl(np.array([1.0, 0.0]), np.array([0.5, 0.25, 0.25]))


def test_forward_kl_zero_student_mass_is_floored():
    val = forward_kl(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert val == pytest.approx(math.log(1e12), rel=1e-9)


@st.composite
def distributions(draw, size=None):
    n = size or draw(st.integers(2, 6))
    raw = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    arr = np.array(raw)
    return arr / arr.sum()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_forward_kl_nonnegative_and_zero_iff_equal(data):
    n = data.draw(st.integers(2, 6))
    p = data.draw(distributions(size=n))
    q = data.draw(distributions(size=n))
    kl = forward_kl(p, q)
    assert kl >= 0.0
    assert forward_kl(p, p) == 0.0
    if np.abs(p - q).max() > 1e-6:
        assert kl > 0.0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_forward_kl_equals_sum_over_support_for_wide_rows(data):
    # forward_kl sums all A terms, zeros included; the sum over only the
    # p_i > 0 terms groups differently from A = 8 on, so the two may differ
    # by reordering round-off and nothing more
    n = data.draw(st.integers(8, 40))
    p = data.draw(distributions(size=n))
    p[data.draw(st.lists(st.integers(0, n - 1), max_size=n - 1))] = 0.0
    p /= p.sum()
    q = data.draw(distributions(size=n))
    support = p > 0
    terms = p[support] * (np.log(p[support]) - np.log(q[support]))
    tol = n * np.finfo(np.float64).eps * np.abs(terms).sum()
    assert abs(forward_kl(p, q) - max(0.0, float(np.sum(terms)))) <= tol


# -- KL logit gradient ---------------------------------------------------------


def test_gradient_zero_at_minimum():
    p = np.array([0.25, 0.75])
    assert np.array_equal(kl_logit_gradient(p, p), np.zeros(2))


def test_gradient_closed_form():
    g = kl_logit_gradient(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert np.allclose(g, [-0.5, 0.5], atol=1e-15)


def _fd_gradient(loss, z, step=1e-5):
    g = np.zeros_like(z)
    for i in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[i] += step
        zm[i] -= step
        g[i] = (loss(zp) - loss(zm)) / (2 * step)
    return g


def test_gradient_matches_finite_differences():
    gen = rng(7)
    for _ in range(25):
        n = int(gen.integers(2, 6))
        p_raw = gen.uniform(0.05, 1.0, n)
        p = p_raw / p_raw.sum()
        z = gen.normal(0, 1.5, n)
        analytic = kl_logit_gradient(p, softmax(z))
        numeric = _fd_gradient(lambda zz: forward_kl(p, softmax(zz)), z)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-6


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gradient_components_sum_to_zero(data):
    n = data.draw(st.integers(2, 6))
    p = data.draw(distributions(size=n))
    q = data.draw(distributions(size=n))
    assert abs(kl_logit_gradient(p, q).sum()) < 1e-12


# -- sampling -------------------------------------------------------------------


def test_sample_degenerate_first():
    gen = rng(3)
    assert all(sample_action(np.array([1.0, 0.0, 0.0]), gen) == 0 for _ in range(50))


def test_sample_degenerate_second():
    gen = rng(3)
    assert all(sample_action(np.array([0.0, 1.0]), gen) == 1 for _ in range(50))


def test_sample_frequency_half():
    gen = rng(1234)
    dist = np.array([0.5, 0.5])
    draws = sum(sample_action(dist, gen) == 0 for _ in range(10000))
    assert 0.47 <= draws / 10000 <= 0.53


def test_sample_reproducible_per_seed():
    dist = np.array([0.3, 0.3, 0.4])
    a = [sample_action(dist, rng(9)) for _ in range(1)]
    b = [sample_action(dist, rng(9)) for _ in range(1)]
    assert a == b


# -- checkpoint I/O --------------------------------------------------------------


def test_params_round_trip(tmp_path):
    params = PolicyParams(3, {(1, 2, 3): np.array([0.1, -0.2, 0.3]),
                              (0,): np.array([1.5, 0.0, -1.5])}, version=4)
    path = tmp_path / "ckpt.jsonl"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.version == 4
    assert loaded.num_actions == 3
    assert set(loaded.logits) == set(params.logits)
    for k in params.logits:
        assert np.array_equal(loaded.logits[k], params.logits[k])


def test_params_save_is_byte_stable(tmp_path):
    params = PolicyParams(2, {(5,): np.array([0.123456789012345, -2.0])}, version=1)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_params(params, a)
    save_params(params, b)
    assert a.read_bytes() == b.read_bytes()


def test_params_rows_are_json_dumps_of_float_lists(tmp_path):
    # each row must read exactly as json.dumps(sort_keys=True) of the key and
    # of float() of every logit, also for signed zeros, extreme exponents,
    # non-terminating binary fractions and long keys
    rows = {
        (3,): [-0.0, 1e-300, 1e300, 0.1],
        tuple(range(400, 431)): [0.1 + 0.2, -1e300, -1e-300, 5e-324],
        (0, 1, 2): [1.0 / 3.0, -2.5, 0.0, 123456789.123456789],
        (12, 0, 40): [-0.1, 2.0 ** 60, -(2.0 ** -60), 1.7976931348623157e308],
    }
    params = PolicyParams(4, {key: np.array(row, dtype=np.float64) for key, row in rows.items()},
                          np.array([-0.0, 0.1, 1e-300, 1e300]), version=7)
    path = tmp_path / "ckpt.jsonl"
    save_params(params, path)
    header = {"schema": 1, "kind": "policy_params", "num_actions": 4, "version": 7,
              "default_logits": [float(x) for x in params.default_logits]}
    expected = [json.dumps(header, sort_keys=True)] + [
        json.dumps({"key": list(key), "logits": [float(x) for x in params.logits[key]]},
                   sort_keys=True)
        for key in sorted(params.logits)]
    assert path.read_text() == "\n".join(expected) + "\n"


def test_load_rejects_wrong_kind(tmp_path):
    path = tmp_path / "bogus.jsonl"
    path.write_text('{"schema": 1, "kind": "something_else"}\n')
    with pytest.raises(UsageError):
        load_params(path)


@pytest.mark.parametrize("row", ['{"key": [0], "logits": [0.1, 0.2]}',
                                 '{"key": [0, 1, 2], "logits": [0.1, 0.2, 0.3, 0.4]}'])
def test_load_rejects_row_of_wrong_width(tmp_path, row):
    params = PolicyParams(3, {(4,): np.array([0.1, 0.2, 0.3])})
    path = tmp_path / "ckpt.jsonl"
    save_params(params, path)
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(UsageError, match="num_actions=3"):
        load_params(path)


@pytest.mark.parametrize("key", [[1.5], [1.0], [True], [0, 1, 2.0], ["1"]])
def test_load_rejects_key_entries_that_are_not_ints(tmp_path, key):
    # int() would read [1.5] as (1,), a second row at the key [1]
    params = PolicyParams(3, {(1,): np.array([0.1, 0.2, 0.3])})
    path = tmp_path / "ckpt.jsonl"
    save_params(params, path)
    header, row = path.read_text().splitlines()
    bad = json.dumps({"key": key, "logits": [0.4, 0.5, 0.6]})
    path.write_text("\n".join([header, bad, row]) + "\n")
    with pytest.raises(UsageError) as err:
        load_params(path)
    assert str(err.value) == (f"{path}: line 2: row key {key} has an entry that is not "
                              "an int")


@pytest.mark.parametrize("key", [(1.5,), (1.0,), (True, 0, 2), (0, 1, 2.0), ("1",),
                                 (np.int64(1),), 1])
def test_writes_reject_keys_that_are_not_tuples_of_ints(key):
    # int() would store (1.5,) at (1,) and (True, 0, 2) at (1, 0, 2)
    row = np.array([0.1, 0.2, 0.3])
    message = (f"row key {list(key)} has an entry that is not an int" if type(key) is tuple
               else f"row key {key!r} is not a tuple")
    params = PolicyParams(num_actions=3)
    for write in (lambda: PolicyParams(3, {(2,): row, key: row}),
                  lambda: RowBlock.of({key: row}, params.index, 3)):  # apply_gradient's
        with pytest.raises(UsageError) as err:
            write()
        assert str(err.value) == message
    assert len(params.logits) == 0 and params.index.size == 1


@pytest.mark.parametrize("rows", [{(1,): np.zeros(6)}, {(1,): np.zeros(2), (2,): np.zeros(4)}])
def test_writes_reject_rows_of_the_wrong_width(rows):
    # each mapping holds 6 floats, which a reshape to rows of 3 would take silently
    params = PolicyParams(num_actions=3)
    for write in (lambda: PolicyParams(3, rows), lambda: RowBlock.of(rows, params.index, 3),
                  lambda: apply_gradient(params, rows, 0.5)):
        with pytest.raises(UsageError) as err:
            write()
        key, row = next(iter(rows.items()))
        assert str(err.value) == f"row {key} has {row.size} logits, expected num_actions=3"
    assert len(params.logits) == 0 and params.index.size == 1 and params.version == 0


@pytest.mark.parametrize("field,value", [("num_actions", 3.7), ("num_actions", 3.0),
                                         ("num_actions", True), ("version", 4.9),
                                         ("version", "4")])
def test_load_rejects_header_values_that_are_not_ints(tmp_path, field, value):
    # int() would read num_actions 3.7 as 3 and version 4.9 as 4
    params = PolicyParams(3, {(1,): np.array([0.1, 0.2, 0.3])}, version=4)
    path = tmp_path / "ckpt.jsonl"
    save_params(params, path)
    header, row = path.read_text().splitlines()
    header = json.loads(header)
    header[field] = value
    path.write_text("\n".join([json.dumps(header), row]) + "\n")
    with pytest.raises(UsageError) as err:
        load_params(path)
    assert str(err.value) == f"{path}: line 1: num_actions and version must be ints"


@pytest.mark.parametrize("logits", [["0.5", True, None], ["1.5", False, None], ["0.5", 0.0, 0.0],
                                    [0.0, True, 0.0], [0.0, 0.0, None], [0.0, [0.5], 0.0],
                                    "0.5"])
def test_load_rejects_logits_that_are_not_numbers(tmp_path, logits):
    # numpy would read "0.5" as 0.5, true as 1.0 and null as NaN
    path = tmp_path / "ckpt.jsonl"
    save_params(PolicyParams(3, {(1,): np.array([0.1, 0.2, 0.3])}), path)
    header, row = path.read_text().splitlines()
    path.write_text("\n".join([header, row, json.dumps({"key": [2], "logits": logits})]) + "\n")
    with pytest.raises(UsageError) as err:
        load_params(path)
    assert str(err.value) == f"{path}: line 3: row (2,) has a logit that is not a number"
    header = json.loads(header)
    header["default_logits"] = logits
    path.write_text("\n".join([json.dumps(header), row]) + "\n")
    with pytest.raises(UsageError) as err:
        load_params(path)
    assert str(err.value) == f"{path}: line 1: row default has a logit that is not a number"


def test_load_names_the_first_faulty_line_of_a_block(tmp_path):
    # line 3 has a key entry that is not an int and line 5 is not json: line 3 is named
    path = tmp_path / "ckpt.jsonl"
    save_params(PolicyParams(3, {(k,): np.full(3, 0.5) for k in range(3)}), path)
    header, *rows = path.read_text().splitlines()
    bad = json.dumps({"key": [1.5], "logits": [0.1, 0.2, 0.3]})
    path.write_text("\n".join([header, rows[0], bad, rows[1], "this is not json", rows[2]]) + "\n")
    with pytest.raises(UsageError) as err:
        load_params(path)
    assert str(err.value) == f"{path}: line 3: row key [1.5] has an entry that is not an int"


@pytest.mark.parametrize("line,message", [
    (json.dumps({"key": [5000], "logits": [0.1, 0.2]}),
     "row (5000,) has 2 logits, expected num_actions=3"),
    ("this is not json", "cannot read a policy checkpoint (JSONDecodeError: Expecting value: "
                         "line 1 column 1 (char 0))")])
def test_load_names_a_faulty_line_past_the_first_block(tmp_path, line, message):
    path = tmp_path / "ckpt.jsonl"
    save_params(PolicyParams(3, {(k,): np.full(3, 0.5) for k in range(1028)}), path)
    with path.open("a") as f:  # line 1,030
        f.write(line + "\n")
    with pytest.raises(UsageError) as err:
        load_params(path)
    assert str(err.value) == f"{path}: line 1030: {message}"


def test_load_rejects_default_row_of_wrong_width(tmp_path):
    path = tmp_path / "ckpt.jsonl"
    header = {"schema": 1, "kind": "policy_params", "num_actions": 3, "version": 0,
              "default_logits": [0.0, 0.0]}
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(UsageError, match="default"):
        load_params(path)


@pytest.mark.parametrize("default", [np.zeros(2), np.zeros(4), np.zeros((1, 3))])
def test_params_reject_default_row_of_wrong_shape(default):
    with pytest.raises(UsageError, match="default"):
        PolicyParams(num_actions=3, default_logits=default)
