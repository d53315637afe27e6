"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import opdlab  # noqa: E402
from opdlab.env import EnvConfig, make_env, make_teacher  # noqa: E402
from opdlab.policy import PolicyParams  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Target, Tracer, install, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS, Context, make_plan  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def test_self_time_is_span_minus_child_coverage():
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.wrap(Target("inner", "", span=True), lambda dt: clock.advance(dt))

    def in_other_thread():
        inner(100.0)  # has its own parent stack: must not touch outer's self time

    def outer_body():
        clock.advance(1.0)
        inner(2.0)
        clock.advance(0.5)
        inner(3.0)
        t = threading.Thread(target=in_other_thread)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        clock.advance(0.25)

    outer = tracer.wrap(Target("outer", "", span=True), outer_body)
    outer()

    spans = tracer.spans()
    (top,) = [s for s in spans if s["name"] == "outer"]
    children = [s for s in spans if s["parent"] == top["id"]]
    assert len(children) == 2
    expected = (top["end"] - top["start"]) - _covered((c["start"], c["end"]) for c in children)
    agg, _ = tracer.totals()
    assert agg["outer"] == [1, expected]
    assert expected == 101.75  # the join waits out the other thread
    other = [s for s in spans if s["thread"] != top["thread"]]
    assert [s["parent"] for s in other] == [0]
    assert agg["inner"] == [3, 105.0]


def _small_eval():
    env = make_env(EnvConfig(task_count=4, chain_length=3, horizon_cap=5, num_actions=3))
    teacher = make_teacher(env)
    rng = np.random.Generator(np.random.PCG64(7))
    return opdlab.runtime.evaluate(PolicyParams(num_actions=3), env, teacher, 8, rng)


def _bindings():
    """Every (owner, name) -> object binding in opdlab modules and their classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "opdlab" or name.startswith("opdlab."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for member, obj in vars(value).items():
                        out[(name, attr, member)] = obj
    return out


def test_wrappers_fully_removed_after_traced_run():
    before = _bindings()
    tracer = Tracer()
    inst = install(tracer)
    try:
        assert leftover_wrappers()
        _small_eval()
    finally:
        inst.uninstall()
    agg, counts = tracer.totals()
    assert agg["runtime.evaluate"][0] == 1
    assert agg["distill.rollout"][0] == 8
    assert agg["env.step"][0] > 0 and agg["policy.softmax"][0] > 0
    assert counts["distill.student_turns"] > 0

    assert leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    _small_eval()  # an untraced run in the same process is not timed
    assert tracer.totals() == (agg, counts)


def test_workload_seed_changes_run_seeds_and_nothing_else():
    assert make_plan("train_sync", 3) == make_plan("train_sync", 3)
    for workload in WORKLOADS:
        a, b = make_plan(workload, 1), make_plan(workload, 2)
        assert a.slots == b.slots
        assert a.seeds.keys() == b.seeds.keys()
        assert all(a.seeds[k] != b.seeds[k] for k in a.seeds)
        if a.kind == "eval":
            continue
        ctx = Context(work=Path("w"), config_path=Path("c.yaml"), config=None,
                      store=Path("s.jsonl"))
        for argv_a, argv_b in [(a.collect_argv(Path("c"), Path("s")),
                                b.collect_argv(Path("c"), Path("s")))] + [
                (a.op_argv(slot, ctx), b.op_argv(slot, ctx)) for slot in a.slots]:
            assert len(argv_a) == len(argv_b)
            differ = [(x, y) for x, y in zip(argv_a, argv_b) if x != y]
            assert differ, "the seed must reach the run"
            for x, y in differ:
                assert x.split("=")[0] == y.split("=")[0]
                assert x.split("=")[0] in ("--env.seed", "--runtime.seed")


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])
    assert {t.name for t in tracing.TARGETS} >= run.SETUP_TARGETS
