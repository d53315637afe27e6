"""The benchmark tracer's contract with the package: every traced name exists.

bench/tracing.py patches the functions in its TARGETS list by name, and the
``time`` module binding of opdlab.runtime. Deleting or renaming one of them
breaks a traced benchmark run; this test makes it break the test suite.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_every_traced_target_resolves(tracing):
    assert tracing.TARGETS
    for target in tracing.TARGETS:
        owner, attr, original = tracing._resolve(target.where)
        assert callable(original), target.where


def test_runtime_keeps_the_time_binding_the_tracer_patches():
    from opdlab import runtime

    assert hasattr(runtime, "time")


@pytest.mark.parametrize("algo,mode,names", [
    ("opd", "sync", ("distill.batch_gradient", "distill.apply_gradient")),
    ("opd", "async", ("distill.batch_gradient", "distill.apply_gradient")),
    ("sft", "sync", ("distill.sft_update", "distill.nll_loss")),
], ids=["opd-sync", "opd-async", "sft"])
def test_a_run_calls_each_traced_step_name_once_a_step(tracing, algo, mode, names):
    """Per-layer timing reads these names' busy times. A run that did its
    steps without calling them through the module bindings the tracer
    patches would read 0 for them, and fail nothing else."""
    from opdlab.distill import collect_teacher_trajectories
    from opdlab.env import make_env, make_teacher
    from opdlab.runtime import RunConfig, run_training

    config = RunConfig(algo=algo, mode=mode, actor_count=2, total_steps=12, eval_every=12,
                       eval_episodes=4, seed=5)
    store = None
    if algo == "sft":
        env = make_env(config.env)
        store = collect_teacher_trajectories(env, make_teacher(env), config.pass_m,
                                             np.random.default_rng(5))
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    try:
        run_training(config, store)
    finally:
        installation.uninstall()
    assert not tracing.leftover_wrappers()
    calls = tracer.totals()[0]
    assert [calls.get(name, [0])[0] for name in names] == [config.total_steps] * 2
