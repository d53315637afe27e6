"""The benchmark tracer's contract with the package: every traced name exists.

bench/tracing.py patches the functions in its TARGETS list by name, and the
``time`` module binding of opdlab.runtime. Deleting or renaming one of them
breaks a traced benchmark run; this test makes it break the test suite.
"""

from __future__ import annotations

from pathlib import Path

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
