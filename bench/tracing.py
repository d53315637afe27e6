"""Timing wrappers around the opdlab layers, installed only for a traced run.

A traced run replaces each public function in ``TARGETS`` with a wrapper
that counts calls and adds up busy time, where busy time is the time inside
the function minus the time inside wrapped callees (its self time). It is
wall time on the calling thread, so on async actor threads it includes
waiting for the GIL and the buffer lock. A name is patched in every opdlab
module that binds it, because the modules import their helpers by name:
``distill`` calls its own ``softmax`` binding, not ``policy.softmax``.
Methods are patched once, on their class.

Coarse boundaries (runs, rollouts, evaluations, learner updates, artifact
writes) also record a span: id, name, start, end, parent span, run id and
thread. Parent stacks are kept per thread, so async actor threads get their
own. Hot leaf functions are only aggregated. Everything stays in memory
until the run ends, and ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

WRAPPED_MARK = "__bench_wrapped__"


@dataclass(frozen=True)
class Target:
    """One traced function: metric name, ``module:attr`` or ``module:Class.attr``."""

    name: str
    where: str
    span: bool = False
    pre: Callable | None = None    # pre(state) -> token, before the call
    count: Callable | None = None  # count(state, args, result, token), after it


def _count_rollout(st, args, result, token):
    st.add("distill.student_turns", result.rounds)
    st.add("distill.prefix_turns", result.prefix_len)


def _count_push(st, args, result, token):
    st.add("replay.entries_pushed", len(args[1]))


def _count_sample(st, args, result, token):
    st.add("replay.entries_consumed", len(result))


def _resets_so_far(st):
    return st.calls("env.reset")


def _count_collect(st, args, result, token):
    # every collection attempt starts with exactly one env.reset
    st.add("distill.collect_attempts", st.calls("env.reset") - token)
    st.add("distill.collect_successes", len(result))


TARGETS = (
    Target("env.step", "opdlab.env:Env.step"),
    Target("env.reset", "opdlab.env:Env.reset"),
    Target("env.teacher_dist", "opdlab.env:TeacherPolicy.dist"),
    Target("policy.encode_history", "opdlab.policy:encode_history"),
    Target("policy.softmax", "opdlab.policy:softmax"),
    Target("policy.forward_kl", "opdlab.policy:forward_kl"),
    Target("policy.sample_action", "opdlab.policy:sample_action"),
    Target("policy.snapshot", "opdlab.policy:PolicyParams.snapshot"),
    Target("policy.save_params", "opdlab.policy:save_params", span=True),
    Target("curriculum.horizon_at", "opdlab.curriculum:horizon_at"),
    Target("distill.rollout", "opdlab.distill:_rollout", span=True,
           count=_count_rollout),
    Target("distill.batch_gradient", "opdlab.distill:batch_gradient", span=True),
    Target("distill.apply_gradient", "opdlab.distill:apply_gradient", span=True),
    Target("distill.sft_update", "opdlab.distill:sft_update", span=True),
    Target("distill.nll_loss", "opdlab.distill:nll_loss"),
    Target("distill.store_turns", "opdlab.distill:store_turns"),
    Target("distill.collect", "opdlab.distill:collect_teacher_trajectories",
           span=True, pre=_resets_so_far, count=_count_collect),
    Target("replay.decompose", "opdlab.replay:decompose"),
    Target("replay.push", "opdlab.replay:RingBuffer.push", count=_count_push),
    Target("replay.count_at_version", "opdlab.replay:RingBuffer.count_at_version"),
    Target("replay.count_eligible", "opdlab.replay:RingBuffer.count_eligible"),
    Target("replay.sample_batch", "opdlab.replay:RingBuffer.sample_batch",
           count=_count_sample),
    Target("runtime.evaluate", "opdlab.runtime:evaluate", span=True),
    Target("runtime.run_training", "opdlab.runtime:run_training", span=True),
    Target("runtime.publish", "opdlab.runtime:SnapshotBoard.publish"),
    Target("metrics.append", "opdlab.metrics:MetricsLog.append"),
    Target("metrics.per_turn_kl_profile", "opdlab.metrics:per_turn_kl_profile"),
    Target("metrics.write_records", "opdlab.metrics:write_records", span=True),
    Target("metrics.write_csv", "opdlab.metrics:write_csv", span=True),
    Target("cli.main", "opdlab.cli:main", span=True),
    Target("cli.load_experiment_config", "opdlab.cli:load_experiment_config"),
    Target("cli.cmd_train", "opdlab.cli:cmd_train", span=True),
    Target("cli.cmd_collect", "opdlab.cli:cmd_collect", span=True),
)

# ``runtime`` polls with time.sleep: on the main thread that is the learner
# waiting for data, on actor threads it is actor back-pressure.
LEARNER_WAIT = "runtime.learner_wait"
ACTOR_SLEEP = "runtime.actor_sleep"
SLEEPS = (LEARNER_WAIT, ACTOR_SLEEP)

COUNTS = (
    "distill.student_turns", "distill.prefix_turns",
    "distill.collect_attempts", "distill.collect_successes",
    "replay.entries_pushed", "replay.entries_consumed",
)


class ThreadState:
    """Per-thread aggregates, frame stack and spans; merged when the run ends."""

    def __init__(self, thread: str):
        self.thread = thread
        self.stack: list[list] = []  # frames: [child_time]
        self.span_id = 0             # innermost open span on this thread
        self.agg: dict[str, list] = {}  # name -> [calls, busy_s]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []

    def calls(self, name: str) -> int:
        return self.agg.get(name, (0,))[0]

    def add(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


class Tracer:
    """Collects calls, busy time, counts and spans from wrapped functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.run_id = 0
        self._local = threading.local()
        self._states: list[ThreadState] = []
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)

    def state(self) -> ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = ThreadState(threading.current_thread().name)
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """Return a wrapper of ``fn`` that records under ``target.name``."""
        name = target.name
        clock, state, span_ids = self.clock, self.state, self._span_ids
        pre, count, span = target.pre, target.count, target.span

        def wrapper(*args, **kwargs):
            st = state()
            token = pre(st) if pre else None
            frame = [0.0]
            parent = st.span_id
            sid = next(span_ids) if span else 0
            if span:
                st.span_id = sid
            st.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                st.stack.pop()
                dur = end - start
                if st.stack:
                    st.stack[-1][0] += dur
                agg = st.agg.get(name)
                if agg is None:
                    agg = st.agg[name] = [0, 0.0]
                agg[0] += 1
                agg[1] += dur - frame[0]
                if span:
                    st.span_id = parent
                    st.spans.append((sid, name, start, end, parent, self.run_id,
                                     st.thread))
            if count:
                count(st, args, result, token)
            return result

        wrapper.__name__ = fn.__name__
        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # -- results ----------------------------------------------------------------

    def totals(self) -> tuple[dict[str, list], dict[str, float]]:
        """Calls/busy per name and counts, summed over every thread seen."""
        agg: dict[str, list] = {}
        counts: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, busy) in st.agg.items():
                a = agg.setdefault(name, [0, 0.0])
                a[0] += calls
                a[1] += busy
            for name, n in st.counts.items():
                counts[name] = counts.get(name, 0) + n
        return agg, counts

    def spans(self) -> list[dict]:
        with self._lock:
            states = list(self._states)
        out = [dict(zip(("id", "name", "start", "end", "parent", "run", "thread"), s))
               for st in states for s in st.spans]
        out.sort(key=lambda s: s["start"])
        return out


class _SleepShim:
    """Stands in for the ``time`` module inside ``opdlab.runtime``."""

    def __init__(self, real, learner_sleep, actor_sleep):
        self._real = real
        self._learner_sleep = learner_sleep
        self._actor_sleep = actor_sleep

    def sleep(self, seconds):
        if threading.current_thread() is threading.main_thread():
            return self._learner_sleep(seconds)
        return self._actor_sleep(seconds)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _opdlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "opdlab" or name.startswith("opdlab."))]


def _resolve(where: str):
    """Owner object, attribute name and original object for a target."""
    module_name, _, path = where.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, owner.__dict__[attr]


class Installation:
    """The patches one ``install`` made, undone by ``uninstall``."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr, new) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installation:
    """Patch every target in every opdlab module that binds it."""
    inst = Installation()
    modules = _opdlab_modules()
    try:
        for target in TARGETS:
            owner, attr, original = _resolve(target.where)
            wrapper = tracer.wrap(target, original)
            if isinstance(owner, type):
                inst.patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        inst.patch(module, name, wrapper)
        runtime = importlib.import_module("opdlab.runtime")
        sleep = time.sleep
        inst.patch(runtime, "time", _SleepShim(
            time, tracer.wrap(Target(LEARNER_WAIT, ""), sleep),
            tracer.wrap(Target(ACTOR_SLEEP, ""), sleep)))
    except BaseException:
        inst.uninstall()
        raise
    return inst


def leftover_wrappers() -> list[str]:
    """Names in opdlab modules or classes that still hold a bench wrapper."""
    found = []
    for module in _opdlab_modules():
        for name, value in vars(module).items():
            if getattr(value, WRAPPED_MARK, False) or isinstance(value, _SleepShim):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, WRAPPED_MARK, False):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return sorted(set(found))
