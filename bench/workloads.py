"""Workload plans, set-up, timed operations and their output checks.

Every workload uses the environment of ``configs/default.yaml``
(compounding_chain, 6 actions, chain 8, horizon 12, 32 tasks) and drives
opdlab through its public entry points only: ``opdlab.cli.main`` for
``collect`` and ``train``, and ``opdlab.runtime.evaluate``.

* ``train_sync``: one round is ``opdlab train`` for opd, f2b, b2f and sft,
  400 sync steps each, evaluated only at the final step.
* ``train_async``: one round is opd, f2b and b2f through the same CLI path
  with ``--runtime.mode=async`` and two actor threads.
* ``eval_ckpt``: one round is 16 calls of ``evaluate`` on an f2b checkpoint
  trained during set-up, each with the config's 64 episodes, the size of the
  evaluation a default training run makes every 5 steps.

The workload seed is the only input. Every config seed and run seed below is
derived from it, and each round repeats the same runs with the same seeds,
so sync runs and evaluations must give byte-identical outputs every round.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import shutil
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from opdlab import cli, runtime
from opdlab.env import make_env, make_teacher
from opdlab.metrics import read_records
from opdlab.policy import load_params

CONFIG = Path("configs") / "default.yaml"
STEPS = 400
ACTOR_COUNT = 2
EVAL_CALLS_PER_ROUND = 16

WORKLOADS = {
    "train_sync": {"kind": "train", "mode": "sync", "algos": ("opd", "f2b", "b2f", "sft")},
    "train_async": {"kind": "train", "mode": "async", "algos": ("opd", "f2b", "b2f")},
    "eval_ckpt": {"kind": "eval"},
}
SETUP_REPEATS = {"train": 15, "eval": 3}

# Order of the seeds drawn from the workload seed. Appending keeps old ones.
_SEED_SLOTS = ("env", "collect", "ckpt", "opd", "f2b", "b2f", "sft") + tuple(
    f"eval{i}" for i in range(EVAL_CALLS_PER_ROUND))


@dataclass(frozen=True)
class Plan:
    """Everything a workload run does, generated from the workload seed."""

    workload: str
    seed: int
    seeds: dict[str, int]

    @property
    def kind(self) -> str:
        return WORKLOADS[self.workload]["kind"]

    @property
    def slots(self) -> tuple[str, ...]:
        """The operations of one round, in order."""
        if self.kind == "eval":
            return tuple(f"eval{i}" for i in range(EVAL_CALLS_PER_ROUND))
        return WORKLOADS[self.workload]["algos"]

    def collect_argv(self, config: Path, store: Path) -> list[str]:
        return ["collect", str(config), "--out", str(store),
                f"--env.seed={self.seeds['env']}",
                f"--runtime.seed={self.seeds['collect']}"]

    def train_argv(self, config: Path, store: Path | None, out_dir: Path,
                   algo: str, mode: str, seed_slot: str | None = None) -> list[str]:
        argv = ["train", str(config)]
        if store is not None:
            argv += ["--store", str(store)]
        argv += [f"--env.seed={self.seeds['env']}",
                 f"--runtime.seed={self.seeds[seed_slot or algo]}",
                 f"--runtime.algo={algo}",
                 f"--runtime.mode={mode}",
                 f"--curriculum.total_steps={STEPS}",
                 f"--runtime.eval_every={STEPS}",
                 f"--run.output_dir={out_dir}",
                 f"--run.name={algo}"]
        if mode == "async":
            argv.append(f"--runtime.actor_count={ACTOR_COUNT}")
        return argv

    def op_argv(self, slot: str, ctx: "Context") -> list[str]:
        mode = WORKLOADS[self.workload]["mode"]
        return self.train_argv(ctx.config_path, ctx.store, ctx.work / "runs", slot, mode)


def make_plan(workload: str, seed: int) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    state = np.random.SeedSequence(seed).generate_state(len(_SEED_SLOTS))
    return Plan(workload, seed, {slot: int(s) for slot, s in zip(_SEED_SLOTS, state)})


# ---------------------------------------------------------------------------
# Host speed reference
# ---------------------------------------------------------------------------
#
# On a shared 2-core VM the same 400-step run took 1.7x longer for minutes
# at a time, with CPU time tracking wall time, so host load swamps the
# differences worth measuring. A fixed probe loop run between operations
# slows down with the host (correlation 0.75 with 1-2 s operations there).
# Times divided by the probe's time and multiplied by PROBE_NOMINAL_S are
# "reference seconds": seconds on a host where the probe takes
# PROBE_NOMINAL_S. The probe runs no opdlab code, so changing opdlab cannot
# move it.

PROBE_NOMINAL_S = 0.010
PROBE_STEPS = 1000
PROBE_REPS = 5
PROBE_EVERY_S = 1.0  # of operation time between probes


def host_probe() -> float:
    """Median time of a fixed loop shaped like opdlab's per-turn work."""
    times = []
    zero = np.zeros(6)
    for _ in range(PROBE_REPS):
        rng = np.random.Generator(np.random.PCG64(1))
        table: dict[tuple, np.ndarray] = {}
        key: tuple = (1,)
        t0 = time.perf_counter()
        for i in range(PROBE_STEPS):
            key = key[-9:] + (i % 7, i % 5)
            row = table.get(key, zero)
            e = np.exp(row - row.max())
            q = e / e.sum()
            table[key] = row + 0.1 * q
            int(np.searchsorted(np.cumsum(q), rng.random()))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class ProbedOps:
    """Collects operations and gives each the mean probe time around it."""

    def __init__(self):
        self.ops: list[OpResult] = []
        self._pending: list[OpResult] = []
        self._since = 0.0
        self._probe = host_probe()
        self.probes = [self._probe]

    def add(self, op: OpResult) -> None:
        self.ops.append(op)
        self._pending.append(op)
        self._since += op.wall_s
        if self._since >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        probe = host_probe()
        self.probes.append(probe)
        for op in self._pending:
            op.probe_s = (self._probe + probe) / 2
        self._probe, self._pending, self._since = probe, [], 0.0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass
class Context:
    """What set-up leaves for the timed operations."""

    work: Path
    config_path: Path
    config: cli.ExperimentConfig
    store: Path | None = None
    env: object = None
    teacher: object = None
    params: object = None
    digest: str = ""


def _check_checkpoint(path: Path, num_actions: int):
    params = load_params(path)
    _check(params.num_actions == num_actions,
           f"{path.name}: {params.num_actions} actions, expected {num_actions}")
    _check(len(params.default_logits) == num_actions
           and all(len(row) == num_actions for row in params.logits.values()),
           f"{path.name}: a row does not have {num_actions} entries")
    return params


def setup(plan: Plan, root: Path, work: Path) -> Context:
    """Build the environment and the inputs the timed operations need."""
    work.mkdir(parents=True)
    config_path = root / CONFIG
    config = cli.load_experiment_config(config_path, {"env": {"seed": plan.seeds["env"]}})
    ctx = Context(work=work, config_path=config_path, config=config)
    ctx.env = make_env(config.run.env)
    if plan.kind == "train":
        ctx.store = work / "store.jsonl"
        rc = _cli(plan.collect_argv(config_path, ctx.store))
        _check(rc == 0, f"collect exited with {rc}")
        ctx.digest = _digest(ctx.store)
    else:
        ctx.teacher = make_teacher(ctx.env, **asdict(config.run.teacher))
        out_dir = work / "ckpt"
        rc = _cli(plan.train_argv(config_path, None, out_dir, "f2b", "sync", "ckpt"))
        _check(rc == 0, f"checkpoint training exited with {rc}")
        ckpt = out_dir / "f2b" / "checkpoint.jsonl"
        ctx.params = _check_checkpoint(ckpt, config.run.env.num_actions)
        ctx.digest = _digest(ckpt)
    return ctx


def repeated_setup(plan: Plan, root: Path, work_base: Path, repeats: int,
                   ) -> tuple[Context, list[float], list[float]]:
    """Set up ``repeats`` times and keep the last context.

    Returns every set-up time in seconds and in reference seconds, each
    divided by the mean of the host probes run just before and after it.
    """
    times, ref_times, ctx = [], [], None
    probe = host_probe()
    for i in range(repeats):
        if ctx is not None:
            shutil.rmtree(ctx.work)
        gc.collect()
        t0 = time.perf_counter()
        new = setup(plan, root, work_base / f"setup{i}")
        times.append(time.perf_counter() - t0)
        after = host_probe()
        ref_times.append(times[-1] * PROBE_NOMINAL_S / ((probe + after) / 2))
        probe = after
        _check(ctx is None or new.digest == ctx.digest,
               "set-up output differs between repeats with the same seed")
        ctx = new
    return ctx, times, ref_times


# ---------------------------------------------------------------------------
# Timed operations
# ---------------------------------------------------------------------------


class RunCapture:
    """Keeps the TrainingResult of every run_training call the CLI makes.

    The CLI writes artifacts but returns only an exit code; the output checks
    also need the in-memory log and ``max_staleness_seen``.
    """

    def __init__(self):
        self.results: list = []
        self._original = None

    def __enter__(self):
        self._original = cli.run_training
        original = self._original

        def run_training(*args, **kwargs):
            result = original(*args, **kwargs)
            self.results.append(result)
            return result

        cli.run_training = run_training
        return self

    def __exit__(self, *exc):
        cli.run_training = self._original


@dataclass
class OpResult:
    slot: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    student_turns: int = 0
    learner_steps: int = 0
    eval_episodes: int = 0
    ok: bool = False
    error: str = ""
    digest: str = ""
    outputs: dict = field(default_factory=dict)
    probe_s: float = PROBE_NOMINAL_S  # host probe time around this operation

    @property
    def wall_ref_s(self) -> float:
        return self.wall_s * PROBE_NOMINAL_S / self.probe_s

    @property
    def cpu_ref_s(self) -> float:
        return self.cpu_s * PROBE_NOMINAL_S / self.probe_s


def _canonical(log) -> str:
    return json.dumps([log.config_hash] + [[type(r).__name__, asdict(r)] for r in log.records])


def _check_train(ctx: Context, op: OpResult, rc: int, capture: RunCapture,
                 deterministic: bool) -> None:
    _check(rc == 0, f"opdlab train exited with {rc}")
    _check(len(capture.results) == 1, "expected one run_training call per train command")
    result = capture.results.pop()
    run_dir = ctx.work / "runs" / op.slot
    metrics_path, ckpt_path = run_dir / "metrics.jsonl", run_dir / "checkpoint.jsonl"
    log = read_records(metrics_path)
    _check(_canonical(log) == _canonical(result.log),
           "metrics.jsonl does not round-trip through read_records")
    evals = log.eval_records(split="eval")
    _check(bool(evals) and evals[-1].step == STEPS - 1, "no final eval record")
    final = evals[-1]
    _check(0.0 <= final.success_rate <= 1.0, f"final SR {final.success_rate} outside [0, 1]")
    delta_max = ctx.config.run.delta_max
    _check(result.max_staleness_seen <= delta_max,
           f"max staleness {result.max_staleness_seen} > delta_max {delta_max}")
    params = _check_checkpoint(ckpt_path, ctx.config.run.env.num_actions)
    _check(len(params.logits) == len(result.final_params.logits),
           "checkpoint row count differs from the trained table")
    op.student_turns = sum(round(r.n_rollouts * r.avg_rounds) for r in log.eval_records())
    op.learner_steps = len(log.train_records())
    op.eval_episodes = sum(r.n_rollouts for r in evals)
    if deterministic:
        op.digest = _digest(metrics_path, ckpt_path)
    op.outputs = {
        "final_sr": final.success_rate,
        "final_traj_kl": final.traj_kl_mean,
        "table_rows": len(result.final_params.logits),
        "discarded_stale": log.train_records()[-1].discarded_stale,
        "max_staleness": result.max_staleness_seen,
    }


def run_train_op(ctx: Context, plan: Plan, slot: str, capture: RunCapture) -> OpResult:
    op = OpResult(slot)
    argv = plan.op_argv(slot, ctx)
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    rc = _cli(argv)
    op.wall_s, op.cpu_s = time.perf_counter() - t0, time.process_time() - c0
    _check_train(ctx, op, rc, capture, WORKLOADS[plan.workload]["mode"] == "sync")
    return op


def run_eval_op(ctx: Context, plan: Plan, slot: str, capture: RunCapture) -> OpResult:
    op = OpResult(slot)
    run = ctx.config.run
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(plan.seeds[slot])))
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    record = runtime.evaluate(ctx.params, ctx.env, ctx.teacher, run.eval_episodes, rng,
                              temperature=run.eval_temperature, window=run.window)
    op.wall_s, op.cpu_s = time.perf_counter() - t0, time.process_time() - c0
    _check(record.n_rollouts == run.eval_episodes, f"{record.n_rollouts} episodes evaluated")
    _check(0.0 <= record.success_rate <= 1.0, f"SR {record.success_rate} outside [0, 1]")
    op.student_turns = round(record.n_rollouts * record.avg_rounds)
    op.eval_episodes = record.n_rollouts
    op.digest = hashlib.sha256(json.dumps(asdict(record)).encode()).hexdigest()
    op.outputs = {"final_sr": record.success_rate, "final_traj_kl": record.traj_kl_mean,
                  "table_rows": len(ctx.params.logits)}
    return op


def run_op(ctx: Context, plan: Plan, slot: str, capture: RunCapture,
           reference: dict[str, str]) -> OpResult:
    """Run one operation and check it. Never raises for a failed operation.

    ``reference`` maps each slot to the digest of its first run; a later
    repeat with another digest fails, since the same seed must give the same
    bytes.
    """
    fn = run_eval_op if plan.kind == "eval" else run_train_op
    try:
        op = fn(ctx, plan, slot, capture)
        if op.digest:
            first = reference.setdefault(slot, op.digest)
            _check(op.digest == first, f"{slot}: output digest differs from an earlier repeat")
        op.ok = True
        return op
    except Exception as e:  # an operation boundary: record, report, carry on
        capture.results.clear()
        return OpResult(slot, ok=False, error=f"{type(e).__name__}: {e}")


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------


ROUND_FIELDS = ("wall_s", "cpu_s", "wall_ref_s", "cpu_ref_s",
                "student_turns", "learner_steps", "eval_episodes")


def median_round(ops: list[OpResult]) -> dict[str, float]:
    """One round built from each slot's median operation, field by field.

    Medians per slot are robust to a stray slow operation, and a whole round
    keeps the operation mix fixed however many operations fit in the time.
    """
    by_slot: dict[str, list[OpResult]] = {}
    for op in ops:
        by_slot.setdefault(op.slot, []).append(op)
    return {f: sum(statistics.median(getattr(op, f) for op in slot_ops)
                   for slot_ops in by_slot.values())
            for f in ROUND_FIELDS}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile by ``statistics.quantiles`` (exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]
