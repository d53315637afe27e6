"""opdlab benchmark: one workload, one seed, one process.

Run from the repository root::

    python3 bench/run.py --workload train_sync --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``. With ``--trace 0`` the run reports
the end-to-end metrics of BENCHMARK.json. Their times are in reference
seconds, measured times scaled by a host-speed probe run next to them (see
``workloads.py``), because host load on shared machines moves raw times by
more than any bound worth setting; the raw times are printed and kept in the
results file. ``setup_s`` is in reference seconds too. With ``--trace 1`` the
run reports the per-layer metrics instead, from rounds run under the timing
wrappers of ``tracing.py``, alternated with plain rounds to measure the
tracing overhead; these times are raw.
Both print a table, then one JSON line as the last line of standard output::

    {"correct": true, "attempted": 14, "failed": 0, "metrics": {...}}

Each run also writes a results file (machine, source size, seed, every
operation and its outputs) and, when traced, its spans, under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
# A run must end within 180 s; a hung async learner (all actors dead) never
# returns, so give up loudly before that.
WATCHDOG_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "ref_s",
    "cpu_ref_s": "ref_s",
    "student_turns_per_ref_s": "1/ref_s",
    "peak_rss_mb": "MB",
}
LAYERS = ("env", "policy", "curriculum", "distill", "replay", "runtime", "metrics", "cli")
CALLS_ONLY = {"curriculum.horizon_at"}
# Only set-up runs these, so they are reported for one set-up, not per round.
SETUP_TARGETS = {"distill.collect", "cli.cmd_collect"}
SETUP_COUNTS = {"distill.collect_attempts", "distill.collect_successes"}


def _import_program():
    """Import opdlab from this checkout's ``src``; never an installed copy."""
    if not (SRC / "opdlab" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'opdlab'} not found; run from an opdlab checkout")
    sys.path.insert(0, str(SRC))
    import opdlab
    if Path(opdlab.__file__).resolve().parent != (SRC / "opdlab").resolve():
        sys.exit(f"error: imported opdlab from {opdlab.__file__}, not {SRC}")


def machine_info() -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in table order."""
    from tracing import COUNTS, SLEEPS, TARGETS
    names = []
    for t in TARGETS:
        names.append(f"{t.name}.calls")
        if t.name not in CALLS_ONLY:
            names.append(f"{t.name}.busy_s")
    for s in SLEEPS:
        names += [f"{s}.calls", f"{s}_s"]
    names += list(COUNTS)
    names += ["replay.consumed_per_pushed", "replay.discarded_stale",
              "policy.table_rows", "runtime.max_staleness"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["trace.traced_wall_s", "trace.untraced_wall_s", "trace.overhead_s"]
    return names


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("consumed_per_pushed"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def timed_phase(ctx, plan, seconds: float, reference: dict):
    """Run operations round-robin over the round's slots for about ``seconds``.

    At least one whole round runs. After that, an operation starts only if
    its slot's previous duration still fits before the deadline.
    """
    from workloads import ProbedOps, RunCapture, run_op
    probed, last = ProbedOps(), {}
    deadline = time.perf_counter() + seconds
    with RunCapture() as capture:
        for slot in itertools.cycle(plan.slots):
            if len(probed.ops) >= len(plan.slots) and time.perf_counter() + last[slot] > deadline:
                break
            op = run_op(ctx, plan, slot, capture, reference)
            probed.add(op)
            last[slot] = op.wall_s
    probed.flush()
    return probed


def traced_phase(ctx, plan, seconds: float, reference: dict, tracer):
    """Alternate traced and plain rounds for about ``seconds``.

    Returns the traced ops, the plain ops and the number of traced rounds.
    """
    from tracing import install, leftover_wrappers
    from workloads import RunCapture, run_op
    traced, plain, rounds, pair_s = [], [], 0, 0.0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() + pair_s <= deadline:
        t0 = time.perf_counter()
        inst = install(tracer)
        try:
            with RunCapture() as capture:
                for slot in plan.slots:
                    tracer.run_id += 1
                    traced.append(run_op(ctx, plan, slot, capture, reference))
        finally:
            inst.uninstall()
        left = leftover_wrappers()
        if left:
            raise RuntimeError(f"timing wrappers left installed: {left}")
        rounds += 1
        with RunCapture() as capture:
            plain += [run_op(ctx, plan, slot, capture, reference) for slot in plan.slots]
        pair_s = time.perf_counter() - t0
    return traced, plain, rounds


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(ops: list, setup_ref: list[float]) -> dict[str, float]:
    from workloads import median_round
    r = median_round([op for op in ops if op.ok])
    return {
        "setup_s": statistics.median(setup_ref),
        "wall_ref_s": r["wall_ref_s"],
        "cpu_ref_s": r["cpu_ref_s"],
        "student_turns_per_ref_s": r["student_turns"] / r["wall_ref_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(round_tracer, setup_tracer, traced: list, plain: list, rounds: int) -> dict:
    from tracing import COUNTS, SLEEPS, TARGETS
    from workloads import median_round
    agg, counts = round_tracer.totals()
    setup_agg, setup_counts = setup_tracer.totals()
    out: dict[str, float] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for t in TARGETS:
        source, per = (setup_agg, 1) if t.name in SETUP_TARGETS else (agg, rounds)
        calls, busy = source.get(t.name, (0, 0.0))
        out[f"{t.name}.calls"] = calls / per
        if t.name not in CALLS_ONLY:
            out[f"{t.name}.busy_s"] = busy / per
        if t.name not in SETUP_TARGETS:
            self_s[t.name.split(".")[0]] += busy / per
    for s in SLEEPS:
        calls, slept = agg.get(s, (0, 0.0))
        out[f"{s}.calls"], out[f"{s}_s"] = calls / rounds, slept / rounds
    for c in COUNTS:
        out[c] = setup_counts.get(c, 0) if c in SETUP_COUNTS else counts.get(c, 0) / rounds
    pushed = out["replay.entries_pushed"]
    out["replay.consumed_per_pushed"] = out["replay.entries_consumed"] / pushed if pushed else 0.0
    outputs = [op.outputs for op in traced if op.ok]
    out["replay.discarded_stale"] = sum(o.get("discarded_stale", 0) for o in outputs) / rounds
    out["policy.table_rows"] = statistics.mean(o["table_rows"] for o in outputs) if outputs else 0
    out["runtime.max_staleness"] = max((o.get("max_staleness", 0) for o in outputs), default=0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    good_traced = [op for op in traced if op.ok] or traced
    good_plain = [op for op in plain if op.ok] or plain
    out["trace.traced_wall_s"] = median_round(good_traced)["wall_s"]
    out["trace.untraced_wall_s"] = median_round(good_plain)["wall_s"]
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    return {name: out[name] for name in per_layer_names()}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def print_end_to_end(metrics: dict, ops: list, setup_times: list, plan, probes) -> None:
    from workloads import PROBE_NOMINAL_S, median_round, percentile
    good = [op for op in ops if op.ok]
    r = median_round(good)
    slots = ", ".join(plan.slots[:4]) + (", ..." if len(plan.slots) > 4 else "")
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups, reference seconds",
        "wall_ref_s": f"one round ({slots}), each operation at its median",
        "cpu_ref_s": "process CPU time of that round, all threads",
        "student_turns_per_ref_s": "student turns of that round / wall_ref_s",
        "peak_rss_mb": "peak resident memory of the process",
    }
    rows = [(name, value, END_TO_END_UNITS[name], notes[name])
            for name, value in metrics.items()]
    rows += [
        ("setup_raw_s", statistics.median(setup_times), "s", "as setup_s, raw; not scored"),
        ("wall_s", r["wall_s"], "s", "as wall_ref_s, raw; not scored"),
        ("cpu_s", r["cpu_s"], "s", "as cpu_ref_s, raw; not scored"),
        ("host_probe_ms", 1000 * statistics.median(probes), "ms",
         f"median of {len(probes)} probes; ref_s = s * {1000 * PROBE_NOMINAL_S:g} ms / probe"),
        ("student_turns_per_s", r["student_turns"] / r["wall_s"], "1/s", "not scored"),
        ("learner_steps_per_s", r["learner_steps"] / r["wall_s"], "1/s", "not scored"),
        ("eval_episodes_per_s", r["eval_episodes"] / r["wall_s"], "1/s", "not scored"),
        ("error_rate", (len(ops) - sum(op.ok for op in ops)) / len(ops), "ratio",
         "not scored; in attempted/failed"),
    ]
    if plan.kind == "eval":
        calls = [1000 * op.wall_s for op in good]
        beyond = len(calls) - int(0.9 * len(calls))
        rows += [("eval_call_ms_p50", statistics.median(calls), "ms", f"n={len(calls)}; not scored"),
                 ("eval_call_ms_p90", percentile(calls, 90), "ms",
                  f"n={len(calls)}, {beyond} beyond; not scored")]
    print(f"{'metric':<24}{'value':>14}  {'unit':<8} note")
    for name, value, unit, note in rows:
        print(f"{name:<24}{value:>14.4f}  {unit:<8} {note}")


def print_per_layer(metrics: dict) -> None:
    print(f"{'per-layer metric (per round)':<40}{'value':>14}  unit")
    for layer in LAYERS + ("trace",):
        for name, value in metrics.items():
            if name.split(".")[0] == layer:
                print(f"{name:<40}{value:>14.6g}  {_unit(name)}")


def summarize_ops(ops: list) -> dict:
    by_slot: dict[str, dict] = {}
    for op in ops:
        s = by_slot.setdefault(op.slot, {"n": 0, "failed": 0, "digests": [], "outputs": None})
        s["n"] += 1
        s["failed"] += 0 if op.ok else 1
        if op.digest and op.digest not in s["digests"]:
            s["digests"].append(op.digest)
        if op.ok and s["outputs"] is None:
            s["outputs"] = op.outputs
    for slot, s in by_slot.items():
        s["median_s"] = statistics.median(op.wall_s for op in ops if op.slot == slot)
    return by_slot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from tracing import Tracer, install
    from workloads import SETUP_REPEATS, make_plan, repeated_setup

    plan = make_plan(args.workload, args.seed)
    watchdog = threading.Timer(WATCHDOG_S, lambda: (
        print(f"error: run exceeded {WATCHDOG_S:.0f} s", file=sys.stderr, flush=True),
        os._exit(3)))
    watchdog.daemon = True
    watchdog.start()
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    reference: dict[str, str] = {}
    try:
        if args.trace:
            setup_tracer, round_tracer = Tracer(), Tracer()
            inst = install(setup_tracer)
            try:
                ctx, setup_times, setup_ref = repeated_setup(plan, ROOT, work, 1)
            finally:
                inst.uninstall()
            traced, plain, rounds = traced_phase(ctx, plan, args.seconds, reference,
                                                 round_tracer)
            ops, probes = traced + plain, []
            metrics = per_layer(round_tracer, setup_tracer, traced, plain, rounds)
            units = {name: _unit(name) for name in metrics}
        else:
            ctx, setup_times, setup_ref = repeated_setup(plan, ROOT, work,
                                                         SETUP_REPEATS[plan.kind])
            probed = timed_phase(ctx, plan, args.seconds, reference)
            ops, probes = probed.ops, probed.probes
            if not any(op.ok for op in ops):
                sys.exit("error: every operation failed: "
                         + "; ".join(sorted({op.error for op in ops})))
            metrics = end_to_end(ops, setup_ref)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops if not op.ok]
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(), "src_lines": src_lines(),
        "derived_seeds": plan.seeds, "setup_times_s": setup_times,
        "setup_ref_s": setup_ref, "host_probes_s": probes,
        "attempted": len(ops), "failed": len(failed),
        "error_rate": len(failed) / len(ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "by_slot": summarize_ops(ops),
        "failures": [f"{op.slot}: {op.error}" for op in failed],
        "ops": [{"slot": op.slot, "wall_s": op.wall_s, "cpu_s": op.cpu_s, "ok": op.ok,
                 "probe_s": op.probe_s, "student_turns": op.student_turns} for op in ops],
    }
    stem.with_suffix(".json").write_text(json.dumps(results, indent=1) + "\n")
    if args.trace:
        with open(f"{stem}-spans.jsonl", "w") as f:
            for phase, tracer in (("setup", setup_tracer), ("rounds", round_tracer)):
                for span in tracer.spans():
                    f.write(json.dumps({"phase": phase, **span}) + "\n")

    m = results["machine"]
    print(f"opdlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']} python={m['python']} "
          f"numpy={m['numpy']} src_lines={results['src_lines']}")
    print(f"operations: {len(ops)} attempted, {len(failed)} failed, "
          f"error_rate={results['error_rate']:.4f}")
    for line in results["failures"]:
        print(f"FAILED {line}")
    for slot, s in results["by_slot"].items():
        o = s["outputs"] or {}
        print(f"  {slot:<7} n={s['n']:<3} median={s['median_s']:.4f}s sr={o.get('final_sr', float('nan')):.4f} "
              f"traj_kl={o.get('final_traj_kl', float('nan')):.4f} "
              f"digest={(s['digests'] or ['-'])[0][:16]}"
              f"{'' if len(s['digests']) <= 1 else ' MISMATCH'}")
    if args.trace:
        print_per_layer(metrics)
    else:
        print_end_to_end(metrics, ops, setup_times, plan, probes)
    watchdog.cancel()
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
