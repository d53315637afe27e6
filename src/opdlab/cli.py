"""Experiment runner: config loading, collect/train/eval/sweep subcommands.

Configs are YAML files with flat sections mirroring the package modules::

    run:        name, output_dir, store_path
    env:        kind, horizon_cap, num_actions, chain_length,
                off_support_depth, seed, task_count
    teacher:    on_support_temperature, off_support_floor,
                turn_sharpening, depth_decay
    curriculum: k_start, eta, cap, total_steps
    runtime:    algo, lr, batch_size, actor_count, delta_max,
                buffer_capacity, eval_every, eval_episodes, seed, mode,
                pass_m, train_temperature, eval_temperature, window

Unknown sections or keys are rejected. Every key can be overridden on the
command line with --section.key=value.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .atomic import atomic_open
from .distill import ALGO_B2F, ALGO_SFT, collect_teacher_trajectories, load_store, save_store
from .env import EnvConfig, TeacherConfig, TeacherPolicy, make_env
from .errors import ConfigError, UsageError
from .metrics import EvalRecord, MetricsLog, config_hash, write_csv, write_records
from .policy import load_params, save_params
from .runtime import RunConfig, evaluate, run_training

_COLLECT_SEED_SALT = 919
# libyaml's safe loader and dumper, which read and write as PyYAML's do, faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

_RUN_TYPES = {f.name: f.type for f in fields(RunConfig)}
_CURRICULUM_KEYS = ("k_start", "eta", "cap", "total_steps")
# every key of each section, with its declared type (None: not checked)
_SECTIONS = {
    "run": {"name": None, "output_dir": "str", "store_path": "str | None"},
    "env": {f.name: f.type for f in fields(EnvConfig)},
    "teacher": {f.name: f.type for f in fields(TeacherConfig)},
    "curriculum": {key: _RUN_TYPES[key] for key in _CURRICULUM_KEYS},
    "runtime": {key: kind for key, kind in _RUN_TYPES.items()
                if key not in ("env", "teacher", *_CURRICULUM_KEYS)},
}
# what a declared type is called, and the YAML values it takes (no bool is an int)
_TYPE_CHECKS = {
    "int": ("an int", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) in (int, float)),
    "str": ("a string", lambda v: type(v) is str),
    "int | None": ("an int or null", lambda v: v is None or type(v) is int),
    "str | None": ("a string or null", lambda v: v is None or type(v) is str),
}


@dataclass
class ExperimentConfig:
    name: str
    output_dir: Path
    store_path: Path | None
    run: RunConfig
    raw: dict

    @property
    def run_dir(self) -> Path:
        return self.output_dir / self.name


def _validate_sections(raw: dict, path) -> None:
    for section, content in raw.items():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"{path}: section [{section}] must be a mapping")
        unknown = set(content).difference(_SECTIONS[section])
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)} in section [{section}]")
        for key, value in content.items():
            expected, fits = _TYPE_CHECKS.get(_SECTIONS[section][key], ("", None))
            if fits and not fits(value):
                raise ConfigError(f"{path}: {section}.{key} must be {expected}, got {value!r}")


def _load_yaml(text, where: str):
    """``text``, a str or a file, as YAML; a fault in it is a ConfigError naming ``where``."""
    try:
        return yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(e, "problem", None) or str(e).splitlines()[0]
        raise ConfigError(f"{where}: malformed YAML{at}: {problem}") from e


def parse_overrides(tokens: list[str]) -> dict:
    """Parse --section.key=value tokens into a nested dict."""
    out: dict = {}
    for tok in tokens:
        if not tok.startswith("--") or "=" not in tok:
            raise ConfigError(
                f"unrecognized argument {tok!r}; overrides look like "
                "--section.key=value"
            )
        dotted, value = tok[2:].split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override {tok!r} needs a section.key form")
        section, key = dotted.split(".", 1)
        out.setdefault(section, {})[key] = _load_yaml(value, f"override {tok!r}")
    return out


def load_experiment_config(path, overrides: dict | None = None) -> ExperimentConfig:
    path = Path(path)
    try:
        with open(path) as f:
            raw = _load_yaml(f, str(path)) or {}
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping of sections")
    for section, content in (overrides or {}).items():
        held = raw.get(section)
        if held is None or isinstance(held, dict):  # _validate_sections rejects the rest
            raw[section] = {**(held or {}), **content}
    _validate_sections(raw, path)

    run_section, env, teacher, curriculum, runtime = (
        raw.get(name) or {} for name in ("run", "env", "teacher", "curriculum", "runtime"))
    run_config = RunConfig(env=EnvConfig(**env), teacher=TeacherConfig(**teacher),
                           **curriculum, **runtime)
    store_path = run_section.get("store_path")
    return ExperimentConfig(
        name=str(run_section.get("name", "run")),
        output_dir=Path(run_section.get("output_dir", "runs")),
        store_path=Path(store_path) if store_path else None,
        run=run_config,
        raw=raw,
    )


def _echo_config(config: ExperimentConfig, out_dir: Path) -> None:
    with atomic_open(out_dir / "config.yaml") as f:
        yaml.dump(config.raw, f, Dumper=_DUMPER, sort_keys=True)


def _format_eval(record: EvalRecord) -> str:
    return (f"step={record.step} split={record.split} "
            f"sr={record.success_rate:.4f} rounds={record.avg_rounds:.2f} "
            f"traj_kl={record.traj_kl_mean:.4f} active_k={record.active_k}")


def _collection_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, _COLLECT_SEED_SALT])))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_collect(config: ExperimentConfig, out_path) -> int:
    env = make_env(config.run.env)
    teacher = TeacherPolicy(env, config.run.teacher)
    rng = _collection_rng(config.run.seed)
    store = collect_teacher_trajectories(env, teacher, config.run.pass_m, rng,
                                         collection_seed=config.run.seed)
    covered = len(store)
    total = config.run.env.task_count
    if covered == 0:
        print("collection failed: 0 tasks solved", file=sys.stderr)
        return 1
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_store(store, out_path)
    mean_l = float(np.mean([len(a) for a in store.actions_by_task.values()]))
    print(f"collected {covered}/{total} tasks, mean L={mean_l:.2f} -> {out_path}")
    if store.skipped_tasks:
        print(f"skipped tasks (no success in pass@{config.run.pass_m}): "
              f"{store.skipped_tasks}")
    return 0


def _load_store_for(config: ExperimentConfig, store_arg: str | None):
    if config.run.algo not in (ALGO_B2F, ALGO_SFT):
        return None
    path = Path(store_arg) if store_arg else config.store_path
    if path is None:
        raise ConfigError(
            f"algo={config.run.algo} needs an expert trajectory store; pass "
            "--store PATH or set run.store_path in the config"
        )
    if not path.exists():
        raise ConfigError(f"expert trajectory store not found: {path}")
    return load_store(path, make_env(config.run.env))


def cmd_train(config: ExperimentConfig, store_arg: str | None = None) -> int:
    store = _load_store_for(config, store_arg)
    result = run_training(config.run, store)
    # the run directory appears only once the run has succeeded
    out_dir = config.run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(config, out_dir)
    result.log.config_hash = config_hash(config.raw)
    write_records(result.log, out_dir / "metrics.jsonl")
    write_csv(result.log, out_dir / "metrics.csv")
    save_params(result.final_params, out_dir / "checkpoint.jsonl")

    final_eval = result.log.eval_records(split="eval")[-1]
    print(f"[{config.name}] final eval: {_format_eval(final_eval)}")
    print(f"[{config.name}] artifacts in {out_dir}")
    return 0


def cmd_eval(checkpoint_path, config: ExperimentConfig) -> int:
    try:
        params = load_params(checkpoint_path)
    except UsageError as e:
        raise ConfigError(f"cannot load checkpoint: {e}") from e
    if params.num_actions != config.run.env.num_actions:
        raise ConfigError(
            f"checkpoint has {params.num_actions} actions but the environment "
            f"has {config.run.env.num_actions}"
        )
    env = make_env(config.run.env)
    teacher = TeacherPolicy(env, config.run.teacher)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(config.run.seed)))
    record = evaluate(params, env, teacher, config.run.eval_episodes, rng,
                      temperature=config.run.eval_temperature,
                      window=config.run.window)
    out_dir = config.run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    log = MetricsLog(config_hash=config_hash(config.raw))
    log.append(record)
    write_records(log, out_dir / "eval.jsonl")
    print(_format_eval(record))
    return 0


def cmd_sweep(config_path, etas: list[int], overrides: dict,
              store_arg: str | None) -> int:
    jobs = []
    for eta in etas:
        job_overrides = {k: dict(v) for k, v in overrides.items()}
        job_overrides.setdefault("curriculum", {})["eta"] = eta
        cfg = load_experiment_config(config_path, job_overrides)
        cfg.name = f"{cfg.name}_eta{eta}"
        cfg.raw["run"] = {**(cfg.raw.get("run") or {}), "name": cfg.name}
        jobs.append(cfg)
    status = 0
    for cfg in jobs:
        status = max(status, cmd_train(cfg, store_arg))
    return status


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opdlab",
        description="Distillation training laboratory for tabular multi-turn policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_collect = sub.add_parser("collect", help="collect expert trajectories")
    p_collect.add_argument("config")
    p_collect.add_argument("--out", help="store file path (default: run.store_path)")

    p_train = sub.add_parser("train", help="run a training experiment")
    p_train.add_argument("config")
    p_train.add_argument("--store", help="expert trajectory store (b2f/sft)")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("config")

    p_sweep = sub.add_parser("sweep", help="train across curriculum growth rates")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--eta", required=True, help="comma-separated, e.g. 2,4,6")
    p_sweep.add_argument("--store", help="expert trajectory store (b2f/sft)")

    return parser


def _parse_eta_list(spec: str) -> list[int]:
    try:
        etas = [int(x) for x in spec.split(",") if x.strip()]
    except ValueError as e:
        raise ConfigError(f"bad eta list {spec!r}: {e}") from e
    if not etas:
        raise ConfigError(f"empty eta list {spec!r}")
    return etas


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        overrides = parse_overrides(extra)
        if args.command == "collect":
            config = load_experiment_config(args.config, overrides)
            out = args.out or config.store_path
            if out is None:
                raise ConfigError("give --out or set run.store_path for collect")
            return cmd_collect(config, out)
        if args.command == "train":
            config = load_experiment_config(args.config, overrides)
            return cmd_train(config, args.store)
        if args.command == "eval":
            config = load_experiment_config(args.config, overrides)
            return cmd_eval(args.checkpoint, config)
        if args.command == "sweep":
            return cmd_sweep(args.config, _parse_eta_list(args.eta), overrides,
                             args.store)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
