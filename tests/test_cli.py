from __future__ import annotations

import json

import pytest
import yaml

from opdlab.cli import _echo_config, load_experiment_config, main, parse_overrides
from opdlab.distill import load_store, save_store
from opdlab.env import EnvConfig, TeacherPolicy, make_env, make_teacher
from opdlab.errors import ConfigError
from opdlab.metrics import read_records
from opdlab.policy import save_params

import oracles


def write_config(path, **updates):
    cfg = {
        "run": {"name": "t", "output_dir": str(path.parent / "out")},
        "env": {"task_count": 8, "chain_length": 4, "horizon_cap": 6,
                "num_actions": 4, "off_support_depth": 1},
        "curriculum": {"k_start": 1, "eta": 2, "total_steps": 10},
        "runtime": {"algo": "opd", "batch_size": 8, "eval_every": 5,
                    "eval_episodes": 16, "seed": 3},
    }
    for section, content in updates.items():
        cfg.setdefault(section, {}).update(content)
    path.write_text(yaml.safe_dump(cfg))
    return cfg


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.yaml"
    write_config(path)
    return path


# -- config loading ------------------------------------------------------------------


def test_load_config_builds_run_config(config_path):
    cfg = load_experiment_config(config_path)
    assert cfg.name == "t"
    assert cfg.run.env.task_count == 8
    assert cfg.run.total_steps == 10


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    write_config(path, env={"gravity": 9.8})
    with pytest.raises(ConfigError, match="gravity"):
        load_experiment_config(path)


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    write_config(path)
    data = yaml.safe_load(path.read_text())
    data["plotting"] = {"dpi": 300}
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ConfigError, match="plotting"):
        load_experiment_config(path)


@pytest.mark.parametrize("overrides", [[], ["--env.seed=3"]])
@pytest.mark.parametrize("content", [[1, 2], 5])
def test_a_section_that_is_not_a_mapping_is_rejected(tmp_path, capsys, content, overrides):
    """With or without an override into it, the section is named and the run
    exits 2."""
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"env": content}))
    assert main(["train", str(path), *overrides]) == 2
    assert capsys.readouterr().err == f"error: {path}: section [env] must be a mapping\n"


def test_a_failed_config_echo_leaves_no_config_yaml(config_path, tmp_path, monkeypatch):
    config = load_experiment_config(config_path)

    def dump(data, stream, **kwargs):
        stream.write("env: {")
        raise OSError("disk full")

    monkeypatch.setattr(yaml, "safe_dump", dump)
    with pytest.raises(OSError, match="disk full"):
        _echo_config(config, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [config_path.name]


def test_override_parsing():
    out = parse_overrides(["--runtime.lr=0.25", "--env.seed=9"])
    assert out == {"runtime": {"lr": 0.25}, "env": {"seed": 9}}
    with pytest.raises(ConfigError):
        parse_overrides(["--loose"])


def test_override_applies(config_path):
    cfg = load_experiment_config(config_path, {"curriculum": {"total_steps": 3}})
    assert cfg.run.total_steps == 3


def test_invalid_override_value_rejected(config_path):
    with pytest.raises(ConfigError):
        load_experiment_config(config_path, {"runtime": {"pass_m": 0}})


# -- collect ---------------------------------------------------------------------------


def test_collect_writes_store(config_path, tmp_path, capsys):
    out = tmp_path / "store.jsonl"
    assert main(["collect", str(config_path), "--out", str(out)]) == 0
    assert out.exists()
    printed = capsys.readouterr().out
    assert "8/8" in printed
    cfg = load_experiment_config(config_path)
    store = load_store(out, make_env(cfg.run.env))
    assert len(store) == 8


def test_collect_byte_identical_rerun(config_path, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["collect", str(config_path), "--out", str(a)]) == 0
    assert main(["collect", str(config_path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_collect_pass_m_zero_rejected(config_path):
    assert main(["collect", str(config_path), "--out", "x.jsonl",
                 "--runtime.pass_m=0"]) == 2


# -- train -----------------------------------------------------------------------------


def test_train_writes_artifacts(config_path, capsys):
    assert main(["train", str(config_path)]) == 0
    cfg = load_experiment_config(config_path)
    run_dir = cfg.run_dir
    for artifact in ("config.yaml", "metrics.jsonl", "metrics.csv", "checkpoint.jsonl"):
        assert (run_dir / artifact).exists(), artifact
    log = read_records(run_dir / "metrics.jsonl")
    assert len(log.train_records()) == 10
    assert "final eval" in capsys.readouterr().out


def test_train_b2f_without_store_fails_fast(config_path, capsys):
    assert main(["train", str(config_path), "--runtime.algo=b2f"]) == 2
    err = capsys.readouterr().err
    assert "store" in err


def test_train_b2f_with_store(config_path, tmp_path):
    store = tmp_path / "store.jsonl"
    assert main(["collect", str(config_path), "--out", str(store)]) == 0
    assert main(["train", str(config_path), "--store", str(store),
                 "--runtime.algo=b2f", "--curriculum.total_steps=14"]) == 0


# train overrides rejected at config load, each with a text its error names
REJECTED_OVERRIDES = {
    "teacher_out_of_range": ("--teacher.depth_decay=2", "depth_decay"),
    "batch_size_not_an_int": ("--runtime.batch_size=abc", "runtime.batch_size"),
    "horizon_cap_not_an_int": ("--env.horizon_cap=ten", "env.horizon_cap"),
    "eta_not_an_int": ("--curriculum.eta=x", "curriculum.eta"),
    "depth_decay_not_a_number": ("--teacher.depth_decay=foo", "teacher.depth_decay"),
    "lr_not_a_number": ("--runtime.lr=[1]", "runtime.lr"),
    "output_dir_not_a_string": ("--run.output_dir=5", "run.output_dir"),
    # every float field must be finite: an infinite lr or teacher sharpening
    # would train to NaN rows and losses
    "lr_infinite": ("--runtime.lr=.inf", "lr must be finite"),
    "lr_nan": ("--runtime.lr=.nan", "lr must be finite"),
    "train_temperature_infinite": ("--runtime.train_temperature=.inf",
                                   "temperatures must be finite"),
    "eval_temperature_infinite": ("--runtime.eval_temperature=.inf",
                                  "temperatures must be finite"),
    "on_support_temperature_infinite": ("--teacher.on_support_temperature=.inf",
                                        "on_support_temperature must be finite"),
    "turn_sharpening_infinite": ("--teacher.turn_sharpening=.inf",
                                 "turn_sharpening must be finite"),
    "off_support_floor_nan": ("--teacher.off_support_floor=.nan", "off_support_floor"),
    "depth_decay_infinite": ("--teacher.depth_decay=-.inf", "depth_decay"),
}


@pytest.mark.parametrize("case", ["b2f_store_lacks_a_task", *REJECTED_OVERRIDES])
def test_rejected_train_leaves_no_run_directory(config_path, tmp_path, capsys, case):
    args = ["train", str(config_path)]
    if case == "b2f_store_lacks_a_task":
        store_path = tmp_path / "store.jsonl"
        assert main(["collect", str(config_path), "--out", str(store_path)]) == 0
        store = load_store(store_path, make_env(load_experiment_config(config_path).run.env))
        del store.actions_by_task[3]
        save_store(store, store_path)
        args += ["--store", str(store_path), "--runtime.algo=b2f"]
        named = "[3]"
    else:
        override, named = REJECTED_OVERRIDES[case]
        args.append(override)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert named in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not load_experiment_config(config_path).output_dir.exists()


@pytest.mark.parametrize("key,value", [("runtime.window", None), ("curriculum.cap", None),
                                       ("runtime.lr", 1), ("teacher.depth_decay", 1),
                                       ("runtime.window", 3)])
def test_config_fields_take_values_of_their_type(config_path, key, value):
    section, name = key.split(".")
    config = load_experiment_config(config_path, {section: {name: value}})
    assert config.raw[section][name] == value


@pytest.mark.parametrize("key,value", [("runtime.batch_size", True), ("env.seed", 1.0),
                                       ("runtime.eval_temperature", False),
                                       ("runtime.lr", None), ("env.kind", 3)])
def test_config_rejects_values_of_the_wrong_type(config_path, key, value):
    section, name = key.split(".")
    with pytest.raises(ConfigError, match=rf"{key} must be"):
        load_experiment_config(config_path, {section: {name: value}})


@pytest.mark.parametrize("case", ["action_out_of_range", "line_not_json", "row_without_actions",
                                  "empty_file", "directory", "skipped_tasks_not_ints",
                                  "collection_seed_not_an_int"])
def test_train_rejects_malformed_store(config_path, tmp_path, capsys, case):
    store = tmp_path / "store.jsonl"
    assert main(["collect", str(config_path), "--out", str(store)]) == 0
    capsys.readouterr()
    header, first, *rest = store.read_text().splitlines()
    row = json.loads(first)
    if case == "action_out_of_range":
        row["actions"][0] = load_experiment_config(config_path).run.env.num_actions
    elif case == "row_without_actions":
        del row["actions"]
    elif case == "skipped_tasks_not_ints":
        header = json.dumps({**json.loads(header), "skipped_tasks": [0.5, "x"]})
    elif case == "collection_seed_not_an_int":
        header = json.dumps({**json.loads(header), "collection_seed": 2.5})
    lines = [header, "this is not json" if case == "line_not_json" else json.dumps(row), *rest]
    store.write_text("" if case == "empty_file" else "\n".join(lines) + "\n")
    if case == "directory":
        store.unlink()
        store.mkdir()
    assert main(["train", str(config_path), "--runtime.algo=b2f", "--store", str(store)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {store}: ") and err.count("\n") == 1
    if case in ("skipped_tasks_not_ints", "collection_seed_not_an_int"):
        assert err.startswith(f"error: {store}: line 1: ")
    assert not load_experiment_config(config_path).output_dir.exists()


def test_malformed_store_row_is_named_by_its_file_line(config_path, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    assert main(["collect", str(config_path), "--out", str(store)]) == 0
    capsys.readouterr()
    header, first, *rest = store.read_text().splitlines()
    store.write_text("\n".join([header, first, "this is not json", *rest]) + "\n")
    assert main(["train", str(config_path), "--runtime.algo=b2f", "--store", str(store)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {store}: line 3: cannot read a teacher trajectory store")
    assert not load_experiment_config(config_path).output_dir.exists()


def test_train_determinism_byte_identical(tmp_path):
    results = []
    for name in ("r1", "r2"):
        path = tmp_path / f"{name}.yaml"
        write_config(path, run={"name": name})
        assert main(["train", str(path)]) == 0
        cfg = load_experiment_config(path)
        results.append((
            (cfg.run_dir / "metrics.jsonl").read_bytes(),
            (cfg.run_dir / "checkpoint.jsonl").read_bytes(),
        ))
    # logs differ only in the config hash header (run name differs), so
    # compare record lines; checkpoints must match exactly
    records_1 = results[0][0].split(b"\n")[1:]
    records_2 = results[1][0].split(b"\n")[1:]
    assert records_1 == records_2
    assert results[0][1] == results[1][1]


def test_flat_curriculum_checkpoints_identical_across_algos(tmp_path):
    outs = []
    for name, algo in (("opd_run", "opd"), ("f2b_run", "f2b")):
        path = tmp_path / f"{name}.yaml"
        write_config(path, run={"name": name},
                     curriculum={"k_start": 6, "cap": 6, "eta": 2, "total_steps": 10})
        assert main(["train", str(path), f"--runtime.algo={algo}"]) == 0
        cfg = load_experiment_config(path)
        outs.append(cfg.run_dir)
    assert (outs[0] / "checkpoint.jsonl").read_bytes() == \
           (outs[1] / "checkpoint.jsonl").read_bytes()
    rec_a = (outs[0] / "metrics.jsonl").read_bytes().split(b"\n")[1:]
    rec_b = (outs[1] / "metrics.jsonl").read_bytes().split(b"\n")[1:]
    assert rec_a == rec_b


# -- eval -------------------------------------------------------------------------------


def test_eval_teacher_checkpoint_high_sr(config_path, tmp_path, capsys):
    cfg = load_experiment_config(config_path)
    env = make_env(cfg.run.env)
    teacher = TeacherPolicy(env, cfg.run.teacher)
    ckpt = tmp_path / "teacher.jsonl"
    save_params(oracles.materialize(teacher), ckpt)
    assert main(["eval", str(ckpt), str(config_path), "--runtime.eval_episodes=64"]) == 0
    out = capsys.readouterr().out
    sr = float(out.split("sr=")[1].split()[0])
    assert sr >= 0.95


def test_eval_twice_identical_records(config_path, tmp_path):
    cfg = load_experiment_config(config_path)
    env = make_env(cfg.run.env)
    teacher = make_teacher(env)
    ckpt = tmp_path / "teacher.jsonl"
    save_params(oracles.materialize(teacher), ckpt)
    assert main(["eval", str(ckpt), str(config_path)]) == 0
    first = (cfg.run_dir / "eval.jsonl").read_bytes()
    assert main(["eval", str(ckpt), str(config_path)]) == 0
    assert (cfg.run_dir / "eval.jsonl").read_bytes() == first


def test_eval_zero_episodes_rejected(config_path, tmp_path):
    ckpt = tmp_path / "teacher.jsonl"
    cfg = load_experiment_config(config_path)
    teacher = make_teacher(make_env(cfg.run.env))
    save_params(oracles.materialize(teacher), ckpt)
    assert main(["eval", str(ckpt), str(config_path),
                 "--runtime.eval_episodes=0"]) == 2


@pytest.mark.parametrize("case", ["missing", "not_json", "wrong_kind",
                                  "header_without_num_actions", "header_is_a_list",
                                  "header_num_actions_not_an_int", "header_version_not_an_int",
                                  "row_without_key"])
def test_eval_rejects_bad_checkpoint(config_path, tmp_path, capsys, case):
    ckpt = tmp_path / "ckpt.jsonl"
    header = {"schema": 1, "kind": "policy_params", "num_actions": 6, "version": 0,
              "default_logits": [0.0] * 6}
    rows = [{"key": [0], "logits": [0.0] * 6}]
    line = "line 1: "
    if case == "not_json":
        ckpt.write_text("this is not json\n")
    elif case == "wrong_kind":
        assert main(["collect", str(config_path), "--out", str(ckpt)]) == 0
        capsys.readouterr()
    elif case == "header_without_num_actions":
        del header["num_actions"]
    elif case == "header_is_a_list":
        header = [header]
    elif case == "header_num_actions_not_an_int":
        header["num_actions"] = 6.0
    elif case == "header_version_not_an_int":
        header["version"] = 0.5
    elif case == "row_without_key":
        rows.append({"logits": [0.0] * 6})
        line = "line 3: "
    if case.startswith(("header", "row")):
        ckpt.write_text("".join(json.dumps(obj) + "\n" for obj in [header, *rows]))
    assert main(["eval", str(ckpt), str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(ckpt) in err
    if case != "missing":
        assert f"{ckpt}: {line}" in err
    assert not load_experiment_config(config_path).output_dir.exists()


def test_eval_action_count_mismatch_rejected(config_path, tmp_path):
    other = make_teacher(make_env(EnvConfig(num_actions=6)))
    ckpt = tmp_path / "mismatch.jsonl"
    save_params(oracles.materialize(other), ckpt)
    assert main(["eval", str(ckpt), str(config_path)]) == 2


# -- sweep ------------------------------------------------------------------------------


def test_sweep_creates_sibling_directories(config_path):
    assert main(["sweep", str(config_path), "--eta", "2,4",
                 "--runtime.algo=f2b", "--curriculum.total_steps=6"]) == 0
    cfg = load_experiment_config(config_path)
    for eta in (2, 4):
        run_dir = cfg.output_dir / f"t_eta{eta}"
        assert (run_dir / "metrics.jsonl").exists()
        echoed = yaml.safe_load((run_dir / "config.yaml").read_text())
        assert echoed["curriculum"]["eta"] == eta


def test_sweep_with_an_empty_run_section(tmp_path, monkeypatch):
    path = tmp_path / "exp.yaml"
    cfg = write_config(path)
    cfg["run"] = None  # "run:" with nothing under it
    path.write_text(yaml.safe_dump(cfg))
    monkeypatch.chdir(tmp_path)  # the default output directory is ./runs
    assert main(["sweep", str(path), "--eta", "2,4", "--curriculum.total_steps=6"]) == 0
    for eta in (2, 4):
        run_dir = tmp_path / "runs" / f"run_eta{eta}"
        assert (run_dir / "metrics.jsonl").exists()
        echoed = yaml.safe_load((run_dir / "config.yaml").read_text())
        assert echoed["run"] == {"name": f"run_eta{eta}"}
        assert echoed["curriculum"]["eta"] == eta


def test_sweep_with_a_bad_eta_trains_nothing(config_path, capsys):
    assert main(["sweep", str(config_path), "--eta", "2,0",
                 "--curriculum.total_steps=10"]) == 2
    assert "eta must be >= 1" in capsys.readouterr().err
    assert not load_experiment_config(config_path).output_dir.exists()


def test_sft_run_checks_its_curriculum(config_path, tmp_path):
    store = tmp_path / "store.jsonl"
    assert main(["collect", str(config_path), "--out", str(store)]) == 0
    assert main(["train", str(config_path), "--store", str(store),
                 "--runtime.algo=sft", "--curriculum.eta=0"]) == 2
    assert not load_experiment_config(config_path).output_dir.exists()


def test_sweep_bad_eta_list(config_path):
    assert main(["sweep", str(config_path), "--eta", "two"]) == 2


def test_collect_default_env_full_coverage(tmp_path, capsys):
    path = tmp_path / "default.yaml"
    path.write_text(yaml.safe_dump({
        "run": {"name": "d", "output_dir": str(tmp_path / "out")},
    }))
    out = tmp_path / "store.jsonl"
    assert main(["collect", str(path), "--out", str(out)]) == 0
    assert "32/32" in capsys.readouterr().out

