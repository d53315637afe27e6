from __future__ import annotations

import numpy as np
import pytest

from opdlab import atomic
from opdlab.distill import TeacherTrajectoryStore, save_store
from opdlab.metrics import EvalRecord, MetricsLog, TrainRecord, write_csv, write_records
from opdlab.policy import PolicyParams, save_params


def metrics_log(loss):
    log = MetricsLog(config_hash="abc")
    log.append(TrainRecord(step=0, loss=loss, grad_norm=1.0, buffer_size=8,
                           discarded_stale=0, active_k=1, mean_staleness=0.0))
    log.append(EvalRecord(step=0, success_rate=loss, avg_rounds=3.0, traj_kl_mean=1.0,
                          traj_kl_turn_mean=0.5, per_turn_kl=[0.25, 0.75]))
    return log


def params(value):
    return PolicyParams(num_actions=2, logits={(1,): np.array([value, 0.0]),
                                               (2,): np.array([0.0, value])})


def store(length):
    return TeacherTrajectoryStore(actions_by_task={0: [1] * length, 1: [0] * length})


# writer(path, variant): variants 0 and 1 write different content
WRITERS = {
    "write_records": lambda path, v: write_records(metrics_log(0.25 + v), path),
    "write_csv": lambda path, v: write_csv(metrics_log(0.25 + v), path),
    "save_params": lambda path, v: save_params(params(1.5 + v), path),
    "save_store": lambda path, v: save_store(store(2 + v), path),
}


class FailingFile:
    """A text file whose second write raises, as a full disk would;
    ``writelines`` writes its lines one at a time, as a file's does."""

    def __init__(self, f):
        self._f = f
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError("no space left on device")
        return self._f.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_previous_file_and_leaves_no_temp(writer, tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    WRITERS[writer](path, 0)
    previous = path.read_bytes()
    WRITERS[writer](tmp_path / "other", 1)
    assert (tmp_path / "other").read_bytes() != previous

    monkeypatch.setattr(atomic, "open",
                        lambda *args, **kwargs: FailingFile(open(*args, **kwargs)),
                        raising=False)
    with pytest.raises(OSError):
        WRITERS[writer](path, 1)
    assert path.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact", "other"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_replaces_existing_file_and_leaves_no_temp(writer, tmp_path):
    path = tmp_path / "artifact"
    WRITERS[writer](path, 0)
    WRITERS[writer](path, 1)
    WRITERS[writer](tmp_path / "fresh", 1)
    assert path.read_bytes() == (tmp_path / "fresh").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact", "fresh"]
