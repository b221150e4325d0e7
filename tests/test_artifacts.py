"""Every artifact writer replaces its file whole or leaves it as it was."""

import os

import numpy as np
import pytest

from catunet import artifacts, cli
from catunet import data_io as dio
from catunet import diagnosis as dx
from catunet.metrics import ConfusionMatrix, MetricsReport
from catunet.model import CatUNetConfig
from catunet.training import EpochRecord, TrainingConfig, TrainReport


class FullDisk:
    """A file that takes half of what it is given, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        self.f.flush()
        raise OSError(28, "No space left on device")


# each writes version v of its artifact to path; versions differ in content
WRITERS = {
    "write_pgm": lambda path, v: dio.write_pgm(path, np.full((3, 4), v, dtype=np.uint8)),
    "TrainReport.to_csv": lambda path, v: TrainReport(
        records=[EpochRecord(1, 0.5 + v, 0.25, 0.01)]).to_csv(path),
    "_echo_resolved": lambda path, v: cli._echo_resolved(
        path, CatUNetConfig(input_size=16, depth=2), TrainingConfig(epochs=1 + v), {"data": "d"}),
    "MetricsReport.write_json": lambda path, v: MetricsReport(
        0.5, 0.25 + v, ConfusionMatrix(1, 2, 3, 4)).write_json(path),
    "ConfusionMatrix.to_csv": lambda path, v: ConfusionMatrix(1 + v, 2, 3, 4).to_csv(path),
    "write_jsonl": lambda path, v: dx.write_jsonl([dx.DiagnosisResult("a", 1.0 + v, "Positive")],
                                                  path),
}
# save_checkpoint: test_model.py::TestCheckpoint::test_failed_save_keeps_previous_checkpoint


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_previous_file(writer, tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    WRITERS[writer](str(path), 0)
    before = path.read_bytes()
    monkeypatch.setattr(artifacts, "open", lambda name, mode: FullDisk(open(name, mode)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        WRITERS[writer](str(path), 1)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_replaces_previous_file(writer, tmp_path):
    path = tmp_path / "artifact"
    WRITERS[writer](str(path), 0)
    before = path.read_bytes()
    WRITERS[writer](str(path), 1)
    assert path.read_bytes() != before
    assert os.listdir(tmp_path) == ["artifact"]


def test_text_is_written_as_utf8_without_newline_translation(tmp_path):
    path = tmp_path / "a.txt"
    artifacts.write_atomic(str(path), "é\r\n")
    assert path.read_bytes() == "é\r\n".encode("utf-8")
