"""Whole-file writes: a write that fails halfway leaves neither its target
nor a temporary file behind, for every writer in the package."""

import json

import pytest

from immimo import files
from immimo.cli import main
from immimo.cvnn import ComplexDense, Model, RealHeadDense
from immimo.linalg import Rng
from immimo.runner import EVAL_COLUMNS, write_results

TINY_CFG = """
n_t = 4
n_u = 1
n_r = 2
t = 4
m = 4
snr_db = 12
frames_train = 16
frames_val = 8
frames_test = 8
seed = 3
max_epochs = 1
batch = 8
conv_channels = 2, 2
dense_units = 4, 4
se_channels = 2, 2
"""


class HalfWrite:
    """A file whose first write puts out half its chunk, then the disk is full."""

    def __init__(self, f):
        self.f = f

    def write(self, chunk):
        self.f.write(chunk[:len(chunk) // 2])
        self.f.flush()
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def fail_writes(monkeypatch, marker: str) -> None:
    """Writes to a temporary file whose name holds `marker` fail halfway."""
    def opener(path, mode):
        f = open(path, mode)
        return HalfWrite(f) if marker in str(path) else f

    monkeypatch.setattr(files, "open", opener, raising=False)


def small_model():
    return Model([ComplexDense(3, 2, rng=Rng(1)), RealHeadDense(4, 1, rng=Rng(2))])


ROWS = [{"schema": "immimo-eval-1", "detector": "ml", "snr_db": 12.0, "frames": 8,
         "ber": 0.0, "aap_accuracy": 1.0, "wall_time_s": 0.1}]


class TestFailedWrite:
    def test_checkpoint(self, tmp_path, monkeypatch):
        fail_writes(monkeypatch, ".cvnn")
        with pytest.raises(OSError, match="No space"):
            small_model().save(tmp_path / "m.cvnn")
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.cvnn"
        path.write_bytes(b"old")
        fail_writes(monkeypatch, ".cvnn")
        with pytest.raises(OSError, match="No space"):
            small_model().save(path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"old"

    @pytest.mark.parametrize("marker", [".csv", ".json"])
    def test_results(self, tmp_path, monkeypatch, marker):
        fail_writes(monkeypatch, marker)
        with pytest.raises(OSError, match="No space"):
            write_results(tmp_path / "eval.csv", ROWS, EVAL_COLUMNS)
        left = sorted(p.name for p in tmp_path.iterdir())
        # the CSV goes first: it is whole when only its JSON mirror failed
        assert left == ([] if marker == ".csv" else ["eval.csv"])

    def test_train_log(self, tmp_path, monkeypatch, capsys):
        cfg, data, out = tmp_path / "exp.cfg", tmp_path / "data", tmp_path / "ckpt"
        cfg.write_text(TINY_CFG)
        assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
        fail_writes(monkeypatch, ".jsonl")
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 3
        assert "No space" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "aapd_complex_snr12.cvnn", "se_complex_snr12.cvnn"]


class TestWholeWrite:
    def test_results_text_unchanged(self, tmp_path):
        write_results(tmp_path / "eval.csv", ROWS, EVAL_COLUMNS, extra={"command": "eval"})
        assert (tmp_path / "eval.csv").read_text().splitlines() == [
            ",".join(EVAL_COLUMNS), "immimo-eval-1,ml,12.0,8,0.0,1.0,0.1"]
        text = (tmp_path / "eval.json").read_text()
        assert text.endswith("}\n")
        assert json.loads(text) == {"columns": EVAL_COLUMNS, "rows": ROWS,
                                    "command": "eval"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eval.csv", "eval.json"]
