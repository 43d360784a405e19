"""CLI subcommands: exit codes, file outputs, golden CSV headers."""

import json
import os

import numpy as np
import pytest

from immimo.cli import main
from immimo.config import ExperimentConfig
from immimo.dataset import read_header

SMALL_CFG = """
n_t = 4
n_u = 1
n_r = 2
t = 4
m = 4
snr_db = 12
frames_train = 32
frames_val = 16
frames_test = 16
seed = 3
max_epochs = 2
batch = 8
conv_channels = 2, 2
dense_units = 4, 4
se_channels = 2, 2
sweep_error_var = 0, 0.05
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "exp.cfg"
    cfg.write_text(SMALL_CFG)
    data = root / "data"
    ckpt = root / "ckpt"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(ckpt)]) == 0
    return {"root": root, "cfg": cfg, "data": data, "ckpt": ckpt}


class TestGenData:
    def test_split_files_and_counts(self, workspace):
        data = workspace["data"]
        for split, count in (("train", 32), ("val", 16), ("test", 16)):
            path = data / f"snr12_{split}.imds"
            assert path.exists()
            hdr = read_header(path)
            assert hdr.count == count
            assert hdr.snr_db == 12.0

    def test_default_split_is_60_20_20(self):
        cfg = ExperimentConfig()
        total = cfg.frames_train + cfg.frames_val + cfg.frames_test
        assert (cfg.frames_train / total, cfg.frames_val / total,
                cfg.frames_test / total) == (0.6, 0.2, 0.2)

    def test_same_seed_byte_identical(self, workspace, tmp_path):
        again = tmp_path / "again"
        assert main(["gen-data", "--config", str(workspace["cfg"]),
                     "--out", str(again)]) == 0
        for split in ("train", "val", "test"):
            a = (workspace["data"] / f"snr12_{split}.imds").read_bytes()
            b = (again / f"snr12_{split}.imds").read_bytes()
            assert a == b

    def test_seed_override_changes_bytes(self, workspace, tmp_path):
        other = tmp_path / "other"
        assert main(["gen-data", "--config", str(workspace["cfg"]),
                     "--seed", "99", "--out", str(other)]) == 0
        a = (workspace["data"] / "snr12_test.imds").read_bytes()
        b = (other / "snr12_test.imds").read_bytes()
        assert a != b
        assert read_header(other / "snr12_test.imds").seed == 99

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("m = 8\n")
        assert main(["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["gen-data", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "d")]) == 2

    def test_unwritable_out_exits_3(self, workspace, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        code = main(["gen-data", "--config", str(workspace["cfg"]),
                     "--out", str(blocker / "sub")])
        assert code == 3

    def test_env_threads_must_be_integer(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("IMNET_THREADS", "many")
        assert main(["gen-data", "--config", str(workspace["cfg"]),
                     "--out", str(tmp_path / "d")]) == 2

    def test_env_threads_accepted_and_bytes_stable(self, workspace, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("IMNET_THREADS", "3")
        out = tmp_path / "threaded"
        assert main(["gen-data", "--config", str(workspace["cfg"]),
                     "--out", str(out)]) == 0
        a = (workspace["data"] / "snr12_train.imds").read_bytes()
        assert a == (out / "snr12_train.imds").read_bytes()


class TestTrain:
    def test_checkpoints_and_log_written(self, workspace):
        ckpt = workspace["ckpt"]
        assert (ckpt / "aapd_complex_snr12.cvnn").exists()
        assert (ckpt / "se_complex_snr12.cvnn").exists()
        log = ckpt / "train_complex_snr12.jsonl"
        records = [json.loads(line) for line in log.read_text().splitlines()]
        aapd_epochs = [r for r in records if r.get("stage") == "aapd" and "epoch" in r]
        se_epochs = [r for r in records if r.get("stage") == "se" and "epoch" in r]
        assert aapd_epochs and se_epochs
        assert all("train_loss" in r and "val_loss" in r
                   for r in aapd_epochs + se_epochs)

    def test_rerun_same_seed_identical_checkpoints(self, workspace, tmp_path):
        out2 = tmp_path / "ckpt2"
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]), "--out", str(out2)]) == 0
        for name in ("aapd_complex_snr12.cvnn", "se_complex_snr12.cvnn"):
            a = (workspace["ckpt"] / name).read_bytes()
            assert a == (out2 / name).read_bytes()

    def test_nan_in_training_data_exits_4_and_writes_nothing(self, workspace, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for split in ("train", "val"):
            name = f"snr12_{split}.imds"
            (data / name).write_bytes((workspace["data"] / name).read_bytes())
        path = data / "snr12_train.imds"
        hdr = read_header(path)
        raw = bytearray(path.read_bytes())
        # first record's Y follows the file header and its packed bits
        y0 = len(raw) - hdr.count * hdr.record_nbytes() + (hdr.bits_per_frame + 7) // 8
        raw[y0:y0 + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        out = tmp_path / "ckpt"
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--data", str(data), "--out", str(out)]) == 4
        assert not list(out.glob("*.cvnn")) and not list(out.glob("*.jsonl"))

    def test_missing_dataset_exits_2(self, workspace, tmp_path):
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "c")]) == 2


class TestEval:
    def test_csv_golden_header_and_sorted_rows(self, workspace):
        out = workspace["root"] / "eval.csv"
        assert main(["eval", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]),
                     "--ckpt", str(workspace["ckpt"]),
                     "--detectors", "somp,ml,nn-complex",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "schema,detector,snr_db,frames,ber,aap_accuracy,wall_time_s"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[1] for r in rows] == ["ml", "nn-complex", "somp"]
        assert all(r[0] == "immimo-eval-1" for r in rows)
        for r in rows:
            assert 0.0 <= float(r[4]) <= 1.0
            assert int(r[3]) == 16

    def test_json_mirror_matches(self, workspace):
        mirror = json.loads((workspace["root"] / "eval.json").read_text())
        assert mirror["command"] == "eval"
        assert [r["detector"] for r in mirror["rows"]] == ["ml", "nn-complex", "somp"]

    def test_classical_only_needs_no_checkpoints(self, workspace, tmp_path):
        out = tmp_path / "classical.csv"
        assert main(["eval", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]),
                     "--detectors", "ml,somp", "--out", str(out)]) == 0
        assert out.exists()

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path):
        assert main(["eval", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]),
                     "--ckpt", str(tmp_path / "empty"),
                     "--detectors", "nn-complex",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_mismatched_dataset_exits_2(self, workspace, tmp_path):
        cfg2 = tmp_path / "other.cfg"
        cfg2.write_text(SMALL_CFG.replace("t = 4", "t = 8"))
        assert main(["eval", "--config", str(cfg2),
                     "--data", str(workspace["data"]),
                     "--detectors", "ml", "--out", str(tmp_path / "x.csv")]) == 2

    def test_noiseless_ml_is_error_free(self, tmp_path):
        cfg = tmp_path / "clean.cfg"
        cfg.write_text(SMALL_CFG.replace("snr_db = 12", "snr_db = inf"))
        data = tmp_path / "data"
        out = tmp_path / "clean.csv"
        assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
        assert main(["eval", "--config", str(cfg), "--data", str(data),
                     "--detectors", "ml", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[4]) == 0.0 and float(row[5]) == 1.0


class TestBench:
    def test_stdout_table(self, workspace, capsys):
        assert main(["bench", "--config", str(workspace["cfg"])]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ("schema,detector,params,flops_per_frame,"
                            "latency_ms_median,trials")
        rows = {r.split(",")[1]: r.split(",") for r in lines[1:]}
        assert set(rows) == {"ml", "somp", "nn-complex"}
        for r in rows.values():
            assert float(r[4]) >= 0.0
            assert int(r[5]) >= 30

    def test_variant_param_halving_via_cli(self, workspace, tmp_path, capsys):
        def params(variant):
            assert main(["bench", "--config", str(workspace["cfg"]),
                         "--variant", variant]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            row = [l for l in lines if l.split(",")[1].startswith("nn")][0]
            return int(row.split(",")[2])

        assert 2 * params("complex") == params("real")

    def test_ml_flops_grow_with_search_space(self, workspace, tmp_path, capsys):
        def ml_flops_of(text):
            cfg = tmp_path / "bench.cfg"
            cfg.write_text(text)
            assert main(["bench", "--config", str(cfg)]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            row = [l for l in lines if l.split(",")[1] == "ml"][0]
            return int(row.split(",")[3])

        small = ml_flops_of(SMALL_CFG)
        big = ml_flops_of(SMALL_CFG.replace("n_t = 4", "n_t = 16")
                          .replace("n_u = 1", "n_u = 4")
                          .replace("n_r = 2", "n_r = 4"))
        # hypothesis count ratio (1024*256)/(4*4) dominates the growth
        assert big > 1000 * small


class TestSweep:
    def test_sweep_csv_header_and_rows(self, workspace):
        out = workspace["root"] / "sweep.csv"
        assert main(["sweep-csi-error", "--config", str(workspace["cfg"]),
                     "--ckpt", str(workspace["ckpt"]), "--snr", "12",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("schema,detector,snr_db,csi_error_var,frames,"
                            "ber,aap_accuracy,wall_time_s")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3 * 2  # detectors x sweep points
        assert [r[1] for r in rows] == sorted(r[1] for r in rows)
        for det in ("ml", "somp", "nn-complex"):
            vals = [float(r[3]) for r in rows if r[1] == det]
            assert vals == [0.0, 0.05]

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path):
        assert main(["sweep-csi-error", "--config", str(workspace["cfg"]),
                     "--ckpt", str(tmp_path / "none"), "--snr", "12",
                     "--out", str(tmp_path / "s.csv")]) == 2
