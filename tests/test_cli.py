"""CLI subcommands: exit codes, file outputs, golden CSV headers."""

import json
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from immimo import cli
from immimo.cli import main
from immimo.config import ExperimentConfig, load_config
from immimo.cvnn import Model, count_flops, count_params
from immimo.dataset import generate_arrays, read_dataset, table_for
from immimo.modulation import QamConstellation
from immimo.runner import load_detector, run_classical, run_nn
from immimo.twostage import build_aapd, build_se

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
            hdr = read_dataset(path)[0]
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
        assert read_dataset(other / "snr12_test.imds")[0].seed == 99

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("m = 8\n")
        assert main(["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["csi_error_var = nan", "gamma1 = nan",
                                      "snr_db = 12, -inf"],
                             ids=["csi-error-var-nan", "gamma1-nan", "snr-minus-inf"])
    def test_non_finite_config_value_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CFG.replace("snr_db = 12", "") + line + "\n")
        out = tmp_path / "d"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not out.exists()

    def test_csi_error_var_with_the_pilot_triple_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "both.cfg"
        cfg.write_text(SMALL_CFG + "csi_error_var = 0.1\nn_p = 4\ne_p = 1\nsigma_z2 = 0.01\n")
        out = tmp_path / "d"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "csi_error_var" in err and "n_p" in err
        assert not out.exists()

    def test_pilot_triple_with_seed_override_runs(self, tmp_path):
        # --seed rebuilds the config with csi_error_var already set by the triple
        cfg = tmp_path / "pilots.cfg"
        cfg.write_text(SMALL_CFG + "n_p = 4\ne_p = 1\nsigma_z2 = 0.01\n")
        assert main(["gen-data", "--config", str(cfg), "--seed", "5",
                     "--out", str(tmp_path / "d")]) == 0

    @pytest.mark.parametrize("line", [
        "seed = 18446744073709551616", "seed = -1", "t = 70000", "n_t = 65536",
        "n_u = 65536", "n_r = 65536", "m = 65536", "frames_test = 18446744073709551616",
        "snr_db =", "snr_db = 1e39"])
    def test_value_the_header_cannot_hold_exits_2(self, tmp_path, capsys, line):
        key = line.split()[0]
        body = "\n".join(l for l in SMALL_CFG.splitlines() if l.split(" = ")[0] != key)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(body + "\n" + line + "\n")
        out = tmp_path / "d"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not out.exists()

    def test_seed_override_past_u64_exits_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["gen-data", "--config", str(workspace["cfg"]),
                     "--seed", str(2 ** 64), "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_f32_data_exits_2(self, tmp_path, capsys):
        # the noise at -800 dB overflows the f32 record fields to inf
        cfg = tmp_path / "loud.cfg"
        cfg.write_text(SMALL_CFG.replace("snr_db = 12", "snr_db = 12, -800"))
        out = tmp_path / "d"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert (out / "snr12_test.imds").exists()
        assert not list(out.glob("snr-800_*"))

    def test_unknown_tac_preset_exits_2_before_any_write(self, tmp_path, capsys):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text(SMALL_CFG + "tac_preset = preset-4x1\n")
        out = tmp_path / "d"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        assert "tac_preset" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["gen-data", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "d")]) == 2

    def test_empty_split_written_and_readable(self, tmp_path):
        cfg = tmp_path / "noval.cfg"
        cfg.write_text(SMALL_CFG.replace("frames_val = 16", "frames_val = 0"))
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        header, arrays = read_dataset(tmp_path / "d" / "snr12_val.imds")
        assert header.count == 0
        # b = log2(C(4, 1)) + n_u * log2(m) * t = 2 + 1 * 2 * 4
        assert {k: a.shape for k, a in arrays.items()} == {
            "bits": (0, 10), "y": (0, 2, 4), "h": (0, 2, 4), "h_est": (0, 2, 4),
            "g": (0, 4), "s": (0, 1, 4)}

    def test_unwritable_out_exits_3(self, workspace, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        code = main(["gen-data", "--config", str(workspace["cfg"]),
                     "--out", str(blocker / "sub")])
        assert code == 3


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

    def test_nan_in_training_data_exits_2_and_writes_nothing(self, workspace, tmp_path,
                                                             capsys):
        # refused when the file is read, before any training step
        data = tmp_path / "data"
        data.mkdir()
        for split in ("train", "val"):
            name = f"snr12_{split}.imds"
            (data / name).write_bytes((workspace["data"] / name).read_bytes())
        path = data / "snr12_train.imds"
        hdr = read_dataset(path)[0]
        raw = bytearray(path.read_bytes())
        # first record's Y follows the file header and its packed bits
        y0 = (len(raw) - hdr.count * hdr.record_dtype().itemsize
              + (hdr.bits_per_frame + 7) // 8)
        raw[y0:y0 + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        out = tmp_path / "ckpt"
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--data", str(data), "--out", str(out)]) == 2
        assert "snr12_train.imds: field y holds non-finite values" in capsys.readouterr().err
        assert not list(out.glob("*.cvnn")) and not list(out.glob("*.jsonl"))

    def test_non_finite_loss_exits_4_and_writes_nothing(self, workspace, tmp_path, capsys):
        # a huge step overflows the c8 forward at once; the loss is NaN, and
        # neither a checkpoint nor a log may be left behind
        cfg = tmp_path / "huge_lr.cfg"
        cfg.write_text(SMALL_CFG + "lr = 1e30\n")
        out = tmp_path / "ckpt"
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(cfg), "--data", str(workspace["data"]),
                         "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "numerical failure: aapd training loss" in err and "Traceback" not in err
        assert not list(out.iterdir())

    def test_missing_dataset_exits_2(self, workspace, tmp_path):
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "c")]) == 2

    @staticmethod
    def check_exits_2_before_any_directory(workspace, tmp_path, capsys, cmd, line):
        """`cmd` on SMALL_CFG with `line` in place of its key exits 2, names
        the key, and makes no --out directory."""
        key = line.split()[0]
        body = "\n".join(l for l in SMALL_CFG.splitlines() if l.split(" = ")[0] != key)
        cfg = tmp_path / "edited.cfg"
        cfg.write_text(body + "\n" + line + "\n")
        out = tmp_path / "out"
        args = [cmd, "--config", str(cfg), "--out", str(out)]
        if cmd == "train":
            args += ["--data", str(workspace["data"])]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["conv_channels = 4", "se_channels = 0, 4",
                                      "dense_units = 4, 4, 4"])
    @pytest.mark.parametrize("cmd", ["gen-data", "train"])
    def test_malformed_net_widths_exit_2_before_any_directory(self, workspace, tmp_path,
                                                              capsys, cmd, line):
        self.check_exits_2_before_any_directory(workspace, tmp_path, capsys, cmd, line)

    @pytest.mark.parametrize("line", ["lr = 0", "lr = -1", "batch = 1", "max_epochs = 0",
                                      "gamma1 = 0", "gamma2 = -1"])
    @pytest.mark.parametrize("cmd", ["gen-data", "train"])
    def test_bad_training_key_exits_2_before_any_directory(self, workspace, tmp_path,
                                                           capsys, cmd, line):
        self.check_exits_2_before_any_directory(workspace, tmp_path, capsys, cmd, line)

    @pytest.mark.parametrize("line", ["snr_db = 10, 10.0000001", "snr_db = 10, 10",
                                      "snr_db = 0, -0"])
    @pytest.mark.parametrize("cmd", ["gen-data", "train"])
    def test_snr_points_sharing_a_file_exit_2_before_any_directory(self, workspace, tmp_path,
                                                                   capsys, cmd, line):
        self.check_exits_2_before_any_directory(workspace, tmp_path, capsys, cmd, line)

    @pytest.mark.parametrize("cmd, args", [
        ("eval", ["--data", "d", "--out", "e.csv"]), ("bench", []),
        ("sweep-csi-error", ["--ckpt", "c", "--out", "s.csv"])])
    def test_snr_points_sharing_a_file_exit_2_in_reading_commands(self, tmp_path, capsys,
                                                                  cmd, args):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(SMALL_CFG.replace("snr_db = 12", "snr_db = 12, 12.0000001"))
        assert main([cmd, "--config", str(cfg)] + [str(tmp_path / a) if a[0] != "-" else a
                                                   for a in args]) == 2
        assert "snr_db" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_one_frame_past_a_whole_batch_trains(self, tmp_path):
        # 9 training frames at batch 4: the ninth joins the second minibatch
        # rather than reach the AAPD's batch norms alone
        cfg = tmp_path / "nine.cfg"
        cfg.write_text(SMALL_CFG.replace("frames_train = 32", "frames_train = 9")
                       .replace("batch = 8", "batch = 4"))
        data, ckpt = tmp_path / "data", tmp_path / "ckpt"
        assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(ckpt)]) == 0
        assert (ckpt / "aapd_complex_snr12.cvnn").exists()
        assert (ckpt / "se_complex_snr12.cvnn").exists()


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

    def test_nn_alias_rows_are_labelled_by_variant(self, workspace, tmp_path):
        out = tmp_path / "alias.csv"
        assert main(["eval", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]),
                     "--ckpt", str(workspace["ckpt"]),
                     "--detectors", "ml,nn", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == ["ml", "nn-complex"]

    def test_classical_only_needs_no_checkpoints(self, workspace, tmp_path):
        out = tmp_path / "classical.csv"
        assert main(["eval", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]),
                     "--detectors", "ml,somp", "--out", str(out)]) == 0
        assert out.exists()

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        assert main(["eval", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]),
                     "--ckpt", str(tmp_path / "empty"),
                     "--detectors", "nn-complex",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "aapd_complex_snr12.cvnn" in capsys.readouterr().err

    @pytest.mark.parametrize("names", ["somp,zf", "nn-bogus"])
    def test_unknown_detector_exits_2(self, workspace, tmp_path, capsys, names):
        out = tmp_path / "x.csv"
        assert main(["eval", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]),
                     "--ckpt", str(workspace["ckpt"]),
                     "--detectors", names, "--out", str(out)]) == 2
        assert "unknown detector" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_detectors_flag_exits_2(self, workspace, tmp_path, monkeypatch, capsys):
        # an empty --detectors is a name list with one empty name, not the
        # config's list
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]),
                     "--ckpt", str(workspace["ckpt"]),
                     "--detectors", "", "--out", "x.csv"]) == 2
        assert "unknown detector" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("names", ["ml,ml", "nn,nn-complex"])
    def test_repeated_detector_exits_2(self, workspace, tmp_path, capsys, names):
        out = tmp_path / "x.csv"
        assert main(["eval", "--config", str(workspace["cfg"]),
                     "--data", str(tmp_path / "nowhere"),
                     "--ckpt", str(tmp_path / "nowhere"),
                     "--detectors", names, "--out", str(out)]) == 2
        assert "repeated detector" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_detector_exits_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text(SMALL_CFG + "detectors = somp, nn, nn-complex\n")
        out = tmp_path / "x.csv"
        assert main(["eval", "--config", str(cfg), "--data", str(workspace["data"]),
                     "--ckpt", str(workspace["ckpt"]), "--out", str(out)]) == 2
        assert "repeated detector" in capsys.readouterr().err
        assert not out.exists()

    def test_singular_zf_exits_4(self, workspace, tmp_path):
        # zero one test frame's H_est: its ZF system has no solution
        data = tmp_path / "data"
        data.mkdir()
        path = data / "snr12_test.imds"
        raw = bytearray((workspace["data"] / "snr12_test.imds").read_bytes())
        hdr = read_dataset(workspace["data"] / "snr12_test.imds")[0]
        rec = hdr.record_dtype().itemsize
        h_est = ((hdr.bits_per_frame + 7) // 8 + 8 * hdr.n_r * hdr.t
                 + 8 * hdr.n_r * hdr.n_t)
        at = len(raw) - hdr.count * rec + 5 * rec + h_est
        raw[at:at + 8 * hdr.n_r * hdr.n_t] = bytes(8 * hdr.n_r * hdr.n_t)
        path.write_bytes(bytes(raw))
        assert main(["eval", "--config", str(workspace["cfg"]), "--data", str(data),
                     "--ckpt", str(workspace["ckpt"]), "--detectors", "nn-complex",
                     "--out", str(tmp_path / "x.csv")]) == 4

    def test_singular_somp_subset_exits_4(self, tmp_path, capsys):
        # one test frame's H_est has rank 1: SOMP's second pick is singular
        cfg = tmp_path / "two.cfg"
        cfg.write_text(SMALL_CFG.replace("n_u = 1", "n_u = 2"))
        data = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
        eval_somp = ["eval", "--config", str(cfg), "--data", str(data),
                     "--detectors", "somp", "--out", str(tmp_path / "x.csv")]
        assert main(eval_somp) == 0
        path = data / "snr12_test.imds"
        hdr = read_dataset(path)[0]
        raw = bytearray(path.read_bytes())
        records = np.frombuffer(raw, hdr.record_dtype(), offset=len(raw) - hdr.count
                                * hdr.record_dtype().itemsize)
        h_est = records["h_est"][3]
        h_est[:] = h_est[:, :1] * np.array([1, 2, 4, 8], dtype=np.float32)
        path.write_bytes(bytes(raw))
        assert main(eval_somp) == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_mismatched_dataset_exits_2(self, workspace, tmp_path):
        cfg2 = tmp_path / "other.cfg"
        cfg2.write_text(SMALL_CFG.replace("t = 4", "t = 8"))
        assert main(["eval", "--config", str(cfg2),
                     "--data", str(workspace["data"]),
                     "--detectors", "ml", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("cmd", ["eval", "train"])
    def test_dataset_of_another_snr_exits_2(self, workspace, tmp_path, capsys, cmd):
        # the workspace's 12 dB files under the 30 dB point's names
        cfg = tmp_path / "snr30.cfg"
        cfg.write_text(SMALL_CFG.replace("snr_db = 12", "snr_db = 30"))
        data = tmp_path / "data"
        data.mkdir()
        for split in ("train", "val", "test"):
            (data / f"snr30_{split}.imds").write_bytes(
                (workspace["data"] / f"snr12_{split}.imds").read_bytes())
        out = ["--detectors", "ml", "--out", str(tmp_path / "x.csv")] if cmd == "eval" \
            else ["--out", str(tmp_path / "ckpt")]
        assert main([cmd, "--config", str(cfg), "--data", str(data), *out]) == 2
        err = capsys.readouterr().err
        assert "snr30_" in err and "snr_db=12 is not the SNR point 30" in err
        assert not list(tmp_path.rglob("*.csv")) and not list(tmp_path.rglob("*.cvnn"))

    @pytest.mark.parametrize("edit, needle", [
        (("seed = 3", "seed = 4"), "seed=3 does not match config seed=4"),
        (("seed = 3", "seed = 3\nrho = 0.5"), "record 0 has a channel h")],
        ids=["seed", "rho"])
    def test_data_of_another_channel_exits_2(self, workspace, tmp_path, capsys, edit, needle):
        # the workspace's files hold seed 3's channel at rho 0
        cfg2 = tmp_path / "other.cfg"
        cfg2.write_text(SMALL_CFG.replace(*edit))
        assert main(["eval", "--config", str(cfg2), "--data", str(workspace["data"]),
                     "--detectors", "ml", "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "snr12_test.imds" in err and needle in err

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


def _drop(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


def _edit_layers(header: dict, suffix: str, **values) -> dict:
    """The header with `values` set in every layer spec whose kind ends in suffix."""
    return {**header, "layers": [{**s, **values} if s["kind"].endswith(suffix)
                                 else s for s in header["layers"]]}


def _rewrite_header(raw: bytes, edit) -> bytes:
    """A .cvnn file with its JSON header replaced by edit(header)."""
    (hlen,) = struct.unpack("<I", raw[6:10])   # after magic and version
    hj = json.dumps(edit(json.loads(raw[10:10 + hlen])), sort_keys=True).encode()
    return raw[:6] + struct.pack("<I", len(hj)) + hj + raw[10 + hlen:]


class TestCheckpointInput:
    """Malformed or mismatched checkpoints are usage errors (exit 2)."""

    def _eval(self, workspace, ckpt, tmp_path, cfg=None, data=None):
        return main(["eval", "--config", str(cfg or workspace["cfg"]),
                     "--data", str(data or workspace["data"]), "--ckpt", str(ckpt),
                     "--detectors", "nn-complex", "--out", str(tmp_path / "x.csv")])

    def _ckpt_copy(self, workspace, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        for name in ("aapd_complex_snr12.cvnn", "se_complex_snr12.cvnn"):
            (ckpt / name).write_bytes((workspace["ckpt"] / name).read_bytes())
        return ckpt

    def test_truncated_checkpoint_exits_2(self, workspace, tmp_path):
        ckpt = self._ckpt_copy(workspace, tmp_path)
        path = ckpt / "aapd_complex_snr12.cvnn"
        path.write_bytes(path.read_bytes()[:6])
        assert self._eval(workspace, ckpt, tmp_path) == 2

    def test_trailing_bytes_exit_2(self, workspace, tmp_path):
        ckpt = self._ckpt_copy(workspace, tmp_path)
        path = ckpt / "aapd_complex_snr12.cvnn"
        path.write_bytes(path.read_bytes() + b"junk")
        assert self._eval(workspace, ckpt, tmp_path) == 2

    @pytest.mark.parametrize("edit, needle", [
        (lambda h: {**h, "meta": _drop(h["meta"], "variant")}, "variant"),
        (lambda h: {**h, "layers": [_drop(s, "channels") for s in h["layers"]]},
         "channels"),
        (lambda h: _drop(h, "tensors"), "tensors"),
        (lambda h: _drop(h, "layers"), "layers"),
        (lambda h: [h], "object"),
        (lambda h: {**h, "tensors": [_drop(t, "dtype") for t in h["tensors"]]},
         "manifest"),
        (lambda h: {**h, "layers": [{**s, "in_features": "3"} if "in_features" in s
                                    else s for s in h["layers"]]}, "in_features"),
        (lambda h: {**h, "layers": [{**s, "in_features": 2.5} if "in_features" in s
                                    else s for s in h["layers"]]}, "in_features"),
        (lambda h: {**h, "layers": [7] + h["layers"][1:]}, "object"),
        (lambda h: {**h, "adam": {"step": 1, "lr": 1e-3, "tensors": []}}, "adam"),
        (lambda h: _edit_layers(h, "batchnorm", eps=None), "eps"),
        (lambda h: _edit_layers(h, "batchnorm", eps=-1.0), "eps"),
        (lambda h: _edit_layers(h, "batchnorm", kind="real_batchnorm", momentum=1.5),
         "momentum"),
        (lambda h: _edit_layers(h, "conv2d", padding="bogus"), "'same' or 'valid'"),
        (lambda h: _edit_layers(h, "conv2d", kernel=2), "odd kernel"),
        (lambda h: _edit_layers(h, "real_sigmoid", kind="complex_sigmoid"),
         "unknown layer kind 'complex_sigmoid'"),
    ], ids=["meta-without-variant", "spec-without-channels", "without-tensors",
            "without-layers", "header-is-a-list", "tensor-without-dtype",
            "in-features-str", "in-features-float", "spec-not-an-object",
            "adam-not-null", "eps-null", "eps-negative", "real-momentum-1.5",
            "padding-bogus", "same-even-kernel", "removed-complex-sigmoid"])
    def test_malformed_header_exits_2(self, workspace, tmp_path, capsys, edit, needle):
        ckpt = self._ckpt_copy(workspace, tmp_path)
        path = ckpt / "aapd_complex_snr12.cvnn"
        path.write_bytes(_rewrite_header(path.read_bytes(), edit))
        assert self._eval(workspace, ckpt, tmp_path) == 2
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("header", [
        b"[" * 100000 + b"]" * 100000,
        *(b'{"adam": null, "layers": [' + b'{"kind": "residual_add", "layers": [' * depth
          + b"]}" * depth + b'], "meta": {}, "tensors": []}' for depth in (400, 3000)),
    ], ids=["arrays-100000", "residuals-400", "residuals-3000"])
    def test_deeply_nested_header_exits_2(self, workspace, tmp_path, header):
        # the header bytes are written directly, as json.dumps recurses too;
        # run as a process, where a RecursionError that escapes prints its
        # traceback and exits 1
        ckpt = self._ckpt_copy(workspace, tmp_path)
        path = ckpt / "aapd_complex_snr12.cvnn"
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[6:10])
        path.write_bytes(raw[:6] + struct.pack("<I", len(header)) + header + raw[10 + hlen:])
        proc = subprocess.run(
            [sys.executable, "-m", "immimo.cli", "eval", "--config", str(workspace["cfg"]),
             "--data", str(workspace["data"]), "--ckpt", str(ckpt),
             "--detectors", "nn-complex", "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
                str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH"))))})
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert "Traceback" not in proc.stderr
        assert "nests too deeply" in proc.stderr
        assert not list(tmp_path.glob("x.*"))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_tensor_exits_2(self, workspace, tmp_path, capsys, value):
        ckpt = self._ckpt_copy(workspace, tmp_path)
        path = ckpt / "aapd_complex_snr12.cvnn"
        raw = bytearray(path.read_bytes())
        (hlen,) = struct.unpack("<I", raw[6:10])
        blob = 10 + hlen                      # first f32 of the first tensor
        raw[blob:blob + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(raw))
        assert self._eval(workspace, ckpt, tmp_path) == 2
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [(-1.0, 0.0, -1.0), (1.0, 3.0, 1.0)],
                             ids=["negative-variances", "negative-determinant"])
    def test_non_positive_definite_running_v_exits_2(self, workspace, tmp_path,
                                                     capsys, row):
        # finite, so only the covariance check stops it; layer 1 is the
        # first complex batch norm
        ckpt = self._ckpt_copy(workspace, tmp_path)
        path = ckpt / "aapd_complex_snr12.cvnn"
        model = Model.load(path)
        v = dict(model.tensor_items())[(1, "running_v")].copy()
        v[0] = row
        model.set_tensors([((1, "running_v"), v)])
        model.save(path)
        assert self._eval(workspace, ckpt, tmp_path) == 2
        assert "layer 1 tensor running_v plus eps" in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    def test_config_mismatch_exits_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(SMALL_CFG.replace("n_t = 4", "n_t = 8"))
        data = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
        capsys.readouterr()
        assert self._eval(workspace, workspace["ckpt"], tmp_path, cfg=cfg, data=data) == 2
        assert "n_t" in capsys.readouterr().err

    @pytest.mark.parametrize("net", ["aapd", "se"])
    def test_variant_mismatch_exits_2(self, workspace, tmp_path, capsys, net):
        # a real-variant net of SMALL_CFG's shape saved under the complex name
        ckpt = self._ckpt_copy(workspace, tmp_path)
        real = (build_aapd(2, 4, 4, "real", conv_channels=(2, 2), dense_units=(4, 4),
                           seed=3) if net == "aapd"
                else build_se(1, 4, "real", channels=(2, 2), seed=3))
        real.net.save(ckpt / f"{net}_complex_snr12.cvnn")
        assert self._eval(workspace, ckpt, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"{net}_complex_snr12.cvnn" in err
        assert "'real'" in err and "'complex'" in err
        assert not list(tmp_path.glob("x.*"))


_CKPTS = ("aapd_complex_snr12.cvnn", "se_complex_snr12.cvnn")
_DROP = object()
_FUZZ = settings(max_examples=30)


class TestInputFuzz:
    """Damaged .imds/.cvnn input makes `immimo eval` exit 2, never raise."""

    def _eval_damaged(self, workspace, name: str, damage) -> int:
        with tempfile.TemporaryDirectory() as tmp:
            data, ckpt = Path(tmp, "data"), Path(tmp, "ckpt")
            data.mkdir()
            ckpt.mkdir()
            (data / "snr12_test.imds").write_bytes(
                (workspace["data"] / "snr12_test.imds").read_bytes())
            for n in _CKPTS:
                (ckpt / n).write_bytes((workspace["ckpt"] / n).read_bytes())
            path = (data if name.endswith(".imds") else ckpt) / name
            path.write_bytes(damage(path.read_bytes()))
            return main(["eval", "--config", str(workspace["cfg"]), "--data", str(data),
                         "--ckpt", str(ckpt), "--detectors", "nn-complex",
                         "--out", str(Path(tmp, "x.csv"))])

    @_FUZZ
    @given(name=st.sampled_from(("snr12_test.imds",) + _CKPTS), data=st.data())
    def test_truncated_file_exits_2(self, workspace, name, data):
        def truncate(raw):
            return raw[:data.draw(st.integers(0, len(raw) - 1), label="keep")]
        assert self._eval_damaged(workspace, name, truncate) == 2

    @_FUZZ
    @given(field=st.sampled_from(("y", "h", "h_est", "s")),
           value=st.sampled_from((np.nan, np.inf, -np.inf)), data=st.data())
    def test_non_finite_record_value_exits_2(self, workspace, field, value, data):
        def poison(raw):
            header = read_dataset(workspace["data"] / "snr12_test.imds")[0]
            buf = bytearray(raw)
            dtype = header.record_dtype()
            records = np.frombuffer(buf, dtype, offset=len(buf) - header.count * dtype.itemsize)
            entry = records[field][data.draw(st.integers(0, header.count - 1),
                                             label="record")]
            parts = entry.reshape(-1).view(np.float32)  # re/im parts, in place
            parts[data.draw(st.integers(0, parts.size - 1), label="part")] = value
            return bytes(buf)
        assert self._eval_damaged(workspace, "snr12_test.imds", poison) == 2

    @_FUZZ
    @given(data=st.data())
    def test_flipped_indicator_exits_2(self, workspace, data):
        def flip(raw):
            header = read_dataset(workspace["data"] / "snr12_test.imds")[0]
            buf = bytearray(raw)
            dtype = header.record_dtype()
            records = np.frombuffer(buf, dtype, offset=len(buf) - header.count * dtype.itemsize)
            g = records["g"][data.draw(st.integers(0, header.count - 1), label="record")]
            g[data.draw(st.integers(0, g.size - 1), label="byte")] ^= data.draw(
                st.integers(1, 255), label="mask")
            return bytes(buf)
        assert self._eval_damaged(workspace, "snr12_test.imds", flip) == 2

    @_FUZZ
    @given(name=st.sampled_from(_CKPTS), data=st.data(),
           value=st.one_of(st.just(_DROP), st.none(), st.booleans(),
                           st.integers(-2, 2), st.text(max_size=3),
                           st.lists(st.integers(0, 3), max_size=2),
                           st.dictionaries(st.text(max_size=2), st.integers(0, 3),
                                           max_size=2)))
    def test_dropped_or_retyped_header_key_exits_2(self, workspace, name, data, value):
        def edit(header):
            # a key of the header itself, or of one tensor-manifest entry
            parent = data.draw(st.one_of(st.just(header),
                                         st.sampled_from(header["tensors"])),
                               label="parent")
            key = data.draw(st.sampled_from(sorted(parent)), label="key")
            assume(value is _DROP or type(value) is not type(parent[key]))
            if value is _DROP:
                del parent[key]
            else:
                parent[key] = value
            return header
        assert self._eval_damaged(
            workspace, name, lambda raw: _rewrite_header(raw, edit)) == 2


class TestMixed:
    def test_eval_and_sweep_use_mixed_checkpoints(self, tmp_path):
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text(SMALL_CFG.replace("snr_db = 12", "snr_db = 8, 12"))
        data, ckpt = tmp_path / "data", tmp_path / "ckpt"
        assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(ckpt), "--mixed"]) == 0
        assert (ckpt / "aapd_complex_mixed.cvnn").exists()
        assert main(["eval", "--config", str(cfg), "--data", str(data),
                     "--ckpt", str(ckpt), "--out", str(tmp_path / "e.csv")]) == 0
        rows = (tmp_path / "e.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 * 2  # detectors x SNR points
        assert main(["sweep-csi-error", "--config", str(cfg), "--ckpt", str(ckpt),
                     "--snr", "12", "--out", str(tmp_path / "s.csv")]) == 0


class TestBench:
    def test_empty_snr_list_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "nosnr.cfg"
        cfg.write_text(SMALL_CFG.replace("snr_db = 12", "snr_db ="))
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "snr_db" in capsys.readouterr().err

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

    def test_empty_out_flag_exits_2(self, workspace, tmp_path, monkeypatch, capsys):
        # an empty --out is a path that cannot be written, not stdout
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--config", str(workspace["cfg"]), "--out", ""]) == 2
        captured = capsys.readouterr()
        assert "schema," not in captured.out and "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_variant_param_halving_via_cli(self, workspace, tmp_path, capsys):
        def params(variant):
            assert main(["bench", "--config", str(workspace["cfg"]),
                         "--variant", variant]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            row = [l for l in lines if l.split(",")[1].startswith("nn")][0]
            return int(row.split(",")[2])

        assert 2 * params("complex") == params("real")

    def test_nn_latency_runs_at_checkpoint_precision(self, workspace, monkeypatch, capsys):
        # the tensors of the timed nets are those eval loads; the params and
        # FLOPs columns still count the seed-built nets of SMALL_CFG
        seen = set()
        real_detect = cli.detect_frames

        def detect(y, h, aapd, se, *rest):
            seen.update(a.dtype.name for net in (aapd.net, se.net)
                        for _, a in net.tensor_items())
            return real_detect(y, h, aapd, se, *rest)

        monkeypatch.setattr(cli, "detect_frames", detect)
        assert main(["bench", "--config", str(workspace["cfg"])]) == 0
        assert seen == {"complex64", "float32"}
        row = [l.split(",") for l in capsys.readouterr().out.splitlines()
               if l.startswith("immimo-bench-1,nn-complex,")][0]
        aapd = build_aapd(2, 4, 4, conv_channels=(2, 2), dense_units=(4, 4), seed=3)
        se = build_se(1, 4, channels=(2, 2), seed=3)
        assert int(row[2]) == count_params(aapd.net) + count_params(se.net)
        assert int(row[3]) == (count_flops(aapd.net, (1, 2, 4))
                               + count_flops(se.net, (1, 1, 4)))

    def test_out_of_memory_exits_2(self, tmp_path, capsys):
        # ML's hypothesis grid is 8 PiB here: numpy refuses it at once
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("n_t = 4\nn_u = 4\nn_r = 4\nt = 16\nm = 4096\nsnr_db = 12\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error: out of memory: " in err and "Traceback" not in err

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


class TestMlGuard:
    """Each command that runs ML warns when its search exceeds the guard."""

    @pytest.mark.parametrize("cmd", ["eval", "bench", "sweep-csi-error"])
    def test_warns_past_the_guard(self, workspace, tmp_path, monkeypatch, capsys, cmd):
        args = {"eval": ["--data", str(workspace["data"]), "--detectors", "ml,somp",
                         "--out", str(tmp_path / "e.csv")],
                "bench": [],
                "sweep-csi-error": ["--ckpt", str(workspace["ckpt"]), "--snr", "12",
                                    "--out", str(tmp_path / "s.csv")]}[cmd]
        monkeypatch.setattr(cli, "ML_GUARD_HYPOTHESES", 0)
        assert main([cmd, "--config", str(workspace["cfg"])] + args) == 0
        assert "warning: ML search spans" in capsys.readouterr().err

    def test_eval_without_ml_does_not_warn(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "ML_GUARD_HYPOTHESES", 0)
        assert main(["eval", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]), "--detectors", "somp",
                     "--out", str(tmp_path / "e.csv")]) == 0
        assert "warning" not in capsys.readouterr().err


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
        # each row scores the test frames (after train and val) of its point,
        # as the runners score them when called directly
        cfg = load_config(workspace["cfg"])
        table, const = table_for(cfg), QamConstellation(cfg.m)
        aapd, se = load_detector(workspace["ckpt"], "complex", 12.0, cfg)
        mirror = json.loads(out.with_suffix(".json").read_text())["rows"]
        for row in mirror:
            data = generate_arrays(replace(cfg, csi_error_var=row["csi_error_var"]), 12.0,
                                   cfg.frames_test, cfg.frames_train + cfg.frames_val)
            want = (run_nn(aapd, se, data, table, const) if row["detector"] == "nn-complex"
                    else run_classical(row["detector"], data, table, const))
            assert {k: row[k] for k in ("frames", "ber", "aap_accuracy")} == \
                {k: want[k] for k in ("frames", "ber", "aap_accuracy")}

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path):
        assert main(["sweep-csi-error", "--config", str(workspace["cfg"]),
                     "--ckpt", str(tmp_path / "none"), "--snr", "12",
                     "--out", str(tmp_path / "s.csv")]) == 2

    def test_negative_sweep_point_exits_2_before_checkpoints(self, tmp_path, capsys):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(SMALL_CFG.replace("sweep_error_var = 0, 0.05",
                                         "sweep_error_var = 0, -1"))
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "s.csv"
        assert main(["sweep-csi-error", "--config", str(cfg), "--ckpt", str(empty),
                     "--snr", "12", "--out", str(out)]) == 2
        assert "sweep_error_var must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["-inf", "nan"])
    def test_nan_or_minus_inf_snr_exits_2(self, workspace, tmp_path, capsys, snr):
        # the 12 dB pair as the mixed fallback, so loading succeeds for any
        # SNR; "--snr=-inf" because argparse reads a bare "-inf" as an option
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        for net in ("aapd", "se"):
            (ckpt / f"{net}_complex_mixed.cvnn").write_bytes(
                (workspace["ckpt"] / f"{net}_complex_snr12.cvnn").read_bytes())
        out = tmp_path / "s.csv"
        assert main(["sweep-csi-error", "--config", str(workspace["cfg"]),
                     "--ckpt", str(ckpt), f"--snr={snr}", "--out", str(out)]) == 2
        assert "SNR" in capsys.readouterr().err
        assert not out.exists()
