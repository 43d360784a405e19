"""Dataset generation and the binary file format."""

import math
import struct

import numpy as np
import pytest

from immimo.config import ExperimentConfig
from immimo.dataset import (
    DatasetHeader,
    check_header_matches,
    generate_arrays,
    generate_frame_data,
    read_dataset,
    read_header,
    scenario_channel,
    table_for,
    write_dataset,
)
from immimo.modulation import QamConstellation


def base_cfg(**kw):
    args = dict(n_t=4, n_u=1, n_r=2, m=4, t=8, seed=5)
    args.update(kw)
    return ExperimentConfig(**args)


class TestHeader:
    def test_bits_per_frame(self):
        hdr = DatasetHeader(n_t=4, n_u=1, n_r=2, t=16, m=4, snr_db=10.0,
                            count=0, seed=1)
        assert hdr.bits_per_frame == 2 + 1 * 2 * 16

    def test_record_nbytes(self):
        hdr = DatasetHeader(n_t=4, n_u=1, n_r=2, t=16, m=4, snr_db=10.0,
                            count=0, seed=1)
        # packed bits + y + h + h_est + g + s
        want = (34 + 7) // 8 + 8 * 2 * 16 + 2 * 8 * 2 * 4 + 4 + 8 * 1 * 16
        assert hdr.record_nbytes() == want

    def test_larger_scenario(self):
        hdr = DatasetHeader(n_t=8, n_u=2, n_r=4, t=16, m=16, snr_db=20.0,
                            count=0, seed=1)
        b1 = math.comb(8, 2).bit_length() - 1
        assert hdr.bits_per_frame == b1 + 2 * 4 * 16


class TestTableFor:
    def test_lexicographic(self):
        table = table_for(base_cfg())
        assert table.tacs[0] == (1,)

    def test_preset(self):
        table = table_for(base_cfg(n_u=2, tac_preset="preset-4x2"))
        assert table.tacs == ((1, 3), (1, 4), (2, 4), (2, 3))

    def test_preset_needs_matching_dims(self):
        with pytest.raises(ValueError):
            table_for(base_cfg(n_t=8, n_u=2, tac_preset="preset-4x2"))

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            table_for(base_cfg(tac_preset="fancy"))


class TestScenarioChannel:
    def test_shape_and_determinism(self):
        cfg = base_cfg()
        h1 = scenario_channel(cfg)
        h2 = scenario_channel(cfg)
        assert h1.shape == (2, 4)
        assert np.array_equal(h1, h2)

    def test_seed_selects_realization(self):
        assert not np.array_equal(scenario_channel(base_cfg(seed=5)),
                                  scenario_channel(base_cfg(seed=6)))

    def test_correlation_changes_draw(self):
        h0 = scenario_channel(base_cfg())
        hc = scenario_channel(base_cfg(rho=0.6))
        assert not np.array_equal(h0, hc)

    def test_every_frame_shares_the_seed_channel(self):
        cfg = base_cfg()
        h = scenario_channel(cfg)
        arr = generate_arrays(cfg, 10.0, 6, 0)
        for i in range(6):
            assert np.array_equal(arr["h"][i], h)

    def test_channel_shared_across_snr_points(self):
        cfg = base_cfg()
        lo = generate_arrays(cfg, 5.0, 2, 0)
        hi = generate_arrays(cfg, 25.0, 2, 0)
        assert np.array_equal(lo["h"], hi["h"])

    def test_bits_and_noise_fresh_per_frame(self):
        arr = generate_arrays(base_cfg(), 10.0, 4, 0)
        assert not np.array_equal(arr["bits"][0], arr["bits"][1])
        assert not np.array_equal(arr["y"][0], arr["y"][1])


class TestFrameStreams:
    def test_deterministic(self):
        cfg = base_cfg()
        table = table_for(cfg)
        const = QamConstellation(cfg.m)
        a = generate_frame_data(cfg, table, const, 10.0, 7)
        b = generate_frame_data(cfg, table, const, 10.0, 7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_frame_index_changes_draws(self):
        cfg = base_cfg()
        table = table_for(cfg)
        const = QamConstellation(cfg.m)
        a = generate_frame_data(cfg, table, const, 10.0, 0)
        b = generate_frame_data(cfg, table, const, 10.0, 1)
        assert not np.array_equal(a[0], b[0]) or not np.array_equal(a[1], b[1])

    def test_csi_error_leaves_bits_and_y_alone(self):
        clean = generate_arrays(base_cfg(), 10.0, 3, 0)
        noisy = generate_arrays(base_cfg(csi_error_var=0.1), 10.0, 3, 0)
        assert np.array_equal(clean["bits"], noisy["bits"])
        assert np.array_equal(clean["y"], noisy["y"])
        assert np.array_equal(clean["h"], noisy["h"])
        assert not np.array_equal(clean["h_est"], noisy["h_est"])

    def test_csi_error_fresh_per_frame(self):
        arr = generate_arrays(base_cfg(csi_error_var=0.1), 10.0, 3, 0)
        assert not np.array_equal(arr["h_est"][0], arr["h_est"][1])

    def test_infinite_snr_noiseless(self):
        cfg = base_cfg()
        arr = generate_arrays(cfg, float("inf"), 3, 0)
        for i in range(3):
            active = np.flatnonzero(arr["g"][i])
            want = arr["h"][i][:, active] @ arr["s"][i]
            assert np.allclose(arr["y"][i], want, atol=1e-12)

    def test_start_index_is_a_global_offset(self):
        cfg = base_cfg()
        whole = generate_arrays(cfg, 10.0, 4, 0)
        tail = generate_arrays(cfg, 10.0, 2, 2)
        assert np.array_equal(whole["y"][2:], tail["y"])
        assert np.array_equal(whole["bits"][2:], tail["bits"])


class TestFileFormat:
    def test_round_trip_matches_arrays_at_f32(self, tmp_path):
        cfg = base_cfg()
        path = tmp_path / "d.imds"
        header = write_dataset(path, cfg, 10.0, 5, 0)
        assert header.count == 5
        got_header, got = read_dataset(path)
        assert got_header == header
        want = generate_arrays(cfg, 10.0, 5, 0)
        assert np.array_equal(got["bits"], want["bits"])
        assert np.array_equal(got["g"], want["g"])
        for key in ("y", "h", "h_est", "s"):
            quantized = want[key].astype("<c8").astype(np.complex128)
            assert np.array_equal(got[key], quantized)

    def test_zero_frames_match_an_empty_file(self, tmp_path):
        cfg = base_cfg()
        path = tmp_path / "empty.imds"
        write_dataset(path, cfg, 10.0, 0, 0)
        _, got = read_dataset(path)
        want = generate_arrays(cfg, 10.0, 0, 0)
        assert {k: a.shape for k, a in want.items()} == {k: a.shape for k, a in got.items()}
        assert got["y"].shape == (0, 2, 8)

    def test_write_twice_identical_bytes(self, tmp_path):
        cfg = base_cfg()
        p1, p2 = tmp_path / "a.imds", tmp_path / "b.imds"
        write_dataset(p1, cfg, 10.0, 7, 0)
        write_dataset(p2, cfg, 10.0, 7, 0)
        assert p1.read_bytes() == p2.read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = base_cfg()
        p1, p2 = tmp_path / "t1.imds", tmp_path / "t4.imds"
        write_dataset(p1, cfg, 10.0, 150, 0, threads=1)
        write_dataset(p2, cfg, 10.0, 150, 0, threads=4)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "x.imds"
        path.write_bytes(b"IMDS\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_header(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.imds"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(ValueError, match="magic"):
            read_header(path)

    def test_bad_version_rejected(self, tmp_path):
        cfg = base_cfg()
        path = tmp_path / "x.imds"
        write_dataset(path, cfg, 10.0, 1, 0)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_header(path)

    def test_payload_length_validated(self, tmp_path):
        cfg = base_cfg()
        path = tmp_path / "x.imds"
        write_dataset(path, cfg, 10.0, 3, 0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ValueError, match="payload"):
            read_dataset(path)

    def test_header_mismatch_detected(self, tmp_path):
        cfg = base_cfg()
        path = tmp_path / "x.imds"
        header = write_dataset(path, cfg, 10.0, 1, 0)
        check_header_matches(header, cfg, path)  # matching passes
        other = base_cfg(t=16)
        with pytest.raises(ValueError, match="t="):
            check_header_matches(header, other, path)

    def test_g_is_binary_indicator(self, tmp_path):
        cfg = base_cfg(n_u=2, n_t=4)
        path = tmp_path / "x.imds"
        write_dataset(path, cfg, 10.0, 4, 0)
        _, arr = read_dataset(path)
        assert arr["g"].dtype == np.float64
        assert set(np.unique(arr["g"])) <= {0.0, 1.0}
        assert np.all(arr["g"].sum(axis=1) == 2)
