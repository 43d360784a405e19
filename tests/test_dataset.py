"""Dataset generation and the binary file format."""

import math
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immimo import dataset, files, linalg
from immimo.config import ExperimentConfig
from immimo.dataset import (
    DatasetHeader,
    check_channel,
    check_header_matches,
    check_indicators,
    generate_arrays,
    read_dataset,
    scenario_channel,
    table_for,
    write_dataset,
)
from immimo.linalg import Rng, complex_gaussian
from immimo.modulation import QamConstellation
from immimo.phy import frame_bit_count, noise_variance


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
        assert hdr.record_dtype().itemsize == want

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
        a = generate_arrays(cfg, 10.0, 1, 7)
        b = generate_arrays(cfg, 10.0, 1, 7)
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_frame_index_changes_draws(self):
        cfg = base_cfg()
        a = generate_arrays(cfg, 10.0, 1, 0)
        b = generate_arrays(cfg, 10.0, 1, 1)
        assert not np.array_equal(a["bits"], b["bits"]) or not np.array_equal(a["y"], b["y"])

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

    @pytest.mark.parametrize("snr_db", [float("nan"), float("-inf")])
    def test_nan_and_minus_inf_snr_rejected(self, snr_db):
        # -inf dB must not pass as noiseless or share +inf's stream key
        with pytest.raises(ValueError, match="SNR"):
            generate_arrays(base_cfg(), snr_db, 3, 0)

    def test_start_index_is_a_global_offset(self):
        cfg = base_cfg()
        whole = generate_arrays(cfg, 10.0, 4, 0)
        tail = generate_arrays(cfg, 10.0, 2, 2)
        assert np.array_equal(whole["y"][2:], tail["y"])
        assert np.array_equal(whole["bits"][2:], tail["bits"])


@dataclass(frozen=True)
class RefFrame:
    """One transmit frame: payload bits, chosen TAC, symbols and X matrix."""

    bits: np.ndarray          # (b,) 0/1
    tac_index: int
    s: np.ndarray             # (n_u, t) symbols, link order = ascending antenna
    x: np.ndarray             # (n_t, t) row-sparse transmit matrix
    t: int


def ref_assemble_frame(bits, table, constellation, t) -> RefFrame:
    bits = np.asarray(bits, dtype=np.int64).reshape(-1)
    b1 = table.b1
    tac_index = 0
    for b in bits[:b1]:
        tac_index = (tac_index << 1) | int(b)
    sym_bits = bits[b1:].reshape(t, table.n_u * constellation.bits_per_symbol)
    s = constellation.modulate(sym_bits).T  # (n_u, t)
    x = np.zeros((table.n_t, t), dtype=np.complex128)
    x[[a - 1 for a in table.tacs[tac_index]], :] = s
    return RefFrame(bits=bits, tac_index=tac_index, s=s, x=x, t=t)


def ref_corrupt_csi(h, error_var, rng):
    """Receiver CSI of one frame: h plus i.i.d. CN(0, error_var) error."""
    if error_var == 0:
        return h.copy()
    return h + complex_gaussian(rng, h.shape[0], h.shape[1], error_var)


def ref_apply_channel(frame: RefFrame, h, snr_db, rng):
    y = h @ frame.x
    n_r = h.shape[0]
    var = noise_variance(snr_db, n_r, frame.s.shape[0])
    if var > 0:
        y = y + complex_gaussian(rng, n_r, frame.t, var)
    return y


def ref_generate_frame_data(cfg, table, constellation, snr_db, frame_index, h):
    snr_key = 0x7FFFFFFF if math.isinf(snr_db) else int(round(snr_db * 100)) & 0x7FFFFFFF
    base = Rng(cfg.seed).derive(snr_key, frame_index)
    nbits = frame_bit_count(table, constellation, cfg.t)
    bits = base.derive(0).bits(nbits)
    frame = ref_assemble_frame(bits, table, constellation, cfg.t)
    h_est = ref_corrupt_csi(h, cfg.csi_error_var, base.derive(1))
    y = ref_apply_channel(frame, h, snr_db, base.derive(2))
    g = np.zeros(cfg.n_t, dtype=np.uint8)
    g[[a - 1 for a in table.tacs[frame.tac_index]]] = 1
    return bits, y, h, h_est, g, frame.s


def ref_generate_arrays(cfg, snr_db, count, start_index) -> dict:
    """The per-frame generation path: one frame at a time, copied into place."""
    table = table_for(cfg)
    constellation = QamConstellation(cfg.m)
    h0 = scenario_channel(cfg)
    nbits = frame_bit_count(table, constellation, cfg.t)
    out = {"bits": np.empty((count, nbits), np.int64),
           "y": np.empty((count, cfg.n_r, cfg.t), np.complex128),
           "h": np.empty((count, cfg.n_r, cfg.n_t), np.complex128),
           "h_est": np.empty((count, cfg.n_r, cfg.n_t), np.complex128),
           "g": np.empty((count, cfg.n_t), np.float64),
           "s": np.empty((count, cfg.n_u, cfg.t), np.complex128)}
    for i in range(count):
        frame = ref_generate_frame_data(cfg, table, constellation, float(snr_db),
                                        start_index + i, h0)
        for dst, v in zip(out.values(), frame):
            dst[i] = v
    return out


REFERENCE_SYSTEMS = {
    "4x1": dict(n_t=4, n_u=1, n_r=4, t=16, m=4, seed=7),
    "8x2-csi-rho": dict(n_t=8, n_u=2, n_r=8, t=16, m=4, csi_error_var=0.01,
                        rho=0.5, seed=3),
    "preset-4x2-16qam": dict(n_t=4, n_u=2, n_r=4, t=8, m=16,
                             tac_preset="preset-4x2", seed=2),
    "8x3": dict(n_t=8, n_u=3, n_r=6, t=4, m=4, seed=9),
}


class TestMatchesPerFrameReference:
    """generate_arrays runs over the frame axis; the per-frame path it
    replaced must give the same six arrays bit for bit."""

    @pytest.mark.parametrize("snr_db", [15.0, -3.5, float("inf")])
    # the last case crosses frame index 2**63 and spans several draw blocks
    # at every finite SNR
    @pytest.mark.parametrize("start, count", [(0, 40), (1234, 1), (97, 0),
                                              (2**63 - 700, 1400)])
    @pytest.mark.parametrize("system", sorted(REFERENCE_SYSTEMS))
    def test_bit_for_bit(self, system, snr_db, start, count):
        cfg = ExperimentConfig(**REFERENCE_SYSTEMS[system])
        got = generate_arrays(cfg, snr_db, count, start)
        want = ref_generate_arrays(cfg, snr_db, count, start)
        assert list(got) == list(want)
        for key, w in want.items():
            assert got[key].dtype == w.dtype, key
            assert got[key].shape == w.shape, key
            assert np.array_equal(got[key], w), key
            # byte equality also tells apart -0.0 from 0.0
            assert got[key].tobytes() == w.tobytes(), key


class TestDrawBlocks:
    """Frames are drawn in blocks of bounded word count; where a block ends
    must not show in the frames."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(split=st.integers(0, 90))
    def test_split_calls_concatenate_to_one_call(self, split):
        cfg = ExperimentConfig(**REFERENCE_SYSTEMS["8x2-csi-rho"])
        want = generate_arrays(cfg, 15.0, 90, 5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "_DRAW_WORDS", 1000)  # 2 frames per block
            whole = generate_arrays(cfg, 15.0, 90, 5)
            head = generate_arrays(cfg, 15.0, split, 5)
            tail = generate_arrays(cfg, 15.0, 90 - split, 5 + split)
        for key, w in want.items():
            assert whole[key].tobytes() == w.tobytes(), key
            joined = np.concatenate([head[key], tail[key]])
            assert joined.tobytes() == w.tobytes(), key

    def test_one_rng_per_call(self, monkeypatch):
        built = []
        init = linalg.Rng.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(linalg.Rng, "__init__", counting_init)
        generate_arrays(base_cfg(csi_error_var=0.1), 10.0, 300, 0)
        assert len(built) == 1  # the scenario channel's stream


class TestIndicatorCheck:
    def test_generated_records_pass(self):
        cfg = base_cfg(n_t=8, n_u=2, n_r=4)
        check_indicators(generate_arrays(cfg, 10.0, 50, 0), table_for(cfg), "x.imds")

    def test_flipped_g_names_the_record(self):
        cfg = base_cfg(n_u=2)
        arrays = generate_arrays(cfg, 10.0, 6, 0)
        arrays["g"][4, 0] = 1.0 - arrays["g"][4, 0]
        with pytest.raises(ValueError, match="x.imds: record 4 "):
            check_indicators(arrays, table_for(cfg), "x.imds")


class TestChannelCheck:
    """A file pairs with a config only if its header's seed and every
    record's channel h are the config's: otherwise the AAPD is trained or
    scored on another channel."""

    @staticmethod
    def written(tmp_path, cfg, name="x.imds", count=8):
        path = tmp_path / name
        header = write_dataset(path, cfg, 10.0, count, 0)
        return path, header, read_dataset(path)[1]

    def test_matching_file_passes(self, tmp_path):
        cfg = base_cfg(n_r=4, seed=3, rho=0.5, csi_error_var=0.1)
        path, header, arrays = self.written(tmp_path, cfg)
        check_header_matches(header, cfg, path)
        check_channel(arrays, cfg, path)

    def test_another_seed_is_refused(self, tmp_path):
        path, header, arrays = self.written(tmp_path, base_cfg(n_r=4, seed=3))
        other = base_cfg(n_r=4, seed=4)
        with pytest.raises(ValueError, match="seed=3 does not match config seed=4"):
            check_header_matches(header, other, path)
        with pytest.raises(ValueError, match="record 0 "):
            check_channel(arrays, other, path)

    def test_another_rho_is_refused(self, tmp_path):
        # rho is not in the header: only the records' channel tells
        path, header, arrays = self.written(tmp_path, base_cfg(n_r=4, seed=3))
        other = base_cfg(n_r=4, seed=3, rho=0.5)
        check_header_matches(header, other, path)
        with pytest.raises(ValueError, match=r"x\.imds: record 0 .*rho 0\.5"):
            check_channel(arrays, other, path)

    def test_spliced_record_is_named(self, tmp_path):
        cfg = base_cfg(n_r=4, seed=3)
        path, header, _ = self.written(tmp_path, cfg)
        donor, _, _ = self.written(tmp_path, base_cfg(n_r=4, seed=4), "donor.imds")
        size, start = header.record_dtype().itemsize, dataset._HEADER.size
        raw = bytearray(path.read_bytes())
        raw[start + 5 * size:start + 6 * size] = \
            donor.read_bytes()[start + 5 * size:start + 6 * size]
        path.write_bytes(bytes(raw))
        spliced_header, arrays = read_dataset(path)
        check_header_matches(spliced_header, cfg, path)
        check_indicators(arrays, table_for(cfg), path)
        with pytest.raises(ValueError, match="record 5 "):
            check_channel(arrays, cfg, path)


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

    def test_failed_header_pack_leaves_no_file(self, tmp_path):
        cfg = base_cfg()
        cfg.seed = 2 ** 64  # past the u64 field, set after validation
        with pytest.raises(struct.error):
            write_dataset(tmp_path / "x.imds", cfg, 10.0, 3, 0)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        # the header goes out, then the disk fills up on the records
        class FullDisk:
            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, chunk):
                if self.writes:
                    raise OSError(28, "No space left on device")
                self.writes += 1
                return self.f.write(chunk)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(files, "open", lambda *a: FullDisk(open(*a)), raising=False)
        with pytest.raises(OSError, match="No space"):
            write_dataset(tmp_path / "x.imds", base_cfg(), 10.0, 3, 0)
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "x.imds"
        path.write_bytes(b"old")
        def fail(src, dst):
            raise OSError("rename refused")
        monkeypatch.setattr(files.os, "replace", fail)
        with pytest.raises(OSError, match="rename"):
            write_dataset(path, base_cfg(), 10.0, 3, 0)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"old"

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "x.imds"
        path.write_bytes(b"IMDS\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_dataset(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.imds"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(ValueError, match="magic"):
            read_dataset(path)

    def test_bad_version_rejected(self, tmp_path):
        cfg = base_cfg()
        path = tmp_path / "x.imds"
        write_dataset(path, cfg, 10.0, 1, 0)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_dataset(path)

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
