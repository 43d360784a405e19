"""Config file parsing and validation."""

from dataclasses import fields, replace

import pytest

from immimo import config
from immimo.config import (_PARSERS, ConfigError, ExperimentConfig, TrainConfig, load_config,
                           parse_config, snr_tag)
from immimo.phy import csi_error_variance
from immimo.runner import checkpoint_paths


class TestParse:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()

    def test_scalars_lists_comments(self):
        cfg = parse_config("""
            # small single-stream setup
            n_t = 4
            n_u = 1            # one active antenna
            n_r = 2
            m = 4
            snr_db = 5, 10, 15
            detectors = ml, somp
            conv_channels = 8, 16
            lr = 0.01
            tac_preset = lexicographic
        """)
        assert cfg.n_r == 2
        assert cfg.snr_db == [5.0, 10.0, 15.0]
        assert cfg.detectors == ["ml", "somp"]
        assert cfg.conv_channels == [8, 16]
        assert cfg.lr == 0.01

    def test_dashes_normalize_to_underscores(self):
        cfg = parse_config("csi-error-var = 0.05")
        assert cfg.csi_error_var == 0.05

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("n_t = 4\nn_total = 8")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("n_t = 4\nn_t = 8")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just words")

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("n_t = four")

    def test_bad_list_element_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("snr_db = 5, ten")

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 42\nthreads = 2\n")
        cfg = load_config(path)
        assert cfg.seed == 42 and cfg.threads == 2


class TestValidation:
    def test_n_u_bounds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n_u=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(n_t=4, n_u=5)

    def test_zf_needs_enough_receive_antennas(self):
        with pytest.raises(ConfigError, match="n_u <= n_r"):
            ExperimentConfig(n_t=4, n_u=2, n_r=1)

    @pytest.mark.parametrize("m", [2, 8, 32, 5, 0])
    def test_non_square_qam_rejected(self, m):
        with pytest.raises(ConfigError):
            ExperimentConfig(m=m)

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_square_qam_accepted(self, m):
        assert ExperimentConfig(m=m).m == m

    def test_rho_range(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(rho=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(rho=-0.1)

    def test_t_positive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(t=0)

    def test_frame_counts_nonnegative(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(frames_val=-1)

    def test_frame_index_past_u64_rejected(self):
        # test frames follow the training and validation frames in one u64 index
        with pytest.raises(ConfigError, match="frames_train \\+ frames_val \\+ frames_test"):
            ExperimentConfig(frames_train=2 ** 64 - 1)
        with pytest.raises(ConfigError, match="frames_test"):
            parse_config(f"frames_train = {2 ** 64 - 16}\nframes_val = 0\nframes_test = 100")
        last = ExperimentConfig(frames_train=2 ** 64 - 4000)
        assert last.frames_train + last.frames_val + last.frames_test == 2 ** 64

    @pytest.mark.parametrize("key", ["detectors", "sweep_error_var"])
    def test_empty_list_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{key: []})
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} =")

    def test_pilot_triple_must_be_complete(self):
        with pytest.raises(ConfigError, match="together"):
            parse_config("n_p = 8")

    def test_pilot_triple_sets_csi_error_var(self):
        cfg = parse_config("n_p = 8\ne_p = 2.0\nsigma_z2 = 0.1")
        # n_t * sigma_z2 / (n_p * e_p) with default n_t = 4
        assert cfg.csi_error_var == pytest.approx(4 * 0.1 / 16)

    def test_replace_keeps_the_csi_error_var_it_is_given(self):
        # the triple is file syntax: it does not stay behind to override the field
        cfg = parse_config("n_p = 8\ne_p = 2.0\nsigma_z2 = 0.1")
        assert replace(cfg, csi_error_var=0.5).csi_error_var == 0.5
        assert replace(cfg, seed=7).csi_error_var == cfg.csi_error_var

    def test_csi_error_var_with_the_pilot_triple_rejected(self):
        # the triple sets csi_error_var, which would drop the one given
        with pytest.raises(ConfigError, match="csi_error_var and the pilot triple"):
            parse_config("csi_error_var = 0.1\nn_p = 4\ne_p = 1\nsigma_z2 = 0.01")

    def test_negative_csi_error_var_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(csi_error_var=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["rho", "csi_error_var", "e_p", "sigma_z2", "lr",
                                     "gamma1", "gamma2"])
    def test_non_finite_scalar_rejected(self, key, value):
        pilots = "".join(f"{k} = {v}\n" for k, v in _PILOTS.items() if k != key) \
            if key in _PILOTS else ""
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{pilots}{key} = {value}\n")

    def test_pilot_overflow_to_infinite_csi_error_var_rejected(self):
        with pytest.raises(ConfigError, match="csi_error_var"):
            parse_config("n_p = 1\ne_p = 1.0\nsigma_z2 = 1e308")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_sweep_error_var_rejected(self, value):
        with pytest.raises(ConfigError, match="sweep_error_var"):
            ExperimentConfig(sweep_error_var=[0.0, value])

    def test_negative_sweep_error_var_rejected(self):
        with pytest.raises(ConfigError, match="sweep_error_var must be finite and >= 0"):
            parse_config("sweep_error_var = 0, -1")

    @pytest.mark.parametrize("fields", [dict(tac_preset="fancy"),
                                        dict(n_t=8, n_u=2, tac_preset="preset-4x2")],
                             ids=["unknown", "wrong-dims"])
    def test_bad_tac_preset_rejected(self, fields):
        with pytest.raises(ConfigError, match="tac_preset"):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")], ids=["nan", "-inf"])
    def test_snr_db_must_be_finite_or_plus_inf(self, value):
        with pytest.raises(ConfigError, match="snr_db"):
            ExperimentConfig(snr_db=[10.0, value])
        assert ExperimentConfig(snr_db=[10.0, float("inf")]).snr_db[1] == float("inf")

    def test_empty_snr_db_rejected(self):
        with pytest.raises(ConfigError, match="snr_db"):
            ExperimentConfig(snr_db=[])
        with pytest.raises(ConfigError, match="snr_db"):
            parse_config("snr_db =")

    def test_snr_db_must_fit_float32(self):
        with pytest.raises(ConfigError, match="snr_db"):
            ExperimentConfig(snr_db=[10.0, 1e39])
        with pytest.raises(ConfigError, match="snr_db"):
            ExperimentConfig(snr_db=[-1e39])
        assert ExperimentConfig(snr_db=[3.4e38, -3.4e38]).snr_db == [3.4e38, -3.4e38]

    # the .imds header holds the dimensions as u16, seed and counts as u64
    @pytest.mark.parametrize("key", ["n_t", "n_u", "n_r", "t", "m"])
    def test_dimension_past_u16_rejected(self, key):
        big = {"n_t": dict(n_t=65536), "n_u": dict(n_u=65536),
               "n_r": dict(n_r=65536), "t": dict(t=70000), "m": dict(m=4 ** 8)}[key]
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**big)

    def test_dimension_at_u16_accepted(self):
        assert ExperimentConfig(t=65535, m=4 ** 7, n_r=65535).t == 65535

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(seed=seed)

    def test_seed_u64_ends_accepted(self):
        assert ExperimentConfig(seed=0).seed == 0
        assert ExperimentConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1

    def test_frame_count_past_u64_rejected(self):
        with pytest.raises(ConfigError, match="frames_test"):
            ExperimentConfig(frames_test=2 ** 64)

    def test_threads_positive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(threads=0)

    @pytest.mark.parametrize("key, value", [
        ("lr", 0.0), ("lr", -1.0), ("batch", 1), ("batch", 0), ("max_epochs", 0),
        ("gamma1", 0.0), ("gamma1", -0.5), ("gamma2", 0.0), ("gamma2", -1.0)])
    def test_training_key_out_of_range_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{key: value})

    def test_training_keys_at_their_limits_accepted(self):
        cfg = ExperimentConfig(lr=1e-300, batch=2, max_epochs=1, gamma1=1e-300,
                               gamma2=1e-300)
        assert (cfg.batch, cfg.max_epochs) == (2, 1)
        assert ExperimentConfig(gamma2=None).gamma2 is None

    @pytest.mark.parametrize("key", ["conv_channels", "dense_units", "se_channels"])
    @pytest.mark.parametrize("raw", ["4", "4, 4, 4", "0, 4", "4, -1", ""])
    def test_net_widths_must_be_two_positive_ints(self, key, raw):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = {raw}\n")

    @pytest.mark.parametrize("key", ["conv_channels", "dense_units", "se_channels"])
    def test_net_width_types_checked(self, key):
        for widths in ([4.0, 4], [True, 4]):
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig(**{key: widths})

    def test_net_widths_accepted(self):
        cfg = parse_config("conv_channels = 1, 1\nse_channels = 3, 5\n")
        assert (cfg.conv_channels, cfg.se_channels) == ([1, 1], [3, 5])

    def test_unknown_detector_rejected(self):
        with pytest.raises(ConfigError, match="unknown detector"):
            ExperimentConfig(detectors=["ml", "sphere"])

    def test_known_detector_variants_accepted(self):
        cfg = ExperimentConfig(detectors=["ml", "somp", "nn-complex", "nn-real"])
        assert "nn-real" in cfg.detectors


class TestSnrTag:
    def test_tag_names_dataset_and_checkpoint_files(self):
        assert [snr_tag(v) for v in (12.0, -2.5, float("inf"))] == ["12", "-2.5", "inf"]
        assert checkpoint_paths("c", "real", 12.0) == ("c/aapd_real_snr12.cvnn",
                                                       "c/se_real_snr12.cvnn")

    @pytest.mark.parametrize("snrs", [[10.0, 10.0000001], [10.0, 10.0], [0.0, -0.0],
                                      [5.0, 10.0, 5.0]])
    def test_points_sharing_a_file_rejected(self, snrs):
        with pytest.raises(ConfigError, match="snr_db"):
            ExperimentConfig(snr_db=snrs)
        with pytest.raises(ConfigError, match="snr_db"):
            parse_config("snr_db = " + ", ".join(map(repr, snrs)))

    def test_distinct_tags_accepted(self):
        snrs = [-0.0, 10.0, 10.5, float("inf")]
        assert ExperimentConfig(snr_db=snrs).snr_db == snrs


# boundary texts for every key: each must parse to a config or a ConfigError
_BOUNDARY_TEXTS = ["0", "-1", "65536", str(2 ** 64), "1e400", "nan", "inf", "",
                   "1, 2", "true"]
_PILOTS = {"n_p": "8", "e_p": "2.0", "sigma_z2": "0.1"}


def _text(key) -> str:
    """A valid config text for `key`: a field's default as a config file
    writes it, or a value for the keys without a default."""
    if key in _PILOTS:
        return _PILOTS[key]
    if key == "gamma2":
        return "0.5"
    value = getattr(ExperimentConfig(), key)
    return ", ".join(map(str, value)) if isinstance(value, list) else str(value)


class TestAnnotationParser:
    def test_every_field_is_a_key(self):
        # the keys are the fields and the pilot triple, which is no field
        assert set(_PARSERS) == {f.name for f in fields(ExperimentConfig)} | set(_PILOTS)
        assert len(fields(ExperimentConfig)) == 24
        # csi_error_var and the pilot triple exclude each other: a text each
        lines = {key: f"{key} = {_text(key)}\n" for key in _PARSERS}
        triple = "".join(v for k, v in lines.items() if k != "csi_error_var")
        assert parse_config(triple) == ExperimentConfig(
            gamma2=0.5, csi_error_var=csi_error_variance(4, 0.1, n_p=8, e_p=2.0))
        plain = "".join(v for k, v in lines.items() if k not in _PILOTS)
        assert parse_config(plain) == ExperimentConfig(gamma2=0.5)

    @pytest.mark.parametrize("key", list(_PARSERS))
    def test_boundary_texts_give_a_config_or_a_config_error(self, key):
        others = "".join(f"{k} = {v}\n" for k, v in _PILOTS.items() if k != key) \
            if key in _PILOTS else ""
        for raw in _BOUNDARY_TEXTS:
            try:
                parse_config(f"{others}{key} = {raw}\n")
            except ConfigError:
                pass
            except Exception as e:
                pytest.fail(f"{key} = {raw!r}: {type(e).__name__}: {e}")

    def test_values_take_their_annotated_type(self, monkeypatch):
        triple = {}

        def recording(n_t, **pilots):
            triple.update(pilots)
            return csi_error_variance(n_t, **pilots)

        monkeypatch.setattr(config, "csi_error_variance", recording)
        cfg = parse_config("n_p = 8\ne_p = 2\nsigma_z2 = 0\ngamma2 = 1\nsnr_db = 3, 4\n"
                           "lr = 1\nse_channels = 3, 5\ndetectors = ml")
        assert type(triple["n_p"]) is int and type(triple["e_p"]) is float
        assert type(triple["sigma_z2"]) is float
        assert type(cfg.gamma2) is float and type(cfg.lr) is float
        assert [type(v) for v in cfg.snr_db + cfg.se_channels] == [float] * 2 + [int] * 2
        assert cfg.detectors == ["ml"]

    @pytest.mark.parametrize("line", ["n_p = 0", "n_p = -1", f"n_p = {2 ** 64}", "n_p = 8.5",
                                      "e_p = 0", "e_p = -2", "sigma_z2 = -0.1"])
    def test_bad_pilot_key_named(self, line):
        key = line.split()[0]
        text = "".join(f"{k} = {v}\n" for k, v in _PILOTS.items() if k != key)
        with pytest.raises(ConfigError, match=key):
            parse_config(text + line)


class TestOneTrainingDeclaration:
    def test_experiment_config_is_a_train_config(self):
        assert issubclass(ExperimentConfig, TrainConfig)
        assert issubclass(ConfigError, ValueError)
        # the experiment keeps its own seed default
        assert (TrainConfig().seed, ExperimentConfig().seed) == (0, 1)

    @pytest.mark.parametrize("key, value", [
        ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")), ("lr", float("inf")),
        ("batch", 1), ("max_epochs", 0), ("gamma1", 0.0), ("gamma1", float("-inf")),
        ("gamma2", -1.0), ("gamma2", float("nan"))])
    def test_same_values_rejected_with_the_same_message(self, key, value):
        with pytest.raises(ConfigError, match=key) as train:
            TrainConfig(**{key: value})
        with pytest.raises(ConfigError, match=key) as experiment:
            ExperimentConfig(**{key: value})
        assert str(train.value) == str(experiment.value)
