"""Experiment configuration: flat key=value text files with typed parsing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from immimo.phy import csi_error_variance


class ConfigError(Exception):
    """Invalid configuration contents."""


# Field limits of the .imds header: u16 dimensions, u64 seed and frame
# counts, f32 SNR (the largest finite f32; +inf is stored as is).
_U16_MAX = 2**16 - 1
_U64_MAX = 2**64 - 1
_F32_MAX = 3.4028234663852886e38


@dataclass
class ExperimentConfig:
    # system dimensions
    n_t: int = 4
    n_u: int = 1
    n_r: int = 4
    t: int = 16
    m: int = 4
    # channel
    snr_db: list = field(default_factory=lambda: [5.0, 10.0, 15.0, 20.0, 25.0])
    rho: float = 0.0
    csi_error_var: float = 0.0
    n_p: int | None = None          # pilot count; with e_p/sigma_z2 overrides
    e_p: float | None = None        # pilot energy        csi_error_var
    sigma_z2: float | None = None   # estimation noise variance
    # data
    frames_train: int = 6000
    frames_val: int = 2000
    frames_test: int = 2000
    seed: int = 1
    # detection / training
    detectors: list = field(default_factory=lambda: ["ml", "somp", "nn"])
    tac_preset: str = "lexicographic"
    lr: float = 1e-3
    batch: int = 100
    max_epochs: int = 200
    gamma1: float = 0.05
    gamma2: float | None = None
    conv_channels: list = field(default_factory=lambda: [32, 64])
    dense_units: list = field(default_factory=lambda: [256, 128])
    se_channels: list = field(default_factory=lambda: [16, 16])
    # csi sweep points, as error variances
    sweep_error_var: list = field(default_factory=lambda: [0.0, 0.001, 0.01, 0.1])
    threads: int = 1                # no effect; perfbench/ still reads it

    def __post_init__(self):
        # rho and csi_error_var get range checks below that NaN and inf fail
        for name in ("e_p", "sigma_z2", "lr", "gamma1", "gamma2"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not all(map(math.isfinite, self.sweep_error_var)):
            raise ConfigError(f"sweep_error_var entries must be finite, "
                              f"got {self.sweep_error_var}")
        if not self.snr_db:
            raise ConfigError("snr_db must list at least one SNR")
        if any(math.isnan(v) or v == -math.inf for v in self.snr_db):
            raise ConfigError(f"snr_db entries must be finite or +inf, got {self.snr_db}")
        if any(math.isfinite(v) and abs(v) > _F32_MAX for v in self.snr_db):
            raise ConfigError(f"snr_db entries must fit a float32, got {self.snr_db}")
        for name in ("n_t", "n_u", "n_r", "t", "m"):
            if getattr(self, name) > _U16_MAX:
                raise ConfigError(f"{name} must be <= {_U16_MAX}, got {getattr(self, name)}")
        if not (1 <= self.n_u <= self.n_t):
            raise ConfigError(f"need 1 <= n_u <= n_t, got n_u={self.n_u}, n_t={self.n_t}")
        if self.n_u > self.n_r:
            raise ConfigError(f"need n_u <= n_r for ZF, got n_u={self.n_u}, n_r={self.n_r}")
        m = self.m
        if m < 4 or (m & (m - 1)) or (m.bit_length() - 1) % 2:
            raise ConfigError(f"m must be a power of 4 (square QAM), got {m}")
        if not (0 <= self.rho < 1):
            raise ConfigError(f"rho must be in [0, 1), got {self.rho}")
        if self.t < 1:
            raise ConfigError("t must be >= 1")
        for name in ("seed", "frames_train", "frames_val", "frames_test"):
            if not 0 <= getattr(self, name) <= _U64_MAX:
                raise ConfigError(f"{name} must be in [0, 2**64 - 1], got {getattr(self, name)}")
        if (self.n_p is not None) != (self.e_p is not None) or \
           (self.n_p is not None) != (self.sigma_z2 is not None):
            raise ConfigError("n_p, e_p, sigma_z2 must be given together")
        if self.n_p is not None:
            self.csi_error_var = csi_error_variance(self.n_t, self.sigma_z2,
                                                    self.n_p, self.e_p)
        if not 0 <= self.csi_error_var < math.inf:
            raise ConfigError(f"csi_error_var must be finite and >= 0, got {self.csi_error_var}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        # training keys, checked here so that no command starts on them
        if not self.lr > 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.batch < 2:
            raise ConfigError(f"batch must be >= 2, got {self.batch}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        for name in ("gamma1", "gamma2"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        for name in ("conv_channels", "dense_units", "se_channels"):
            widths = getattr(self, name)
            if len(widths) != 2 or not all(
                    isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in widths):
                raise ConfigError(f"{name} must be two ints >= 1, got {widths}")
        check_detectors(self.detectors)


# detector names of the config key and of `eval --detectors`; "nn" is the
# variant chosen on the command line
DETECTORS = ("ml", "somp", "nn", "nn-complex", "nn-real")


def check_detectors(names) -> None:
    """ConfigError naming the first detector outside DETECTORS."""
    for d in names:
        if d not in DETECTORS:
            raise ConfigError(f"unknown detector {d!r} (choose from {', '.join(DETECTORS)})")


_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}
_LIST_KEYS = {"snr_db", "detectors", "conv_channels", "dense_units",
              "se_channels", "sweep_error_var"}
_INT_KEYS = {"n_t", "n_u", "n_r", "t", "m", "frames_train", "frames_val",
             "frames_test", "seed", "batch", "max_epochs", "n_p", "threads"}
_FLOAT_KEYS = {"rho", "csi_error_var", "e_p", "sigma_z2", "lr", "gamma1", "gamma2"}


def _parse_scalar(key: str, raw: str):
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    return raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored.

    List values are comma separated. Unknown keys are an error (typos should
    fail loudly, not silently configure nothing).
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = body.partition("=")
        key = key.strip().replace("-", "_")
        raw = raw.strip()
        if key not in _FIELD_NAMES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _LIST_KEYS:
                items = [s.strip() for s in raw.split(",") if s.strip()]
                elem = str if key == "detectors" else (
                    int if key in ("conv_channels", "dense_units", "se_channels") else float)
                values[key] = [elem(s) for s in items]
            else:
                values[key] = _parse_scalar(key, raw)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from e
    try:
        return ExperimentConfig(**values)
    except TypeError as e:
        raise ConfigError(str(e)) from e


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())
