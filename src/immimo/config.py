"""Experiment configuration: flat key=value text files with typed parsing."""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, replace

from immimo.modulation import QamConstellation
from immimo.phy import TAC_PRESETS, build_tac_table, csi_error_variance


class ConfigError(ValueError):
    """Invalid configuration contents."""


# Field limits of the .imds header: u16 dimensions, u64 seed and frame
# counts, f32 SNR (the largest finite f32; +inf is stored as is).
_U16_MAX = 2**16 - 1
_U64_MAX = 2**64 - 1
_F32_MAX = 3.4028234663852886e38


# the default net widths, in complex units (the real variant doubles them)
CONV_CHANNELS = (32, 64)
DENSE_UNITS = (256, 128)
SE_CHANNELS = (16, 16)


def snr_tag(snr_db: float) -> str:
    """The text that names one SNR point in dataset and checkpoint file names."""
    return f"{snr_db:g}"


@dataclass
class TrainConfig:
    """Settings of the two training stages (twostage.train_full)."""
    lr: float = 1e-3
    batch: int = 100
    max_epochs: int = 200
    gamma1: float = 0.05          # AAPD validation BCE target
    gamma2: float | None = None   # SE validation MSE target, capped at the ZF floor
    seed: int = 0

    def __post_init__(self):
        for name in ("lr", "gamma1", "gamma2"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if value is not None and not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        if self.batch < 2:
            raise ConfigError(f"batch must be >= 2, got {self.batch}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass
class ExperimentConfig(TrainConfig):
    """Every setting of an experiment; the training keys are TrainConfig's."""
    # system dimensions
    n_t: int = 4
    n_u: int = 1
    n_r: int = 4
    t: int = 16
    m: int = 4
    # channel
    snr_db: list[float] = field(default_factory=lambda: [5.0, 10.0, 15.0, 20.0, 25.0])
    rho: float = 0.0
    csi_error_var: float = 0.0      # or the pilot triple that sets it (parse_config)
    # data
    frames_train: int = 6000
    frames_val: int = 2000
    frames_test: int = 2000
    seed: int = 1
    # detection / net widths
    detectors: list[str] = field(default_factory=lambda: ["ml", "somp", "nn"])
    tac_preset: str = "lexicographic"
    conv_channels: list[int] = field(default_factory=lambda: list(CONV_CHANNELS))
    dense_units: list[int] = field(default_factory=lambda: list(DENSE_UNITS))
    se_channels: list[int] = field(default_factory=lambda: list(SE_CHANNELS))
    # csi sweep points, as error variances
    sweep_error_var: list[float] = field(default_factory=lambda: [0.0, 0.001, 0.01, 0.1])
    threads: int = 1                # no effect; perfbench/ still reads it

    def __post_init__(self):
        for name in ("snr_db", "detectors", "sweep_error_var"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must list at least one value")
        if any(math.isnan(v) or v == -math.inf for v in self.snr_db):
            raise ConfigError(f"snr_db entries must be finite or +inf, got {self.snr_db}")
        if any(math.isfinite(v) and abs(v) > _F32_MAX for v in self.snr_db):
            raise ConfigError(f"snr_db entries must fit a float32, got {self.snr_db}")
        # each point needs files of its own: 10 and 10.0000001 share a tag,
        # and 0 and -0 (tags "0" and "-0") one value; v + 0.0 turns -0 into 0
        if len({snr_tag(v + 0.0) for v in self.snr_db}) < len(self.snr_db):
            raise ConfigError(f"snr_db entries must differ in their file tag "
                              f"({{:g}}), got {self.snr_db}")
        for name in ("n_t", "n_u", "n_r", "t", "m"):
            if getattr(self, name) > _U16_MAX:
                raise ConfigError(f"{name} must be <= {_U16_MAX}, got {getattr(self, name)}")
        if not (1 <= self.n_u <= self.n_t):
            raise ConfigError(f"need 1 <= n_u <= n_t, got n_u={self.n_u}, n_t={self.n_t}")
        if self.n_u > self.n_r:
            raise ConfigError(f"need n_u <= n_r for ZF, got n_u={self.n_u}, n_r={self.n_r}")
        if self.tac_preset not in TAC_PRESETS:
            raise ConfigError(f"unknown tac_preset {self.tac_preset!r} "
                              f"(choose from {', '.join(TAC_PRESETS)})")
        tacs = TAC_PRESETS[self.tac_preset]
        if tacs is not None:
            try:
                build_tac_table(self.n_t, self.n_u, tacs=tacs)
            except ValueError as e:
                raise ConfigError(f"tac_preset {self.tac_preset!r} does not fit "
                                  f"n_t={self.n_t}, n_u={self.n_u}: {e}") from None
        try:
            QamConstellation(self.m)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if not (0 <= self.rho < 1):
            raise ConfigError(f"rho must be in [0, 1), got {self.rho}")
        if self.t < 1:
            raise ConfigError("t must be >= 1")
        for name in ("seed", "frames_train", "frames_val", "frames_test"):
            if not 0 <= getattr(self, name) <= _U64_MAX:
                raise ConfigError(f"{name} must be in [0, 2**64 - 1], got {getattr(self, name)}")
        if self.frames_train + self.frames_val + self.frames_test > _U64_MAX + 1:
            raise ConfigError("frames_train + frames_val + frames_test must be <= 2**64, "
                              "one u64 stream index per frame")
        for name, values in (("csi_error_var", [self.csi_error_var]),
                             ("sweep_error_var", self.sweep_error_var)):
            if not all(0 <= v < math.inf for v in values):
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        # training keys, checked here so that no command starts on them
        super().__post_init__()
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


def _parser(hint):
    """The text -> value function of one field annotation: int, float and
    str parse as such, `X | None` as X, and `list[X]` as comma-separated Xs
    (empty items dropped)."""
    if typing.get_origin(hint) is list:
        item = _parser(typing.get_args(hint)[0])
        return lambda raw: [item(s.strip()) for s in raw.split(",") if s.strip()]
    args = typing.get_args(hint)
    return _parser(args[0]) if args else hint


# the pilot triple, file syntax for csi_error_var: csi_error_variance's arguments
_PILOT_HINTS = {name: hint for name, hint in typing.get_type_hints(csi_error_variance).items()
                if name not in ("n_t", "return")}
_PARSERS = {name: _parser(hint) for name, hint in
            {**typing.get_type_hints(ExperimentConfig), **_PILOT_HINTS}.items()}


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
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from e
    triple = {name: values.pop(name) for name in _PILOT_HINTS if name in values}
    pilots = ", ".join(_PILOT_HINTS)
    if len(triple) not in (0, len(_PILOT_HINTS)):
        raise ConfigError(f"{pilots} must be given together")
    if triple and "csi_error_var" in values:
        raise ConfigError(f"csi_error_var and the pilot triple {pilots} "
                          "exclude each other: the triple sets csi_error_var")
    cfg = ExperimentConfig(**values)
    try:
        var = csi_error_variance(cfg.n_t, **triple) if triple else None
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return cfg if var is None else replace(cfg, csi_error_var=var)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())
