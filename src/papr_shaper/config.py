"""Run configuration: defaults, file parsing and flag overrides.

Config files are line-oriented ``key = value`` with ``#`` comments.
Precedence is defaults < file < command-line overrides; the seed
default additionally honors the PAPR_SHAPER_SEED environment variable
at the lowest precedence.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .modem import SUPPORTED_ORDERS, OfdmConfig
from .pulses import PulseDescriptor, PulseFamily

__all__ = ["RunConfig", "ConfigKeyError", "parse_config"]

FAMILY_NAMES = {
    "rect": PulseFamily.RECT,
    "sine_power": PulseFamily.SINE_POWER,
    "tapered_flat_top": PulseFamily.TAPERED_FLAT_TOP,
    "truncated_sinc": PulseFamily.TRUNCATED_SINC,
}


class ConfigKeyError(ConfigError):
    """Invalid configuration input, attributed to one key."""

    def __init__(self, key: str, reason: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{key}: {reason}{where}")
        self.key = key
        self.reason = reason
        self.line = line


def _default_seed() -> int:
    raw = os.environ.get("PAPR_SHAPER_SEED", "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigKeyError(
            "PAPR_SHAPER_SEED", f"malformed value {raw!r}, expected an integer"
        ) from None


@dataclass
class RunConfig:
    n_subcarriers: int = 64
    m: int = 4
    oversample: int = 4
    pulse_family: str = "rect"
    shape_n: int = 0
    taper_alpha: float = 0.5
    bandwidth_factor: float = 2.0
    normalize: bool = False
    ebn0_db_list: list[float] = field(default_factory=lambda: [0.0, 2.0, 4.0, 6.0, 8.0])
    trials: int = 10_000
    target_errors: int = 200
    max_frames: int = 1_000_000
    seed: int = field(default_factory=_default_seed)
    output_path: str = "."
    n_list: list[int] | None = None
    f_max: float | None = None
    gamma_min_db: float = 0.0
    gamma_max_db: float = 13.0
    gamma_step_db: float = 0.1
    workers: int = 1

    def serialize(self) -> str:
        """Config-file text that parses back to this exact RunConfig."""
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, list):
                v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    def resolved_n_list(self) -> list[int]:
        return self.n_list if self.n_list is not None else [self.shape_n]

    def resolved_f_max(self) -> float:
        if self.f_max is not None:
            return self.f_max
        return float(max(8, max(self.resolved_n_list()) + 2))

    def pulse_descriptor(self) -> PulseDescriptor:
        return PulseDescriptor(
            family=FAMILY_NAMES[self.pulse_family],
            shape_n=self.shape_n,
            taper_alpha=self.taper_alpha,
            bandwidth_factor=self.bandwidth_factor,
            normalize_energy=self.normalize,
        )

    def ofdm_config(self) -> OfdmConfig:
        return OfdmConfig(
            n_subcarriers=self.n_subcarriers,
            m_order=self.m,
            pulse_assignment=self.pulse_descriptor(),
            oversample=self.oversample,
        )


_INT_KEYS = {
    "n_subcarriers",
    "m",
    "oversample",
    "shape_n",
    "trials",
    "target_errors",
    "max_frames",
    "seed",
    "workers",
}
_FLOAT_KEYS = {
    "taper_alpha",
    "bandwidth_factor",
    "f_max",
    "gamma_min_db",
    "gamma_max_db",
    "gamma_step_db",
}
_BOOL_KEYS = {"normalize"}
_FLOAT_LIST_KEYS = {"ebn0_db_list"}
_INT_LIST_KEYS = {"n_list"}
_TEXT_KEYS = {"pulse_family", "output_path"}

ALL_KEYS = (
    _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _FLOAT_LIST_KEYS | _INT_LIST_KEYS | _TEXT_KEYS
)


def _parse_float(raw: str) -> float:
    # "inf" is the noiseless-channel sentinel in ebn0_db_list
    return float(raw)


def _coerce(key: str, raw: str, line: int | None):
    raw = raw.strip()
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return _parse_float(raw)
        if key in _BOOL_KEYS:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if key in _FLOAT_LIST_KEYS:
            return [_parse_float(x) for x in raw.split(",") if x.strip()]
        if key in _INT_LIST_KEYS:
            return [int(x) for x in raw.split(",") if x.strip()]
        return raw
    except ValueError as exc:
        raise ConfigKeyError(key, f"malformed value {raw!r} ({exc})", line) from None


def _validate(cfg: RunConfig) -> None:
    def bad(key, reason):
        raise ConfigKeyError(key, reason)

    if cfg.n_subcarriers < 1:
        bad("n_subcarriers", "must be >= 1")
    if cfg.m not in SUPPORTED_ORDERS:
        bad("m", f"must be one of {sorted(SUPPORTED_ORDERS)}, got {cfg.m}")
    if cfg.oversample < 4:
        bad("oversample", "must be >= 4")
    if cfg.pulse_family not in FAMILY_NAMES:
        bad("pulse_family", f"must be one of {sorted(FAMILY_NAMES)}, got {cfg.pulse_family!r}")
    if cfg.shape_n < 0:
        bad("shape_n", "must be >= 0")
    if not 0.0 <= cfg.taper_alpha <= 1.0:
        bad("taper_alpha", "must lie in [0, 1]")
    if not cfg.bandwidth_factor > 0:
        bad("bandwidth_factor", "must be > 0")
    if not cfg.ebn0_db_list:
        bad("ebn0_db_list", "must be nonempty")
    if any(b < a for a, b in zip(cfg.ebn0_db_list, cfg.ebn0_db_list[1:])):
        bad("ebn0_db_list", "must be ascending")
    if any(math.isnan(x) or x == -math.inf for x in cfg.ebn0_db_list):
        bad("ebn0_db_list", "must not contain NaN or -inf (inf is the noiseless channel)")
    if cfg.trials < 1:
        bad("trials", "must be >= 1")
    if cfg.target_errors < 1:
        bad("target_errors", "must be >= 1")
    if cfg.max_frames < 1:
        bad("max_frames", "must be >= 1")
    if cfg.workers < 1:
        bad("workers", "must be >= 1")
    if cfg.n_list is not None and (not cfg.n_list or any(n < 0 for n in cfg.n_list)):
        bad("n_list", "must be a nonempty list of integers >= 0")
    if cfg.f_max is not None and not cfg.f_max >= 1.0:
        bad("f_max", "must be >= 1")
    if not cfg.gamma_step_db > 0:
        bad("gamma_step_db", "must be > 0")
    if not cfg.gamma_max_db >= cfg.gamma_min_db:
        bad("gamma_max_db", "must be >= gamma_min_db")


def parse_config(file_contents: str, overrides: list[str] = ()) -> RunConfig:
    """Build a RunConfig from file text plus ``key=value`` overrides."""
    cfg = RunConfig()

    def apply(key: str, raw: str, line: int | None):
        key = key.strip()
        if key not in ALL_KEYS:
            raise ConfigKeyError(key, "unknown key", line)
        setattr(cfg, key, _coerce(key, raw, line))

    for lineno, text in enumerate(file_contents.splitlines(), start=1):
        stripped = text.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigKeyError(stripped.split()[0], "expected 'key = value'", lineno)
        key, raw = stripped.split("=", 1)
        apply(key, raw, lineno)

    for item in overrides:
        if "=" not in item:
            raise ConfigKeyError(item, "expected 'key=value'")
        key, raw = item.split("=", 1)
        apply(key, raw, None)

    _validate(cfg)
    return cfg
