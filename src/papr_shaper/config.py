"""Run configuration: defaults, file parsing and flag overrides.

Config files are line-oriented ``key = value`` with ``#`` comments.
Precedence is defaults < file < command-line overrides; the seed
default additionally honors the PAPR_SHAPER_SEED environment variable
at the lowest precedence.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, fields

from .analysis import MAX_TRIALS
from .errors import ConfigKeyError, check_count, check_real
from .harness import check_ber_plan
from .modem import OfdmConfig
from .pulses import MAX_SHAPE_N, PulseDescriptor, PulseFamily
from .seeding import MAX_WORKERS

__all__ = ["RunConfig", "parse_config"]

# Caps on the keys only the CLI reads, so that a typo ends in a named error
# instead of an unbounded allocation. The kernel keys are capped by
# modem.OfdmConfig and pulses.PulseDescriptor, the BER plan by
# harness.check_ber_plan, and trials and workers, which the library's
# campaigns read too, by analysis.MAX_TRIALS and seeding.MAX_WORKERS.
MAX_GAMMA_POINTS = 100_001
# xcorr's CSV grows with f_max (16385 points per n at the cap) and with
# n_list, one curve per entry: 1.05M rows at both caps
MAX_F_MAX = 128
MAX_N_LIST = 64


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
        """Config-file text that parses back to an equal RunConfig.

        The format has no escapes, so a string holding ``#``, a line break
        or leading or trailing whitespace raises ConfigKeyError.
        """
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            if isinstance(v, str) and ("#" in v or v != v.strip() or len(f"{v}.".splitlines()) > 1):
                raise ConfigKeyError(f.name, f"{v!r} cannot be written back: the format has no "
                                     "escape for '#', line breaks or edge whitespace")
            if isinstance(v, list):
                v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    def resolved_n_list(self) -> list[int]:
        return self.n_list if self.n_list is not None else [self.shape_n]

    def resolved_f_max(self) -> float:
        if self.f_max is not None:
            check_real("f_max", self.f_max, 1, MAX_F_MAX)
            return self.f_max
        key = "n_list" if self.n_list is not None else "shape_n"
        f_max = float(max(8, max(self.resolved_n_list()) + 2))
        if f_max > MAX_F_MAX:
            raise ConfigKeyError(key, f"gives f_max = {f_max:g}/T, above the cap {MAX_F_MAX}")
        return f_max

    def gamma_points(self) -> float:
        """Points of the CCDF gamma grid gamma_min_db + k * gamma_step_db,
        k = 0..K with K = floor(span / step + 1e-9): the 1e-9 keeps the end of
        a dividing step whose quotient rounds below K. A float: NaN for a NaN
        or infinite quotient."""
        return ((self.gamma_max_db - self.gamma_min_db) / self.gamma_step_db + 1e-9) // 1 + 1

    def pulse_descriptor(self) -> PulseDescriptor:
        return PulseDescriptor(
            family=PulseFamily(self.pulse_family),
            shape_n=self.shape_n,
            taper_alpha=self.taper_alpha,
            bandwidth_factor=self.bandwidth_factor,
        )

    def ofdm_config(self) -> OfdmConfig:
        return OfdmConfig(
            n_subcarriers=self.n_subcarriers,
            m_order=self.m,
            pulse_set=(self.pulse_descriptor(),),
            oversample=self.oversample,
        )


def _parse_list(item):
    return lambda raw: [item(x) for x in raw.split(",") if x.strip()]


# Each key's parser, from its RunConfig annotation with "| None" dropped;
# float() reads "inf", the noiseless-channel sentinel in ebn0_db_list.
_TYPE_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "list[float]": _parse_list(float),
    "list[int]": _parse_list(int),
}
_KEY_PARSERS = {f.name: _TYPE_PARSERS[f.type.removesuffix(" | None")] for f in fields(RunConfig)}


def _coerce(key: str, raw: str, line: int | None):
    raw = raw.strip()
    try:
        return _KEY_PARSERS[key](raw)
    except ValueError as exc:
        raise ConfigKeyError(key, f"malformed value {raw!r} ({exc})", line) from None


def _validate(cfg: RunConfig) -> None:
    families = sorted(f.value for f in PulseFamily)
    if cfg.pulse_family not in families:
        raise ConfigKeyError("pulse_family", f"must be one of {families}, got {cfg.pulse_family!r}")
    cfg.ofdm_config()  # range-checks the pulse keys, n_subcarriers, m and oversample
    check_ber_plan(cfg.ebn0_db_list, cfg.target_errors, cfg.max_frames)
    check_count("workers", cfg.workers, 1, MAX_WORKERS)
    check_count("trials", cfg.trials, 1, MAX_TRIALS)
    if cfg.n_list is not None:
        if not cfg.n_list:
            raise ConfigKeyError("n_list", "must be nonempty")
        if len(cfg.n_list) > MAX_N_LIST:
            raise ConfigKeyError("n_list", f"must hold at most {MAX_N_LIST} entries, "
                                 f"got {len(cfg.n_list)}")
        for n in cfg.n_list:
            check_real("n_list", n, 0, MAX_SHAPE_N)
    if cfg.f_max is not None:
        cfg.resolved_f_max()  # checks a set f_max; a derived one is checked by xcorr alone
    check_real("gamma_step_db", cfg.gamma_step_db, math.ulp(0.0), sys.float_info.max)
    check_real("gamma_min_db", cfg.gamma_min_db, -sys.float_info.max, sys.float_info.max)
    check_real("gamma_max_db", cfg.gamma_max_db, cfg.gamma_min_db, sys.float_info.max)
    if not cfg.gamma_points() <= MAX_GAMMA_POINTS:  # NaN fails too
        raise ConfigKeyError("gamma_step_db", f"gives more than {MAX_GAMMA_POINTS} gamma grid points")


def parse_config(file_contents: str, overrides: list[str] = ()) -> RunConfig:
    """Build a RunConfig from file text plus ``key=value`` overrides."""
    cfg = RunConfig()

    def apply(item: str, line: int | None):
        key, eq, raw = item.partition("=")
        key = key.strip()
        if not (eq and key):  # the item itself is named: there is no key
            form = "key=value" if line is None else "key = value"
            raise ConfigKeyError(item, f"expected {form!r}", line)
        if key not in _KEY_PARSERS:
            raise ConfigKeyError(key, "unknown key", line)
        setattr(cfg, key, _coerce(key, raw, line))

    for lineno, text in enumerate(file_contents.splitlines(), start=1):
        if stripped := text.split("#", 1)[0].strip():
            apply(stripped, lineno)
    for item in overrides:
        apply(item, None)

    _validate(cfg)
    return cfg
