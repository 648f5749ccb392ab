"""Subcarrier pulse shapes: sampling and discrete energy.

All pulses are real, time-limited to one symbol interval [0, T) and
sampled at the S instants t_i = i/S, i = 0..S-1 (no sample at t = T), so
that concatenated symbols never share a sample. T is normalized to 1.0
by convention and every frequency below is expressed in units of 1/T.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConfigKeyError

__all__ = [
    "PulseFamily",
    "PulseDescriptor",
    "sample_pulse",
    "pulse_energy",
    "squared_transform",
]


class PulseFamily(enum.Enum):
    RECT = "rect"
    SINE_POWER = "sine_power"
    TAPERED_FLAT_TOP = "tapered_flat_top"
    TRUNCATED_SINC = "truncated_sinc"


# a sin^n pulse raises a float to the power n
MAX_SHAPE_N = sys.float_info.max
# np.sinc multiplies 2W(t - T/2), at most W, by pi; above this W the product overflows
MAX_BANDWIDTH_FACTOR = sys.float_info.max / math.pi


@dataclass(frozen=True)
class PulseDescriptor:
    """Pulse family plus its shape parameters.

    Each family reads only its own parameter: ``shape_n`` for the
    sine-power family (n = 0 degenerates to the rectangular pulse),
    ``taper_alpha`` for the tapered flat-top, ``bandwidth_factor`` for
    the truncated sinc. Irrelevant parameters are ignored, but each is
    range-checked on construction (ConfigKeyError naming it, NaN too), as
    is the family (``pulse_family``), so a descriptor that exists is valid.
    """

    family: PulseFamily
    shape_n: int = 0
    taper_alpha: float = 0.0
    bandwidth_factor: float = 1.0

    def __post_init__(self):
        if not isinstance(self.family, PulseFamily):
            raise ConfigKeyError("pulse_family", f"must be a PulseFamily, got {self.family!r}")
        if not 0 <= self.shape_n <= MAX_SHAPE_N:
            raise ConfigKeyError("shape_n", f"must lie in [0, {MAX_SHAPE_N:g}]")
        if not 0.0 <= self.taper_alpha <= 1.0:
            raise ConfigKeyError("taper_alpha", "must lie in [0, 1]")
        if not 0 < self.bandwidth_factor <= MAX_BANDWIDTH_FACTOR:
            raise ConfigKeyError("bandwidth_factor", f"must lie in (0, {MAX_BANDWIDTH_FACTOR:g}], "
                                 f"got {self.bandwidth_factor}")


def sample_pulse(desc: PulseDescriptor, S: int) -> np.ndarray:
    """The (S,) samples p(t_i) of a pulse at t_i = i * (1/S), i = 0..S-1.

    The descriptor checked its parameters when it was built; a pulse of
    zero discrete energy raises ConfigKeyError naming its family's
    parameter."""
    if S < 1:
        raise ConfigError(f"samples_per_symbol must be >= 1, got {S}")
    t = np.arange(S) * (1.0 / S)

    if desc.family is PulseFamily.RECT:
        p = np.ones_like(t)
    elif desc.family is PulseFamily.SINE_POWER:
        p = np.sin(np.pi * t) ** desc.shape_n
    elif desc.family is PulseFamily.TAPERED_FLAT_TOP:
        p = _tapered_flat_top(t, desc.taper_alpha)
    else:  # PulseFamily.TRUNCATED_SINC
        p = np.sinc(2.0 * desc.bandwidth_factor * (t - 0.5))
    if pulse_energy(p, 1.0 / S) <= 0.0:  # p**2 can underflow to 0 where p does not
        if desc.family is PulseFamily.SINE_POWER:
            raise ConfigKeyError("shape_n", f"sin^{desc.shape_n} is zero at all {S} samples")
        key = "bandwidth_factor" if desc.family is PulseFamily.TRUNCATED_SINC else "taper_alpha"
        raise ConfigKeyError(key, f"the {desc.family.value} pulse has zero energy at {S} samples")
    return p


def _tapered_flat_top(t: np.ndarray, alpha: float) -> np.ndarray:
    # Flat 1 over the central (1 - alpha)T, raised-cosine ramps of width
    # alpha*T/2 at each end; alpha = 0 recovers the rectangular pulse.
    p = np.ones_like(t)
    edge = alpha / 2.0
    lo = t < edge
    hi = t > 1.0 - edge
    p[lo] = 0.5 * (1.0 - np.cos(np.pi * t[lo] / edge))
    p[hi] = 0.5 * (1.0 - np.cos(np.pi * (1.0 - t[hi]) / edge))
    return p


def pulse_energy(samples: np.ndarray, dt: float) -> float:
    """Discrete energy sum(p_i^2) * dt."""
    return float(np.sum(np.square(samples)) * dt)


def squared_transform(p: np.ndarray, dt: float, q: int = 1, points=None, other=None) -> np.ndarray:
    """Transform of p * other (default p * p) over sqrt(e_p e_other) at f = i/q (units of
    1/T), i < points (default and at most q*S): one FFT of the product zero-padded to q*S."""
    other, n = p if other is None else other, q * p.size
    spectrum = np.fft.fft(p * other, n=n)[:points]
    return spectrum * (dt / math.sqrt(pulse_energy(p, dt) * pulse_energy(other, dt)))
