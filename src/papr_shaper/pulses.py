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

from .errors import ConfigKeyError, check_count

__all__ = [
    "PulseFamily",
    "PulseDescriptor",
    "sample_pulse",
    "pulse_energy",
    "chirp_z",
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

    The descriptor checked its parameters when it was built, and S is a
    count named ``samples_per_symbol``; a pulse of zero discrete energy
    raises ConfigKeyError naming its family's parameter."""
    check_count("samples_per_symbol", S, 1, math.inf)
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


def chirp_z(x: np.ndarray, n: int, points: int) -> np.ndarray:
    """Bins i < ``points`` of the n-point DFT of x zero-padded to n, by the chirp-z
    transform (Rabiner, Schafer and Rader, 1969): sum_m x_m w^(i m), w = exp(-2j pi / n),
    as i m = (i^2 + m^2 - (i - m)^2) / 2, one convolution with the chirp w^(k^2/2) taken by
    three FFTs of the next power of two >= x.size + points - 1, however large n is."""
    k = np.arange(max(x.size, points))
    chirp = np.exp(-1j * np.pi / n * ((k * k) % (2 * n)))  # k^2 reduced exactly: w^n = 1
    m = 1 << (x.size + points - 2).bit_length()
    kernel = np.zeros(m, dtype=complex)  # conj(chirp) at k = 1 - x.size .. points - 1
    kernel[:points] = chirp[:points].conj()
    kernel[m - x.size + 1:] = chirp[x.size - 1:0:-1].conj()
    y = np.fft.ifft(np.fft.fft(x * chirp[:x.size], m) * np.fft.fft(kernel))
    return y[:points] * chirp[:points]
