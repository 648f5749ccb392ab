"""Subcarrier pulse shapes: sampling and energy normalization.

All pulses are real, time-limited to one symbol interval [0, T) and
sampled on a left-closed uniform grid (no sample at t = T), so that
concatenated symbols never share a sample. T is normalized to 1.0 by
convention and every frequency below is expressed in units of 1/T.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegeneratePulseError, InvalidDescriptorError

__all__ = [
    "PulseFamily",
    "PulseDescriptor",
    "SamplingGrid",
    "SampledPulse",
    "sample_pulse",
    "pulse_energy",
    "normalize_pulse",
]


class PulseFamily(enum.Enum):
    RECT = "rect"
    SINE_POWER = "sine_power"
    TAPERED_FLAT_TOP = "tapered_flat_top"
    TRUNCATED_SINC = "truncated_sinc"


@dataclass(frozen=True)
class PulseDescriptor:
    """Pulse family plus its shape parameters.

    Each family reads only its own parameter: ``shape_n`` for the
    sine-power family (n = 0 degenerates to the rectangular pulse),
    ``taper_alpha`` for the tapered flat-top, ``bandwidth_factor`` for
    the truncated sinc. Irrelevant parameters are ignored, not rejected.
    """

    family: PulseFamily
    shape_n: int = 0
    taper_alpha: float = 0.0
    bandwidth_factor: float = 1.0
    normalize_energy: bool = False

    def tag(self) -> str:
        """Short text identifier used in CSV output."""
        return self.family.value


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform grid of S sample instants t_i = i*T/S, i = 0..S-1."""

    samples_per_symbol: int
    symbol_duration: float = 1.0

    def __post_init__(self):
        if self.samples_per_symbol < 1:
            raise InvalidDescriptorError("samples_per_symbol must be >= 1")
        if not (self.symbol_duration > 0 and math.isfinite(self.symbol_duration)):
            raise InvalidDescriptorError("symbol_duration must be finite and > 0")

    @property
    def dt(self) -> float:
        return self.symbol_duration / self.samples_per_symbol

    def times(self) -> np.ndarray:
        S = self.samples_per_symbol
        return np.arange(S) * (self.symbol_duration / S)


@dataclass(frozen=True)
class SampledPulse:
    samples: np.ndarray
    dt: float
    descriptor: PulseDescriptor


def _validate_descriptor(desc: PulseDescriptor) -> None:
    if not isinstance(desc.family, PulseFamily):
        raise InvalidDescriptorError(f"unknown pulse family: {desc.family!r}")
    for name in ("taper_alpha", "bandwidth_factor"):
        v = float(getattr(desc, name))
        if not math.isfinite(v):
            raise InvalidDescriptorError(f"{name} must be finite, got {v!r}")
    if desc.shape_n < 0:
        raise InvalidDescriptorError(f"shape_n must be >= 0, got {desc.shape_n}")
    if not 0.0 <= desc.taper_alpha <= 1.0:
        raise InvalidDescriptorError(
            f"taper_alpha must lie in [0, 1], got {desc.taper_alpha}"
        )
    if desc.bandwidth_factor <= 0:
        raise InvalidDescriptorError(
            f"bandwidth_factor must be > 0, got {desc.bandwidth_factor}"
        )


def sample_pulse(desc: PulseDescriptor, grid: SamplingGrid) -> SampledPulse:
    """Sample a pulse on the grid, optionally scaled to unit energy."""
    _validate_descriptor(desc)
    t = grid.times()
    T = grid.symbol_duration

    if desc.family is PulseFamily.RECT or (
        desc.family is PulseFamily.SINE_POWER and desc.shape_n == 0
    ):
        p = np.ones_like(t)
    elif desc.family is PulseFamily.SINE_POWER:
        p = np.sin(np.pi * t / T) ** desc.shape_n
    elif desc.family is PulseFamily.TAPERED_FLAT_TOP:
        p = _tapered_flat_top(t, T, desc.taper_alpha)
    elif desc.family is PulseFamily.TRUNCATED_SINC:
        W = desc.bandwidth_factor / T
        p = np.sinc(2.0 * W * (t - T / 2.0))
    else:  # pragma: no cover - enum is exhaustive
        raise InvalidDescriptorError(f"unknown pulse family: {desc.family!r}")

    pulse = SampledPulse(samples=p, dt=grid.dt, descriptor=desc)
    if desc.normalize_energy:
        pulse = normalize_pulse(pulse)
    return pulse


def _tapered_flat_top(t: np.ndarray, T: float, alpha: float) -> np.ndarray:
    # Flat 1 over the central (1 - alpha)T, raised-cosine ramps of width
    # alpha*T/2 at each end; alpha = 0 recovers the rectangular pulse.
    p = np.ones_like(t)
    if alpha == 0.0:
        return p
    edge = alpha * T / 2.0
    lo = t < edge
    hi = t > T - edge
    p[lo] = 0.5 * (1.0 - np.cos(np.pi * t[lo] / edge))
    p[hi] = 0.5 * (1.0 - np.cos(np.pi * (T - t[hi]) / edge))
    return p


def pulse_energy(p: SampledPulse) -> float:
    """Discrete energy sum(p_i^2) * dt."""
    return float(np.sum(np.square(p.samples)) * p.dt)


def normalize_pulse(p: SampledPulse) -> SampledPulse:
    """Rescale to unit energy; raises on a zero-energy pulse."""
    e = pulse_energy(p)
    if e <= 0.0:
        raise DegeneratePulseError("cannot normalize a zero-energy pulse")
    scaled = p.samples / math.sqrt(e)
    desc = replace(p.descriptor, normalize_energy=True)
    return SampledPulse(samples=scaled, dt=p.dt, descriptor=desc)
