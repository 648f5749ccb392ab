"""Oracles shared by the test modules."""

import numpy as np


def papr(samples) -> float:
    """Peak over mean instantaneous power of one waveform (linear, >= 1)."""
    power = np.abs(np.asarray(samples)) ** 2
    return float(power.max() / power.mean())


def demap_argmin(y, c) -> np.ndarray:
    """Minimum-distance hard decision over every point of ``c``: (..., N)
    symbols to (..., N*k) bits; argmin breaks ties to the lowest label."""
    y = np.asarray(y, dtype=complex)
    values = np.argmin(np.abs(y[..., None] - c.points) ** 2, axis=-1)
    k = c.bits_per_symbol
    bits = (values[..., None] >> np.arange(k - 1, -1, -1)) & 1
    return bits.reshape(*y.shape[:-1], -1)
