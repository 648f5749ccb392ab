"""Oracles shared by the test modules."""

import numpy as np


def papr(samples) -> float:
    """Peak over mean instantaneous power of one waveform (linear, >= 1)."""
    power = np.abs(np.asarray(samples)) ** 2
    return float(power.max() / power.mean())
