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


def dense_synth(kern) -> np.ndarray:
    """(N, S) rows p_k(t) exp(+j2pi k t/T): the synthesis oracle ``a @ dense_synth(kern)``."""
    N = kern.cfg.n_subcarriers
    phases = np.exp(2j * np.pi * np.outer(np.arange(N), kern.cfg.grid.times()))
    return kern.pulses * phases


def dense_mf(kern) -> np.ndarray:
    """(S, N) normalized matched-filter bank: the oracle ``r @ dense_mf(kern)``."""
    return dense_synth(kern).conj().T * (kern.dt / kern.energies)


def dense_gram(kern) -> np.ndarray:
    """Gram matrix from the dense synthesis rows, symmetrized as the kernel's."""
    synth = dense_synth(kern)
    corr = (synth @ synth.conj().T) * kern.dt
    g = np.conj(corr) / np.sqrt(np.outer(kern.energies, kern.energies))
    return 0.5 * (g + g.conj().T)
