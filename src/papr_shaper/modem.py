"""The frame pipeline: Gray M-QAM, pulse-shaped OFDM, AWGN and the receiver.

Every stage works on a batch of frames, one frame per row:

    a = map_bits(bits, kern.constellation)       # (F, N*k) -> (F, N)
    s = a @ kern.synth                           # (F, S) waveforms
    r = add_awgn(s, z, ebn0_db, frame_bits, kern.dt)
    a_hat = kern.solve_zf(r @ kern.mf)           # matched filter, then ZF
    bits_hat = demap_symbols(a_hat, kern.constellation)

The receiver is a matched-filter bank followed by an exact zero-forcing
solve against the subcarrier Gram matrix. With identical shaped pulses
on every subcarrier the Gram matrix is a banded Toeplitz matrix and the
ZF solve removes the resulting intercarrier interference exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegeneratePulseError,
    FramingError,
    IllConditionedGramError,
    UnsupportedOrderError,
)
from .pulses import PulseDescriptor, SamplingGrid, sample_pulse

__all__ = [
    "Constellation",
    "OfdmConfig",
    "SampledWaveform",
    "GramMatrix",
    "build_constellation",
    "map_bits",
    "add_awgn",
    "demap_symbols",
]

SUPPORTED_ORDERS = (4, 8, 16, 32)

# Condition number beyond which the ZF solve is refused.
GRAM_CONDITION_LIMIT = 1e8


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def _gray_pam(bits_value: int, n_levels: int) -> int:
    """Level of a Gray-coded PAM axis: code v sits at index gray^-1(v),
    levels are -(n_levels-1), ..., +(n_levels-1) in steps of 2 with code
    0 on the positive end (so 1-bit code 0 -> +1)."""
    for idx in range(n_levels):
        if _gray(idx) == bits_value:
            return (n_levels - 1) - 2 * idx
    raise ValueError(f"no Gray index for code {bits_value}")  # pragma: no cover


@dataclass(frozen=True)
class Constellation:
    """M points with unit average energy, indexed by their bit label.

    ``points[v]`` is the point whose log2(M)-bit label has integer value
    v, so labels are implicitly 0..M-1 and the demap tie-break "lowest
    point index" is also "lowest label".
    """

    m_order: int
    points: np.ndarray

    @property
    def bits_per_symbol(self) -> int:
        return self.m_order.bit_length() - 1

    @property
    def labels(self) -> np.ndarray:
        return np.arange(self.m_order)


@functools.lru_cache(maxsize=None)
def build_constellation(M: int) -> Constellation:
    """Gray (square M) or quasi-Gray (rectangular/cross M) QAM.

    M = 4, 16: square grid, independent per-axis Gray PAM.
    M = 8: 4x2 rectangle, 2 Gray bits on I and 1 on Q.
    M = 32: 6x6 grid minus the four corner points. Labels start from the
    8x4 per-axis Gray rectangle; the sixteen points with |I| = 7 are
    folded onto the |Q| = 5 rows by (7s, q) -> (s|q|, 5*sign(q)), which
    keeps the worst nearest-neighbor label Hamming distance at 2.
    """
    if M not in SUPPORTED_ORDERS:
        raise UnsupportedOrderError(f"unsupported constellation order M={M}")

    k = M.bit_length() - 1
    pts = np.empty(M, dtype=complex)
    for label in range(M):
        if M == 4:
            i, q = label >> 1, label & 1
            x, y = _gray_pam(i, 2), _gray_pam(q, 2)
        elif M == 16:
            i, q = label >> 2, label & 3
            x, y = _gray_pam(i, 4), _gray_pam(q, 4)
        elif M == 8:
            i, q = label >> 1, label & 1
            x, y = _gray_pam(i, 4), _gray_pam(q, 2)
        else:  # M == 32
            i, q = label >> 2, label & 3
            x, y = _gray_pam(i, 8), _gray_pam(q, 4)
            if abs(x) == 7:
                s = 1 if x > 0 else -1
                x, y = s * abs(y), 5 * (1 if y > 0 else -1)
        pts[label] = complex(x, y)

    pts /= math.sqrt(float(np.mean(np.abs(pts) ** 2)))
    assert len(np.unique(pts)) == M
    return Constellation(m_order=M, points=pts)


def map_bits(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Map (..., N*k) bits to (..., N) symbols, k = log2(M) bits per
    symbol taken MSB first."""
    bits = np.asarray(bits, dtype=np.int64)
    k = c.bits_per_symbol
    if bits.shape[-1] % k:
        raise FramingError(
            f"bit count {bits.shape[-1]} is not a multiple of {k} (M={c.m_order})"
        )
    values = bits.reshape(*bits.shape[:-1], -1, k) @ (1 << np.arange(k - 1, -1, -1))
    return c.points[values]


def demap_symbols(y: np.ndarray, c: Constellation) -> np.ndarray:
    """Map (..., N) symbols to (..., N*k) bits by minimum-distance hard
    decision; ties go to the lowest point index."""
    y = np.asarray(y, dtype=complex)
    # argmin returns the first (lowest-index) minimizer, which is the tie-break.
    d2 = np.abs(y[..., None] - c.points) ** 2
    values = np.argmin(d2, axis=-1)
    k = c.bits_per_symbol
    shifts = np.arange(k - 1, -1, -1)
    bits = (values[..., None] >> shifts) & 1
    return bits.reshape(*y.shape[:-1], -1)


@dataclass(frozen=True)
class OfdmConfig:
    """N subcarriers at spacing 1/T, M-QAM, oversampling L (S = N*L).

    ``pulse_assignment`` is either one descriptor shared by every
    subcarrier or a tuple of exactly N descriptors.
    """

    n_subcarriers: int
    m_order: int
    pulse_assignment: PulseDescriptor | tuple[PulseDescriptor, ...]
    oversample: int = 4

    def __post_init__(self):
        if self.n_subcarriers < 1:
            raise ConfigError("n_subcarriers must be >= 1")
        if self.m_order not in SUPPORTED_ORDERS:
            raise UnsupportedOrderError(f"unsupported constellation order M={self.m_order}")
        if self.oversample < 4:
            raise ConfigError("oversample must be >= 4 for peak capture")
        if isinstance(self.pulse_assignment, tuple):
            if len(self.pulse_assignment) != self.n_subcarriers:
                raise ConfigError(
                    f"per-subcarrier assignment has {len(self.pulse_assignment)} "
                    f"pulses for N={self.n_subcarriers}"
                )
        elif not isinstance(self.pulse_assignment, PulseDescriptor):
            raise ConfigError("pulse_assignment must be a descriptor or tuple")

    @property
    def samples_per_symbol(self) -> int:
        return self.n_subcarriers * self.oversample

    @property
    def bits_per_frame(self) -> int:
        return self.n_subcarriers * (self.m_order.bit_length() - 1)

    @property
    def grid(self) -> SamplingGrid:
        return SamplingGrid(samples_per_symbol=self.samples_per_symbol)

    def descriptors(self) -> tuple[PulseDescriptor, ...]:
        if isinstance(self.pulse_assignment, tuple):
            return self.pulse_assignment
        return (self.pulse_assignment,) * self.n_subcarriers


@dataclass(frozen=True)
class SampledWaveform:
    samples: np.ndarray
    dt: float


@dataclass(frozen=True)
class GramMatrix:
    entries: np.ndarray

    @property
    def condition(self) -> float:
        """max|lambda| / min|lambda|, from eigvalsh since G is Hermitian."""
        lam = np.abs(np.linalg.eigvalsh(self.entries))
        return float(lam.max() / lam.min()) if lam.min() > 0 else math.inf


class ModemKernel:
    """Precomputed matrices for one configuration.

    synth: (N, S) rows a_k -> contribution p_k(t) exp(+j2pi k t/T)
    mf:    (S, N) so that y = r @ mf is the normalized matched filter bank
    gram:  Hermitian N x N with unit diagonal; noiseless y = gram @ a
    gram_inv: G^-1, computed on first use and shared by every ZF solve;
              raises IllConditionedGramError beyond GRAM_CONDITION_LIMIT
    """

    def __init__(self, cfg: OfdmConfig):
        self.cfg = cfg
        grid = cfg.grid
        t = grid.times()
        N, S = cfg.n_subcarriers, cfg.samples_per_symbol
        self.dt = grid.dt

        pulses = np.empty((N, S))
        for k, desc in enumerate(cfg.descriptors()):
            pulses[k] = sample_pulse(desc, grid).samples
        energies = np.sum(pulses**2, axis=1) * self.dt
        if np.any(energies <= 0):
            raise DegeneratePulseError("zero-energy pulse in assignment")
        self.pulses = pulses
        self.energies = energies

        phases = np.exp(2j * np.pi * np.outer(np.arange(N), t))
        self.synth = pulses * phases
        self.mf = (pulses * np.conj(phases)).T * (self.dt / energies)

        corr = (self.synth @ self.synth.conj().T) * self.dt
        scale = np.sqrt(np.outer(energies, energies))
        g = np.conj(corr) / scale
        self.gram = GramMatrix(entries=0.5 * (g + g.conj().T))
        self.gram_condition = self.gram.condition

    @functools.cached_property
    def constellation(self) -> Constellation:
        return build_constellation(self.cfg.m_order)

    @functools.cached_property
    def gram_inv(self) -> np.ndarray:
        if self.gram_condition > GRAM_CONDITION_LIMIT:
            raise IllConditionedGramError(self.gram_condition)
        return np.linalg.inv(self.gram.entries)

    def solve_zf(self, y: np.ndarray) -> np.ndarray:
        """Exact zero-forcing of (F, N) matched-filter outputs: G a_hat = y."""
        return y @ self.gram_inv.T


@functools.lru_cache(maxsize=64)
def get_kernel(cfg: OfdmConfig) -> ModemKernel:
    return ModemKernel(cfg)


def add_awgn(
    s: np.ndarray,
    z: np.ndarray | None,
    ebn0_db: float,
    frame_bits: int,
    dt: float,
) -> np.ndarray:
    """Add circular complex white Gaussian noise to (F, S) waveforms.

    ``z`` holds (F, 2S) standard normals, real parts first. Eb is
    measured per frame from the waveform itself, so shaped and unshaped
    systems are compared at equal energy per bit. ``ebn0_db = +inf``
    bypasses the channel and reads no ``z``.
    """
    if ebn0_db == math.inf:
        return s
    S = s.shape[1]
    energy = (np.abs(s) ** 2).sum(axis=1) * dt
    n0 = (energy / frame_bits) * 10.0 ** (-ebn0_db / 10.0)
    sigma = np.sqrt(n0 / (2.0 * dt))  # per real dimension
    return s + sigma[:, None] * (z[:, :S] + 1j * z[:, S:])
