"""The frame pipeline: Gray M-QAM, pulse-shaped OFDM, AWGN and the receiver.

Every stage works on a batch of frames, one frame per row:

    a = map_bits(bits, kern.constellation)       # (F, N*k) -> (F, N)
    s = kern.synthesize(a)                       # (F, S) waveforms
    r = add_awgn(s, z, ebn0_db, frame_bits, kern.dt)
    a_hat = kern.solve_zf(kern.matched_filter(r))  # matched filter, then ZF
    bits_hat = demap_symbols(a_hat, kern.constellation)

The receiver is a matched-filter bank followed by an exact zero-forcing
solve against the subcarrier Gram matrix. With identical shaped pulses
on every subcarrier the Gram matrix is a banded Toeplitz matrix and the
ZF solve removes the resulting intercarrier interference exactly. A rect
kernel's Toeplitz Gram matrix is exactly the identity; such a kernel
skips the condition number, the inverse and the per-frame ZF product.

The demapper never measures the distance to every point. Minimum-distance
detection on a rectangular QAM grid separates per axis, so each axis is
scaled to the odd-integer level grid and sliced on its own, and the label
is read from a table built once per constellation. The 32-cross is the
6x6 grid without its corners; a sample in an empty corner cell goes to
the nearer of the two cross points beside it, decided by |x| against |y|.

A pulse shared by every subcarrier is sampled once. Its Gram matrix is
built from its first column, the DFT of p^2. At every N its synthesis
and matched filter are in-place FFTs of length S, whose rows do not
depend on the batch that holds them; a pulse of samples exactly 1.0
(rect) skips the multiply by p. Per-subcarrier pulse sets use the
dense N x S matrices ``kern.synth`` and ``kern.mf``.
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
from .pulses import PulseDescriptor, SamplingGrid, sample_pulse, squared_transform

__all__ = [
    "Constellation",
    "OfdmConfig",
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
    point index" is also "lowest label". ``points * scale`` lies on the
    odd-integer level grid. ``label_table`` and ``bit_table`` are the
    read-only tables of :func:`demap_symbols`, shared by worker threads.
    """

    m_order: int
    points: np.ndarray
    scale: float
    label_table: np.ndarray
    bit_table: np.ndarray

    @property
    def bits_per_symbol(self) -> int:
        return self.m_order.bit_length() - 1


def _label_table(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Nearest label for every slicer cell and side of the diagonal.

    An axis with n odd-integer levels has 2n - 1 cells: cell 2j is the
    open decision interval of level j, cell 2j - 1 the threshold between
    levels j - 1 and j. Side 0 is |x| = |y|, side 1 |x| > |y| and side 2
    |x| < |y|; only the empty corners of the 32-cross depend on it. Each
    entry comes from exact integer distances at one point of the cell,
    in quarter-level units, and argmin breaks ties to the lowest label.
    """
    nx, ny = int(xs.max()) + 1, int(ys.max()) + 1
    table = np.empty((2 * nx - 1, 2 * ny - 1, 3), dtype=np.intp)
    for i, j, side in np.ndindex(table.shape):
        a, b = 4 * (i + 1 - nx), 4 * (j + 1 - ny)
        # a level coordinate moved a quarter step inward picks the side
        if side == 1 and j % 2 == 0:
            b -= np.sign(b)
        if side == 2 and i % 2 == 0:
            a -= np.sign(a)
        table[i, j, side] = np.argmin((4 * xs - a) ** 2 + (4 * ys - b) ** 2)
    table.setflags(write=False)
    return table


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
    qb = k // 2  # label bits on Q; the rest (as many or one more) on I
    nq = 1 << qb
    pts = np.empty(M, dtype=complex)
    for label in range(M):
        x, y = _gray_pam(label >> qb, M // nq), _gray_pam(label & (nq - 1), nq)
        if abs(x) == 7:  # M = 32 only
            s = 1 if x > 0 else -1
            x, y = s * abs(y), 5 * (1 if y > 0 else -1)
        pts[label] = complex(x, y)

    labels = _label_table(pts.real.astype(int), pts.imag.astype(int))
    scale = math.sqrt(float(np.mean(np.abs(pts) ** 2)))
    pts /= scale
    assert len(np.unique(pts)) == M
    bit_table = (np.arange(M)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    pts.setflags(write=False)
    bit_table.setflags(write=False)
    return Constellation(M, pts, scale, labels, bit_table)


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


def _axis_cells(u: np.ndarray, half_scale: float, n_cells: int) -> np.ndarray:
    """Slicer cell (see _label_table) of each coordinate on one axis."""
    h = u * half_scale + 0.25 * (n_cells + 1)  # level j at j + 1/2, thresholds at integers
    cells = np.floor(h)
    cells += np.ceil(h)  # floor + ceil - 1 is 2j inside level j, 2j - 1 on a threshold
    cells -= 1
    return np.clip(cells, 0, n_cells - 1, out=cells).astype(np.intp)


def demap_symbols(y: np.ndarray, c: Constellation) -> np.ndarray:
    """Map (..., N) symbols to (..., N*k) bits by minimum-distance hard
    decision on the level grid ``y * c.scale``; ties go to the lowest
    label.

    Each axis is sliced on its own into a cell of ``c.label_table``. The
    32-cross also needs the side of the diagonal: a sample in an empty
    corner cell goes to (+-3, +-5) when |x| < |y|, to (+-5, +-3) when
    |x| > |y|, and to the lower of the two labels when |x| = |y|.
    """
    y = np.asarray(y, dtype=complex)
    nx, ny, sides = c.label_table.shape
    ix = _axis_cells(y.real, 0.5 * c.scale, nx)
    cell = sides * (ix * ny + _axis_cells(y.imag, 0.5 * c.scale, ny))
    if c.m_order == 32:
        ar, ai = np.abs(y.real), np.abs(y.imag)
        cell += (ar > ai) + 2 * (ar < ai)
    labels = c.label_table.take(cell)
    return c.bit_table.take(labels, axis=0).reshape(*y.shape[:-1], -1)


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


def _condition(g: np.ndarray) -> float:
    """max|lambda| / min|lambda| of a Hermitian matrix, from eigvalsh."""
    lam = np.abs(np.linalg.eigvalsh(g))
    return float(lam.max() / lam.min()) if lam.min() > 0 else math.inf


class ModemKernel:
    """Precomputed matrices for one configuration.

    pulses: (N, S) samples p_k(t); a read-only broadcast of one row when
            the pulse is shared
    synth: (N, S) rows a_k -> contribution p_k(t) exp(+j2pi k t/T)
    mf:    (S, N) so that y = r @ mf is the normalized matched filter bank
    gram:  Hermitian N x N with unit diagonal; noiseless y = gram @ a
    gram_condition: max|lambda| / min|lambda| of gram
    gram_inv: G^-1, shared by every ZF solve; raises
              IllConditionedGramError beyond GRAM_CONDITION_LIMIT
    gram_is_identity: gram equals the identity exactly, as every rect
              kernel's Toeplitz gram does; then the condition is 1, G^-1
              is gram itself and solve_zf returns its input
    use_fft: the pulse is shared; synthesize and matched_filter by FFT
    fft_pulse: that pulse, or None if every sample is exactly 1.0 and
             the FFT stages skip the multiply

    The matrices are built on first use, so PAPR and CCDF runs never
    build ``gram``. A pulse set builds ``synth`` and ``mf`` here; an FFT
    kernel never reads them.
    """

    def __init__(self, cfg: OfdmConfig):
        self.cfg = cfg
        grid = cfg.grid
        N, S = cfg.n_subcarriers, cfg.samples_per_symbol
        self.dt = grid.dt

        self.use_fft = isinstance(cfg.pulse_assignment, PulseDescriptor)
        if self.use_fft:
            p = sample_pulse(cfg.pulse_assignment, grid)
            self.energies = np.full(N, np.sum(p**2) * self.dt)
            self.pulses = np.broadcast_to(p, (N, S))
            self.fft_pulse = None if np.all(p == 1.0) else p
        else:
            self.pulses = np.stack([sample_pulse(d, grid) for d in cfg.pulse_assignment])
            self.energies = np.sum(self.pulses**2, axis=1) * self.dt
        if np.any(self.energies <= 0):
            raise DegeneratePulseError("zero-energy pulse in assignment")
        if not self.use_fft:
            self.mf  # built once here, never concurrently by worker threads

    @functools.cached_property
    def synth(self) -> np.ndarray:
        N = self.cfg.n_subcarriers
        phases = np.exp(2j * np.pi * np.outer(np.arange(N), self.cfg.grid.times()))
        return self.pulses * phases

    @functools.cached_property
    def mf(self) -> np.ndarray:
        return self.synth.conj().T * (self.dt / self.energies)

    def synthesize(self, a: np.ndarray) -> np.ndarray:
        """(F, N) symbols -> (F, S) waveforms."""
        if not self.use_fft:
            return a @ self.synth
        s = np.zeros((*a.shape[:-1], self.cfg.samples_per_symbol), dtype=complex)
        s[..., : self.cfg.n_subcarriers] = a
        np.fft.ifft(s, axis=-1, norm="forward", out=s)
        return s if self.fft_pulse is None else np.multiply(s, self.fft_pulse, out=s)

    def matched_filter(self, r: np.ndarray) -> np.ndarray:
        """(F, S) received waveforms -> (F, N) matched-filter outputs."""
        if not self.use_fft:
            return r @ self.mf
        x = r if self.fft_pulse is None else np.multiply(r, self.fft_pulse, dtype=complex)
        x = np.fft.fft(x, axis=-1, out=None if x is r else x)  # in place, but never on r
        return x[..., : self.cfg.n_subcarriers] * (self.dt / self.energies)

    @functools.cached_property
    def constellation(self) -> Constellation:
        return build_constellation(self.cfg.m_order)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        N, S = self.cfg.n_subcarriers, self.cfg.samples_per_symbol
        if self.use_fft:
            # G[k, l] = c[(k - l) mod S], c the DFT of p^2 over the energy
            c = squared_transform(self.pulses[0], self.dt)
            k = np.arange(N)
            g = c[(k[:, None] - k) % S]
        else:
            corr = (self.synth @ self.synth.conj().T) * self.dt
            g = np.conj(corr) / np.sqrt(np.outer(self.energies, self.energies))
        return 0.5 * (g + g.conj().T)

    @functools.cached_property
    def gram_is_identity(self) -> bool:
        return np.array_equal(self.gram, np.eye(self.cfg.n_subcarriers))

    @functools.cached_property
    def gram_condition(self) -> float:
        return 1.0 if self.gram_is_identity else _condition(self.gram)

    @functools.cached_property
    def gram_inv(self) -> np.ndarray:
        if self.gram_condition > GRAM_CONDITION_LIMIT:
            raise IllConditionedGramError(self.gram_condition)
        return self.gram if self.gram_is_identity else np.linalg.inv(self.gram)

    def solve_zf(self, y: np.ndarray) -> np.ndarray:
        """Exact zero-forcing of (F, N) matched-filter outputs: G a_hat = y."""
        if self.gram_is_identity:
            return y
        return y @ self.gram_inv.T


@functools.lru_cache(maxsize=64)
def get_kernel(cfg: OfdmConfig) -> ModemKernel:
    return ModemKernel(cfg)


# Largest |Eb/N0| in dB a BER point accepts (+inf, the noiseless channel,
# aside): 10**(-Eb/N0 / 10) overflows a float near -3083 dB.
MAX_ABS_EBN0_DB = 100.0


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
