"""The frame pipeline: Gray M-QAM, pulse-shaped OFDM and the BER frame.

Every stage works on a batch of frames, one frame per row, and each BER
stage allocates its own temporaries and its result. A BER frame never
builds its waveform and never forms decided bits. Frame i reads nbits +
2N draws: its bits, then the 2N normals of its ZF-output noise, in
(re, im) pairs z (c = kern.constellation):

    labels = bits_to_labels(bits, c)             # (F, N*k) -> (F, N)
    a = c.points[labels]
    n0 = kern.frame_energy(a) / nbits * 10 ** (-ebn0_db / 10)
    a_hat = a + kern.colour_noise(z_re + j z_im, n0)  # sqrt(n0 / 2) z L^T
    errors = np.bitwise_count(labels ^ demap_labels(a_hat, c)).sum(axis=1)

The receiver it stands for is a matched-filter bank followed by an exact
zero-forcing solve against the subcarrier Gram matrix G. Both are linear,
so with white noise of density N0 on the waveform the ZF output is a + w,
w circular Gaussian of covariance N0 E^-1/2 G^-1 E^-1/2 (E = diag of the
pulse energies), and the frame energy sum |s|^2 dt is the quadratic form
a^H (G o sqrt(e e^T)) a. ``noise_colour`` is the lower Cholesky factor L
of that covariance over N0; a shaped kernel keeps G and L, and no
inverse. ``kern.colour_noise`` is the one stage that applies L. A kernel
of flat (rect) pulses has G = I by construction: it builds no G, skips
the condition number and the inverse, and its L is the diagonal
1/sqrt(e), applied without a matrix product. Its frame colours and
demaps only the symbols ``kern.screen_noise`` finds their noise may
move: one whose two normals are below t = d / (sqrt(n0 / 2) max L), d =
1 / c.scale half the minimum distance, stays in the square of half-width
d about its point, inside its decision cell (32-cross corners too).

The demapper never measures the distance to every point. Minimum-distance
detection on a rectangular QAM grid separates per axis, so each axis is
scaled to the odd-integer level grid and sliced on its own, and the label
is read from a table built once per constellation. The 32-cross is the
6x6 grid without its corners; a sample in an empty corner cell goes to
the nearer of the two cross points beside it, decided by |x| against |y|.

The pulses form a cyclic set of period P: subcarrier k carries
``pulse_set[k % P]``, and a shared pulse is a set of one. The kernel splits
the subcarriers into P pulse groups, group g the slice g:N:P, and holds
each group's pulse once, as row g of its (P, S) ``samples``. Synthesis
runs one in-place inverse FFT of length S per group, so no row depends
on the batch that holds it, and a pulse of samples exactly 1.0 (rect)
skips the multiply by p. The Gram block of two groups is the DFT of
their product.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import seeding
from .errors import ConfigError, ConfigKeyError, check_count
from .pulses import PulseDescriptor, sample_pulse

__all__ = [
    "Constellation",
    "OfdmConfig",
    "bits_to_labels",
    "build_constellation",
    "demap_labels",
    "zf_noise_enhancement_db",
]

SUPPORTED_ORDERS = (4, 8, 16, 32)
# a shaped BER kernel holds N x N matrices G and noise colour L: 268 MB each at N = 4096
MAX_SUBCARRIERS = 4096
# a frame and each of the kernel's P pulse rows hold N * oversample samples: 262144 at both caps
MAX_OVERSAMPLE = 64

# Condition number beyond which the ZF solve is refused.
GRAM_CONDITION_LIMIT = 1e8


def _gray_levels(n: int) -> np.ndarray:
    """Level of each code of an n-level Gray-coded PAM axis: the Gray code
    i ^ (i >> 1) sits at index i, levels are -(n-1), ..., +(n-1) in steps
    of 2 with code 0 on the positive end (so 1-bit code 0 -> +1)."""
    i = np.arange(n)
    levels = np.empty(n, dtype=int)
    levels[i ^ (i >> 1)] = (n - 1) - 2 * i
    return levels


@dataclass(frozen=True)
class Constellation:
    """M points with unit average energy, indexed by their bit label.

    ``points[v]`` is the point whose log2(M)-bit label has integer value
    v, so labels are implicitly 0..M-1 and the demap tie-break "lowest
    point index" is also "lowest label". ``points * scale`` lies on the
    odd-integer level grid. ``label_table``, read by :func:`demap_labels`,
    is read-only and shared by worker threads. The package's decision ends
    at the label; its bit form lives in ``tests/helpers.py``.
    """

    m_order: int
    points: np.ndarray
    scale: float
    label_table: np.ndarray

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
        raise ConfigError(f"unsupported constellation order M={M}")

    k = M.bit_length() - 1
    qb = k // 2  # label bits on Q; the rest (as many or one more) on I
    nq = 1 << qb
    label = np.arange(M)
    x, y = _gray_levels(M // nq)[label >> qb], _gray_levels(nq)[label & (nq - 1)]
    corner = np.abs(x) == 7  # M = 32 only
    x, y = np.where(corner, np.sign(x) * np.abs(y), x), np.where(corner, 5 * np.sign(y), y)
    pts = x + 1j * y

    labels = _label_table(x, y)
    scale = math.sqrt(float(np.mean(np.abs(pts) ** 2)))
    pts /= scale
    assert len(np.unique(pts)) == M
    pts.setflags(write=False)
    return Constellation(M, pts, scale, labels)


def bits_to_labels(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """(..., N*k) bits to the (..., N) intp labels they spell, k = log2(M)
    bits per symbol taken MSB first; the symbols are ``c.points[labels]``."""
    k = c.bits_per_symbol
    if bits.shape[-1] % k:
        raise ConfigError(f"bit count {bits.shape[-1]} is not a multiple of {k} (M={c.m_order})")
    labels = bits[..., 0::k].astype(np.intp)
    for i in range(1, k):
        labels <<= 1
        labels |= bits[..., i::k]
    return labels


def _axis_cells(u: np.ndarray, half_scale: float, n_cells: int) -> np.ndarray:
    """Slicer cell (see _label_table) of each coordinate on one axis, as floats."""
    h = u * half_scale + 0.25 * (n_cells + 1)  # level j at j + 1/2, thresholds at integers
    # floor + ceil - 1 is 2j inside level j, 2j - 1 on a threshold
    return np.minimum(np.maximum(np.floor(h) + np.ceil(h) - 1, 0), n_cells - 1)


def demap_labels(y: np.ndarray, c: Constellation) -> np.ndarray:
    """Map (..., N) symbols to (..., N) labels by minimum-distance hard
    decision on the level grid ``y * c.scale``; ties go to the lowest
    label.

    Each axis is sliced on its own into a cell of ``c.label_table``. The
    32-cross also needs the side of the diagonal: a sample in an empty
    corner cell goes to (+-3, +-5) when |x| < |y|, to (+-5, +-3) when
    |x| > |y|, and to the lower of the two labels when |x| = |y|.
    """
    y = np.asarray(y, dtype=complex)
    nx, ny, sides = c.label_table.shape
    cell = _axis_cells(y.real, 0.5 * c.scale, nx) * ny + _axis_cells(y.imag, 0.5 * c.scale, ny)
    cell *= sides
    if c.m_order == 32:
        ar, ai = np.abs(y.real), np.abs(y.imag)
        cell += (ar > ai) + 2 * (ar < ai)
    return c.label_table.take(cell.astype(np.intp), mode="clip")


@dataclass(frozen=True)
class OfdmConfig:
    """N subcarriers at spacing 1/T, M-QAM, oversampling L (S = N*L).

    ``pulse_set`` holds 1 <= P <= N descriptors used cyclically:
    subcarrier k carries ``pulse_set[k % P]``. N, M and L are range-checked
    on construction, each raising ConfigKeyError under its config key
    (``m`` for ``m_order``); L >= 4 captures the peak.
    """

    n_subcarriers: int
    m_order: int
    pulse_set: tuple[PulseDescriptor, ...]
    oversample: int = 4

    def __post_init__(self):
        check_count("n_subcarriers", self.n_subcarriers, 1, MAX_SUBCARRIERS)
        check_count("m", self.m_order, -math.inf, math.inf)  # its range is SUPPORTED_ORDERS
        if self.m_order not in SUPPORTED_ORDERS:
            raise ConfigKeyError("m", f"must be one of {list(SUPPORTED_ORDERS)}, got {self.m_order}")
        check_count("oversample", self.oversample, 4, MAX_OVERSAMPLE)
        ps = self.pulse_set
        if not (isinstance(ps, tuple) and 1 <= len(ps) <= self.n_subcarriers
                and all(isinstance(desc, PulseDescriptor) for desc in ps)):
            raise ConfigError(f"pulse_set must be a tuple of 1 to {self.n_subcarriers} descriptors")

    @property
    def samples_per_symbol(self) -> int:
        return self.n_subcarriers * self.oversample

    @property
    def bits_per_frame(self) -> int:
        return self.n_subcarriers * (self.m_order.bit_length() - 1)


def _condition(g: np.ndarray) -> float:
    """max|lambda| / min|lambda| of a Hermitian matrix, from eigvalsh."""
    lam = np.abs(np.linalg.eigvalsh(g))
    return float(lam.max() / lam.min()) if lam.min() > 0 else math.inf


class ModemKernel:
    """Precomputed pulses and matrices for one configuration.

    samples: read-only (P, S); row g is the pulse p(t) of pulse_set[g],
            held once however many subcarriers carry it
    energies: (N,) pulse energies e_k
    groups: (carriers, samples) per entry g of the pulse set of period P;
            carriers the slice g:N:P, samples None if all 1.0
    gram_is_identity: every pulse is flat (rect), so gram is the identity
              by construction and is never built; the condition is 1
    constellation: the Constellation of cfg.m_order
    gram:  Hermitian N x N with unit diagonal; noiseless matched-filter
           outputs are y = E^-1/2 gram E^1/2 a, E = diag(energies)
    gram_condition: max|lambda| / min|lambda| of gram
    noise_colour: L with L L^H = E^-1/2 gram^-1 E^-1/2, the ZF-output
              noise covariance over N0; the vector 1/sqrt(energies)
              when gram is the identity; raises ConfigError beyond
              GRAM_CONDITION_LIMIT

    ``__init__`` builds samples through constellation, the cheap parts.
    The Gram matrix and what derives from it (gram, gram_condition,
    noise_colour) are built on first use, never by PAPR or CCDF runs; a
    BER point reads noise_colour before its worker threads start.
    """

    def __init__(self, cfg: OfdmConfig):
        self.cfg = cfg
        S, N = cfg.samples_per_symbol, cfg.n_subcarriers
        self.dt = 1.0 / S

        self.samples = np.stack([sample_pulse(desc, S) for desc in cfg.pulse_set])
        self.samples.setflags(write=False)
        energies = np.sum(self.samples**2, axis=1) * self.dt  # each > 0: sample_pulse checks
        P = len(energies)
        self.energies = energies[np.arange(N) % P]  # subcarrier k carries pulse_set[k % P]
        self.groups = [
            (slice(g, N, P), None if np.all(p == 1.0) else p) for g, p in enumerate(self.samples)
        ]
        self.gram_is_identity = all(p is None for _, p in self.groups)
        self.constellation = build_constellation(cfg.m_order)

    def synthesize(self, a: np.ndarray) -> np.ndarray:
        """(F, N) symbols -> (F, S) waveforms, summed over the groups."""
        s = None
        for carriers, p in self.groups:
            x = np.zeros((*a.shape[:-1], self.cfg.samples_per_symbol), dtype=complex)
            x[..., carriers] = a[..., carriers]
            np.fft.ifft(x, axis=-1, norm="forward", out=x)
            x = x if p is None else np.multiply(x, p, out=x)
            s = x if s is None else np.add(s, x, out=s)
        return s

    def frame_energy(self, a: np.ndarray) -> np.ndarray:
        """(F, N) symbols -> (F,) energies sum |s|^2 dt of their waveforms,
        by the quadratic form a^H (G o sqrt(e e^T)) a."""
        b = a * np.sqrt(self.energies)
        gb = b if self.gram_is_identity else b @ self.gram.T
        # Re(conj(b) gb) summed over k, as one real dot product per frame
        return np.einsum("fk,fk->f", b.view(float), gb.view(float))

    def colour_noise(self, z: np.ndarray, n0: np.ndarray) -> np.ndarray:
        """(F, N) complex white normals z -> a new array of the ZF-output
        noise sqrt(n0 / 2) z L^T of (F,) noise densities n0, L =
        noise_colour; a flat kernel's L is a vector, applied without a
        matrix product. z is left as it is."""
        L = self.noise_colour
        w = z * L if self.gram_is_identity else z @ L.T
        w *= np.sqrt(n0 / 2.0)[:, None]
        return w

    def screen_noise(self, u: np.ndarray, n0: np.ndarray):
        """A flat kernel's (f, k, w): the symbols a[f, k] whose noise may move their decision,
        and that noise from their pairs of the (F, 2N) uniforms u as ``colour_noise`` draws it.
        None for a dense kernel, whose noise mixes every normal."""
        if not self.gram_is_identity:
            return None
        L, s = self.noise_colour, np.sqrt(n0 / 2.0)[:, None]
        with np.errstate(divide="ignore"):  # n0 = 0: t = inf, and no symbol moves
            far = seeding.normals_may_reach(u, 1.0 / (self.constellation.scale * L.max() * s))
        f, k = np.divmod(np.flatnonzero(far[:, 0::2] | far[:, 1::2]), self.cfg.n_subcarriers)
        z = seeding.uniforms_to_normals(u.reshape(len(u), -1, 2)[f, k]).view(complex)[:, 0]
        return f, k, z * L[k] * s[f, 0]  # colour_noise's products, in its order

    @functools.cached_property
    def gram(self) -> np.ndarray:
        N = self.cfg.n_subcarriers
        k = np.arange(N)
        g = np.empty((N, N), dtype=complex)
        p, e = self.samples, self.energies  # group g holds row g and carrier g first
        for (ci, _), (cj, _) in itertools.product(self.groups, repeat=2):
            # G[k, l] = c[(k - l) mod S], c the DFT of p_k p_l over sqrt(e_k e_l)
            i, j = ci.start, cj.start
            c = np.fft.fft(p[i] * p[j]) * (self.dt / math.sqrt(e[i] * e[j]))
            g[ci, cj] = c.take(k[ci, None] - k[cj], mode="wrap")
        g += g.conj().T  # symmetrized in place, without a third N x N array
        g *= 0.5
        return g

    @functools.cached_property
    def gram_condition(self) -> float:
        return 1.0 if self.gram_is_identity else _condition(self.gram)

    @functools.cached_property
    def noise_colour(self) -> np.ndarray:
        c, limit = self.gram_condition, GRAM_CONDITION_LIMIT
        if c > limit:
            raise ConfigError(f"gram matrix condition {c:.3e} exceeds {limit:g}")
        if self.gram_is_identity:
            return 1.0 / np.sqrt(self.energies)
        # the lower Cholesky factor of gram^-1 / sqrt(e_k e_l)
        cov = np.linalg.inv(self.gram)
        cov /= np.sqrt(np.outer(self.energies, self.energies))
        return np.linalg.cholesky(cov)


@functools.lru_cache(maxsize=64)
def get_kernel(cfg: OfdmConfig) -> ModemKernel:
    return ModemKernel(cfg)


def zf_noise_enhancement_db(cfg: OfdmConfig) -> float:
    """Mean diagonal of G^-1 in dB: the ZF noise penalty versus an
    orthogonal (rectangular-pulse) system. Raises ConfigError beyond the
    ZF limit."""
    kern = get_kernel(cfg)
    L = kern.noise_colour  # checks the ZF limit
    if kern.gram_is_identity:
        return 0.0
    # L L^H = G^-1 / sqrt(e_k e_l), so (G^-1)_kk = e_k sum_j |L_kj|^2
    rows = np.einsum("kj,kj->k", L.view(float), L.view(float))
    return float(10.0 * np.log10(np.dot(kern.energies, rows) / cfg.n_subcarriers))
