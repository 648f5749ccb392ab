"""PAPR, crosscorrelation and theoretical BER analysis.

Quantities of interest: instantaneous and worst-case peak-to-average
power ratio, its empirical complementary CDF, the normalized pulse
crosscorrelation curve with cutoff/sidelobe metrics, and Gray M-QAM
bit-error-rate theory curves over AWGN.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_count, check_real
from .modem import MAX_SUBCARRIERS, ModemKernel, OfdmConfig, build_constellation, get_kernel
from .pulses import PulseDescriptor, chirp_z, pulse_energy, sample_pulse
from . import seeding

__all__ = [
    "XcorrCurve",
    "PulseMetrics",
    "max_papr",
    "EXHAUSTIVE_FRAME_CAP",
    "MAX_TRIALS",
    "ccdf_empirical",
    "reference_crossing_db",
    "XCORR_POINTS_PER_T",
    "xcorr_curve",
    "first_crossing",
    "pulse_metrics",
    "theoretical_ber",
    "q_function",
]

# Largest M**N frame space the exhaustive search will enumerate.
EXHAUSTIVE_FRAME_CAP = 2**16
# Random frames per PAPR or CCDF run; a CCDF holds the PAPR array and its
# sorted copy, 800 MB each at 10^8 trials.
MAX_TRIALS = 10**8

# |rho| below this counts as a null / orthogonal separation.
NULL_THRESHOLD = 1e-6

# xcorr_curve's frequency step is 1/128 of 1/T, so integer separation k
# is always at index 128 k.
XCORR_POINTS_PER_T = 128


@dataclass(frozen=True)
class XcorrCurve:
    """Normalized crosscorrelation rho(f) between two subcarriers
    carrying the same pulse at frequency separation f (units of 1/T).

    ``phase_center`` is the centroid of p^2; derotating by it removes
    the linear phase of a pulse centered inside [0, T), leaving a real
    curve for symmetric pulses whose sign changes mark the true nulls.
    """

    freq: np.ndarray
    rho: np.ndarray
    phase_center: float

    def derotated(self) -> np.ndarray:
        return self.rho * np.exp(2j * np.pi * self.freq * self.phase_center)


@dataclass(frozen=True)
class PulseMetrics:
    cutoff_3db: float | None
    cutoff_first_null: float | None
    peak_sidelobe_db: float | None
    orthogonality_band: int | None


def _paprs(kern: ModemKernel, n_frames: int, labels, workers: int) -> np.ndarray:
    """PAPR of frames [0, n_frames), frames [lo, hi) carrying the symbols
    ``points[labels(lo, hi)]``, over the batches of ``seeding.map_batches``."""
    points = kern.constellation.points

    def paprs(lo, hi):
        power = np.abs(kern.synthesize(points[labels(lo, hi)])) ** 2
        peak, mean = power.max(axis=1), power.mean(axis=1)
        # a frame of zero mean power is constant, so its PAPR is 1
        return np.divide(peak, mean, out=np.ones_like(mean), where=mean > 0)

    out = np.empty(n_frames)
    for lo, hi, batch in seeding.map_batches(paprs, n_frames, kern.cfg.samples_per_symbol, workers):
        out[lo:hi] = batch
    return out


def _random_paprs(cfg: OfdmConfig, trials: int, seed: int, workers: int = 1) -> np.ndarray:
    """PAPR of ``trials`` frames with uniform random constellation symbols.

    Trial i draws its symbols from a fixed slice of a counter-based
    stream, so neither the batches of ``seeding.map_batches`` it is
    computed in nor the worker count change any of its draws.
    """
    check_count("trials", trials, 1, MAX_TRIALS)
    M, N = cfg.m_order, cfg.n_subcarriers
    key = seeding.mix64(seed)

    def labels(lo, hi):
        return seeding.uniforms_to_indices(seeding.trial_uniforms(key, lo, hi - lo, N), M)

    return _paprs(get_kernel(cfg), trials, labels, workers)


def max_papr(
    cfg: OfdmConfig,
    method: str = "exhaustive",
    trials: int = 10_000,
    seed: int = 1,
    workers: int = 1,
) -> float:
    """Worst-case PAPR by one of three regimes.

    ``exhaustive`` enumerates every constellation^N frame (only while
    M**N <= 2**16), ``random`` takes the max over seeded random frames,
    ``bound`` returns the coherent-superposition upper bound: the peak
    attainable if every subcarrier carried a maximum-modulus symbol in
    phase, over the mean frame power at unit average symbol energy.
    ``workers`` threads compute the batches of the first two.
    """
    kern = get_kernel(cfg)
    points = kern.constellation.points
    M, N = len(points), cfg.n_subcarriers

    if method == "exhaustive":
        n_frames = M**N
        if n_frames > EXHAUSTIVE_FRAME_CAP:
            raise ConfigError(f"M^N = {n_frames} exceeds the exhaustive cap {EXHAUSTIVE_FRAME_CAP}")

        def digits(lo, hi):
            # frame i carries the N base-M digits of i, most significant first
            return np.stack(np.unravel_index(np.arange(lo, hi), (M,) * N), axis=-1)

        return float(_paprs(kern, n_frames, digits, workers).max())

    if method == "random":
        return float(_random_paprs(cfg, trials, seed, workers).max())

    if method == "bound":
        a_max = float(np.abs(points).max())
        carriers = [len(range(N)[c]) for c, _ in kern.groups]  # subcarriers per pulse row
        peak = float(((carriers @ (a_max * np.abs(kern.samples))) ** 2).max())
        mean_power = float(kern.energies.sum())  # T = 1
        return peak / mean_power

    raise ConfigError(f"unknown max_papr method: {method!r}")


def ccdf_empirical(
    cfg: OfdmConfig,
    trials: int,
    seed: int,
    gamma_db: np.ndarray,
    workers: int = 1,
) -> np.ndarray:
    """Empirical P(PAPR > gamma) over random frames, one per threshold
    of the ascending dB grid ``gamma_db``, computed by ``workers`` threads."""
    gamma_db = np.asarray(gamma_db)
    if gamma_db.size:  # an array holds one type; a NaN carries through min
        check_real("gamma_db", gamma_db.flat[0], -math.inf, math.inf)
        check_real("gamma_db", gamma_db.min(), -math.inf, math.inf)
    papr_db = np.sort(10.0 * np.log10(_random_paprs(cfg, trials, seed, workers)))
    # strict inequality: count of samples > gamma
    exceed = trials - np.searchsorted(papr_db, gamma_db, side="right")
    return exceed / trials


def reference_crossing_db(N: int, level: float) -> float:
    """The gamma in dB at which the classic Nyquist-sampled approximation
    1 - (1 - e^-gamma)^N of rectangular OFDM falls to ``level``; a sanity
    oracle, not a fit."""
    check_count("n_subcarriers", N, 1, MAX_SUBCARRIERS)
    check_real("level", level, 1e-12, math.nextafter(1.0, 0.0))
    gamma = -np.log(1.0 - (1.0 - level) ** (1.0 / N))
    return float(10.0 * np.log10(gamma))


def xcorr_curve(desc: PulseDescriptor, S: int, f_max: float) -> XcorrCurve:
    """rho(f) = transform of p^2 at separation f, over the pulse energy,
    at f = i/128 (units of 1/T) up to the first such point >= f_max: bin
    i of the 128 S-point DFT of p^2 sampled at S points, of which
    ``chirp_z`` computes only these first bins. The transform of S
    samples is periodic in S/T, so the curve must end below S/2."""
    check_real("f_max", f_max, 1, sys.float_info.max)
    points = math.ceil(XCORR_POINTS_PER_T * f_max) + 1
    if (points - 1) / XCORR_POINTS_PER_T >= S / 2:
        raise ConfigError(
            f"f_max = {f_max:g}/T reaches the aliasing limit S/2 = {S / 2:g}/T of S = {S} samples"
        )
    p = sample_pulse(desc, S)
    dt = 1.0 / S
    freq = np.arange(points) / XCORR_POINTS_PER_T
    p2 = np.square(p)
    rho = chirp_z(p2, XCORR_POINTS_PER_T * S, points) * (dt / pulse_energy(p, dt))
    center = float(np.average(np.arange(S) * dt, weights=p2))
    return XcorrCurve(freq=freq, rho=rho, phase_center=center)


def first_crossing(x, y, level: float) -> float | None:
    """The x at which the samples y first fall to ``level`` or below,
    linearly interpolated from the sample before; None if no sample does,
    or if the first one already does."""
    below = np.flatnonzero(y <= level)
    if not below.size or below[0] == 0:
        return None
    i = int(below[0])
    x0, y0 = x[i - 1], y[i - 1]
    return float(x0 + (level - y0) * (x[i] - x0) / (y[i] - y0))


def pulse_metrics(curve: XcorrCurve) -> PulseMetrics:
    """Cutoffs, peak sidelobe and orthogonality band of |rho(f)| on the
    grid of :func:`xcorr_curve`.

    The -3 dB cutoff is where |rho|^2 first falls to 1/2 (linearly
    interpolated); the first null is the lowest f where |rho| drops
    below 1e-6 or the derotated real part first falls to 0 (likewise
    interpolated). A feature that does not occur inside the curve's band
    is None, as is the sidelobe of a curve without a null.
    """
    f = curve.freq
    mag = np.abs(curve.rho)
    mag2 = mag**2

    cutoff_3db = first_crossing(f, mag2, 0.5)  # |rho(0)| = 1 lies above it

    cutoff_null = first_crossing(f, curve.derotated().real, 0.0)  # Re rho(0) = 1 lies above 0
    tiny = np.flatnonzero(mag <= NULL_THRESHOLD)
    if tiny.size and (cutoff_null is None or f[tiny[0]] < cutoff_null):
        cutoff_null = float(f[tiny[0]])

    sidelobe_db = None
    if cutoff_null is not None:
        tail = mag2[f > cutoff_null]
        if tail.size and tail.max() > 0:
            sidelobe_db = float(10.0 * np.log10(tail.max()))

    return PulseMetrics(
        cutoff_3db=cutoff_3db,
        cutoff_first_null=cutoff_null,
        peak_sidelobe_db=sidelobe_db,
        orthogonality_band=_orthogonality_band(mag),
    )


def _orthogonality_band(mag: np.ndarray) -> int | None:
    """Smallest b with |rho(k/T)| below threshold for every k >= b on
    the grid; None if even the last integer separation is above it."""
    ok = mag[XCORR_POINTS_PER_T::XCORR_POINTS_PER_T] <= NULL_THRESHOLD  # k = 1, 2, ...
    if not ok.size or not ok[-1]:
        return None
    above = np.flatnonzero(~ok)
    return int(above[-1]) + 2 if above.size else 1


def q_function(x) -> np.ndarray | float:
    """Standard normal tail probability via the complementary error function."""
    from scipy.special import erfc  # scipy loads on first use: only the BER path needs it

    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def theoretical_ber(M: int, ebn0_db) -> np.ndarray | float:
    """Gray nearest-neighbor BER approximation for M-QAM over AWGN.

    P_b = (4/log2 M)(1 - 1/sqrt M) Q(sqrt(3 log2 M / (M-1) * gamma_b)).
    Exact for Gray QPSK (M = 4, where it reduces to Q(sqrt(2 gamma_b)));
    approximate for the non-square orders 8 and 32.
    """
    k = build_constellation(M).bits_per_symbol  # raises ConfigError for an unsupported M
    gamma_b = 10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0)
    arg = np.sqrt(3.0 * k / (M - 1) * gamma_b)
    return (4.0 / k) * (1.0 - 1.0 / math.sqrt(M)) * q_function(arg)
