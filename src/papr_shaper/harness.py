"""Seeded Monte-Carlo campaigns: BER points and sweeps, xcorr reports.

Each campaign takes plain arguments and returns only what it measured;
outputs are a pure function of those and the master seed. Frames are
independent single OFDM symbols; frame i always consumes the same random
substream slice, and stopping decisions are made at frame granularity in
index order. A BER frame builds no waveform, but its batches follow the
schedule of ``seeding.map_batches``: each holds as many frames as fit in
``seeding.BATCH_SAMPLES`` waveform samples, and they run in waves of the
next ``workers`` batches, so a point that stops early discards fewer than
workers x batch frames (at most 255, about 1.3 ms at 5 us a frame, at
N = 64, oversample 4 and one worker). The worker count never changes the
batches, so outputs are byte-identical for any worker count.

A BER batch runs the label-domain frame sketched in ``modem``, where a
flat kernel screens its noise. Frame i reads its N labels from whole
Philox words and its 2N noise uniforms from a second substream (stream
layout 2, ``seeding``). The four arrays a batch fills in place, the
noise uniforms, the symbols, the noise normals and the labels, are views
of one block per batch; every other array is a stage's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import seeding
from .analysis import PulseMetrics, XcorrCurve, pulse_metrics, xcorr_curve
from .errors import ConfigKeyError, check_count, check_real
from .modem import OfdmConfig, demap_labels, get_kernel
from .pulses import PulseDescriptor

__all__ = [
    "BerPoint",
    "check_ber_plan",
    "run_ber_point",
    "run_ber_sweep",
    "run_xcorr_report",
    "wilson_interval",
    "XCORR_GRID_SAMPLES",
]

# z of the 95% two-sided Wilson interval: float(scipy.special.ndtri(0.975))
WILSON_Z = 1.959963984540054

# Caps on a BER plan, so that a typo ends in a named error instead of an
# unbounded run.
MAX_FRAMES = 10**9  # frames per BER point
# Largest |Eb/N0| in dB a BER point accepts (+inf, the noiseless channel,
# aside): 10**(-Eb/N0 / 10) overflows a float near -3083 dB.
MAX_ABS_EBN0_DB = 100.0

# Samples per pulse of every curve in an xcorr report.
XCORR_GRID_SAMPLES = 1024


@dataclass(frozen=True)
class BerPoint:
    ebn0_db: float
    bits_sent: int
    bit_errors: int
    ber: float
    ci_lo: float
    ci_hi: float
    seed: int


def wilson_interval(errors: int, trials_bits: int):
    """95% Wilson score interval for a binomial proportion."""
    check_count("trials_bits", trials_bits, 1, math.inf)
    check_count("errors", errors, 0, trials_bits)
    z = WILSON_Z
    n = trials_bits
    p = errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials_bits else min(1.0, center + half)
    return lo, hi


def check_ber_plan(ebn0_db_list, target_errors: int, max_frames: int) -> None:
    """Range-check a BER plan, raising ConfigKeyError named by its config key."""
    if not len(ebn0_db_list):
        raise ConfigKeyError("ebn0_db_list", "must be nonempty")
    for x in ebn0_db_list:
        if x != math.inf:  # +inf is the noiseless channel
            check_real("ebn0_db_list", x, -MAX_ABS_EBN0_DB, MAX_ABS_EBN0_DB)
    if any(b < a for a, b in zip(ebn0_db_list, ebn0_db_list[1:])):
        raise ConfigKeyError("ebn0_db_list", "must be ascending")
    check_count("target_errors", target_errors, 1, math.inf)
    check_count("max_frames", max_frames, 1, MAX_FRAMES)


def _frame_arrays(kern, frames: int):
    """The arrays one BER batch of ``frames`` frames fills in place, views
    of one float block of F (W + 5N) words: its noise uniforms u (F, W),
    W = ``seeding.trial_words(2N)``, its (2, F, N) complex symbols and
    noise normals (a, z), and its (F, N) intp labels. W is a multiple of
    4, so the complex view is aligned.

    The block holds more than the batch's other arrays at once (4-5 FN
    words against 7 FN), and that keeps its pages mapped: glibc's malloc
    returns the top of its heap to the system once a free leaves more
    there than twice the largest block it has unmapped. With the labels
    apart (6 FN against 5-6 FN) a repeated sine n = 1 N = 64 point took
    1.4k minor page faults against 0, and with u alone 1.2k-6.7k
    (``test_ber_batches_take_no_page_faults``). A flat kernel far below
    its BER range, whose screen marks nearly every symbol, holds 12 FN."""
    N = kern.cfg.n_subcarriers
    W = seeding.trial_words(2 * N)
    block = np.empty(frames * (W + 5 * N))
    u = block[: frames * W].reshape(frames, W)
    a, z = block[frames * W : frames * (W + 4 * N)].view(complex).reshape(2, frames, N)
    return u, a, z, block[frames * (W + 4 * N) :].view(np.intp).reshape(frames, N)


def _frame_errors_batch(kern, ebn0_db, first_frame, n_frames, key):
    """Bit errors per frame for frames [first_frame, first_frame + n_frames).

    The matched filter and ZF are linear, so the receiver's output is a + w
    without any waveform: w = kern.colour_noise(z, N0), drawn for a flat
    kernel only where ``kern.screen_noise`` finds it may move a decision.
    Eb is measured per frame, from the energy of the waveform the frame's
    symbols would synthesize, so shaped and unshaped systems are compared
    at equal energy per bit. Eb/N0 = +inf, the noiseless channel, is N0 = 0
    through the same stages, so a_hat = a.
    """
    N, nbits = kern.cfg.n_subcarriers, kern.cfg.bits_per_frame
    c = kern.constellation
    u, a, z, labels = _frame_arrays(kern, n_frames)

    seeding.trial_labels(key, first_frame, n_frames, N, c.bits_per_symbol, out=labels)
    u = seeding.trial_uniforms(key, first_frame, n_frames, 2 * N, out=u)  # (F, 2N) of u
    c.points.take(labels, out=a, mode="clip")  # "raise" would copy `out`
    n0 = kern.frame_energy(a)
    n0 *= 10.0 ** (-ebn0_db / 10.0) / nbits
    if screened := kern.screen_noise(u, n0):
        f, k, w = screened
        errors = np.bitwise_count(labels[f, k] ^ demap_labels(a[f, k] + w, c))
        return np.bincount(f, errors, n_frames).astype(np.int64)  # weights count as floats
    # (F, 2N) normals in (re, im) pairs, read as (F, N) complex
    seeding.uniforms_to_normals(u, out=z.view(float))
    a += kern.colour_noise(z, n0)
    labels ^= demap_labels(a, c)
    return np.bitwise_count(labels, out=labels).sum(axis=1)


def run_ber_point(
    cfg: OfdmConfig,
    ebn0_db: float,
    target_errors: int = 200,
    max_frames: int = 1_000_000,
    seed: int = 1,
    workers: int = 1,
) -> BerPoint:
    """One Monte-Carlo BER measurement with an error-count stopping rule.

    Stops at the first frame where the cumulative error count reaches
    ``target_errors``, or at ``max_frames``, whichever comes first.
    """
    check_ber_plan([ebn0_db], target_errors, max_frames)
    kern = get_kernel(cfg)
    # builds L before any worker thread, and raises the ZF-limit error on this one
    kern.noise_colour

    key = seeding.mix64(seed)
    nbits = cfg.bits_per_frame

    def errors(lo, hi):
        return _frame_errors_batch(kern, ebn0_db, lo, hi - lo, key)

    total_errors = 0
    batches = seeding.map_batches(errors, max_frames, cfg.samples_per_symbol, workers)
    for lo, _, per_frame in batches:
        cum = total_errors + np.cumsum(per_frame)
        hit = np.flatnonzero(cum >= target_errors)
        last = int(hit[0]) if hit.size else len(cum) - 1  # frames past the stop are discarded
        total_errors = int(cum[last])
        frames_used = lo + last + 1
        if hit.size:
            break

    bits_sent = frames_used * nbits
    lo_ci, hi_ci = wilson_interval(total_errors, bits_sent)
    return BerPoint(
        ebn0_db=ebn0_db,
        bits_sent=bits_sent,
        bit_errors=total_errors,
        ber=total_errors / bits_sent,
        ci_lo=lo_ci,
        ci_hi=hi_ci,
        seed=seed,
    )


def run_ber_sweep(
    cfg: OfdmConfig,
    ebn0_db_list,
    target_errors: int = 200,
    max_frames: int = 1_000_000,
    seed: int = 1,
    workers: int = 1,
) -> list[BerPoint]:
    """One BerPoint per Eb/N0 value of an ascending list; point i runs
    ``run_ber_point`` with the seed ``seeding.mix64(seed, i)``. The plan is
    checked first, so a point fails only on the config (a zero-energy
    pulse or the ZF limit) or on ``workers``, which ``map_batches`` checks."""
    check_ber_plan(ebn0_db_list, target_errors, max_frames)
    return [
        run_ber_point(cfg, ebn0_db, target_errors=target_errors, max_frames=max_frames,
                      seed=seeding.mix64(seed, index), workers=workers)
        for index, ebn0_db in enumerate(ebn0_db_list)
    ]


def run_xcorr_report(
    desc: PulseDescriptor,
    n_list,
    f_max: float,
) -> list[tuple[XcorrCurve, PulseMetrics]]:
    """Crosscorrelation curve and metrics of ``desc``, sampled at
    XCORR_GRID_SAMPLES points, with each shape_n of ``n_list``: one
    (curve, metrics) pair per n, in order, on the grid of ``xcorr_curve``.

    Only ``shape_n`` varies between pairs. Both cutoffs are level
    crossings found by ``first_crossing``; a metric that does not occur
    below the curve's last frequency is None.
    """
    if not len(n_list):
        raise ConfigKeyError("n_list", "must be nonempty")
    descs = [replace(desc, shape_n=n) for n in n_list]  # checks every n before any curve
    curves = [xcorr_curve(d, XCORR_GRID_SAMPLES, f_max) for d in descs]
    return [(curve, pulse_metrics(curve)) for curve in curves]
