"""Seeded Monte-Carlo campaigns: BER sweeps, PAPR/CCDF runs, pulse reports.

Every campaign output is a pure function of its plan and master seed.
Frames are independent single OFDM symbols; frame i always consumes the
same random substream slice, and stopping decisions are made at frame
granularity in index order. A BER point computes its frames in the
batches of ``seeding.frame_batches``: 64 frames, doubling up to
``seeding.BATCH_SAMPLES`` waveform samples, so a point that stops early
wastes little work and a batch's memory does not grow with N; with
several workers each wave runs the next batches of the same schedule.
The worker count never changes the batches, so outputs are
byte-identical for any worker count.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from . import seeding
from .analysis import PulseMetrics, XcorrCurve, pulse_metrics, xcorr_curve
from .errors import PlanError
from .modem import MAX_ABS_EBN0_DB, OfdmConfig, add_awgn, demap_symbols, get_kernel, map_bits
from .pulses import PulseDescriptor, SamplingGrid

__all__ = [
    "BerPoint",
    "SweepPlan",
    "XcorrRow",
    "run_ber_point",
    "run_ber_sweep",
    "run_xcorr_report",
    "wilson_interval",
    "zf_noise_enhancement_db",
]

# z of the 95% two-sided Wilson interval: float(scipy.special.ndtri(0.975))
WILSON_Z = 1.959963984540054


@dataclass(frozen=True)
class BerPoint:
    ebn0_db: float
    m_order: int
    pulse: str
    shape_n: int
    bits_sent: int
    bit_errors: int
    ber: float
    ci_lo: float
    ci_hi: float
    seed: int


@dataclass(frozen=True)
class SweepPlan:
    cfg: OfdmConfig
    ebn0_db_list: tuple[float, ...]
    target_errors: int = 200
    max_frames: int = 1_000_000
    master_seed: int = 1

    def __post_init__(self):
        if not self.ebn0_db_list:
            raise PlanError("ebn0_db_list must be nonempty")
        if any(b < a for a, b in zip(self.ebn0_db_list, self.ebn0_db_list[1:])):
            raise PlanError("ebn0_db_list must be ascending")
        if self.target_errors < 1:
            raise PlanError("target_errors must be >= 1")
        if self.max_frames < 1:
            raise PlanError("max_frames must be >= 1")


def wilson_interval(errors: int, trials_bits: int):
    """95% Wilson score interval for a binomial proportion."""
    if trials_bits < 1:
        raise PlanError("trials_bits must be >= 1")
    if not 0 <= errors <= trials_bits:
        raise PlanError("errors must lie in [0, trials_bits]")
    z = WILSON_Z
    n = trials_bits
    p = errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials_bits else min(1.0, center + half)
    return lo, hi


def _pulse_tag(cfg: OfdmConfig) -> tuple[str, int]:
    if isinstance(cfg.pulse_assignment, PulseDescriptor):
        return cfg.pulse_assignment.tag(), cfg.pulse_assignment.shape_n
    return "mixed", -1


def _frame_errors_batch(kern, ebn0_db, first_frame, n_frames, key):
    """Bit errors per frame for frames [first_frame, first_frame + n_frames).

    Frame i reads nbits uniforms for its bits, then 2S for its noise
    normals, from its own slice of the substream.
    """
    S, nbits = kern.cfg.samples_per_symbol, kern.cfg.bits_per_frame
    words = seeding.words_per_trial(nbits + 2 * S)
    u = seeding.trial_uniforms(key, first_frame, n_frames, words)

    bits = seeding.uniforms_to_bits(u[:, :nbits])
    s = kern.synthesize(map_bits(bits, kern.constellation))
    noiseless = ebn0_db == math.inf
    z = None if noiseless else seeding.uniforms_to_normals(u[:, nbits : nbits + 2 * S])
    r = add_awgn(s, z, ebn0_db, nbits, kern.dt)
    bits_hat = demap_symbols(kern.solve_zf(kern.matched_filter(r)), kern.constellation)
    return (bits_hat != bits).sum(axis=1)


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
    if target_errors < 1 or max_frames < 1:
        raise PlanError("target_errors and max_frames must be >= 1")
    if not (abs(ebn0_db) <= MAX_ABS_EBN0_DB or ebn0_db == math.inf):
        # +inf is the noiseless channel; NaN and -inf fail the test
        raise PlanError(f"|ebn0_db| must be <= {MAX_ABS_EBN0_DB:g} or +inf, got {ebn0_db}")
    if workers < 1:
        raise PlanError(f"workers must be >= 1, got {workers}")
    kern = get_kernel(cfg)
    kern.gram_inv  # checks the ZF limit; computed once, before any worker thread
    # the noise normals' ndtri: scipy is imported here, not by a worker thread
    import scipy.special  # noqa: F401

    key = seeding.mix64(seed)
    nbits = cfg.bits_per_frame
    batches = seeding.frame_batches(max_frames, cfg.samples_per_symbol)

    total_errors = 0
    frames_used = 0

    def consume(per_frame: np.ndarray, lo: int) -> bool:
        nonlocal total_errors, frames_used
        cum = np.cumsum(per_frame)
        hit = np.flatnonzero(total_errors + cum >= target_errors)
        if hit.size:
            stop_at = int(hit[0])
            total_errors += int(cum[stop_at])
            frames_used = lo + stop_at + 1
            return True
        total_errors += int(cum[-1]) if cum.size else 0
        frames_used = lo + len(per_frame)
        return False

    def errors(batch):
        lo, hi = batch
        return _frame_errors_batch(kern, ebn0_db, lo, hi - lo, key)

    # workers=1 computes on the calling thread: a pool thread gets a malloc
    # arena of its own, which made the peak RSS differ from run to run
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        while wave := list(itertools.islice(batches, workers)):
            results = list(run(errors, wave))  # a failed batch raises here
            # any() stops at the stop frame; later batches are discarded
            if any(consume(per_frame, lo) for (lo, _), per_frame in zip(wave, results)):
                break

    if frames_used == 0:
        raise PlanError("plan produced zero frames")
    bits_sent = frames_used * nbits
    lo_ci, hi_ci = wilson_interval(total_errors, bits_sent)
    tag, shape_n = _pulse_tag(cfg)
    return BerPoint(
        ebn0_db=ebn0_db,
        m_order=cfg.m_order,
        pulse=tag,
        shape_n=shape_n,
        bits_sent=bits_sent,
        bit_errors=total_errors,
        ber=total_errors / bits_sent,
        ci_lo=lo_ci,
        ci_hi=hi_ci,
        seed=seed,
    )


def run_ber_sweep(plan: SweepPlan, workers: int = 1) -> list[BerPoint]:
    """One BerPoint per Eb/N0 value, each with its own derived seed."""
    points = []
    for index, ebn0_db in enumerate(plan.ebn0_db_list):
        point_seed = seeding.mix64(plan.master_seed, index)
        try:
            points.append(
                run_ber_point(
                    plan.cfg,
                    ebn0_db,
                    target_errors=plan.target_errors,
                    max_frames=plan.max_frames,
                    seed=point_seed,
                    workers=workers,
                )
            )
        except Exception as exc:
            exc.args = (f"sweep point {index} (Eb/N0 = {ebn0_db} dB): {exc}",)
            raise
    return points


@dataclass(frozen=True)
class XcorrRow:
    shape_n: int
    curve: XcorrCurve = field(compare=False, repr=False)
    metrics: PulseMetrics


def run_xcorr_report(
    desc: PulseDescriptor,
    n_list,
    grid: SamplingGrid,
    f_max: float,
) -> list[XcorrRow]:
    """Crosscorrelation curve and metrics of ``desc`` with each shape_n of
    ``n_list``, one row per n, on the grid of ``xcorr_curve``.

    Only ``shape_n`` varies between rows; a metric that does not occur
    below the curve's last frequency is None.
    """
    if not len(n_list):
        raise PlanError("n_list must be nonempty")
    rows = []
    for n in n_list:
        curve = xcorr_curve(replace(desc, shape_n=int(n)), grid, f_max)
        rows.append(XcorrRow(shape_n=int(n), curve=curve, metrics=pulse_metrics(curve)))
    return rows


def zf_noise_enhancement_db(cfg: OfdmConfig) -> float:
    """Mean diagonal of G^-1 in dB: the ZF noise penalty versus an
    orthogonal (rectangular-pulse) system. Raises IllConditionedGramError
    beyond the ZF limit."""
    inv = get_kernel(cfg).gram_inv
    return float(10.0 * np.log10(np.real(np.trace(inv)) / cfg.n_subcarriers))
