"""Counter-based random substreams for reproducible Monte-Carlo runs.

Every trial (an OFDM frame) consumes a fixed number of 64-bit draws, so
trial i always reads the same slice of a Philox stream no matter how
trials are batched or spread over workers. That is what makes harness
output byte-identical for any worker count; the slice is the draw count
rounded up to whole Philox blocks. BER frame i reads nbits + 2N draws:
its bits, then the 2N normals of its ZF-output noise, in (real,
imaginary) pairs. Every frame loop (a BER point, a random PAPR or CCDF
run, the exhaustive PAPR search) runs its per-batch function through
:func:`map_batches`, which owns the one batch schedule and the bound on
its thread count, so the worker count changes neither a batch nor the
order results arrive in.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from .errors import check_count

_MASK = (1 << 64) - 1

# Smallest uniform fed to the inverse normal CDF; Generator.random() can
# return exactly 0.0, which ndtri would map to -inf.
_U_FLOOR = 2.0**-64

# A cap on the waveform samples, not the frames, bounds a batch's memory
# at any N. At 2**16 samples a complex (F, S) plane is 1 MB: it fits the
# 2 MB per-core L2 of the 2-core Xeon it was measured on and comes from
# malloc's heap. At 2**19 (8 MB planes) each PAPR batch mapped its planes
# afresh: 96k minor faults against 611 for 100k rect N = 64 trials, and
# 15 MB more peak RSS for the papr-ccdf benchmark.
BATCH_SAMPLES = 2**16
# Threads a frame loop may run on, so a typo cannot ask for an unbounded pool
MAX_WORKERS = 64


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def mix64(*parts: int) -> int:
    """Stable 64-bit mix of integer parts (order-sensitive), the first a campaign's seed."""
    acc = 0x243F6A8885A308D3
    for p in parts:
        check_count("seed", p, -math.inf, math.inf)
        acc = _splitmix64(acc ^ (int(p) & _MASK))
    return acc


def map_batches(fn, n_frames: int, samples_per_frame: int, workers: int = 1):
    """Lazy (first, end, fn(first, end)) for consecutive frame ranges that
    tile [0, n_frames), in order, each of max(1, BATCH_SAMPLES //
    samples_per_frame) frames but the last, which may be shorter.

    ``workers`` is checked before any batch. Each wave of the next
    ``workers`` batches is computed on a pool of that many threads before
    its first result is yielded, so a caller that stops early discards the
    rest of its wave. ``workers=1`` computes on the calling thread: a pool
    thread gets a malloc arena of its own, which made the peak RSS differ
    from run to run.
    """
    check_count("workers", workers, 1, MAX_WORKERS)
    size = max(1, BATCH_SAMPLES // samples_per_frame)
    batches = ((lo, min(lo + size, n_frames)) for lo in range(0, n_frames, size))
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        while wave := list(itertools.islice(batches, workers)):
            for (lo, hi), result in zip(wave, list(run(fn, *zip(*wave)))):
                yield lo, hi, result


def trial_words(n_draws: int) -> int:
    """Words a trial of ``n_draws`` draws owns: whole Philox blocks of four."""
    return 4 * -(-n_draws // 4)


def trial_uniforms(key: int, first_trial: int, n_trials: int, n_draws: int, out=None) -> np.ndarray:
    """(n_trials, n_draws) uniforms from the fixed-offset substream; each
    trial owns ``trial_words(n_draws)`` words, so consecutive calls tile
    the stream exactly. ``out``, if given, is the C-contiguous
    (n_trials, trial_words(n_draws)) array they are drawn into."""
    words = trial_words(n_draws)
    # the counter steps once per 4-word block
    gen = np.random.Generator(np.random.Philox(key=key, counter=first_trial * words // 4))
    return gen.random((n_trials, words), out=out)[:, :n_draws]


def uniforms_to_bits(u: np.ndarray) -> np.ndarray:
    """Bool bits, True for u < 1/2."""
    return u < 0.5


def uniforms_to_normals(u: np.ndarray, out=None) -> np.ndarray:
    # scipy loads on first use: only BER runs draw noise normals
    from scipy.special import ndtri

    z = np.maximum(u, _U_FLOOR, out=out)
    return ndtri(z, out=z)


def normals_may_reach(u: np.ndarray, t) -> np.ndarray:
    """True where ``uniforms_to_normals(u)`` may reach |z| >= t, with margins for rounding."""
    from scipy.special import ndtr
    return np.abs(u - 0.5) >= 0.5 - (ndtr(-t) * (1.0 + 1e-6) + 2.0**-52)


def uniforms_to_indices(u: np.ndarray, n: int) -> np.ndarray:
    # u <= 1 - 2**-53, so floor(u * n) < n for every n < 2**53
    return (u * n).astype(np.int64)
