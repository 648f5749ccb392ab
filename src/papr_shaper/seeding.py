"""Counter-based random substreams for reproducible Monte-Carlo runs.

Every trial (an OFDM frame) consumes a fixed number of 64-bit draws, so
trial i always reads the same slice of a Philox stream no matter how
trials are batched or spread over workers. That is what makes harness
output byte-identical for any worker count. Every frame loop batches
its frames by the one schedule of :func:`frame_batches`.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1

# Smallest uniform fed to the inverse normal CDF; Generator.random() can
# return exactly 0.0, which ndtri would map to -inf.
_U_FLOOR = 2.0**-64

# Batches start small, so a BER point that meets its error target early
# computes few frames it discards, and double from there; a cap on the
# waveform samples, not the frames, bounds a batch's memory at any N.
FIRST_BATCH_FRAMES = 64
BATCH_SAMPLES = 2**19


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def mix64(*parts: int) -> int:
    """Stable 64-bit mix of integer parts (order-sensitive)."""
    acc = 0x243F6A8885A308D3
    for p in parts:
        acc = _splitmix64(acc ^ (int(p) & _MASK))
    return acc


def words_per_trial(n_draws: int) -> int:
    """Round a per-trial draw count up to a whole Philox block."""
    return -(-n_draws // 4) * 4


def frame_batches(n_frames: int, samples_per_frame: int):
    """Lazy (first, end) frame ranges that tile [0, n_frames).

    Batches start at FIRST_BATCH_FRAMES frames and double, holding at
    most BATCH_SAMPLES waveform samples and always at least one frame.
    """
    cap = max(1, BATCH_SAMPLES // samples_per_frame)
    lo, size = 0, min(FIRST_BATCH_FRAMES, cap)
    while lo < n_frames:
        hi = min(lo + size, n_frames)
        yield lo, hi
        lo, size = hi, min(2 * size, cap)


def trial_uniforms(key: int, first_trial: int, n_trials: int, n_words: int) -> np.ndarray:
    """(n_trials, n_words) uniforms from the fixed-offset substream.

    ``n_words`` must come from :func:`words_per_trial` so consecutive
    calls tile the stream exactly.
    """
    bitgen = np.random.Philox(key=key)
    # Philox.advance steps the counter in blocks of four 64-bit words.
    bitgen.advance(first_trial * n_words // 4)
    gen = np.random.Generator(bitgen)
    return gen.random((n_trials, n_words))


def uniforms_to_bits(u: np.ndarray) -> np.ndarray:
    return (u < 0.5).astype(np.int64)


def uniforms_to_normals(u: np.ndarray) -> np.ndarray:
    # scipy loads on first use: only BER runs draw noise normals
    from scipy.special import ndtri

    return ndtri(np.maximum(u, _U_FLOOR))


def uniforms_to_indices(u: np.ndarray, n: int) -> np.ndarray:
    idx = (u * n).astype(np.int64)
    return np.minimum(idx, n - 1)
