"""Counter-based random substreams for reproducible Monte-Carlo runs.

Every trial (an OFDM frame) owns a fixed number of 64-bit words of each
substream it reads, so trial i always reads the same slices of a Philox
stream no matter how trials are batched or spread over workers. That is
what makes harness output byte-identical for any worker count; a slice
is rounded up to whole Philox blocks of four words. Stream layout 2: a
campaign's key gives two substreams, the Philox keys (key, UNIFORMS) and
(key, LABELS). :func:`trial_uniforms` reads UNIFORMS as one uniform per
word, and :func:`trial_labels` reads LABELS as k-bit symbol labels,
64 // k to a raw word. A BER frame reads its N labels and the 2N
uniforms of its ZF-output noise in (real, imaginary) pairs, made normal
by Wichura's AS241 in numpy; Sampford's bound on the normal tail tells
a flat kernel which need it. A random PAPR trial reads its N labels
only. Every frame loop (a BER point, a random PAPR or CCDF run, the
exhaustive PAPR search) runs its per-batch function through
:func:`map_batches`, which owns the one batch schedule and the bound on
its thread count, so the worker count changes neither a batch nor the
order results arrive in.
"""

from __future__ import annotations

import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from .errors import check_count

_MASK = (1 << 64) - 1

# AS241 (Applied Statistics 37, 1988): Phi^-1(u) by rational functions of degree 7
# in 0.180625 - (u - 1/2)**2 and, for |u - 1/2| > 0.425, s - 1.6 (s <= 5) or s - 5,
# s = sqrt(-log min(u, 1 - u)); rows numerator, denominator, highest power first.
_AS241 = np.array([
    [[2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987,
      13731.69376550946, 1971.5909503065513, 133.14166789178438, 3.3871328727963665],
     [5226.495278852854, 28729.085735721943, 39307.89580009271, 21213.794301586597,
      5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0]],
    [[0.0007745450142783414, 0.022723844989269184, 0.2417807251774506, 1.2704582524523684,
      3.6478483247632045, 5.769497221460691, 4.630337846156546, 1.4234371107496835],
     [1.0507500716444169e-09, 0.0005475938084995345, 0.015198666563616457, 0.14810397642748008,
      0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0]],
    [[2.0103343992922881e-07, 2.7115555687434876e-05, 0.0012426609473880784, 0.026532189526576124,
      0.29656057182850487, 1.7848265399172913, 5.463784911164114, 6.657904643501103],
     [2.0442631033899397e-15, 1.421511758316446e-07, 1.8463183175100548e-05, 0.0007868691311456133,
      0.014875361290850615, 0.1369298809227358, 0.599832206555888, 1.0]]])
# num + 1j den: a Horner pass over x + 0j makes two real ones in half the numpy calls
_CENTRAL, _NEAR, _FAR = ([np.array(c) for c in num + 1j * den] for num, den in _AS241)

# A cap on the waveform samples, not the frames, bounds a batch's memory
# at any N. At 2**16 samples a complex (F, S) plane is 1 MB: it fits the
# 2 MB per-core L2 of the 2-core Xeon it was measured on and comes from
# malloc's heap. At 2**19 (8 MB planes) each PAPR batch mapped its planes
# afresh: 96k minor faults against 611 for 100k rect N = 64 trials, and
# 15 MB more peak RSS for the papr-ccdf benchmark.
BATCH_SAMPLES = 2**16
# Threads a frame loop may run on, so a typo cannot ask for an unbounded pool
MAX_WORKERS = 64

# The substreams of a campaign's key, the second word of their Philox key
UNIFORMS, LABELS = 0, 1
# A Philox per thread, set to each call's key and counter: a new one reads OS entropy, 8 us
_local = threading.local()


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


def _philox(key: int, substream: int, first_trial: int, words: int) -> np.random.Generator:
    """The thread's Philox, set to the first block of trial ``first_trial``
    of a substream whose trials own ``words`` words each."""
    if not hasattr(_local, "gen"):
        _local.gen = np.random.Generator(np.random.Philox())
    counter = first_trial * words // 4  # it steps once per 4-word block
    _local.gen.bit_generator.state = {"bit_generator": "Philox", "state": {
        "counter": np.array([counter, 0, 0, 0], np.uint64),
        "key": np.array([key, substream], np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return _local.gen


def trial_uniforms(key: int, first_trial: int, n_trials: int, n_draws: int, out=None) -> np.ndarray:
    """(n_trials, n_draws) uniforms from the UNIFORMS substream; each
    trial owns ``trial_words(n_draws)`` words, so consecutive calls tile
    the stream exactly. ``out``, if given, is the C-contiguous
    (n_trials, trial_words(n_draws)) array they are drawn into."""
    words = trial_words(n_draws)
    return _philox(key, UNIFORMS, first_trial, words).random((n_trials, words), out=out)[:, :n_draws]


def trial_labels(key: int, first_trial: int, n_trials: int, n_labels: int, bits: int,
                 out=None) -> np.ndarray:
    """(n_trials, n_labels) intp labels of ``bits`` bits each from the LABELS
    substream, P = 64 // bits to a raw word: label q P + r of a trial is
    bits [r bits, (r + 1) bits) of its word q, counted from the least
    significant bit. Each trial owns ``trial_words(ceil(n_labels / P))``
    words, and no temporary is larger than the labels or those words.
    ``out``, if given, is the C-contiguous intp array they are read into."""
    per_word = 64 // bits
    full, rest = divmod(n_labels, per_word)
    words = trial_words(full + (rest > 0))
    raw = _philox(key, LABELS, first_trial, words).bit_generator.random_raw(n_trials * words)
    raw = raw.reshape(n_trials, words)
    shifts = np.arange(0, per_word * bits, bits, dtype=np.uint64)
    labels = np.empty((n_trials, n_labels), np.uint64) if out is None else out.view(np.uint64)
    whole = labels[:, : full * per_word].reshape(n_trials, full, per_word)  # a view
    np.right_shift(raw[:, :full, None], shifts, out=whole)
    np.right_shift(raw[:, full : full + 1], shifts[:rest], out=labels[:, full * per_word :])
    labels &= np.uint64((1 << bits) - 1)
    return labels.view(np.intp)


def _horner(c, x: np.ndarray) -> np.ndarray:
    acc = x * c[0]
    for k in c[1:-1]:
        acc += k
        acc *= x
    return np.add(acc, c[-1], out=acc)


def uniforms_to_normals(u: np.ndarray, out=None) -> np.ndarray:
    """Phi^-1(max(u, 2**-64)) by AS241, into ``out`` if given (C-contiguous): the
    central formula on every entry, then a tail one where |u - 1/2| > 0.425.
    Each stage runs whole or not at all, so every entry gets the same floats."""
    z = np.subtract(u, 0.5, out=out)
    if not z.size:
        return z
    q = z.reshape(-1)
    tail = (np.abs(q) > 0.425).nonzero()[0]
    for lo in range(0, q.size, 2**13):  # 128 kB complex temporaries, from malloc's heap
        qb = q[lo : lo + 2**13]
        nd = _horner(_CENTRAL, np.subtract(0.180625, qb * qb, dtype=complex))
        qb *= nd.real
        qb /= nd.imag
    if not tail.size:
        return z
    p = u.take(tail)
    s = np.sqrt(-np.log(np.maximum(np.minimum(p, 1.0 - p), 2.0**-64)))  # random() may give 0.0
    nd = _horner(_NEAR, np.subtract(s, 1.6, dtype=complex))
    if np.count_nonzero(far := s > 5.0):
        nd[far] = _horner(_FAR, np.subtract(s[far], 5.0, dtype=complex))
    z.put(tail, np.copysign(np.divide(nd.real, nd.imag, out=s), p - 0.5, out=s))
    return z


def _q_bound(t):
    """Sampford's Q(t) <= phi(t) 4 / (3t + sqrt(t**2 + 8)), t >= 0 (Ann. Math. Stat. 24, 1953)."""
    t2 = np.square(t)
    return np.exp(-0.5 * t2) * (4 / math.sqrt(2 * math.pi)) / (3 * t + np.sqrt(t2 + 8))


def normals_may_reach(u: np.ndarray, t) -> np.ndarray:
    """True where ``uniforms_to_normals(u)`` may reach |z| >= t, with margins for rounding."""
    return np.abs(u - 0.5) >= 0.5 - (_q_bound(t) * (1.0 + 1e-6) + 2.0**-52)
