"""Oracles shared by the test modules."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np

import papr_shaper
from papr_shaper import seeding
from papr_shaper.analysis import XCORR_POINTS_PER_T
from papr_shaper.cli import main
from papr_shaper.modem import OfdmConfig, demap_labels
from papr_shaper.pulses import PulseDescriptor, PulseFamily

RECT = PulseDescriptor(family=PulseFamily.RECT)
SINE1 = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=1)
SINE2 = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=2)
TAPERED = PulseDescriptor(family=PulseFamily.TAPERED_FLAT_TOP, taper_alpha=0.5)
TSINC = PulseDescriptor(family=PulseFamily.TRUNCATED_SINC, bandwidth_factor=2.0)

# Pulse sets the symbol-domain BER frame is checked on: three shared
# pulses and a set whose pulses differ in energy (1 and 3/8), the case
# where a wrong E^-1/2 scaling of the noise shows.
ENGINE_PULSES = {
    "rect": (RECT,),
    "sine1": (SINE1,),
    "tapered": (TAPERED,),
    "rect-sine2": (RECT, SINE2),
}


def run_fresh(script):
    """The lines a script prints when run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(papr_shaper.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def cli_error(capsys, argv, code, out=None):
    """The stderr of ``main(argv)``, which must exit ``code`` and print one
    line starting ``error: ``, newline included; ``out``, if given, is an
    output path the run must not create."""
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
    assert out is None or not out.exists()
    return err


def traced_peak(fn):
    """fn() and the peak in bytes of the Python memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cfg_for(N=4, M=4, pulse=RECT, L=4):
    """OfdmConfig of N subcarriers; ``pulse`` is a pulse set or one shared descriptor."""
    pulse_set = pulse if isinstance(pulse, tuple) else (pulse,)
    return OfdmConfig(n_subcarriers=N, m_order=M, pulse_set=pulse_set, oversample=L)


def reference_ccdf(N, gamma):
    """Classic Nyquist-sampled approximation 1 - (1 - e^-gamma)^N of the
    PAPR CCDF of rect OFDM at gamma > 0 (linear)."""
    return -np.expm1(N * np.log1p(-np.exp(-np.asarray(gamma, dtype=float))))


def papr(samples) -> float:
    """Peak over mean instantaneous power of one waveform (linear, >= 1)."""
    power = np.abs(np.asarray(samples)) ** 2
    return float(power.max() / power.mean())


def padded_fft_xcorr(p, points, q=XCORR_POINTS_PER_T) -> np.ndarray:
    """rho_i, i < points, as xcorr_curve took it before its chirp-z: bins of one FFT of
    p^2 zero-padded to q S samples, over the pulse energy; p may hold one pulse per row."""
    dt = 1.0 / p.shape[-1]
    energy = np.sum(np.square(p), axis=-1, keepdims=True) * dt
    return np.fft.fft(np.square(p), n=q * p.shape[-1])[..., :points] * (dt / energy)


def map_bits(bits, c) -> np.ndarray:
    """Map (..., N*k) bits to (..., N) symbols, k = log2(M) bits per
    symbol taken MSB first: the oracle of ``modem.bits_to_labels``."""
    bits = np.asarray(bits, dtype=np.int64)
    k = c.bits_per_symbol
    values = bits.reshape(*bits.shape[:-1], -1, k) @ (1 << np.arange(k - 1, -1, -1))
    return c.points[values]


def label_bits(labels, k) -> np.ndarray:
    """(..., N) labels to the (..., N*k) bits that spell them, MSB first:
    the inverse of ``modem.bits_to_labels``."""
    labels = np.asarray(labels)
    bits = (labels[..., None] >> np.arange(k - 1, -1, -1)) & 1
    return bits.reshape(*labels.shape[:-1], -1)


def demap_bits(y, c) -> np.ndarray:
    """(..., N) symbols to the (..., N*k) bits of their ``modem.demap_labels`` decision."""
    return label_bits(demap_labels(y, c), c.bits_per_symbol)


def demap_argmin(y, c) -> np.ndarray:
    """Minimum-distance hard decision over every point of ``c``: (..., N)
    symbols to (..., N*k) bits; argmin breaks ties to the lowest label."""
    y = np.asarray(y, dtype=complex)
    return label_bits(np.argmin(np.abs(y[..., None] - c.points) ** 2, axis=-1), c.bits_per_symbol)


def dense_synth(kern) -> np.ndarray:
    """(N, S) rows p_k(t) exp(+j2pi k t/T): the synthesis oracle ``a @ dense_synth(kern)``.

    Row k takes its pulse from the set's entry k % P, independently of the kernel's groups.
    """
    k, S = np.arange(kern.cfg.n_subcarriers), kern.cfg.samples_per_symbol
    phases = np.exp(2j * np.pi * np.outer(k, np.arange(S) * kern.dt))
    return kern.samples[k % len(kern.cfg.pulse_set)] * phases


def dense_mf(kern) -> np.ndarray:
    """(S, N) normalized matched-filter bank: the oracle ``r @ dense_mf(kern)``."""
    return dense_synth(kern).conj().T * (kern.dt / kern.energies)


def dense_gram(kern) -> np.ndarray:
    """Gram matrix from the dense synthesis rows, symmetrized as the kernel's."""
    synth = dense_synth(kern)
    corr = (synth @ synth.conj().T) * kern.dt
    g = np.conj(corr) / np.sqrt(np.outer(kern.energies, kern.energies))
    return 0.5 * (g + g.conj().T)


# The waveform BER frame: bits -> M-QAM -> synthesis -> AWGN -> matched
# filter -> ZF -> demap, the oracle of harness._frame_errors_batch.


def add_awgn(s, z, ebn0_db, frame_bits, dt):
    """Add circular complex white Gaussian noise to (F, S) waveforms.

    ``z`` holds (F, 2S) standard normals, real parts first. Eb is
    measured per frame from the waveform itself. ``ebn0_db = +inf``
    bypasses the channel and reads no ``z``.
    """
    if ebn0_db == math.inf:
        return s
    S = s.shape[1]
    energy = (np.abs(s) ** 2).sum(axis=1) * dt
    n0 = (energy / frame_bits) * 10.0 ** (-ebn0_db / 10.0)
    sigma = np.sqrt(n0 / (2.0 * dt))  # per real dimension
    return s + sigma[:, None] * (z[:, :S] + 1j * z[:, S:])


def matched_filter(kern, r):
    """(F, S) received waveforms -> (F, N) matched-filter outputs, one FFT per pulse group."""
    y = np.empty((*r.shape[:-1], kern.cfg.n_subcarriers), dtype=complex)
    for carriers, p in kern.groups:
        x = r if p is None else np.multiply(r, p, dtype=complex)
        x = np.fft.fft(x, axis=-1, out=None if x is r else x)  # in place, but never on r
        y[..., carriers] = x[..., carriers]
    return np.multiply(y, kern.dt / kern.energies, out=y)


def solve_zf(kern, y):
    """Exact zero-forcing of (F, N) matched-filter outputs against their
    noiseless response E^-1/2 G E^1/2, whose inverse is sqrt(e_l / e_k) G^-1."""
    kern.noise_colour  # checks the ZF limit
    if kern.gram_is_identity:
        return y
    inv = np.linalg.inv(kern.gram)
    inv *= np.sqrt(kern.energies / kern.energies[:, None])
    return y @ inv.T


def waveform_frame_errors(kern, ebn0_db, first_frame, n_frames, key):
    """Bit errors per frame through the waveform chain.

    Frame i reads nbits uniforms for its bits, then 2S for its noise
    normals, from its own slice of the substream.
    """
    S, nbits = kern.cfg.samples_per_symbol, kern.cfg.bits_per_frame
    u = seeding.trial_uniforms(key, first_frame, n_frames, nbits + 2 * S)

    bits = seeding.uniforms_to_bits(u[:, :nbits])
    s = kern.synthesize(map_bits(bits, kern.constellation))
    noiseless = ebn0_db == math.inf
    z = None if noiseless else seeding.uniforms_to_normals(u[:, nbits : nbits + 2 * S])
    r = add_awgn(s, z, ebn0_db, nbits, kern.dt)
    bits_hat = demap_bits(solve_zf(kern, matched_filter(kern, r)), kern.constellation)
    return (bits_hat != bits).sum(axis=1)
