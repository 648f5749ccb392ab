"""End-to-end acceptance suite.

Each test checks one release criterion and prints a single pass/fail
line with the measured values (visible even under pytest capture).
Criteria 4 and 8 are split into sub-parts. 04b checks the shaped
families' worst-case PAPR against a brute force built from the pulse
formulas, and 08b checks the sin^n cutoff growth against the closed-form
crosscorrelation of sin^n; neither oracle calls the code under test.
"""

import itertools
import math
import time

import numpy as np
import pytest

from papr_shaper.analysis import (
    XCORR_POINTS_PER_T,
    ccdf_empirical,
    max_papr,
    pulse_metrics,
    theoretical_ber,
    xcorr_curve,
)
from papr_shaper.cli import dispatch
from papr_shaper.config import parse_config
from papr_shaper.harness import run_ber_point, run_ber_sweep
from papr_shaper.modem import get_kernel
from papr_shaper.pulses import PulseDescriptor, PulseFamily
from papr_shaper.seeding import mix64

from helpers import (
    RECT,
    TAPERED,
    TSINC,
    cfg_for,
    dense_synth,
    papr,
    reference_ccdf,
    waveform_frame_errors,
)


def sine(n):
    return PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=n)


def db(x):
    return 10.0 * math.log10(x)


@pytest.fixture
def report(capsys):
    def _report(tag, ok, detail):
        with capsys.disabled():
            print(f"[acceptance {tag}] {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"{tag}: {detail}"

    return _report


def sine_curve(n, f_max=8.0):
    return xcorr_curve(sine(n), 1024, f_max)


def cutoff_3db(n, f_max=8.0):
    return pulse_metrics(sine_curve(n, f_max)).cutoff_3db


def sine_power_rho(n, f):
    """Closed-form derotated rho(f) of the continuous sin^n pulse.

    sin^2n(pi t) = 4^-n sum_p (-1)^p C(2n, n+p) exp(j2pi p t), p = -n..n,
    and each harmonic integrates over [0, 1) to exp(-j pi (f-p)) sinc(f-p),
    so rho(f) exp(j pi f) = sum_p C(2n, n+p) sinc(f-p) / C(2n, n).
    """
    p = np.arange(-n, n + 1)
    weights = np.array([math.comb(2 * n, n + k) for k in p], dtype=float)
    return float(weights @ np.sinc(f - p)) / math.comb(2 * n, n)


def exact_cutoff_3db(n):
    """Root of |rho(f)|^2 = 1/2 on the main lobe [0, n+1], by bisection."""
    lo, hi = 0.0, n + 1.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if sine_power_rho(n, mid) ** 2 > 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_force_max_papr(pulse, N=4, L=4):
    """Worst-case PAPR over every QPSK frame of N subcarriers that all
    carry ``pulse`` (a function of t in [0, 1)), built on the N*L-point
    grid from the formula alone, without sample_pulse or the modem kernel.
    """
    t = np.arange(N * L) / (N * L)
    qpsk = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2)
    frames = np.array(list(itertools.product(qpsk, repeat=N)))
    s = pulse(t) * (frames @ np.exp(2j * np.pi * np.outer(np.arange(N), t)))
    power = np.abs(s) ** 2
    return float((power.max(axis=1) / power.mean(axis=1)).max())


def tapered_formula(t, alpha=0.5):
    # Raised-cosine ramps of width alpha/2 at both ends, flat 1 between.
    d = np.minimum(t, 1.0 - t)
    edge = alpha / 2.0
    return np.where(d < edge, 0.5 * (1.0 - np.cos(np.pi * d / edge)), 1.0)


def test_01_noiseless_end_to_end_identity(report):
    """Every pulse family, over a grid of N and M, recovers all bits
    exactly without noise (well-conditioned Gram matrices only), through
    the BER frame and through the waveform round trip of the oracle:
    synthesis, matched filter, ZF and demap."""
    t0 = time.perf_counter()
    pulses = [RECT, sine(0), sine(1), sine(2), sine(4), sine(8), TAPERED, TSINC]
    total_errors = 0
    ran = skipped = 0
    for pulse, N, M in itertools.product(pulses, (4, 8, 16, 64), (4, 8, 16, 32)):
        cfg = cfg_for(N, M, pulse)
        if get_kernel(cfg).gram_condition >= 1e6:
            skipped += 1
            continue
        point = run_ber_point(cfg, math.inf, target_errors=1, max_frames=100, seed=1)
        assert point.bits_sent == 100 * cfg.bits_per_frame
        total_errors += point.bit_errors
        total_errors += waveform_frame_errors(get_kernel(cfg), math.inf, 0, 100, mix64(1)).sum()
        ran += 1
    elapsed = time.perf_counter() - t0
    ok = total_errors == 0 and elapsed < 60.0
    report(
        "01 noiseless-identity",
        ok,
        f"{total_errors} bit errors over {ran} configs x 100 frames, twice "
        f"({skipped} skipped, Gram condition >= 1e6), {elapsed:.1f}s",
    )


def test_02_ber_matches_theory(report):
    """Rectangular-pulse QPSK Monte-Carlo BER agrees with the closed-form
    AWGN expression: theory lies inside every Wilson 95% interval."""
    t0 = time.perf_counter()
    points = run_ber_sweep(
        cfg_for(64),
        [0.0, 2.0, 4.0, 6.0, 8.0],
        target_errors=200,
        max_frames=200_000,
        seed=2,
    )
    misses = []
    for p in points:
        theory = theoretical_ber(4, p.ebn0_db)
        if not (p.ci_lo <= theory <= p.ci_hi):
            misses.append(f"{p.ebn0_db} dB: theory {theory:.3e} outside "
                          f"[{p.ci_lo:.3e}, {p.ci_hi:.3e}]")
    enough = all(p.bit_errors >= 200 for p in points)
    elapsed = time.perf_counter() - t0
    ok = not misses and enough and elapsed < 120.0
    detail = (
        f"theory inside Wilson CI at all {len(points)} Eb/N0 points, "
        f">=200 errors each, {elapsed:.1f}s"
        if ok
        else f"misses: {misses}; enough_errors={enough}; {elapsed:.1f}s"
    )
    report("02 ber-vs-theory", ok, detail)


def test_03_ber_ordering_in_m(report):
    """At a fixed Eb/N0, BER increases strictly with constellation order,
    with non-overlapping confidence intervals."""
    t0 = time.perf_counter()
    orders = (4, 8, 16, 32)
    points = [
        run_ber_point(
            cfg_for(64, M),
            10.0,
            target_errors=500,
            max_frames=2_000_000,
            seed=mix64(2, M),
            workers=2,  # rect has no BLAS product, so the counts match workers=1
        )
        for M in orders
    ]
    bers = [p.ber for p in points]
    ordered = all(b > a for a, b in zip(bers, bers[1:]))
    disjoint = all(a.ci_hi < b.ci_lo for a, b in zip(points, points[1:]))
    enough = all(p.bit_errors >= 500 for p in points)
    elapsed = time.perf_counter() - t0
    ok = ordered and disjoint and enough and elapsed < 300.0
    report(
        "03 m-ordering",
        ok,
        "ber(M) at 10 dB: "
        + ", ".join(f"M={M}: {p.ber:.3e}" for M, p in zip(orders, points))
        + f"; ordered={ordered}, disjoint CIs={disjoint}, {elapsed:.1f}s",
    )


def test_04a_exact_worst_case_papr(report):
    """Exhaustive worst-case PAPR for 4 rectangular-pulse QPSK subcarriers
    is exactly 6.0206 dB, matching an independent brute force."""
    cfg = cfg_for(4)
    measured = db(max_papr(cfg, method="exhaustive"))
    kern = get_kernel(cfg)
    synth = dense_synth(kern)
    brute = 0.0
    for combo in itertools.product(kern.constellation.points, repeat=4):
        brute = max(brute, papr(np.asarray(combo) @ synth))
    ok = abs(measured - 6.0206) <= 1e-6 and abs(
        measured - db(brute)
    ) <= 1e-9
    report(
        "04a exact-max-papr",
        ok,
        f"exhaustive {measured:.7f} dB vs brute force {db(brute):.7f} dB "
        f"(target 6.0206 +- 1e-6)",
    )


def test_04b_shaped_families_exceed_rect_worst_case(report):
    """Random-search worst-case PAPR of every shaped family at N = 4 (one
    pulse shared by all QPSK subcarriers) equals a brute force over all
    256 frames built from the pulse formulas, and lies strictly above the
    rectangular worst case.

    With self-normalized PAPR, one shared pulse lowers each frame's mean
    power faster than its peak. The frame a_k = (-1)^k (1+j)/sqrt(2)
    already gives sine n=1 a PAPR of 16/3.5 = 6.6005 dB, against the
    rectangular 10 log10(4) = 6.0206 dB.
    """
    rect = db(brute_force_max_papr(np.ones_like))
    sine_n1_frame = db(16 / 3.5)
    results = {}
    for name, pulse, formula in [
        ("sine n=1", sine(1), lambda t: np.sin(np.pi * t)),
        ("sine n=4", sine(4), lambda t: np.sin(np.pi * t) ** 4),
        ("tapered a=0.5", TAPERED, tapered_formula),
        ("tsinc W=2", TSINC, lambda t: np.sinc(4.0 * (t - 0.5))),
    ]:
        results[name] = (
            db(max_papr(cfg_for(4, pulse=pulse), method="random", trials=10_000, seed=11)),
            db(brute_force_max_papr(formula)),
        )
    ok = (
        rect == pytest.approx(db(4), abs=1e-9)
        and all(abs(m - b) <= 1e-9 and m > rect for m, b in results.values())
        and results["sine n=1"][0] >= sine_n1_frame - 1e-9
    )
    report(
        "04b family-comparison",
        ok,
        ", ".join(f"{k}: {m:.3f} dB (brute force {b:.3f})" for k, (m, b) in results.items())
        + f"; all above rect {rect:.4f} dB, sine n=1 >= {sine_n1_frame:.4f} dB",
    )


def test_05_papr_grows_with_n_subcarriers(report):
    """Fixed-seed random-search worst-case PAPR strictly increases with the
    subcarrier count for rectangular and sine-power pulses."""
    t0 = time.perf_counter()
    lines = []
    ok = True
    for name, pulse in [("rect", RECT), ("sine n=1", sine(1)), ("sine n=4", sine(4))]:
        vals = [
            max_papr(cfg_for(N, pulse=pulse), method="random", trials=10_000, seed=11)
            for N in (8, 16, 32, 64)
        ]
        strict = all(b > a for a, b in zip(vals, vals[1:]))
        ok = ok and strict
        lines.append(name + ": " + "->".join(f"{db(v):.2f}" for v in vals))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report("05 papr-growth", ok, "; ".join(lines) + f" dB, {elapsed:.1f}s")


def test_06_ccdf_close_to_reference(report):
    """Empirical PAPR CCDF crosses the 1e-2 level within 0.5 dB of the
    independent-sample closed-form reference."""
    t0 = time.perf_counter()
    cfg = cfg_for(64)
    gamma = np.linspace(0.0, 13.0, 1301)
    prob = ccdf_empirical(cfg, 100_000, seed=1, gamma_db=gamma)
    i = int(np.flatnonzero(prob <= 1e-2)[0])
    g0, g1 = gamma[i - 1], gamma[i]
    p0, p1 = prob[i - 1], prob[i]
    emp = g0 + (1e-2 - p0) * (g1 - g0) / (p1 - p0)
    ref = db(-math.log(1.0 - 0.99 ** (1.0 / 64)))
    assert reference_ccdf(64, 10 ** (ref / 10)) == pytest.approx(1e-2, rel=1e-9)
    deviation = abs(emp - ref)
    elapsed = time.perf_counter() - t0
    ok = deviation <= 0.5 and elapsed < 60.0
    report(
        "06 ccdf-reference",
        ok,
        f"crossing at prob 1e-2: empirical {emp:.3f} dB, reference {ref:.3f} dB, "
        f"deviation {deviation:.3f} dB (limit 0.5), {elapsed:.1f}s",
    )


def test_07_crosscorrelation_closed_forms(report):
    """Known crosscorrelation values: rectangular nulls at integer spacings
    and -13.3 dB peak sidelobe; sine pulse |rho(1/T)| = 0.5; orthogonality
    band n+1 for sine-power order n."""
    checks = []

    rect = sine_curve(0)
    worst_null = max(
        abs(rect.rho[k * XCORR_POINTS_PER_T]) for k in range(1, 9)
    )
    checks.append(("rect nulls", worst_null, worst_null <= 1e-10))

    sidelobe = pulse_metrics(rect).peak_sidelobe_db
    checks.append(("rect sidelobe dB", sidelobe, abs(sidelobe + 13.3) <= 0.2))

    s1 = sine_curve(1)
    rho1 = abs(s1.rho[XCORR_POINTS_PER_T])
    checks.append(("sine n=1 |rho(1/T)|", rho1, abs(rho1 - 0.5) <= 1e-4))

    for n in (0, 1, 2, 4):
        band = pulse_metrics(sine_curve(n)).orthogonality_band
        checks.append((f"band(n={n})", band, band == n + 1))

    ok = all(c[2] for c in checks)
    report(
        "07 closed-forms",
        ok,
        ", ".join(f"{name}={val:.6g}" for name, val, _ in checks),
    )


def test_08a_cutoff_ratio(report):
    """The -3 dB crosscorrelation cutoff roughly doubles from sine-power
    order 4 to order 16."""
    c4, c16 = cutoff_3db(4, f_max=20.0), cutoff_3db(16, f_max=20.0)
    ratio = c16 / c4
    ok = 1.7 <= ratio <= 2.3
    report(
        "08a cutoff-ratio",
        ok,
        f"cutoff(n=16)/cutoff(n=4) = {c16:.4f}/{c4:.4f} = {ratio:.3f} "
        f"(target [1.7, 2.3])",
    )


def test_08b_cutoff_saturates_at_high_n(report):
    """Raising the sine-power order gives diminishing returns in cutoff:
    the cutoffs at n = 32, 40, 48 match the closed-form sin^n cutoff to
    1e-5 relative, the 40 -> 48 step is smaller than the 32 -> 40 step,
    and it lies within 0.5 percentage points of sqrt(48/40) - 1.

    The cutoff tends to sqrt(n ln2 / 2), so each +8 step gains less, but
    there is no plateau: the 40 -> 48 step is still about 9.4%.
    """
    cut = {n: cutoff_3db(n) for n in (32, 40, 48)}
    exact = {n: exact_cutoff_3db(n) for n in cut}
    worst_rel = max(abs(cut[n] - exact[n]) / exact[n] for n in cut)
    step_lo = cut[40] / cut[32] - 1.0
    step_hi = cut[48] / cut[40] - 1.0
    sqrt_law = math.sqrt(48 / 40) - 1.0
    ok = (
        worst_rel <= 1e-5
        and step_hi < step_lo
        and abs(step_hi - sqrt_law) <= 0.005
    )
    report(
        "08b diminishing-returns",
        ok,
        ", ".join(f"cutoff n={n}: {cut[n]:.4f} (exact {exact[n]:.4f})" for n in cut)
        + f", worst relative error {worst_rel:.1e} (limit 1e-5); steps "
        f"32->40 {100 * step_lo:.2f}%, 40->48 {100 * step_hi:.2f}% "
        f"(sqrt law {100 * sqrt_law:.2f}% +- 0.5)",
    )


def test_09_deterministic_outputs_across_workers(report):
    """Rerunning any subcommand with the same config and seed yields
    byte-identical CSV output at 1, 4, and 8 worker threads."""
    import tempfile
    from pathlib import Path

    def run(kind, settings, out):
        cfg = parse_config(settings, [f"output_path={out}"])
        assert dispatch(kind, cfg) == 0
        return {p.name: p.read_bytes() for p in Path(out).glob("*.csv")}

    ber_settings = (
        "n_subcarriers = 8\nebn0_db_list = 0, 4\ntarget_errors = 50\n"
        "max_frames = 2000\nseed = 5\n"
    )
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        # ber, ccdf and papr compute their batches on `workers` threads;
        # xcorr ignores the key
        for kind, settings in [
            ("ber", ber_settings),
            ("ccdf", "n_subcarriers = 8\ntrials = 2000\nseed = 5\n"),
            ("papr", "n_subcarriers = 4\ntrials = 2000\nseed = 5\n"),
            ("xcorr", "n_list = 0, 2\nf_max = 8\n"),
        ]:
            ref = run(kind, settings + "workers = 1\n", f"{tmp}/{kind}_ref")
            for rep, w in enumerate((1, 4, 8)):
                got = run(kind, settings + f"workers = {w}\n", f"{tmp}/{kind}_w{w}_{rep}")
                if got != ref:
                    mismatches.append(f"{kind} workers={w}")
    ok = not mismatches
    report(
        "09 determinism",
        ok,
        "ber, ccdf, papr and xcorr byte-identical on rerun and at workers 1/4/8"
        if ok
        else f"mismatched outputs: {mismatches}",
    )


def test_10_gram_structure(report):
    """Sine-power Gram matrices at N = 16 are Hermitian, unit-diagonal,
    positive definite, Toeplitz, and banded with bandwidth n."""
    failures = []
    for n in (1, 2, 4):
        G = get_kernel(cfg_for(16, pulse=sine(n))).gram
        if not np.allclose(G, G.conj().T, atol=1e-12):
            failures.append(f"n={n} not Hermitian")
        if not np.allclose(np.diag(G).real, 1.0, atol=1e-9):
            failures.append(f"n={n} diagonal != 1")
        min_eig = float(np.linalg.eigvalsh(G).min())
        if min_eig <= 0.0:
            failures.append(f"n={n} min eigenvalue {min_eig:.3e} <= 0")
        toeplitz_err = max(
            float(np.max(np.abs(np.diagonal(G, d) - np.diagonal(G, d)[0])))
            for d in range(-15, 16)
        )
        if toeplitz_err > 1e-9:
            failures.append(f"n={n} Toeplitz error {toeplitz_err:.3e}")
        k, l = np.indices(G.shape)
        beyond = float(np.max(np.abs(G[np.abs(k - l) > n])))
        if beyond >= 1e-6:
            failures.append(f"n={n} out-of-band entry {beyond:.3e}")
    ok = not failures
    report(
        "10 gram-structure",
        ok,
        "Hermitian, unit-diagonal, positive definite, Toeplitz, banded "
        "for n in {1, 2, 4}" if ok else "; ".join(failures),
    )
