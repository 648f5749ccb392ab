import functools
import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc
from scipy.stats import norm

from papr_shaper import seeding
from papr_shaper.analysis import (
    MAX_TRIALS,
    XCORR_POINTS_PER_T,
    XcorrCurve,
    _random_paprs,
    ccdf_empirical,
    max_papr,
    pulse_metrics,
    q_function,
    reference_crossing_db,
    theoretical_ber,
    xcorr_curve,
)
from papr_shaper.config import parse_config
from papr_shaper.errors import ConfigError, ConfigKeyError
from papr_shaper.harness import run_ber_point
from papr_shaper.modem import ModemKernel, get_kernel
from papr_shaper.pulses import PulseDescriptor, PulseFamily, sample_pulse

from helpers import (
    RECT,
    SINE1,
    TAPERED,
    TSINC,
    cfg_for,
    dense_synth,
    padded_fft_xcorr,
    papr,
    reference_ccdf,
    traced_peak,
)


def sine_curve(n, f_max=8.0, S=1024):
    desc = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=n)
    return xcorr_curve(desc, S, f_max)


class TestPapr:
    def test_single_sine_carrier(self):
        cfg = cfg_for(N=1, pulse=SINE1, L=16)
        assert papr(dense_synth(get_kernel(cfg))[0]) == pytest.approx(2.0, rel=0.01)


class TestMaxPapr:
    def test_rect_exhaustive_exact(self):
        assert max_papr(cfg_for(), method="exhaustive") == pytest.approx(4.0, abs=1e-9)

    def test_single_carrier_equals_pulse_papr(self):
        cfg = cfg_for(N=1, pulse=SINE1, L=16)
        pulse_papr = papr(dense_synth(get_kernel(cfg))[0])
        assert max_papr(cfg, method="exhaustive") == pytest.approx(pulse_papr, rel=1e-12)

    def test_ordering_random_exhaustive_bound(self):
        cfg = cfg_for()
        r = max_papr(cfg, method="random", trials=500, seed=2)
        e = max_papr(cfg, method="exhaustive")
        b = max_papr(cfg, method="bound")
        assert r <= e + 1e-12
        assert e <= b + 1e-12
        # sin^1000000 at S = 16 is nonzero only at t = T/2, where some frames
        # sum to zero: such a frame is constant, PAPR 1, and drops no batch
        spike = cfg_for(pulse=PulseDescriptor(PulseFamily.SINE_POWER, 1_000_000))
        assert max_papr(spike, "random", trials=10) == max_papr(spike, "exhaustive") == 16.0

    def test_rect_bound_equals_exhaustive(self):
        cfg = cfg_for()
        assert max_papr(cfg, method="bound") == pytest.approx(
            max_papr(cfg, method="exhaustive"), rel=1e-9
        )

    def test_pulse_set_bound_equals_brute_force(self):
        # peak of a_max sum_k |p_k(t)| over the mean power, from one dense row per subcarrier
        cfg = cfg_for(N=8, pulse=(RECT, SINE1, TAPERED))
        kern = get_kernel(cfg)
        rows = np.abs(dense_synth(kern))
        a_max = np.abs(kern.constellation.points).max()
        brute = (a_max * rows.sum(axis=0)).max() ** 2 / ((rows**2).sum() * kern.dt)
        assert max_papr(cfg, method="bound") == pytest.approx(brute, rel=1e-12)

    def test_bound_and_set_kernel_build_no_n_by_s_array(self):
        # an (N, S) float array at N = 1024, L = 64 is 512 MB
        _, peak = traced_peak(lambda: max_papr(cfg_for(N=1024, L=64), "bound"))
        assert peak < 16 * 2**20
        _, peak = traced_peak(lambda: ModemKernel(cfg_for(N=1024, pulse=(RECT, SINE1), L=64)))
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("pulse", [RECT, SINE1], ids=["rect", "sine1"])
    @pytest.mark.parametrize("N,M", [(4, 4), (3, 8)])
    def test_exhaustive_independent_of_batch_size(self, N, M, pulse, monkeypatch):
        cfg = cfg_for(N=N, M=M, pulse=pulse)
        default = max_papr(cfg, method="exhaustive")
        monkeypatch.setattr(seeding, "BATCH_SAMPLES", 1)  # one-frame batches
        assert max_papr(cfg, method="exhaustive") == default

    @pytest.mark.parametrize("pulse", [RECT, SINE1], ids=["rect", "sine1"])
    @pytest.mark.parametrize("N", [3, 16, 64, 256])
    def test_random_paprs_independent_of_batch_size(self, N, pulse, monkeypatch):
        cfg = cfg_for(N=N, pulse=pulse)
        default = _random_paprs(cfg, 200, seed=4)  # one batch at N <= 64, four at 256
        for frames in (1, 3, 5, 7):
            monkeypatch.setattr(seeding, "BATCH_SAMPLES", frames * cfg.samples_per_symbol)
            assert np.array_equal(_random_paprs(cfg, 200, seed=4), default)

    @pytest.mark.parametrize("batch_frames", [None, 1], ids=["default", "one-frame"])
    def test_independent_of_workers(self, batch_frames, monkeypatch):
        # the batches of a run do not depend on the worker count, and
        # neither does any frame's PAPR
        rect, sine = cfg_for(N=4), cfg_for(N=16, pulse=(RECT, SINE1))
        if batch_frames:
            monkeypatch.setattr(seeding, "BATCH_SAMPLES", batch_frames)
        gamma = np.linspace(0, 12, 49)

        def run(workers):
            return (
                max_papr(rect, "exhaustive", workers=workers),
                max_papr(sine, "random", trials=300, seed=3, workers=workers),
                _random_paprs(sine, 300, seed=4, workers=workers),
                ccdf_empirical(sine, 300, seed=5, gamma_db=gamma, workers=workers),
            )

        exhaustive, worst, paprs, prob = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (2, 3):
                got = run(workers)
                assert got[:2] == (exhaustive, worst), workers
                assert np.array_equal(got[2], paprs), workers
                assert np.array_equal(got[3], prob), workers
        finally:
            sys.setswitchinterval(interval)

    def test_one_worker_starts_no_thread_pool(self, monkeypatch):
        # a pool thread gets its own malloc arena; workers=1 stays on the caller
        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 started a thread pool")

        monkeypatch.setattr(seeding, "ThreadPoolExecutor", no_pool)
        cfg = cfg_for(N=4)
        assert max_papr(cfg, "exhaustive") > 1.0
        assert max_papr(cfg, "random", trials=300, seed=1) > 1.0
        assert ccdf_empirical(cfg, 300, seed=1, gamma_db=np.array([-30.0]))[0] == 1.0

    def test_random_paprs_memory_bounded(self):
        # 100k rect N = 64 trials peak near 2.65 MB in batches of 256 frames
        # (2**16 samples), 0.8 MB of it the result; 2048-frame batches took 15.8 MB
        cfg = cfg_for(N=64)
        get_kernel(cfg)  # kernel allocations are not the run's
        _, peak = traced_peak(lambda: _random_paprs(cfg, 100_000, seed=1))
        assert peak < 4 * 2**20

    def test_exhaustive_cap(self):
        with pytest.raises(ConfigError):
            max_papr(cfg_for(N=9), method="exhaustive")

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            max_papr(cfg_for(), method="simulated-annealing")

    def test_random_needs_a_trial(self):
        # the library and the parser share the rule and its message
        with pytest.raises(ConfigKeyError) as parsed:
            parse_config("", ["trials=0"])
        with pytest.raises(ConfigKeyError) as exc:
            max_papr(cfg_for(), method="random", trials=0)
        assert str(exc.value) == str(parsed.value) == f"trials: must lie in [1, {MAX_TRIALS}], got 0"


class TestCcdf:
    def test_low_threshold_probability_one(self):
        prob = ccdf_empirical(cfg_for(N=8), 200, seed=1, gamma_db=np.array([-30.0]))
        assert prob[0] == 1.0

    def test_above_bound_probability_zero(self):
        cfg = cfg_for(N=8)
        bound_db = 10 * math.log10(max_papr(cfg, method="bound"))
        prob = ccdf_empirical(cfg, 200, seed=1, gamma_db=np.array([bound_db + 0.1]))
        assert prob[0] == 0.0

    def test_monotone_and_bounded(self):
        gamma = np.linspace(0, 12, 121)
        prob = ccdf_empirical(cfg_for(N=16), 2000, seed=3, gamma_db=gamma)
        assert prob.shape == gamma.shape
        assert np.all(np.diff(prob) <= 0)
        assert np.all((prob >= 0) & (prob <= 1))

    # a NaN threshold once read probability 0, and a None an unnamed
    # TypeError; each is refused before any batch draws a uniform
    @pytest.mark.parametrize(
        "gamma,message",
        [
            ([math.nan, 0.0], "must lie in [-inf, inf], got nan"),
            ([0.0, math.nan], "must lie in [-inf, inf], got nan"),
            ([1j, 0.0], f"must be a real number, got {np.complex128(1j)!r}"),
            ([True, False], f"must be a real number, got {np.True_!r}"),
            (["2", "0"], f"must be a real number, got {np.str_('2')!r}"),
            # a mixed list: numpy holds [0.0, None] as an object array
            ([0.0, None], "must be a real number, got None"),
            ([0.0, "1"], f"must be a real number, got {np.str_('0.0')!r}"),
            ([0.0, 1j], f"must be a real number, got {np.complex128(0j)!r}"),
        ],
        ids=["nan-first", "nan-last", "complex", "bool", "str", "mixed-none", "mixed-str",
             "mixed-complex"],
    )
    def test_threshold_must_be_a_real_number(self, gamma, message, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a uniform was drawn")

        monkeypatch.setattr(seeding, "trial_uniforms", no_draw)
        with pytest.raises(ConfigKeyError) as exc:
            ccdf_empirical(cfg_for(N=8), 100, 1, np.array(gamma))
        assert (exc.value.key, str(exc.value)) == ("gamma_db", f"gamma_db: {message}")

    def test_infinite_thresholds_and_empty_grid(self):
        prob = ccdf_empirical(cfg_for(N=8), 100, 1, np.array([-math.inf, math.inf]))
        assert prob.tolist() == [1.0, 0.0]
        assert ccdf_empirical(cfg_for(N=8), 100, 1, np.array([])).shape == (0,)

    def test_seed_determinism(self):
        gamma = np.linspace(0, 12, 25)
        a = ccdf_empirical(cfg_for(N=16), 500, seed=9, gamma_db=gamma)
        b = ccdf_empirical(cfg_for(N=16), 500, seed=9, gamma_db=gamma)
        assert np.array_equal(a, b)

    def test_batches_capped_by_samples(self, monkeypatch):
        # S = 4096 caps batches at 16 frames, which peak near 1.9 MB; one
        # uncapped 1024-frame batch would hold two 64 MB waveform arrays, and
        # the 128-frame batches of a 2**19-sample cap peaked at 15 MB
        cfg = cfg_for(N=1024)
        get_kernel(cfg)  # kernel allocations are not the run's
        paprs, peak = traced_peak(lambda: _random_paprs(cfg, 1024, seed=2))
        assert peak < 4 * 2**20
        monkeypatch.setattr(seeding, "BATCH_SAMPLES", 37 * cfg.samples_per_symbol)
        assert np.array_equal(paprs, _random_paprs(cfg, 1024, seed=2))


@pytest.mark.parametrize("n", [3, 4, 8, 16, 32, 2**20 + 1])
def test_largest_uniform_maps_to_the_last_index(n):
    # Generator.random() returns at most 1 - 2**-53
    assert seeding.uniforms_to_indices(np.nextafter(1.0, 0.0), n) == n - 1


class TestReferenceCcdf:
    """``reference_crossing_db`` inverts the rect reference CCDF of ``helpers``."""

    @pytest.mark.parametrize("N", [1, 4, 64, 1024])
    @pytest.mark.parametrize("level", [0.5, 1e-2, 1e-4])
    def test_round_trip(self, N, level):
        gamma = 10.0 ** (reference_crossing_db(N, level) / 10.0)
        assert reference_ccdf(N, gamma) == pytest.approx(level, rel=1e-9)

    def test_n1_ln2(self):
        assert reference_crossing_db(1, 0.5) == pytest.approx(10 * math.log10(math.log(2)), abs=1e-12)

    def test_monotone_in_gamma(self):
        # the CCDF falls as gamma grows, so a lower level crosses at a higher gamma
        gammas = [reference_crossing_db(64, level) for level in np.geomspace(0.9, 1e-6, 50)]
        assert np.all(np.diff(gammas) > 0)

    LEVELS = "level: must lie in [1e-12, 0.9999999999999999], got"

    @pytest.mark.parametrize(
        "N,level,message",
        [
            (0, 1e-2, "n_subcarriers: must lie in [1, 4096], got 0"),
            (4097, 1e-2, "n_subcarriers: must lie in [1, 4096], got 4097"),
            (64, 0.0, f"{LEVELS} 0.0"),
            (64, 1.0, f"{LEVELS} 1.0"),
            (64, 2.0, f"{LEVELS} 2.0"),
            (64, math.nan, f"{LEVELS} nan"),
            (4096, 1e-14, f"{LEVELS} 1e-14"),
        ],
        ids=["N-0", "N-4097", "level-0", "level-1", "level-2", "level-nan", "level-1e-14"],
    )
    def test_out_of_range(self, N, level, message):
        # 0 and 1 divided by zero, 2 took a fractional power of a negative
        # float, and NaN read NaN
        with pytest.raises(ConfigKeyError) as exc:
            reference_crossing_db(N, level)
        assert str(exc.value) == message

    @pytest.mark.parametrize("N", [1, 4096])
    def test_level_bounds_read_finite(self, N):
        # the suite turns a RuntimeWarning or ComplexWarning into an error
        for level in (1e-12, math.nextafter(1.0, 0.0)):
            assert math.isfinite(reference_crossing_db(N, level))


class TestXcorr:
    def test_self_correlation(self):
        curve = sine_curve(3)
        assert curve.rho[0] == pytest.approx(1.0, abs=1e-9)

    def test_rect_nulls_at_integer_separations(self):
        curve = sine_curve(0)
        for k in range(1, 9):
            assert abs(curve.rho[k * XCORR_POINTS_PER_T]) < 1e-10

    def test_sine1_half_at_unit_separation(self):
        # oracle: quadrature of sin^2(pi t) e^{-j2pi t} over [0,1] = -1/4
        re, _ = quad(lambda t: math.sin(math.pi * t) ** 2 * math.cos(2 * math.pi * t), 0, 1)
        im, _ = quad(lambda t: -math.sin(math.pi * t) ** 2 * math.sin(2 * math.pi * t), 0, 1)
        oracle = abs(complex(re, im)) / 0.5
        assert oracle == pytest.approx(0.5, abs=1e-10)
        curve = sine_curve(1)
        assert abs(curve.rho[XCORR_POINTS_PER_T]) == pytest.approx(oracle, abs=1e-6)

    def test_cauchy_schwarz(self):
        for n in (0, 1, 4, 16):
            curve = sine_curve(n)
            assert np.all(np.abs(curve.rho) <= 1.0 + 1e-9)

    def test_f_max_below_subcarrier_spacing_rejected(self):
        for f_max in (0.5, math.nan, math.inf):  # not finite: rejected before math.ceil
            with pytest.raises(ConfigKeyError) as exc:
                xcorr_curve(RECT, 256, f_max)
            assert str(exc.value) == f"f_max: must lie in [1, {sys.float_info.max}], got {f_max}"

    @pytest.mark.parametrize("f_max", [1.0, 1.5, 8.0, 10.0, 20.0, 128.0])
    def test_grid_is_linspace_at_whole_points(self, f_max):
        # the fixed grid reproduces the old linspace wherever 128 f_max is whole
        curve = sine_curve(1, f_max=f_max)
        ref = np.linspace(0.0, f_max, int(XCORR_POINTS_PER_T * f_max) + 1)
        assert np.array_equal(curve.freq, ref)

    @pytest.mark.parametrize("f_max", [20.0, 4.0, 3.999])
    def test_curve_reaching_half_the_sample_rate_rejected(self, f_max):
        # the transform of S samples is periodic in S/T: at S = 8 the
        # curve would read |rho(8/T)| = 1; 3.999 ends on the grid point 4
        with pytest.raises(ConfigError, match=rf"f_max = {f_max:g}/T .* S/2 = 4/T .* S = 8 "):
            sine_curve(1, f_max=f_max, S=8)

    def test_curve_below_half_the_sample_rate_accepted(self):
        curve = sine_curve(1, f_max=3.99, S=8)
        assert curve.freq[-1] == 3.9921875


# The oracles take the (K, S) samples of K pulses at once and build their
# phase matrices a block of rows at a time, so the 16385-point curves at
# S = 1024 need no 268 MB matrix.
ORACLE_ROWS = 2048


def dense_xcorr(p, freq):
    """The product with a (points x S) phase matrix that xcorr_curve used
    before its FFT, one matrix-vector product per pulse: (K, points) curves
    of the (K, S) pulses ``p``."""
    dt = 1.0 / p.shape[-1]
    e = np.sum(np.square(p), axis=-1, keepdims=True) * dt
    t = np.arange(p.shape[-1]) * dt
    rho = np.empty((p.shape[0], freq.size), dtype=complex)
    for i in range(0, freq.size, ORACLE_ROWS):
        phase = np.exp(-2j * np.pi * np.outer(freq[i : i + ORACLE_ROWS], t))
        for row, pulse in zip(rho, p):
            row[i : i + ORACLE_ROWS] = phase @ np.square(pulse)
    return rho * dt / e


def longdouble_xcorr(p, points, q=XCORR_POINTS_PER_T):
    """The same discrete sum in long double: rho_i = sum_m p_m^2
    exp(-2j pi i m / (q S)) / sum_m p_m^2, the phase index i m reduced
    modulo q S exactly in integers; (K, points) real and imaginary parts."""
    S = p.shape[-1]
    n = q * S
    turns = np.arange(n, dtype=np.longdouble) / n
    two_pi = 2 * np.arccos(np.longdouble(-1))
    cos, sin = np.cos(two_pi * turns), np.sin(two_pi * turns)
    p2 = np.square(p.astype(np.longdouble))
    re, im = [], []
    for i in range(0, points, ORACLE_ROWS):
        k = np.outer(np.arange(i, min(i + ORACLE_ROWS, points)), np.arange(S)) % n
        re.append(cos[k] @ p2.T)
        im.append(-(sin[k] @ p2.T))
    energy = p2.sum(axis=-1, keepdims=True)
    return np.concatenate(re).T / energy, np.concatenate(im).T / energy


class TestXcorrOracle:
    PULSES = {
        "rect": RECT,
        "sine1": SINE1,
        "sine8": PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=8),
        "sine64": PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=64),
        "tapered": TAPERED,
        "tsinc": TSINC,
    }
    # (S, f_max): the report's grid at f_max = 10, 1 and the cap 128 (16385
    # points), then S = 8 and 64 at f_max = 1 and at the last f_max below S/2
    GRIDS = {
        "S1024-f10": (1024, 10.0),
        "S1024-f1": (1024, 1.0),
        "S1024-f128": (1024, 128.0),
        "S64-f31.99": (64, 31.99),
        "S64-f1": (64, 1.0),
        "S8-f3.99": (8, 3.99),
        "S8-f1": (8, 1.0),
    }

    @staticmethod
    @functools.cache
    def curves(grid):
        """Per pulse, sorted by name: the names, samples, xcorr_curve's rho,
        and the largest error of that rho from the long-double sum."""
        S, f_max = TestXcorrOracle.GRIDS[grid]
        names = sorted(TestXcorrOracle.PULSES)
        descs = [TestXcorrOracle.PULSES[name] for name in names]
        p = np.stack([sample_pulse(desc, S) for desc in descs])
        rho = np.stack([xcorr_curve(desc, S, f_max).rho for desc in descs])
        re, im = longdouble_xcorr(p, rho.shape[-1])
        error = np.max(np.hypot(rho.real - re, rho.imag - im), axis=-1)
        return names, p, rho, error, (re, im)

    def assert_at_least_as_close_as_dense(self, grid, pulses):
        # the max over the grid: at single points either method can be the
        # closer one by rounding noise
        names, p, rho, error, (re, im) = self.curves(grid)
        keep = [names.index(name) for name in pulses]
        names, p, rho, error = [names[i] for i in keep], p[keep], rho[keep], error[keep]
        re, im = re[keep], im[keep]
        dense = dense_xcorr(p, np.arange(rho.shape[-1]) / XCORR_POINTS_PER_T)
        dense_error = np.max(np.hypot(dense.real - re, dense.imag - im), axis=-1)
        assert np.all(error <= 1e-14), dict(zip(names, error))
        assert np.all(error <= dense_error), dict(zip(names, zip(error, dense_error)))

    # The report's grid, pulse by pulse: the chirp-z is three FFTs
    @pytest.mark.parametrize("name", sorted(PULSES))
    def test_fft_at_least_as_close_as_dense(self, name):
        self.assert_at_least_as_close_as_dense("S1024-f10", [name])

    # The grids of 8 and 64 samples at f_max <= 3.99 are left out: a dense
    # sum of so few terms and turns is as close as rounding allows (1.5e-16
    # to 1.4e-15), and neither the chirp-z (3-11e-16) nor the zero-padded
    # FFT (1.62e-16 against 1.48e-16 for rect at S = 8, f_max = 1) is
    # closer on every pulse.
    @pytest.mark.parametrize("grid", ["S1024-f1", "S1024-f128", "S64-f31.99"])
    def test_chirp_z_at_least_as_close_as_dense(self, grid):
        self.assert_at_least_as_close_as_dense(grid, sorted(self.PULSES))

    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_chirp_z_matches_zero_padded_fft(self, grid):
        names, p, rho, error, _ = self.curves(grid)
        delta = np.max(np.abs(rho - padded_fft_xcorr(p, rho.shape[-1])), axis=-1)
        assert np.all(error <= 1e-14), dict(zip(names, error))
        assert np.all(delta <= 1e-14), dict(zip(names, delta))

    def test_memory_independent_of_points(self):
        # memory grows with S + points: a (points x S) phase matrix would take 512 MB here
        curve, peak = traced_peak(lambda: xcorr_curve(SINE1, 1024, 128.0))
        assert curve.rho.size == 128 * XCORR_POINTS_PER_T + 1
        assert peak < 8 * 2**20


class TestPulseMetrics:
    def test_rect_first_null(self):
        m = pulse_metrics(sine_curve(0))
        assert m.cutoff_first_null == pytest.approx(1.0, abs=1 / 128)

    def test_rect_sidelobe(self):
        m = pulse_metrics(sine_curve(0))
        assert m.peak_sidelobe_db == pytest.approx(-13.3, abs=0.2)

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_orthogonality_band(self, n):
        m = pulse_metrics(sine_curve(n))
        assert m.orthogonality_band == n + 1

    def test_cutoff_increasing_in_n(self):
        cutoffs = [
            pulse_metrics(sine_curve(n, f_max=20.0)).cutoff_3db
            for n in (0, 1, 2, 4, 8, 16)
        ]
        assert all(b > a for a, b in zip(cutoffs, cutoffs[1:]))

    def test_cutoff_order(self):
        m = pulse_metrics(sine_curve(2))
        assert m.cutoff_3db <= m.cutoff_first_null

    def test_out_of_range_carries_partial(self):
        m = pulse_metrics(sine_curve(1, f_max=1.0))
        assert m.cutoff_3db == pytest.approx(0.72, abs=0.01)
        assert m.cutoff_first_null is None
        assert m.peak_sidelobe_db is None
        assert m.orthogonality_band is None

    @pytest.mark.parametrize("tail", [(-0.4, -0.3), (0.2, 0.3)],
                             ids=["stays-negative", "turns-back"])
    def test_null_at_a_zero_sample(self, tail):
        # Re rho falls to exactly 0 at f = 2/128 and is negative after it:
        # that sample is the first null, whatever follows it
        freq = np.arange(6) / 128
        rho = np.array([1, 0.5, 0.1j, -0.5, *tail])
        m = pulse_metrics(XcorrCurve(freq=freq, rho=rho, phase_center=0.0))
        assert m.cutoff_first_null == 2 / 128


class TestTheoreticalBer:
    def test_qpsk_at_0db(self):
        # oracle: standard normal tail at sqrt(2)
        assert norm.sf(math.sqrt(2.0)) == pytest.approx(0.0786496, abs=1e-7)
        assert theoretical_ber(4, 0.0) == pytest.approx(0.0786, abs=1e-4)

    def test_16qam_at_10db(self):
        oracle = 0.75 * norm.sf(math.sqrt(8.0))
        assert theoretical_ber(16, 10.0) == pytest.approx(oracle, abs=1e-12)
        assert theoretical_ber(16, 10.0) == pytest.approx(1.754e-3, abs=1e-5)

    def test_qpsk_reduces_to_q_sqrt_2gamma(self):
        for db in (0.0, 3.0, 7.5):
            g = 10 ** (db / 10)
            assert theoretical_ber(4, db) == pytest.approx(q_function(math.sqrt(2 * g)), rel=1e-12)

    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_strictly_decreasing(self, M):
        db = np.linspace(0, 20, 81)
        ber = theoretical_ber(M, db)
        assert np.all(np.diff(ber) < 0)

    def test_unsupported_order(self):
        with pytest.raises(ConfigError):
            theoretical_ber(64, 5.0)


class TestQFunction:
    def test_zero(self):
        assert q_function(0.0) == 0.5

    def test_one(self):
        assert q_function(1.0) == pytest.approx(0.158655, abs=1e-6)

    def test_reflection(self):
        for x in (0.3, 1.7, 4.0):
            assert q_function(-x) == pytest.approx(1.0 - q_function(x), abs=1e-12)

    def test_matches_normal_tail(self):
        x = np.linspace(0, 8, 33)
        assert np.allclose(q_function(x), norm.sf(x), rtol=1e-10)

    def test_matches_erfc(self):
        # erfc at the same rounded x / sqrt(2): math.erfc is within 2 ulps
        # of mpmath, and scipy's erfc drifts from both as x grows, by up to
        # 500 ulps past x = 14
        x = np.linspace(-8.0, 37.0, 901)
        with mpmath.workdps(30):
            exact = np.array([float(mpmath.erfc(v) / 2) for v in (x / math.sqrt(2.0)).tolist()])
        q = q_function(x)
        assert (np.abs(q - exact) <= 2 * np.spacing(exact)).all()
        assert np.allclose(q, 0.5 * erfc(x / math.sqrt(2.0)), rtol=2e-13, atol=0)
        assert isinstance(q_function(1.0), float) and isinstance(theoretical_ber(4, 3.0), float)
        assert q_function(x.reshape(17, 53)).shape == (17, 53)
        assert theoretical_ber(4, [3.0, 4.0]).shape == (2,)


class TestLazyGram:
    # PAPR and CCDF never read the Gram matrix; a BER point builds it once,
    # before its worker threads start.

    @pytest.mark.parametrize("N", [64, 1024])
    def test_papr_and_ccdf_build_no_gram(self, N):
        cfg = cfg_for(N=N, pulse=SINE1)
        get_kernel.cache_clear()
        ccdf_empirical(cfg, 50, seed=1, gamma_db=np.array([3.0]))
        max_papr(cfg, method="random", trials=50, seed=1)
        max_papr(cfg, method="bound")
        kern = get_kernel(cfg)
        assert "gram" not in kern.__dict__
        assert "gram_condition" not in kern.__dict__

    def test_fresh_kernel_holds_its_cheap_parts_and_no_gram(self):
        kern = ModemKernel(cfg_for(N=64, pulse=SINE1))
        assert {"constellation", "gram_is_identity"} <= kern.__dict__.keys()
        assert not kern.gram_is_identity
        assert "gram" not in kern.__dict__

    def test_ber_point_builds_gram(self):
        cfg = cfg_for(N=64, pulse=SINE1)
        get_kernel.cache_clear()
        run_ber_point(cfg, 10.0, target_errors=1, max_frames=10, seed=1, workers=2)
        kern = get_kernel(cfg)
        assert "gram" in kern.__dict__
        assert "gram_condition" in kern.__dict__
        # the kernel keeps G and its noise colour L, and no inverse of G
        square = [k for k, v in vars(kern).items() if getattr(v, "shape", None) == (64, 64)]
        assert sorted(square) == ["gram", "noise_colour"]
