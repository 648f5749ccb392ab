import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from helpers import (
    ENGINE_PULSES,
    RECT,
    SINE1,
    SINE2,
    TAPERED,
    TSINC,
    cfg_for,
    demap_bits,
    map_bits,
    run_fresh,
    traced_peak,
    waveform_frame_errors,
)
from papr_shaper import analysis, harness, modem, seeding
from papr_shaper.analysis import (
    ccdf_empirical,
    max_papr,
    reference_crossing_db,
    theoretical_ber,
    xcorr_curve,
)
from papr_shaper.config import parse_config
from papr_shaper.errors import ConfigError, ConfigKeyError
from papr_shaper.harness import (
    XCORR_GRID_SAMPLES,
    run_ber_point,
    run_ber_sweep,
    run_xcorr_report,
    wilson_interval,
)
from papr_shaper.modem import get_kernel, zf_noise_enhancement_db
from papr_shaper.pulses import PulseDescriptor, PulseFamily, sample_pulse

SINE = PulseDescriptor(family=PulseFamily.SINE_POWER)


def bit_frame_errors(kern, ebn0_db, first_frame, n_frames, key):
    """The symbol-domain BER frame with fresh arrays, its errors counted
    by comparing bits: the oracle of the label count."""
    N, nbits = kern.cfg.n_subcarriers, kern.cfg.bits_per_frame
    u = seeding.trial_uniforms(key, first_frame, n_frames, nbits + 2 * N)
    bits = seeding.uniforms_to_bits(u[:, :nbits])
    a = map_bits(bits, kern.constellation)
    if ebn0_db != math.inf:
        w = seeding.uniforms_to_normals(u[:, nbits:]).view(complex)
        colour = kern.noise_colour
        w = w * colour if colour.ndim == 1 else w @ colour.T
        n0 = kern.frame_energy(a) * (10.0 ** (-ebn0_db / 10.0) / nbits)
        a = w * np.sqrt(n0 / 2.0)[:, None] + a
    return (demap_bits(a, kern.constellation) != bits).sum(axis=1)


class TestWilson:
    def test_zero_errors_lower_bound(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert hi > 0.0

    def test_reference_values(self):
        lo, hi = wilson_interval(10, 1000)
        assert lo == pytest.approx(0.0054, abs=1e-4)
        assert hi == pytest.approx(0.0183, abs=1e-4)

    def test_all_errors_upper_bound(self):
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0
        assert lo < 1.0

    def test_z_is_the_975_quantile(self):
        # the literal must stay the value scipy computes, bit for bit
        assert harness.WILSON_Z == float(ndtri(0.5 + 0.95 / 2.0))

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            wilson_interval(5, 0)
        with pytest.raises(ConfigError):
            wilson_interval(11, 10)


class TestBerPoint:
    def test_noiseless_zero_errors(self):
        p = run_ber_point(cfg_for(N=16), math.inf, target_errors=10, max_frames=50, seed=1)
        assert p.bit_errors == 0
        assert p.ber == 0.0
        assert p.bits_sent == 50 * 32

    def test_determinism(self):
        a = run_ber_point(cfg_for(N=16), 3.0, target_errors=50, max_frames=10_000, seed=7)
        b = run_ber_point(cfg_for(N=16), 3.0, target_errors=50, max_frames=10_000, seed=7)
        assert a == b

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_invariance(self, workers):
        for cfg in (cfg_for(N=16), cfg_for(N=16, pulse=(RECT, SINE1))):
            ref = run_ber_point(cfg, 2.0, target_errors=300, max_frames=10_000, seed=5)
            par = run_ber_point(
                cfg, 2.0, target_errors=300, max_frames=10_000, seed=5, workers=workers
            )
            assert ref == par

    def test_one_worker_starts_no_thread_pool(self, monkeypatch):
        # a pool thread gets its own malloc arena; workers=1 stays on the caller
        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 started a thread pool")

        monkeypatch.setattr(seeding, "ThreadPoolExecutor", no_pool)
        p = run_ber_point(cfg_for(N=16), 2.0, target_errors=300, max_frames=10_000, seed=5)
        assert p.bit_errors >= 300

    def test_matches_theory_within_ci(self):
        cfg = cfg_for(N=64)
        p = run_ber_point(cfg, 4.0, target_errors=400, max_frames=100_000, seed=3)
        assert p.ci_lo <= theoretical_ber(4, 4.0) <= p.ci_hi

    def test_ci_brackets_estimate(self):
        p = run_ber_point(cfg_for(N=16), 0.0, target_errors=100, max_frames=5_000, seed=2)
        assert p.ci_lo <= p.ber <= p.ci_hi

    def test_stopping_at_target(self):
        p = run_ber_point(cfg_for(N=16), 0.0, target_errors=25, max_frames=100_000, seed=4)
        # stopped at the first frame reaching the target, not a batch edge
        assert p.bit_errors >= 25
        assert p.bit_errors < 25 + cfg_for(N=16).bits_per_frame

    @pytest.mark.parametrize(
        "ebn0_db,kwargs,key",
        [
            (0.0, {"target_errors": 0}, "target_errors"),
            (-math.inf, {}, "ebn0_db_list"),
            (math.nan, {}, "ebn0_db_list"),
            (-4000.0, {}, "ebn0_db_list"),
            (0.0, {"workers": 0}, "workers"),
            (0.0, {"workers": 65}, "workers"),
            (0.0, {"max_frames": 10**9 + 1}, "max_frames"),
        ],
        ids=["target_errors-0", "ebn0-minus-inf", "ebn0-nan", "ebn0-minus-4000",
             "workers-0", "workers-65", "max_frames-cap"],
    )
    def test_bad_plan(self, ebn0_db, kwargs, key):
        with pytest.raises(ConfigKeyError) as exc:
            run_ber_point(cfg_for(N=16), ebn0_db, seed=1, **{"max_frames": 10, **kwargs})
        assert exc.value.key == key

    DESCRIPTORS = st.one_of(
        st.builds(PulseDescriptor, family=st.just(PulseFamily.SINE_POWER),
                  shape_n=st.integers(0, 2)),
        st.builds(PulseDescriptor, family=st.just(PulseFamily.TAPERED_FLAT_TOP),
                  taper_alpha=st.floats(0.0, 1.0)),
        st.builds(PulseDescriptor, family=st.just(PulseFamily.TRUNCATED_SINC),
                  bandwidth_factor=st.floats(0.01, 16.0)),
    )

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        N=st.integers(1, 32),
        M=st.sampled_from([4, 8, 16, 32]),
        # one shared pulse, or a cyclic set of 1 to 3 pulses
        pulse=DESCRIPTORS | st.lists(DESCRIPTORS, min_size=1, max_size=3).map(tuple),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_noiseless_zero_errors_property(self, N, M, pulse, seed):
        assume(isinstance(pulse, PulseDescriptor) or len(pulse) <= N)
        cfg = cfg_for(N=N, M=M, pulse=pulse)
        # a sinc whose samples all fall on its zeros but one is a delta; its G is singular
        assume(get_kernel(cfg).gram_condition <= modem.GRAM_CONDITION_LIMIT)
        p = run_ber_point(cfg, math.inf, target_errors=1, max_frames=70, seed=seed)
        assert p.bit_errors == 0
        assert p.bits_sent == 70 * N * (M.bit_length() - 1)

    def test_ill_conditioned_gram_propagates(self):
        # nearly time-disjoint narrow pulses: strongly non-orthogonal set
        narrow = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=400)
        cfg = cfg_for(N=16, pulse=narrow)
        with pytest.raises(ConfigError, match="^gram matrix condition "):
            run_ber_point(cfg, 10.0, target_errors=5, max_frames=10, seed=1)


class TestBatchSchedule:
    # (Eb/N0, target_errors, max_frames, frame range the stop must fall in);
    # at seed 9 the stops fall on frames 43, 490 and 3000
    CASES = {
        "first-batch": (0.0, 100, 10_000, (1, 64)),
        "mid-run": (4.0, 200, 10_000, (449, 960)),
        "max-frames": (8.0, 10**6, 3_000, (3_000, 3_000)),
    }

    def test_schedule_has_one_batch_size(self):
        def sizes(n_frames, samples_per_frame):
            batches = seeding.map_batches(lambda lo, hi: hi - lo, n_frames, samples_per_frame)
            return [size for _, _, size in batches]

        # BATCH_SAMPLES = 2**16: 2048 frames at S = 32, 256 at S = 256 (N = 64,
        # oversample 4) and 16 at S = 4096 (N = 1024)
        assert sizes(10_000, 32) == [2048] * 4 + [1808]
        assert sizes(10_000, 256) == [256] * 39 + [16]
        assert sizes(1_000, 4096) == [16] * 62 + [8]
        assert sizes(3, seeding.BATCH_SAMPLES + 1) == [1, 1, 1]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_point_independent_of_batch_size_and_workers(self, case, monkeypatch):
        ebn0_db, target, max_frames, (first, last) = self.CASES[case]
        cfg = cfg_for(N=16)

        def point(workers):
            return run_ber_point(
                cfg, ebn0_db, target_errors=target, max_frames=max_frames,
                seed=9, workers=workers,
            )

        ref = point(1)
        assert first <= ref.bits_sent // cfg.bits_per_frame <= last
        for batch_frames in (64, 2048, 4096):
            monkeypatch.setattr(seeding, "BATCH_SAMPLES", batch_frames * cfg.samples_per_symbol)
            for workers in (1, 2, 4):
                assert point(workers) == ref, (batch_frames, workers)

    # the frame the stop must fall on, in the 64-frame batches [0, 64),
    # [64, 128), ... of a 1000-frame N = 16 point; None: no stop before max_frames
    STOP_FRAMES = {"in-first-batch": 30, "batch-end": 63, "second-batch-start": 64, "none": None}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(STOP_FRAMES))
    def test_stop_frame_matches_oracle(self, case, workers, monkeypatch):
        # a rect frame does not depend on its batch, so one batch over all
        # frames gives every frame's errors; the stop is where their sum
        # first reaches the target
        cfg, max_frames, seed = cfg_for(N=16), 1000, 9
        kern = get_kernel(cfg)
        monkeypatch.setattr(seeding, "BATCH_SAMPLES", 64 * cfg.samples_per_symbol)
        per_frame = harness._frame_errors_batch(kern, 0.0, 0, max_frames, seeding.mix64(seed))
        cum = np.cumsum(per_frame)
        frame = self.STOP_FRAMES[case]
        target = int(cum[-1]) + 1 if frame is None else int(cum[frame])
        hit = np.flatnonzero(cum >= target)
        stop = int(hit[0]) if hit.size else max_frames - 1
        assert stop == (max_frames - 1 if frame is None else frame)  # errors on that frame
        p = run_ber_point(
            cfg, 0.0, target_errors=target, max_frames=max_frames, seed=seed, workers=workers
        )
        assert (p.bits_sent, p.bit_errors) == ((stop + 1) * cfg.bits_per_frame, int(cum[stop]))

    # every frame loop bounds its thread count as the parser does; each case
    # is one batch, so a loop without the bound starts at most one thread
    @pytest.mark.parametrize("workers", [0, -3, 65])
    def test_every_frame_loop_checks_workers(self, workers):
        with pytest.raises(ConfigKeyError) as parsed:
            parse_config("", [f"workers={workers}"])
        rect4, rect16 = cfg_for(N=4), cfg_for(N=16)
        calls = []
        loops = {
            "exhaustive": lambda: max_papr(rect4, "exhaustive", workers=workers),
            "random": lambda: max_papr(rect16, "random", trials=1000, workers=workers),
            "ccdf": lambda: ccdf_empirical(rect16, 1000, 1, np.linspace(0, 12, 13), workers),
            "map_batches": lambda: list(seeding.map_batches(
                lambda lo, hi: calls.append(lo), 1000, rect16.samples_per_symbol, workers)),
        }
        for name, loop in loops.items():
            with pytest.raises(ConfigKeyError) as exc:
                loop()
            assert (exc.value.key, str(exc.value)) == ("workers", str(parsed.value)), name
        assert calls == []

    # a library caller's float or bool count is refused with ConfigKeyError
    # naming its key before any batch draws a uniform: one row per (entry
    # point, count)
    @pytest.mark.parametrize("value", [2.5, True, 1e4, np.bool_(True)],
                             ids=["float", "bool", "float-1e4", "numpy-bool"])
    def test_every_frame_loop_requires_integer_workers(self, value, monkeypatch):
        rect16, gamma = cfg_for(N=16), np.linspace(0, 12, 13)
        draws, calls = [], []
        trial_uniforms = seeding.trial_uniforms

        def counted_uniforms(key, first, *args, **kw):
            draws.append(first)
            return trial_uniforms(key, first, *args, **kw)

        monkeypatch.setattr(seeding, "trial_uniforms", counted_uniforms)
        counts = [
            ("random", "trials", lambda v: max_papr(rect16, "random", trials=v)),
            ("random", "workers", lambda v: max_papr(rect16, "random", trials=100, workers=v)),
            ("random", "seed", lambda v: max_papr(rect16, "random", trials=100, seed=v)),
            ("ccdf", "trials", lambda v: ccdf_empirical(rect16, v, 1, gamma)),
            ("ccdf", "workers", lambda v: ccdf_empirical(rect16, 100, 1, gamma, v)),
            ("ccdf", "seed", lambda v: ccdf_empirical(rect16, 100, v, gamma)),
            ("ber", "max_frames", lambda v: run_ber_point(rect16, 0.0, max_frames=v)),
            ("ber", "target_errors",
             lambda v: run_ber_point(rect16, 0.0, target_errors=v, max_frames=10)),
            ("ber", "workers", lambda v: run_ber_point(rect16, 0.0, max_frames=10, workers=v)),
            ("ber", "seed", lambda v: run_ber_point(rect16, 0.0, max_frames=10, seed=v)),
            ("run_ber_sweep", "seed",
             lambda v: run_ber_sweep(rect16, [0.0, 4.0], max_frames=10, seed=v)),
            ("map_batches", "workers", lambda v: list(seeding.map_batches(
                lambda lo, hi: calls.append(lo), 1000, rect16.samples_per_symbol, v))),
            ("OfdmConfig", "n_subcarriers", lambda v: modem.OfdmConfig(v, 4, (RECT,))),
            ("OfdmConfig", "m", lambda v: modem.OfdmConfig(16, v, (RECT,))),
            ("OfdmConfig", "oversample", lambda v: modem.OfdmConfig(16, 4, (RECT,), v)),
            ("sample_pulse", "samples_per_symbol", lambda v: sample_pulse(RECT, v)),
            ("reference_crossing_db", "n_subcarriers", lambda v: reference_crossing_db(v, 1e-2)),
        ]
        for name, key, call in counts:
            with pytest.raises(ConfigKeyError) as exc:
                call(value)
            assert exc.value.key == key, name
            assert str(exc.value) == f"{key}: must be an integer, got {value!r}", name
        assert draws == calls == []
        # a numpy integer is an integer
        n = np.int64
        assert max_papr(rect16, "random", trials=n(100), seed=n(7), workers=n(2)) == max_papr(
            rect16, "random", trials=100, seed=7)
        assert np.array_equal(ccdf_empirical(rect16, 100, n(-7), gamma),
                              ccdf_empirical(rect16, 100, -7, gamma))
        assert run_ber_point(rect16, 0.0, target_errors=n(5), max_frames=n(10), seed=n(7),
                             workers=n(2)) \
            == run_ber_point(rect16, 0.0, target_errors=5, max_frames=10, seed=7)
        assert run_ber_sweep(rect16, [0.0], max_frames=10, seed=n(7)) \
            == run_ber_sweep(rect16, [0.0], max_frames=10, seed=7)
        assert modem.OfdmConfig(n(16), n(4), (RECT,), n(4)) == rect16
        assert reference_crossing_db(n(64), 1e-2) == reference_crossing_db(64, 1e-2)

    # a library caller's bool, string, None or complex number for a real-valued
    # key is refused with ConfigKeyError naming the key before any batch draws
    # a uniform or any curve is transformed: one row per (entry point, key)
    @pytest.mark.parametrize("value", [True, np.True_, "2", None, 1j],
                             ids=["bool", "numpy-bool", "str", "none", "complex"])
    def test_every_real_key_requires_a_real_number(self, value, monkeypatch):
        rect16 = cfg_for(N=16)
        draws, transforms = [], []
        trial_uniforms, chirp_z = seeding.trial_uniforms, analysis.chirp_z

        def counted_uniforms(key, first, *args, **kw):
            draws.append(first)
            return trial_uniforms(key, first, *args, **kw)

        def counted_chirp_z(*args):
            transforms.append(args[1])
            return chirp_z(*args)

        monkeypatch.setattr(seeding, "trial_uniforms", counted_uniforms)
        monkeypatch.setattr(analysis, "chirp_z", counted_chirp_z)
        reals = [
            ("PulseDescriptor", "shape_n",
             lambda v: PulseDescriptor(PulseFamily.SINE_POWER, shape_n=v)),
            ("PulseDescriptor", "taper_alpha",
             lambda v: PulseDescriptor(PulseFamily.TAPERED_FLAT_TOP, taper_alpha=v)),
            ("PulseDescriptor", "bandwidth_factor",
             lambda v: PulseDescriptor(PulseFamily.TRUNCATED_SINC, bandwidth_factor=v)),
            ("run_ber_point", "ebn0_db_list", lambda v: run_ber_point(rect16, v, max_frames=10)),
            ("run_ber_sweep", "ebn0_db_list",
             lambda v: run_ber_sweep(rect16, [0.0, v], max_frames=10)),
            ("xcorr_curve", "f_max", lambda v: xcorr_curve(SINE, XCORR_GRID_SAMPLES, v)),
            # an n_list entry is the shape_n of its curve's descriptor
            ("run_xcorr_report", "shape_n", lambda v: run_xcorr_report(SINE, [0, v], 8.0)),
            ("reference_crossing_db", "level", lambda v: reference_crossing_db(64, v)),
        ]
        for name, key, call in reals:
            with pytest.raises(ConfigKeyError) as exc:
                call(value)
            assert exc.value.key == key, name
            assert str(exc.value) == f"{key}: must be a real number, got {value!r}", name
        assert draws == transforms == []
        # numpy's floats and integers are real numbers
        f, n = np.float64, np.int64
        assert PulseDescriptor(PulseFamily.SINE_POWER, shape_n=n(2)) == SINE2
        assert PulseDescriptor(PulseFamily.TAPERED_FLAT_TOP, taper_alpha=f(0.5)) == TAPERED
        assert PulseDescriptor(PulseFamily.TRUNCATED_SINC, bandwidth_factor=f(2.0)) == TSINC
        assert run_ber_point(rect16, f(4.0), max_frames=10) \
            == run_ber_point(rect16, 4.0, max_frames=10)
        assert run_ber_sweep(rect16, [n(2), f(4.0)], max_frames=10) \
            == run_ber_sweep(rect16, [2.0, 4.0], max_frames=10)
        assert np.array_equal(xcorr_curve(SINE, XCORR_GRID_SAMPLES, f(8.0)).rho,
                              xcorr_curve(SINE, XCORR_GRID_SAMPLES, 8.0).rho)
        assert reference_crossing_db(64, f(1e-2)) == reference_crossing_db(64, 1e-2)

    def test_huge_count_is_named_in_e_notation(self):
        # str() of an integer past 4300 digits raises; the message shows its magnitude
        with pytest.raises(ConfigKeyError) as exc:
            run_ber_point(cfg_for(N=16), 0.0, max_frames=-10**5000)
        assert str(exc.value) == "max_frames: must lie in [1, 1000000000], got -1e+5000"
        # a numpy integer is printed whole: abs() of the least int64 overflows
        with pytest.raises(ConfigKeyError) as exc:
            run_ber_point(cfg_for(N=16), 0.0, max_frames=np.int64(-2**63))
        assert str(exc.value) == "max_frames: must lie in [1, 1000000000], got -9223372036854775808"

    def test_huge_max_frames_allocates_only_what_it_computes(self):
        cfg = cfg_for(N=16)
        get_kernel(cfg).noise_colour  # kernel allocations are not the point's
        p, peak = traced_peak(
            lambda: run_ber_point(cfg, 0.0, target_errors=50, max_frames=10**9, seed=9))
        assert p.bits_sent < 64 * cfg.bits_per_frame
        assert peak < 4 * 2**20

    def test_batch_memory_bounded_at_large_n(self):
        # S = 4096 caps batches at 16 frames; this 551-frame point peaks
        # near 2 MB (its arrays for 16 frames), and a 128-frame batch, the
        # cap of 2**19 samples, would need 12 MB
        cfg = cfg_for(N=1024)
        get_kernel(cfg).noise_colour  # kernel allocations are not the point's
        p, peak = traced_peak(lambda: run_ber_point(cfg, 8.0, target_errors=200, seed=3))
        assert p.bits_sent > 400 * cfg.bits_per_frame
        assert peak < 4 * 2**20

    def test_cold_rect_point_at_max_subcarriers_builds_no_matrix(self):
        # a flat kernel is the identity by construction: at N = 4096 its
        # point holds no N x N array (G alone would be 268 MB)
        cfg = cfg_for(N=modem.MAX_SUBCARRIERS)
        get_kernel.cache_clear()
        p, peak = traced_peak(lambda: run_ber_point(cfg, 0.0, target_errors=200, seed=5))
        assert p.bit_errors >= 200
        assert peak < 32 * 2**20


# Runs each BER point twice in a fresh interpreter and prints the minor
# page faults of the second run: one (N, M, shape_n, Eb/N0, frames) per line.
FAULT_GUARD = """
import resource
from papr_shaper.harness import run_ber_point
from papr_shaper.modem import OfdmConfig
from papr_shaper.pulses import PulseDescriptor, PulseFamily

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

for N, M, n, ebn0_db, frames in [(64, 4, 0, 10.0, 1024), (64, 16, 1, 24.0, 1024),
                                 (1024, 4, 0, 8.0, 256)]:
    family = PulseFamily.SINE_POWER if n else PulseFamily.RECT
    cfg = OfdmConfig(N, M, (PulseDescriptor(family=family, shape_n=n),))
    for _ in range(2):
        before = faults()
        run_ber_point(cfg, ebn0_db, target_errors=10**9, max_frames=frames)
    print(N, M, n, ebn0_db, frames, faults() - before)
"""


def test_ber_batches_take_no_page_faults():
    # a repeated point takes 0-2 minor faults; a batch block that held
    # only the uniforms took 1249, 1446 and 6656
    for line in run_fresh(FAULT_GUARD):
        assert int(line.split()[-1]) <= 64, line


# The xcorr report's campaign, run twice in a fresh interpreter: prints the
# minor page faults of the second run.
XCORR_FAULT_GUARD = """
import resource
from papr_shaper.harness import run_xcorr_report
from papr_shaper.pulses import PulseDescriptor, PulseFamily

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

for _ in range(2):
    before = faults()
    run_xcorr_report(PulseDescriptor(family=PulseFamily.SINE_POWER), [0, 1, 2, 4, 8], 10.0)
print(faults() - before)
"""


def test_xcorr_report_takes_no_page_faults():
    # a repeated report takes 0 minor faults; with one 128 S-point FFT of
    # p^2 per curve it took 4960, about 4 MB mapped and unmapped per curve
    (line,) = run_fresh(XCORR_FAULT_GUARD)
    assert int(line) <= 64, line


class TestFrameBatchSizes:
    # (N, M, pulse, Eb/N0): rect's diagonal noise colour at M = 4 and 32,
    # a dense one, and a dense one with an odd bit count (N = 3, M = 8);
    # every 2048-frame batch sees errors
    CASES = {
        "rect-4": (64, 4, RECT, 6.0),
        "rect-32": (64, 32, RECT, 10.0),
        "sine1-16": (16, 16, SINE1, 14.0),
        "tapered-3": (3, 8, TAPERED, 6.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_batch_size_matches_bit_count(self, case):
        N, M, pulse, ebn0_db = self.CASES[case]
        kern = get_kernel(cfg_for(N=N, M=M, pulse=pulse))
        key = seeding.mix64(N, M)
        for ebn0 in (ebn0_db, math.inf):
            lo = 0
            for n in (2048, 64, 7, 1):
                errors = harness._frame_errors_batch(kern, ebn0, lo, n, key)
                assert np.array_equal(errors, bit_frame_errors(kern, ebn0, lo, n, key)), (ebn0, n)
                if ebn0 == math.inf:
                    assert errors.sum() == 0
                elif n == 2048:
                    assert errors.sum() > 0
                lo += n


class TestBerSweep:
    def test_singleton(self):
        pts = run_ber_sweep(cfg_for(N=64), [2.0], target_errors=50, max_frames=2_000)
        assert len(pts) == 1
        assert pts[0].ebn0_db == 2.0

    def test_one_point_per_ebn0(self):
        pts = run_ber_sweep(cfg_for(N=64), [0.0, 2.0, 4.0], target_errors=50, max_frames=2_000)
        assert [p.ebn0_db for p in pts] == [0.0, 2.0, 4.0]

    def test_ber_strictly_decreasing(self):
        pts = run_ber_sweep(
            cfg_for(N=64), [0.0, 2.0, 4.0, 6.0, 8.0], target_errors=500, max_frames=200_000
        )
        bers = [p.ber for p in pts]
        assert all(b < a for a, b in zip(bers, bers[1:]))

    def test_invalid_plans(self):
        with pytest.raises(ConfigError):
            run_ber_sweep(cfg_for(N=16), [])
        with pytest.raises(ConfigError):
            run_ber_sweep(cfg_for(N=16), [4.0, 2.0])

    def test_minus_inf_point_rejected(self):
        with pytest.raises(ConfigKeyError, match=r"^ebn0_db_list: "):
            run_ber_sweep(cfg_for(N=16), [-math.inf, 0.0], max_frames=10)


class TestPaprExperiment:
    def test_single_trial(self):
        prob = ccdf_empirical(cfg_for(N=4), 1, seed=3, gamma_db=np.array([0.0]))
        mx = max_papr(cfg_for(N=4), method="random", trials=1, seed=3)
        assert prob[0] == 1.0  # one frame, its PAPR above 0 dB
        assert mx > 1.0

    def test_max_below_bound(self):
        cfg = cfg_for(N=8)
        mx = max_papr(cfg, method="random", trials=500, seed=1)
        assert mx <= max_papr(cfg, method="bound") + 1e-12

    def test_rect_near_exhaustive(self):
        cfg = cfg_for(N=4)
        mx = max_papr(cfg, method="random", trials=10_000, seed=1)
        assert 10 * math.log10(mx) == pytest.approx(6.0206, abs=0.3)


class TestXcorrReport:
    def test_rect_row(self):
        ((_, metrics),) = run_xcorr_report(SINE, [0], 8.0)
        assert metrics.cutoff_first_null == pytest.approx(1.0, abs=1 / 128)

    def test_rows_carry_their_curves(self):
        pairs = run_xcorr_report(SINE, [0, 3], 8.0)
        for n, (curve, _) in zip([0, 3], pairs, strict=True):
            desc = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=n)
            ref = xcorr_curve(desc, XCORR_GRID_SAMPLES, 8.0)
            assert np.array_equal(curve.freq, ref.freq)
            assert np.array_equal(curve.rho, ref.rho)

    def test_rows_ordered_as_n_list(self):
        pairs = run_xcorr_report(SINE, [4, 0, 2], 8.0)
        for n, (curve, _) in zip([4, 0, 2], pairs, strict=True):
            desc = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=n)
            ref = xcorr_curve(desc, XCORR_GRID_SAMPLES, 8.0)
            assert np.array_equal(curve.rho, ref.rho)

    def test_cutoff_increasing(self):
        pairs = run_xcorr_report(SINE, [0, 1, 2, 4, 8, 16], 20.0)
        cutoffs = [metrics.cutoff_3db for _, metrics in pairs]
        assert all(b > a for a, b in zip(cutoffs, cutoffs[1:]))

    def test_partial_row_marked_others_computed(self):
        (_, m0), (_, m16) = run_xcorr_report(SINE, [0, 16], 8.0)
        assert m0.cutoff_first_null is not None
        assert m16.cutoff_first_null is None  # no null below 8/T
        assert m16.cutoff_3db is not None  # partial result kept

    def test_rows_keep_the_other_parameters(self):
        # only shape_n varies; a tapered curve keeps its taper
        tapered = PulseDescriptor(family=PulseFamily.TAPERED_FLAT_TOP, taper_alpha=1.0)
        ((curve, _),) = run_xcorr_report(tapered, [5], 8.0)
        ref = xcorr_curve(tapered, XCORR_GRID_SAMPLES, 8.0)
        assert np.array_equal(curve.rho, ref.rho)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(f_max=st.floats(1.0, 16.0))
    def test_any_f_max_gives_metrics(self, f_max):
        ((curve, metrics),) = run_xcorr_report(SINE, [1], f_max)
        f = curve.freq
        assert f[-2] < f_max <= f[-1]  # the grid ends at the first point past f_max
        assert metrics.cutoff_3db == pytest.approx(0.72, abs=0.01)
        # sin^2 has harmonics 0 and 1 only: every k >= 2 on the grid is a null
        assert metrics.orthogonality_band == (2 if f[-1] >= 2 else None)

    def test_empty_n_list(self):
        # the library and the parser share the key and the message
        with pytest.raises(ConfigKeyError) as parsed:
            parse_config("", ["n_list="])
        with pytest.raises(ConfigKeyError) as exc:
            run_xcorr_report(SINE, [], 8.0)
        assert exc.value.key == "n_list"
        assert str(exc.value) == str(parsed.value) == "n_list: must be nonempty"

    def test_fractional_n_is_not_truncated(self):
        # n = 0.5 gives the sin^0.5 curve, not the rect one of int(0.5)
        ((curve, _),) = run_xcorr_report(SINE, [0.5], 8.0)
        half = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=0.5)
        assert np.array_equal(curve.rho, xcorr_curve(half, XCORR_GRID_SAMPLES, 8.0).rho)
        assert not np.array_equal(curve.rho, xcorr_curve(SINE, XCORR_GRID_SAMPLES, 8.0).rho)


class TestNoiseEnhancement:
    def test_rect_is_zero(self):
        assert zf_noise_enhancement_db(cfg_for(N=16)) == pytest.approx(0.0, abs=1e-9)

    def test_shaped_is_positive(self):
        assert zf_noise_enhancement_db(cfg_for(N=16, pulse=SINE1)) > 0.0

    @pytest.mark.parametrize("N", [8, 64])
    @pytest.mark.parametrize("name", sorted(ENGINE_PULSES))
    def test_is_the_mean_diagonal_of_the_inverse(self, N, name):
        # read from the noise colour L, checked against an explicit inverse
        cfg = cfg_for(N=N, pulse=ENGINE_PULSES[name])
        inv = np.linalg.inv(get_kernel(cfg).gram)
        ref = 10.0 * math.log10(np.trace(inv).real / N)
        assert abs(zf_noise_enhancement_db(cfg) - ref) <= 1e-12


class TestEngineEquivalence:
    """The symbol-domain frame against the waveform oracle, by error counts.

    Each cell runs the same number of frames through both frames at their
    own seeds and compares the two bit error rates by a two-sample test.
    The bits of one frame share its noise level (N0 follows its energy)
    and, for a shaped pulse, correlated noise, so the test takes frames as
    the independent trials: each rate's variance is that of its per-frame
    error counts, which for rect QPSK is the plain binomial variance.
    """

    # (N, M, pulse, Eb/N0 values, frames): 2000 errors or more per rate,
    # the Eb/N0 values raised by each cell's ZF penalty
    CELLS = [
        (4, 4, "rect", (0.0, 4.0), 30_000),
        (64, 32, "rect", (8.0, 12.0), 5_000),
        (16, 16, "sine1", (14.0, 18.0), 20_000),
        (64, 4, "sine1", (14.0, 18.0), 3_000),
        (4, 16, "tapered", (8.0, 12.0), 50_000),
        (16, 32, "tapered", (18.0, 22.0), 5_000),
        (16, 4, "rect-sine2", (2.0, 6.0), 5_000),
        (64, 16, "rect-sine2", (8.0, 12.0), 2_000),
    ]

    @pytest.mark.parametrize("N,M,name,ebn0_list,frames", CELLS)
    def test_error_rates_agree_with_waveform_oracle(self, N, M, name, ebn0_list, frames):
        kern = get_kernel(cfg_for(N=N, M=M, pulse=ENGINE_PULSES[name]))

        def per_frame(frame_errors, ebn0_db, key):
            def errors(lo, hi):
                return frame_errors(kern, ebn0_db, lo, hi - lo, key)

            batches = seeding.map_batches(errors, frames, kern.cfg.samples_per_symbol)
            return np.concatenate([per_batch for _, _, per_batch in batches])

        for i, ebn0_db in enumerate(ebn0_list):
            engine = per_frame(harness._frame_errors_batch, ebn0_db, seeding.mix64(N, M, i, 0))
            oracle = per_frame(waveform_frame_errors, ebn0_db, seeding.mix64(N, M, i, 1))
            z = (engine.mean() - oracle.mean()) / math.sqrt(
                (engine.var() + oracle.var()) / frames
            )
            assert min(engine.sum(), oracle.sum()) >= 2000, ebn0_db
            assert abs(z) < 4.5, (ebn0_db, engine.sum(), oracle.sum(), z)
