import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from papr_shaper import harness, modem, seeding
from papr_shaper.analysis import ccdf_empirical, max_papr, theoretical_ber, xcorr_curve
from papr_shaper.errors import IllConditionedGramError, PlanError
from papr_shaper.harness import (
    SweepPlan,
    run_ber_point,
    run_ber_sweep,
    run_xcorr_report,
    wilson_interval,
    zf_noise_enhancement_db,
)
from papr_shaper.modem import OfdmConfig, get_kernel
from papr_shaper.pulses import PulseDescriptor, PulseFamily, SamplingGrid

RECT = PulseDescriptor(family=PulseFamily.RECT)
SINE1 = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=1)
SINE = PulseDescriptor(family=PulseFamily.SINE_POWER)


def cfg_for(N=16, M=4, pulse=RECT):
    return OfdmConfig(n_subcarriers=N, m_order=M, pulse_assignment=pulse)


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
        with pytest.raises(PlanError):
            wilson_interval(5, 0)
        with pytest.raises(PlanError):
            wilson_interval(11, 10)


class TestBerPoint:
    def test_noiseless_zero_errors(self):
        p = run_ber_point(cfg_for(), math.inf, target_errors=10, max_frames=50, seed=1)
        assert p.bit_errors == 0
        assert p.ber == 0.0
        assert p.bits_sent == 50 * 32

    def test_determinism(self):
        a = run_ber_point(cfg_for(), 3.0, target_errors=50, max_frames=10_000, seed=7)
        b = run_ber_point(cfg_for(), 3.0, target_errors=50, max_frames=10_000, seed=7)
        assert a == b

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_invariance(self, workers):
        ref = run_ber_point(cfg_for(), 2.0, target_errors=300, max_frames=10_000, seed=5)
        par = run_ber_point(
            cfg_for(), 2.0, target_errors=300, max_frames=10_000, seed=5, workers=workers
        )
        assert ref == par

    def test_one_worker_starts_no_thread_pool(self, monkeypatch):
        # a pool thread gets its own malloc arena; workers=1 stays on the caller
        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 started a thread pool")

        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
        p = run_ber_point(cfg_for(), 2.0, target_errors=300, max_frames=10_000, seed=5)
        assert p.bit_errors >= 300

    def test_matches_theory_within_ci(self):
        cfg = cfg_for(N=64)
        p = run_ber_point(cfg, 4.0, target_errors=400, max_frames=100_000, seed=3)
        assert p.ci_lo <= theoretical_ber(4, 4.0) <= p.ci_hi

    def test_ci_brackets_estimate(self):
        p = run_ber_point(cfg_for(), 0.0, target_errors=100, max_frames=5_000, seed=2)
        assert p.ci_lo <= p.ber <= p.ci_hi

    def test_stopping_at_target(self):
        p = run_ber_point(cfg_for(), 0.0, target_errors=25, max_frames=100_000, seed=4)
        # stopped at the first frame reaching the target, not a batch edge
        assert p.bit_errors >= 25
        assert p.bit_errors < 25 + cfg_for().bits_per_frame

    def test_bad_plan(self):
        bad = [
            (0.0, {"target_errors": 0}),
            (-math.inf, {}),
            (math.nan, {}),
            (-4000.0, {}),
            (0.0, {"workers": 0}),
        ]
        for ebn0_db, kwargs in bad:
            with pytest.raises(PlanError):
                run_ber_point(cfg_for(), ebn0_db, max_frames=10, seed=1, **kwargs)

    def test_shaped_pulse_tag(self):
        p = run_ber_point(
            cfg_for(pulse=SINE1), math.inf, target_errors=1, max_frames=5, seed=1
        )
        assert p.pulse == "sine_power"
        assert p.shape_n == 1

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        N=st.integers(1, 32),
        M=st.sampled_from([4, 8, 16, 32]),
        pulse=st.one_of(
            st.builds(PulseDescriptor, family=st.just(PulseFamily.SINE_POWER),
                      shape_n=st.integers(0, 2)),
            st.builds(PulseDescriptor, family=st.just(PulseFamily.TAPERED_FLAT_TOP),
                      taper_alpha=st.floats(0.0, 1.0)),
            st.builds(PulseDescriptor, family=st.just(PulseFamily.TRUNCATED_SINC),
                      bandwidth_factor=st.floats(0.01, 16.0)),
        ),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_noiseless_zero_errors_property(self, N, M, pulse, seed):
        cfg = cfg_for(N=N, M=M, pulse=pulse)
        # a sinc whose samples all fall on its zeros but one is a delta; its G is singular
        assume(get_kernel(cfg).gram_condition <= modem.GRAM_CONDITION_LIMIT)
        p = run_ber_point(cfg, math.inf, target_errors=1, max_frames=70, seed=seed)
        assert p.bit_errors == 0
        assert p.bits_sent == 70 * N * (M.bit_length() - 1)

    def test_ill_conditioned_gram_propagates(self):
        # nearly time-disjoint narrow pulses: strongly non-orthogonal set
        narrow = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=400)
        cfg = OfdmConfig(n_subcarriers=16, m_order=4, pulse_assignment=narrow)
        with pytest.raises(IllConditionedGramError):
            run_ber_point(cfg, 10.0, target_errors=5, max_frames=10, seed=1)


class TestBatchSchedule:
    # (Eb/N0, target_errors, max_frames, frame range the stop must fall in)
    CASES = {
        "first-batch": (0.0, 100, 10_000, (1, 64)),
        "mid-ramp": (4.0, 200, 10_000, (449, 960)),
        "max-frames": (8.0, 10**6, 3_000, (3_000, 3_000)),
    }

    def test_schedule_ramps_to_cap(self):
        def sizes(n_frames, samples_per_frame):
            return [hi - lo for lo, hi in seeding.frame_batches(n_frames, samples_per_frame)]

        assert sizes(10_000, 256) == [64, 128, 256, 512, 1024, 2048, 2048, 2048, 1872]
        assert sizes(1_000, 4096) == [64] + [128] * 7 + [40]
        assert sizes(3, seeding.BATCH_SAMPLES + 1) == [1, 1, 1]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_point_independent_of_batch_size_and_workers(self, case, monkeypatch):
        ebn0_db, target, max_frames, (first, last) = self.CASES[case]
        cfg = cfg_for()

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

    def test_huge_max_frames_allocates_only_what_it_computes(self):
        cfg = cfg_for()
        get_kernel(cfg).gram_inv  # kernel allocations are not the point's
        tracemalloc.start()
        try:
            p = run_ber_point(cfg, 0.0, target_errors=50, max_frames=10**9, seed=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p.bits_sent < 64 * cfg.bits_per_frame
        assert peak < 4 * 2**20

    def test_batch_memory_bounded_at_large_n(self):
        # S = 4096 caps batches at 128 frames; the 512-frame batch a
        # frame-count cap reaches for this 494-frame point peaks at 208 MB
        cfg = cfg_for(N=1024)
        get_kernel(cfg).gram_inv  # kernel allocations are not the point's
        tracemalloc.start()
        try:
            p = run_ber_point(cfg, 8.0, target_errors=200, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p.bits_sent > 400 * cfg.bits_per_frame
        assert peak < 64 * 2**20


class TestFftPath:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("pulse", [RECT, SINE1], ids=["rect", "sine1"])
    def test_fft_and_dense_paths_give_the_same_point(self, pulse, workers):
        # N copies of the pulse form a per-subcarrier set, which keeps the
        # dense synth/mf products and the dense Gram matrix as the oracle
        def point(assignment):
            return run_ber_point(
                cfg_for(N=64, pulse=assignment), 4.0, target_errors=300, max_frames=5_000,
                seed=11, workers=workers,
            )

        fft, dense = point(pulse), point((pulse,) * 64)
        assert get_kernel(cfg_for(N=64, pulse=pulse)).use_fft
        assert not get_kernel(cfg_for(N=64, pulse=(pulse,) * 64)).use_fft
        assert replace(dense, pulse=fft.pulse, shape_n=fft.shape_n) == fft

    def test_fft_kernel_builds_no_dense_matrix(self):
        cfg = cfg_for(N=1024)
        run_ber_point(cfg, 4.0, target_errors=10, max_frames=64, seed=1)
        kern = get_kernel(cfg)
        assert kern.use_fft
        assert "synth" not in kern.__dict__
        assert "mf" not in kern.__dict__


class TestBerSweep:
    def plan(self, ebn0, **kw):
        return SweepPlan(cfg=cfg_for(N=64), ebn0_db_list=tuple(ebn0), **kw)

    def test_singleton(self):
        pts = run_ber_sweep(self.plan([2.0], target_errors=50, max_frames=2_000))
        assert len(pts) == 1
        assert pts[0].ebn0_db == 2.0

    def test_one_point_per_ebn0(self):
        pts = run_ber_sweep(self.plan([0.0, 2.0, 4.0], target_errors=50, max_frames=2_000))
        assert [p.ebn0_db for p in pts] == [0.0, 2.0, 4.0]

    def test_ber_strictly_decreasing(self):
        pts = run_ber_sweep(
            self.plan([0.0, 2.0, 4.0, 6.0, 8.0], target_errors=500, max_frames=200_000)
        )
        bers = [p.ber for p in pts]
        assert all(b < a for a, b in zip(bers, bers[1:]))

    def test_invalid_plans(self):
        with pytest.raises(PlanError):
            SweepPlan(cfg=cfg_for(), ebn0_db_list=())
        with pytest.raises(PlanError):
            SweepPlan(cfg=cfg_for(), ebn0_db_list=(4.0, 2.0))

    def test_minus_inf_point_rejected(self):
        plan = SweepPlan(cfg=cfg_for(), ebn0_db_list=(-math.inf, 0.0), max_frames=10)
        with pytest.raises(PlanError, match=r"sweep point 0 .*-inf"):
            run_ber_sweep(plan)


class TestPaprExperiment:
    def test_single_trial(self):
        curve = ccdf_empirical(cfg_for(N=4), 1, seed=3, gamma_db=np.array([0.0]))
        mx = max_papr(cfg_for(N=4), method="random", trials=1, seed=3)
        assert curve.trials == 1
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
    def grid(self):
        return SamplingGrid(samples_per_symbol=1024)

    def test_rect_row(self):
        rows = run_xcorr_report(SINE, [0], self.grid(), 8.0)
        assert rows[0].metrics.cutoff_first_null == pytest.approx(1.0, abs=1 / 128)

    def test_rows_carry_their_curves(self):
        grid = self.grid()
        rows = run_xcorr_report(SINE, [0, 3], grid, 8.0)
        for row in rows:
            desc = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=row.shape_n)
            ref = xcorr_curve(desc, grid, 8.0)
            assert np.array_equal(row.curve.freq, ref.freq)
            assert np.array_equal(row.curve.rho, ref.rho)

    def test_rows_ordered_as_n_list(self):
        rows = run_xcorr_report(SINE, [4, 0, 2], self.grid(), 8.0)
        assert [r.shape_n for r in rows] == [4, 0, 2]

    def test_cutoff_increasing(self):
        rows = run_xcorr_report(SINE, [0, 1, 2, 4, 8, 16], self.grid(), 20.0)
        cutoffs = [r.metrics.cutoff_3db for r in rows]
        assert all(b > a for a, b in zip(cutoffs, cutoffs[1:]))

    def test_partial_row_marked_others_computed(self):
        rows = run_xcorr_report(SINE, [0, 16], self.grid(), 8.0)
        assert rows[0].metrics.cutoff_first_null is not None
        assert rows[1].metrics.cutoff_first_null is None  # no null below 8/T
        assert rows[1].metrics.cutoff_3db is not None  # partial result kept

    def test_rows_keep_the_other_parameters(self):
        # only shape_n varies; a tapered row keeps its taper
        tapered = PulseDescriptor(family=PulseFamily.TAPERED_FLAT_TOP, taper_alpha=1.0)
        (row,) = run_xcorr_report(tapered, [5], self.grid(), 8.0)
        ref = xcorr_curve(tapered, self.grid(), 8.0)
        assert row.shape_n == 5
        assert np.array_equal(row.curve.rho, ref.rho)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(f_max=st.floats(1.0, 16.0))
    def test_any_f_max_gives_metrics(self, f_max):
        (row,) = run_xcorr_report(SINE, [1], self.grid(), f_max)
        f = row.curve.freq
        assert f[-2] < f_max <= f[-1]  # the grid ends at the first point past f_max
        assert row.metrics.cutoff_3db == pytest.approx(0.72, abs=0.01)
        # sin^2 has harmonics 0 and 1 only: every k >= 2 on the grid is a null
        assert row.metrics.orthogonality_band == (2 if f[-1] >= 2 else None)

    def test_empty_n_list(self):
        with pytest.raises(PlanError):
            run_xcorr_report(SINE, [], self.grid(), 8.0)


class TestNoiseEnhancement:
    def test_rect_is_zero(self):
        assert zf_noise_enhancement_db(cfg_for()) == pytest.approx(0.0, abs=1e-9)

    def test_shaped_is_positive(self):
        assert zf_noise_enhancement_db(cfg_for(pulse=SINE1)) > 0.0
