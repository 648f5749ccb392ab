import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papr_shaper import harness
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
from papr_shaper.modem import GramMatrix, OfdmConfig, get_kernel
from papr_shaper.pulses import PulseDescriptor, PulseFamily, SamplingGrid

RECT = PulseDescriptor(family=PulseFamily.RECT)
SINE1 = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=1)


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
        with pytest.raises(PlanError):
            run_ber_point(cfg_for(), 0.0, target_errors=0, max_frames=10, seed=1)

    def test_shaped_pulse_tag(self):
        p = run_ber_point(
            cfg_for(pulse=SINE1), math.inf, target_errors=1, max_frames=5, seed=1
        )
        assert p.pulse == "sine_power"
        assert p.shape_n == 1

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        N=st.integers(1, 32),
        M=st.sampled_from([4, 8, 16, 32]),
        shape_n=st.integers(0, 2),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_noiseless_zero_errors_property(self, N, M, shape_n, seed):
        pulse = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=shape_n)
        p = run_ber_point(
            cfg_for(N=N, M=M, pulse=pulse), math.inf, target_errors=1, max_frames=70, seed=seed
        )
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
        sizes = [hi - lo for lo, hi in harness._batches(10_000)]
        assert sizes == [64, 128, 256, 512, 1024, 2048, 2048, 2048, 1872]

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
            monkeypatch.setattr(harness, "BATCH_FRAMES", batch_frames)
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
        rows = run_xcorr_report(PulseFamily.SINE_POWER, [0], self.grid(), 8.0)
        assert rows[0].cutoff_first_null == pytest.approx(1.0, abs=1 / 128)

    def test_rows_carry_their_curves(self):
        grid = self.grid()
        rows = run_xcorr_report(PulseFamily.SINE_POWER, [0, 3], grid, 8.0)
        for row in rows:
            desc = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=row.shape_n)
            ref = xcorr_curve(desc, grid, 8.0, 8 * 128 + 1)
            assert np.array_equal(row.curve.freq, ref.freq)
            assert np.array_equal(row.curve.rho, ref.rho)

    def test_rows_ordered_as_n_list(self):
        rows = run_xcorr_report(PulseFamily.SINE_POWER, [4, 0, 2], self.grid(), 8.0)
        assert [r.shape_n for r in rows] == [4, 0, 2]

    def test_cutoff_increasing(self):
        rows = run_xcorr_report(PulseFamily.SINE_POWER, [0, 1, 2, 4, 8, 16], self.grid(), 20.0)
        cutoffs = [r.cutoff_3db for r in rows]
        assert all(b > a for a, b in zip(cutoffs, cutoffs[1:]))

    def test_partial_row_marked_others_computed(self):
        rows = run_xcorr_report(PulseFamily.SINE_POWER, [0, 16], self.grid(), 8.0)
        assert rows[0].error is None
        assert rows[1].error is not None
        assert rows[1].cutoff_3db is not None  # partial result kept

    def test_empty_n_list(self):
        with pytest.raises(PlanError):
            run_xcorr_report(PulseFamily.SINE_POWER, [], self.grid(), 8.0)


class TestNoiseEnhancement:
    def test_rect_is_zero(self):
        assert zf_noise_enhancement_db(cfg_for()) == pytest.approx(0.0, abs=1e-9)

    def test_shaped_is_positive(self):
        assert zf_noise_enhancement_db(cfg_for(pulse=SINE1)) > 0.0
