import math

import numpy as np
import pytest
from scipy.integrate import quad

from papr_shaper.analysis import xcorr_curve
from papr_shaper.errors import DegeneratePulseError, InvalidDescriptorError
from papr_shaper.pulses import (
    PulseDescriptor,
    PulseFamily,
    SampledPulse,
    SamplingGrid,
    normalize_pulse,
    pulse_energy,
    sample_pulse,
)


def grid(S):
    return SamplingGrid(samples_per_symbol=S)


def desc(family, **kw):
    return PulseDescriptor(family=family, **kw)


class TestSamplePulse:
    def test_rect_is_flat(self):
        p = sample_pulse(desc(PulseFamily.RECT), grid(8))
        assert np.array_equal(p.samples, np.ones(8))

    def test_sine_peak_and_zero(self):
        p = sample_pulse(desc(PulseFamily.SINE_POWER, shape_n=1), grid(16))
        assert p.samples[0] == 0.0
        assert p.samples[8] == pytest.approx(1.0, abs=1e-15)

    def test_sine_energy_matches_quadrature(self):
        # independent oracle: numeric quadrature of sin^2(pi t) over [0, 1]
        oracle, err = quad(lambda t: math.sin(math.pi * t) ** 2, 0.0, 1.0)
        assert err < 1e-12
        assert oracle == pytest.approx(0.5, abs=1e-12)
        p = sample_pulse(desc(PulseFamily.SINE_POWER, shape_n=1), grid(64))
        assert pulse_energy(p) == pytest.approx(oracle, abs=1e-6)

    def test_sine_n0_is_rect(self):
        p = sample_pulse(desc(PulseFamily.SINE_POWER, shape_n=0), grid(16))
        assert np.array_equal(p.samples, np.ones(16))

    def test_tapered_alpha0_is_rect(self):
        p = sample_pulse(desc(PulseFamily.TAPERED_FLAT_TOP, taper_alpha=0.0), grid(32))
        assert np.array_equal(p.samples, np.ones(32))

    def test_tapered_flat_center(self):
        p = sample_pulse(desc(PulseFamily.TAPERED_FLAT_TOP, taper_alpha=0.5), grid(64))
        # central (1 - alpha) T is exactly flat
        assert np.all(p.samples[16:48] == 1.0)
        assert p.samples[0] == 0.0

    def test_truncated_sinc_center_peak(self):
        p = sample_pulse(desc(PulseFamily.TRUNCATED_SINC, bandwidth_factor=2.0), grid(64))
        assert p.samples[32] == pytest.approx(1.0)
        # design nulls at t - T/2 = k/(2W)
        assert p.samples[32 + 16] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            desc(PulseFamily.SINE_POWER, shape_n=-1),
            desc(PulseFamily.TAPERED_FLAT_TOP, taper_alpha=1.5),
            desc(PulseFamily.TAPERED_FLAT_TOP, taper_alpha=float("nan")),
            desc(PulseFamily.TRUNCATED_SINC, bandwidth_factor=0.0),
            desc(PulseFamily.TRUNCATED_SINC, bandwidth_factor=float("inf")),
        ],
    )
    def test_invalid_descriptor(self, bad):
        with pytest.raises(InvalidDescriptorError):
            sample_pulse(bad, grid(16))

    def test_irrelevant_parameters_ignored(self):
        a = sample_pulse(desc(PulseFamily.RECT, shape_n=7, taper_alpha=0.9), grid(16))
        b = sample_pulse(desc(PulseFamily.RECT), grid(16))
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize(
        "d",
        [
            desc(PulseFamily.SINE_POWER, shape_n=3),
            desc(PulseFamily.TAPERED_FLAT_TOP, taper_alpha=0.4),
            desc(PulseFamily.TRUNCATED_SINC, bandwidth_factor=1.5),
            desc(PulseFamily.RECT),
        ],
    )
    def test_discrete_mirror_symmetry(self, d):
        p = sample_pulse(d, grid(64)).samples
        mirrored = p[(64 - np.arange(64)) % 64]
        assert np.allclose(p, mirrored, atol=1e-12)


class TestEnergy:
    def test_rect_unit_energy(self):
        p = sample_pulse(desc(PulseFamily.RECT), grid(32))
        assert pulse_energy(p) == pytest.approx(1.0, abs=1e-12)

    def test_sine_squared_energy(self):
        # oracle: quadrature of sin^4(pi t) = 3/8
        oracle, _ = quad(lambda t: math.sin(math.pi * t) ** 4, 0.0, 1.0)
        assert oracle == pytest.approx(0.375, abs=1e-12)
        p = sample_pulse(desc(PulseFamily.SINE_POWER, shape_n=2), grid(256))
        assert pulse_energy(p) == pytest.approx(oracle, abs=1e-6)

    def test_zero_pulse(self):
        p = SampledPulse(np.zeros(8), 1 / 8, desc(PulseFamily.RECT))
        assert pulse_energy(p) == 0.0

    def test_quadratic_scaling(self):
        p = sample_pulse(desc(PulseFamily.SINE_POWER, shape_n=2), grid(64))
        scaled = SampledPulse(3.0 * p.samples, p.dt, p.descriptor)
        assert pulse_energy(scaled) == pytest.approx(9.0 * pulse_energy(p), rel=1e-9)


class TestNormalize:
    def test_rect_unchanged(self):
        p = sample_pulse(desc(PulseFamily.RECT), grid(32))
        n = normalize_pulse(p)
        assert np.allclose(n.samples, p.samples, atol=1e-12)

    def test_sine_scale(self):
        p = sample_pulse(desc(PulseFamily.SINE_POWER, shape_n=1), grid(128))
        n = normalize_pulse(p)
        assert np.allclose(n.samples, p.samples / math.sqrt(pulse_energy(p)))
        assert pulse_energy(n) == pytest.approx(1.0, abs=1e-9)

    def test_idempotent(self):
        p = sample_pulse(desc(PulseFamily.TAPERED_FLAT_TOP, taper_alpha=0.3), grid(64))
        once = normalize_pulse(p)
        twice = normalize_pulse(once)
        assert np.allclose(once.samples, twice.samples, atol=1e-15)

    def test_zero_energy_raises(self):
        p = SampledPulse(np.zeros(8), 1 / 8, desc(PulseFamily.RECT))
        with pytest.raises(DegeneratePulseError):
            normalize_pulse(p)

    def test_normalize_flag_on_descriptor(self):
        d = desc(PulseFamily.SINE_POWER, shape_n=4, normalize_energy=True)
        p = sample_pulse(d, grid(128))
        assert pulse_energy(p) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_any_nonzero_input_unit_energy(self, n):
        p = sample_pulse(desc(PulseFamily.SINE_POWER, shape_n=n), grid(96))
        assert pulse_energy(normalize_pulse(p)) == pytest.approx(1.0, abs=1e-9)


class TestSpectrum:
    def test_truncated_sinc_aliasing_ripple_shrinks_with_resolution(self):
        # oracle: a much finer grid stands in for the continuous pulse
        d = desc(PulseFamily.TRUNCATED_SINC, bandwidth_factor=2.0)
        f = 3.0, 385
        ref = xcorr_curve(d, grid(8192), *f)
        dev = []
        for S in (64, 256):
            curve = xcorr_curve(d, grid(S), *f)
            dev.append(np.max(np.abs(np.abs(curve.rho) - np.abs(ref.rho))))
        assert dev[1] < dev[0]
