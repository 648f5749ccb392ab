import math

import numpy as np
import pytest
from scipy.integrate import quad

from papr_shaper.analysis import xcorr_curve
from papr_shaper.errors import ConfigError, ConfigKeyError
from papr_shaper.pulses import (
    MAX_BANDWIDTH_FACTOR,
    PulseDescriptor,
    PulseFamily,
    pulse_energy,
    sample_pulse,
)


def desc(family, **kw):
    return PulseDescriptor(family=family, **kw)


class TestSamplePulse:
    def test_rect_is_flat(self):
        p = sample_pulse(desc(PulseFamily.RECT), 8)
        assert np.array_equal(p, np.ones(8))

    def test_sine_peak_and_zero(self):
        p = sample_pulse(desc(PulseFamily.SINE_POWER, shape_n=1), 16)
        assert p[0] == 0.0
        assert p[8] == pytest.approx(1.0, abs=1e-15)

    def test_sine_energy_matches_quadrature(self):
        # independent oracle: numeric quadrature of sin^2(pi t) over [0, 1]
        oracle, err = quad(lambda t: math.sin(math.pi * t) ** 2, 0.0, 1.0)
        assert err < 1e-12
        assert oracle == pytest.approx(0.5, abs=1e-12)
        p = sample_pulse(desc(PulseFamily.SINE_POWER, shape_n=1), 64)
        assert pulse_energy(p, 1 / 64) == pytest.approx(oracle, abs=1e-6)

    def test_sine_n0_is_rect(self):
        p = sample_pulse(desc(PulseFamily.SINE_POWER, shape_n=0), 16)
        assert np.array_equal(p, np.ones(16))

    def test_tapered_alpha0_is_rect(self):
        p = sample_pulse(desc(PulseFamily.TAPERED_FLAT_TOP, taper_alpha=0.0), 32)
        assert np.array_equal(p, np.ones(32))

    def test_tapered_flat_center(self):
        p = sample_pulse(desc(PulseFamily.TAPERED_FLAT_TOP, taper_alpha=0.5), 64)
        # central (1 - alpha) T is exactly flat
        assert np.all(p[16:48] == 1.0)
        assert p[0] == 0.0

    def test_truncated_sinc_center_peak(self):
        p = sample_pulse(desc(PulseFamily.TRUNCATED_SINC, bandwidth_factor=2.0), 64)
        assert p[32] == pytest.approx(1.0)
        # design nulls at t - T/2 = k/(2W)
        assert p[32 + 16] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            (PulseFamily.SINE_POWER, "shape_n", -1),
            (PulseFamily.TAPERED_FLAT_TOP, "taper_alpha", 1.5),
            (PulseFamily.TAPERED_FLAT_TOP, "taper_alpha", float("nan")),
            (PulseFamily.TRUNCATED_SINC, "bandwidth_factor", 0.0),
            (PulseFamily.TRUNCATED_SINC, "bandwidth_factor", float("inf")),
            (PulseFamily.SINE_POWER, "shape_n", float("nan")),
            (PulseFamily.SINE_POWER, "shape_n", float("inf")),
            (PulseFamily.SINE_POWER, "shape_n", 10**400),  # above the largest float
            # pi * W overflows, so np.sinc would give NaN samples
            (PulseFamily.TRUNCATED_SINC, "bandwidth_factor", 1e308),
            (PulseFamily.TRUNCATED_SINC, "bandwidth_factor", 6e307),
            (PulseFamily.TRUNCATED_SINC, "bandwidth_factor",
             np.nextafter(MAX_BANDWIDTH_FACTOR, math.inf)),
        ],
    )
    def test_invalid_descriptor(self, bad):
        # the descriptor refuses to exist, naming the one parameter out of range
        family, key, value = bad
        with pytest.raises(ConfigKeyError, match=f"^{key}: "):
            desc(family, **{key: value})

    @pytest.mark.parametrize("S", [8, 1024])
    def test_largest_bandwidth_factor_samples_finite(self, S):
        p = sample_pulse(desc(PulseFamily.TRUNCATED_SINC, bandwidth_factor=MAX_BANDWIDTH_FACTOR), S)
        assert np.all(np.isfinite(p))
        assert p[S // 2] == 1.0

    @pytest.mark.parametrize(
        "bad,S,message",
        [
            (desc(PulseFamily.SINE_POWER, shape_n=100_000), 5,
             "shape_n: sin^100000 is zero at all 5 samples"),
            (desc(PulseFamily.TRUNCATED_SINC, bandwidth_factor=1e300), 5, "bandwidth_factor: "),
            (desc(PulseFamily.TAPERED_FLAT_TOP, taper_alpha=1.0), 1, "taper_alpha: "),
        ],
        ids=["sine_power", "truncated_sinc", "tapered_flat_top"],
    )
    def test_zero_energy_names_its_key(self, bad, S, message):
        # the sinc's samples are about 1e-300, nonzero, but their squares underflow
        with pytest.raises(ConfigKeyError) as exc:
            sample_pulse(bad, S)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("S", [0, -1])
    def test_sample_count_checked(self, S):
        with pytest.raises(ConfigError, match="samples_per_symbol"):
            sample_pulse(desc(PulseFamily.RECT), S)

    def test_irrelevant_parameters_ignored(self):
        a = sample_pulse(desc(PulseFamily.RECT, shape_n=7, taper_alpha=0.9), 16)
        b = sample_pulse(desc(PulseFamily.RECT), 16)
        assert np.array_equal(a, b)

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
        p = sample_pulse(d, 64)
        mirrored = p[(64 - np.arange(64)) % 64]
        assert np.allclose(p, mirrored, atol=1e-12)


class TestEnergy:
    def test_rect_unit_energy(self):
        p = sample_pulse(desc(PulseFamily.RECT), 32)
        assert pulse_energy(p, 1 / 32) == pytest.approx(1.0, abs=1e-12)

    def test_sine_squared_energy(self):
        # oracle: quadrature of sin^4(pi t) = 3/8
        oracle, _ = quad(lambda t: math.sin(math.pi * t) ** 4, 0.0, 1.0)
        assert oracle == pytest.approx(0.375, abs=1e-12)
        p = sample_pulse(desc(PulseFamily.SINE_POWER, shape_n=2), 256)
        assert pulse_energy(p, 1 / 256) == pytest.approx(oracle, abs=1e-6)

    def test_zero_pulse(self):
        assert pulse_energy(np.zeros(8), 1 / 8) == 0.0

    def test_quadratic_scaling(self):
        p = sample_pulse(desc(PulseFamily.SINE_POWER, shape_n=2), 64)
        e = pulse_energy(p, 1 / 64)
        assert pulse_energy(3.0 * p, 1 / 64) == pytest.approx(9.0 * e, rel=1e-9)


class TestSpectrum:
    def test_truncated_sinc_aliasing_ripple_shrinks_with_resolution(self):
        # oracle: a much finer grid stands in for the continuous pulse
        d = desc(PulseFamily.TRUNCATED_SINC, bandwidth_factor=2.0)
        ref = xcorr_curve(d, 8192, 3.0)
        dev = []
        for S in (64, 256):
            curve = xcorr_curve(d, S, 3.0)
            dev.append(np.max(np.abs(np.abs(curve.rho) - np.abs(ref.rho))))
        assert dev[1] < dev[0]
