import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ENGINE_PULSES,
    RECT,
    SINE1,
    SINE2,
    TAPERED,
    TSINC,
    add_awgn,
    cfg_for,
    demap_argmin,
    demap_bits,
    dense_gram,
    dense_mf,
    dense_synth,
    label_bits,
    map_bits,
    matched_filter,
    solve_zf,
)
from papr_shaper import harness, modem, seeding
from papr_shaper.errors import ConfigError, ConfigKeyError
from papr_shaper.modem import (
    ModemKernel,
    OfdmConfig,
    _condition,
    build_constellation,
    demap_labels,
    get_kernel,
)
from papr_shaper.pulses import PulseDescriptor, PulseFamily, sample_pulse

FAMILIES = {"rect": RECT, "sine1": SINE1, "tapered": TAPERED, "tsinc": TSINC}
# the flat members of two shaped families: every sample is 1.0, as rect's
SINE0 = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=0)
TAPERED0 = PulseDescriptor(family=PulseFamily.TAPERED_FLAT_TOP, taper_alpha=0.0)
# cyclic pulse sets of period 2 and 3, and one whose repeated entry gives
# two groups of the same pulse
SETS = {
    "alternating": (RECT, SINE1),
    "cyclic3": (RECT, SINE1, TAPERED),
    "repeated": (RECT, SINE1, RECT),
}
PULSES = FAMILIES | SETS


def random_frames(cfg, seed=0, frames=3):
    """(bits, symbols) of a batch of random frames."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (frames, cfg.bits_per_frame))
    return bits, map_bits(bits, build_constellation(cfg.m_order))


def gram(cfg):
    return get_kernel(cfg).gram


class TestConstellation:
    def test_qpsk_label_00(self):
        c = build_constellation(4)
        assert c.points[0] == pytest.approx((1 + 1j) / math.sqrt(2))

    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_unit_average_energy(self, M):
        c = build_constellation(M)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_distinct_points_and_labels(self, M):
        c = build_constellation(M)
        assert len(c.points) == M
        assert len(np.unique(c.points)) == M
        # the slicer's grid: scaled points are odd integers
        scaled = c.points * c.scale
        grid = np.rint(scaled)
        assert np.abs(scaled - grid).max() < 1e-12
        assert np.all(grid.real % 2 == 1) and np.all(grid.imag % 2 == 1)
        if M == 32:
            levels = range(-5, 6, 2)
            cross = {(x, y) for x in levels for y in levels if abs(x) + abs(y) < 10}
            assert set(zip(grid.real.astype(int), grid.imag.astype(int))) == cross

    @pytest.mark.parametrize("M,max_hamming", [(4, 1), (8, 1), (16, 1), (32, 2)])
    def test_neighbor_hamming(self, M, max_hamming):
        # oracle: exhaustive scan of minimum-distance neighbor pairs
        c = build_constellation(M)
        d = np.abs(c.points[:, None] - c.points[None, :])
        np.fill_diagonal(d, np.inf)
        dmin = d.min()
        worst = 0
        for i in range(M):
            for j in range(M):
                if d[i, j] < dmin * 1.001:
                    worst = max(worst, bin(i ^ j).count("1"))
        assert worst <= max_hamming

    def test_unsupported_order(self):
        with pytest.raises(ConfigError):
            build_constellation(64)


class TestMapDemap:
    def test_repeated_symbol(self):
        c = build_constellation(4)
        out = c.points[np.zeros(2, dtype=np.intp)]  # label 0 spells bits 00
        assert np.allclose(out, (1 + 1j) / math.sqrt(2))
        assert np.array_equal(out, map_bits(np.zeros(4, dtype=bool), c))

    def test_empty(self):
        c = build_constellation(4)
        assert demap_labels(np.array([], dtype=complex), c).size == 0
        assert c.points[np.empty((3, 0), dtype=np.intp)].shape == (3, 0)

    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_labels_match_map_bits_oracle(self, M):
        # points[v] is the point of the label whose MSB-first bits spell v
        c = build_constellation(M)
        labels = np.random.default_rng(M).integers(0, M, (7, 5))
        bits = label_bits(labels, c.bits_per_symbol)
        assert bits.shape == (7, 5 * c.bits_per_symbol)
        assert np.array_equal(c.points[labels], map_bits(bits, c))

    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_roundtrip(self, M):
        c = build_constellation(M)
        rng = np.random.default_rng(M)
        k = c.bits_per_symbol
        bits = rng.integers(0, 2, 10_000 * k)
        assert np.array_equal(demap_bits(map_bits(bits, c), c), bits)

    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_exact_points_demap_to_own_labels(self, M):
        c = build_constellation(M)
        k = c.bits_per_symbol
        bits = demap_bits(c.points, c)
        values = bits.reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))
        assert np.array_equal(values, np.arange(M))

    # level-grid points (x, y) where two or more points are equally near:
    # the origin, a threshold between two levels, and the 32-cross's
    # corner diagonal |x| = |y|
    TIES = {
        4: [(0, 0), (0, 1)],
        8: [(0, 0), (2, 1)],
        16: [(0, 0), (-2, 3)],
        32: [(0, 0), (4, 1), (-6, 6)],
    }

    def test_tie_break_lowest_index(self):
        for M, ties in self.TIES.items():
            c = build_constellation(M)
            k = c.bits_per_symbol
            scaled = c.points * c.scale
            xs, ys = np.rint(scaled.real).astype(int), np.rint(scaled.imag).astype(int)
            for x, y in ties:
                symbol = complex(x / c.scale, y / c.scale)
                # the slicer must see the tie exactly
                assert (symbol.real * c.scale, symbol.imag * c.scale) == (x, y)
                d2 = (xs - x) ** 2 + (ys - y) ** 2
                nearest = np.flatnonzero(d2 == d2.min())
                assert len(nearest) >= 2, (M, x, y)
                bits = demap_bits(np.array([symbol]), c)
                assert int(bits @ (1 << np.arange(k - 1, -1, -1))) == nearest[0], (M, x, y)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        M=st.sampled_from([4, 8, 16, 32]),
        sigma=st.sampled_from([0.05, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_argmin_oracle_under_noise(self, M, sigma, seed):
        c = build_constellation(M)
        rng = np.random.default_rng(seed)
        shape = (4, 256)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = c.points[rng.integers(0, M, shape)] + sigma * noise
        assert np.array_equal(demap_bits(y, c), demap_argmin(y, c))
        if M == 32 and sigma > 0.05:
            # the noise reaches the empty corner cells |x|, |y| > 4
            scaled = y * c.scale
            assert np.any((np.abs(scaled.real) > 4) & (np.abs(scaled.imag) > 4))

    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_labels_match_argmin_at_thresholds_and_corners(self, M):
        c = build_constellation(M)
        rng = np.random.default_rng(M)
        # half steps of the level grid: every level (odd), every threshold
        # between levels (even) and, for the 32-cross, the corner cells and
        # their diagonal |x| = |y|
        grid = rng.integers(-18, 19, (2, 4000)) / 2
        y = (grid[0] + 1j * grid[1]) / c.scale
        exact = (y.real * c.scale == grid[0]) & (y.imag * c.scale == grid[1])
        y, grid = y[exact], grid[:, exact]
        assert y.size > 1000
        levels = np.rint(c.points * c.scale)
        d2 = (levels.real - grid[0, :, None]) ** 2 + (levels.imag - grid[1, :, None]) ** 2
        assert np.sum(d2 == d2.min(axis=1, keepdims=True)) > y.size  # exact ties occur
        assert np.array_equal(demap_labels(y, c), np.argmin(d2, axis=1))
        # off the grid, against the distance to every unscaled point
        y = (rng.uniform(-9, 9, (64, 16)) + 1j * rng.uniform(-9, 9, (64, 16))) / c.scale
        labels = demap_labels(y, c)
        assert np.array_equal(label_bits(labels, c.bits_per_symbol), demap_argmin(y, c))

    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_zero_dimensional_symbol(self, M):
        # a 0-d symbol decides as the one symbol of a 1-d call on [y]
        c = build_constellation(M)
        for y in (0.3 + 0.2j, np.complex128(-0.9 + 0.7j), np.array(1.1 - 0.4j)):
            label = demap_labels(y, c)
            assert label.shape == () and label == demap_labels([y], c)[0]
            bits = demap_bits(y, c)
            assert bits.shape == (c.bits_per_symbol,)
            assert np.array_equal(bits, demap_bits([y], c))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        M=st.sampled_from([4, 8, 16, 32]),
        frames=st.integers(1, 8),
        N=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_roundtrip_property(self, M, frames, N, seed):
        c = build_constellation(M)
        bits = np.random.default_rng(seed).integers(0, 2, (frames, N * c.bits_per_symbol))
        symbols = map_bits(bits, c)
        assert symbols.shape == (frames, N)
        assert np.array_equal(demap_bits(symbols, c), bits)

    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_perturbation_below_half_min_distance(self, M):
        c = build_constellation(M)
        d = np.abs(c.points[:, None] - c.points[None, :])
        np.fill_diagonal(d, np.inf)
        eps = 0.49 * d.min()
        noisy = c.points + eps * np.exp(1j * np.linspace(0, 2 * np.pi, M, endpoint=False))
        assert np.array_equal(demap_bits(noisy, c), demap_bits(c.points, c))


class TestSynthesize:
    def test_single_dc_carrier(self):
        s = np.array([[1.0 + 0j]]) @ dense_synth(get_kernel(cfg_for(N=1)))
        assert np.allclose(s, 1.0)

    def test_coherent_sum_at_origin(self):
        s = np.array([[1.0 + 0j, 1.0 + 0j]]) @ dense_synth(get_kernel(cfg_for(N=2)))
        assert abs(s[0, 0]) == pytest.approx(2.0)

    def test_rect_parseval(self):
        cfg = cfg_for(N=4)
        kern = get_kernel(cfg)
        _, a = random_frames(cfg, seed=3)
        energy = np.sum(np.abs(a @ dense_synth(kern)) ** 2, axis=1) * kern.dt
        assert np.allclose(energy, np.sum(np.abs(a) ** 2, axis=1), atol=1e-9)

    @pytest.mark.parametrize(
        "pulse_set",
        [(RECT,) * 5, (), RECT, [RECT], (RECT, "sine")],
        ids=["longer-than-N", "empty", "bare-descriptor", "list", "non-descriptor"],
    )
    def test_pulse_set_checked(self, pulse_set):
        with pytest.raises(ConfigError, match="pulse_set"):
            OfdmConfig(n_subcarriers=4, m_order=4, pulse_set=pulse_set)

    @pytest.mark.parametrize(
        "kwargs,key",
        [
            ({"n_subcarriers": 0}, "n_subcarriers"),
            ({"n_subcarriers": 4097}, "n_subcarriers"),
            ({"m_order": 7}, "m"),
            ({"oversample": 3}, "oversample"),
            ({"oversample": 65}, "oversample"),
        ],
        ids=["N-0", "N-4097", "M-7", "L-3", "L-65"],
    )
    def test_range_checked(self, kwargs, key):
        with pytest.raises(ConfigKeyError, match=f"^{key}: ") as exc:
            OfdmConfig(**{"n_subcarriers": 4, "m_order": 4, "pulse_set": (RECT,), **kwargs})
        assert exc.value.key == key
        # the caps themselves are accepted
        OfdmConfig(n_subcarriers=4096, m_order=32, pulse_set=(RECT,), oversample=64)

    def test_zero_energy_pulse_named(self):
        # S = 15 is odd, so no sample of sin^100000 lands at t = T/2: all underflow to 0
        cfg = cfg_for(N=3, pulse=(RECT, PulseDescriptor(PulseFamily.SINE_POWER, 100_000)), L=5)
        with pytest.raises(ConfigKeyError, match=r"^shape_n: sin\^100000 is zero at all 15 samples"):
            ModemKernel(cfg)


class TestGram:
    def test_rect_identity(self):
        G = gram(cfg_for(N=8))
        off = G - np.eye(8)
        assert np.max(np.abs(off)) < 1e-10

    def test_sine1_tridiagonal(self):
        G = gram(cfg_for(N=8, pulse=SINE1))
        assert G[0, 1] == pytest.approx(-0.5, abs=1e-6)
        assert G[3, 2] == pytest.approx(-0.5, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_banded_beyond_n(self, n):
        desc = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=n)
        G = gram(cfg_for(N=12, pulse=desc, L=8))
        for k in range(12):
            for l in range(12):
                if abs(k - l) > n:
                    assert abs(G[k, l]) < 1e-6

    @pytest.mark.parametrize(
        "pulse",
        [
            RECT,
            SINE1,
            TAPERED,
            TSINC,
            (RECT, SINE1),
        ],
    )
    def test_hermitian_unit_diagonal_psd(self, pulse):
        G = gram(cfg_for(N=16, pulse=pulse))
        assert np.allclose(G, G.conj().T, atol=1e-12)
        assert np.allclose(np.diag(G).real, 1.0, atol=1e-9)
        assert np.linalg.eigvalsh(G).min() >= -1e-9

    def test_uniform_assignment_toeplitz(self):
        G = gram(cfg_for(N=16, pulse=SINE1))
        for d in range(-15, 16):
            diag = np.diagonal(G, offset=d)
            assert np.max(np.abs(diag - diag[0])) < 1e-9

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_condition_matches_svd(self, n):
        desc = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=n)
        kern = get_kernel(cfg_for(N=16, pulse=desc))
        assert kern.gram_condition == pytest.approx(np.linalg.cond(kern.gram), rel=1e-6)

    def test_condition_of_singular_is_infinite(self):
        assert _condition(np.zeros((2, 2), dtype=complex)) == math.inf
        assert _condition(np.ones((2, 2), dtype=complex)) > 1e8

    def test_cached_inverse(self):
        # the kernel holds G^-1 only as its noise colour: L L^H = G^-1 / sqrt(e_k e_l)
        kern = get_kernel(cfg_for(N=8, pulse=(SINE1, RECT)))
        L, e = kern.noise_colour, kern.energies
        inv = (L @ L.conj().T) * np.sqrt(np.outer(e, e))
        assert np.allclose(inv @ kern.gram, np.eye(8), atol=1e-9)
        assert kern.noise_colour is L


class TestSharedPulseKernel:
    # Kernels are built directly, not through get_kernel's cache, so that
    # the large ones do not stay alive.

    @pytest.mark.parametrize("N", [4, 16, 64, 256, 512, 1024])
    @pytest.mark.parametrize("family", sorted(FAMILIES) + sorted(SETS))
    def test_fft_stages_match_dense(self, N, family):
        kern = ModemKernel(cfg_for(N=N, pulse=PULSES[family]))
        P = len(kern.cfg.pulse_set)
        assert [carriers for carriers, _ in kern.groups] == [slice(g, N, P) for g in range(P)]
        rng = np.random.default_rng(N)
        a = rng.standard_normal((4, N)) + 1j * rng.standard_normal((4, N))
        S = kern.cfg.samples_per_symbol
        r = rng.standard_normal((4, S)) + 1j * rng.standard_normal((4, S))
        synth = (kern.synthesize(a), a @ dense_synth(kern))
        mf = (matched_filter(kern, r), r @ dense_mf(kern))
        for fast, dense in (synth, mf):
            assert np.abs(fast - dense).max() <= 1e-11 * np.abs(dense).max()

    @pytest.mark.parametrize("N", [8, 64, 512])
    @pytest.mark.parametrize("family", sorted(FAMILIES) + sorted(SETS))
    def test_toeplitz_gram_matches_dense(self, N, family):
        kern = ModemKernel(cfg_for(N=N, pulse=PULSES[family]))
        assert np.abs(kern.gram - dense_gram(kern)).max() < 1e-12

    @pytest.mark.parametrize("N", [3, 16, 64, 256])
    @pytest.mark.parametrize("family", ["rect", "sine1"] + sorted(SETS))
    def test_fft_stages_independent_of_batch(self, N, family):
        kern = ModemKernel(cfg_for(N=N, pulse=PULSES[family]))
        rng = np.random.default_rng(N)
        a = rng.standard_normal((64, N)) + 1j * rng.standard_normal((64, N))
        s = kern.synthesize(a)
        y = matched_filter(kern, s)
        for rows in (1, 3, 5, 7):
            for lo in range(0, 64, rows):
                assert np.array_equal(kern.synthesize(a[lo : lo + rows]), s[lo : lo + rows])
                assert np.array_equal(matched_filter(kern, s[lo : lo + rows]), y[lo : lo + rows])

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_gram_column_is_the_unpadded_dft_of_p2(self, family):
        kern = ModemKernel(cfg_for(N=64, pulse=FAMILIES[family]))
        p = kern.samples[0]
        c = np.fft.fft(p**2) * (kern.dt / kern.energies[0])
        k = np.arange(64)  # G[k, 0] = c[k], G[0, k] = c[-k mod S], symmetrized
        assert np.array_equal(kern.gram[:, 0], 0.5 * (c[k] + c[-k % c.size].conj()))

    @pytest.mark.parametrize("pulse_set", [(SINE1,), (RECT, SINE1, TAPERED)], ids=["P1", "P3"])
    def test_kernel_holds_each_pulse_once_read_only(self, pulse_set):
        cfg = cfg_for(N=8, pulse=pulse_set)
        kern = get_kernel(cfg)
        assert kern.samples.shape == (len(pulse_set), 32)
        assert not kern.samples.flags.writeable
        for row, desc in zip(kern.samples, pulse_set):
            assert np.array_equal(row, sample_pulse(desc, cfg.samples_per_symbol))

    def test_pulse_set_gram_is_not_toeplitz(self):
        # rect-rect and sine2-sine2 at separation 2 differ
        kern = ModemKernel(cfg_for(N=8, pulse=(RECT, SINE2)))
        assert abs(kern.gram[0, 2] - kern.gram[1, 3]) > 0.1


class TestAwgn:
    def test_noiseless_bypass(self):
        cfg = cfg_for(N=4)
        kern = get_kernel(cfg)
        s = random_frames(cfg)[1] @ dense_synth(kern)
        assert add_awgn(s, None, math.inf, cfg.bits_per_frame, kern.dt) is s

    def test_seed_determinism(self):
        # the noise is a pure function of the frame's seeded substream
        cfg = cfg_for(N=4)
        kern = get_kernel(cfg)
        s = random_frames(cfg)[1] @ dense_synth(kern)
        S = cfg.samples_per_symbol

        def received(key):
            z = seeding.uniforms_to_normals(seeding.trial_uniforms(key, 0, len(s), 2 * S))
            return add_awgn(s, z, 5.0, cfg.bits_per_frame, kern.dt)

        assert np.array_equal(received(42), received(42))
        assert not np.allclose(received(42), received(43))

    def test_noise_variance_calibration(self):
        frames, S = 100, 10_000
        dt = 1.0 / 256
        s = np.ones((frames, S), complex)
        z = np.random.default_rng(9).standard_normal((frames, 2 * S))
        frame_bits = 128
        ebn0_db = 3.0
        noise = add_awgn(s, z, ebn0_db, frame_bits, dt) - s
        eb = S * dt / frame_bits
        n0 = eb * 10 ** (-ebn0_db / 10)
        measured = np.var(noise)
        assert measured == pytest.approx(n0 / dt, rel=0.01)


class TestReceiver:
    def test_rect_matched_filter_recovers_symbols(self):
        cfg = cfg_for(N=8)
        kern = get_kernel(cfg)
        _, a = random_frames(cfg, seed=5)
        assert np.allclose(a @ dense_synth(kern) @ dense_mf(kern), a, atol=1e-9)

    def test_shaped_matched_filter_is_gram_times_symbols(self):
        cfg = cfg_for(N=8, pulse=SINE1)
        kern = get_kernel(cfg)
        _, a = random_frames(cfg, seed=6)
        y = a @ dense_synth(kern) @ dense_mf(kern)
        oracle = (gram(cfg) @ a.T).T
        assert np.allclose(y, oracle, atol=1e-9)

    def test_linearity(self):
        cfg = cfg_for(N=8, pulse=SINE1)
        kern = get_kernel(cfg)
        synth, mf = dense_synth(kern), dense_mf(kern)
        s1 = random_frames(cfg, seed=7)[1] @ synth
        s2 = random_frames(cfg, seed=8)[1] @ synth
        lhs = (s1 + s2) @ mf
        rhs = s1 @ mf + s2 @ mf
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_zf_identity(self):
        y = np.arange(8, dtype=complex).reshape(2, 4)
        assert np.allclose(solve_zf(get_kernel(cfg_for(N=4)), y), y)

    def test_zf_roundtrip(self):
        cfg = cfg_for(N=8, pulse=SINE1)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        a_hat = solve_zf(get_kernel(cfg), (gram(cfg) @ a.T).T)
        assert np.allclose(a_hat, a, atol=1e-8)

    @pytest.mark.parametrize("N,other", [(8, SINE1), (16, SINE2)])
    def test_noiseless_roundtrip_with_unequal_energies(self, N, other):
        # rect alternating with a sine pulse of lower energy: ZF must undo
        # the matched filter's per-subcarrier 1/e_k, not just G
        kern = get_kernel(cfg_for(N=N, pulse=(RECT, other)))
        assert np.ptp(kern.energies) > 0.1
        rng = np.random.default_rng(N)
        a = rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N))
        a_hat = solve_zf(kern, matched_filter(kern, kern.synthesize(a)))
        assert np.abs(a_hat - a).max() < 1e-10

    def test_rect_gram_is_exactly_identity(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a rect kernel needs no dense linear algebra")

        monkeypatch.setattr(np.linalg, "inv", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        flat = [
            cfg_for(N=48, M=8),
            # the FFT-built Gram matrices of these two miss the identity by about 3e-17
            cfg_for(N=7, M=16),
            cfg_for(N=13, M=16),
            cfg_for(N=10, pulse=(RECT, RECT)),
            cfg_for(N=12, pulse=SINE0),
            cfg_for(N=9, pulse=TAPERED0, L=5),
        ]
        get_kernel.cache_clear()
        for cfg in flat:
            kern = get_kernel(cfg)
            assert "noise_colour" not in kern.__dict__
            harness.run_ber_point(cfg, 6.0, target_errors=5, max_frames=100, seed=1)
            assert modem.zf_noise_enhancement_db(cfg) == 0.0
            assert "noise_colour" in kern.__dict__
            assert "gram" not in kern.__dict__
            assert kern.gram_condition == 1.0
            assert np.array_equal(kern.noise_colour, 1.0 / np.sqrt(kern.energies))
            y = np.arange(2 * cfg.n_subcarriers, dtype=complex).reshape(2, -1)
            assert solve_zf(kern, y) is y

    def test_identity_decided_by_flat_pulses(self):
        # oracle: the Gram matrix a flat kernel never needs is the identity
        # to within rounding, and no non-flat pulse is taken for flat
        eye_tol = 4 * np.finfo(float).eps
        for N, L in itertools.product(range(1, 130), (4, 5, 6, 7, 8, 13)):
            kern = ModemKernel(cfg_for(N=N, L=L))
            assert kern.gram_is_identity and "gram" not in kern.__dict__
            assert np.abs(kern.gram - np.eye(N)).max() <= eye_tol, (N, L)
            # flat by their samples, not by their family
            for pulse in (SINE0, TAPERED0):
                kern = ModemKernel(cfg_for(N=N, pulse=pulse, L=L))
                assert kern.gram_is_identity and "gram" not in kern.__dict__, (pulse, N, L)
            shaped = [SINE1, TAPERED, TSINC] + ([(RECT, SINE2)] if N > 1 else [])
            for pulse in shaped:
                assert not ModemKernel(cfg_for(N=N, pulse=pulse, L=L)).gram_is_identity, (N, L)

    def test_singular_gram_rejected(self):
        # nearly time-disjoint narrow pulses: a numerically singular Gram matrix
        narrow = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=400)
        kern = get_kernel(cfg_for(N=16, pulse=narrow))
        with pytest.raises(ConfigError, match="^gram matrix condition "):
            solve_zf(kern, np.ones((1, 16), complex))
        with pytest.raises(ConfigError, match="^gram matrix condition "):
            kern.noise_colour

    def test_error_names_the_limit_in_force(self, monkeypatch):
        monkeypatch.setattr(modem, "GRAM_CONDITION_LIMIT", 50.0)
        kern = ModemKernel(cfg_for(N=16, pulse=SINE1))  # condition 116, under the shipped limit
        with pytest.raises(ConfigError, match=r"condition 1\.16\de\+02 exceeds 50$"):
            kern.noise_colour


class TestSymbolDomain:
    """The two facts the symbol-domain BER frame rests on, checked on the
    waveform: the frame energy is a quadratic form in the symbols, and the
    ZF output noise has covariance N0 E^-1/2 G^-1 E^-1/2 = N0 L L^H."""

    @staticmethod
    def zf_covariance(kern):
        e = kern.energies
        return np.linalg.inv(kern.gram) / np.sqrt(np.outer(e, e))

    @pytest.mark.parametrize("N", [8, 64])
    @pytest.mark.parametrize("name", sorted(ENGINE_PULSES))
    def test_frame_energy_is_the_waveform_energy(self, N, name):
        kern = ModemKernel(cfg_for(N=N, M=32, pulse=ENGINE_PULSES[name]))
        _, a = random_frames(kern.cfg, seed=N, frames=16)
        energy = np.sum(np.abs(kern.synthesize(a)) ** 2, axis=1) * kern.dt
        assert np.allclose(kern.frame_energy(a), energy, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("N", [8, 64])
    @pytest.mark.parametrize("name", sorted(ENGINE_PULSES))
    def test_noise_colour_factors_the_zf_covariance(self, N, name):
        kern = ModemKernel(cfg_for(N=N, pulse=ENGINE_PULSES[name]))
        L = kern.noise_colour
        llh = np.diag(L**2) if L.ndim == 1 else L @ L.conj().T
        target = self.zf_covariance(kern)
        assert np.abs(llh - target).max() <= 1e-12 * np.abs(target).max()

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("name", ["rect", "sine1"])
    def test_colour_noise_is_the_explicit_product(self, name, rows):
        # bit for bit sqrt(n0 / 2) z L^T, for L the vector and the matrix,
        # and z left as it is; n0 = 0, the noiseless channel, gives zeros
        N = 16
        kern = ModemKernel(cfg_for(N=N, pulse=ENGINE_PULSES[name]))
        rng = np.random.default_rng(rows)
        z = rng.standard_normal((rows, 2 * N)).view(complex)
        L = kern.noise_colour
        coloured = z * L if name == "rect" else z @ L.T
        z_before = z.copy()
        for n0 in (rng.uniform(0.1, 2.0, rows), np.zeros(rows)):
            w = kern.colour_noise(z, n0)
            assert np.array_equal(w, coloured * np.sqrt(n0 / 2.0)[:, None])
            assert np.array_equal(z, z_before)
        assert np.all(w == 0)

    @pytest.mark.parametrize("name", sorted(ENGINE_PULSES))
    def test_waveform_zf_noise_has_that_covariance(self, name):
        N, frames, ebn0_db = 8, 200_000, 10.0
        kern = ModemKernel(cfg_for(N=N, pulse=ENGINE_PULSES[name]))
        _, a = random_frames(kern.cfg, seed=3, frames=1)
        s = np.repeat(kern.synthesize(a), frames // 10, axis=0)  # in ten chunks
        S, nbits = kern.cfg.samples_per_symbol, kern.cfg.bits_per_frame
        rng = np.random.default_rng(7)
        w = np.concatenate([
            solve_zf(kern, matched_filter(kern, add_awgn(
                s, rng.standard_normal((len(s), 2 * S)), ebn0_db, nbits, kern.dt
            ))) - a
            for _ in range(10)
        ])
        n0 = np.sum(np.abs(s[0]) ** 2) * kern.dt / nbits * 10 ** (-ebn0_db / 10)
        target = n0 * self.zf_covariance(kern)
        scale = np.sqrt(np.outer(np.diag(target), np.diag(target))).real
        cov = w.T @ w.conj() / frames  # E[w_k conj(w_l)]
        pseudo = w.T @ w / frames  # E[w_k w_l], zero for circular noise
        assert (np.abs(cov - target) / scale).max() < 0.02
        assert (np.abs(pseudo) / scale).max() < 0.01


class TestEndToEnd:
    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    @pytest.mark.parametrize("pulse", [RECT, SINE1])
    def test_noiseless_identity(self, M, pulse):
        cfg = cfg_for(N=16, M=M, pulse=pulse)
        kern = get_kernel(cfg)
        bits, a = random_frames(cfg, seed=M)
        r = add_awgn(a @ dense_synth(kern), None, math.inf, cfg.bits_per_frame, kern.dt)
        a_hat = solve_zf(kern, r @ dense_mf(kern))
        assert np.array_equal(demap_bits(a_hat, kern.constellation), bits)
