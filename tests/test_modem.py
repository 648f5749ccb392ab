import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papr_shaper import seeding
from papr_shaper.errors import (
    ConfigError,
    FramingError,
    IllConditionedGramError,
    UnsupportedOrderError,
)
from papr_shaper.modem import (
    GramMatrix,
    OfdmConfig,
    add_awgn,
    build_constellation,
    demap_symbols,
    get_kernel,
    map_bits,
)
from papr_shaper.pulses import PulseDescriptor, PulseFamily

RECT = PulseDescriptor(family=PulseFamily.RECT)
SINE1 = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=1)


def cfg_for(N=4, M=4, pulse=RECT, L=4):
    return OfdmConfig(n_subcarriers=N, m_order=M, pulse_assignment=pulse, oversample=L)


def random_frames(cfg, seed=0, frames=3):
    """(bits, symbols) of a batch of random frames."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (frames, cfg.bits_per_frame))
    return bits, map_bits(bits, build_constellation(cfg.m_order))


def gram(cfg):
    return get_kernel(cfg).gram.entries


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
        assert len(np.unique(c.labels)) == M

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
        with pytest.raises(UnsupportedOrderError):
            build_constellation(64)


class TestMapDemap:
    def test_repeated_symbol(self):
        c = build_constellation(4)
        out = map_bits(np.zeros(4, dtype=int), c)
        assert np.allclose(out, (1 + 1j) / math.sqrt(2))

    def test_empty(self):
        c = build_constellation(4)
        assert map_bits(np.array([], dtype=int), c).size == 0

    def test_framing_error(self):
        c = build_constellation(16)
        with pytest.raises(FramingError):
            map_bits(np.zeros(6, dtype=int), c)

    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_roundtrip(self, M):
        c = build_constellation(M)
        rng = np.random.default_rng(M)
        k = c.bits_per_symbol
        bits = rng.integers(0, 2, 10_000 * k)
        assert np.array_equal(demap_symbols(map_bits(bits, c), c), bits)

    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_exact_points_demap_to_own_labels(self, M):
        c = build_constellation(M)
        k = c.bits_per_symbol
        bits = demap_symbols(c.points, c)
        values = bits.reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))
        assert np.array_equal(values, c.labels)

    def test_tie_break_lowest_index(self):
        c = build_constellation(4)
        assert np.array_equal(demap_symbols(np.array([0j]), c), [0, 0])

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
        assert np.array_equal(demap_symbols(symbols, c), bits)

    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_perturbation_below_half_min_distance(self, M):
        c = build_constellation(M)
        d = np.abs(c.points[:, None] - c.points[None, :])
        np.fill_diagonal(d, np.inf)
        eps = 0.49 * d.min()
        noisy = c.points + eps * np.exp(1j * np.linspace(0, 2 * np.pi, M, endpoint=False))
        assert np.array_equal(demap_symbols(noisy, c), demap_symbols(c.points, c))


class TestSynthesize:
    def test_single_dc_carrier(self):
        s = np.array([[1.0 + 0j]]) @ get_kernel(cfg_for(N=1)).synth
        assert np.allclose(s, 1.0)

    def test_coherent_sum_at_origin(self):
        s = np.array([[1.0 + 0j, 1.0 + 0j]]) @ get_kernel(cfg_for(N=2)).synth
        assert abs(s[0, 0]) == pytest.approx(2.0)

    def test_rect_parseval(self):
        cfg = cfg_for(N=4)
        kern = get_kernel(cfg)
        _, a = random_frames(cfg, seed=3)
        energy = np.sum(np.abs(a @ kern.synth) ** 2, axis=1) * kern.dt
        assert np.allclose(energy, np.sum(np.abs(a) ** 2, axis=1), atol=1e-9)

    def test_per_subcarrier_assignment_length_checked(self):
        with pytest.raises(ConfigError):
            OfdmConfig(n_subcarriers=4, m_order=4, pulse_assignment=(RECT, SINE1))


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
            PulseDescriptor(family=PulseFamily.TAPERED_FLAT_TOP, taper_alpha=0.5),
            PulseDescriptor(family=PulseFamily.TRUNCATED_SINC, bandwidth_factor=2.0),
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
        G = get_kernel(cfg_for(N=16, pulse=desc)).gram
        assert G.condition == pytest.approx(np.linalg.cond(G.entries), rel=1e-6)

    def test_condition_of_singular_is_infinite(self):
        assert GramMatrix(np.zeros((2, 2), dtype=complex)).condition == math.inf
        assert GramMatrix(np.ones((2, 2), dtype=complex)).condition > 1e8

    def test_cached_inverse(self):
        kern = get_kernel(cfg_for(N=8, pulse=SINE1))
        assert np.allclose(kern.gram_inv @ kern.gram.entries, np.eye(8), atol=1e-9)
        assert kern.gram_inv is kern.gram_inv

    def test_mixed_assignment(self):
        pulses = tuple(
            SINE1 if k % 2 else RECT for k in range(8)
        )
        G = gram(cfg_for(N=8, pulse=pulses))
        assert np.allclose(np.diag(G).real, 1.0, atol=1e-9)
        assert np.allclose(G, G.conj().T, atol=1e-12)


class TestAwgn:
    def test_noiseless_bypass(self):
        cfg = cfg_for(N=4)
        kern = get_kernel(cfg)
        s = random_frames(cfg)[1] @ kern.synth
        assert add_awgn(s, None, math.inf, cfg.bits_per_frame, kern.dt) is s

    def test_seed_determinism(self):
        # the noise is a pure function of the frame's seeded substream
        cfg = cfg_for(N=4)
        kern = get_kernel(cfg)
        s = random_frames(cfg)[1] @ kern.synth
        S = cfg.samples_per_symbol

        def received(key):
            u = seeding.trial_uniforms(key, 0, len(s), seeding.words_per_trial(2 * S))
            z = seeding.uniforms_to_normals(u[:, : 2 * S])
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
        assert np.allclose(a @ kern.synth @ kern.mf, a, atol=1e-9)

    def test_shaped_matched_filter_is_gram_times_symbols(self):
        cfg = cfg_for(N=8, pulse=SINE1)
        kern = get_kernel(cfg)
        _, a = random_frames(cfg, seed=6)
        y = a @ kern.synth @ kern.mf
        oracle = (gram(cfg) @ a.T).T
        assert np.allclose(y, oracle, atol=1e-9)

    def test_linearity(self):
        cfg = cfg_for(N=8, pulse=SINE1)
        kern = get_kernel(cfg)
        s1 = random_frames(cfg, seed=7)[1] @ kern.synth
        s2 = random_frames(cfg, seed=8)[1] @ kern.synth
        lhs = (s1 + s2) @ kern.mf
        rhs = s1 @ kern.mf + s2 @ kern.mf
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_zf_identity(self):
        y = np.arange(8, dtype=complex).reshape(2, 4)
        assert np.allclose(get_kernel(cfg_for(N=4)).solve_zf(y), y)

    def test_zf_roundtrip(self):
        cfg = cfg_for(N=8, pulse=SINE1)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        a_hat = get_kernel(cfg).solve_zf((gram(cfg) @ a.T).T)
        assert np.allclose(a_hat, a, atol=1e-8)

    def test_singular_gram_rejected(self):
        # nearly time-disjoint narrow pulses: a numerically singular Gram matrix
        narrow = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=400)
        kern = get_kernel(cfg_for(N=16, pulse=narrow))
        with pytest.raises(IllConditionedGramError):
            kern.solve_zf(np.ones((1, 16), complex))


class TestEndToEnd:
    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    @pytest.mark.parametrize("pulse", [RECT, SINE1])
    def test_noiseless_identity(self, M, pulse):
        cfg = cfg_for(N=16, M=M, pulse=pulse)
        kern = get_kernel(cfg)
        bits, a = random_frames(cfg, seed=M)
        r = add_awgn(a @ kern.synth, None, math.inf, cfg.bits_per_frame, kern.dt)
        a_hat = kern.solve_zf(r @ kern.mf)
        assert np.array_equal(demap_symbols(a_hat, kern.constellation), bits)
