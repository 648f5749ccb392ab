import math

import numpy as np
import pytest

from papr_shaper.errors import (
    ConfigError,
    FramingError,
    IllConditionedGramError,
    UnsupportedOrderError,
)
from papr_shaper.modem import (
    GramMatrix,
    OfdmConfig,
    SampledWaveform,
    SymbolFrame,
    awgn,
    build_constellation,
    demap_symbols,
    equalize,
    get_kernel,
    gram_matrix,
    map_bits,
    matched_filter,
    synthesize,
)
from papr_shaper.pulses import PulseDescriptor, PulseFamily

RECT = PulseDescriptor(family=PulseFamily.RECT)
SINE1 = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=1)


def cfg_for(N=4, M=4, pulse=RECT, L=4):
    return OfdmConfig(n_subcarriers=N, m_order=M, pulse_assignment=pulse, oversample=L)


def random_frame(cfg, seed=0):
    rng = np.random.default_rng(seed)
    c = build_constellation(cfg.m_order)
    bits = rng.integers(0, 2, cfg.bits_per_frame)
    return SymbolFrame(symbols=map_bits(bits, c), source_bits=bits)


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
        cfg = cfg_for(N=1)
        w = synthesize(SymbolFrame(np.array([1.0 + 0j]), np.zeros(2, int)), cfg)
        assert np.allclose(w.samples, 1.0)

    def test_coherent_sum_at_origin(self):
        cfg = cfg_for(N=2)
        w = synthesize(SymbolFrame(np.array([1.0 + 0j, 1.0 + 0j]), np.zeros(4, int)), cfg)
        assert abs(w.samples[0]) == pytest.approx(2.0)

    def test_rect_parseval(self):
        cfg = cfg_for(N=4)
        frame = random_frame(cfg, seed=3)
        w = synthesize(frame, cfg)
        energy = np.sum(np.abs(w.samples) ** 2) * w.dt
        assert energy == pytest.approx(float(np.sum(np.abs(frame.symbols) ** 2)), abs=1e-9)

    def test_length_mismatch(self):
        cfg = cfg_for(N=4)
        with pytest.raises(ConfigError):
            synthesize(SymbolFrame(np.ones(3, complex), np.zeros(6, int)), cfg)

    def test_per_subcarrier_assignment_length_checked(self):
        with pytest.raises(ConfigError):
            OfdmConfig(n_subcarriers=4, m_order=4, pulse_assignment=(RECT, SINE1))


class TestGram:
    def test_rect_identity(self):
        G = gram_matrix(cfg_for(N=8)).entries
        off = G - np.eye(8)
        assert np.max(np.abs(off)) < 1e-10

    def test_sine1_tridiagonal(self):
        G = gram_matrix(cfg_for(N=8, pulse=SINE1)).entries
        assert G[0, 1] == pytest.approx(-0.5, abs=1e-6)
        assert G[3, 2] == pytest.approx(-0.5, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_banded_beyond_n(self, n):
        desc = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=n)
        G = gram_matrix(cfg_for(N=12, pulse=desc, L=8)).entries
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
        G = gram_matrix(cfg_for(N=16, pulse=pulse)).entries
        assert np.allclose(G, G.conj().T, atol=1e-12)
        assert np.allclose(np.diag(G).real, 1.0, atol=1e-9)
        assert np.linalg.eigvalsh(G).min() >= -1e-9

    def test_uniform_assignment_toeplitz(self):
        G = gram_matrix(cfg_for(N=16, pulse=SINE1)).entries
        for d in range(-15, 16):
            diag = np.diagonal(G, offset=d)
            assert np.max(np.abs(diag - diag[0])) < 1e-9

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_condition_matches_svd(self, n):
        desc = PulseDescriptor(family=PulseFamily.SINE_POWER, shape_n=n)
        G = gram_matrix(cfg_for(N=16, pulse=desc))
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
        G = gram_matrix(cfg_for(N=8, pulse=pulses)).entries
        assert np.allclose(np.diag(G).real, 1.0, atol=1e-9)
        assert np.allclose(G, G.conj().T, atol=1e-12)


class TestAwgn:
    def test_noiseless_bypass(self):
        cfg = cfg_for(N=4)
        w = synthesize(random_frame(cfg), cfg)
        out = awgn(w, math.inf, cfg.bits_per_frame, seed=1)
        assert np.array_equal(out.samples, w.samples)

    def test_seed_determinism(self):
        cfg = cfg_for(N=4)
        w = synthesize(random_frame(cfg), cfg)
        a = awgn(w, 5.0, cfg.bits_per_frame, seed=42)
        b = awgn(w, 5.0, cfg.bits_per_frame, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_noise_variance_calibration(self):
        n_samples = 1_000_000
        dt = 1.0 / 256
        w = SampledWaveform(samples=np.ones(n_samples, complex), dt=dt)
        frame_bits = 128
        ebn0_db = 3.0
        out = awgn(w, ebn0_db, frame_bits, seed=9)
        noise = out.samples - w.samples
        eb = n_samples * dt / frame_bits
        n0 = eb * 10 ** (-ebn0_db / 10)
        measured = np.var(noise)
        assert measured == pytest.approx(n0 / dt, rel=0.01)


class TestReceiver:
    def test_rect_matched_filter_recovers_symbols(self):
        cfg = cfg_for(N=8)
        frame = random_frame(cfg, seed=5)
        y = matched_filter(synthesize(frame, cfg), cfg)
        assert np.allclose(y, frame.symbols, atol=1e-9)

    def test_shaped_matched_filter_is_gram_times_symbols(self):
        cfg = cfg_for(N=8, pulse=SINE1)
        frame = random_frame(cfg, seed=6)
        y = matched_filter(synthesize(frame, cfg), cfg)
        oracle = gram_matrix(cfg).entries @ frame.symbols
        assert np.allclose(y, oracle, atol=1e-9)

    def test_linearity(self):
        cfg = cfg_for(N=8, pulse=SINE1)
        w1 = synthesize(random_frame(cfg, seed=7), cfg)
        w2 = synthesize(random_frame(cfg, seed=8), cfg)
        both = SampledWaveform(w1.samples + w2.samples, w1.dt)
        lhs = matched_filter(both, cfg)
        rhs = matched_filter(w1, cfg) + matched_filter(w2, cfg)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_grid_mismatch(self):
        cfg = cfg_for(N=8)
        with pytest.raises(ConfigError):
            matched_filter(SampledWaveform(np.ones(7, complex), 1 / 7), cfg)

    def test_equalize_identity(self):
        G = GramMatrix(np.eye(4, dtype=complex))
        y = np.arange(4, dtype=complex)
        assert np.allclose(equalize(y, G), y)

    def test_equalize_roundtrip(self):
        cfg = cfg_for(N=8, pulse=SINE1)
        G = gram_matrix(cfg)
        rng = np.random.default_rng(11)
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a_hat = equalize(G.entries @ a, G)
        assert np.allclose(a_hat, a, atol=1e-8)

    def test_singular_gram_rejected(self):
        # duplicated subcarrier: two identical rows of correlations
        G = GramMatrix(np.ones((2, 2), dtype=complex))
        with pytest.raises(IllConditionedGramError):
            equalize(np.ones(2, complex), G)


class TestEndToEnd:
    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    @pytest.mark.parametrize("pulse", [RECT, SINE1])
    def test_noiseless_identity(self, M, pulse):
        cfg = cfg_for(N=16, M=M, pulse=pulse)
        c = build_constellation(M)
        frame = random_frame(cfg, seed=M)
        w = synthesize(frame, cfg)
        y = matched_filter(w, cfg)
        a_hat = equalize(y, gram_matrix(cfg))
        assert np.array_equal(demap_symbols(a_hat, c), frame.source_bits)
