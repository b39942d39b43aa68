import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from renyi_rearrange import (
    BadParameter,
    DensityGeneratorSpec,
    SpacingMismatch,
    convolve,
    convolve_k,
    gaussian_on_grid,
    l1_distance,
    make_grid,
    moment,
    project_onto,
    random_density,
    renyi_entropy,
    resample,
    scale_density,
    uniform_interval,
    variance,
)


class TestConvolve:
    def test_mass_multiplies(self):
        f = random_density(DensityGeneratorSpec(kind="uniform-mixture", seed=1, cells=96))
        g = random_density(DensityGeneratorSpec(kind="bimodal", seed=2, cells=96))
        h = convolve(f, g)
        assert h.mass == pytest.approx(f.mass * g.mass, rel=1e-12)
        assert h.n_cells == f.n_cells + g.n_cells - 1

    def test_support_additivity_exact(self):
        # supports [0,1] and [0,2]; the grid convolution spans one cell
        # less than the continuum sum of lengths
        f = uniform_interval(0.0, 1.0, cells=64)
        g = uniform_interval(0.0, 2.0, cells=128)
        h = convolve(f, g)
        assert h.support_measure == pytest.approx(
            f.support_measure + g.support_measure - h.dx, abs=1e-12)

    def test_direct_vs_fft(self):
        for seed in range(6):
            f = random_density(DensityGeneratorSpec(kind="spiky-piecewise",
                                                    seed=seed, cells=300))
            g = random_density(DensityGeneratorSpec(kind="uniform-mixture",
                                                    seed=seed + 50, cells=300))
            hd = convolve(f, g, method="direct")
            hf = convolve(f, g, method="fft")
            assert l1_distance(hd, hf) < 1e-10

    def test_centered_inputs_stay_centered(self):
        f = uniform_interval(-1.0, 1.0, cells=80)
        g = uniform_interval(-0.5, 0.5, cells=40)
        h = convolve(f, g)
        assert h.x0 == pytest.approx(-(h.n_cells * h.dx) / 2.0, abs=1e-12)
        assert_allclose(h.values, h.values[::-1], atol=1e-13)

    def test_spacing_mismatch(self):
        f = uniform_interval(0.0, 1.0, cells=10)
        g = uniform_interval(0.0, 1.0, cells=20)
        with pytest.raises(SpacingMismatch):
            convolve(f, g)

    def test_point_mass_translates(self):
        # convolving with a single-cell spike shifts f by the spike's
        # midpoint, exactly, cell for cell
        f = make_grid(0.0, 0.5, [1.0, 3.0, 2.0, 2.0])
        spike = make_grid(2.0, 0.5, [2.0])  # unit mass at x = 2.25
        h = convolve(f, spike)
        assert np.array_equal(h.values, f.values)
        assert h.x0 == pytest.approx(f.x0 + 2.25, abs=1e-12)


def _gapped_values(rng, n):
    """Random cell values with zero runs, so the support has gaps to keep."""
    vals = rng.random(n)
    vals[rng.random(n) < 0.3] = 0.0
    return vals


def _hull(f):
    """First and one-past-last index of f's positive cells."""
    pos = np.flatnonzero(f.values > 0.0)
    return pos[0], pos[-1] + 1


_RNG_SIZES = np.random.default_rng(20).integers(1, 20000, size=(8, 2))
_SIZE_PAIRS = [
    (2048, 4095), (4095, 2048), (8192, 8192), (512, 8192),
    (4099, 4111), (7919, 1031), (1, 5003), (5003, 1), (2, 3),
    *[tuple(int(v) for v in pair) for pair in _RNG_SIZES]]


def _gapped_pair(n, m, dx=0.01):
    rng = np.random.default_rng(n * 100003 + m)
    return make_grid(-1.0, dx, _gapped_values(rng, n)), make_grid(0.5, dx, _gapped_values(rng, m))


class TestFftKernel:
    """The numpy rfft kernel against scipy.signal.fftconvolve of the two
    hulls (first to last positive cell): same lengths, same transforms, so
    the same bits on the exact support, and exact zeros off it."""

    @pytest.mark.parametrize("n, m", _SIZE_PAIRS)
    def test_bitwise_equal_to_scipy(self, n, m):
        f, g = _gapped_pair(n, m)
        dx = f.dx
        (a0, a1), (b0, b1) = _hull(f), _hull(g)
        hull_w = fftconvolve(f.values[a0:a1] * dx, g.values[b0:b1] * dx)
        w = np.zeros(n + m - 1)
        w[a0 + b0:a0 + b0 + hull_w.size] = hull_w
        support = np.convolve(f.values > 0.0, g.values > 0.0)
        # cells the FFT could not resolve hold the smallest normal float
        tiny = np.finfo(float).tiny
        expected = np.where(support, np.maximum(w, tiny), 0.0) / dx
        h = convolve(f, g, method="fft")
        assert np.array_equal(h.values, expected)
        assert not h.values[~support].any()

    @pytest.mark.parametrize("n", [2048, 4099, 8192])
    def test_self_convolution_bitwise_equal_to_scipy(self, n):
        # f with itself takes one transform, squared: the bits of two
        # transforms of equal arrays multiplied
        f, _ = _gapped_pair(n, n)
        dx = f.dx
        a0, a1 = _hull(f)
        hull_w = fftconvolve(f.values[a0:a1] * dx, f.values[a0:a1] * dx)
        w = np.zeros(2 * n - 1)
        w[2 * a0:2 * a0 + hull_w.size] = hull_w
        support = np.convolve(f.values > 0.0, f.values > 0.0)
        expected = np.where(support, np.maximum(w, np.finfo(float).tiny), 0.0) / dx
        assert np.array_equal(convolve(f, f, method="fft").values, expected)

    def test_one_forward_transform_call_per_convolution(self, fft_calls):
        # the two factors take one batched rfft call, f with itself one
        # unbatched call; a gapped pair's indicator sum set takes one more
        dx = 24.0 / 4096
        f = gaussian_on_grid(0.0, 1.0, -12.0, dx, 4096)
        g = gaussian_on_grid(0.5, 0.7, -12.0, dx, 4096)
        for a, b in ((f, g), (f, f)):
            fft_calls.clear()
            convolve(a, b)
            assert fft_calls == {"rfft": 1, "irfft": 1}
        f, g = _gapped_pair(8192, 8192)
        fft_calls.clear()
        convolve(f, g)
        assert fft_calls == {"rfft": 2, "irfft": 2}

    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("n, m", _SIZE_PAIRS)
    def test_support_is_the_indicator_sum_set(self, n, m, method):
        f, g = _gapped_pair(n, m)
        h = convolve(f, g, method=method)
        assert np.array_equal(h.values > 0.0, np.convolve(f.values > 0.0, g.values > 0.0))

    @pytest.mark.parametrize("method", ["direct", "fft"])
    def test_underflowing_products_keep_their_support(self, method):
        # sampled out to 40 sigma the tails reach 1e-300 before they
        # underflow to 0, so products of two tail cells fall below the
        # float range; their cells still belong to the support
        gauss = gaussian_on_grid(0.0, 1.0, -40.0, 80.0 / 1024, 1024)
        h = convolve(gauss, gauss, method=method)
        assert np.array_equal(h.values > 0.0,
                              np.convolve(gauss.values > 0.0, gauss.values > 0.0))

    def test_sizes_exercise_both_support_rules(self):
        # merged run-pair sums serve few runs, the indicator FFT many; the
        # size pairs above must reach both
        from renyi_rearrange.convolve import _runs
        many = []
        for n, m in _SIZE_PAIRS:
            f, g = _gapped_pair(n, m)
            many.append(_runs(f.values)[0].size * _runs(g.values)[0].size > n + m - 1)
        assert any(many) and not all(many)

    def test_gaussian_tails_keep_their_support(self):
        # sampled out to 12 sigma the tails are exp(-72) of the peak, far
        # below FFT resolution, yet every output cell is positive
        dx = 24.0 / 2048
        gauss = gaussian_on_grid(0.0, 1.0, -12.0, dx, 2048)
        h = convolve(gauss, gauss, method="fft")
        assert h.values.min() > 0.0
        assert renyi_entropy(h, 0.0) == pytest.approx(math.log(4095 * dx), abs=1e-12)

    def test_fast_len_is_next_fast_len(self):
        from renyi_rearrange.convolve import _fast_len
        mismatches = [n for n in range(1, 200_001) if _fast_len(n) != next_fast_len(n, True)]
        assert mismatches == []


class TestIrwinHall:
    def test_triangle_entropy(self):
        # unif[-1/2,1/2] twice: triangle on [-1,1], h = 1/2
        f = uniform_interval(-0.5, 0.5, cells=512)
        h2 = convolve(f, f)
        assert renyi_entropy(h2, 1.0) == pytest.approx(0.5, abs=1e-5)
        assert h2.max_value == pytest.approx(1.0, abs=1e-12)

    def test_three_fold_peak(self):
        # the three-fold convolution of unif[0,1] peaks at 3/4
        f = uniform_interval(0.0, 1.0, cells=256)
        h3 = convolve_k([f, f, f])
        assert h3.max_value == pytest.approx(0.75, abs=1e-4)
        assert h3.mass == pytest.approx(1.0, rel=1e-12)
        # mean and variance add: 3/2 and 3/12
        assert moment(h3, 1) == pytest.approx(1.5, abs=1e-3)
        assert variance(h3) == pytest.approx(0.25, abs=1e-3)

    def test_convolve_k_validates(self):
        with pytest.raises(BadParameter):
            convolve_k([])


class TestScale:
    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0, math.inf])
    def test_entropy_shift(self, p):
        f = random_density(DensityGeneratorSpec(kind="gaussian-mixture", seed=7,
                                                cells=256))
        s = 2.5
        g = scale_density(f, s)
        assert renyi_entropy(g, p) == pytest.approx(
            renyi_entropy(f, p) + math.log(s), abs=1e-11)
        assert variance(g) == pytest.approx(s * s * variance(f), rel=1e-12)

    def test_rejects_nonpositive(self):
        f = uniform_interval(0.0, 1.0, cells=8)
        with pytest.raises(BadParameter):
            scale_density(f, 0.0)
        with pytest.raises(BadParameter):
            scale_density(f, -1.0)


class TestProjectAndResample:
    def test_project_onto_own_grid_is_identity(self):
        f = random_density(DensityGeneratorSpec(kind="bimodal", seed=4, cells=120))
        g = project_onto(f, f.x0, f.dx, f.n_cells)
        assert_allclose(g.values, f.values, atol=1e-14)

    def test_projection_preserves_mass_on_cover(self):
        f = random_density(DensityGeneratorSpec(kind="uniform-mixture", seed=8,
                                                cells=120))
        g = project_onto(f, f.x0 - 1.0, f.dx * 0.7, int(f.n_cells / 0.7) + 4)
        assert g.mass == pytest.approx(f.mass, rel=1e-12)

    def test_resample_refine_then_coarsen(self):
        f = random_density(DensityGeneratorSpec(kind="uniform-mixture", seed=3,
                                                cells=64))
        fine = resample(f, f.dx / 2.0)
        back = resample(fine, f.dx)
        assert back.n_cells == f.n_cells
        assert_allclose(back.values, f.values, atol=1e-12)
        assert fine.mass == pytest.approx(f.mass, rel=1e-13)
