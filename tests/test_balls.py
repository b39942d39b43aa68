import math

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import beta as beta_fn

import renyi_rearrange.balls as balls
from renyi_rearrange import (
    BadParameter,
    BallPair,
    DensityOverflow,
    InaccurateResult,
    NotIndicator,
    ball_sum_entropy,
    ball_sum_log_radial,
    ball_sum_radial,
    brunn_minkowski_check,
    convolve,
    gaussian_on_grid,
    make_grid,
    renyi_entropy,
    uniform_interval,
    epi_gap_balls,
    log_cap_integral,
)


def _cap(theta, n):
    """The cap integral h(theta) itself."""
    return math.exp(log_cap_integral(theta, n))


def _unit_ball_volume(n):
    """V_n = pi^(n/2) / Gamma(n/2 + 1), the closed form as the oracle."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


class TestLogUnitBallVolume:
    def test_unit_ball_volume_against_recursive_slices(self):
        # V_n = V_{n-1} * int_{-1}^{1} (1 - t^2)^{(n-1)/2} dt, integrated
        # numerically, against the closed form pi^{n/2} / Gamma(n/2 + 1)
        v = 1.0
        for n in range(1, 9):
            slice_integral, _ = integrate.quad(
                lambda t, k=n: (1.0 - t * t) ** ((k - 1) / 2.0), -1.0, 1.0)
            v = v * slice_integral
            closed = _unit_ball_volume(n)
            assert math.exp(balls.log_unit_ball_volume(n)) == pytest.approx(closed, rel=1e-12)
            assert v == pytest.approx(closed, rel=1e-10)


class TestCapIntegral:
    def test_dim1_closed_form(self):
        # int_theta^{pi/2} cos t dt = 1 - sin(theta)
        for theta in (-math.pi / 2, -0.4, 0.0, 0.3, 1.2, math.pi / 2):
            assert _cap(theta, 1) == pytest.approx(1.0 - math.sin(theta), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 1024, 4096])
    def test_incomplete_beta_cross_check(self, n):
        # independent oracle: mpmath's regularized incomplete Beta function,
        # h(theta) = B/2 I_{cos^2 theta}((n+1)/2, 1/2) and h(-t) = B - h(t);
        # at n = 4096, theta = 1.2 the value is below the double range
        with mpmath.workdps(40):
            a, half = mpmath.mpf(n + 1) / 2, mpmath.mpf(1) / 2
            full = mpmath.beta(a, half)
            for theta in (-0.4, 0.05, 0.785, 1.2):
                t = mpmath.mpf(abs(theta))
                h = full / 2 * mpmath.betainc(a, half, 0, mpmath.cos(t) ** 2,
                                              regularized=True)
                expected = float(mpmath.log(h if theta >= 0 else full - h))
                assert log_cap_integral(theta, n) == pytest.approx(expected, rel=1e-12)

    def test_matches_direct_quadrature(self):
        # the substitution itself, checked against the defining integral
        with mpmath.workdps(30):
            for n in (2, 8, 33):
                for theta in (-1.0, 0.0, 0.6, 1.4):
                    direct = mpmath.quad(lambda x: mpmath.cos(x) ** n,
                                         [theta, mpmath.pi / 2])
                    assert _cap(theta, n) == pytest.approx(float(direct), rel=1e-13)

    def test_finite_where_the_cap_underflows(self):
        # cos^4096(pi/4) = 2^-2048: h is far below the smallest double
        assert _cap(math.pi / 4, 4096) == 0.0
        log_h = log_cap_integral(math.pi / 4, 4096)
        assert -2048 * math.log(2.0) - 10.0 < log_h < -2048 * math.log(2.0)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_reflection_identity(self, n):
        # h(theta) + h(-theta) equals the full integral over [-pi/2, pi/2]
        full = beta_fn(0.5, (n + 1) / 2.0)
        for theta in (0.1, 0.5, 1.0):
            assert _cap(theta, n) + _cap(-theta, n) == pytest.approx(full, abs=1e-10)

    def test_scalar_cap_is_exp_of_log(self):
        # balls.cap_integral is kept only as a name that benchmark traces read
        for theta in (-0.4, 0.0, 0.785):
            assert balls.cap_integral(theta, 3) == _cap(theta, 3)

    def test_domain_guard(self):
        with pytest.raises(BadParameter):
            _cap(2.0, 1)
        with pytest.raises(BadParameter, match="got 2.0"):
            log_cap_integral(np.array([0.1, 2.0, -0.3]), 3)
        with pytest.raises(BadParameter):
            log_cap_integral(np.array([0.1, math.nan]), 3)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1024, 4096])
    def test_array_matches_scalar_bitwise(self, n):
        # one betainc call and one vectorized continued fraction for the
        # array give every element the bits of its scalar call, on both
        # sides of the underflow switch and of theta = 0
        rng = np.random.default_rng(n)
        thetas = np.concatenate((rng.uniform(-math.pi / 2, math.pi / 2, 300),
                                 [0.0, 1e-300, 0.785, 1.2, math.pi / 2, -math.pi / 2]))
        values = log_cap_integral(thetas, n)
        assert isinstance(values, np.ndarray) and values.shape == thetas.shape
        scalars = np.array([log_cap_integral(float(t), n) for t in thetas])
        assert isinstance(log_cap_integral(0.3, n), float)
        assert np.array_equal(values.view(np.int64), scalars.view(np.int64))
        grid = log_cap_integral(thetas[:300].reshape(20, 15), n)
        assert np.array_equal(grid.ravel().view(np.int64), scalars[:300].view(np.int64))

    def test_continued_fraction_that_does_not_converge_raises(self, monkeypatch):
        # cos^4096(pi/4) underflows, so the continued fraction runs; cut
        # after one term it cannot converge and must not return a value
        monkeypatch.setattr(balls, "_CF_MAX_TERMS", 1)
        with pytest.raises(InaccurateResult, match="did not converge"):
            log_cap_integral(np.array([0.1, math.pi / 4, 1.2]), 4096)

    def test_asin_guard(self):
        # roundoff past +-1 is clamped; anything beyond the guard raises
        clamped = balls._clamped_asin(np.array([1.0 + 1e-13, -1.0 - 1e-13, 0.5]))
        assert clamped.tolist() == [math.pi / 2, -math.pi / 2, math.asin(0.5)]
        with pytest.raises(BadParameter, match="beyond guard"):
            balls._clamped_asin(np.array([0.5, 1.0 + 1e-9]))


class TestBallSumRadial:
    def test_dim1_triangle(self):
        bp = BallPair(1, 1.0, 1.0)
        assert ball_sum_radial(bp, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert ball_sum_radial(bp, 1.0) == pytest.approx(0.25, abs=1e-10)
        assert ball_sum_radial(bp, 2.0) == pytest.approx(0.0, abs=1e-12)
        assert ball_sum_radial(bp, 2.5) == 0.0

    def test_symmetric_in_radii(self):
        for n in (1, 2, 3):
            a = BallPair(n, 0.7, 1.3)
            b = BallPair(n, 1.3, 0.7)
            for r in (0.0, 0.5, 0.61, 1.4, 1.9):
                assert ball_sum_radial(a, r) == pytest.approx(
                    ball_sum_radial(b, r), rel=1e-12)

    def test_continuity_at_breakpoint(self):
        # the two analytic branches meet at r = |r1 - r2|
        for n in (1, 2, 3, 6):
            bp = BallPair(n, 1.0, 0.4)
            left = ball_sum_radial(bp, 0.6 - 1e-9)
            right = ball_sum_radial(bp, 0.6 + 1e-9)
            assert left == pytest.approx(right, rel=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_density_integrates_to_one(self, n):
        bp = BallPair(n, 1.0, 0.5)
        surface = n * _unit_ball_volume(n)

        def radial_mass(r):
            return ball_sum_radial(bp, r) * surface * r ** (n - 1)

        total, _ = integrate.quad(radial_mass, 0.0, 0.5, limit=200)
        rest, _ = integrate.quad(radial_mass, 0.5, 1.5, limit=200)
        assert total + rest == pytest.approx(1.0, abs=1e-8)


    @pytest.mark.parametrize("n", [1, 3, 512, 4096])
    def test_log_density_inside_the_breakpoint(self, n):
        # for r <= |r1 - r2| the smaller ball fits inside the larger around
        # any point, so the density is 1 / V_n(max(r1, r2)) exactly
        bp = BallPair(n, 1.0, 0.5)
        log_inv_volume = math.lgamma(n / 2.0 + 1.0) - (n / 2.0) * math.log(math.pi)
        for r in (0.0, 0.25, 0.5):
            assert ball_sum_log_radial(bp, r) == pytest.approx(log_inv_volume,
                                                               rel=1e-12, abs=1e-12)
        assert ball_sum_log_radial(bp, 1.5) == -math.inf

    def test_log_density_matches_density(self):
        for n, r in ((2, 0.0), (3, 0.7), (6, 1.2), (512, 1.4)):
            bp = BallPair(n, 1.0, 0.5)
            assert ball_sum_log_radial(bp, r) == pytest.approx(
                math.log(ball_sum_radial(bp, r)), rel=1e-13)

    @pytest.mark.parametrize("n, r1, r2", [(1, 1.0, 1.0), (3, 1.0, 0.5), (512, 0.6, 1.0)])
    def test_vectorized_log_g_matches_scalar_bitwise(self, n, r1, r2):
        # radii in all three branches: inside the breakpoint, the lens, outside
        bp = BallPair(n, r1, r2)
        radii = np.linspace(0.0, 1.1 * (r1 + r2), 157)
        values = balls._log_g(bp, radii)
        scalars = np.array([balls._log_g(bp, float(r)) for r in radii])
        assert np.array_equal(values.view(np.int64), scalars.view(np.int64))
        assert np.isneginf(values[radii >= r1 + r2]).all()
        assert np.isfinite(values[radii < r1 + r2]).all()

    def test_nan_radius_rejected(self):
        with pytest.raises(BadParameter, match="nonnegative"):
            ball_sum_log_radial(BallPair(3, 1.0, 0.5), math.nan)

    def test_overflowing_density_raises(self):
        # at dim 512 the density at the origin is exp(874), past the float range
        bp = BallPair(512, 1.0, 0.5)
        with pytest.raises(DensityOverflow, match="density of"):
            ball_sum_radial(bp, 0.0)
        assert ball_sum_radial(bp, 1.4) > 0.0


class TestBallSumEntropy:
    def test_dim1_half_balls(self):
        # two uniforms on [-1/2, 1/2]: the unit triangle, h = 1/2
        assert ball_sum_entropy(BallPair(1, 0.5, 0.5)) == pytest.approx(0.5,
                                                                        abs=1e-9)

    def test_dim1_unit_balls(self):
        assert ball_sum_entropy(BallPair(1, 1.0, 1.0)) == pytest.approx(
            math.log(2.0) + 0.5, abs=1e-9)

    def test_dim1_grid_convolution_cross_check(self):
        # independent route: discretize both uniforms and convolve; both
        # radii are multiples of 1/2048 so a dx of 1/1024 fits exactly
        for r1, r2 in ((0.5, 0.5), (1.0, 0.25), (0.8125, 0.75)):
            f = uniform_interval(-r1, r1, cells=round(2048 * r1))
            g = uniform_interval(-r2, r2, cells=round(2048 * r2))
            h_grid = renyi_entropy(convolve(f, g), 1.0)
            assert ball_sum_entropy(BallPair(1, r1, r2)) == pytest.approx(
                h_grid, abs=5e-4)

    def test_scaling_identity(self):
        for n in (1, 2, 4):
            base = ball_sum_entropy(BallPair(n, 1.0, 0.6))
            scaled = ball_sum_entropy(BallPair(n, 2.5, 1.5))
            assert scaled == pytest.approx(base + n * math.log(2.5), rel=1e-9)

    def test_high_dimension_finite(self):
        h = ball_sum_entropy(BallPair(64, 1.0, 1.0))
        assert math.isfinite(h)
        # entropy of the sum exceeds that of a single ball
        single = 64.0 * math.log(1.0) + math.log(_unit_ball_volume(64))
        assert h > single

    @pytest.mark.parametrize("m, expected", [(512, -871.6083154128002),
                                             (1024, -2097.0156596992724)])
    def test_high_dimension_against_mpmath(self, m, expected):
        # expected: _mpmath_ball_sum_entropy(m, sqrt(1/2), sqrt(1/2)) at 25
        # digits (test_mpmath_reference_values recomputes the m = 512 one)
        bp = BallPair(m, math.sqrt(0.5), math.sqrt(0.5))
        assert ball_sum_entropy(bp) == pytest.approx(expected, abs=1e-8)

    def test_mpmath_reference_values(self):
        value = _mpmath_ball_sum_entropy(512, math.sqrt(0.5), math.sqrt(0.5))
        assert float(value) == pytest.approx(-871.6083154128002, abs=1e-12)

    def test_unreliable_quadrature_raises(self, monkeypatch):
        # a tolerance below roundoff cannot be met; the value must not escape
        monkeypatch.setattr(balls, "QUAD_TOL", 1e-300)
        with pytest.raises(InaccurateResult, match="radial entropy integral"):
            ball_sum_entropy(BallPair(64, 1.0, 0.6))

    def test_validation(self):
        with pytest.raises(BadParameter):
            BallPair(1, 0.0, 1.0)
        with pytest.raises(BadParameter):
            BallPair(-2, 1.0, 1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(BadParameter, match="finite"):
                BallPair(3, bad, 1.0)
            with pytest.raises(BadParameter, match="finite"):
                BallPair(3, 1.0, bad)

    def test_one_vectorized_evaluation_per_level(self, monkeypatch):
        # a recorder of the radii _log_g is called with: the first level
        # takes the nodes of all starting subintervals at once, and each
        # later one the nodes of the bisected halves of the failed ones
        calls = []
        log_g = balls._log_g

        def recorded(bp, r):
            calls.append(np.size(r))
            return log_g(bp, r)

        monkeypatch.setattr(balls, "_log_g", recorded)
        ball_sum_entropy(BallPair(4096, math.sqrt(0.5), math.sqrt(0.5)))
        per_interval = 3 * balls._GL_NODES
        assert 1 <= len(calls) <= balls._GL_MAX_LEVELS
        assert calls[0] == balls._GL_START * per_interval
        for before, after in zip(calls, calls[1:]):
            assert after % (2 * per_interval) == 0 and after <= 2 * before


def _mpmath_ball_sum_entropy(n, r1, r2, dps=25):
    """h(X + Y) from the module docstring's formulas, all in mpmath: the
    cap by mpmath.betainc, the radial integral by mpmath.quad split where
    |X + Y| concentrates, sqrt(r1^2 + r2^2) +- 2/sqrt(n) and +- 8/sqrt(n)."""
    with mpmath.workdps(dps):
        n, r1, r2 = mpmath.mpf(n), mpmath.mpf(r1), mpmath.mpf(r2)
        a, half = (n + 1) / 2, mpmath.mpf(1) / 2
        full = mpmath.beta(a, half)
        log_vol = n / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(n / 2 + 1)
        log_norm = log_vol + mpmath.log(full) + n * mpmath.log(r1 * r2)

        def cap(t):
            if t < 0:
                return full - cap(-t)
            return full / 2 * mpmath.betainc(a, half, 0, mpmath.cos(t) ** 2,
                                             regularized=True)

        def integrand(r):
            if r <= lo:
                g = min(r1, r2) ** n * full
            else:
                g = (r1 ** n * cap(mpmath.asin((r * r - r2 * r2 + r1 * r1) / (2 * r * r1)))
                     + r2 ** n * cap(mpmath.asin((r * r - r1 * r1 + r2 * r2) / (2 * r * r2))))
            if g <= 0:
                return mpmath.mpf(0)
            log_w = (mpmath.log(n) + log_vol - log_norm + mpmath.log(g)
                     + (n - 1) * mpmath.log(r))
            return mpmath.exp(log_w) * (log_norm - mpmath.log(g))

        lo, hi = abs(r1 - r2), r1 + r2
        centre = mpmath.sqrt(r1 * r1 + r2 * r2)
        splits = {centre + s * k / mpmath.sqrt(n) for k in (2, 8) for s in (-1, 1)}
        return mpmath.quad(integrand, sorted({lo, hi} | {x for x in splits if lo < x < hi}))


class TestEpiGap:
    def test_dim2_matches_direct_composition(self):
        lam = 0.5
        bp = BallPair(2, math.sqrt(lam), math.sqrt(1.0 - lam))
        expected = ball_sum_entropy(bp) - math.log(math.pi)
        assert epi_gap_balls(2, lam) == pytest.approx(expected, rel=1e-12)

    def test_gap_positive(self):
        for m in (2, 3, 5, 9):
            assert epi_gap_balls(m, 0.5) > 0.0

    def test_gap_grows_like_log_dim(self):
        # from dim 256 on each doubling adds about (log 2)/2 to the gap
        gaps = [epi_gap_balls(2 ** k, 0.5) for k in range(8, 15)]
        steps = np.diff(gaps)
        assert np.all(steps > 0.34) and np.all(steps < 0.347)

    def test_lambda_validation(self):
        with pytest.raises(BadParameter):
            epi_gap_balls(2, 0.0)
        with pytest.raises(BadParameter):
            epi_gap_balls(2, 1.0)


class TestBrunnMinkowski:
    def test_interval_case(self):
        f = uniform_interval(-1.0, 1.0, cells=128)
        g = uniform_interval(-0.5, 0.5, cells=64)
        rep = brunn_minkowski_check(f, g)
        assert rep.passed
        # the grid convolution loses exactly one cell of support
        assert rep.lhs == pytest.approx(rep.rhs - f.dx, abs=1e-12)

    def test_union_of_intervals(self):
        dx = 1.0 / 32
        a = np.zeros(96)
        a[:32] = 1.0
        a[64:] = 1.0
        f = make_grid(0.0, dx, a / (a.sum() * dx))
        g = uniform_interval(0.0, 0.75, cells=24)
        rep = brunn_minkowski_check(f, g)
        assert rep.passed

    def test_rejects_smooth_density(self):
        f = gaussian_on_grid(0.0, 1.0, -4.0, 8.0 / 256, 256)
        g = uniform_interval(0.0, 1.0, cells=32)
        with pytest.raises(NotIndicator):
            brunn_minkowski_check(f, g)
