import hashlib
import io
import math
from contextlib import redirect_stdout

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import beta as beta_fn

import renyi_rearrange.balls as balls
from renyi_rearrange import (
    BadParameter,
    BallPair,
    DensityOverflow,
    InaccurateResult,
    SpacingMismatch,
    ZeroMass,
    ball_sum_entropies,
    ball_sum_entropy,
    ball_sum_log_radial,
    ball_sum_radial,
    brunn_minkowski_check,
    convolve,
    make_grid,
    renyi_entropy,
    uniform_interval,
    epi_gap_balls,
    log_cap_integral,
)
from renyi_rearrange import cli
from simd import pin


def _cap(theta, n):
    """The cap integral h(theta) itself."""
    return math.exp(log_cap_integral(theta, n))


def _log_g(bp, r):
    """log g of the one pair bp at the radii r (1-d)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return balls._log_g(balls._Pairs((bp,)), np.zeros(r.size, dtype=np.intp), r)


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
        values = _log_g(bp, radii)
        scalars = np.concatenate([_log_g(bp, float(r)) for r in radii])
        assert np.array_equal(values.view(np.int64), scalars.view(np.int64))
        assert np.isneginf(values[radii >= r1 + r2]).all()
        assert np.isfinite(values[radii < r1 + r2]).all()

    @pytest.mark.parametrize("n", [1, 2, 512, 4096])
    @pytest.mark.parametrize("r", [math.sqrt(0.5), 1.0])
    def test_equal_radii_log_g_matches_two_ball_formula_bitwise(self, n, r, monkeypatch):
        # the shared caps give the bits of both balls' caps computed in one
        # call; the radii reach every branch, and from n = 512 on the
        # continued fraction where betainc underflows
        cf_sizes = []
        log_beta_cf = balls._log_beta_cf

        def recorded(a, b, x):
            cf_sizes.append(x.size)
            return log_beta_cf(a, b, x)

        monkeypatch.setattr(balls, "_log_beta_cf", recorded)
        bp = BallPair(n, r, r)
        radii = np.concatenate((np.linspace(0.0, 2.2 * r, 157),
                                [1e-300, 1e-8, r, np.nextafter(2.0 * r, 0.0), 2.0 * r]))
        values = _log_g(bp, radii)
        assert (n >= 512) == bool(cf_sizes)
        assert [v.hex() for v in values] == [v.hex() for v in _two_ball_log_g(bp, radii)]

    def test_nan_radius_rejected(self):
        with pytest.raises(BadParameter, match="nonnegative"):
            ball_sum_log_radial(BallPair(3, 1.0, 0.5), math.nan)

    def test_overflowing_density_raises(self):
        # at dim 512 the density at the origin is exp(874), past the float range
        bp = BallPair(512, 1.0, 0.5)
        with pytest.raises(DensityOverflow, match="density of"):
            ball_sum_radial(bp, 0.0)
        assert ball_sum_radial(bp, 1.4) > 0.0


def _two_ball_log_g(bp, r):
    """log g at the radii r from both balls' caps, their cap arguments
    concatenated into one log_cap_integral call."""
    n, r1, r2 = bp.dim, bp.r1, bp.r2
    lo, hi = abs(r1 - r2), r1 + r2
    out = np.full(r.shape, -np.inf)
    out[r <= lo] = n * math.log(min(r1, r2)) + balls.log_full_cap(n)
    lens = (r > lo) & (r < hi)
    s = r[lens]
    args = np.concatenate(((s * s - r2 * r2 + r1 * r1) / (2.0 * s * r1),
                           (s * s - r1 * r1 + r2 * r2) / (2.0 * s * r2)))
    caps = log_cap_integral(balls._clamped_asin(args), n)
    out[lens] = np.logaddexp(n * math.log(r1) + caps[:s.size],
                             n * math.log(r2) + caps[s.size:])
    return out


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
        # takes the nodes of every pair's starting subintervals at once
        # (one piece for equal radii, two split at |r1 - r2| otherwise), and
        # each later one the nodes of the bisected halves of the failed ones;
        # dims 2 to 4096 at lambda = 1/2 take as many levels as their
        # deepest pair, dim 2's 12, where one sweep per pair takes 40
        calls = []
        log_g = balls._log_g

        def recorded(pairs, p, r):
            calls.append(np.size(r))
            return log_g(pairs, p, r)

        monkeypatch.setattr(balls, "_log_g", recorded)
        per_interval = 3 * balls._GL_NODES
        ball_sum_entropies([BallPair(4096, 1.0, 1.0), BallPair(3, 1.0, 0.5)])
        assert calls[0] == 3 * balls._GL_START * per_interval
        calls.clear()
        epi_gap_balls([2 ** k for k in range(1, 13)], 0.5)
        assert len(calls) == 12
        assert calls[0] == 12 * balls._GL_START * per_interval
        for before, after in zip(calls, calls[1:]):
            assert after % (2 * per_interval) == 0 and after <= 2 * before
        calls.clear()
        for k in range(1, 13):
            epi_gap_balls([2 ** k], 0.5)
        assert len(calls) == 40


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
        assert epi_gap_balls([2], lam) == [pytest.approx(expected, rel=1e-12)]

    def test_gap_positive(self):
        assert all(gap > 0.0 for gap in epi_gap_balls([2, 3, 5, 9], 0.5))

    def test_gap_grows_like_log_dim(self):
        # from dim 256 on each doubling adds about (log 2)/2 to the gap
        gaps = epi_gap_balls([2 ** k for k in range(8, 15)], 0.5)
        steps = np.diff(gaps)
        assert np.all(steps > 0.34) and np.all(steps < 0.347)

    def test_lambda_validation(self):
        with pytest.raises(BadParameter):
            epi_gap_balls([2], 0.0)
        with pytest.raises(BadParameter):
            epi_gap_balls([2], 1.0)

    @pytest.mark.parametrize("m", [2, 64, 4096])
    def test_equal_balls_pass_one_cap_angle_per_node(self, m, monkeypatch):
        # equal radii share their caps, and every node is in the lens,
        # alone and in a sweep with a pair of unequal radii, whose lens
        # nodes take two angles each
        nodes, angles = [], []
        log_g, log_caps = balls._log_g, balls._log_caps

        def recorded_log_g(pairs, p, r):
            nodes.append(np.size(r))
            return log_g(pairs, p, r)

        def recorded_caps(theta, rows, col):
            angles.append(np.size(theta))
            return log_caps(theta, rows, col)

        monkeypatch.setattr(balls, "_log_g", recorded_log_g)
        monkeypatch.setattr(balls, "_log_caps", recorded_caps)
        epi_gap_balls([m], 0.5)
        assert nodes and angles == nodes
        nodes.clear()
        angles.clear()
        ball_sum_entropies([BallPair(m, 1.0, 1.0), BallPair(m, 1.0, 0.5)])
        # the first level's nodes: 8 subintervals of the equal pair, and of
        # the other 8 inside the breakpoint (one cap angle, none) and 8 in
        # the lens (two)
        per_half = balls._GL_START * 3 * balls._GL_NODES
        assert nodes[0] == 3 * per_half and angles[0] == 3 * per_half


class TestSweep:
    """ball_sum_entropies: one quadrature sweep over many pairs."""

    PAIRS = ([BallPair(2 ** k, math.sqrt(lam), math.sqrt(1.0 - lam))
              for k in range(1, 13) for lam in (0.3, 0.5)]
             + [BallPair(1, 0.5, 0.5), BallPair(1, 1.0, 0.25), BallPair(3, 1.0, 0.5),
                BallPair(64, 1.0, 0.6), BallPair(512, 0.6, 1.0)])

    def test_each_pair_as_if_alone(self):
        # no pair's budget, refinement or cap sharing leaks into another's:
        # equal and unequal radii, dims 1 to 4096, in either order
        alone = [ball_sum_entropy(bp).hex() for bp in self.PAIRS]
        assert [h.hex() for h in ball_sum_entropies(self.PAIRS)] == alone
        assert [h.hex() for h in ball_sum_entropies(self.PAIRS[::-1])] == alone[::-1]

    def test_empty_sweep(self):
        assert ball_sum_entropies([]) == []

    def test_levels_cut_name_the_pair(self, monkeypatch):
        # dim 2 takes 12 levels, dims 64 and 4096 at most 4: cut at 5, the
        # sweep fails on dim 2's pair alone and returns nothing
        monkeypatch.setattr(balls, "_GL_MAX_LEVELS", 5)
        r = math.sqrt(0.5)
        pairs = [BallPair(64, r, r), BallPair(2, r, r), BallPair(4096, r, r)]
        with pytest.raises(InaccurateResult) as exc:
            ball_sum_entropies(pairs)
        message = str(exc.value)
        assert f"radial entropy integral of {pairs[1]!r}" in message
        assert "after 5 levels" in message
        assert repr(pairs[0]) not in message and repr(pairs[2]) not in message

    def test_continued_fraction_cut_names_the_pair(self, monkeypatch):
        # only dim 4096 reaches the continued fraction, here in the first
        # level's evaluation, shared with the other two pairs
        monkeypatch.setattr(balls, "_CF_MAX_TERMS", 1)
        pairs = [BallPair(3, 1.0, 0.5), BallPair(4096, math.sqrt(0.3), math.sqrt(0.7)),
                 BallPair(2, 1.0, 1.0)]
        with pytest.raises(InaccurateResult) as exc:
            ball_sum_entropies(pairs)
        message = str(exc.value)
        assert message.startswith(f"radial entropy integral of {pairs[1]!r}: ")
        assert "did not converge" in message
        assert repr(pairs[0]) not in message and repr(pairs[2]) not in message


def _stdout(argv):
    """The exit code and standard output of one CLI run."""
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class TestBallBytes:
    """The bytes of epigap and ballsum, and the bits of ball_sum_entropy on
    a table of pairs, as one pair per sweep printed them.

    The printed bytes are the same at each x86-64 SIMD level; the entropies'
    last bits are not (np.cos, np.arcsin, np.log and np.exp are dispatched
    by level), so they are pinned for numpy 2.4 at each level, recorded by
    limiting numpy with NPY_DISABLE_CPU_FEATURES (tests/simd.py), and that
    test is skipped elsewhere.
    """

    OUTPUTS = {
        "epigap --max-dim 4096 --lambda 0.5":
            "6c84a33cac090758048b76514a1b5a7271b3fcf902ed541b12597e149b051946",
        "epigap --max-dim 4096 --lambda 0.3":
            "df6e249b943f8ebeb9141b20c3d02f0380fc8ed83d1cbbb93c0368593cdcc5f4",
        "ballsum --dim 3 --r1 1 --r2 0.5":
            "d204556f61b4e2ede14f4f70484ab292c680715d750c974c577e6391c99eed05",
        "ballsum --dim 1 --r1 0.5 --r2 0.5 --entropy-only":
            "37aa4ccd37b7f7660a6a3843642309876fd774b7cbe72b221feb160d0a7ac73a",
    }
    PAIRS = ((1, 0.5, 0.5), (1, 1.0, 1.0), (1, 1.0, 0.25), (2, 1.0, 0.5), (3, 1.0, 0.5),
             (4, 1.0, 0.6), (5, 0.7, 1.3), (64, 1.0, 1.0), (64, 1.0, 0.6),
             (512, math.sqrt(0.5), math.sqrt(0.5)), (512, 0.6, 1.0),
             (1024, math.sqrt(0.3), math.sqrt(0.7)), (4096, math.sqrt(0.5), math.sqrt(0.5)),
             (4096, math.sqrt(0.3), math.sqrt(0.7)))
    V4 = ("0x1.ffffffffffffbp-2", "0x1.317217f7d1cf7p+0", "0x1.a2e42fefa39efp-1",
          "0x1.9c930ea1e26b8p+0", "0x1.0c3dfe69254e9p+1", "0x1.511d6d2de8ef9p+1",
          "0x1.05395d78d0910p+2", "-0x1.52a8ad946b16fp+4", "-0x1.0c8fe65085d7fp+5",
          "-0x1.b3cddd4789874p+9", "-0x1.8c7b04a5e2131p+9", "-0x1.0622001fc8ea5p+11",
          "-0x1.5ebf45d3b65fcp+13", "-0x1.5ebfa6478df91p+13")
    V3 = ("0x1.ffffffffffffbp-2", "0x1.317217f7d1cf8p+0", "0x1.a2e42fefa39efp-1",
          "0x1.9c930ea1e26b8p+0", "0x1.0c3dfe69254e9p+1", "0x1.511d6d2de8efap+1",
          "0x1.05395d78d0910p+2", "-0x1.52a8ad946b176p+4", "-0x1.0c8fe65085d7fp+5",
          "-0x1.b3cddd478987ep+9", "-0x1.8c7b04a5e212dp+9", "-0x1.0622001fc8ed5p+11",
          "-0x1.5ebf45d3b6678p+13", "-0x1.5ebfa6478e036p+13")
    HEX = {("X86_V4",): V4, ("X86_V3",): V3, ("X86_V2",): V3}

    @pytest.mark.parametrize("argv", sorted(OUTPUTS))
    def test_cli_output_digest(self, argv):
        rc, out = _stdout(argv.split())
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.OUTPUTS[argv]

    def test_entropy_bits(self):
        expected = pin(self.HEX)
        pairs = [BallPair(*pair) for pair in self.PAIRS]
        assert tuple(ball_sum_entropy(bp).hex() for bp in pairs) == expected
        assert tuple(h.hex() for h in ball_sum_entropies(pairs)) == expected


def _run_count(cells):
    """The number of runs of positive cells."""
    return int(np.count_nonzero(np.diff(np.concatenate(([0], cells, [0]))) == 1))


_CELLS = st.lists(st.integers(0, 1), min_size=1, max_size=64).filter(any)


class TestBrunnMinkowski:
    def test_interval_case(self):
        f = uniform_interval(-1.0, 1.0, cells=128)
        g = uniform_interval(-0.5, 0.5, cells=64)
        rep = brunn_minkowski_check(f, g)
        assert rep.passed
        # two intervals: equality, in whole cells
        assert rep.lhs == rep.rhs == 192 * f.dx
        assert rep.tolerance == 0.0

    def test_union_of_intervals(self):
        dx = 1.0 / 32
        a = np.zeros(96)
        a[:32] = 1.0
        a[64:] = 1.0
        f = make_grid(0.0, dx, a / (a.sum() * dx))
        g = uniform_interval(0.0, 0.75, cells=24)
        rep = brunn_minkowski_check(f, g)
        assert rep.passed
        # the gap of 32 cells is wider than g: A + B is two runs of 56 cells
        assert rep.lhs == 112 * dx and rep.rhs == 88 * dx

    @settings(max_examples=200, deadline=None)
    @given(a=_CELLS, b=_CELLS, x0=st.sampled_from([-1.0, 0.0, 0.3]))
    def test_exact_sum_set(self, a, b, x0):
        dx = 1.0 / 16
        rep = brunn_minkowski_check(make_grid(x0, dx, np.array(a, dtype=float)),
                                    make_grid(0.0, dx, np.array(b, dtype=float)))
        assert rep.margin >= 0.0
        assert (rep.margin == 0.0) == (_run_count(a) == 1 == _run_count(b))
        # the continuum sum set covers cell k when the step reading (the
        # indicators' convolution) covers k or k - 1
        step = np.concatenate((np.convolve(a, b) > 0, [False]))
        assert rep.lhs == int(np.count_nonzero(step | np.roll(step, 1))) * dx

    def test_rejects_empty_support(self):
        f = make_grid(0.0, 0.25, np.zeros(8))
        g = uniform_interval(0.0, 1.0, cells=4)
        with pytest.raises(ZeroMass):
            brunn_minkowski_check(f, g)
        with pytest.raises(ZeroMass):
            brunn_minkowski_check(g, f)

    def test_rejects_different_spacings(self):
        f = uniform_interval(0.0, 1.0, cells=32)
        g = uniform_interval(0.0, 1.0, cells=64)
        with pytest.raises(SpacingMismatch):
            brunn_minkowski_check(f, g)
