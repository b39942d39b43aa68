import math

import numpy as np
import pytest

from renyi_rearrange import (
    BadParameter,
    DensityGeneratorSpec,
    LevySpec,
    TruncationInsufficient,
    check_levy_dominance,
    is_symmetric_decreasing,
    make_grid,
    marginal_density,
    moment,
    normalize,
    random_density,
    rearranged_marginal,
    renyi_entropy,
    uniform_interval,
    variance,
)
from renyi_rearrange.levy import _K_CAP, _poisson_sf, auto_k_max


def skewed_jump(cells=256, decay=2.0, span=3.0):
    dx = span / cells
    x = (np.arange(cells) + 0.5) * dx
    return normalize(make_grid(0.0, dx, np.exp(-decay * x)))


class TestLevySpec:
    def test_validation(self):
        jump = skewed_jump()
        with pytest.raises(BadParameter):
            LevySpec(a=-1.0, rate=1.0, jump=jump, t=1.0)
        with pytest.raises(BadParameter):
            LevySpec(a=1.0, rate=-0.5, jump=jump, t=1.0)
        with pytest.raises(BadParameter):
            LevySpec(a=1.0, rate=1.0, jump=jump, t=0.0)

    def test_jump_must_be_normalized(self):
        bad = make_grid(0.0, 0.1, np.full(10, 3.0))
        with pytest.raises(BadParameter):
            LevySpec(a=1.0, rate=1.0, jump=bad, t=1.0)


class TestTruncation:
    def test_k_max_grows_with_intensity(self):
        ks = [auto_k_max(mu) for mu in (0.1, 1.0, 5.0, 20.0)]
        assert ks == sorted(ks)
        assert ks[0] >= 1

    def test_tail_below_threshold(self):
        from scipy.stats import poisson
        for mu in (0.25, 1.0, 4.0):
            k = auto_k_max(mu)
            assert poisson.sf(k, mu) < 1e-8

    def test_cap_enforced(self):
        with pytest.raises(TruncationInsufficient):
            auto_k_max(500.0)

    def test_poisson_sf_matches_scipy(self):
        # mu = 800 puts every k below the mode, where the tail is ~1
        from scipy.stats import poisson
        worst = 0.0
        for mu in (1e-3, 0.25, 1.0, 4.0, 30.0, 74.4038, 120.0, 800.0):
            for k in range(0, 260):
                ref = float(poisson.sf(k, mu))
                if ref < 1e-290:  # near the bottom of the float range
                    continue
                worst = max(worst, abs(_poisson_sf(k, mu) - ref) / ref)
        assert worst <= 1e-12

    def test_auto_k_max_unchanged(self):
        # the truncation rule as it read with scipy's Poisson tail; the
        # verify suite's lambda*t = 0.25 and 1.0 and the rate 30 are in the grid
        from scipy.stats import poisson

        def reference(mu):
            ks = np.arange(math.ceil(mu), _K_CAP + 1)
            below = np.flatnonzero(poisson.sf(ks, mu) < 1e-8)
            return int(ks[below[0]]) if below.size else _K_CAP + 1

        for mu in [0.25, 1.0, 30.0, *np.linspace(0.01, 160.0, 201)]:
            mu = float(mu)
            expected = reference(mu)
            if expected > _K_CAP:
                with pytest.raises(TruncationInsufficient):
                    auto_k_max(mu)
            else:
                assert auto_k_max(mu) == expected, mu

    def test_explicit_k_max_too_small(self):
        spec = LevySpec(a=1.0, rate=30.0, jump=skewed_jump(cells=32), t=1.0)
        with pytest.raises(TruncationInsufficient):
            marginal_density(spec, k_max=40)


class TestMarginal:
    def test_pure_diffusion_matches_gaussian(self):
        jump = skewed_jump()
        for a, t in ((1.0, 1.0), (0.7, 1.3), (2.0, 0.25)):
            spec = LevySpec(a=a, rate=0.0, jump=jump, t=t)
            f = marginal_density(spec)
            h = renyi_entropy(f, 1.0)
            assert h == pytest.approx(0.5 * math.log(2 * math.pi * math.e * a * t),
                                      abs=1e-3)

    def test_unit_mass(self):
        spec = LevySpec(a=1.0, rate=1.0, jump=skewed_jump(), t=1.0)
        f = marginal_density(spec)
        assert f.mass == pytest.approx(1.0, abs=1e-9)

    def test_moments_match_compound_poisson(self):
        # E X_t = lambda t E[J], Var X_t = t (a + lambda E[J^2])
        jump = skewed_jump()
        mean_j = moment(jump, 1)
        second_j = moment(jump, 2)
        for lam, t in ((0.5, 1.0), (1.0, 0.5)):
            spec = LevySpec(a=1.0, rate=lam, jump=jump, t=t)
            f = marginal_density(spec)
            assert moment(f, 1) == pytest.approx(lam * t * mean_j, abs=5e-3)
            assert variance(f) == pytest.approx(t * (1.0 + lam * second_j),
                                                rel=1e-2)

    def test_support_is_the_hull_sum_set(self):
        # the k-th term is the Gaussian window [C, D) folded with k copies
        # of the jump's hull [A, B), so it is positive exactly on
        # [C + k (A + dx/2), D + k (B - dx/2)) (the window outspans every
        # gap of the jump law); its 8-sigma tails sit far below FFT
        # resolution and must still count as support
        jump = random_density(DensityGeneratorSpec(kind="uniform-mixture",
                                                   seed=0, cells=512))
        spec = LevySpec(a=1.0, rate=5.0, jump=jump, t=1.0)
        f = marginal_density(spec)
        dx = jump.dx
        reach = math.ceil(8.0 / dx)
        pos = np.flatnonzero(jump.values > 0.0)
        a_lo, b_hi = jump.x0 + pos[0] * dx, jump.x0 + (pos[-1] + 1) * dx
        expected = np.zeros(f.n_cells, dtype=bool)
        for k in range(auto_k_max(spec.rate * spec.t) + 1):
            lo = -(reach + 0.5) * dx + k * (a_lo + dx / 2)
            hi = (reach + 0.5) * dx + k * (b_hi - dx / 2)
            expected |= (f.midpoints > lo) & (f.midpoints < hi)
        assert np.array_equal(f.values > 0.0, expected)

    def test_entropy_grows_in_time(self):
        jump = skewed_jump()
        hs = []
        for t in (0.25, 0.5, 1.0, 2.0):
            spec = LevySpec(a=1.0, rate=1.0, jump=jump, t=t)
            hs.append(renyi_entropy(marginal_density(spec), 1.0))
        assert hs == sorted(hs)


class TestRearrangedMarginal:
    def test_symmetric_jump_changes_nothing(self):
        # a symmetric decreasing jump density is its own rearrangement, so
        # both marginals are built from identical ingredients
        jump = uniform_interval(-0.5, 0.5, cells=64)
        assert is_symmetric_decreasing(jump)
        spec = LevySpec(a=1.0, rate=1.0, jump=jump, t=0.5)
        f = marginal_density(spec)
        g = rearranged_marginal(spec)
        assert np.array_equal(f.values, g.values)
        assert f.x0 == g.x0

    def test_skewed_jump_lowers_entropy(self):
        spec = LevySpec(a=1.0, rate=1.0, jump=skewed_jump(), t=1.0)
        h_x = renyi_entropy(marginal_density(spec), 1.0)
        h_z = renyi_entropy(rearranged_marginal(spec), 1.0)
        assert h_z <= h_x


class TestDominance:
    def test_reports_pass(self):
        spec = LevySpec(a=1.0, rate=1.0, jump=skewed_jump(), t=1.0)
        reports = check_levy_dominance(spec, [0.5, 1.0, 2.0, math.inf])
        assert len(reports) == 4
        assert all(r.passed for r in reports)
        # the skew is real: strictly positive margins, not tolerance saves
        assert all(r.margin > 0.0 for r in reports)

    def test_support_dominance_with_gapped_jumps(self):
        # a jump law with gaps: FFT noise in the folded terms must not
        # count as support, or h_0 measures the grid instead of the density
        jump = random_density(DensityGeneratorSpec(kind="uniform-mixture",
                                                   seed=0, cells=512))
        spec = LevySpec(a=1.0, rate=5.0, jump=jump, t=1.0)
        report = check_levy_dominance(spec, [0.0])[0]
        assert report.lhs >= report.rhs

    def test_zero_rate_equality(self):
        spec = LevySpec(a=1.0, rate=0.0, jump=skewed_jump(), t=1.0)
        reports = check_levy_dominance(spec, [1.0])
        assert reports[0].passed
        assert reports[0].margin == pytest.approx(0.0, abs=1e-12)
