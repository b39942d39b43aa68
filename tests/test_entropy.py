import math

import numpy as np
import pytest
from scipy.special import logsumexp

from renyi_rearrange import (
    DensityGeneratorSpec,
    DensityOverflow,
    GAUSSIAN_ENTROPY_POWER,
    GridMismatch,
    Group,
    OrderOutOfRange,
    WeightSum,
    ZeroMass,
    entropy_power,
    fisher_information,
    gaussian_on_grid,
    make_grid,
    mixture_entropy_bound_check,
    random_density,
    rearrange_1d,
    renyi_divergence,
    renyi_entropies,
    renyi_entropy,
    uniform_interval,
)
from renyi_rearrange.cli import _parse_order
from renyi_rearrange.entropy import _log_sum_exp, order, order_label, renyi_affinity


class TestRenyiOrder:
    """order() reads a Renyi order as a plain float; order_label() names it."""

    def test_coercion(self):
        for given, want in ((0, 0.0), ("1", 1.0), (2, 2.0), ("0.5", 0.5),
                            (" 2 ", 2.0), ("inf", math.inf), (" Infinity ", math.inf),
                            ("oo", math.inf), (np.float64(1e4), 1e4)):
            got = order(given)
            assert type(got) is float and got == want

    def test_labels(self):
        # the report labels: p=0, p=0.5, p=1, p=2.0, p=inf
        for given, label in ((0, "0"), (-0.0, "0"), (1, "1"), (1.0, "1"),
                             (0.5, "0.5"), (2, "2.0"), ("2", "2.0"),
                             (math.inf, "inf"), ("inf", "inf"),
                             (" Infinity ", "inf"), ("oo", "inf")):
            assert order_label(order(given)) == label
        assert order_label(_parse_order("p=0")) == "0"

    @pytest.mark.parametrize("bad", [-1.0, -0.001, float("nan"), "abc", "p=x",
                                     -math.inf, "-inf", None])
    def test_rejects_bad_orders(self, bad):
        with pytest.raises(OrderOutOfRange):
            order(bad)
        f = uniform_interval(-1.0, 1.0, cells=8)
        with pytest.raises(OrderOutOfRange):
            renyi_entropy(f, bad)


class TestUniform:
    # for a uniform density every Renyi entropy equals log(length)
    @pytest.mark.parametrize("p", [0.0, 1e-4, 0.5, 1.0, 2.0, 1e4, math.inf])
    def test_all_orders_give_log_length(self, p):
        f = uniform_interval(-1.5, 2.0, cells=70)
        assert renyi_entropy(f, p) == pytest.approx(math.log(3.5), abs=1e-10)

    def test_zero_density_raises(self):
        f = make_grid(0.0, 1.0, [0.0, 0.0, 0.0])
        with pytest.raises(ZeroMass):
            renyi_entropy(f, 1.0)


def _gaussian(sigma):
    """N(0, sigma^2) sampled on 4096 cells of [-8 sigma, 8 sigma], renormalized."""
    return gaussian_on_grid(0.0, sigma, -8.0 * sigma, 16.0 * sigma / 4096, 4096)


class TestGaussianAnchors:
    def test_shannon_entropy_power(self):
        g = _gaussian(1.0)
        assert entropy_power(g, 1.0) == pytest.approx(GAUSSIAN_ENTROPY_POWER,
                                                      rel=1e-9)

    def test_sup_entropy(self):
        g = _gaussian(2.0)
        # -log of the peak value 1/(2 sqrt(2 pi)); the top cell midpoint
        # sits dx/2 off the mode, which costs (dx/2)^2/(2 sigma^2)
        assert renyi_entropy(g, math.inf) == pytest.approx(
            math.log(2.0 * math.sqrt(2.0 * math.pi)), abs=1e-5)

    def test_quadratic_entropy(self):
        # h_2 = -log ||f||_2^2 = log(2 sigma sqrt(pi))
        g = _gaussian(1.3)
        assert renyi_entropy(g, 2.0) == pytest.approx(
            math.log(2.0 * 1.3 * math.sqrt(math.pi)), abs=1e-8)

    def test_variance_scaling(self):
        g1 = _gaussian(1.0)
        g2 = _gaussian(2.0)
        assert entropy_power(g2, 1.0) == pytest.approx(
            4.0 * entropy_power(g1, 1.0), rel=1e-8)

    def test_entropy_power_past_the_float_range(self):
        # uniform on a width-1e200 interval: N_p = 1e400 for every p
        wide = make_grid(0.0, 1e200, [1e-200])
        assert renyi_entropy(wide, 2.0) == pytest.approx(200.0 * math.log(10.0))
        with pytest.raises(DensityOverflow, match="overflows a float"):
            entropy_power(wide, 2.0)

    @pytest.mark.parametrize("width", [1e-200, 1e-160])
    def test_entropy_power_below_the_normal_floats(self, width):
        # N_p = width^2: 0.0 and the subnormal 1e-320 as plain floats
        narrow = make_grid(0.0, width, [1.0 / width])
        with pytest.raises(DensityOverflow, match="below the normal float range"):
            entropy_power(narrow, 2.0)


class TestOrderStructure:
    def test_monotone_nonincreasing_in_p(self):
        f = random_density(DensityGeneratorSpec(kind="gaussian-mixture", seed=21,
                                                cells=512))
        orders = [0.0, 1e-4, 0.3, 0.7, 1.0, 1.5, 2.0, 10.0, 1e4, math.inf]
        values = [renyi_entropy(f, p) for p in orders]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-10

    def test_continuity_at_one(self):
        f = random_density(DensityGeneratorSpec(kind="gaussian-mixture", seed=22,
                                                cells=512))
        h1 = renyi_entropy(f, 1.0)
        assert renyi_entropy(f, 1.0 + 1e-5) == pytest.approx(h1, abs=1e-3)
        assert renyi_entropy(f, 1.0 - 1e-5) == pytest.approx(h1, abs=1e-3)

    def test_extreme_orders_bracket(self):
        f = random_density(DensityGeneratorSpec(kind="bimodal", seed=23, cells=256))
        assert renyi_entropy(f, 1e4) == pytest.approx(
            renyi_entropy(f, math.inf), abs=2e-3)
        assert renyi_entropy(f, 1e-4) <= renyi_entropy(f, 0.0) + 1e-12


def _renyi_entropy_reference(f, p):
    """h_p(f) for one order, each order reading the layers of f afresh."""
    p = float(p)
    vals, meas = f.cells()
    pos = vals > 0.0
    if not pos.any():
        raise ZeroMass("entropy of an identically zero density")
    v = vals[pos]
    m = meas[pos]
    if p == 0.0:
        return float(np.log(m.sum()))
    if p == math.inf:
        return float(-np.log(v.max()))
    if p == 1.0:
        return float(-np.sum(m * v * np.log(v)))
    return _log_sum_exp(p * np.log(v), m) / (1.0 - p)


class TestRenyiEntropies:
    """One layer pass for many orders gives the per-order numbers bit for bit."""

    ORDERS = (0.0, 1e-4, 0.5, 1.0, 2.0, 1e4, math.inf)

    @staticmethod
    def _densities():
        rng = np.random.default_rng(43)
        vals = rng.random(700)
        vals[rng.integers(0, 700, size=120)] = 0.0
        vals[:50] = 0.0
        grid = make_grid(-3.0, 0.01, vals)
        coarse = rng.random(60)
        coarse[rng.integers(0, 60, size=10)] = 0.0
        return grid, make_grid(0.25, 0.37, coarse)

    def test_matches_order_by_order(self):
        for f in self._densities():
            got = renyi_entropies(f, self.ORDERS)
            assert got == tuple(_renyi_entropy_reference(f, p) for p in self.ORDERS)
            assert got == tuple(renyi_entropy(f, p) for p in self.ORDERS)
            # each order's number does not depend on the others asked with it
            assert renyi_entropies(f, self.ORDERS[::-1]) == got[::-1]
            for p, h in zip(self.ORDERS, got):
                assert renyi_entropies(f, ("inf", p)) == (got[-1], h)

    def test_empty_orders(self):
        for f in self._densities():
            assert renyi_entropies(f, ()) == ()

    def test_zero_density_raises(self):
        f = make_grid(0.0, 1.0, [0.0, 0.0, 0.0])
        with pytest.raises(ZeroMass):
            renyi_entropies(f, self.ORDERS)


class TestLogSumExp:
    """The general-order branch's log-sum-exp matches scipy's bit for bit."""

    ORDERS = (1e-4, 0.5, 2.0, 1e4)

    @staticmethod
    def _assert_bitwise(a, b):
        expected = float(logsumexp(a, b=b))
        got = _log_sum_exp(a, b)
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    @pytest.mark.parametrize("p", ORDERS)
    def test_random_arrays(self, p):
        rng = np.random.default_rng(40)
        for _ in range(50):
            n = int(rng.integers(1, 9000))
            v = rng.random(n) * 10.0 ** rng.integers(-6, 7)
            b = rng.random(n) + 1e-3
            self._assert_bitwise(p * np.log(v), b)

    @pytest.mark.parametrize("p", ORDERS)
    def test_ties_at_the_max(self, p):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 5000))
            v = rng.random(n)
            v[rng.integers(0, n, size=max(2, n // 7))] = v.max()
            self._assert_bitwise(p * np.log(v), np.full(n, 1.0 / 1024))
        # a flat density: every entry is the maximum
        self._assert_bitwise(p * np.log(np.full(300, 0.25)), np.full(300, 0.01))

    def test_leaves_its_input_unchanged(self):
        # the shifted terms are formed in a scratch array, not in a
        rng = np.random.default_rng(44)
        v = rng.random(2000)
        v[::9] = v.max()
        a, b = 0.5 * np.log(v), rng.random(2000) + 1e-3
        a_before, b_before = a.copy(), b.copy()
        self._assert_bitwise(a, b)
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)

    @pytest.mark.parametrize("p", ORDERS)
    def test_radial_density_measures(self, p):
        # a sorted profile, tied at its maximum, weighted by the volumes of
        # the shells of width 0.01 in R^dim (up to the unit-ball factor)
        rng = np.random.default_rng(42)
        r = np.arange(401) * 0.01
        for dim in (2, 3, 7):
            prof = np.sort(rng.random(400))[::-1].copy()
            prof[:40] = prof[0]
            meas = np.diff(r ** dim)
            self._assert_bitwise(p * np.log(prof), meas)


class TestDivergence:
    def test_self_divergence_zero(self):
        f = random_density(DensityGeneratorSpec(kind="gaussian-mixture", seed=31,
                                                cells=256))
        for alpha in (0.3, 0.5, 1.0):
            assert renyi_divergence(f, f, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_kl_between_gaussians(self):
        # D(N(0,s1^2) || N(m,s2^2)) has the textbook closed form
        s1, s2, m = 0.8, 1.25, 0.4
        dx = 14.0 / 8192
        f = gaussian_on_grid(0.0, s1, -7.0, dx, 8192)
        g = gaussian_on_grid(m, s2, -7.0, dx, 8192)
        expected = (math.log(s2 / s1)
                    + (s1 * s1 + m * m) / (2.0 * s2 * s2) - 0.5)
        assert renyi_divergence(f, g, 1.0) == pytest.approx(expected, abs=1e-5)

    def test_bhattacharyya_affinity(self):
        # int sqrt(f g) for two Gaussians
        s1, s2, m = 1.0, 0.6, 0.9
        dx = 10.0 / 4096
        f = gaussian_on_grid(0.0, s1, -5.0, dx, 4096)
        g = gaussian_on_grid(m, s2, -5.0, dx, 4096)
        expected = math.sqrt(2.0 * s1 * s2 / (s1 * s1 + s2 * s2)) * math.exp(
            -m * m / (4.0 * (s1 * s1 + s2 * s2)))
        assert renyi_affinity(f, g, 0.5) == pytest.approx(expected, rel=1e-5)

    def test_kl_infinite_on_support_violation(self):
        f = uniform_interval(0.0, 2.0, cells=64)
        g_vals = np.zeros(64)
        g_vals[:32] = 1.0 / (32 * (2.0 / 64))
        g = make_grid(0.0, 2.0 / 64, g_vals)
        assert renyi_divergence(f, g, 1.0) == math.inf

    def test_alpha_validation(self):
        f = uniform_interval(0.0, 1.0, cells=16)
        with pytest.raises(OrderOutOfRange):
            renyi_divergence(f, f, 1.5)
        with pytest.raises(OrderOutOfRange):
            renyi_affinity(f, f, 1.0)

    def test_contraction_under_rearrangement(self):
        for seed in (41, 42, 43):
            f = random_density(DensityGeneratorSpec(kind="gaussian-mixture",
                                                    seed=seed, cells=256))
            g = random_density(DensityGeneratorSpec(kind="gaussian-mixture",
                                                    seed=seed + 100, cells=256))
            for alpha in (0.3, 1.0):
                d_orig = renyi_divergence(f, g, alpha)
                d_star = renyi_divergence(rearrange_1d(f), rearrange_1d(g), alpha)
                assert d_star <= d_orig + 1e-10

    def test_grid_mismatch(self):
        f = uniform_interval(0.0, 1.0, cells=16)
        g = uniform_interval(0.0, 1.0, cells=32)
        with pytest.raises(GridMismatch):
            renyi_divergence(f, g, 0.5)


class TestFisherInformation:
    def test_gaussian_value(self):
        for sigma in (0.7, 1.0, 1.6):
            g = _gaussian(sigma)
            assert fisher_information(g) == pytest.approx(1.0 / sigma ** 2,
                                                          rel=1e-3)

    def test_decreases_under_rearrangement(self):
        for seed in (51, 52, 53, 54):
            f = random_density(DensityGeneratorSpec(kind="gaussian-mixture",
                                                    seed=seed, cells=1024))
            assert fisher_information(rearrange_1d(f)) <= (
                fisher_information(f) * (1.0 + 0.01))


class TestMixtureBound:
    def test_disjoint_supports_attain_equality(self):
        # h(mix) = sum w_i h_i + H(w) exactly when supports are disjoint;
        # both components live on one shared grid over [0, 4]
        dx = 4.0 / 256
        a = np.zeros(256)
        a[:64] = 1.0  # uniform on [0, 1]
        b = np.zeros(256)
        b[128:192] = 1.0  # uniform on [2, 3]
        f = make_grid(0.0, dx, a)
        g = make_grid(0.0, dx, b)
        rep = mixture_entropy_bound_check(Group((f, g)), [0.5, 0.5])
        assert rep.passed
        assert rep.margin == pytest.approx(0.0, abs=1e-12)
        assert rep.lhs == pytest.approx(math.log(2.0), abs=1e-12)

    def test_weight_validation(self):
        f = uniform_interval(0.0, 1.0, cells=16)
        with pytest.raises(WeightSum):
            mixture_entropy_bound_check(Group((f, f)), [0.7, 0.7])
        with pytest.raises(WeightSum):
            mixture_entropy_bound_check(Group((f, f)), [1.5, -0.5])
