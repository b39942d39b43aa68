import functools
import math
import warnings

import mpmath
import numpy as np
import pytest

from renyi_rearrange import (
    DensityGeneratorSpec,
    DensityOverflow,
    GENERATOR_KINDS,
    GAUSSIAN_ENTROPY_POWER,
    Grid1D,
    GridMismatch,
    Group,
    OrderOutOfRange,
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
    scale_density,
    uniform_interval,
)
from renyi_rearrange.cli import _parse_order
from renyi_rearrange.config import RENYI_NEAR_ONE_WIDTH
from renyi_rearrange.entropy import _log_mass, _log_mean_exp, order, order_label, renyi_affinity
from renyi_rearrange.rearrange import discrete_arrangement


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


@functools.lru_cache(maxsize=None)
def _near_one_density():
    return random_density(DensityGeneratorSpec(kind="gaussian-mixture", seed=0, cells=2048))


def _mass_two_densities():
    f = _near_one_density()
    return {"uniform": make_grid(0.0, 1.0, [1.0, 1.0]),
            "twice the mixture": make_grid(f.x0, f.dx, 2.0 * f.values)}


@functools.lru_cache(maxsize=None)
def _reference_densities():
    """Every generator kind at seeds 0 and 5, and the two mass-2 densities,
    each with its positive values and their logs in 50-digit arithmetic."""
    fs = [random_density(DensityGeneratorSpec(kind=kind, seed=seed, cells=2048))
          for kind in GENERATOR_KINDS for seed in (0, 5)]
    fs += _mass_two_densities().values()
    with mpmath.workdps(50):
        return [(f, [(mpmath.mpf(float(x)), mpmath.log(float(x)))
                     for x in f.values if x > 0.0]) for f in fs]


def _mpmath_renyi(f, p, terms=None, dps=50):
    """h_p(f) = log(int f^p)/(1 - p) in dps-digit arithmetic, from the float
    values of f as they stand (not rescaled to mass 1); terms, if given,
    holds each positive value with its log in that arithmetic."""
    with mpmath.workdps(dps):
        if terms is None:
            terms = [(mpmath.mpf(float(x)), mpmath.log(float(x)))
                     for x in f.values if x > 0.0]
        t = mpmath.mpf(p) - 1
        power_sum = mpmath.fsum(v * mpmath.exp(t * log_v) for v, log_v in terms)
        return float(mpmath.log(power_sum * mpmath.mpf(f.dx)) / -t)


NEAR_ONE_STEPS = (1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 9.99e-4)


class TestNearOrderOne:
    """Orders near 1 take the expm1 sum: the quotient
    log(int f^p)/(1 - p) divides its rounding by |1 - p| and erred by
    2.6e-2 at p = 1 - 1e-14 and 2.3e-4 at 1 + 1e-12 on the seed-0
    gaussian mixture."""

    @pytest.mark.parametrize("t", [s * t for t in NEAR_ONE_STEPS for s in (-1.0, 1.0)])
    def test_matches_a_50_digit_reference(self, t):
        # a few ulp of the value, from |t| = 1e-14 to the window's edge
        p = 1.0 + t
        for f, terms in _reference_densities():
            want = _mpmath_renyi(f, p, terms)
            assert abs(renyi_entropy(f, p) - want) <= 1e-14 * max(1.0, abs(want))

    @pytest.mark.parametrize("name", ["uniform", "twice the mixture"])
    def test_mass_two_keeps_its_mass_term(self, name):
        # h_p(f) = p log(m)/(1 - p) + h_p(f/m): about -6.9e5 at p = 1 + 1e-6
        # for m = 2, so the bound allows a few ulp of the value on top
        f = _mass_two_densities()[name]
        w = RENYI_NEAR_ONE_WIDTH
        for t in (1e-6, w * (1.0 - 1e-9), w * (1.0 + 1e-9)):
            for p in (1.0 - t, 1.0 + t):
                want = _mpmath_renyi(f, p)
                assert abs(renyi_entropy(f, p) - want) <= 1e-9 + 1e-15 * abs(want)
        assert renyi_entropy(f, 1.0 + 1e-6) < -6.9e5

    def test_tiny_mass(self):
        # mass 4e-20: m - 1 rounds to -1, so log m is read from m itself;
        # log1p(-1) raised a bare "math domain error" here
        f = make_grid(0.0, 1.0, [1e-20, 3e-20])
        for p in (1.0 - 1e-6, 1.0 + 1e-6):
            want = _mpmath_renyi(f, p)
            assert abs(renyi_entropy(f, p) - want) <= 1e-14 * abs(want)

    def test_byte_order_of_the_values(self):
        # the mass is summed from the values as Python floats, read the
        # same from a big-endian array
        f = _near_one_density()
        swapped = Grid1D(f.x0, f.dx, f.values.astype(">f8"))
        for p in (1.0 - 1e-6, 1.0 + 1e-6):
            assert renyi_entropy(swapped, p) == renyi_entropy(f, p)

    @pytest.mark.parametrize("kind", ["gaussian-mixture", "uniform-mixture"])
    def test_window_edges_meet_the_quotient(self, kind):
        # mass 1, so h_p moves by about k2/2 * 2e-9 w between the two orders;
        # outside, the quotient's rounding over |t| = 1e-3 is ~2e-12
        f = random_density(DensityGeneratorSpec(kind=kind, seed=0, cells=2048))
        w = RENYI_NEAR_ONE_WIDTH
        for side in (1.0, -1.0):
            inside = renyi_entropy(f, 1.0 + side * w * (1.0 - 1e-9))
            outside = renyi_entropy(f, 1.0 + side * w * (1.0 + 1e-9))
            assert abs(inside - outside) <= 1e-11

    def test_nonincreasing_through_the_window(self):
        f = _near_one_density()
        w = RENYI_NEAR_ONE_WIDTH
        orders = [1.0 - 3.0 * w, 1.0 - 1.001 * w, 1.0 - 0.999 * w, 1.0 - 1e-7, 1.0,
                  1.0 + 1e-7, 1.0 + 0.999 * w, 1.0 + 1.001 * w, 1.0 + 3.0 * w]
        values = renyi_entropies(f, orders)
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[4] == renyi_entropy(f, 1.0)


def _power_form(v, scale, p, dx):
    """h_p from the power sum of v / scale."""
    power_sum = float(np.sum((v / scale) ** p))
    return (p / (1.0 - p)) * math.log(scale) + (
        math.log(power_sum) + math.log(dx)) / (1.0 - p)


def _renyi_entropy_reference(f, p):
    """h_p(f) for one order outside the window around 1, each order
    reading the values of f afresh: the power sum of the ratios v / M at
    p >= 1/16, of the values v themselves below it."""
    p = float(p)
    v = f.values[f.values > 0.0]
    if v.size == 0:
        raise ZeroMass("entropy of an identically zero density")
    if p == 0.0:
        return math.log(v.size * f.dx)
    if p == math.inf:
        return float(-np.log(v.max()))
    if p == 1.0:
        return float(-np.sum(v * np.log(v)) * f.dx)
    return _power_form(v, v.max() if p >= 1.0 / 16.0 else 1.0, p, f.dx)


class TestRenyiEntropies:
    """One layer pass for many orders gives the per-order numbers bit for bit."""

    ORDERS = (0.0, 1e-4, 0.06, 1.0 / 16.0, 0.5, 1.0, 2.0, 1e4, math.inf)

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

    # (values, orders): every cell positive, so the values are read in place;
    # zero cells, so they are gathered; a maximum taken by several cells; and
    # orders from 1e-320 (where every term v^p rounds to 1) to 1.7e308, on
    # both sides of the 1/16 rule
    TINY_TO_HUGE = (1e-320, 1e-300, 0.06, 1.0 / 16.0, 0.5, 2.0, 1e300, 1.7e308)
    ORACLE_CASES = {
        "all-positive": (np.random.default_rng(45).random(900) + 1e-3, ORDERS),
        "zero-cells": (np.where(np.arange(800) % 7 == 3, 0.0,
                                np.random.default_rng(46).random(800)), ORDERS),
        "tied-max": (np.tile([0.25, 1.0, 0.5, 1.0, 0.125], 60), ORDERS),
        "underflow-near-max": ([1.0, 1.0 - 1e-6, 0.5, 0.0, 0.25, 1.0], TINY_TO_HUGE),
        "underflow-sets-the-bits": ([1.0, 1.0 - 1e-6, 0.5], TINY_TO_HUGE),
    }

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_the_oracle(self, case):
        values, orders = self.ORACLE_CASES[case]
        f = make_grid(-1.0, 1.0, values)
        assert renyi_entropies(f, orders) == tuple(
            _renyi_entropy_reference(f, p) for p in orders)

    def test_empty_orders(self):
        for f in self._densities():
            assert renyi_entropies(f, ()) == ()

    def test_zero_density_raises(self):
        f = make_grid(0.0, 1.0, [0.0, 0.0, 0.0])
        with pytest.raises(ZeroMass):
            renyi_entropies(f, self.ORDERS)

    def test_order_zero_is_the_log_support_measure(self):
        fs = self._densities() + (
            random_density(DensityGeneratorSpec(kind="spiky-piecewise", seed=5,
                                                cells=999)),
            make_grid(1.0, 0.1, [0.0, 3.0, 0.0]),
            make_grid(-7.0, 1e-9, np.full(4097, 1e9 / 4097)))
        for f in fs:
            assert renyi_entropy(f, 0.0) == math.log(f.support_measure)


def _one_log_entropies(f, orders):
    """renyi_entropies as it read every order from one log of the values
    and one array of the ratios v / M, both kept for the whole call, with
    each power sum in a scratch array of its own: the reference for the
    bits of the reader that forms each order's log or powers afresh and
    consumes them in place."""
    orders = [order(p) for p in orders]
    v = f.values if f.values.min(initial=math.inf) > 0.0 else f.values[f.values > 0.0]
    if v.size == 0:
        raise ZeroMass("entropy of an identically zero density")
    log_v = log_mass = ratios = None
    out = []
    for p in orders:
        if p == 0.0:
            h = math.log(v.size * f.dx)
        elif math.isinf(p):
            h = float(-np.log(v.max()))
        elif abs(p - 1.0) >= RENYI_NEAR_ONE_WIDTH:
            if p < 1.0 / 16.0:
                power_sum, log_scale = float(np.sum(v ** p)), 0.0
            else:
                if ratios is None:
                    ratios = v / v.max()
                power_sum, log_scale = float(np.sum(ratios ** p)), math.log(v.max())
            h = (p / (1.0 - p)) * log_scale + (
                math.log(power_sum) + math.log(f.dx)) / (1.0 - p)
        else:
            if log_v is None:
                log_v = np.log(v)
            t = p - 1.0
            if p == 1.0:
                h = float(-np.sum(v * log_v) * f.dx)
            else:
                if log_mass is None:
                    log_mass = _log_mass(v, f.dx)
                h = -(log_mass + _log_mean_exp(v, log_v, t)) / t
        out.append(h)
    return tuple(out)


class TestOneLogReader:
    """Each order's log or powers formed in its own scratch array and
    consumed there give the bits of one log and one ratio array kept for
    every order."""

    ORDERS = (1e-300, 0.06, 1.0 / 16.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0,
              1.7e308, math.inf)

    @staticmethod
    def _cases():
        rng = np.random.default_rng(47)
        for n in (2, 7, 300, 4099):  # the last past numpy's SIMD blocks
            yield rng.random(n) + 1e-3
            vals = rng.random(n)
            vals[rng.integers(1, n, size=n // 5)] = 0.0  # gathered, cell 0 kept
            yield vals
        for n in (5, 512):  # ties at the maximum
            vals = rng.random(n)
            vals[rng.integers(0, n, size=max(2, n // 7))] = vals.max()
            yield vals
        yield np.array([3.0])  # one cell
        yield np.full(64, 0.25)  # every cell the maximum
        tiny = np.finfo(float).tiny
        for n in (6, 1000):  # subnormal cells beside normal ones
            vals = rng.random(n)
            vals[::3] = tiny * rng.random(vals[::3].size)
            vals[1] = 5e-324
            yield vals
        yield np.array([5e-324, 1e-310, 2.2e-308])  # every cell subnormal or near it

    @pytest.mark.parametrize("dx", (1.0, 0.01))
    def test_matches_the_one_log_reader(self, dx):
        for values in self._cases():
            f = make_grid(0.0, dx, values)
            got = renyi_entropies(f, self.ORDERS)
            assert [h.hex() for h in got] == [
                h.hex() for h in _one_log_entropies(f, self.ORDERS)], values[:8]

    def test_consuming_an_order_leaves_the_next(self):
        # every order after every other one, the values left as they were
        orders = self.ORDERS[:-1]
        for values in self._cases():
            f = make_grid(0.0, 0.5, values)
            before = f.values.copy()
            alone = {p: renyi_entropies(f, (p,))[0].hex() for p in orders}
            for first in orders:
                for p in orders:
                    assert renyi_entropies(f, (first, p))[1].hex() == alone[p]
            assert np.array_equal(f.values, before)


class TestHugeOrders:
    """Orders up to the largest float approach h_inf without overflow.

    The power sum is read from the ratios v / M to the maximum M, so each
    term (v / M)^p is at most 1 and a term too small for a float only
    drops out; unshifted, v^p overflows to +inf (M > 1) or underflows to
    0 for every cell (M < 1).
    """

    DENSITIES = (
        make_grid(0.0, 10.0, [0.02, 0.04, 0.04]),        # M < 1
        make_grid(0.0, 0.1, [2.0, 4.0, 4.0, 0.0]),       # M > 1
        make_grid(-1.0, 0.25, [1e-3, 0.5, 3.0, 0.0, 0.499]),  # p log(v/M) < -1.8e308
    )

    @pytest.mark.parametrize("p", (1e300, 1e308, 1.7e308))
    def test_close_to_the_sup_entropy(self, p):
        for f in self.DENSITIES:
            h_inf = renyi_entropy(f, math.inf)
            assert abs(renyi_entropy(f, p) - h_inf) <= 1e-12
            assert renyi_entropies(f, (p, math.inf))[0] == renyi_entropy(f, p)

    def test_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in self.DENSITIES:
                renyi_entropies(f, (1e300, 1e308, 1.7e308, 1e-300, 0.06, 1.0 / 16.0))


def _mpmath_power_entropy(v, dx, p):
    """h_p = log(sum v^p dx)/(1 - p) in 200-bit arithmetic, from the float
    values v as they stand."""
    with mpmath.workprec(200):
        q = mpmath.mpf(p)
        power_sum = mpmath.fsum(mpmath.mpf(float(x)) ** q for x in v)
        return mpmath.log(power_sum * mpmath.mpf(dx)) / (1 - q)


class TestPowerSumAccuracy:
    """h_p against 200-bit arithmetic, on both sides of the 1/16 rule.

    The reader adds (p/(1-p)) log s and (log S + log dx)/(1-p), with
    S = sum (v/s)^p.  At p >= 1/16 the scale s is the maximum M, so S
    lies in [1, n] and each term carries up to p/2 ulp from the rounding
    of v/M; below 1/16 s = 1, and S = sum v^p lies in [M^p, n M^p].
    Either way each of the seven roundings (p/(1-p), log s, their
    product, log S, log dx, the division and the sum) is at most half an
    ulp of C = (p |log M| + p + log n + |log dx|)/|1 - p|, so h_p is held
    to 4 ulp of C.  The worst case reads 1.32 ulp of C (p = 1e4 on the
    1e9 and 1e-320 cells), and below 1/16 0.45 ulp of C (p = 0.03 on the
    same cells).
    """

    ORDERS = (1e-320, 1e-300, 1e-4, 0.03, 0.06, 0.0624, 1.0 / 16.0, 0.5, 2.0, 3.5, 1e4)
    DX = 1e-3

    _U = np.random.default_rng(48).random((4, 1000))
    CASES = {"uniform": _U[0],
             "log-uniform over 60 e-folds": np.exp(-60.0 * _U[1]),
             "log-uniform over 700 e-folds": np.exp(-700.0 * _U[2]),
             "scaled by 1e200": 1e200 * _U[3],
             # each ratio v/M = 1e-329 underflows to 0, though its term at
             # p = 1e-4 is 0.93: a sum of the ratios' powers at that order
             # would drop 999 * 0.93 of the sum, and h_p would read 6.8 too
             # low; the values' own powers keep it
             "1e9 beside cells of 1e-320": np.where(np.arange(1000) == 333, 1e9, 1e-320),
             "every cell the maximum": np.full(1000, 0.37),
             "every cell subnormal": np.finfo(float).tiny * (_U[0] + 1e-3) / 2.0}

    @pytest.mark.parametrize("case", CASES)
    def test_within_four_ulp_of_the_scale(self, case):
        v = self.CASES[case]
        got = renyi_entropies(make_grid(0.0, self.DX, v), self.ORDERS)
        log_n_dx = math.log(v.size) + abs(math.log(self.DX))
        for p, h in zip(self.ORDERS, got):
            scale = (p * abs(math.log(v.max())) + p + log_n_dx) / abs(1.0 - p)
            err = abs(mpmath.mpf(h) - _mpmath_power_entropy(v, self.DX, p))
            assert err <= 4.0 * math.ulp(scale), (p, h, float(err))


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


def _mpmath_affinity(a, b, dx, alpha):
    """sum a^alpha b^beta dx in 200-bit arithmetic, beta = 1.0 - alpha as
    the float the reader uses, from the float values a and b."""
    with mpmath.workprec(200):
        x, y = mpmath.mpf(alpha), mpmath.mpf(1.0 - alpha)
        return mpmath.fsum(mpmath.mpf(float(s)) ** x * mpmath.mpf(float(t)) ** y
                           for s, t in zip(a, b)) * mpmath.mpf(dx)


class TestAffinityAccuracy:
    """renyi_affinity against 200-bit arithmetic: within 4 ulp of itself.

    Each term f^alpha g^(1-alpha) rounds twice in its powers and once in
    the product, and the terms are positive, so their sum keeps a few ulp
    of itself.  That holds while the powers and their products are normal
    floats: a term below 2^-1022 is subnormal and keeps an absolute error
    only, so no pair here reaches below 2^-1022.  A term formed as
    exp(alpha log f + (1-alpha) log g) errs by 23 ulp at alpha = 0.3 on
    the widest pair, since the exp magnifies the rounding of its argument.
    """

    ALPHAS = (0.01, 0.3, 0.5, 0.99)
    DX = 1e-3

    _U = np.random.default_rng(49).random((4, 1000))
    PAIRS = {"uniform": (_U[0], _U[1]),
             "zero cells": (np.where(np.arange(1000) % 5 == 1, 0.0, _U[2]),
                            np.where(np.arange(1000) % 7 == 4, 0.0, _U[3])),
             "exp(-700 u) against 1e200 u": (np.exp(-700.0 * _U[0]), 1e200 * _U[1])}

    @pytest.mark.parametrize("pair", PAIRS)
    def test_within_four_ulp(self, pair):
        a, b = self.PAIRS[pair]
        f, g = make_grid(0.0, self.DX, a), make_grid(0.0, self.DX, b)
        for alpha in self.ALPHAS:
            got = renyi_affinity(f, g, alpha)
            want = _mpmath_affinity(a, b, self.DX, alpha)
            err = abs(mpmath.mpf(got) - want)
            assert err <= 4.0 * math.ulp(float(want)), (alpha, got, float(err))

    def test_disjoint_supports(self):
        f = make_grid(0.0, 0.5, [1.0, 1.0, 0.0, 0.0])
        g = make_grid(0.0, 0.5, [0.0, 0.0, 1.5, 0.5])
        for alpha in self.ALPHAS:
            assert renyi_affinity(f, g, alpha) == 0.0
            assert renyi_divergence(f, g, alpha) == math.inf


def _mpmath_divergence(f, g, alpha, dps=50):
    """D_alpha(f||g) = log(int f^alpha g^(1-alpha))/(alpha - 1) in
    dps-digit arithmetic, from the float values of f and g."""
    with mpmath.workdps(dps):
        t = 1 - mpmath.mpf(alpha)
        both = (f.values > 0.0) & (g.values > 0.0)
        affinity = mpmath.fsum(
            mpmath.mpf(float(a)) * mpmath.exp(t * (mpmath.log(float(b)) - mpmath.log(float(a))))
            for a, b in zip(f.values[both], g.values[both]))
        return float(mpmath.log(affinity * mpmath.mpf(f.dx)) / -t)


class TestDivergenceNearOne:
    """alpha near 1 reads D_alpha through the expm1 sum; the quotient
    log(affinity)/(alpha - 1) read 2.411111 for 2.402152 at
    alpha = 1 - 1e-14 on the seed-1 and seed-2 gaussian mixtures."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _pairs():
        def density(kind, seed):
            return random_density(DensityGeneratorSpec(kind=kind, seed=seed, cells=2048))
        # the uniform and spiky pairs have cells where f > 0 and g = 0
        return [(density(kind, 1), density(kind, 2))
                for kind in ("gaussian-mixture", "uniform-mixture", "spiky-piecewise")]

    @pytest.mark.parametrize("t", NEAR_ONE_STEPS)
    def test_matches_a_50_digit_reference(self, t):
        for f, g in self._pairs():
            want = _mpmath_divergence(f, g, 1.0 - t)
            assert abs(renyi_divergence(f, g, 1.0 - t) - want) <= 1e-14 * max(1.0, abs(want))

    def test_tiny_shared_mass(self):
        # f puts mass 1e-20 where g lives, so m' - 1 rounds to -1; the log
        # of the mass is then read from the mass itself, not log1p(-1)
        f = make_grid(0.0, 1.0, [1.0, 1e-20])
        g = make_grid(0.0, 1.0, [0.0, 1.0])
        for t in (1e-6, 1e-4):
            want = _mpmath_divergence(f, g, 1.0 - t)
            assert abs(renyi_divergence(f, g, 1.0 - t) - want) <= 1e-14 * abs(want)

    def test_disjoint_supports(self):
        f = make_grid(0.0, 1.0, [1.0, 0.0])
        g = make_grid(0.0, 1.0, [0.0, 1.0])
        assert renyi_divergence(f, g, 1.0 - 1e-6) == math.inf


class TestFisherInformation:
    def test_gaussian_value(self):
        for sigma in (0.7, 1.0, 1.6):
            g = _gaussian(sigma)
            assert fisher_information(g) == pytest.approx(1.0 / sigma ** 2,
                                                          rel=1e-3)

    def test_decreases_under_rearrangement(self):
        # arranged symmetric decreasing on the same cells, exactly, up to
        # the roundoff budget of verifier.check_fisher_monotone
        for seed in (51, 52, 53, 54):
            f = random_density(DensityGeneratorSpec(kind="gaussian-mixture",
                                                    seed=seed, cells=1024))
            lhs, rhs = fisher_information(f), fisher_information(discrete_arrangement(f))
            assert rhs <= lhs + (f.n_cells + 5) * 2.0**-53 * (lhs + rhs)

    @pytest.mark.parametrize("m,dx", [(1, 1.0), (7, 0.1), (64, 1.0 / 3.0), (2048, 8.0 / 2048)])
    def test_uniform_value(self, m, dx):
        # sqrt f jumps by 1/sqrt(m dx) at each end and is flat between
        f = make_grid(0.0, dx, np.full(m, 1.0 / (m * dx)))
        want = 8.0 / (m * dx * dx)
        assert abs(fisher_information(f) - want) <= 4 * np.finfo(float).eps * want

    def test_one_and_two_cells(self):
        # (4/dx) 2 a: sqrt f jumps by sqrt a = 2 at each end
        assert fisher_information(make_grid(0.0, 0.5, [4.0])) == 8.0 * 2.0 * 4.0
        # (4/dx) (a + (sqrt a - sqrt b)^2 + b) with sqrt a = 1, sqrt b = 2
        assert fisher_information(make_grid(0.0, 0.25, [1.0, 4.0])) == 16.0 * 6.0

    def test_zero_density_raises(self):
        with pytest.raises(ZeroMass):
            fisher_information(make_grid(0.0, 1.0, [0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_power_of_four_scaling_is_exact(self, kind):
        # scaling by 4^k scales every sqrt f by 2^-k and dx by 4^k: no rounding
        f = random_density(DensityGeneratorSpec(kind=kind, seed=3, cells=512))
        i_f = fisher_information(f)
        for k in (-3, -1, 1, 2, 5):
            assert fisher_information(scale_density(f, 4.0**k)) == i_f / 16.0**k


class TestMixtureBound:
    def test_disjoint_supports_attain_equality(self):
        # h(mix) = sum h_i / 2 + log 2 exactly when supports are disjoint;
        # both components live on one shared grid over [0, 4]
        dx = 4.0 / 256
        a = np.zeros(256)
        a[:64] = 1.0  # uniform on [0, 1]
        b = np.zeros(256)
        b[128:192] = 1.0  # uniform on [2, 3]
        f = make_grid(0.0, dx, a)
        g = make_grid(0.0, dx, b)
        rep = mixture_entropy_bound_check(Group((f, g)))
        assert rep.passed
        assert rep.margin == pytest.approx(0.0, abs=1e-12)
        assert rep.lhs == pytest.approx(math.log(2.0), abs=1e-12)
