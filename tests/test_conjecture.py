import math

import numpy as np
import pytest

import renyi_rearrange.conjecture as conjecture
from renyi_rearrange import (
    UPPER_BOUND_LABEL,
    BadParameter,
    Group,
    OrderOutOfRange,
    bobkov_chistyakov_bound_check,
    c_constant,
    ratio_landscape,
    uniform_interval,
)
from renyi_rearrange.conjecture import bobkov_constant

# the p = 2, n = 1 constant in closed (radical) form
C_21_EXACT = 166753125.0 / (
    16.0 * (573635.0 * math.sqrt(2.5) / 2.0 - 142365.0 * math.sqrt(10.0)) ** 2)


class TestSharpConstant:
    def test_p2_matches_radical(self):
        assert C_21_EXACT == pytest.approx(0.956668, abs=5e-7)
        assert c_constant(2.0) == pytest.approx(C_21_EXACT, abs=5e-4)

    def test_two_resolutions_agree(self):
        a = c_constant(2.0, cells=8192)
        b = c_constant(2.0, cells=4096)
        assert abs(a - b) < 2e-4

    def test_endpoints(self):
        # Gaussians make the ratio exactly 1; uniforms exactly 1/2
        assert c_constant(1.0) == 1.0
        assert c_constant(math.inf) == 0.5

    def test_between_bobkov_and_one(self):
        c = c_constant(2.0)
        assert bobkov_constant(2.0) <= c <= 1.0

    def test_dimension_guard(self):
        # the one dimension is implied: a dimension passed where cells now
        # stands is refused, not read as a grid size
        for n in (1, 3):
            with pytest.raises(BadParameter, match="cells must be >= 8"):
                c_constant(2.0, n)

    def test_order_boundary(self):
        with pytest.raises(OrderOutOfRange):
            c_constant(0.2)

    def test_label_is_exported(self):
        assert UPPER_BOUND_LABEL == "upper-bound"


class TestBobkovConstant:
    def test_anchors(self):
        assert bobkov_constant(1.0) == 1.0
        assert bobkov_constant(math.inf) == 0.5
        assert bobkov_constant(2.0) == pytest.approx(2.0 / math.e, rel=1e-14)

    def test_general_formula(self):
        for p in (1.5, 3.0, 10.0):
            assert bobkov_constant(p) == pytest.approx(
                p ** (1.0 / (p - 1.0)) / math.e, rel=1e-12)

    def test_decreasing_in_finite_p(self):
        # the finite-order family decreases toward 1/e; the sup-norm
        # constant 1/2 (dimension one) sits above that limit
        values = [bobkov_constant(p) for p in (1.0, 1.2, 2.0, 5.0, 50.0)]
        assert values == sorted(values, reverse=True)
        assert values[-1] > 1.0 / math.e
        assert bobkov_constant(math.inf) == 0.5 > 1.0 / math.e


class TestRatioLandscape:
    def test_scale_invariant_on_diagonal(self):
        points = ratio_landscape(2.0, [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)])
        assert len({pt.ratio for pt in points}) == 1

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.5])
    def test_diagonal_is_the_constant_on_the_landscape_grid(self, p):
        points = ratio_landscape(p, [(0.3, 0.3), (1.0, 1.0), (7.5, 7.5)])
        c = c_constant(p, conjecture.LANDSCAPE_CELLS)
        assert [pt.ratio for pt in points] == [c, c, c]

    def test_ratios_do_not_see_the_absolute_scale(self):
        # 2^j times both scales, with entropy powers of order 2^(+-1200)
        # past the float range at j = +-600, gives the j = 0 floats
        pairs = [(0.8, 1.3), (1.0, 1.0), (2.0, 0.7), (0.5, 1.5)]
        ratios = [[pt.ratio for pt in ratio_landscape(
                       2.0, [(math.ldexp(a1, j), math.ldexp(a2, j)) for a1, a2 in pairs])]
                  for j in (-600, 0, 600)]
        assert ratios[0] == ratios[1] == ratios[2]

    def test_symmetric_in_scales(self):
        a, b = ratio_landscape(2.0, [(0.8, 1.3), (1.3, 0.8)])
        assert a.ratio == b.ratio

    def test_mirrored_pairs_get_the_same_float(self):
        scales = [float(a) for a in np.linspace(0.3, 3.0, 12)]
        grid = [(a1, a2) for a1 in scales for a2 in scales]
        points = ratio_landscape(3.5, grid)
        ratio = {(pt.a1, pt.a2): pt.ratio for pt in points}
        assert [(pt.a1, pt.a2) for pt in points] == grid
        assert all(ratio[a1, a2] == ratio[a2, a1] for a1, a2 in grid)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_one_convolution_per_unordered_pair(self, k, monkeypatch):
        # one convolution per distinct scale ratio max/min: of the k = 5
        # scales' 15 unordered pairs, (0.5, 1) and (0.75, 1.5) share 2,
        # (0.5, 0.75) and (1, 1.5) share 1.5, and the diagonal shares 1
        calls = []
        real = conjecture.convolve

        def counting(f, g):
            calls.append((f.dx, g.dx))
            return real(f, g)

        monkeypatch.setattr(conjecture, "convolve", counting)
        scales = [0.5 + 0.25 * i for i in range(k)]
        ratio_landscape(2.0, [(a1, a2) for a1 in scales for a2 in scales])
        assert len(calls) == {1: 1, 2: 2, 5: 9}[k]
        # the wider factor is resampled onto the maximizer's own spacing
        assert len(set(calls)) == 1 and calls[0][0] == calls[0][1]

    def test_one_forward_transform_call_per_unordered_pair(self, fft_calls):
        # 9 x 9 scales are 45 unordered pairs with 37 distinct scale ratios,
        # each one FFT convolution; a ratio takes one rfft call, the ratio 1
        # too (the maximizer as both factors)
        scales = [float(a) for a in np.linspace(0.5, 2.0, 9)]
        ratio_landscape(2.0, [(a1, a2) for a1 in scales for a2 in scales])
        assert fft_calls == {"rfft": 37, "irfft": 37}

    def test_far_apart_scales_are_refused_before_resampling(self, monkeypatch):
        def no_resample(*args):
            raise AssertionError("resample ran for a refused pair")

        monkeypatch.setattr(conjecture, "resample", no_resample)
        # 2048 * 1e6 cells would be 16 GB of float64
        with pytest.raises(BadParameter, match=r"\(1e-06, 1.0\) would resample "
                                               r"onto 2048000000 cells"):
            ratio_landscape(2.0, [(1.0, 1.0), (1e-6, 1.0)])
        # a scale ratio past the float range is refused too
        with pytest.raises(BadParameter, match="onto inf cells"):
            ratio_landscape(2.0, [(1.0, 5e-324)])

    def test_cell_bound_admits_a_thousandfold_ratio(self, monkeypatch):
        class Reached(Exception):
            pass

        def stop(f, dx_new):
            raise Reached(round(f.n_cells * f.dx / dx_new))

        monkeypatch.setattr(conjecture, "resample", stop)
        with pytest.raises(Reached, match="^2048000$"):
            ratio_landscape(2.0, [(0.001, 1.0)])

    @pytest.mark.parametrize("scale", [1e154, 1e-155])
    def test_entropy_powers_outside_the_float_range(self, scale):
        # N_p(a1 Z1) + N_p(a2 Z2) leaves the normal float range, but the
        # ratio is read at the scale ratio 2 alone
        (pt,) = ratio_landscape(2.0, [(scale, 2.0 * scale)])
        assert pt.ratio == ratio_landscape(2.0, [(1.0, 2.0)])[0].ratio

    @pytest.mark.parametrize("pair", [(0.0, 1.0), (1.0, -1.0), (math.inf, 1.0),
                                      (1.0, math.nan)])
    def test_rejects_bad_scales(self, pair):
        with pytest.raises(BadParameter, match="positive and finite"):
            ratio_landscape(2.0, [(1.0, 1.0), pair])

    def test_degenerate_scale_tends_to_one(self):
        # one vanishing summand: N_p(a1 Z + a2 Z') -> a1^2 N_p(Z)
        (pt,) = ratio_landscape(2.0, [(1.0, 1e-3)])
        assert pt.ratio == pytest.approx(1.0, abs=5e-3)

    def test_diagonal_matches_constant(self):
        (pt,) = ratio_landscape(2.0, [(1.0, 1.0)])
        assert pt.ratio == pytest.approx(c_constant(2.0), abs=2e-4)

    def test_rejects_special_orders(self):
        with pytest.raises(OrderOutOfRange):
            ratio_landscape(1.0, [(1.0, 1.0)])
        with pytest.raises(OrderOutOfRange):
            ratio_landscape(math.inf, [(1.0, 1.0)])
        with pytest.raises(OrderOutOfRange):
            ratio_landscape(0.25, [(1.0, 1.0)])


class TestBoundCheck:
    def test_sup_norm_equality_for_identical_uniforms(self):
        f = uniform_interval(-0.5, 0.5, cells=256)
        rep = bobkov_chistyakov_bound_check(Group((f, f)), math.inf)
        assert rep.passed
        # N_inf(f + f) = 1 = (1/2)(N_inf + N_inf) exactly for this pair
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-3)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_holds_on_mixed_pair(self, p):
        f = uniform_interval(-1.0, 1.0, cells=256)
        g = uniform_interval(-0.25, 0.25, cells=64)
        rep = bobkov_chistyakov_bound_check(Group((f, g)), p)
        assert rep.passed
