import math

import pytest

from renyi_rearrange import (
    CONJECTURE_LABEL,
    Group,
    OrderOutOfRange,
    UnsupportedDimension,
    bobkov_chistyakov_bound_check,
    bobkov_constant,
    c_constant,
    ratio_landscape,
    uniform_interval,
)

# the p = 2, n = 1 constant in closed (radical) form
C_21_EXACT = 166753125.0 / (
    16.0 * (573635.0 * math.sqrt(2.5) / 2.0 - 142365.0 * math.sqrt(10.0)) ** 2)


class TestSharpConstant:
    def test_p2_matches_radical(self):
        assert C_21_EXACT == pytest.approx(0.956668, abs=5e-7)
        assert c_constant(2.0, 1) == pytest.approx(C_21_EXACT, abs=5e-4)

    def test_two_resolutions_agree(self):
        a = c_constant(2.0, 1, cells=8192)
        b = c_constant(2.0, 1, cells=4096)
        assert abs(a - b) < 2e-4

    def test_endpoints(self):
        # Gaussians make the ratio exactly 1; uniforms exactly 1/2
        assert c_constant(1.0, 1) == 1.0
        assert c_constant(math.inf, 1) == 0.5

    def test_between_bobkov_and_one(self):
        c = c_constant(2.0, 1)
        assert bobkov_constant(2.0) <= c <= 1.0

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimension):
            c_constant(2.0, 3)

    def test_order_boundary(self):
        with pytest.raises(OrderOutOfRange):
            c_constant(0.2, 1)

    def test_label_is_exported(self):
        assert CONJECTURE_LABEL == "conjecture-support"


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
        points = ratio_landscape(2.0, [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)],
                                 cells=1024)
        ratios = [pt.ratio for pt in points]
        assert max(ratios) - min(ratios) < 1e-6

    def test_symmetric_in_scales(self):
        a, b = ratio_landscape(2.0, [(0.8, 1.3), (1.3, 0.8)], cells=512)
        assert a.ratio == pytest.approx(b.ratio, rel=1e-10)

    def test_degenerate_scale_tends_to_one(self):
        # one vanishing summand: N_p(a1 Z + a2 Z') -> a1^2 N_p(Z)
        (pt,) = ratio_landscape(2.0, [(1.0, 1e-3)], cells=256)
        assert pt.ratio == pytest.approx(1.0, abs=5e-3)

    def test_diagonal_matches_constant(self):
        (pt,) = ratio_landscape(2.0, [(1.0, 1.0)], cells=2048)
        assert pt.ratio == pytest.approx(c_constant(2.0, 1), abs=2e-4)

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
