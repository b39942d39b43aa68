import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma

from renyi_rearrange import (
    BetaOutOfRange,
    GAUSSIAN_ENTROPY_POWER,
    OrderOutOfRange,
    beta_of_p,
    entropy_power,
    generalized_gaussian,
    gg_exponent,
    gg_normalizer,
    renyi_entropy,
    uniform_interval,
    variance,
)


class TestBetaOfP:
    def test_anchors(self):
        assert beta_of_p(2.0, 1) == pytest.approx(0.4, abs=1e-15)
        assert beta_of_p(1.0, 1) == 0.0
        assert beta_of_p(math.inf, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert beta_of_p(math.inf, 2) == pytest.approx(0.5, abs=1e-15)

    def test_negative_branch(self):
        # below p = 1 the extremals become heavy tailed
        assert beta_of_p(0.5, 1) < 0.0

    def test_boundary_excluded(self):
        with pytest.raises(OrderOutOfRange):
            beta_of_p(1.0 / 3.0, 1)
        with pytest.raises(OrderOutOfRange):
            beta_of_p(0.2, 1)

    @pytest.mark.parametrize("p", [math.nan, -math.inf])
    def test_non_order_rejected(self, p):
        # nan compares false with every bound, and -inf is not the p = inf case
        with pytest.raises(OrderOutOfRange):
            beta_of_p(p, 1)


class TestNormalizer:
    def test_beta_04_exact_value(self):
        # exponent 1, support [-sqrt(5), sqrt(5)]: A = 3 / (4 sqrt(5))
        assert gg_exponent(0.4, 1) == pytest.approx(1.0, abs=1e-15)
        assert gg_normalizer(1, 0.4) == pytest.approx(3.0 / (4.0 * math.sqrt(5.0)),
                                                      rel=1e-10)

    def test_gamma_function_cross_check(self):
        # for n = 1, beta > 0 the normalizer has a Beta-function closed
        # form: A = Gamma(e + 3/2) / (R sqrt(pi) Gamma(e + 1)), R = sqrt(2/beta)
        for beta in (0.1, 0.4, 0.65):
            e = gg_exponent(beta, 1)
            r = math.sqrt(2.0 / beta)
            closed = gamma(e + 1.5) / (r * math.sqrt(math.pi) * gamma(e + 1.0))
            assert gg_normalizer(1, beta) == pytest.approx(closed, rel=1e-9)

    def test_gaussian_case(self):
        assert gg_normalizer(1, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                                      rel=1e-12)

    def test_rejects_nonintegrable(self):
        with pytest.raises(BetaOutOfRange):
            gg_normalizer(1, 5.0)


class TestGeneralizedGaussian:
    @pytest.mark.parametrize("beta", [-1.0, 0.0, 0.4])
    def test_unit_second_moment(self, beta):
        f = generalized_gaussian(beta)
        assert f.mass == pytest.approx(1.0, abs=1e-9)
        assert variance(f) == pytest.approx(1.0, rel=5e-3)

    def test_p_infinity_is_uniform(self):
        # beta = 2/3 in one dimension: flat on [-sqrt(3), sqrt(3)]
        f = generalized_gaussian(2.0 / 3.0)
        assert f.support_measure == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)
        assert f.max_value == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), rel=1e-10)
        inside = f.values[f.values > 0]
        assert float(inside.std() / inside.mean()) < 1e-12

    def test_heavy_tail_is_student_like(self):
        # beta = -1: density proportional to (1 + x^2/2)^(-5/2), a scaled
        # Student t with four degrees of freedom
        f = generalized_gaussian(-1.0)
        mid = f.midpoints
        shape = (1.0 + mid ** 2 / 2.0) ** (-2.5)
        ratio = f.values / shape
        # exact profile shape; the constant differs from the quadrature
        # normalizer only by the final grid renormalization
        assert float(ratio.std() / ratio.mean()) < 1e-12
        assert float(ratio.mean()) == pytest.approx(gg_normalizer(1, -1.0), rel=1e-5)


def np_closed_form(p, n):
    """Closed-form entropy power N_p(Z^(p)) of the order-p maximizer.

    Returns 2*pi*e exactly at p = 1; otherwise evaluates
    A_beta^(-2/n) (1 - n beta_p/2)^(2/(n(1-p))) with A_beta from
    gg_normalizer.
    """
    if p == 1.0:
        return GAUSSIAN_ENTROPY_POWER
    beta = beta_of_p(p, n)
    a = gg_normalizer(n, beta)
    return a ** (-2.0 / n) * (1.0 - n * beta / 2.0) ** (2.0 / (n * (1.0 - p)))


class TestClosedFormEntropyPower:
    def test_shannon_case(self):
        assert np_closed_form(1.0, 1) == GAUSSIAN_ENTROPY_POWER

    def test_p2_exact_fraction(self):
        # N_2 of the beta = 0.4 extremal is 125/9
        assert np_closed_form(2.0, 1) == pytest.approx(125.0 / 9.0, rel=1e-12)

    def test_sup_case(self):
        assert np_closed_form(math.inf, 1) == pytest.approx(12.0, rel=1e-12)

    @pytest.mark.parametrize("p,rel", [(1.5, 1e-6), (2.0, 1e-6), (3.0, 1e-5)])
    def test_matches_grid_entropy(self, p, rel):
        f = generalized_gaussian(beta_of_p(p, 1))
        assert entropy_power(f, p) == pytest.approx(np_closed_form(p, 1), rel=rel)

    def test_matches_grid_entropy_heavy_tail(self):
        # p < 1 extremals have polynomial tails, so the truncation to a
        # finite window costs more accuracy than the compact cases
        p = 0.7
        f = generalized_gaussian(beta_of_p(p, 1))
        assert entropy_power(f, p) == pytest.approx(np_closed_form(p, 1), rel=2e-3)

    def test_dimension_two(self):
        # the closed forms at n = 2 against radial quadrature in the plane
        # of the order-2 maximizer (1 - beta r^2 / 2)_+^m
        p, n = 2.0, 2
        beta = beta_of_p(p, n)
        m = gg_exponent(beta, n)
        radius = math.sqrt(2.0 / beta)

        def planar(func):
            return integrate.quad(lambda r: 2.0 * math.pi * r * func(r), 0.0, radius)[0]

        def shape(r):
            return (1.0 - 0.5 * beta * r * r) ** m

        a = 1.0 / planar(shape)
        assert gg_normalizer(n, beta) == pytest.approx(a, rel=1e-10)
        # N_2 = exp(2 h_2 / n), h_2 = -log int g^2
        l2 = planar(lambda r: (a * shape(r)) ** 2)
        assert np_closed_form(p, n) == pytest.approx(l2 ** (-2.0 / n), rel=1e-10)


class TestSimpleDensities:
    def test_uniform_interval(self):
        f = uniform_interval(-2.0, 3.0, cells=50)
        assert f.mass == pytest.approx(1.0, rel=1e-14)
        assert renyi_entropy(f, 1.0) == pytest.approx(math.log(5.0), abs=1e-12)
