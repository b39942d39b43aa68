"""Closed-form geometry of sums of uniform random vectors on balls.

If X and Y are independent and uniform on centered balls of radii r1, r2
in R^n, the density of X + Y at radius r is

    rho(r) = g(r) / (V_n(1) r1^n r2^n B((n+1)/2, 1/2)),

where, writing h(theta) = int_theta^(pi/2) cos^n x dx,

    g(r) = r1^n h(asin((r^2 - r2^2 + r1^2)/(2 r r1)))
         + r2^n h(asin((r^2 - r1^2 + r2^2)/(2 r r2)))     for |r1-r2| < r < r1+r2,
    g(r) = min(r1, r2)^n B((n+1)/2, 1/2)                  for r < |r1-r2|,

and g = 0 beyond r1 + r2.  The two branches share the same limit at
r = |r1 - r2|, which is the value used at the breakpoint itself.  The
differential entropy follows by radial integration:

    h(X+Y) = log(B V_n(1) r1^n r2^n)
           + int_0^(r1+r2) n g(r) r^(n-1) log(1/g(r)) / (r1^n r2^n B) dr.

The cap integral h has the closed form B/2 * I_{cos^2 theta}((n+1)/2, 1/2)
for theta >= 0 (I the regularized incomplete Beta function), with
h(-theta) = B - h(theta); it is evaluated in log space, so log g stays
exact where h itself underflows (h(pi/4) ~ 2^-2048 at n = 4096).  The
radial integral is one adaptive quadrature per piece, and a quadrature
that cannot meet its tolerance raises InaccurateResult instead of
returning its estimate; scipy (betainc, quad) is imported only when they
run.  All n-th powers and normalizers are handled in log space so the
formulas stay finite for dimensions far beyond where V_n(1) r^n
underflows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import BadParameter, DensityOverflow, InaccurateResult, NotIndicator
from .grids import Grid1D, unit_ball_volume
from .convolve import convolve
from .densities import checked_quad
from .reports import VerificationReport, report_geq

__all__ = [
    "BallPair",
    "cap_integral",
    "log_cap_integral",
    "ball_sum_radial",
    "ball_sum_log_radial",
    "ball_sum_entropy",
    "epi_gap_balls",
    "brunn_minkowski_check",
    "log_unit_ball_volume",
    "log_full_cap",
]

_ASIN_GUARD = 1e-12
_LOG2 = math.log(2.0)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_CF_EPS = 1e-15
_CF_FLOOR = 1e-300
_CF_MAX_TERMS = 10_000


def log_unit_ball_volume(n: int) -> float:
    """log V_n(1), stable for any n via lgamma."""
    if n < 1:
        raise BadParameter(f"dimension must be >= 1, got {n}")
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


def log_full_cap(n: int) -> float:
    """log B((n+1)/2, 1/2) = log int_{-pi/2}^{pi/2} cos^n."""
    return (math.lgamma(0.5 * (n + 1)) + math.lgamma(0.5)
            - math.lgamma(0.5 * n + 1.0))


@dataclass(frozen=True)
class BallPair:
    """Dimensions and radii of the two uniform balls being added."""

    dim: int
    r1: float
    r2: float

    def __post_init__(self) -> None:
        if self.dim < 1 or int(self.dim) != self.dim:
            raise BadParameter(f"dim must be a positive integer, got {self.dim}")
        if not (self.r1 > 0.0 and self.r2 > 0.0):
            raise BadParameter(f"radii must be positive, got {self.r1}, {self.r2}")


def log_cap_integral(theta: float, n: int) -> float:
    """log h(theta), h(theta) = int_theta^{pi/2} cos^n x dx, in closed form.

    Substituting s = cos^2 x gives, for theta >= 0,

        h(theta) = B/2 * I_{cos^2 theta}((n+1)/2, 1/2),    B = B((n+1)/2, 1/2),

    with I the regularized incomplete Beta function; for theta < 0 the
    reflection h(theta) = B - h(-theta) applies.  Where I underflows (high
    n, theta away from 0) it is evaluated in log space from its continued
    fraction, in which the factor 1/B of I cancels the B/2 in front.
    """
    from scipy.special import betainc

    if n < 1:
        raise BadParameter(f"dimension must be >= 1, got {n}")
    if not (-math.pi / 2.0 - 1e-12 <= theta <= math.pi / 2.0 + 1e-12):
        raise BadParameter(f"theta must lie in [-pi/2, pi/2], got {theta}")
    t = min(abs(theta), math.pi / 2.0)
    a = 0.5 * (n + 1)
    cos_t = math.cos(t)
    log_full = log_full_cap(n)
    inc = float(betainc(a, 0.5, cos_t * cos_t))
    if inc >= sys.float_info.min:
        log_h = log_full - _LOG2 + math.log(inc)
    else:  # t > 0 here, and cos_t >= cos(pi/2) > 0 in floating point
        log_h = (2.0 * a * math.log(cos_t) + math.log(math.sin(t)) - _LOG2
                 - math.log(a) + _log_beta_cf(a, 0.5, cos_t * cos_t))
    if theta >= 0.0:
        return log_h
    return log_full + math.log1p(-math.exp(log_h - log_full))


def _log_beta_cf(a: float, b: float, x: float) -> float:
    """log of the continued fraction of I_x(a, b) = x^a (1-x)^b cf / (a B(a, b)).

    Modified Lentz evaluation; it converges fast for x < (a+1)/(a+b+2),
    which holds wherever I_x(a, b) is small enough to underflow.
    """
    def guard(v: float) -> float:
        return v if abs(v) > _CF_FLOOR else _CF_FLOOR

    c, d = 1.0, 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    cf = d
    for m in range(1, _CF_MAX_TERMS + 1):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coef in (even, odd):
            d = 1.0 / guard(1.0 + coef * d)
            c = guard(1.0 + coef / c)
            cf *= c * d
        if abs(c * d - 1.0) < _CF_EPS:
            return math.log(cf)
    raise InaccurateResult(
        f"incomplete Beta continued fraction did not converge (a={a}, b={b}, x={x})")


def cap_integral(theta: float, n: int) -> float:
    """h(theta) = int_theta^{pi/2} cos^n x dx (see log_cap_integral)."""
    return math.exp(log_cap_integral(theta, n))


def _clamped_asin(arg: float) -> float:
    if arg > 1.0 + _ASIN_GUARD or arg < -1.0 - _ASIN_GUARD:
        raise BadParameter(f"asin argument {arg} outside [-1, 1] beyond guard")
    return math.asin(min(1.0, max(-1.0, arg)))


def _log_g(bp: BallPair, r: float) -> float:
    """log g(r); -inf outside the support."""
    n, r1, r2 = bp.dim, bp.r1, bp.r2
    lo, hi = abs(r1 - r2), r1 + r2
    if r >= hi:
        return -math.inf
    if r <= lo:
        return n * math.log(min(r1, r2)) + log_full_cap(n)
    t1 = _clamped_asin((r * r - r2 * r2 + r1 * r1) / (2.0 * r * r1))
    t2 = _clamped_asin((r * r - r1 * r1 + r2 * r2) / (2.0 * r * r2))
    a = n * math.log(r1) + log_cap_integral(t1, n)
    b = n * math.log(r2) + log_cap_integral(t2, n)
    return float(np.logaddexp(a, b))


def _log_norm(bp: BallPair) -> float:
    """log of the density normalizer V_n(1) r1^n r2^n B((n+1)/2, 1/2)."""
    n = bp.dim
    return (log_unit_ball_volume(n) + log_full_cap(n)
            + n * (math.log(bp.r1) + math.log(bp.r2)))


def ball_sum_log_radial(bp: BallPair, r: float) -> float:
    """Log-density of X + Y at radius r; -inf outside the support.

    Finite wherever the density is positive, also where the density
    itself is beyond the float range (high dimension, small radii).
    """
    if r < 0.0:
        raise BadParameter(f"radius must be nonnegative, got {r}")
    lg = _log_g(bp, r)
    return lg if lg == -math.inf else lg - _log_norm(bp)


def ball_sum_radial(bp: BallPair, r: float) -> float:
    """Density of X + Y at radius r (X, Y uniform on balls r1, r2)."""
    log_density = ball_sum_log_radial(bp, r)
    if log_density > _LOG_FLOAT_MAX:
        raise DensityOverflow(
            f"density of {bp} at radius {r} is exp({log_density:.6g}), "
            "beyond the float range")
    return math.exp(log_density)


def ball_sum_entropy(bp: BallPair, quad_tol: float = DEFAULT_TOLS.quad_tol) -> float:
    """Differential entropy h(X + Y) from the closed-form radial density.

    The radial integral is split at the breakpoint |r1 - r2| where g
    switches branch; the integrand g log(1/g) vanishes at the outer edge.
    """
    n = bp.dim
    log_norm = _log_norm(bp)
    # w(r) = n V_n(1) r^(n-1) g(r) / norm is the radial pdf of |X + Y|
    log_w_base = math.log(n) + log_unit_ball_volume(n) - log_norm

    def neg_log_density_weighted(r: float) -> float:
        lg = _log_g(bp, r)
        if lg == -math.inf:
            return 0.0
        log_w = log_w_base + lg + (n - 1.0) * math.log(r) if r > 0.0 else -math.inf
        if log_w == -math.inf:
            return 0.0
        return math.exp(log_w) * (log_norm - lg)

    lo, hi = abs(bp.r1 - bp.r2), bp.r1 + bp.r2
    pieces = []
    if lo > 0.0:
        pieces.append((0.0, lo))
    pieces.append((lo, hi))
    total = 0.0
    for a, b in pieces:
        total += checked_quad(neg_log_density_weighted, a, b,
                              f"radial entropy integral of {bp} on [{a}, {b}]",
                              epsabs=quad_tol, epsrel=quad_tol, limit=400)
    return float(total)


def epi_gap_balls(m: int, b1: float, b2: float, lam: float) -> float:
    """Residual entropy-power gap for ball uniforms in dimension m.

    For Z_i uniform on balls of radii b_i the quantity

        h(sqrt(lam) Z1 + sqrt(1-lam) Z2) - lam h(Z1) - (1-lam) h(Z2)

    equals an explicit concavity term (which vanishes when b1 = b2) plus
    an O(log m) remainder; this returns the full difference minus the
    concavity term.
    """
    if not (0.0 < lam < 1.0):
        raise BadParameter(f"lambda must be in (0, 1), got {lam}")
    if not (b1 > 0.0 and b2 > 0.0):
        raise BadParameter("ball radii must be positive")
    bp = BallPair(m, math.sqrt(lam) * b1, math.sqrt(1.0 - lam) * b2)
    h_sum = ball_sum_entropy(bp)
    h1 = log_unit_ball_volume(m) + m * math.log(b1)
    h2 = log_unit_ball_volume(m) + m * math.log(b2)
    concavity = 0.5 * m * (
        math.log(lam * b1 * b1 + (1.0 - lam) * b2 * b2)
        - lam * math.log(b1 * b1) - (1.0 - lam) * math.log(b2 * b2))
    return h_sum - lam * h1 - (1.0 - lam) * h2 - concavity


def _indicator_level(f: Grid1D, rel_tol: float = 1e-9) -> float:
    pos = f.values[f.values > 0.0]
    if pos.size == 0:
        raise NotIndicator("density has empty support")
    lo, hi = float(pos.min()), float(pos.max())
    if hi - lo > rel_tol * hi:
        raise NotIndicator(
            f"density takes several positive levels ({lo} .. {hi})")
    return hi


def brunn_minkowski_check(f: Grid1D, g: Grid1D,
                          tols: Tolerances = DEFAULT_TOLS,
                          seed: int | None = None) -> VerificationReport:
    """Grid Brunn-Minkowski in the entropy form:

        |supp(f * g)| >= |supp f| + |supp g| - 2 dx

    for normalized indicator densities f, g (the p = 0 instance of the
    rearrangement convolution inequality; supports add along each
    interval component, losing one cell per convolution on the grid).
    """
    level_f = _indicator_level(f)
    level_g = _indicator_level(g)
    conv = convolve(f, g, tols)
    lhs = conv.support_measure
    rhs = f.support_measure + g.support_measure
    return report_geq("brunn_minkowski", lhs, rhs, 2.0 * f.dx,
                      params={"level_f": level_f, "level_g": level_g,
                              "dx": f.dx},
                      seed=seed)
