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
cap and log g take arrays: one betainc call per array, and the continued
fraction run elementwise on the part where betainc underflows.  The
radial integral is composite Gauss-Legendre refined level by level, each
level one array evaluation of the integrand at the nodes of every
subinterval not yet accurate; an integral that cannot meet its tolerance
raises InaccurateResult instead of returning its estimate.  scipy is
imported (betainc only) when a cap is evaluated.  All n-th powers and
normalizers are handled in log space so the formulas stay finite for
dimensions far beyond where V_n(1) r^n underflows.  epi_gap_balls reads
the dimensional entropy-power gap of two unit balls off one such entropy.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import INDICATOR_REL_TOL, QUAD_TOL
from .errors import BadParameter, DensityOverflow, InaccurateResult, NotIndicator
from .grids import Grid1D
from .convolve import convolve
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
_GL_NODES = 10
_GL_START = 8
_GL_MAX_LEVELS = 50
_GL_MAX_ACTIVE = 4096


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
        if not (0.0 < self.r1 < math.inf and 0.0 < self.r2 < math.inf):
            raise BadParameter(f"radii must be positive and finite, got {self.r1}, {self.r2}")


def _flat(values: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """values as a float array, and its contiguous 1-d view (a copy if need be).

    Scalars go through the same elementwise code as one-element arrays, so
    a scalar call and an array call agree to the last bit.
    """
    arr = np.asarray(values, dtype=float)
    return arr, np.ascontiguousarray(arr.ravel())


def _shaped(out: np.ndarray, arr: np.ndarray) -> float | np.ndarray:
    """out (1-d) in the shape of arr, or a float if arr is a scalar."""
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def log_cap_integral(theta: float | np.ndarray, n: int) -> float | np.ndarray:
    """log h(theta), h(theta) = int_theta^{pi/2} cos^n x dx, in closed form.

    Substituting s = cos^2 x gives, for theta >= 0,

        h(theta) = B/2 * I_{cos^2 theta}((n+1)/2, 1/2),    B = B((n+1)/2, 1/2),

    with I the regularized incomplete Beta function; for theta < 0 the
    reflection h(theta) = B - h(-theta) applies.  Where I underflows (high
    n, theta away from 0) it is evaluated in log space from its continued
    fraction, in which the factor 1/B of I cancels the B/2 in front.
    theta may be a scalar (a float is returned) or an array (elementwise,
    with one betainc call for the whole array).
    """
    from scipy.special import betainc

    if n < 1:
        raise BadParameter(f"dimension must be >= 1, got {n}")
    arr, theta_flat = _flat(theta)
    in_range = np.abs(theta_flat) <= math.pi / 2.0 + 1e-12  # false for nan
    if not in_range.all():
        bad = theta_flat[~in_range][0]
        raise BadParameter(f"theta must lie in [-pi/2, pi/2], got {bad}")
    t = np.minimum(np.abs(theta_flat), math.pi / 2.0)
    a = 0.5 * (n + 1)
    cos_t = np.cos(t)
    x = cos_t * cos_t
    log_full = log_full_cap(n)
    inc = betainc(a, 0.5, x)
    log_h = np.empty_like(t)
    normal = inc >= sys.float_info.min
    log_h[normal] = log_full - _LOG2 + np.log(inc[normal])
    under = ~normal
    if under.any():  # t > 0 there, and cos_t >= cos(pi/2) > 0 in floating point
        log_h[under] = (2.0 * a * np.log(cos_t[under]) + np.log(np.sin(t[under]))
                        - _LOG2 - math.log(a) + _log_beta_cf(a, 0.5, x[under]))
    neg = theta_flat < 0.0
    if neg.any():
        log_h[neg] = log_full + np.log1p(-np.exp(log_h[neg] - log_full))
    return _shaped(log_h, arr)


def _guard(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) > _CF_FLOOR, v, _CF_FLOOR)


def _log_beta_cf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """log of the continued fraction of I_x(a, b) = x^a (1-x)^b cf / (a B(a, b)).

    Modified Lentz evaluation, elementwise over the array x; each element
    stops at its own convergence, as it would alone.  It converges fast for
    x < (a+1)/(a+b+2), which holds wherever I_x(a, b) is small enough to
    underflow.
    """
    out = np.empty_like(x)
    idx = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 / _guard(1.0 - (a + b) * x / (a + 1.0))
    cf = d.copy()
    for m in range(1, _CF_MAX_TERMS + 1):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coef in (even, odd):
            d = 1.0 / _guard(1.0 + coef * d)
            c = _guard(1.0 + coef / c)
            cf *= c * d
        done = np.abs(c * d - 1.0) < _CF_EPS
        if done.any():
            out[idx[done]] = np.log(cf[done])
            more = ~done
            if not more.any():
                return out
            idx, x, c, d, cf = idx[more], x[more], c[more], d[more], cf[more]
    raise InaccurateResult(
        f"incomplete Beta continued fraction did not converge at {x.size} points "
        f"(a={a}, b={b}, first x={x[0]})")


def cap_integral(theta: float, n: int) -> float:
    """h(theta) = int_theta^{pi/2} cos^n x dx (see log_cap_integral).

    Nothing in the package calls it; it stays in __all__ because the
    benchmark's per-layer metrics name balls.cap_integral, and its trace
    reads them from the functions listed there.
    """
    return math.exp(log_cap_integral(theta, n))


def _clamped_asin(arg: np.ndarray) -> np.ndarray:
    outside = (arg > 1.0 + _ASIN_GUARD) | (arg < -1.0 - _ASIN_GUARD)
    if outside.any():
        raise BadParameter(f"asin argument {arg[outside][0]} outside [-1, 1] beyond guard")
    return np.arcsin(np.clip(arg, -1.0, 1.0))


def _log_g(bp: BallPair, r: float | np.ndarray) -> float | np.ndarray:
    """log g(r), elementwise for an array r (a float for a scalar r);
    -inf outside the support.  The caps of both balls at every radius
    inside the lens branch take one log_cap_integral call."""
    n, r1, r2 = bp.dim, bp.r1, bp.r2
    lo, hi = abs(r1 - r2), r1 + r2
    arr, r_flat = _flat(r)
    out = np.full(r_flat.shape, -np.inf)
    out[r_flat <= lo] = n * math.log(min(r1, r2)) + log_full_cap(n)
    lens = (r_flat > lo) & (r_flat < hi)
    if lens.any():
        s = r_flat[lens]
        args = np.concatenate(((s * s - r2 * r2 + r1 * r1) / (2.0 * s * r1),
                               (s * s - r1 * r1 + r2 * r2) / (2.0 * s * r2)))
        caps = log_cap_integral(_clamped_asin(args), n)
        out[lens] = np.logaddexp(n * math.log(r1) + caps[:s.size],
                                 n * math.log(r2) + caps[s.size:])
    return _shaped(out, arr)


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
    if not r >= 0.0:
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


@functools.cache
def _gl_rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes of the _GL_NODES- and 2 _GL_NODES-point Gauss-Legendre
    rules on [-1, 1], stacked in one column, and the weights of each rule
    as a column; computed on the first call only."""
    from numpy.polynomial.legendre import leggauss

    coarse_x, coarse_w = leggauss(_GL_NODES)
    fine_x, fine_w = leggauss(2 * _GL_NODES)
    rules = (np.concatenate((coarse_x, fine_x))[:, None], coarse_w[:, None], fine_w[:, None])
    for a in rules:
        a.flags.writeable = False
    return rules


def ball_sum_entropy(bp: BallPair) -> float:
    """Differential entropy h(X + Y) from the closed-form radial density.

    The radial integral runs over [0, r1 + r2], split at the breakpoint
    |r1 - r2| where g switches branch; the integrand g log(1/g) vanishes at
    the outer edge.  It is composite Gauss-Legendre: each piece starts as
    _GL_START equal subintervals, and each level evaluates the integrand
    once, at the _GL_NODES- and 2 _GL_NODES-point nodes of every active
    subinterval.  A subinterval whose two rules agree to its share (by
    length) of max(QUAD_TOL, QUAD_TOL |estimate|) adds its finer value to
    the total; the others are bisected.  Past _GL_MAX_LEVELS levels or
    _GL_MAX_ACTIVE active subintervals it raises InaccurateResult.
    """
    n = bp.dim
    log_norm = _log_norm(bp)
    # w(r) = n V_n(1) r^(n-1) g(r) / norm is the radial pdf of |X + Y|
    log_w_base = math.log(n) + log_unit_ball_volume(n) - log_norm

    def neg_log_density_weighted(r: np.ndarray) -> np.ndarray:
        lg = _log_g(bp, r)  # r > 0: the nodes are interior
        vals = np.zeros_like(r)
        pos = lg > -np.inf
        lg = lg[pos]
        vals[pos] = (np.exp(log_w_base + lg + (n - 1.0) * np.log(r[pos]))
                     * (log_norm - lg))
        return vals

    nodes, coarse_w, fine_w = _gl_rules()
    lo, hi = abs(bp.r1 - bp.r2), bp.r1 + bp.r2
    breaks = (0.0, lo, hi) if lo > 0.0 else (0.0, hi)
    edges = np.concatenate([np.linspace(a, b, _GL_START + 1)[:-1]
                            for a, b in zip(breaks, breaks[1:])] + [[hi]])
    left, right = edges[:-1], edges[1:]
    accepted: list[float] = []
    for level in range(1, _GL_MAX_LEVELS + 1):
        mid, half = 0.5 * (left + right), 0.5 * (right - left)
        # one row per node, one column per subinterval; the weighted sums
        # run down the columns in node order
        vals = neg_log_density_weighted((mid + half * nodes).ravel()).reshape(nodes.size, -1)
        coarse = half * (coarse_w * vals[:_GL_NODES]).sum(axis=0)
        fine = half * (fine_w * vals[_GL_NODES:]).sum(axis=0)
        budget = max(QUAD_TOL, QUAD_TOL * abs(math.fsum(accepted) + math.fsum(fine)))
        good = np.abs(fine - coarse) <= budget * (right - left) / hi
        accepted.extend(fine[good].tolist())
        if good.all():
            return math.fsum(accepted)
        left, mid, right = left[~good], mid[~good], right[~good]
        left, right = np.concatenate((left, mid)), np.concatenate((mid, right))
        if left.size > _GL_MAX_ACTIVE:
            break
    raise InaccurateResult(
        f"radial entropy integral of {bp} on [0, {hi}]: the {_GL_NODES}- and "
        f"{2 * _GL_NODES}-point Gauss-Legendre rules disagree beyond {budget:.3g} "
        f"on {int((~good).sum())} subintervals after {level} levels")


def epi_gap_balls(m: int, lam: float) -> float:
    """Residual entropy-power gap for unit-ball uniforms in dimension m.

    For Z1, Z2 uniform on the unit ball of R^m, h(Z1) = h(Z2) = log V_m(1),
    so the gap

        h(sqrt(lam) Z1 + sqrt(1-lam) Z2) - lam h(Z1) - (1-lam) h(Z2)

    is h(sqrt(lam) Z1 + sqrt(1-lam) Z2) - log V_m(1), an O(log m)
    remainder (the concavity term of unequal radii is zero here).
    """
    if not (0.0 < lam < 1.0):
        raise BadParameter(f"lambda must be in (0, 1), got {lam}")
    bp = BallPair(m, math.sqrt(lam), math.sqrt(1.0 - lam))
    return ball_sum_entropy(bp) - log_unit_ball_volume(m)


def _indicator_level(f: Grid1D) -> float:
    pos = f.values[f.values > 0.0]
    if pos.size == 0:
        raise NotIndicator("density has empty support")
    lo, hi = float(pos.min()), float(pos.max())
    if hi - lo > INDICATOR_REL_TOL * hi:
        raise NotIndicator(
            f"density takes several positive levels ({lo} .. {hi})")
    return hi


def brunn_minkowski_check(f: Grid1D, g: Grid1D,
                          seed: int | None = None) -> VerificationReport:
    """Grid Brunn-Minkowski in the entropy form:

        |supp(f * g)| >= |supp f| + |supp g| - 2 dx

    for normalized indicator densities f, g (the p = 0 instance of the
    rearrangement convolution inequality; supports add along each
    interval component, losing one cell per convolution on the grid).
    """
    level_f = _indicator_level(f)
    level_g = _indicator_level(g)
    conv = convolve(f, g)
    lhs = conv.support_measure
    rhs = f.support_measure + g.support_measure
    return report_geq("brunn_minkowski", lhs, rhs, 2.0 * f.dx,
                      params={"level_f": level_f, "level_g": level_g,
                              "dx": f.dx},
                      seed=seed)
