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
fraction run elementwise on the part where betainc underflows.  log g
passes both balls' cap arguments to one such call, or, when the radii
are equal and the arguments therefore the same, one ball's only.

The radial integrals of many pairs are taken in one sweep: composite
Gauss-Legendre refined level by level, each level one array evaluation
of the integrand at the nodes of every subinterval, of every pair, not
yet accurate.  Each node carries its pair's number, and reads its pair's
dimension, radii and normalizers (computed with math.* per pair) by it,
so a sweep takes as many levels as its deepest pair and gives every pair
the bits it has swept alone; ball_sum_entropy is the one-pair case.  An
integral that cannot meet its tolerance raises InaccurateResult, naming
its pair, instead of returning its estimate.  scipy is imported (betainc
only) when a cap is evaluated.  All n-th powers and normalizers are
handled in log space so the formulas stay finite for dimensions far
beyond where V_n(1) r^n underflows.  epi_gap_balls reads the dimensional
entropy-power gaps of two unit balls, at many dimensions, off one sweep.

brunn_minkowski_check is the one-dimensional case of the same geometry,
|A + B| >= |A| + |B| for the supports of two grid densities: it counts
the cells of the continuum sum set from the supports' runs of positive
cells, in integers, with no convolution and a budget of 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import QUAD_TOL
from .errors import BadParameter, DensityOverflow, InaccurateResult, SpacingMismatch, ZeroMass
from .grids import Grid1D, same_spacing
from .convolve import _merge, _runs
from .reports import VerificationReport, report_geq

__all__ = [
    "BallPair",
    "cap_integral",
    "log_cap_integral",
    "ball_sum_radial",
    "ball_sum_log_radial",
    "ball_sum_entropy",
    "ball_sum_entropies",
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


def _cap_rows(dims: Sequence[int]) -> np.ndarray:
    """a = (n+1)/2, log a and log B((n+1)/2, 1/2) of each dimension n, one
    column per dimension, each by math.* as for that dimension alone."""
    return np.array([[0.5 * (n + 1), math.log(0.5 * (n + 1)), log_full_cap(n)]
                     for n in dims]).reshape(-1, 3).T


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
    if n < 1:
        raise BadParameter(f"dimension must be >= 1, got {n}")
    arr, theta_flat = _flat(theta)
    log_h = _log_caps(theta_flat, _cap_rows((n,)), np.zeros(theta_flat.size, dtype=np.intp))
    return _shaped(log_h, arr)


def _log_caps(theta: np.ndarray, rows: np.ndarray, col: np.ndarray) -> np.ndarray:
    """log h at the angles theta (1-d), the k-th in the dimension of column
    col[k] of rows (see _cap_rows); the elementwise body of log_cap_integral,
    one betainc call and one continued fraction for all dimensions."""
    from scipy.special import betainc

    in_range = np.abs(theta) <= math.pi / 2.0 + 1e-12  # false for nan
    if not in_range.all():
        bad = theta[~in_range][0]
        raise BadParameter(f"theta must lie in [-pi/2, pi/2], got {bad}")
    t = np.minimum(np.abs(theta), math.pi / 2.0)
    a, log_a, log_full = rows[:, col]
    cos_t = np.cos(t)
    x = cos_t * cos_t
    inc = betainc(a, 0.5, x)
    log_h = np.empty_like(t)
    normal = inc >= sys.float_info.min
    log_h[normal] = log_full[normal] - _LOG2 + np.log(inc[normal])
    under = ~normal
    if under.any():  # t > 0 there, and cos_t >= cos(pi/2) > 0 in floating point
        a_under = a[under]
        log_h[under] = (2.0 * a_under * np.log(cos_t[under]) + np.log(np.sin(t[under]))
                        - _LOG2 - log_a[under] + _log_beta_cf(a_under, 0.5, x[under]))
    neg = theta < 0.0
    if neg.any():
        log_full = log_full[neg]
        log_h[neg] = log_full + np.log1p(-np.exp(log_h[neg] - log_full))
    return log_h


def _guard(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) > _CF_FLOOR, v, _CF_FLOOR)


def _log_beta_cf(a: np.ndarray, b: float, x: np.ndarray) -> np.ndarray:
    """log of the continued fraction of I_x(a, b) = x^a (1-x)^b cf / (a B(a, b)).

    Modified Lentz evaluation, elementwise over the arrays a and x; each
    element stops at its own convergence, as it would alone.  It converges
    fast for x < (a+1)/(a+b+2), which holds wherever I_x(a, b) is small
    enough to underflow.
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
            idx, a, x, c, d, cf = idx[more], a[more], x[more], c[more], d[more], cf[more]
    raise InaccurateResult(
        f"incomplete Beta continued fraction did not converge at {x.size} points "
        f"(first a={a[0]}, b={b}, x={x[0]})")


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


def _log_norm(bp: BallPair) -> float:
    """log of the density normalizer V_n(1) r1^n r2^n B((n+1)/2, 1/2)."""
    n = bp.dim
    return (log_unit_ball_volume(n) + log_full_cap(n)
            + n * (math.log(bp.r1) + math.log(bp.r2)))


class _Pairs:
    """The per-pair scalars of a sequence of BallPairs, one entry per pair.

    Each is computed with math.* for its pair alone and reaches the nodes
    by indexing with their pair's number, so a node gets the bits it gets
    in a one-pair sweep; array arithmetic over the pairs could round
    differently (np.log and math.log can differ in the last bit).
    """

    def __init__(self, pairs: Sequence[BallPair]) -> None:
        self.pairs = tuple(pairs)
        rows = []
        for bp in self.pairs:
            n, r1, r2 = bp.dim, bp.r1, bp.r2
            log_norm = _log_norm(bp)
            rows.append((r1, r2, abs(r1 - r2), r1 + r2,
                         n * math.log(min(r1, r2)) + log_full_cap(n),
                         n * math.log(r1), n * math.log(r2), log_norm,
                         # w(r) = n V_n(1) r^(n-1) g(r) / norm is the radial pdf of |X + Y|
                         math.log(n) + log_unit_ball_volume(n) - log_norm, n - 1.0))
        (self.r1, self.r2, self.lo, self.hi, self.log_inner, self.n_log_r1,
         self.n_log_r2, self.log_norm, self.log_w_base,
         self.n_minus_1) = np.array(rows).reshape(-1, 10).T
        self.shared = self.r1 == self.r2
        self.caps = _cap_rows([bp.dim for bp in self.pairs])


def _log_g(pairs: _Pairs, p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """log g at the radii r (1-d), the k-th of pair p[k]; -inf outside
    the support.  The caps of both balls at every radius inside the lens
    branch, for all pairs, take one _log_caps call.  Equal radii give both
    balls the same cap arguments, bit for bit, so such a pair's caps are
    evaluated once, on the first ball's arguments, and serve both terms."""
    lo, hi = pairs.lo[p], pairs.hi[p]
    out = np.full(r.shape, -np.inf)
    inner = r <= lo
    out[inner] = pairs.log_inner[p[inner]]
    lens = (r > lo) & (r < hi)
    if lens.any():
        s, q = r[lens], p[lens]
        r1, r2 = pairs.r1[q], pairs.r2[q]
        args, cols = (s * s - r2 * r2 + r1 * r1) / (2.0 * s * r1), q
        both = ~pairs.shared[q]
        if both.any():
            s2, r1, r2 = s[both], r1[both], r2[both]
            args = np.concatenate((args, (s2 * s2 - r1 * r1 + r2 * r2) / (2.0 * s2 * r2)))
            cols = np.concatenate((q, q[both]))
        caps = _log_caps(_clamped_asin(args), pairs.caps, cols)
        first = caps[:s.size]
        second = first.copy()
        second[both] = caps[s.size:]
        out[lens] = np.logaddexp(pairs.n_log_r1[q] + first, pairs.n_log_r2[q] + second)
    return out


def ball_sum_log_radial(bp: BallPair, r: float) -> float:
    """Log-density of X + Y at radius r; -inf outside the support.

    Finite wherever the density is positive, also where the density
    itself is beyond the float range (high dimension, small radii).
    """
    if not r >= 0.0:
        raise BadParameter(f"radius must be nonnegative, got {r}")
    lg = float(_log_g(_Pairs((bp,)), np.zeros(1, dtype=np.intp), np.array([r]))[0])
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


def _integrand(pairs: _Pairs, p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """w(r) log(1/rho(r)) at the radii r > 0 (1-d), the k-th of pair p[k]."""
    lg = _log_g(pairs, p, r)
    vals = np.zeros_like(r)
    pos = lg > -np.inf
    lg, q = lg[pos], p[pos]
    vals[pos] = (np.exp(pairs.log_w_base[q] + lg + pairs.n_minus_1[q] * np.log(r[pos]))
                 * (pairs.log_norm[q] - lg))
    return vals


def _name_failing_pair(pairs: _Pairs, p: np.ndarray, r: np.ndarray) -> None:
    """After _integrand(pairs, p, r) raised InaccurateResult, raise it again
    naming the first pair whose nodes raise it alone; the evaluation is
    elementwise, so a pair's nodes fail alone as they failed together."""
    for j in np.unique(p):
        at = p == j
        try:
            _integrand(pairs, p[at], r[at])
        except InaccurateResult as alone:
            raise InaccurateResult(
                f"radial entropy integral of {pairs.pairs[j]}: {alone}") from alone


def ball_sum_entropies(pairs: Sequence[BallPair]) -> list[float]:
    """Differential entropies h(X + Y) of the pairs, in one quadrature sweep.

    Each pair's radial integral runs over [0, r1 + r2], split at the
    breakpoint |r1 - r2| where g switches branch; the integrand g log(1/g)
    vanishes at the outer edge.  It is composite Gauss-Legendre: each piece
    starts as _GL_START equal subintervals, and each level evaluates the
    integrand once for all pairs, at the _GL_NODES- and 2 _GL_NODES-point
    nodes of every active subinterval of every pair.  A subinterval whose
    two rules agree to its share (by length) of its own pair's
    max(QUAD_TOL, QUAD_TOL |estimate|) adds its finer value to that pair's
    total; the others are bisected.  A pair past _GL_MAX_LEVELS levels or
    _GL_MAX_ACTIVE active subintervals raises InaccurateResult naming it,
    and no entropy is returned.  No pair's budget, refinement or cap
    sharing depends on the others: each entropy has the bits of its pair
    swept alone.
    """
    table = _Pairs(pairs)
    if not table.pairs:
        return []
    nodes, coarse_w, fine_w = _gl_rules()
    starts = []
    for lo, hi in zip(table.lo.tolist(), table.hi.tolist()):
        breaks = (0.0, lo, hi) if lo > 0.0 else (0.0, hi)
        starts.append(np.concatenate([np.linspace(a, b, _GL_START + 1)[:-1]
                                      for a, b in zip(breaks, breaks[1:])] + [[hi]]))
    # the active subintervals, grouped by pair in pair order
    left = np.concatenate([edges[:-1] for edges in starts])
    right = np.concatenate([edges[1:] for edges in starts])
    owner = np.repeat(np.arange(len(starts)), [edges.size - 1 for edges in starts])
    accepted: list[list[float]] = [[] for _ in starts]
    entropies = [math.nan] * len(starts)
    budget = np.empty(len(starts))
    for level in itertools.count(1):
        mid, half = 0.5 * (left + right), 0.5 * (right - left)
        # one row per node, one column per subinterval; the weighted sums
        # run down the columns in node order
        r = (mid + half * nodes).ravel()
        p = np.broadcast_to(owner, (nodes.size, owner.size)).ravel()
        try:
            vals = _integrand(table, p, r).reshape(nodes.size, -1)
        except InaccurateResult:
            _name_failing_pair(table, p, r)
            raise
        coarse = half * (coarse_w * vals[:_GL_NODES]).sum(axis=0)
        fine = half * (fine_w * vals[_GL_NODES:]).sum(axis=0)
        ends = np.cumsum(np.bincount(owner, minlength=len(starts))).tolist()
        groups = [(j, begin, end) for j, (begin, end) in enumerate(zip([0] + ends, ends))
                  if end > begin]
        fine_list = fine.tolist()
        for j, begin, end in groups:
            budget[j] = max(QUAD_TOL, QUAD_TOL * abs(math.fsum(accepted[j])
                                                      + math.fsum(fine_list[begin:end])))
        good = np.abs(fine - coarse) <= budget[owner] * (right - left) / table.hi[owner]
        good_list = good.tolist()
        for j, begin, end in groups:
            accepted[j].extend(itertools.compress(fine_list[begin:end], good_list[begin:end]))
            failed = good_list[begin:end].count(False)
            if not failed:
                entropies[j] = math.fsum(accepted[j])
            elif level >= _GL_MAX_LEVELS or 2 * failed > _GL_MAX_ACTIVE:
                raise InaccurateResult(
                    f"radial entropy integral of {table.pairs[j]} on [0, {table.hi[j]}]: "
                    f"the {_GL_NODES}- and {2 * _GL_NODES}-point Gauss-Legendre rules "
                    f"disagree beyond {budget[j]:.3g} on {failed} subintervals after "
                    f"{level} levels")
        if good.all():
            return entropies
        # each failed subinterval's halves, side by side, keep the grouping
        bad = ~good
        left, mid, right = left[bad], mid[bad], right[bad]
        left = np.column_stack((left, mid)).ravel()
        right = np.column_stack((mid, right)).ravel()
        owner = np.repeat(owner[bad], 2)


def ball_sum_entropy(bp: BallPair) -> float:
    """Differential entropy h(X + Y) from the closed-form radial density:
    the one-pair case of ball_sum_entropies."""
    return ball_sum_entropies((bp,))[0]


def epi_gap_balls(dims: Sequence[int], lam: float) -> list[float]:
    """Residual entropy-power gaps for unit-ball uniforms in the dimensions
    dims, their entropies taken in one ball_sum_entropies sweep.

    For Z1, Z2 uniform on the unit ball of R^m, h(Z1) = h(Z2) = log V_m(1),
    so the gap

        h(sqrt(lam) Z1 + sqrt(1-lam) Z2) - lam h(Z1) - (1-lam) h(Z2)

    is h(sqrt(lam) Z1 + sqrt(1-lam) Z2) - log V_m(1), an O(log m)
    remainder (the concavity term of unequal radii is zero here).
    """
    if not (0.0 < lam < 1.0):
        raise BadParameter(f"lambda must be in (0, 1), got {lam}")
    r1, r2 = math.sqrt(lam), math.sqrt(1.0 - lam)
    entropies = ball_sum_entropies([BallPair(m, r1, r2) for m in dims])
    return [h - log_unit_ball_volume(m) for m, h in zip(dims, entropies)]


def brunn_minkowski_check(f: Grid1D, g: Grid1D,
                          seed: int | None = None) -> VerificationReport:
    """Brunn-Minkowski on the line, |supp f + supp g| >= |supp f| + |supp g|,
    exactly in whole cells (the p = 0 instance of the rearrangement
    convolution inequality; equality when both supports are intervals).

    A run of positive cells [s, e) is the interval [s dx, e dx), up to the
    grid's origin, so the continuum sum set is the union of the run pair
    sums [s + t, e + u), merged.  Both sides are cell counts, as integers,
    times dx, so the budget is 0.  Spacings that differ raise
    SpacingMismatch, and an empty support raises ZeroMass.
    """
    if not same_spacing(f, g):
        raise SpacingMismatch(f"dx mismatch: {f.dx} vs {g.dx}")
    (sf, ef), (sg, eg) = _runs(f.values), _runs(g.values)
    if not (sf.size and sg.size):
        raise ZeroMass("Brunn-Minkowski needs two nonempty supports")
    starts, ends = _merge((sf[:, None] + sg).ravel(), (ef[:, None] + eg).ravel())
    lhs = int((ends - starts).sum()) * f.dx
    rhs = int((ef - sf).sum() + (eg - sg).sum()) * f.dx
    return report_geq("brunn_minkowski", lhs, rhs, 0.0, params={"dx": f.dx}, seed=seed)
