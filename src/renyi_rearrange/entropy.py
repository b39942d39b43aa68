"""Renyi entropies, entropy powers, divergences and Fisher information.

For a density f and order p in [0, inf] the Renyi entropy is

    h_p(f) = (1 - p)^{-1} log int f(x)^p dx          (p != 0, 1, inf)
    h_0(f) = log |{f > 0}|
    h_1(f) = -int f log f        (with 0 log 0 = 0)
    h_inf(f) = -log ||f||_inf

and h_p is nonincreasing in p.  An order is a plain float; order(p)
validates it (numeric strings and "inf"/"oo" are read too) and
order_label(p) names it in reports.  p = 0, 1 and inf are exact branches
of their own, the support measure, the Shannon sum and the maximum, never
numerical limits of the general formula.  On step densities every one of
these is a finite sum and therefore exact.  Every cell measures dx, so
the general-p branch reads the positive values v alone, as
(p/(1-p)) log M + (log sum (v/M)^p + log dx)/(1-p) with M = max v: each
term is at most 1, so no order up to the largest float overflows.  Near
p = 1 that quotient divides the rounding of the log power sum by 1 - p.
So for 0 < |t| < RENYI_NEAR_ONE_WIDTH (config), t = p - 1, h_p is read
instead from the mass m = |f|_1 and the mean mu of x = log v under v:

    h_p = -(log m + t mu + log1p(sum v expm1(t (x - mu)) / sum v)) / t,

an exact identity (_log_mean_exp).  Each expm1 term keeps its digits,
so what rounding is left after the division by t is a few ulp of mu and
of |x - mu|, not of the log power sum over |t|; log m comes from the
correctly rounded m - 1 (_log_mass).  The divergence near alpha = 1 is
read through the same identity.
renyi_entropies(f, orders) evaluates several orders from one read of the
positive values, with the same bits as renyi_entropy order by order.

A Group is one convolution group f1, ..., fk: its sum f1 * ... * fk, the
sum f1^* * ... * fk^* of its rearrangements, and a Row of Renyi entropies
(one such pass) for each sum and each factor.  Each is computed the first
time a check reads it and kept, so every check on the group shares them
and a group's checks take the group as their only data.

The entropy power of order p is N_p(f) = exp(2 h_p(f)), every density
here being one-dimensional.

The Renyi divergence implemented here is the standard one,

    D_alpha(f||g) = (alpha - 1)^{-1} log int f^alpha g^{1-alpha} dx,

for alpha in (0, 1], with the Kullback-Leibler sum at alpha = 1.  The
raw integral int f^alpha g^{1-alpha} (the affinity, renyi_affinity) is
a function of its own, since the rearrangement contraction is most
naturally stated for it.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import MIXTURE_TOL, RENYI_NEAR_ONE_WIDTH
from .convolve import convolve_k
from .errors import BadParameter, DensityOverflow, OrderOutOfRange, ZeroMass
from .grids import Grid1D, require_same_grid
from .rearrange import rearrange_1d
from .reports import VerificationReport, report_leq

__all__ = [
    "renyi_entropy",
    "renyi_entropies",
    "ORDERS",
    "FACTOR_ORDERS",
    "Group",
    "entropy_power",
    "renyi_divergence",
    "fisher_information",
    "mixture_entropy_bound_check",
]


def order(p: float | str) -> float:
    """The Renyi order p in [0, inf] as a float.

    Takes a number or a numeric string; "inf", "infinity" and "oo" (any
    case, surrounding blanks ignored) are inf.  Anything else, including
    a negative p, nan and -inf, raises OrderOutOfRange.
    """
    token = p.strip().lower() if isinstance(p, str) else p
    try:
        q = math.inf if token == "oo" else float(token)
    except (TypeError, ValueError):
        raise OrderOutOfRange(f"not a Renyi order: {p!r}") from None
    if not q >= 0.0:
        raise OrderOutOfRange(f"a Renyi order is in [0, inf], got {q}")
    return q


def order_label(p: float) -> str:
    """"0", "1" and "inf" for the orders with their own formulas, else repr(p)."""
    return {0.0: "0", 1.0: "1", math.inf: "inf"}.get(p, repr(float(p)))


def renyi_entropy(f: Grid1D, p: float | str) -> float:
    """Renyi entropy h_p(f) of a step density: an exact finite sum for
    p = 0, 1 and inf; otherwise accurate to a few ulp of its terms over
    |1 - p|, and for orders near 1 to a few ulp of its value (see the
    module docstring)."""
    return renyi_entropies(f, (p,))[0]


def renyi_entropies(f: Grid1D, orders: Sequence[float | str]) -> tuple[float, ...]:
    """(h_p(f) for p in orders) from one pass over the layers of f.

    The positive values v are read in place when no cell is zero, else
    gathered once, and serve every order.  Each order other than 0 and inf
    forms log v in one scratch array of its own and consumes it in place
    (times v for p = 1, the power sum's terms otherwise), so beside v at
    most that array is alive, with the expm1 sum's temporaries near 1.
    p = 0, 1 and inf take their own exact branches, 0 < |p - 1| <
    RENYI_NEAR_ONE_WIDTH one expm1 sum (_log_mean_exp, with the mass formed
    once per call), and every other p the log-space power sum.  Bit for bit
    the same numbers as calling :func:`renyi_entropy` order by order, and
    as reading every order from one log v kept for the whole call.
    """
    orders = [order(p) for p in orders]
    v = f.values if f.values.min(initial=math.inf) > 0.0 else f.values[f.values > 0.0]
    if v.size == 0:
        raise ZeroMass("entropy of an identically zero density")
    log_max = log_mass = None
    out = []
    for p in orders:
        if p == 0.0:
            h = math.log(v.size * f.dx)
        elif math.isinf(p):
            h = float(-np.log(v.max()))
        else:
            log_v = np.log(v)  # this order's scratch array
            if log_max is None:
                log_max = float(log_v.max())
            t = p - 1.0
            if p == 1.0:
                log_v *= v
                h = float(-np.sum(log_v) * f.dx)
            elif abs(t) < RENYI_NEAR_ONE_WIDTH:
                if log_mass is None:
                    log_mass = _log_mass(v, f.dx)
                h = -(log_mass + _log_mean_exp(v, log_v, t)) / t
            else:
                h = (p / (1.0 - p)) * log_max + (
                    _log_power_sum(log_v, log_max, p) + math.log(f.dx)) / (1.0 - p)
            del log_v
        out.append(h)
    return tuple(out)


def _log_power_sum(log_v: np.ndarray, log_max: float, p: float) -> float:
    """log sum(exp(a)) for a = p (log_v - log_max), formed in log_v itself:
    the caller's scratch array is consumed in place, and holds exp(a) with
    its maxima zeroed when this returns.

    The maximum of a is 0, so this is scipy.special.logsumexp(a) bit for
    bit without its shift: the m entries with a == 0 (the maxima, and at
    tiny p those that underflow to -0) are taken out of the sum s of the
    rest, which gives log(m) + log1p(s / m).  A term that overflows to -inf
    drops out.
    """
    a = log_v
    a -= log_max
    with np.errstate(over="ignore"):
        a *= p
    top = a == 0.0
    m = np.count_nonzero(top)
    a[top] = -np.inf
    np.exp(a, out=a)
    return float(np.log1p(np.sum(a) / m) + np.log(m))


def _log_mean_exp(w: np.ndarray, x: np.ndarray, t: float) -> float:
    """log(sum w e^(t x) / sum w) for positive weights w, as
    t mu + log1p(sum w expm1(t (x - mu)) / sum w) with mu = sum w x / sum w.

    The identity holds for any mu; the mean makes the log1p argument
    O(t^2), so near t = 0 the result keeps digits relative to t.  The
    terms w expm1(t (x - mu)) are formed in one scratch array.  Every
    reduction is np.sum (pairwise, one thread), so the bits do not depend
    on the CPUs.
    """
    total = float(np.sum(w))
    mu = float(np.sum(w * x)) / total
    terms = np.subtract(x, mu)
    terms *= t
    np.expm1(terms, out=terms)
    terms *= w
    return t * mu + math.log1p(float(np.sum(terms)) / total)


def _log_mass(v: np.ndarray, dx: float) -> float:
    """log(sum(v) dx) for positive values v.  Where the mass m is at least
    1/2 it is log1p of m - 1, correctly rounded but for an ulp or two of
    itself, so the log keeps its digits even when m is 1 to within an
    ulp; below that it is the log of the sum, as m - 1 would round m away."""
    s = math.fsum(v)
    s_rest = math.fsum(itertools.chain(v, (-s,)))  # the exact sum is s + s_rest
    excess = float(Fraction(s) * Fraction(dx) - 1) + s_rest * dx
    if excess > -0.5:
        return math.log1p(excess)
    return math.log(s) + math.log(dx)


# the orders of a Group's sum rows (those of the main theorem), and of its
# factor rows (those of the Bobkov-Chistyakov bound, which include the h_1
# of the EPI chain and the mixture bound)
ORDERS: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, math.inf)
FACTOR_ORDERS: tuple[float, ...] = (1.0, 2.0, math.inf)


class Row(dict):
    """{p: h_p(f)} keyed by float order, from one renyi_entropies pass over f.

    Any order that order() takes looks up its float (row["inf"] is
    row[math.inf]); an order outside the row raises OrderOutOfRange.
    """

    def __init__(self, f: Grid1D, orders: Sequence[float | str]) -> None:
        keys = [order(p) for p in orders]
        super().__init__(zip(keys, renyi_entropies(f, keys)))

    def __missing__(self, p: float | str) -> float:
        q = order(p)
        if q not in self:
            raise OrderOutOfRange(
                f"h_p at p={order_label(q)} is not in the row "
                f"(orders {', '.join(map(order_label, self))})")
        return self[q]


# eq=False: the densities hold arrays, so groups compare by identity
@dataclass(frozen=True, eq=False)
class Group:
    """One convolution group f1, ..., fk (k >= 2) and what its checks read.

    Every member is computed on first read and kept: `conv` is the left
    fold f1 * ... * fk, `stars` the rearrangements f1^*, ..., fk^*,
    `conv_star` their fold f1^* * ... * fk^*, `h_conv`
    and `h_conv_star` their Rows at ORDERS, and `h_factors[i]` the Row of
    f_i at FACTOR_ORDERS.  However many checks read a group, each sum is
    convolved once and each density's layers are read once.
    """

    fs: tuple[Grid1D, ...]

    def __post_init__(self) -> None:
        if len(self.fs) < 2:
            raise BadParameter("a convolution group needs at least two densities")

    @cached_property
    def conv(self) -> Grid1D:
        return convolve_k(self.fs)

    @cached_property
    def stars(self) -> tuple[Grid1D, ...]:
        return tuple(rearrange_1d(f) for f in self.fs)

    @cached_property
    def conv_star(self) -> Grid1D:
        return convolve_k(self.stars)

    @cached_property
    def h_conv(self) -> Row:
        return Row(self.conv, ORDERS)

    @cached_property
    def h_conv_star(self) -> Row:
        return Row(self.conv_star, ORDERS)

    @cached_property
    def h_factors(self) -> tuple[Row, ...]:
        return tuple(Row(f, FACTOR_ORDERS) for f in self.fs)


def entropy_power(f: Grid1D, p: float | str) -> float:
    """Entropy power N_p(f) = exp(2 h_p(f)); DensityOverflow outside the
    normal float range, where a result would have lost its digits."""
    h = renyi_entropy(f, p)
    try:
        power = math.exp(2.0 * h)
    except OverflowError:
        raise DensityOverflow(
            f"entropy power exp(2 h) overflows a float at h = {h}") from None
    if power < sys.float_info.min:
        raise DensityOverflow(
            f"entropy power exp(2 h) is {power}, below the normal float range, "
            f"at h = {h}")
    return power


def renyi_affinity(f: Grid1D, g: Grid1D, alpha: float) -> float:
    """The integral int f^alpha g^(1-alpha) dx for alpha in (0, 1).

    Equals 1 iff f = g a.e.; rearrangement can only increase it.
    """
    if not (0.0 < alpha < 1.0):
        raise OrderOutOfRange(f"affinity needs alpha in (0,1), got {alpha}")
    require_same_grid(f, g)
    both = (f.values > 0.0) & (g.values > 0.0)
    if not both.any():
        return 0.0
    a = f.values[both]
    b = g.values[both]
    return float(np.sum(np.exp(alpha * np.log(a) + (1.0 - alpha) * np.log(b))) * f.dx)


def renyi_divergence(f: Grid1D, g: Grid1D, alpha: float) -> float:
    """Renyi divergence D_alpha(f||g) for alpha in (0, 1].

    At alpha = 1 this is the relative entropy; any cell with f > 0 and
    g = 0 makes it +inf.  For alpha < 1 disjoint supports give +inf.
    For 0 < t = 1 - alpha < RENYI_NEAR_ONE_WIDTH it is read as
    -(log m' + log(sum a (b/a)^t / sum a)) / t through _log_mean_exp,
    with a, b the values of f, g where both are positive and m' the mass
    of f there, so the division by t does not magnify the rounding of
    the log affinity.
    """
    if not (0.0 < alpha <= 1.0):
        raise OrderOutOfRange(f"divergence implemented for alpha in (0,1], got {alpha}")
    require_same_grid(f, g)
    if alpha == 1.0:
        pos = f.values > 0.0
        if np.any(pos & (g.values == 0.0)):
            return math.inf
        a = f.values[pos]
        b = g.values[pos]
        return float(np.sum(a * np.log(a / b)) * f.dx)
    t = 1.0 - alpha
    if t < RENYI_NEAR_ONE_WIDTH:
        both = (f.values > 0.0) & (g.values > 0.0)
        if not both.any():
            return math.inf
        a = f.values[both]
        b = g.values[both]
        return -(_log_mass(a, f.dx) + _log_mean_exp(a, np.log(b) - np.log(a), t)) / t
    s = renyi_affinity(f, g, alpha)
    if s == 0.0:
        return math.inf
    return float(math.log(s) / (alpha - 1.0))


def fisher_information(f: Grid1D) -> float:
    """Discrete Fisher information (4/dx) sum (sqrt v_{i+1} - sqrt v_i)^2 with
    a zero cell past each end: 4 int (sqrt f)'^2 by difference quotients,
    finite for every step density, never increased by discrete_arrangement."""
    u = np.sqrt(f.values)
    if not u.any():
        raise ZeroMass("Fisher information of a zero density")
    return float(4.0 / f.dx * np.sum(np.diff(u, prepend=0.0, append=0.0) ** 2))


def mixture_entropy_bound_check(group: Group,
                                seed: int | None = None) -> VerificationReport:
    """Check h(sum_i f_i / k) <= sum_i h(f_i) / k + log k over the group's k
    densities f_i, mixed with equal weights 1/k (whose entropy is log k).

    All components must share a grid; both sides are exact sums, so the
    budget is the tight MIXTURE_TOL.  Equality holds when components have
    pairwise disjoint supports.  h(f_i) is read from the group's factor
    rows; only the mixture itself is a new density.
    """
    fs = group.fs
    base = fs[0]
    for c in fs[1:]:
        require_same_grid(base, c)
    w = 1.0 / len(fs)
    mix = Grid1D(base.x0, base.dx, sum(w * c.values for c in fs))
    lhs = renyi_entropy(mix, 1.0)
    weight_entropy = math.log(len(fs))
    rhs = sum(w * row[1.0] for row in group.h_factors) + weight_entropy
    return report_leq("mixture_entropy_bound", lhs, rhs, MIXTURE_TOL,
                      params={"k": len(fs),
                              "weight_entropy": weight_entropy},
                      seed=seed)
