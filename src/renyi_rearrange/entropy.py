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
these is a finite sum and therefore exact; the general-p branch is
evaluated in log space so that extreme orders (p = 1e-4 or 1e4) neither
overflow nor underflow.  renyi_entropies(f, orders) evaluates several
orders from one pass over the layers of f (one positive mask, one gather,
at most one log), with the same bits as renyi_entropy order by order.

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

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import FISHER_FLOOR_REL, MIXTURE_TOL
from .convolve import convolve_k
from .errors import BadParameter, DensityOverflow, OrderOutOfRange, WeightSum, ZeroMass
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
    """Renyi entropy h_p(f) of a step density, exact for every order p
    that order() takes."""
    return renyi_entropies(f, (p,))[0]


def renyi_entropies(f: Grid1D, orders: Sequence[float | str]) -> tuple[float, ...]:
    """(h_p(f) for p in orders) from one pass over the layers of f.

    One positive mask, one gather and at most one log serve every order;
    each order then costs one reduction.  p = 0, 1 and inf take their own
    exact branches; every other p takes the log-space power sum.  Bit for
    bit the same numbers as calling :func:`renyi_entropy` order by order.
    """
    orders = [order(p) for p in orders]
    vals, meas = f.cells()
    pos = vals > 0.0
    if not pos.any():
        raise ZeroMass("entropy of an identically zero density")
    v = vals[pos]
    m = meas[pos]
    log_v = None
    out = []
    for p in orders:
        if p == 0.0:
            h = float(np.log(m.sum()))
        elif math.isinf(p):
            h = float(-np.log(v.max()))
        else:
            if log_v is None:
                log_v = np.log(v)
            if p == 1.0:
                h = float(-np.sum(m * v * log_v))
            else:
                h = _log_sum_exp(p * log_v, m) / (1.0 - p)
        out.append(h)
    return tuple(out)


def _log_sum_exp(a: np.ndarray, b: np.ndarray) -> float:
    """log sum(b * exp(a)) for a 1-D array a and positive weights b.

    The same arithmetic as ``scipy.special.logsumexp(a, b=b)``, so the
    result is bitwise equal to it: the maximal entries are taken out of
    the sum and contribute through log(m) with m their total weight.  The
    shifted terms are formed in one scratch array; a is left as it was.
    """
    a_max = a.max()
    if np.isfinite(a_max):  # so a - a_max is never inf - inf
        top = a == a_max
        m = np.sum(b * top)
        e = a - a_max
        e[top] = -np.inf
        np.exp(e, out=e)
        e *= b
        out = np.log1p(np.sum(e) / m) + np.log(m) + a_max
        if np.isfinite(out):
            return float(out)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return float(np.log(np.sum(b * np.exp(a))))


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
    fold f1 * ... * fk, `conv_star` the fold f1^* * ... * fk^*, `h_conv`
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
    def conv_star(self) -> Grid1D:
        return convolve_k([rearrange_1d(f) for f in self.fs])

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
    s = renyi_affinity(f, g, alpha)
    if s == 0.0:
        return math.inf
    return float(math.log(s) / (alpha - 1.0))


def fisher_information(f: Grid1D) -> float:
    """Fisher information int f'^2 / f by central differences.

    The derivative at cell j uses cells j-1 and j+1, boundary cells are
    excluded, and cells below FISHER_FLOOR_REL * max(f) are skipped so that the
    quotient never divides by (near) zero.
    """
    if f.n_cells < 3:
        raise BadParameter("Fisher information needs at least three cells")
    v = f.values
    floor = FISHER_FLOOR_REL * float(v.max())
    if floor <= 0.0:
        raise ZeroMass("Fisher information of a zero density")
    deriv = (v[2:] - v[:-2]) / (2.0 * f.dx)
    center = v[1:-1]
    ok = center > floor
    return float(np.sum(deriv[ok] ** 2 / center[ok]) * f.dx)


def mixture_entropy_bound_check(group: Group, weights: Sequence[float],
                                seed: int | None = None) -> VerificationReport:
    """Check h(sum_i c_i f_i) <= sum_i c_i h(f_i) + H(c) over the group's f_i.

    All components must share a grid; both sides are exact sums, so the
    budget is the tight MIXTURE_TOL.  Equality holds when components have
    pairwise disjoint supports.  h(f_i) is read from the group's factor
    rows; only the mixture itself is a new density.
    """
    fs = group.fs
    if len(fs) != len(weights):
        raise WeightSum("need one weight per component")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
        raise WeightSum(f"weights must be nonnegative and sum to 1, got sum {w.sum()}")
    base = fs[0]
    for c in fs[1:]:
        require_same_grid(base, c)
    mix_vals = np.zeros(base.n_cells)
    for wi, c in zip(w, fs):
        mix_vals += wi * c.values
    mix = Grid1D(base.x0, base.dx, mix_vals)
    lhs = renyi_entropy(mix, 1.0)
    comp_term = sum(wi * row[1.0]
                    for wi, row in zip(w, group.h_factors) if wi > 0.0)
    weight_entropy = float(-np.sum(w[w > 0.0] * np.log(w[w > 0.0])))
    rhs = comp_term + weight_entropy
    return report_leq("mixture_entropy_bound", lhs, rhs, MIXTURE_TOL,
                      params={"k": len(fs),
                              "weight_entropy": weight_entropy},
                      seed=seed)
