"""Renyi entropies, entropy powers, divergences and Fisher information.

For a density f and order p in [0, inf] the Renyi entropy is

    h_p(f) = (1 - p)^{-1} log int f(x)^p dx          (p != 0, 1, inf)
    h_0(f) = log |{f > 0}|
    h_1(f) = -int f log f        (with 0 log 0 = 0)
    h_inf(f) = -log ||f||_inf

and h_p is nonincreasing in p.  On step densities every one of these is
a finite sum and therefore exact; the general-p branch is evaluated in
log space so that extreme orders (p = 1e-4 or 1e4) neither overflow nor
underflow.  p = 1 is always computed directly from the Shannon sum,
never as a numerical limit.  renyi_entropies(f, orders) evaluates several
orders from one pass over the layers of f (one positive mask, one gather,
at most one log), with the same bits as renyi_entropy order by order; a
GroupEntropies holds such rows for the densities of one convolution group,
so that every check on the group reads them instead of the densities.

The entropy power of order p in dimension n is N_p(f) = exp(2 h_p(f)/n).

The Renyi divergence implemented here is the standard one,

    D_alpha(f||g) = (alpha - 1)^{-1} log int f^alpha g^{1-alpha} dx,

for alpha in (0, 1], with the Kullback-Leibler sum at alpha = 1.  The
raw integral int f^alpha g^{1-alpha} (the affinity) is exposed as well,
since the rearrangement contraction is most naturally stated for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import FISHER_FLOOR_REL, MIXTURE_TOL
from .errors import BadParameter, OrderOutOfRange, WeightSum, ZeroMass
from .grids import Grid1D, RadialDensity, require_same_grid
from .reports import VerificationReport, report_leq

__all__ = [
    "RenyiOrder",
    "renyi_entropy",
    "renyi_entropies",
    "GroupEntropies",
    "entropy_power",
    "renyi_divergence",
    "renyi_affinity",
    "fisher_information",
    "mixture_entropy_bound_check",
]

Density = Grid1D | RadialDensity


@dataclass(frozen=True)
class RenyiOrder:
    """Renyi order tag: zero, one, infinity, or a general p.

    The three special orders get their own tags because their formulas
    are different expressions, not limits to be approximated.
    """

    tag: str
    p: float

    _TAGS = ("zero", "one", "infinity", "general")

    def __post_init__(self) -> None:
        if self.tag not in self._TAGS:
            raise OrderOutOfRange(f"unknown order tag {self.tag!r}")
        if self.tag == "general":
            if not (self.p > 0.0) or self.p == 1.0 or math.isinf(self.p):
                raise OrderOutOfRange(
                    f"general order must be finite, positive and != 1, got {self.p}")

    @classmethod
    def zero(cls) -> "RenyiOrder":
        return cls("zero", 0.0)

    @classmethod
    def one(cls) -> "RenyiOrder":
        return cls("one", 1.0)

    @classmethod
    def infinity(cls) -> "RenyiOrder":
        return cls("infinity", math.inf)

    @classmethod
    def general(cls, p: float) -> "RenyiOrder":
        return cls("general", float(p))

    @classmethod
    def coerce(cls, order: "RenyiOrder | float | int | str") -> "RenyiOrder":
        """Accept 0, 1, inf, numeric p, or strings like "2", "inf"."""
        if isinstance(order, RenyiOrder):
            return order
        if isinstance(order, str):
            s = order.strip().lower()
            if s in ("inf", "infinity", "oo"):
                return cls.infinity()
            order = float(s)
        p = float(order)
        if p == 0.0:
            return cls.zero()
        if p == 1.0:
            return cls.one()
        if math.isinf(p):
            return cls.infinity()
        return cls.general(p)

    def label(self) -> str:
        return {"zero": "0", "one": "1", "infinity": "inf"}.get(self.tag, repr(self.p))


# h_p of one density, keyed by order
Row = dict[RenyiOrder, float]


@dataclass(frozen=True)
class GroupEntropies:
    """Renyi entropies of the densities of one convolution group.

    Each row maps a RenyiOrder to h_p: `conv` for f1 * ... * fk,
    `conv_star` for f1^* * ... * fk^*, and `factors[i]` for f_i.  The
    checks that take one read their entropies from it instead of
    computing them; a row missing an order a check needs raises KeyError.
    """

    conv: Row
    conv_star: Row
    factors: tuple[Row, ...] = ()


def renyi_entropy(f: Density, order: RenyiOrder | float | str) -> float:
    """Renyi entropy h_p(f) of a step density, exact for every order."""
    return renyi_entropies(f, (order,))[0]


def renyi_entropies(f: Density,
                    orders: Sequence[RenyiOrder | float | str]) -> tuple[float, ...]:
    """(h_p(f) for p in orders) from one pass over the layers of f.

    One positive mask, one gather and at most one log serve every order;
    each order then costs one reduction.  Bit for bit the same numbers as
    calling :func:`renyi_entropy` order by order.
    """
    orders = [RenyiOrder.coerce(order) for order in orders]
    vals, meas = f.cells()
    pos = vals > 0.0
    if not pos.any():
        raise ZeroMass("entropy of an identically zero density")
    v = vals[pos]
    m = meas[pos]
    log_v = None
    out = []
    for order in orders:
        if order.tag == "zero":
            h = float(np.log(m.sum()))
        elif order.tag == "infinity":
            h = float(-np.log(v.max()))
        else:
            if log_v is None:
                log_v = np.log(v)
            if order.tag == "one":
                h = float(-np.sum(m * v * log_v))
            else:
                h = _log_sum_exp(order.p * log_v, m) / (1.0 - order.p)
        out.append(h)
    return tuple(out)


def _log_sum_exp(a: np.ndarray, b: np.ndarray) -> float:
    """log sum(b * exp(a)) for a 1-D array a and positive weights b.

    The same arithmetic as ``scipy.special.logsumexp(a, b=b)``, so the
    result is bitwise equal to it: the maximal entries are taken out of
    the sum and contribute through log(m) with m their total weight.
    """
    a_max = a.max()
    top = a == a_max
    m = np.sum(b * top)
    s = np.sum(b * np.exp(np.where(top, -np.inf, a) - a_max))
    out = np.log1p(s / m) + np.log(m) + a_max
    if not np.isfinite(out):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = np.log(np.sum(b * np.exp(a)))
    return float(out)


def entropy_power(f: Density, order: RenyiOrder | float | str, n: int | None = None) -> float:
    """Entropy power N_p(f) = exp(2 h_p(f) / n)."""
    if n is None:
        n = 1 if isinstance(f, Grid1D) else f.dim
    if n < 1:
        raise BadParameter(f"dimension must be >= 1, got {n}")
    h = renyi_entropy(f, order)
    return float(math.exp(2.0 * h / n))


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


def mixture_entropy_bound_check(components: list[Grid1D], weights: list[float],
                                seed: int | None = None, *,
                                convs: GroupEntropies | None = None) -> VerificationReport:
    """Check h(sum_i c_i f_i) <= sum_i c_i h(f_i) + H(c).

    All components must share a grid; both sides are exact sums, so the
    budget is the tight MIXTURE_TOL.  Equality holds when components have
    pairwise disjoint supports.  `convs` is the group's GroupEntropies
    when the caller already has it, with the components as its factors;
    h(f_i) is then read from the factor rows.
    """
    if len(components) == 0 or len(components) != len(weights):
        raise WeightSum("need one weight per component")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
        raise WeightSum(f"weights must be nonnegative and sum to 1, got sum {w.sum()}")
    base = components[0]
    for c in components[1:]:
        require_same_grid(base, c)
    mix_vals = np.zeros(base.n_cells)
    for wi, c in zip(w, components):
        mix_vals += wi * c.values
    mix = Grid1D(base.x0, base.dx, mix_vals)
    one = RenyiOrder.one()
    lhs = renyi_entropy(mix, one)
    if convs is None:
        comp_term = sum(wi * renyi_entropy(c, one)
                        for wi, c in zip(w, components) if wi > 0.0)
    else:
        comp_term = sum(wi * row[one]
                        for wi, row in zip(w, convs.factors) if wi > 0.0)
    weight_entropy = float(-np.sum(w[w > 0.0] * np.log(w[w > 0.0])))
    rhs = comp_term + weight_entropy
    return report_leq("mixture_entropy_bound", lhs, rhs, MIXTURE_TOL,
                      params={"k": len(components),
                              "weight_entropy": weight_entropy},
                      seed=seed)
