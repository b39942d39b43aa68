"""The iid-maximizer ratio, an upper bound on the sharp entropy-power constant.

For p > n/(n+2) let Z^(p) be the order-p maximizer with E|Z|^2 = n
(a generalized Gaussian) and define

    C_{p,n} = (1/2) N_p(Z1 + Z2) / N_p(Z),   Z1, Z2 iid copies.

C_{p,n} is the ratio N_p(X + Y) / (N_p(X) + N_p(Y)) of one pair, so it
bounds the sharp constant (the infimum over independent X, Y) from above
and is not the constant: at p = 2, n = 1 a symmetric decreasing step pair
has ratio 0.95455 in exact rational arithmetic, against C_{2,1} = 0.95667.
C_1 = 1 (the classical entropy-power inequality) and C_inf = 1/2 are
sharp.  Everything this module produces about C_{p,n} is labeled
"upper-bound".

A proven fallback of the same shape is the Bobkov-Chistyakov bound
N_p(X1 + ... + Xk) >= c_p sum_i N_p(Xi) with c_p = (1/e) p^(1/(p-1)) for
1 < p < inf, c_1 = 1, and c_inf = 1/2 in dimension one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import MAX_CELLS, eps_conv
from .errors import BadParameter, OrderOutOfRange
from .grids import Grid1D
from .convolve import convolve, resample, scale_density
from .densities import beta_of_p, generalized_gaussian
from .entropy import Group, entropy_power, order_label
from .reports import VerificationReport, report_geq

__all__ = [
    "c_constant",
    "ratio_landscape",
    "LandscapePoint",
    "bobkov_chistyakov_bound_check",
    "UPPER_BOUND_LABEL",
]

UPPER_BOUND_LABEL = "upper-bound"

# the cells of the order-p maximizer that ratio_landscape scales into each
# factor
LANDSCAPE_CELLS = 2048


def _pair_ratio(base: Grid1D, n_base: float, s: float, p: float) -> float:
    """N_p(Z + sZ') / ((1 + s^2) N_p(Z)) for Z, Z' iid with density base and
    n_base = N_p(Z).

    sZ' is resampled onto base's spacing; at s = 1 it is base itself, so
    the self-convolution takes one forward transform.
    """
    large = base if s == 1.0 else resample(scale_density(base, s), base.dx)
    return entropy_power(convolve(base, large), p) / ((1.0 + s * s) * n_base)


def c_constant(p: float, cells: int = 8192) -> float:
    """The iid-maximizer ratio C_{p,1}, an upper bound on the sharp constant
    (the infimum of the ratio over all pairs, strictly lower at p = 2).

    Exact endpoints are returned as such: C_{1,1} = 1 and C_{inf,1} = 1/2.
    Interior orders are computed on a grid: the entropy power of the
    maximizer convolved with itself over twice its own, the pair ratio at
    scale ratio 1 that ratio_landscape reads on its diagonal.
    """
    if p == 1.0:
        return 1.0
    if math.isinf(p):
        return 0.5
    if p <= 1.0 / 3.0:
        raise OrderOutOfRange(f"need p > 1/3, got {p}")
    g = generalized_gaussian(beta_of_p(p, 1), cells=cells)
    return _pair_ratio(g, entropy_power(g, p), 1.0, p)


@dataclass(frozen=True)
class LandscapePoint:
    a1: float
    a2: float
    ratio: float


def ratio_landscape(p: float, a_grid: list[tuple[float, float]]) -> list[LandscapePoint]:
    """Ratio N_p(a1 Z1 + a2 Z2) / (N_p(a1 Z1) + N_p(a2 Z2)) over scale pairs.

    Z1, Z2 are iid order-p maximizers.  N_p(cX) = c^2 N_p(X), so the ratio
    does not change when both scales are multiplied by one factor: it is
    the ratio of Z1 + s Z2 with s = max(a1, a2) / min(a1, a2), whatever
    the absolute scales.  One maximizer is built on LANDSCAPE_CELLS cells,
    and each distinct s is computed once, with s Z2 resampled onto Z1's
    spacing; a pair and its mirror, and every diagonal pair (s = 1, equal
    to c_constant(p, LANDSCAPE_CELLS) bit for bit), get the same float.
    Letting s grow drives the ratio to 1.  Each point is the ratio of one
    pair, so an upper bound on the sharp constant.  A pair whose resampled
    grid would exceed MAX_CELLS is a BadParameter.
    """
    if p == 1.0 or math.isinf(p) or p <= 1.0 / 3.0:
        raise OrderOutOfRange(f"landscape needs finite p in (1/3, inf), p != 1, got {p}")
    scale_ratios = []
    for a1, a2 in a_grid:
        if not (0.0 < a1 < math.inf and 0.0 < a2 < math.inf):
            raise BadParameter(f"scales must be positive and finite, got ({a1}, {a2})")
        s = max(a1, a2) / min(a1, a2)
        if LANDSCAPE_CELLS * s > MAX_CELLS:
            raise BadParameter(
                f"scales ({a1}, {a2}) would resample onto {LANDSCAPE_CELLS * s:.0f} cells, "
                f"more than MAX_CELLS = {MAX_CELLS}")
        scale_ratios.append(s)
    base = generalized_gaussian(beta_of_p(p, 1), cells=LANDSCAPE_CELLS)
    n_base = entropy_power(base, p)
    ratios = {s: _pair_ratio(base, n_base, s, p) for s in dict.fromkeys(scale_ratios)}
    return [LandscapePoint(a1=a1, a2=a2, ratio=ratios[s])
            for (a1, a2), s in zip(a_grid, scale_ratios)]


def bobkov_constant(p: float) -> float:
    """Proven entropy-power constant c_p for sums of independent terms on
    the line."""
    if p == 1.0:
        return 1.0
    if math.isinf(p):
        return 0.5
    if p <= 1.0:
        raise OrderOutOfRange(f"Bobkov-Chistyakov constant needs p >= 1, got {p}")
    return (1.0 / math.e) * p ** (1.0 / (p - 1.0))


def bobkov_chistyakov_bound_check(group: Group, p: float,
                                  seed: int | None = None) -> VerificationReport:
    """Check N_p(X1 + ... + Xk) >= c_p sum_i N_p(Xi) on the group's densities.

    This is the proven bound, so the report is a genuine verification
    (no upper-bound label).  The tolerance is the entropy-power image of
    the k-fold convolution budget, 2 (lhs + rhs) eps_conv(dx, k), at least
    1e-9.  h_p of the sum and of each X_i come from the group's rows, so p
    is one of FACTOR_ORDERS.
    """
    k = len(group.fs)
    c_p = bobkov_constant(p)
    h_sum = group.h_conv[p]
    h_each = [row[p] for row in group.h_factors]
    # N_p = exp(2 h_p), as entropy_power computes it
    lhs = math.exp(2.0 * h_sum)
    rhs = c_p * sum(math.exp(2.0 * h) for h in h_each)
    tol = max(2.0 * (lhs + rhs) * eps_conv(group.fs[0].dx, k), 1e-9)
    label = order_label(p)
    return report_geq(f"bobkov_chistyakov[p={label}]",
                      lhs, rhs, tol,
                      params={"k": k, "c_p": c_p, "p": label},
                      seed=seed)
