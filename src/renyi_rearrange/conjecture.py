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
import sys
from dataclasses import dataclass

from .config import MAX_CELLS, eps_conv
from .errors import BadParameter, DensityOverflow, OrderOutOfRange
from .grids import same_spacing
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


def c_constant(p: float, cells: int = 8192) -> float:
    """The iid-maximizer ratio C_{p,1}, an upper bound on the sharp constant
    (the infimum of the ratio over all pairs, strictly lower at p = 2).

    Exact endpoints are returned as such: C_{1,1} = 1 and C_{inf,1} = 1/2.
    Interior orders are computed on a grid: convolve two copies of the
    maximizer and take the entropy-power ratio.
    """
    if p == 1.0:
        return 1.0
    if math.isinf(p):
        return 0.5
    if p <= 1.0 / 3.0:
        raise OrderOutOfRange(f"need p > 1/3, got {p}")
    g = generalized_gaussian(beta_of_p(p, 1), cells=cells)
    conv = convolve(g, g)
    return 0.5 * entropy_power(conv, p) / entropy_power(g, p)


@dataclass(frozen=True)
class LandscapePoint:
    a1: float
    a2: float
    ratio: float


def ratio_landscape(p: float, a_grid: list[tuple[float, float]]) -> list[LandscapePoint]:
    """Ratio N_p(a1 Z1 + a2 Z2) / (N_p(a1 Z1) + N_p(a2 Z2)) over scale pairs.

    Z1, Z2 are iid order-p maximizers, built on LANDSCAPE_CELLS cells
    before scaling.  On the diagonal a1 = a2 the ratio equals C_{p,1};
    scaling both arguments leaves it invariant, and letting one scale
    vanish drives it to 1.  Each point is the ratio of one pair, so an
    upper bound on the sharp constant.  The ratio is
    symmetric in (a1, a2), so each unordered pair is computed once, with
    the smaller scale as the first factor and the larger one resampled
    onto its spacing, and a pair and its mirror get the same float.  Each
    distinct scale's density is built once and shared by its pairs; a
    diagonal pair convolves that one density with itself, which takes
    one forward transform.  Entropy powers of the factors are computed on
    their own exact grids.  A pair whose resampled grid would exceed
    MAX_CELLS is a BadParameter; entropy powers that leave the
    normal float range are a DensityOverflow.
    """
    if p == 1.0 or math.isinf(p) or p <= 1.0 / 3.0:
        raise OrderOutOfRange(f"landscape needs finite p in (1/3, inf), p != 1, got {p}")
    for a1, a2 in a_grid:
        if not (0.0 < a1 < math.inf and 0.0 < a2 < math.inf):
            raise BadParameter(f"scales must be positive and finite, got ({a1}, {a2})")
        fine_cells = LANDSCAPE_CELLS * (max(a1, a2) / min(a1, a2))
        if fine_cells > MAX_CELLS:
            raise BadParameter(
                f"scales ({a1}, {a2}) would resample onto {fine_cells:.0f} cells, "
                f"more than MAX_CELLS = {MAX_CELLS}")
    base = generalized_gaussian(beta_of_p(p, 1), cells=LANDSCAPE_CELLS)
    n_base = entropy_power(base, p)
    scaled = {a: scale_density(base, a) for a in {a for pair in a_grid for a in pair}}
    ratios: dict[tuple[float, float], float] = {}
    out: list[LandscapePoint] = []
    for a1, a2 in a_grid:
        lo, hi = min(a1, a2), max(a1, a2)
        if (lo, hi) not in ratios:
            den = (lo * lo + hi * hi) * n_base  # exact scaling of the factors
            # a subnormal sum has lost digits the ratio would silently lack
            if not (sys.float_info.min <= den < math.inf):
                raise DensityOverflow(
                    f"N_p(a1 Z1) + N_p(a2 Z2) is {den} at scales ({a1}, {a2}), "
                    "outside the normal float range")
            small, large = scaled[lo], scaled[hi]
            if not same_spacing(small, large):
                large = resample(large, small.dx)
            ratios[lo, hi] = entropy_power(convolve(small, large), p) / den
        out.append(LandscapePoint(a1=a1, a2=a2, ratio=ratios[lo, hi]))
    return out


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
