"""Numerical exploration of the sharp Renyi entropy-power constant.

For p > n/(n+2) let Z^(p) be the order-p maximizer with E|Z|^2 = n
(a generalized Gaussian) and define

    C_{p,n} = (1/2) N_p(Z1 + Z2) / N_p(Z),   Z1, Z2 iid copies.

The conjecture is that N_p(X + Y) >= C_{p,n} (N_p(X) + N_p(Y)) for all
independent X, Y, with equality for iid maximizers; C_1 = 1 recovers the
classical entropy-power inequality and C_inf = 1/2 the order-infinity
one.  Everything this module produces about the conjectured sharp form
is labeled "conjecture-support": the numbers support, but do not prove,
the statement.

A proven fallback of the same shape is the Bobkov-Chistyakov bound
N_p(X1 + ... + Xk) >= c_p sum_i N_p(Xi) with c_p = (1/e) p^(1/(p-1)) for
1 < p < inf, c_1 = 1, and c_inf = 1/2 in dimension one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import EPS_CONV_FACTOR
from .errors import BadParameter, OrderOutOfRange, UnsupportedDimension
from .grids import Grid1D
from .convolve import convolve, resample, scale_density
from .densities import beta_of_p, generalized_gaussian
from .entropy import Group, RenyiOrder, entropy_power
from .reports import VerificationReport, report_geq

__all__ = [
    "c_constant",
    "ratio_landscape",
    "LandscapePoint",
    "bobkov_constant",
    "bobkov_chistyakov_bound_check",
    "CONJECTURE_LABEL",
]

CONJECTURE_LABEL = "conjecture-support"


def _maximizer_1d(p: float, cells: int) -> Grid1D:
    g = generalized_gaussian(1, beta_of_p(p, 1), cells=cells)
    assert isinstance(g, Grid1D)
    return g


def c_constant(p: float, n: int = 1, cells: int = 8192) -> float:
    """The conjectured sharp constant C_{p,n} (conjecture-support value).

    Exact endpoints are returned as such: C_{1,n} = 1 and C_{inf,n} = 1/2.
    Interior orders are computed on a grid (dimension one only): convolve
    two copies of the maximizer and take the entropy-power ratio.
    """
    if p == 1.0:
        return 1.0
    if math.isinf(p):
        return 0.5
    if n != 1:
        raise UnsupportedDimension(
            "numeric C_{p,n} is implemented for n = 1 only")
    if p <= n / (n + 2.0):
        raise OrderOutOfRange(f"need p > n/(n+2), got {p}")
    g = _maximizer_1d(p, cells)
    conv = convolve(g, g)
    return 0.5 * entropy_power(conv, p, 1) / entropy_power(g, p, 1)


@dataclass(frozen=True)
class LandscapePoint:
    a1: float
    a2: float
    ratio: float


def ratio_landscape(p: float, a_grid: list[tuple[float, float]],
                    cells: int = 2048) -> list[LandscapePoint]:
    """Ratio N_p(a1 Z1 + a2 Z2) / (N_p(a1 Z1) + N_p(a2 Z2)) over scale pairs.

    Z1, Z2 are iid order-p maximizers.  The conjecture says the ratio is
    minimized on the diagonal a1 = a2, where it equals C_{p,1}; scaling
    both arguments leaves it invariant, and letting one scale vanish
    drives it to 1.  Scaled copies are resampled onto a common spacing
    before convolving (entropy powers of the factors are computed on
    their own exact grids).
    """
    if p == 1.0 or math.isinf(p) or p <= 1.0 / 3.0:
        raise OrderOutOfRange(f"landscape needs finite p in (1/3, inf), p != 1, got {p}")
    base = _maximizer_1d(p, cells)
    n_base = entropy_power(base, p, 1)
    out: list[LandscapePoint] = []
    for a1, a2 in a_grid:
        if not (a1 > 0.0 and a2 > 0.0):
            raise BadParameter(f"scales must be positive, got ({a1}, {a2})")
        f1 = scale_density(base, a1)
        f2 = scale_density(base, a2)
        dx = min(f1.dx, f2.dx)
        if f1.dx > dx * (1.0 + 1e-12):
            f1 = resample(f1, dx)
        if f2.dx > dx * (1.0 + 1e-12):
            f2 = resample(f2, dx)
        num = entropy_power(convolve(f1, f2), p, 1)
        den = (a1 * a1 + a2 * a2) * n_base  # exact scaling of the factors
        out.append(LandscapePoint(a1=a1, a2=a2, ratio=num / den))
    return out


def bobkov_constant(p: float, n: int = 1) -> float:
    """Proven entropy-power constant c_p for sums of iid-independent terms."""
    if p == 1.0:
        return 1.0
    if math.isinf(p):
        return 0.5 if n == 1 else 1.0 / math.e
    if p <= 1.0:
        raise OrderOutOfRange(f"Bobkov-Chistyakov constant needs p >= 1, got {p}")
    return (1.0 / math.e) * p ** (1.0 / (p - 1.0))


def bobkov_chistyakov_bound_check(group: Group, p: float,
                                  seed: int | None = None) -> VerificationReport:
    """Check N_p(X1 + ... + Xk) >= c_p sum_i N_p(Xi) on the group's densities.

    This is the proven bound, so the report is a genuine verification
    (no conjecture label).  The tolerance scales like the entropy-power
    image of the k-fold convolution budget.  h_p of the sum and of each
    X_i come from the group's rows, so p is one of FACTOR_ORDERS.
    """
    k = len(group.fs)
    c_p = bobkov_constant(p, 1)
    order = RenyiOrder.coerce(p)
    h_sum = group.h_conv[order]
    h_each = [row[order] for row in group.h_factors]
    # N_p = exp(2 h_p) in dimension one, as entropy_power(., p, 1) computes it
    lhs = math.exp(2.0 * h_sum)
    rhs = c_p * sum(math.exp(2.0 * h) for h in h_each)
    dx = group.fs[0].dx
    tol = max(2.0 * (lhs + rhs) * EPS_CONV_FACTOR * dx * k, 1e-9)
    return report_geq(f"bobkov_chistyakov[p={order.label()}]",
                      lhs, rhs, tol,
                      params={"k": k, "c_p": c_p, "p": order.label()},
                      seed=seed)
