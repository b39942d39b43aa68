"""Marginals of a 1-D Levy process with diffusion and compound jumps.

For X_t = sqrt(a) B_t + sum_{i <= N_t} Y_i  (B Brownian, N_t Poisson of
rate lambda, Y_i iid with density f) the time-t marginal is the Poisson
mixture

    p_t = e^(-lambda t) sum_k ((lambda t)^k / k!) g_t * f^(*k),

with g_t the N(0, a t) density.  The comparison process keeps the same
diffusion but replaces the jump law by its symmetric decreasing
rearrangement f*; its marginal dominates in every Renyi entropy.

Numerically the series is truncated where the Poisson tail drops below
SERIES_TOL and renormalized.  The Gaussian has its midpoints at integer
multiples of the jump law's spacing dx, and a jump law whose first
midpoint is not at a multiple of dx/2 is first projected onto the
nearest grid where it is.  The truncated sum is then one call of
:func:`convolve.convolve_series`, which sums the terms of even and of odd
k apart, each class as a power series in the spectrum of the twice-folded
jump law on whole cells, in five real transforms about half as long as
the marginal's dx/2 grid: its cost grows with the length of that grid,
not with the number of terms.  check_levy_dominance builds Z_t, reads its
row of entropies and drops it, then does the same for X_t, so one
marginal is alive at a time and the working set is that of the series
sum, about 3 times the larger marginal's bytes.  A jump rate whose mean
lambda*t reaches the term cap plus 2 is refused before any Poisson term
is summed.  Both processes use the same snapped jump law (the rearranged
pipeline rearranges the snapped density), so the dominance being checked
is exact for the densities actually simulated.

Orders p < 1 reach only the transforms' roundoff floor.  A third or more
of a marginal's cells at rate 30 lie below 1e-15 of its maximum, where the
value read is roundoff, and h_p for p < 1 weighs those cells up: h_1/2
differs from a term-by-term fold of the same series by up to ~2.5e-7,
while h_0, h_1, h_2 and h_inf agree to ~1e-13.  The sixth decimal that
`levy` prints for an order below 1 is not significant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .config import EPS_CONV_FACTOR, SERIES_TOL
from .errors import BadParameter, TruncationInsufficient
from .grids import Grid1D, half_cell_offset, is_symmetric_decreasing, normalize, refine
from .convolve import convolve_series, project_onto
from .densities import gaussian_on_grid
from .entropy import order, order_label, renyi_entropies
from .rearrange import rearrange_1d
from .reports import VerificationReport, report_geq

__all__ = [
    "LevySpec",
    "marginal_density",
    "rearranged_marginal",
    "check_levy_dominance",
    "auto_k_max",
]

_K_CAP = 200
_SF_REL = 1e-18


@dataclass(frozen=True)
class LevySpec:
    """Parameters of the process: diffusion a > 0, jump rate, jump law, time."""

    a: float
    rate: float
    jump: Grid1D
    t: float

    def __post_init__(self) -> None:
        for what, value in (("diffusion coefficient", self.a), ("jump rate", self.rate),
                            ("time", self.t)):
            if not math.isfinite(value):
                raise BadParameter(f"{what} must be finite, got {value}")
        if not (self.a > 0.0):
            raise BadParameter(f"diffusion coefficient must be positive, got {self.a}")
        if self.rate < 0.0:
            raise BadParameter(f"jump rate must be nonnegative, got {self.rate}")
        if not (self.t > 0.0):
            raise BadParameter(f"time must be positive, got {self.t}")
        if abs(self.jump.mass - 1.0) > 1e-6:
            raise BadParameter("jump density must be normalized")


def _poisson_pmf(k: int, mu: float) -> float:
    """P(N = k) for N ~ Poisson(mu), from lgamma."""
    if mu == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(-mu + k * math.log(mu) - math.lgamma(k + 1))


def _poisson_sf(k: int, mu: float) -> float:
    """P(N > k) for N ~ Poisson(mu): the math.fsum of the pmf terms above k.

    The terms are taken outward from the larger of k + 1 and floor(mu), so
    they decrease in each direction, and each direction stops once a term
    is at most _SF_REL of the running sum (a term that underflows to 0
    stops it too).
    """
    start = max(k + 1, math.floor(mu))
    terms: list[float] = []
    total = 0.0
    for js in (itertools.count(start), range(start - 1, k, -1)):
        for j in js:
            term = _poisson_pmf(j, mu)
            terms.append(term)
            total += term
            if term <= _SF_REL * total:
                break
    return math.fsum(terms)


def _refuse_below_mean(k: int, mu: float, what: str) -> None:
    """Raise when k <= mu - 2: the Poisson median is at least mu - log 2, so
    the tail beyond k is above 1/2.  It is not summed: that takes O(sqrt(mu))
    pmf terms, and at large mu the pmf's exponent cancels to a wrong value."""
    if k <= mu - 2.0:
        raise TruncationInsufficient(
            f"{what}={k} is at most lambda*t - 2 for lambda*t={mu:.6g}: "
            "the Poisson tail beyond it is above 1/2")


def auto_k_max(mu: float) -> int:
    """Smallest k with Poisson(mu) tail mass beyond k below SERIES_TOL.

    The search runs from ceil(mu) up to the cap _K_CAP.  Each pmf term is
    computed once, from the first searched k + 1 on until one is at most
    _SF_REL * SERIES_TOL, and the tail beyond k is the math.fsum of the
    terms above k.
    """
    if mu == 0.0:
        return 0
    _refuse_below_mean(_K_CAP, mu, "the term cap k")
    k0 = int(math.ceil(mu))
    first = min(k0, _K_CAP)
    terms = []
    for j in itertools.count(first + 1):
        terms.append(_poisson_pmf(j, mu))
        if terms[-1] <= _SF_REL * SERIES_TOL:
            break
    for k in range(k0, _K_CAP + 1):
        if math.fsum(terms[k - first:]) < SERIES_TOL:
            return k
    raise TruncationInsufficient(
        f"Poisson tail beyond the term cap k={_K_CAP} is still "
        f"{math.fsum(terms[_K_CAP - first:]):.3g} for lambda*t={mu:.6g}")


def _snap(f: Grid1D) -> Grid1D:
    """f itself when its midpoints sit on multiples of dx/2, else f
    projected onto the nearest such grid (shifting mass by at most half a
    cell), widened by one cell on each side so no mass is dropped."""
    if half_cell_offset(f) is not None:
        return f
    start = round(f.x0 / f.dx) - 1
    return project_onto(f, start * f.dx, f.dx, f.n_cells + 2)


def _mixture(spec: LevySpec, jump: Grid1D | None, k_max: int) -> Grid1D:
    mu = spec.rate * spec.t
    if mu > 0.0:
        _refuse_below_mean(k_max, mu, "k_max")
        tail = _poisson_sf(k_max, mu)
        if tail >= SERIES_TOL:
            raise TruncationInsufficient(
                f"k_max={k_max} leaves Poisson tail {tail:.3g} >= {SERIES_TOL}")
    sigma = math.sqrt(spec.a * spec.t)
    dx = jump.dx if jump is not None else 16.0 * sigma / 1024
    reach = max(4, int(math.ceil(8.0 * sigma / dx)))
    gauss = gaussian_on_grid(0.0, sigma, -(reach + 0.5) * dx, dx, 2 * reach + 1)
    if jump is None:
        return normalize(refine(gauss, 2))
    weights = [_poisson_pmf(k, mu) for k in range(k_max + 1)]
    return normalize(convolve_series(gauss, _snap(jump), weights))


def marginal_density(spec: LevySpec, k_max: int | None = None) -> Grid1D:
    """Time-t marginal of the process as a grid density.

    k_max defaults to the smallest truncation meeting SERIES_TOL (capped
    at 200); passing an insufficient explicit k_max raises
    TruncationInsufficient.  The result is renormalized to unit mass.
    """
    if k_max is None:
        k_max = auto_k_max(spec.rate * spec.t)
    return _mixture(spec, spec.jump if spec.rate > 0.0 else None, k_max)


def rearranged_marginal(spec: LevySpec, k_max: int | None = None) -> Grid1D:
    """Marginal of the comparison process with rearranged jump law.

    The diffusion part is already symmetric decreasing and is kept as
    is; the jump density is rearranged after snapping, except that an
    already symmetric-decreasing jump is used unchanged so the
    comparison process coincides with the original bit for bit.
    """
    if k_max is None:
        k_max = auto_k_max(spec.rate * spec.t)
    if spec.rate == 0.0:
        return _mixture(spec, None, k_max)
    if is_symmetric_decreasing(spec.jump):
        jump_star = spec.jump
    else:
        jump_star = rearrange_1d(_snap(spec.jump))
    return _mixture(spec, jump_star, k_max)


def check_levy_dominance(spec: LevySpec,
                         orders: Sequence[float],
                         k_max: int | None = None) -> list[VerificationReport]:
    """Reports h_p(X_t) >= h_p(Z_t) for each requested order.

    The tolerance budget scales with the series depth: every term of the
    truncated mixture is a (k+1)-fold convolution at the working spacing.
    One marginal is alive at a time: Z_t is built, read once at every
    order by renyi_entropies and dropped, then X_t likewise.
    """
    if k_max is None:
        k_max = auto_k_max(spec.rate * spec.t)
    z_t = rearranged_marginal(spec, k_max)
    orders = [order(p) for p in orders]
    rhs_row, z_dx = renyi_entropies(z_t, orders), z_t.dx
    del z_t
    x_t = marginal_density(spec, k_max)
    lhs_row = renyi_entropies(x_t, orders)
    tol = EPS_CONV_FACTOR * max(x_t.dx, z_dx) * (k_max + 1)
    out = []
    for p, lhs, rhs in zip(orders, lhs_row, rhs_row):
        label = order_label(p)
        out.append(report_geq(
            f"levy_dominance[p={label}]", lhs, rhs, tol,
            params={"a": spec.a, "rate": spec.rate, "t": spec.t,
                    "k_max": k_max, "order": label}))
    return out
