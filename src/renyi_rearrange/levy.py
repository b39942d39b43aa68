"""Marginals of a 1-D Levy process with diffusion and compound jumps.

For X_t = sqrt(a) B_t + sum_{i <= N_t} Y_i  (B Brownian, N_t Poisson of
rate lambda, Y_i iid with density f) the time-t marginal is the Poisson
mixture

    p_t = e^(-lambda t) sum_k ((lambda t)^k / k!) g_t * f^(*k),

with g_t the N(0, a t) density.  The comparison process keeps the same
diffusion but replaces the jump law by its symmetric decreasing
rearrangement f*; its marginal dominates in every Renyi entropy.

Numerically the series is truncated at auto_k_max(lambda t), the first
term k >= lambda t past which a geometric bound on the Poisson tail,
pmf(k+1) / (1 - lambda t/(k+2)), drops below SERIES_TOL, and
renormalized; no caller chooses the truncation.  At lambda t = 0, a zero
rate or a product that underflows, there are no jumps, and both
marginals are the Gaussian alone on its own grid.  The Gaussian has its
midpoints at integer multiples of the jump law's spacing dx, and a jump
law whose first midpoint is not at a multiple of dx/2 is first
projected onto the nearest grid where it is.  Only the jump law's hull,
its cells from the first positive one to the last, enters the series, so
the marginal spans its support's hull with no zero margins (at seed 0 the
rate-30 Z_t has 79,628 cells).  The truncated sum, its terms 0 to
k_max >= 1 each of positive Poisson weight, is then one call of
:func:`convolve.convolve_series`, which sums the terms of even and of odd
k apart, each class as a power series in the spectrum of the twice-folded
jump law on whole cells, in five real transforms about half as long as
the marginal's dx/2 grid: its cost grows with the length of that grid,
not with the number of terms.  check_levy_dominance builds Z_t, reads its
row of entropies and drops it, then does the same for X_t, so one
marginal is alive at a time.  The working set is that of the series sum,
about 2.1 times the larger marginal's bytes (0.64 MB for that Z_t, 1.36
MB at the peak), when the marginal's dx/2 values are alive beside the two
inverse transforms, each half their size; the entropy row adds about 1.1
times the marginal's bytes to the marginal, one log per order.
A jump rate whose mean lambda*t needs more than the 200-term cap is
refused (with no Poisson term computed when the mean is past the cap),
and a diffusion or jump law whose Gaussian window or series sum would
take more than MAX_CELLS cells is refused before anything is allocated.
Both processes use the same snapped jump law (the rearranged pipeline
rearranges the snapped density), so the dominance being checked is exact
for the densities actually simulated.

Orders p < 1 reach only the transforms' roundoff floor.  A third or more
of a marginal's cells at rate 30 lie below 1e-15 of its maximum (at seed
0, 25,425 of X_t's 63,540 and 55,844 of Z_t's 79,628), where the value
read is roundoff, and h_p for p < 1 weighs those cells up: h_1/2 differs
from a term-by-term fold of the same series by up to ~1.6e-7, while h_0,
h_1, h_2 and h_inf agree to ~1e-13.  The sixth decimal that
`levy` prints for an order below 1 is not significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import MAX_CELLS, SERIES_TOL, eps_conv
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


def auto_k_max(mu: float) -> int:
    """Smallest k in [ceil(mu), _K_CAP] whose Poisson(mu) tail bound
    pmf(k+1) / (1 - mu/(k+2)) is below SERIES_TOL.

    Past k + 1 each pmf term is at most mu/(k+2) times the one before, so
    the tail mass beyond k is at most that geometric sum.  One pmf term is
    computed per k tried, none for a mean past the cap; if no k qualifies,
    TruncationInsufficient is raised.
    """
    for k in range(math.ceil(min(mu, _K_CAP + 1)), _K_CAP + 1):
        if _poisson_pmf(k + 1, mu) / (1.0 - mu / (k + 2)) < SERIES_TOL:
            return k
    raise TruncationInsufficient(
        f"the term cap k={_K_CAP} is too short for lambda*t={mu:.6g}: no k up to it "
        f"bounds the Poisson tail below SERIES_TOL = {SERIES_TOL:g}")


def _snap(f: Grid1D) -> Grid1D:
    """The hull, from the first positive cell to the last, of f when its
    midpoints sit on multiples of dx/2, else of f projected onto the
    nearest such grid (shifting mass by at most half a cell), widened by
    one cell on each side so no mass is dropped."""
    if half_cell_offset(f) is None:
        start = round(f.x0 / f.dx) - 1
        f = project_onto(f, start * f.dx, f.dx, f.n_cells + 2)
    positive = np.flatnonzero(f.values > 0.0)
    first, end = int(positive[0]), int(positive[-1]) + 1
    if first == 0 and end == f.n_cells:
        return f
    return Grid1D(x0=f.x0 + first * f.dx, dx=f.dx, values=f.values[first:end])


def _mixture(spec: LevySpec, jump: Grid1D) -> Grid1D:
    """The Poisson mixture with jump law jump, its terms 0 to
    auto_k_max(lambda t), on the dx/2 refinement of jump's spacing,
    renormalized.  At lambda t = 0, a zero rate or a product that
    underflows, there are no jumps: the mixture is the Gaussian alone,
    refined from spacing 16 sqrt(a t) / 1024.  A sqrt(a t) that is not
    positive and finite, or a Gaussian window of more than MAX_CELLS cells,
    is a BadParameter, raised before anything is allocated."""
    mu = spec.rate * spec.t
    k = auto_k_max(mu)
    sigma = math.sqrt(spec.a * spec.t)
    if not (0.0 < sigma < math.inf):
        raise BadParameter(f"diffusion sqrt(a t) must be positive and finite, got {sigma}")
    dx = jump.dx if mu > 0.0 else 16.0 * sigma / 1024
    span = 8.0 * sigma / dx
    if not span <= (MAX_CELLS - 1) // 2:
        raise BadParameter(
            f"the Gaussian window of 8 sqrt(a t) = {8.0 * sigma:.6g} each side at "
            f"spacing {dx:.6g} takes more than MAX_CELLS = {MAX_CELLS} cells")
    reach = max(4, int(math.ceil(span)))
    gauss = gaussian_on_grid(0.0, sigma, -(reach + 0.5) * dx, dx, 2 * reach + 1)
    if mu == 0.0:
        return normalize(refine(gauss, 2))
    weights = [_poisson_pmf(j, mu) for j in range(k + 1)]
    return normalize(convolve_series(gauss, _snap(jump), weights))


def marginal_density(spec: LevySpec) -> Grid1D:
    """Time-t marginal of the process as a grid density.

    The series is cut at auto_k_max(lambda t), the smallest truncation
    meeting SERIES_TOL (at most 200), and renormalized to unit mass.
    """
    return _mixture(spec, spec.jump)


def rearranged_marginal(spec: LevySpec) -> Grid1D:
    """Marginal of the comparison process with rearranged jump law.

    The diffusion part is already symmetric decreasing and is kept as
    is; the jump density is rearranged after snapping.  When the jump law
    is already symmetric decreasing, the comparison process is the process
    itself, and its marginal is marginal_density(spec), bit for bit; at
    lambda t = 0 both are the Gaussian alone.
    """
    if is_symmetric_decreasing(spec.jump):
        return marginal_density(spec)
    return _mixture(spec, rearrange_1d(_snap(spec.jump)))


def check_levy_dominance(spec: LevySpec,
                         orders: Sequence[float]) -> list[VerificationReport]:
    """Reports h_p(X_t) >= h_p(Z_t) for each requested order.

    The tolerance is eps_conv(dx, k_max + 1), dx the coarser of the two
    marginals' spacings and k_max = auto_k_max(lambda t): every term of
    the truncated mixture is at most a (k_max + 1)-fold convolution.  One
    marginal is alive at a time: Z_t is built, read once at every order
    by renyi_entropies and dropped, then X_t likewise.
    """
    k_max = auto_k_max(spec.rate * spec.t)
    z_t = rearranged_marginal(spec)
    orders = [order(p) for p in orders]
    rhs_row, z_dx = renyi_entropies(z_t, orders), z_t.dx
    del z_t
    x_t = marginal_density(spec)
    lhs_row = renyi_entropies(x_t, orders)
    tol = eps_conv(max(x_t.dx, z_dx), k_max + 1)
    out = []
    for p, lhs, rhs in zip(orders, lhs_row, rhs_row):
        label = order_label(p)
        out.append(report_geq(
            f"levy_dominance[p={label}]", lhs, rhs, tol,
            params={"a": spec.a, "rate": spec.rate, "t": spec.t,
                    "k_max": k_max, "order": label}))
    return out
