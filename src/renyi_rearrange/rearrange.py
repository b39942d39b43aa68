"""Symmetric decreasing rearrangement on grids.

The rearrangement f* of a step density f is again a step density, and on
a grid it can be computed exactly: sort the cells by value and stack them
around the origin.  In one dimension each input cell of width dx becomes
two mirrored cells of width dx/2, which keeps the output exactly
symmetric for every input (a center-out placement on full cells cannot).
The cells are ranked by sorting their values alone: tied cells carry equal
values and equal widths, so which of them lands where cannot change the
output, and the result is deterministic.

Because whole cells move and never change value, every level-set measure,
every Renyi entropy and any integral of the form  int phi(f)  is
preserved exactly, not just to quadrature accuracy.  Majorization
(cumulative mass of f* inside centered intervals never exceeding that of
g*) is likewise checked exactly by comparing piecewise-linear cumulative
masses in the interval length at every knot of the finer side, a
superset of the coarser side's knots.
"""

from __future__ import annotations

import numpy as np

from .config import MAJ_TOL
from .errors import SpacingMismatch
from .grids import Grid1D, require_same_grid

__all__ = [
    "rearrange_1d",
    "discrete_arrangement",
    "majorizes",
    "l1_distance",
]


def rearrange_1d(f: Grid1D) -> Grid1D:
    """Symmetric decreasing rearrangement of a 1-D grid density.

    The output grid has spacing dx/2 and is centered at the origin; the
    i-th largest input value occupies the two half-width cells at
    positions +-i from the center.  Exact: the multiset of (value, cell
    length) pairs is unchanged.
    """
    n = f.n_cells
    ascending = np.sort(f.values)
    out = np.concatenate((ascending, ascending[::-1]))
    return Grid1D(x0=-0.5 * n * f.dx, dx=0.5 * f.dx, values=out)


def discrete_arrangement(f: Grid1D) -> Grid1D:
    """f's values on f's own cells, the largest in the middle one (the left
    of two), the rest decreasing alternately right and left: the discrete
    arrangement (Hardy-Littlewood-Polya Thm 371), not the paper's f*."""
    s = np.sort(f.values)[::-1]
    return Grid1D(f.x0, f.dx, np.concatenate((s[0::2][::-1], s[1::2])))


def majorizes(f: Grid1D, g: Grid1D) -> tuple[bool, float]:
    """Check the majorization preorder f majorized-by g.

    Returns ``(ok, worst_margin)`` where ok means that the cumulative
    mass of f* inside every centered interval stays below that of g* up
    to MAJ_TOL, i.e. f is majorized by g.  worst_margin is the most
    negative value of  integral(g*, interval) - integral(f*, interval)
    over all interval lengths; margins at or above -MAJ_TOL pass.

    Both cumulative masses are piecewise linear in the interval length
    with a knot at every multiple of their own spacing.  The spacings must
    be in a whole ratio (else SpacingMismatch, the rule convolve uses), so
    every knot of the coarser side is one of the finer side's, and the
    minimum over those knots is the minimum over all lengths.
    """
    fine = min(f.dx, g.dx)
    rf, rg = round(f.dx / fine), round(g.dx / fine)
    if abs(rf * fine - f.dx) + abs(rg * fine - g.dx) > 1e-12 * max(f.dx, g.dx):
        raise SpacingMismatch(f"spacings {f.dx} and {g.dx} are not in a whole ratio")
    n = max(rf * f.n_cells, rg * g.n_cells)
    margin = _cumulative_mass(g, rg, n) - _cumulative_mass(f, rf, n)
    worst = float(margin.min())
    return bool(worst >= -MAJ_TOL), worst


def _cumulative_mass(f: Grid1D, r: int, n: int) -> np.ndarray:
    """Mass of f* inside the centered intervals of length h, 2h, ..., nh
    (h = f.dx / r): one sort and one running sum give it at every r-th
    length, linear slices in between, and the total past the support."""
    mass = np.cumsum(np.sort(f.values)[::-1]) * f.dx
    out = np.full(n, mass[-1])
    end = r * mass.size
    out[r - 1:end:r] = mass
    for i in range(1, r):
        below = np.concatenate(([0.0], mass[:-1]))
        out[i - 1:end:r] = below + (i / r) * (mass - below)
    return out


def l1_distance(f: Grid1D, g: Grid1D) -> float:
    """L1 distance between densities on the same grid."""
    require_same_grid(f, g)
    return float(np.abs(f.values - g.values).sum() * f.dx)
