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
masses in the interval length, each side evaluated at its own breakpoints
and at the other side's.
"""

from __future__ import annotations

import numpy as np

from .config import MAJ_TOL
from .grids import Grid1D, require_same_grid

__all__ = [
    "rearrange_1d",
    "sorted_layers",
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


def sorted_layers(f: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """(values desc, cell measures) of f, i.e. the layers of f*.

    Every cell measures dx, so the values are sorted alone.
    """
    return np.sort(f.values)[::-1], np.full(f.n_cells, f.dx)


def majorizes(f: Grid1D, g: Grid1D) -> tuple[bool, float]:
    """Check the majorization preorder f majorized-by g.

    Returns ``(ok, worst_margin)`` where ok means that the cumulative
    mass of f* inside every centered interval stays below that of g* up
    to MAJ_TOL, i.e. f is majorized by g.  worst_margin is the most
    negative value of  integral(g*, interval) - integral(f*, interval)
    over all interval lengths; margins at or above -MAJ_TOL pass.

    Both cumulative masses are piecewise linear in the interval length
    with breakpoints at layer boundaries, so their difference takes its
    minimum at a breakpoint of one side or the other: the
    minimum is taken over f's breakpoints, with g's mass interpolated
    there, and over g's, with f's interpolated.  np.interp returns the
    knot values exactly, so this is the minimum over the merged
    breakpoints without forming their union.
    """
    vf, wf = sorted_layers(f)
    vg, wg = sorted_layers(g)
    bf = np.concatenate(([0.0], np.cumsum(wf)))
    bg = np.concatenate(([0.0], np.cumsum(wg)))
    cf = np.concatenate(([0.0], np.cumsum(vf * wf)))
    cg = np.concatenate(([0.0], np.cumsum(vg * wg)))
    at_f = np.interp(bf[1:], bg, cg, right=cg[-1]) - cf[1:]
    at_g = cg[1:] - np.interp(bg[1:], bf, cf, right=cf[-1])
    worst = float(min(at_f.min(), at_g.min()))
    return bool(worst >= -MAJ_TOL), worst


def l1_distance(f: Grid1D, g: Grid1D) -> float:
    """L1 distance between densities on the same grid."""
    require_same_grid(f, g)
    return float(np.abs(f.values - g.values).sum() * f.dx)
