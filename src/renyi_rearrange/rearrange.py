"""Spherically symmetric decreasing rearrangement on grids.

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
(cumulative mass of f* inside centered balls never exceeding that of g*)
is likewise checked exactly by comparing piecewise-linear cumulative
masses in the ball-volume variable, each side evaluated at its own
breakpoints and at the other side's.
"""

from __future__ import annotations

import numpy as np

from .config import MAJ_TOL
from .errors import DimensionMismatch
from .grids import Grid1D, RadialDensity, make_radial, require_same_grid, unit_ball_volume

__all__ = [
    "rearrange_1d",
    "rearrange_radial",
    "sorted_layers",
    "majorizes",
    "l1_distance",
]

Density = Grid1D | RadialDensity


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


def rearrange_radial(f: RadialDensity) -> RadialDensity:
    """Rearrangement of a radial density in R^n.

    Shells are sorted by value (stable, descending) and re-stacked from
    the origin outward; the j-th output shell boundary sits at the radius
    whose ball volume equals the cumulative sorted shell volume, so every
    super-level-set volume matches the input exactly.  For n >= 2 those
    boundaries are generally non-uniform and the result carries explicit
    radii; an already-nonincreasing profile is returned unchanged.
    """
    prof = f.profile
    if np.all(np.diff(prof) <= 0.0):
        return f
    vols = f.shell_volumes()
    order = np.argsort(-prof, kind="stable")
    ranked = prof[order]
    cum = np.concatenate(([0.0], np.cumsum(vols[order])))
    radii = (cum / unit_ball_volume(f.dim)) ** (1.0 / f.dim)
    return make_radial(f.dim, f.dr, ranked, radii)


def sorted_layers(f: Density) -> tuple[np.ndarray, np.ndarray]:
    """(values desc, cell measures) of f, i.e. the layers of f*.

    Every cell of a Grid1D measures dx, so its values are sorted alone;
    a RadialDensity's shells differ in volume and move with their values.
    """
    if isinstance(f, Grid1D):
        return np.sort(f.values)[::-1], np.full(f.n_cells, f.dx)
    vals, cell = f.cells()
    order = np.argsort(-vals, kind="stable")
    return vals[order], cell[order]


def _ambient_dim(f: Density) -> int:
    return 1 if isinstance(f, Grid1D) else f.dim


def majorizes(f: Density, g: Density,
              maj_tol: float = MAJ_TOL) -> tuple[bool, float]:
    """Check the majorization preorder f majorized-by g.

    Returns ``(ok, worst_margin)`` where ok means that the cumulative
    mass of f* inside every centered ball stays below that of g* up to
    maj_tol, i.e. f is majorized by g.  worst_margin is the most negative
    value of  integral(g*, ball) - integral(f*, ball)  over all ball
    radii; margins at or above -maj_tol pass.

    Both cumulative masses are piecewise linear in the ball-volume
    variable with breakpoints at layer boundaries, so their difference
    takes its minimum at a breakpoint of one side or the other: the
    minimum is taken over f's breakpoints, with g's mass interpolated
    there, and over g's, with f's interpolated.  np.interp returns the
    knot values exactly, so this is the minimum over the merged
    breakpoints without forming their union.
    """
    if _ambient_dim(f) != _ambient_dim(g):
        raise DimensionMismatch(
            f"cannot compare dim {_ambient_dim(f)} with dim {_ambient_dim(g)}")
    vf, wf = sorted_layers(f)
    vg, wg = sorted_layers(g)
    bf = np.concatenate(([0.0], np.cumsum(wf)))
    bg = np.concatenate(([0.0], np.cumsum(wg)))
    cf = np.concatenate(([0.0], np.cumsum(vf * wf)))
    cg = np.concatenate(([0.0], np.cumsum(vg * wg)))
    at_f = np.interp(bf[1:], bg, cg, right=cg[-1]) - cf[1:]
    at_g = cg[1:] - np.interp(bg[1:], bf, cf, right=cf[-1])
    worst = float(min(at_f.min(), at_g.min()))
    return bool(worst >= -maj_tol), worst


def l1_distance(f: Grid1D, g: Grid1D) -> float:
    """L1 distance between densities on the same grid."""
    require_same_grid(f, g)
    return float(np.abs(f.values - g.values).sum() * f.dx)
