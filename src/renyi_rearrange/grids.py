"""Step densities on a uniform grid on the line.

A :class:`Grid1D` is a piecewise-constant probability density: cell j
covers ``[x0 + j*dx, x0 + (j+1)*dx)`` and carries the constant value
``values[j]``.  Every identity in this package that does not involve a
convolution is computed exactly for such step functions, which is the
point of the representation: rearrangement, level-set measures and Renyi
entropies reduce to finite sums over cells.

Moments use the midpoint rule, which is exact for the zeroth and first
moment of a step density and carries an O(dx^2) error for k >= 2.

The grid contract lives here.  A Grid1D checks its origin and spacing
(finite, and dx > 0), owns its values and makes them read-only, copying
a view so that no writable base stays reachable (make_grid copies caller
data once), so entropy.Group may cache what it computes from one.
Spacings agree to one part in 1e12 (same_spacing), and half_cell_offset
alone tests half-cell alignment.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import SYM_TOL
from .errors import (
    BadParameter,
    EmptyGrid,
    GridMismatch,
    NegativeValue,
    NonPositiveSpacing,
    ZeroMass,
)

__all__ = [
    "Grid1D",
    "DensityGeneratorSpec",
    "GENERATOR_KINDS",
    "make_grid",
    "normalize",
    "moment",
    "variance",
    "random_density",
    "refine",
    "is_symmetric_decreasing",
    "write_density_csv",
    "read_density_csv",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    """a made read-only in place, or a read-only copy when a is a view."""
    a = a if a.base is None else a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid1D:
    """Piecewise-constant density on a uniform 1-D grid.

    Every cell measures dx, so the layer reads (entropies, rearrangement,
    majorization) take `values` and the scalar dx, no measure array.

    Attributes
    ----------
    x0 : float
        Left edge of the first cell, finite (else BadParameter).
    dx : float
        Cell width, positive and finite (else NonPositiveSpacing).
    values : np.ndarray
        Nonnegative density values, one per cell.  Owned, read-only.
    """

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if not math.isfinite(self.x0):
            raise BadParameter(f"grid origin x0 must be finite, got {self.x0}")
        if not (0.0 < self.dx < math.inf):  # also dx = nan
            raise NonPositiveSpacing(f"dx must be positive and finite, got {self.dx}")
        object.__setattr__(self, "values", _frozen(self.values))

    @property
    def n_cells(self) -> int:
        return int(self.values.shape[0])

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.dx)

    @property
    def midpoints(self) -> np.ndarray:
        return self.x0 + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def edges(self) -> np.ndarray:
        return self.x0 + np.arange(self.n_cells + 1) * self.dx

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    @property
    def support_measure(self) -> float:
        """Lebesgue measure of {f > 0} (exact zeros are outside support)."""
        return float(np.count_nonzero(self.values) * self.dx)


def make_grid(x0: float, dx: float, values: Iterable[float]) -> Grid1D:
    """Validated Grid1D constructor.

    Raises NonPositiveSpacing, EmptyGrid, NegativeValue or (for a
    non-finite x0) BadParameter on bad input.
    Mass is *not* required to be 1 here; see :func:`normalize`.
    """
    vals = np.array(list(values) if not isinstance(values, np.ndarray) else values,
                    dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise EmptyGrid("grid needs at least one cell")
    if not np.all(np.isfinite(vals)):
        raise NegativeValue("grid values must be finite")
    if np.any(vals < 0.0):
        worst = float(vals.min())
        raise NegativeValue(f"grid values must be nonnegative, min={worst}")
    return Grid1D(x0=float(x0), dx=float(dx), values=vals)


def same_spacing(f: Grid1D, g: Grid1D) -> bool:
    return abs(f.dx - g.dx) <= 1e-12 * f.dx


# how far, in half cells, an origin may sit from a multiple of dx/2
_HALF_CELL_TOL = 2e-9


def half_cell_offset(f: Grid1D) -> int | None:
    """x0 in half cells, 2 x0 / dx, when whole to _HALF_CELL_TOL, else None."""
    half_cells = 2.0 * f.x0 / f.dx
    nearest = round(half_cells)
    return nearest if abs(half_cells - nearest) <= _HALF_CELL_TOL else None


def require_same_grid(f: Grid1D, g: Grid1D) -> None:
    """Raise GridMismatch unless f and g sit on one grid."""
    if not (same_spacing(f, g) and f.n_cells == g.n_cells
            and abs(f.x0 - g.x0) <= 1e-9 * f.dx):
        raise GridMismatch(
            f"grids differ: (x0={f.x0}, dx={f.dx}, n={f.n_cells}) vs "
            f"(x0={g.x0}, dx={g.dx}, n={g.n_cells})")


def normalize(f: Grid1D) -> Grid1D:
    """Rescale to unit mass.  Raises ZeroMass when there is nothing to scale."""
    m = f.mass
    if not (m > 0.0):
        raise ZeroMass(f"total mass is {m}")
    return Grid1D(f.x0, f.dx, f.values / m)


def moment(f: Grid1D, k: int) -> float:
    """k-th raw moment by the midpoint rule (exact for k <= 1)."""
    if k < 0:
        raise BadParameter("moment order must be >= 0")
    return float(np.sum(f.values * f.midpoints**k) * f.dx)


def variance(f: Grid1D) -> float:
    m = f.mass
    if not (m > 0.0):
        raise ZeroMass("variance of a zero-mass density")
    m1 = moment(f, 1) / m
    m2 = moment(f, 2) / m
    return m2 - m1 * m1


def refine(f: Grid1D, factor: int) -> Grid1D:
    """Split every cell into `factor` equal sub-cells (exact as a function)."""
    if factor < 1 or int(factor) != factor:
        raise BadParameter("refinement factor must be a positive integer")
    return Grid1D(f.x0, f.dx / factor, np.repeat(f.values, factor))


def is_symmetric_decreasing(f: Grid1D) -> bool:
    """True when the grid is centered at 0 within SYM_TOL cells, and even
    and nonincreasing in |x| within SYM_TOL of the maximum value, so the
    answer does not change when the density is rescaled."""
    v, slack = f.values, SYM_TOL * f.max_value
    return bool(abs(f.x0 / f.dx + 0.5 * v.size) <= SYM_TOL
                and np.max(np.abs(v - v[::-1])) <= slack
                and np.all(np.diff(v[(v.size + 1) // 2:]) <= slack))


GENERATOR_KINDS = ("uniform-mixture", "gaussian-mixture", "spiky-piecewise", "bimodal")

# the half width of every generated grid
HALFWIDTH = 4.0


@dataclass(frozen=True)
class DensityGeneratorSpec:
    """Recipe for a reproducible random test density.

    kind is one of GENERATOR_KINDS; the same spec always produces the
    same density (bit for bit) because all draws come from
    ``np.random.default_rng(seed)`` in a fixed order.
    """

    kind: str
    component_count: int = 3
    seed: int = 0
    cells: int = 1024

    def validate(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise BadParameter(f"unknown generator kind {self.kind!r}")
        if self.component_count < 1:
            raise BadParameter("component_count must be >= 1")
        if self.cells < 8:
            raise BadParameter("cells must be >= 8")
        if self.seed < 0:
            raise BadParameter("seed must be >= 0")


def random_density(spec: DensityGeneratorSpec) -> Grid1D:
    """Deterministic pseudo-random density on [-HALFWIDTH, HALFWIDTH].

    The four kinds cover the corpus needs: blocky densities with flat
    levels and ties (uniform-mixture), strictly positive smooth densities
    (gaussian-mixture), rough multi-scale spikes (spiky-piecewise) and
    well-separated two-bump densities (bimodal).
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    hw, cells = HALFWIDTH, spec.cells
    dx = 2.0 * hw / cells
    mids = -hw + (np.arange(cells) + 0.5) * dx
    vals = np.zeros(cells)

    if spec.kind == "uniform-mixture":
        weights = rng.dirichlet(np.ones(spec.component_count))
        for w in weights:
            center = rng.uniform(-0.8 * hw, 0.8 * hw)
            width = rng.uniform(0.05 * hw, 0.6 * hw)
            inside = np.abs(mids - center) <= width / 2.0
            if not inside.any():
                inside[rng.integers(0, cells)] = True
            vals[inside] += w / (inside.sum() * dx)
    elif spec.kind == "gaussian-mixture":
        weights = rng.dirichlet(np.ones(spec.component_count))
        for w in weights:
            mu = rng.uniform(-0.45 * hw, 0.45 * hw)
            # keep every component at least 6.5 sigma inside the window, so
            # the truncation at +-hw stays below 1e-9 of the component peak;
            # derivative-based checks (Fisher, log-Sobolev) need that decay
            sigma_hi = max(0.081 * hw, min(0.25 * hw, (hw - abs(mu)) / 6.5))
            sigma = rng.uniform(0.08 * hw, sigma_hi)
            vals += w * np.exp(-0.5 * ((mids - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        # strictly positive on every cell, then renormalized below
        vals = np.maximum(vals, 1e-12 * vals.max())
    elif spec.kind == "spiky-piecewise":
        n_spikes = 4 * spec.component_count
        for _ in range(n_spikes):
            lo = rng.integers(0, cells)
            width = int(rng.integers(1, max(2, cells // 16)))
            hi = min(cells, lo + width)
            vals[lo:hi] += rng.pareto(1.5) + 0.1
    else:  # bimodal
        w = rng.uniform(0.3, 0.7)
        sep = rng.uniform(0.8 * hw, 1.4 * hw)
        width = rng.uniform(0.1 * hw, 0.3 * hw)
        for wt, center in ((w, -sep / 2.0), (1.0 - w, sep / 2.0)):
            inside = np.abs(mids - center) <= width / 2.0
            if not inside.any():
                inside[np.argmin(np.abs(mids - center))] = True
            vals[inside] += wt / (inside.sum() * dx)

    total = vals.sum() * dx
    if not (total > 0.0):
        raise ZeroMass("generator produced an empty density")
    return Grid1D(x0=-hw, dx=dx, values=vals / total)


# ---------------------------------------------------------------------------
# CSV density dump: header "x,f", one row per cell midpoint.

def write_density_csv(f: Grid1D, path: str) -> None:
    """Write the density as midpoint/value rows with full float precision."""
    mids = f.midpoints
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "f"])
        for x, v in zip(mids, f.values):
            w.writerow([repr(float(x)), repr(float(v))])


def read_density_csv(path: str) -> Grid1D:
    """Inverse of :func:`write_density_csv`.

    dx is reconstructed from the midpoint column; for a single-cell file
    the spacing cannot be inferred and BadParameter is raised.
    """
    xs: list[float] = []
    vs: list[float] = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None or [c.strip() for c in header[:2]] != ["x", "f"]:
            raise BadParameter(f"{path}: expected header 'x,f'")
        for row in r:
            if not row:
                continue
            try:
                x, v = float(row[0]), float(row[1])
            except (IndexError, ValueError):
                x = math.nan
            # a NaN midpoint would pass the spacing test below
            if not math.isfinite(x):
                raise BadParameter(f"{path}: line {r.line_num}: expected numbers 'x,f' "
                                   f"with x finite, got {','.join(row)!r}")
            xs.append(x)
            vs.append(v)
    if len(xs) == 0:
        raise EmptyGrid(f"{path}: no data rows")
    if len(xs) == 1:
        raise BadParameter(f"{path}: cannot infer dx from a single row")
    x = np.asarray(xs)
    dx = float((x[-1] - x[0]) / (len(xs) - 1))
    if not (dx > 0.0):
        raise NonPositiveSpacing(f"{path}: midpoints must increase")
    # 1e-9 of dx, plus a few ulp of |x| from rounding the midpoints
    slack = 1e-9 * dx + 8.0 * np.finfo(float).eps * max(abs(x[0]), abs(x[-1]))
    if np.max(np.abs(np.diff(x) - dx)) > slack:
        raise BadParameter(f"{path}: midpoints are not uniformly spaced")
    return make_grid(x[0] - dx / 2.0, dx, vs)
