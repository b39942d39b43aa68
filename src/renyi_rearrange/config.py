"""Central numeric budgets, one named constant each.

These are the contract the rest of the package is tested against; no
function takes them as a parameter, so each budget is set here and only
here.  Identities that hold exactly for step densities (mass, level-set
measures, Renyi entropies under rearrangement) get machine-precision
budgets; anything that goes through a convolution inherits an O(dx) budget
of ``EPS_CONV_FACTOR * dx * k`` for a k-fold convolution.
"""

from __future__ import annotations

SYM_TOL = 1e-9            # symmetry slack for is_symmetric_decreasing
                          # and radial_from_grid
TAIL_TOL = 1e-6           # truncation tail for unbounded supports
SERIES_TOL = 1e-8         # Poisson series truncation tail
MAJ_TOL = 1e-12           # majorization slack on exact comparisons
FISHER_FLOOR_REL = 1e-12  # relative floor below which cells are
                          # excluded from the Fisher integrand
EPS_CONV_FACTOR = 10.0    # per-cell budget for k-fold convolutions
FFT_THRESHOLD = 2048      # hull output cells above which FFT is
                          # used; a speed choice only, as both
                          # paths give the same support.  Equal
                          # hulls cross over near 1500-2000 cells
                          # (direct vs FFT on a 2-core host, numpy
                          # 2.4: 0.13/0.13 ms at 1535,
                          # 0.17/0.16 at 2047, 0.45/0.23 at 4095)
QUAD_TOL = 1e-10          # absolute and relative tolerance of the
                          # ball-sum radial quadrature


def eps_conv(dx: float, k: int) -> float:
    """Entropy/integral tolerance after a k-fold convolution at spacing dx."""
    return EPS_CONV_FACTOR * dx * max(int(k), 1)
