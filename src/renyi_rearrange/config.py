"""Central numeric tolerances.

The defaults below are the contract the rest of the package is tested
against.  Identities that hold exactly for step densities (mass, level-set
measures, Renyi entropies under rearrangement) get machine-precision
budgets; anything that goes through a convolution inherits an O(dx) budget
of ``eps_conv_factor * dx * k`` for a k-fold convolution.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    sym_tol: float = 1e-9           # symmetry slack for is_symmetric_decreasing
                                    # and radial_from_grid
    tail_tol: float = 1e-6          # truncation tail for unbounded supports
    series_tol: float = 1e-8        # Poisson series truncation tail
    maj_tol: float = 1e-12          # majorization slack on exact comparisons
    fisher_floor_rel: float = 1e-12 # relative floor below which cells are
                                    # excluded from the Fisher integrand
    eps_conv_factor: float = 10.0   # per-cell budget for k-fold convolutions
    fft_threshold: int = 2048       # hull output cells above which FFT is
                                    # used; a speed choice only, as both
                                    # paths give the same support.  Equal
                                    # hulls cross over near 1500-2000 cells
                                    # (direct vs FFT on a 2-core host, numpy
                                    # 2.4: 0.13/0.13 ms at 1535,
                                    # 0.17/0.16 at 2047, 0.45/0.23 at 4095)
    quad_tol: float = 1e-10         # absolute tolerance for quadratures


DEFAULT_TOLS = Tolerances()


def eps_conv(dx: float, k: int, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Entropy/integral tolerance after a k-fold convolution at spacing dx."""
    return tols.eps_conv_factor * dx * max(int(k), 1)
