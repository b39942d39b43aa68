"""Central numeric budgets, one named constant each.

These are the contract the rest of the package is tested against; no
function takes them as a parameter, so each budget is set here and only
here.  Identities that hold exactly for step densities (mass, level-set
measures, Renyi entropies under rearrangement) get machine-precision
budgets; anything that goes through a convolution inherits an O(dx) budget
for a k-fold convolution, which eps_conv computes.  The formula lives in
eps_conv alone: no other module reads EPS_CONV_FACTOR, so a change to the
convolution budget is an edit to that one function.
"""

from __future__ import annotations

SYM_TOL = 1e-9            # value slack of is_symmetric_decreasing,
                          # relative to the maximum value
TAIL_TOL = 1e-6           # truncation tail for unbounded supports
SERIES_TOL = 1e-8         # Poisson series truncation tail
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
RENYI_NEAR_ONE_WIDTH = 1e-3  # |p - 1| (|1 - alpha| for D_alpha)
                             # below which the log power sum over
                             # |p - 1| gives way to an expm1 sum
                             # (entropy._log_mean_exp); at the edge
                             # the two agree to ~5e-13
MIXTURE_TOL = 1e-9        # mixture entropy bound; both sides are
                          # exact sums
INDICATOR_REL_TOL = 1e-9  # relative spread of the positive values
                          # of a density read as an indicator
MASS_TOL = 1e-12          # mass conservation under rearrangement
                          # (the k = 1 overlap check)
DIVERGENCE_TOL = 1e-10    # Renyi divergence contraction under
                          # rearrangement, exact on grids
L1_TOL = 1e-12            # L1 contraction under rearrangement,
                          # exact on grids
LEVY_DIFFUSION_TOL = 1e-3  # Shannon entropy of the pure-diffusion
                           # marginal against its rearranged twin
FISHER_REL_TOL = 0.01     # relative budget of the isoperimetric and
                          # log-Sobolev checks (discrete Fisher
                          # information against continuum bounds)
ISOPERIMETRIC_ABS_TOL = 1e-6  # absolute floor added to the
                              # isoperimetric budget
MAX_CELLS = 2**22         # cells a computed grid may have: a
                          # ratio-landscape factor resampled onto
                          # 2048 cells times the scale ratio, a
                          # Levy Gaussian window or Poisson series
                          # sum; 32 MiB of float64 per array, so an
                          # input that asks for more is refused
                          # instead of exhausting memory


def eps_conv(dx: float, k: int) -> float:
    """Entropy/integral tolerance after a k-fold convolution at spacing dx:
    EPS_CONV_FACTOR * dx * k, with k below 1 read as 1."""
    return EPS_CONV_FACTOR * dx * max(int(k), 1)
