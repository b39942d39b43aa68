"""Reference densities on the line: Gaussians, uniforms, and generalized Gaussians.

The generalized Gaussian of shape beta in R^n is

    g_beta(x) = A_beta * (1 - (beta/2) |x|^2)_+^(1/beta - n/2 - 1),

interpreted as the standard Gaussian at beta = 0, a bounded bump with
support radius sqrt(2/beta) for beta > 0 (uniform on the ball of radius
sqrt(n+2) at beta = 2/(n+2)), and a heavy-tailed density for beta < 0.
In all cases the normalization is such that E|Z|^2 = n.

For Renyi order p > n/(n+2) the maximizer of h_p under a second-moment
constraint is g_beta with

    1/beta_p = 1/(p-1) + (n+2)/2      (beta_1 = 0 at p = 1),

and its entropy power has the closed form

    N_p(Z^(p)) = A_beta^(-2/n) * (1 - n beta_p / 2)^(2 / (n (1 - p))),

with N_1 of a standard Gaussian equal to 2 pi e.  With m the exponent
and t = (|beta|/2) r^2 the radial integral of g_beta / A_beta is a Beta
integral,

    int_0^R (1 - (beta/2) r^2)_+^m r^(n-1) dr
        = (1/2) (2/|beta|)^(n/2) B(n/2, m + 1)          (beta > 0),
        = (1/2) (2/|beta|)^(n/2) B(n/2, -m - n/2)       (beta < 0),

so A_beta follows from lgamma.  These closed forms hold in every
dimension n; the grid density generalized_gaussian(beta) is the n = 1
case.  A heavy-tailed g_beta is gridded out to where its mass beyond the
radius r0, the regularized incomplete Beta I_s(-m - 1/2, 1/2) at
s = 1/(1 + |beta| r0^2 / 2), drops below TAIL_TOL; scipy (betainc only)
is imported when that tail is evaluated.
"""

from __future__ import annotations

import math

import numpy as np

from .config import TAIL_TOL
from .errors import BadParameter, BetaOutOfRange, OrderOutOfRange
from .grids import Grid1D, make_grid, normalize

__all__ = [
    "beta_of_p",
    "gg_exponent",
    "gg_normalizer",
    "generalized_gaussian",
    "gaussian_on_grid",
    "uniform_interval",
    "GAUSSIAN_ENTROPY_POWER",
]

# N_1 of a standard Gaussian in any dimension
GAUSSIAN_ENTROPY_POWER = 2.0 * math.pi * math.e


def beta_of_p(p: float, n: int) -> float:
    """Shape parameter beta_p of the order-p maximizer in dimension n.

    Defined for p > n/(n+2); returns 0.0 exactly at p = 1 and 2/(n+2)
    at p = inf.
    """
    if n < 1:
        raise BadParameter(f"dimension must be >= 1, got {n}")
    if p == math.inf:
        return 2.0 / (n + 2.0)
    if not p > n / (n + 2.0):  # also p = nan
        raise OrderOutOfRange(
            f"beta_p needs p > n/(n+2) = {n / (n + 2.0):.6g}, got {p}")
    if p == 1.0:
        return 0.0
    return 1.0 / (1.0 / (p - 1.0) + (n + 2.0) / 2.0)


def gg_exponent(beta: float, n: int) -> float:
    """Exponent 1/beta - n/2 - 1 of the generalized Gaussian (beta != 0)."""
    if beta == 0.0:
        raise BetaOutOfRange("exponent undefined at beta = 0 (Gaussian case)")
    return 1.0 / beta - n / 2.0 - 1.0


def _integrable_exponent(beta: float, n: int) -> float:
    """gg_exponent(beta, n), after checking that g_beta is integrable."""
    m = gg_exponent(beta, n)
    if beta > 0.0 and m <= -1.0:
        raise BetaOutOfRange(
            f"beta = {beta} is not integrable in dimension {n} (exponent {m})")
    return m


def _gg_unnormalized(beta: float):
    """Return u(x) with g_beta = A * u(x) on the line, plus the support
    radius (or inf)."""
    if beta == 0.0:
        return (lambda r: np.exp(-0.5 * np.asarray(r, dtype=float) ** 2)), math.inf
    m = _integrable_exponent(beta, 1)
    if beta > 0.0:
        radius = math.sqrt(2.0 / beta)

        def u(r):
            t = 1.0 - 0.5 * beta * np.square(np.asarray(r, dtype=float))
            return np.where(t > 0.0, np.power(np.maximum(t, 0.0), m), 0.0)

        return u, radius

    def u(r):  # beta < 0: exponent m < 0, heavy polynomial tail
        t = 1.0 - 0.5 * beta * np.square(np.asarray(r, dtype=float))
        return np.power(t, m)

    return u, math.inf


def gg_normalizer(n: int, beta: float) -> float:
    """Normalizing constant A_beta in closed form.

    A_beta is 1 / (|S^(n-1)| (1/2) (2/|beta|)^(n/2) B(n/2, b)), with
    b = m + 1 for beta > 0 and b = -m - n/2 for beta < 0 (m the exponent);
    as |S^(n-1)| = 2 pi^(n/2) / Gamma(n/2), that is
    Gamma(n/2 + b) / Gamma(b) (|beta| / (2 pi))^(n/2).
    """
    if n < 1:
        raise BadParameter(f"dimension must be >= 1, got {n}")
    if beta == 0.0:
        return (2.0 * math.pi) ** (-n / 2.0)
    m = _integrable_exponent(beta, n)
    b = m + 1.0 if beta > 0.0 else -m - 0.5 * n
    return math.exp(math.lgamma(0.5 * n + b) - math.lgamma(b)
                    + 0.5 * n * math.log(abs(beta) / (2.0 * math.pi)))


def _truncation_radius(beta: float) -> float:
    """The first radius 4 * 1.5^j whose share of the mass of g_beta (beta < 0)
    on the line lies within TAIL_TOL of all of it."""
    from scipy.special import betainc

    a, b = 0.5, -gg_exponent(beta, 1) - 0.5

    def tail(r0: float) -> float:
        return float(betainc(b, a, 1.0 / (1.0 + 0.5 * abs(beta) * r0 * r0)))

    radius = 4.0
    while tail(radius) > TAIL_TOL:
        radius *= 1.5
        if radius > 1e9:
            raise BetaOutOfRange("tail does not reach the requested tolerance")
    return radius


def generalized_gaussian(beta: float, cells: int = 8192) -> Grid1D:
    """Grid representation of g_beta on the line, normalized to unit mass.

    Compact supports (beta > 0) are gridded edge to edge; unbounded
    supports are truncated where the analytic tail mass drops below
    TAIL_TOL and then renormalized.
    """
    if cells < 8:
        raise BadParameter("cells must be >= 8")
    u, radius = _gg_unnormalized(beta)
    if not math.isfinite(radius):
        if beta == 0.0:
            radius = 8.0  # Gaussian tail at 8 sigma is far below TAIL_TOL
        else:
            radius = _truncation_radius(beta)
    dx = 2.0 * radius / cells
    mids = -radius + (np.arange(cells) + 0.5) * dx
    return normalize(make_grid(-radius, dx, u(mids)))


def gaussian_on_grid(mu: float, sigma: float, x0: float, dx: float, n_cells: int,
                     renormalize: bool = True) -> Grid1D:
    """Gaussian pdf sampled at the midpoints of an explicit grid.

    With renormalize=False the true pdf values are kept (used as the
    reference measure in divergence checks); otherwise the grid mass is
    rescaled to one.
    """
    if not (sigma > 0.0):
        raise BadParameter(f"sigma must be positive, got {sigma}")
    mids = x0 + (np.arange(n_cells) + 0.5) * dx
    vals = np.exp(-0.5 * ((mids - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    g = make_grid(x0, dx, vals)
    return normalize(g) if renormalize else g


def uniform_interval(a: float, b: float, cells: int = 1024) -> Grid1D:
    """Uniform density on [a, b] (exact value 1/(b-a) on every cell)."""
    if not (b > a):
        raise BadParameter(f"need b > a, got [{a}, {b}]")
    dx = (b - a) / cells
    return make_grid(a, dx, np.full(cells, 1.0 / (b - a)))

