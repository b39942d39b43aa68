"""Reference densities: Gaussians, uniforms, and generalized Gaussians.

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

with N_1 of a standard Gaussian equal to 2 pi e.  The normalizer A_beta
is computed by radial quadrature rather than a Gamma-function formula;
tests cross-check the n = 1, beta = 0.4 case against the Beta-integral
closed form.  A quadrature that cannot meet its tolerance raises
InaccurateResult instead of returning its estimate.  scipy is imported
only when a quadrature runs.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    BadParameter, BetaOutOfRange, InaccurateResult, OrderOutOfRange, UnsupportedDimension)
from .grids import Grid1D, RadialDensity, make_grid, make_radial, normalize, unit_ball_volume

__all__ = [
    "beta_of_p",
    "gg_exponent",
    "gg_normalizer",
    "generalized_gaussian",
    "np_closed_form",
    "gaussian",
    "gaussian_on_grid",
    "uniform_interval",
    "uniform_ball",
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


def checked_quad(func, a: float, b: float, what: str, **options) -> float:
    """Value of scipy.integrate.quad(func, a, b, **options).

    An IntegrationWarning (the quadrature could not meet its tolerance)
    raises InaccurateResult naming `what` instead of returning the estimate.
    """
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, _ = quad(func, a, b, **options)
        except IntegrationWarning as exc:
            raise InaccurateResult(f"{what}: {' '.join(str(exc).split())}") from exc
    return val


def _gg_radial_unnormalized(beta: float, n: int):
    """Return u(r) with g_beta = A * u(|x|), plus the support radius (or inf)."""
    if beta == 0.0:
        return (lambda r: np.exp(-0.5 * np.asarray(r, dtype=float) ** 2)), math.inf
    m = gg_exponent(beta, n)
    if beta > 0.0:
        if m <= -1.0:
            raise BetaOutOfRange(
                f"beta = {beta} is not integrable in dimension {n} (exponent {m})")
        radius = math.sqrt(2.0 / beta)

        def u(r):
            t = 1.0 - 0.5 * beta * np.square(np.asarray(r, dtype=float))
            return np.where(t > 0.0, np.power(np.maximum(t, 0.0), m), 0.0)

        return u, radius

    def u(r):  # beta < 0: exponent m < 0, heavy polynomial tail
        t = 1.0 - 0.5 * beta * np.square(np.asarray(r, dtype=float))
        return np.power(t, m)

    return u, math.inf


def gg_normalizer(n: int, beta: float, quad_tol: float = DEFAULT_TOLS.quad_tol) -> float:
    """Normalizing constant A_beta by adaptive radial quadrature."""
    if n < 1:
        raise BadParameter(f"dimension must be >= 1, got {n}")
    if beta == 0.0:
        return (2.0 * math.pi) ** (-n / 2.0)
    u, radius = _gg_radial_unnormalized(beta, n)
    surface = n * unit_ball_volume(n)

    def integrand(r: float) -> float:
        return float(u(r)) * r ** (n - 1)

    upper = radius if math.isfinite(radius) else np.inf
    total = checked_quad(integrand, 0.0, upper, f"normalizer of g_beta, n={n}, beta={beta}",
                         epsabs=quad_tol, epsrel=quad_tol, limit=200)
    return 1.0 / (surface * total)


def _truncation_radius(u, n: int, z_total: float, tail_tol: float) -> float:
    """Smallest convenient R with relative tail mass below tail_tol."""
    surface = n * unit_ball_volume(n)

    def tail(r0: float) -> float:
        val = checked_quad(lambda r: float(u(r)) * r ** (n - 1), r0, np.inf,
                           f"tail mass of g_beta beyond radius {r0}, n={n}",
                           epsabs=1e-14, epsrel=1e-12, limit=200)
        return surface * val / z_total

    radius = 4.0
    while tail(radius) > tail_tol:
        radius *= 1.5
        if radius > 1e9:
            raise BetaOutOfRange("tail does not reach the requested tolerance")
    return radius


def generalized_gaussian(n: int, beta: float, cells: int = 8192,
                         tols: Tolerances = DEFAULT_TOLS) -> Grid1D | RadialDensity:
    """Grid representation of g_beta, normalized to unit mass.

    Returns a Grid1D for n = 1 and a RadialDensity for n >= 2.  Compact
    supports (beta > 0) are gridded edge to edge; unbounded supports are
    truncated where the analytic tail mass drops below tols.tail_tol and
    then renormalized.
    """
    if cells < 8:
        raise BadParameter("cells must be >= 8")
    u, radius = _gg_radial_unnormalized(beta, n)
    if not math.isfinite(radius):
        if beta == 0.0:
            radius = 8.0  # Gaussian tail at 8 sigma is far below tail_tol
        else:
            a = gg_normalizer(n, beta)
            radius = _truncation_radius(u, n, 1.0 / a, tols.tail_tol)
    if n == 1:
        dx = 2.0 * radius / cells
        mids = -radius + (np.arange(cells) + 0.5) * dx
        return normalize(make_grid(-radius, dx, u(mids)))
    dr = radius / cells
    mids = (np.arange(cells) + 0.5) * dr
    return normalize(make_radial(n, dr, u(mids)))


def np_closed_form(p: float, n: int) -> float:
    """Closed-form entropy power N_p(Z^(p)) of the order-p maximizer.

    Returns 2*pi*e exactly at p = 1; otherwise evaluates
    A_beta^(-2/n) (1 - n beta_p/2)^(2/(n(1-p))) with A_beta from
    quadrature.
    """
    if p == 1.0:
        return GAUSSIAN_ENTROPY_POWER
    beta = beta_of_p(p, n)
    a = gg_normalizer(n, beta)
    return a ** (-2.0 / n) * (1.0 - n * beta / 2.0) ** (2.0 / (n * (1.0 - p)))


def gaussian(mu: float, sigma: float, cells: int = 4096,
             radius_sigmas: float = 8.0) -> Grid1D:
    """Normalized grid Gaussian on [mu - r*sigma, mu + r*sigma]."""
    if not (sigma > 0.0):
        raise BadParameter(f"sigma must be positive, got {sigma}")
    half = radius_sigmas * sigma
    dx = 2.0 * half / cells
    mids = mu - half + (np.arange(cells) + 0.5) * dx
    vals = np.exp(-0.5 * ((mids - mu) / sigma) ** 2)
    return normalize(make_grid(mu - half, dx, vals))


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


def uniform_ball(n: int, r: float, shells: int = 256) -> RadialDensity:
    """Uniform density on the centered ball of radius r in R^n."""
    if not (r > 0.0):
        raise BadParameter(f"radius must be positive, got {r}")
    if n < 1:
        raise UnsupportedDimension(f"dimension must be >= 1, got {n}")
    value = 1.0 / (unit_ball_volume(n) * r**n)
    return make_radial(n, r / shells, np.full(shells, value))
