"""Randomized verification suites for the rearrangement inequalities.

Every check compares two concretely computed numbers and emits a
:class:`VerificationReport`.  The central statement is that convolution
interacts with symmetric decreasing rearrangement monotonically:

    h_p(f1 * ... * fk)  >=  h_p(f1^* * ... * fk^*)        (all p in [0, inf])

together with its relatives: the Rogers/Brascamp-Lieb-Luttinger overlap
inequality, majorization of the convolution by the convolution of
rearrangements, the convex-integrand comparison, an entropy-power chain
through the Gaussian lower bound, contraction of Renyi divergence under
rearrangement, and monotonicity of Fisher information, with isoperimetric
and log-Sobolev consequences.

Budgets: identities that are exact for step densities are checked at
machine-level budgets; anything downstream of a k-fold convolution gets
eps_conv = EPS_CONV_FACTOR * dx * k (10 dx k); derivative-based
functionals (Fisher) get a 1% relative budget.  Every budget is a
constant of this module or of config, not a parameter: a suite run is
sized by its SuiteConfig and nothing else.  Corpora are generated
deterministically from the suite seed, so rerunning a configuration
reproduces every report bit for bit.
The main suite convolves each corpus group once, f1 * ... * fk and
f1^* * ... * fk^*, and every check on that group reads those two values.
It also reads the Renyi entropies of each density of the group (the two
sums and the factors) once, at every order its checks use, and hands the
checks that need only entropies those rows (a GroupEntropies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import EPS_CONV_FACTOR, eps_conv
from .errors import BadParameter, ConfigInvalid
from .grids import (
    DensityGeneratorSpec,
    GENERATOR_KINDS,
    Grid1D,
    random_density,
    variance,
)
from .convolve import convolve_k, project_onto
from .densities import GAUSSIAN_ENTROPY_POWER, gaussian_on_grid
from .entropy import (
    GroupEntropies,
    RenyiOrder,
    Row,
    fisher_information,
    mixture_entropy_bound_check,
    renyi_divergence,
    renyi_entropies,
    renyi_entropy,
)
from .rearrange import l1_distance, majorizes, rearrange_1d
from .balls import brunn_minkowski_check
from .conjecture import bobkov_chistyakov_bound_check
from .levy import LevySpec, check_levy_dominance, marginal_density, rearranged_marginal
from .reports import VerificationReport, report_geq, report_leq

__all__ = [
    "SuiteConfig",
    "PhiSpec",
    "check_main_theorem",
    "check_rbll",
    "check_most_gen",
    "check_majorized_convolution",
    "check_epi_chain",
    "check_divergence_contraction",
    "check_fisher_monotone",
    "check_isoperimetric",
    "check_log_sobolev",
    "run_suite",
    "SUITES",
]

SUITES = ("main", "rbll", "divergence", "fisher", "levy")

# the Renyi orders of the main-theorem checks, and the half width of every
# generated grid
ORDERS: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, math.inf)
HALFWIDTH = 4.0


# ---------------------------------------------------------------------------
# individual checks


Convs = tuple[Grid1D, Grid1D]


def _star_convolve(fs: Sequence[Grid1D]) -> Convs:
    """(f1 * ... * fk, f1^* * ... * fk^*), both as left folds."""
    conv = convolve_k(list(fs))
    conv_star = convolve_k([rearrange_1d(f) for f in fs])
    return conv, conv_star


def check_main_theorem(fs: Sequence[Grid1D], order: RenyiOrder | float | str,
                       seed: int | None = None, *,
                       convs: Convs | GroupEntropies | None = None) -> VerificationReport:
    """h_p of a k-fold convolution never drops under rearranging the factors.

    `convs` is ``_star_convolve(fs)`` when the caller already has it;
    the same holds for the other convolution checks below.  The checks
    that read only entropies (this one and the EPI chain) also take the
    group's GroupEntropies there, and then read h_p from its rows.
    """
    order = RenyiOrder.coerce(order)
    k = len(fs)
    if k < 2:
        raise BadParameter("need at least two densities")
    if isinstance(convs, GroupEntropies):
        lhs, rhs = convs.conv[order], convs.conv_star[order]
    else:
        conv, conv_star = _star_convolve(fs) if convs is None else convs
        lhs = renyi_entropy(conv, order)
        rhs = renyi_entropy(conv_star, order)
    return report_geq(f"main_theorem[p={order.label()}]", lhs, rhs,
                      eps_conv(fs[0].dx, k),
                      params={"k": k, "order": order.label(), "dx": fs[0].dx},
                      seed=seed)


def _overlap_integral(f: Grid1D, g: Grid1D) -> float:
    """int f(x) g(x) dx for step densities on possibly offset grids."""
    g_on_f = project_onto(g, f.x0, f.dx, f.n_cells)
    return float(np.sum(f.values * g_on_f.values) * f.dx)


def check_rbll(fs: Sequence[Grid1D],
               seed: int | None = None) -> VerificationReport:
    """Rogers/Brascamp-Lieb-Luttinger overlap inequality on grids:

        int f1 (f2 * ... * fk) <= int f1^* (f2^* * ... * fk^*).

    k = 1 degenerates to conservation of mass under rearrangement.
    """
    k = len(fs)
    if k == 0:
        raise BadParameter("need at least one density")
    if k == 1:
        lhs, rhs = fs[0].mass, rearrange_1d(fs[0]).mass
        tol = 1e-12
    else:
        rest = convolve_k(list(fs[1:]))
        rest_star = convolve_k([rearrange_1d(f) for f in fs[1:]])
        lhs = _overlap_integral(fs[0], rest)
        rhs = _overlap_integral(rearrange_1d(fs[0]), rest_star)
        vmax = max(f.max_value for f in fs)
        tol = eps_conv(fs[0].dx, k) * vmax
    return report_leq(f"rbll[k={k}]", lhs, rhs, tol,
                      params={"k": k}, seed=seed)


@dataclass(frozen=True)
class PhiSpec:
    """Convex integrand with phi(0) = 0 for the general comparison.

    kinds: "xlogx" (u log u), "power" (u^p for p > 1, -u^p for 0 < p < 1),
    "hinge" ((u - t)_+ for a threshold t > 0).
    """

    kind: str
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("xlogx", "power", "hinge"):
            raise BadParameter(f"unknown integrand kind {self.kind!r}")
        if self.kind == "power" and (self.param <= 0.0 or self.param == 1.0):
            raise BadParameter("power integrand needs p > 0, p != 1")
        if self.kind == "hinge" and self.param <= 0.0:
            raise BadParameter("hinge integrand needs a positive threshold")

    def apply(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "xlogx":
            out = np.zeros_like(u)
            pos = u > 0.0
            out[pos] = u[pos] * np.log(u[pos])
            return out
        if self.kind == "power":
            p = self.param
            return u**p if p > 1.0 else -(u**p)
        return np.maximum(u - self.param, 0.0)

    def label(self) -> str:
        if self.kind == "xlogx":
            return "xlogx"
        return f"{self.kind}({self.param:g})"


def check_most_gen(fs: Sequence[Grid1D], phi: PhiSpec,
                   seed: int | None = None, *,
                   convs: Convs | None = None) -> VerificationReport:
    """int phi(f1 * ... * fk) <= int phi(f1^* * ... * fk^*) for convex phi."""
    k = len(fs)
    if k < 2:
        raise BadParameter("need at least two densities")
    conv, conv_star = _star_convolve(fs) if convs is None else convs
    lhs = float(np.sum(phi.apply(conv.values)) * conv.dx)
    rhs = float(np.sum(phi.apply(conv_star.values)) * conv_star.dx)
    # budget: the convolutions agree with the true step convolution to
    # eps_conv in a weak sense; scale by a Lipschitz estimate of phi on
    # the realized value range (the p < 1 power and the hinge are
    # 1-Lipschitz-or-better at the values that occur here)
    vmax = max(conv.max_value, conv_star.max_value)
    if phi.kind == "xlogx":
        lip = abs(math.log(max(vmax, 1e-300))) + 1.0
    elif phi.kind == "power" and phi.param > 1.0:
        lip = phi.param * vmax ** (phi.param - 1.0) if vmax > 0.0 else 1.0
    else:
        lip = 1.0
    tol = eps_conv(fs[0].dx, k) * max(lip, 1.0)
    return report_leq(f"most_gen[{phi.label()}]", lhs, rhs, tol,
                      params={"k": k, "phi": phi.label()}, seed=seed)


def check_majorized_convolution(fs: Sequence[Grid1D],
                                seed: int | None = None, *,
                                convs: Convs | None = None) -> VerificationReport:
    """The convolution is majorized by the convolution of rearrangements."""
    k = len(fs)
    if k < 2:
        raise BadParameter("need at least two densities")
    conv, conv_star = _star_convolve(fs) if convs is None else convs
    tol = EPS_CONV_FACTOR * fs[0].dx * max(conv.max_value, conv_star.max_value)
    ok, worst = majorizes(conv, conv_star, maj_tol=tol)
    return VerificationReport(
        name=f"majorized_convolution[k={k}]",
        lhs=worst, rhs=0.0, margin=worst, tolerance=tol, passed=ok,
        params={"k": k}, seed=seed, status="pass" if ok else "fail")


def check_epi_chain(f1: Grid1D, f2: Grid1D,
                    seed: int | None = None, *,
                    convs: Convs | GroupEntropies | None = None) -> VerificationReport:
    """Entropy chain h(f1*f2) >= h(f1^* * f2^*) >= Gaussian EPI bound.

    sigma_i is the standard deviation of the Gaussian with the same
    entropy as f_i (not the variance of f_i), so the final bound is the
    Shannon-Stam lower bound 0.5 log(2 pi e (sigma_1^2 + sigma_2^2)).
    Both links are reported; the margin is the smaller of the two.
    """
    one = RenyiOrder.one()
    if isinstance(convs, GroupEntropies):
        h_sum, h_star = convs.conv[one], convs.conv_star[one]
        h1, h2 = (row[one] for row in convs.factors)
    else:
        conv, conv_star = _star_convolve((f1, f2)) if convs is None else convs
        h_sum, h_star, h1, h2 = (renyi_entropy(d, one)
                                 for d in (conv, conv_star, f1, f2))
    s1 = math.exp(2.0 * h1) / GAUSSIAN_ENTROPY_POWER
    s2 = math.exp(2.0 * h2) / GAUSSIAN_ENTROPY_POWER
    bound = 0.5 * math.log(GAUSSIAN_ENTROPY_POWER * (s1 + s2))
    tol = eps_conv(f1.dx, 2)
    margin = min(h_sum - h_star, h_star - bound)
    passed = margin >= -tol
    return VerificationReport(
        name="epi_chain", lhs=h_sum, rhs=bound, margin=margin, tolerance=tol,
        passed=passed,
        params={"h_sum": h_sum, "h_star": h_star, "gaussian_bound": bound,
                "sigma1_sq": s1, "sigma2_sq": s2},
        seed=seed, status="pass" if passed else "fail")


def check_divergence_contraction(f: Grid1D, g: Grid1D, alpha: float,
                                 seed: int | None = None) -> VerificationReport:
    """D_alpha(f^*||g^*) <= D_alpha(f||g) for alpha in (0, 1].

    Exact on grids (rearrangement pairs sorted values), so the tolerance
    is machine level.  An infinite right side passes automatically.
    """
    f_star = rearrange_1d(f)
    g_star = rearrange_1d(g)
    lhs = renyi_divergence(f_star, g_star, alpha)
    rhs = renyi_divergence(f, g, alpha)
    return report_leq(f"divergence_contraction[alpha={alpha:g}]", lhs, rhs,
                      1e-10, params={"alpha": alpha}, seed=seed)


def check_fisher_monotone(f: Grid1D,
                          seed: int | None = None) -> VerificationReport:
    """I(f) >= I(f^*) with a 1% relative budget for the finite differences."""
    lhs = fisher_information(f)
    rhs = fisher_information(rearrange_1d(f))
    tol = 0.01 * max(abs(lhs), abs(rhs))
    return report_geq("fisher_monotone", lhs, rhs, tol, params={}, seed=seed)


def check_isoperimetric(f: Grid1D,
                        seed: int | None = None) -> VerificationReport:
    """Isoperimetric form I(f) >= 1/N(f) (equality for Gaussians)."""
    lhs = fisher_information(f)
    n_f = math.exp(2.0 * renyi_entropy(f, RenyiOrder.one())) / GAUSSIAN_ENTROPY_POWER
    rhs = 1.0 / n_f
    tol = 0.01 * abs(rhs) + 1e-6
    return report_geq("isoperimetric", lhs, rhs, tol,
                      params={"entropy_power": n_f}, seed=seed)


def check_log_sobolev(f: Grid1D,
                      seed: int | None = None) -> VerificationReport:
    """Log-Sobolev form D(f || g~) <= (sigma^2 I(f) - 1)/2.

    g~ is the Gaussian matching the mean and variance of f, evaluated on
    f's grid without renormalization.
    """
    var = variance(f)
    mean = float(np.sum(f.values * f.midpoints) * f.dx) / f.mass
    ref = gaussian_on_grid(mean, math.sqrt(var), f.x0, f.dx, f.n_cells,
                           renormalize=False)
    lhs = renyi_divergence(f, ref, 1.0)
    j = var * fisher_information(f) - 1.0
    rhs = 0.5 * j
    tol = 0.01 * (1.0 + abs(rhs))
    return report_leq("log_sobolev", lhs, rhs, tol,
                      params={"variance": var, "standardized_fisher": j},
                      seed=seed)


# ---------------------------------------------------------------------------
# suite orchestration


@dataclass(frozen=True)
class SuiteConfig:
    """What to run and how much of it.

    pairs/triples size the convolution corpora, smooth_count the
    contraction corpus (strictly positive mixtures); every generated grid
    has `cells` cells on [-HALFWIDTH, HALFWIDTH].  The same config always
    produces the same reports in the same order.
    """

    suite: str = "all"
    seed: int = 0
    pairs: int = 200
    triples: int = 50
    smooth_count: int = 50
    cells: int = 2048

    def validate(self) -> None:
        if self.suite not in SUITES + ("all",):
            raise ConfigInvalid(f"unknown suite {self.suite!r}; "
                                f"choose from {SUITES + ('all',)}")
        for name in ("pairs", "triples", "smooth_count"):
            if getattr(self, name) < 0:
                raise ConfigInvalid(f"{name} must be >= 0")
        if self.cells < 8:
            raise ConfigInvalid("cells must be >= 8")


def _derived_seed(seed: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, stream, index)).generate_state(1)[0])


def _corpus(config: SuiteConfig, stream: int, count: int, group: int,
            kinds: tuple[str, ...] = GENERATOR_KINDS) -> list[list[Grid1D]]:
    """count groups of `group` densities each, deterministic in the seed."""
    out = []
    for i in range(count):
        batch = []
        for j in range(group):
            kind = kinds[(i * group + j) % len(kinds)]
            spec = DensityGeneratorSpec(
                kind=kind, component_count=2 + (i + j) % 3,
                seed=_derived_seed(config.seed, stream, i * group + j),
                domain_halfwidth=HALFWIDTH, cells=config.cells)
            batch.append(random_density(spec))
        out.append(batch)
    return out


_SMOOTH = ("gaussian-mixture",)

# orders of the Bobkov-Chistyakov checks, which read the sum and the factors
# of a pair; they include the h_1 that the EPI chain and the mixture bound read
_BOBKOV_ORDERS = (1.0, 2.0, math.inf)


def _row(f: Grid1D, orders: Sequence[float]) -> Row:
    """{order: h_p(f)} over the distinct orders, from one layer pass."""
    keys = tuple(dict.fromkeys(RenyiOrder.coerce(p) for p in orders))
    return dict(zip(keys, renyi_entropies(f, keys)))


def _run_main(config: SuiteConfig) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    pair_corpus = _corpus(config, 1, config.pairs, 2)
    triple_corpus = _corpus(config, 2, config.triples, 3)
    phis = (PhiSpec("xlogx"), PhiSpec("power", 2.0), PhiSpec("power", 0.5),
            PhiSpec("hinge", 0.25))
    for i, fs in enumerate(pair_corpus):
        seed = _derived_seed(config.seed, 1, i)
        convs = _star_convolve(fs)
        rows = GroupEntropies(
            conv=_row(convs[0], (*ORDERS, *_BOBKOV_ORDERS)),
            conv_star=_row(convs[1], (*ORDERS, 1.0)),
            factors=tuple(_row(f, _BOBKOV_ORDERS) for f in fs))
        for p in ORDERS:
            reports.append(check_main_theorem(fs, p, seed=seed, convs=rows))
        reports.append(check_majorized_convolution(fs, seed=seed, convs=convs))
        reports.append(check_epi_chain(fs[0], fs[1], seed=seed, convs=rows))
        reports.append(check_most_gen(fs, phis[i % len(phis)], seed=seed,
                                      convs=convs))
        for p in _BOBKOV_ORDERS:
            reports.append(bobkov_chistyakov_bound_check(p, fs, seed=seed,
                                                         conv=rows))
        reports.append(mixture_entropy_bound_check(fs, [0.5, 0.5], seed=seed,
                                                   convs=rows))
    for i, fs in enumerate(triple_corpus):
        seed = _derived_seed(config.seed, 2, i)
        convs = _star_convolve(fs)
        rows = GroupEntropies(conv=_row(convs[0], ORDERS),
                              conv_star=_row(convs[1], ORDERS))
        for p in ORDERS:
            reports.append(check_main_theorem(fs, p, seed=seed, convs=rows))
        reports.append(check_majorized_convolution(fs, seed=seed, convs=convs))
    # equality witness: Gaussian factors make every link of the chain tight
    dx = 2.0 * HALFWIDTH / config.cells
    g1 = gaussian_on_grid(0.0, 0.9, -HALFWIDTH, dx, config.cells)
    g2 = gaussian_on_grid(0.3, 0.7, -HALFWIDTH, dx, config.cells)
    reports.append(check_epi_chain(g1, g2, seed=config.seed))
    # Brunn-Minkowski instances on indicator unions
    for i in range(max(4, config.pairs // 2)):
        seed = _derived_seed(config.seed, 7, i)
        f, g = _indicator_pair(config, seed)
        reports.append(brunn_minkowski_check(f, g, seed=seed))
    return reports


def _indicator_pair(config: SuiteConfig, seed: int) -> tuple[Grid1D, Grid1D]:
    rng = np.random.default_rng(seed)
    dx = 2.0 * HALFWIDTH / config.cells
    out = []
    for _ in range(2):
        vals = np.zeros(config.cells)
        for _ in range(int(rng.integers(1, 4))):
            lo = int(rng.integers(0, config.cells - 2))
            hi = int(rng.integers(lo + 1, min(config.cells, lo + config.cells // 4) + 1))
            vals[lo:hi] = 1.0
        total = vals.sum() * dx
        out.append(Grid1D(-HALFWIDTH, dx, vals / total))
    return out[0], out[1]


def _run_rbll(config: SuiteConfig) -> list[VerificationReport]:
    reports = []
    for i, fs in enumerate(_corpus(config, 3, max(1, config.pairs // 2), 2)):
        seed = _derived_seed(config.seed, 3, i)
        reports.append(check_rbll(fs, seed=seed))
    for i, fs in enumerate(_corpus(config, 4, max(1, config.triples // 2), 3)):
        seed = _derived_seed(config.seed, 4, i)
        reports.append(check_rbll(fs, seed=seed))
    # degenerate k = 1: mass conservation under rearrangement
    solo = _corpus(config, 5, 1, 1)[0]
    reports.append(check_rbll(solo, seed=_derived_seed(config.seed, 5, 0)))
    return reports


def _run_divergence(config: SuiteConfig) -> list[VerificationReport]:
    reports = []
    corpus = _corpus(config, 8, config.smooth_count, 2, kinds=_SMOOTH)
    for i, (f, g) in enumerate(corpus):
        seed = _derived_seed(config.seed, 8, i)
        for alpha in (0.3, 1.0):
            reports.append(check_divergence_contraction(f, g, alpha, seed=seed))
        # L1 contraction: ||f^* - g^*||_1 <= ||f - g||_1, exact on grids
        lhs = l1_distance(rearrange_1d(f), rearrange_1d(g))
        rhs = l1_distance(f, g)
        reports.append(report_leq("l1_contraction", lhs, rhs, 1e-12, seed=seed))
        # variance can only shrink; midpoint moments carry O(dx^2)
        v_tol = 0.5 * f.dx * f.dx
        reports.append(report_leq("variance_decrease",
                                  variance(rearrange_1d(f)), variance(f),
                                  v_tol, seed=seed))
    return reports


def _run_fisher(config: SuiteConfig) -> list[VerificationReport]:
    reports = []
    corpus = _corpus(config, 9, config.smooth_count, 1, kinds=_SMOOTH)
    for i, (f,) in enumerate(corpus):
        seed = _derived_seed(config.seed, 9, i)
        reports.append(check_fisher_monotone(f, seed=seed))
        reports.append(check_isoperimetric(f, seed=seed))
        reports.append(check_log_sobolev(f, seed=seed))
    return reports


def _run_levy(config: SuiteConfig) -> list[VerificationReport]:
    reports = []
    cells = min(config.cells, 512)
    dx = 3.0 / cells
    mids = (np.arange(cells) + 0.5) * dx
    vals = np.exp(-2.0 * mids)  # skewed jump law on [0, 3]
    jump = Grid1D(0.0, dx, vals / (vals.sum() * dx))
    for lam_t in (0.25, 1.0):
        spec = LevySpec(a=1.0, rate=lam_t, jump=jump, t=1.0)
        reports.extend(check_levy_dominance(spec, (0.5, 1.0, 2.0, math.inf)))
    # lambda = 0: pure diffusion, rearranging the jump law changes nothing
    spec0 = LevySpec(a=1.0, rate=0.0, jump=jump, t=1.0)
    h_x = renyi_entropy(marginal_density(spec0), 1.0)
    h_z = renyi_entropy(rearranged_marginal(spec0), 1.0)
    reports.append(report_geq("levy_dominance[lambda=0]", h_x, h_z, 1e-3,
                              params={"rate": 0.0}))
    return reports


def run_suite(config: SuiteConfig) -> list[VerificationReport]:
    """Run the configured suites and return their reports in a fixed order."""
    config.validate()
    runners: dict[str, Callable[[SuiteConfig], list[VerificationReport]]] = {
        "main": _run_main,
        "rbll": _run_rbll,
        "divergence": _run_divergence,
        "fisher": _run_fisher,
        "levy": _run_levy,
    }
    selected = SUITES if config.suite == "all" else (config.suite,)
    reports: list[VerificationReport] = []
    for name in selected:
        reports.extend(runners[name](config))
    return reports
