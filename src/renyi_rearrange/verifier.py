"""Randomized verification suites for the rearrangement inequalities.

Every check compares two concretely computed numbers and emits a
:class:`VerificationReport`.  The central statement is that convolution
interacts with symmetric decreasing rearrangement monotonically:

    h_p(f1 * ... * fk)  >=  h_p(f1^* * ... * fk^*)        (all p in [0, inf])

together with its relatives: the Rogers/Brascamp-Lieb-Luttinger overlap
inequality, majorization of the convolution by the convolution of
rearrangements, the convex-integrand comparison (for a fixed table of
four integrands: u log u, u^2, -sqrt(u) and (u - 1/4)_+, each with its
Lipschitz estimate for the budget), an entropy-power chain
through the Gaussian lower bound, contraction of Renyi divergence under
rearrangement, and monotonicity of Fisher information, with isoperimetric
and log-Sobolev consequences.

Budgets: identities that are exact for step densities, Fisher
monotonicity among them, are checked at machine-level budgets, and
Brunn-Minkowski and the main theorem at p = 0, counted in whole cells,
at 0; anything else downstream of a k-fold convolution gets
config.eps_conv(dx, k) (10 dx k), scaled by the values where the check
compares values; the isoperimetric and log-Sobolev checks get a 1%
relative budget (FISHER_REL_TOL).  Every budget is a constant of config
or a formula in dx and the values, not a parameter: a suite run is sized
by its SuiteConfig and nothing else, and every corpus size derives from
its pair count.  Corpora are generated deterministically from the suite
seed, so rerunning a configuration reproduces every report bit for bit.
The checks on a convolution group take the group as an entropy.Group and
read everything from it: the sums f1 * ... * fk and f1^* * ... * fk^*
and the Renyi entropies of the sums and the factors, each computed on
first read and kept.  The main suite builds one Group per corpus group,
so each sum is convolved once and each density's layers are read once
however many checks run on it; the divergence suite reads each pair's
rearrangements from a Group too, so each density is rearranged once.

run_suite cuts the configured suites into independent units (chunks of
the main suite's pairs and triples, its witnesses, each other suite
whole).  The calling process runs units, beside one forked worker per
further CPU in the affinity mask (none on one CPU); each process takes
the next unit index from one counter they share, so the work is shared
out as it goes.  A unit builds its own groups from their derived seeds,
one group at a time, and the results are joined by unit index, so the
JSON bytes do not depend on the number of processes.  run_suite_rendered
also renders each unit's records in the process that ran it, for the
CLI to write the document from.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, NoReturn, Sequence, TypeVar

import numpy as np

from .config import (
    DIVERGENCE_TOL,
    FISHER_REL_TOL,
    ISOPERIMETRIC_ABS_TOL,
    L1_TOL,
    LEVY_DIFFUSION_TOL,
    MASS_TOL,
    MAX_CELLS,
    eps_conv,
)
from .errors import BadParameter, ConfigInvalid
from .grids import (
    DensityGeneratorSpec,
    GENERATOR_KINDS,
    HALFWIDTH,
    Grid1D,
    moment,
    normalize,
    random_density,
    same_grid,
    variance,
)
from .convolve import convolve_k, project_onto, sum_set_measure
from .densities import GAUSSIAN_ENTROPY_POWER, gaussian_on_grid
from .entropy import (
    FACTOR_ORDERS,
    ORDERS,
    Group,
    fisher_information,
    mixture_entropy_bound_check,
    order_label,
    renyi_divergence,
    renyi_entropy,
)
from .rearrange import discrete_arrangement, l1_distance, majorizes, rearrange_1d
from .balls import brunn_minkowski_check
from .conjecture import bobkov_chistyakov_bound_check
from .levy import LevySpec, check_levy_dominance, marginal_density, rearranged_marginal
from .reports import VerificationReport, report_geq, report_leq, report_records

__all__ = [
    "SuiteConfig",
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
    "run_suite_rendered",
    "SUITES",
]

SUITES = ("main", "rbll", "divergence", "fisher", "levy")


# ---------------------------------------------------------------------------
# individual checks


def check_main_theorem(group: Group, p: float,
                       seed: int | None = None) -> VerificationReport:
    """h_p of a k-fold convolution never drops under rearranging the factors.

    Reads h_p of the group's two sums from its rows, so p is one of ORDERS,
    except at p = 0, which is Brunn-Minkowski: there each side is the log of
    its sum's exact continuum sum set (sum_set_measure), a whole number of
    cells, so the budget is 0.
    """
    k = len(group.fs)
    if p == 0.0:
        lhs, rhs = (math.log(sum_set_measure(h, k)) for h in (group.conv, group.conv_star))
        tol = 0.0
    else:
        lhs, rhs = group.h_conv[p], group.h_conv_star[p]
        tol = eps_conv(group.fs[0].dx, k)
    label = order_label(p)
    return report_geq(f"main_theorem[p={label}]", lhs, rhs, tol,
                      params={"k": k, "order": label, "dx": group.fs[0].dx},
                      seed=seed)


def _overlap_integral(f: Grid1D, g: Grid1D) -> float:
    """int f(x) g(x) dx for step densities.

    On one grid (grids.same_grid) it is the sum of the cell products
    times dx, exact up to the sum's roundoff; otherwise g is first
    projected onto f's grid (project_onto), as for a triple's rest sum,
    whose grid is offset by half a cell.
    """
    if not same_grid(f, g):
        g = project_onto(g, f.x0, f.dx, f.n_cells)
    return float(np.sum(f.values * g.values) * f.dx)


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
        tol = MASS_TOL
    else:
        rest = convolve_k(list(fs[1:]))
        rest_star = convolve_k([rearrange_1d(f) for f in fs[1:]])
        lhs = _overlap_integral(fs[0], rest)
        rhs = _overlap_integral(rearrange_1d(fs[0]), rest_star)
        vmax = max(f.max_value for f in fs)
        tol = eps_conv(fs[0].dx, k) * vmax
    return report_leq(f"rbll[k={k}]", lhs, rhs, tol,
                      params={"k": k}, seed=seed)


def _xlogx(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    pos = u > 0.0
    out[pos] = u[pos] * np.log(u[pos])
    return out


# a convex integrand with phi(0) = 0 as (label, phi, lip), where lip(vmax)
# estimates the Lipschitz constant of phi on [0, vmax]
Integrand = tuple[str, Callable[[np.ndarray], np.ndarray], Callable[[float], float]]

# the main suite's integrands; the p < 1 power and the hinge are
# 1-Lipschitz-or-better at the values that occur here
_INTEGRANDS: tuple[Integrand, ...] = (
    ("xlogx", _xlogx, lambda vmax: abs(math.log(max(vmax, 1e-300))) + 1.0),
    ("power(2)", lambda u: u**2.0, lambda vmax: 2.0 * vmax ** 1.0),
    ("power(0.5)", lambda u: -(u**0.5), lambda vmax: 1.0),
    ("hinge(0.25)", lambda u: np.maximum(u - 0.25, 0.0), lambda vmax: 1.0),
)


def check_most_gen(group: Group, integrand: Integrand,
                   seed: int | None = None) -> VerificationReport:
    """int phi(f1 * ... * fk) <= int phi(f1^* * ... * fk^*) for convex phi,
    one (label, phi, lip) entry of _INTEGRANDS."""
    label, phi, lip = integrand
    k = len(group.fs)
    conv, conv_star = group.conv, group.conv_star
    lhs = float(np.sum(phi(conv.values)) * conv.dx)
    rhs = float(np.sum(phi(conv_star.values)) * conv_star.dx)
    # budget: the convolutions agree with the true step convolution to
    # eps_conv in a weak sense; scale by the Lipschitz estimate of phi on
    # the realized value range
    vmax = max(conv.max_value, conv_star.max_value)
    tol = eps_conv(group.fs[0].dx, k) * max(lip(vmax), 1.0)
    return report_leq(f"most_gen[{label}]", lhs, rhs, tol,
                      params={"k": k, "phi": label}, seed=seed)


def check_majorized_convolution(group: Group,
                                seed: int | None = None) -> VerificationReport:
    """The convolution is majorized by the convolution of rearrangements.

    The budget is one convolution's, eps_conv(dx, 1), times the larger
    maximum of the two sums, for pairs and triples alike.
    """
    k = len(group.fs)
    conv, conv_star = group.conv, group.conv_star
    tol = eps_conv(group.fs[0].dx, 1) * max(conv.max_value, conv_star.max_value)
    worst = majorizes(conv, conv_star)
    return report_geq(f"majorized_convolution[k={k}]", worst, 0.0, tol,
                      params={"k": k}, seed=seed)


def check_epi_chain(group: Group, seed: int | None = None) -> VerificationReport:
    """Entropy chain h(f1*f2) >= h(f1^* * f2^*) >= Gaussian EPI bound.

    The group is a pair.  sigma_i is the standard deviation of the
    Gaussian with the same entropy as f_i (not the variance of f_i), so the
    final bound is the Shannon-Stam lower bound
    0.5 log(2 pi e (sigma_1^2 + sigma_2^2)).  Both links are reported; the
    margin is the smaller of the two.
    """
    if len(group.fs) != 2:
        raise BadParameter(f"the EPI chain takes a pair, got {len(group.fs)} densities")
    h_sum, h_star = group.h_conv[1.0], group.h_conv_star[1.0]
    h1, h2 = (row[1.0] for row in group.h_factors)
    s1 = math.exp(2.0 * h1) / GAUSSIAN_ENTROPY_POWER
    s2 = math.exp(2.0 * h2) / GAUSSIAN_ENTROPY_POWER
    bound = 0.5 * math.log(GAUSSIAN_ENTROPY_POWER * (s1 + s2))
    tol = eps_conv(group.fs[0].dx, 2)
    margin = min(h_sum - h_star, h_star - bound)
    return VerificationReport(
        name="epi_chain", lhs=h_sum, rhs=bound, margin=margin, tolerance=tol,
        status="pass" if margin >= -tol else "fail",
        params={"h_sum": h_sum, "h_star": h_star, "gaussian_bound": bound,
                "sigma1_sq": s1, "sigma2_sq": s2},
        seed=seed)


def check_divergence_contraction(group: Group, alpha: float,
                                 seed: int | None = None) -> VerificationReport:
    """D_alpha(f^*||g^*) <= D_alpha(f||g) for alpha in (0, 1], for the
    group's pair (f, g), its rearrangements read from group.stars.

    Exact on grids (rearrangement pairs sorted values), so the tolerance
    is machine level.  An infinite right side passes automatically.
    """
    (f, g), (f_star, g_star) = group.fs, group.stars
    lhs = renyi_divergence(f_star, g_star, alpha)
    rhs = renyi_divergence(f, g, alpha)
    return report_leq(f"divergence_contraction[alpha={alpha:g}]", lhs, rhs,
                      DIVERGENCE_TOL, params={"alpha": alpha}, seed=seed)


def check_fisher_monotone(f: Grid1D,
                          seed: int | None = None) -> VerificationReport:
    """I_h(f) >= I_h(f#), f# = discrete_arrangement(f): I_h is (8/dx)(sum u_i^2
    - sum u_i u_{i+1}), u = sqrt(v), and f# maximizes the second sum (Pruss,
    Duke Math. J. 1998).  Both sides use the same rounded roots; each rounds
    a difference and its square (3 times), a sum of n + 1 terms (n) and the
    product with 4/dx (1), so margin >= -(n + 5) 2^-53 (lhs + rhs)."""
    lhs = fisher_information(f)
    rhs = fisher_information(discrete_arrangement(f))
    tol = (f.n_cells + 5) * 2.0**-53 * (lhs + rhs)
    return report_geq("fisher_monotone", lhs, rhs, tol, params={}, seed=seed)


def check_isoperimetric(f: Grid1D,
                        seed: int | None = None) -> VerificationReport:
    """Isoperimetric form I(f) >= 1/N(f) (equality for Gaussians)."""
    lhs = fisher_information(f)
    n_f = math.exp(2.0 * renyi_entropy(f, 1.0)) / GAUSSIAN_ENTROPY_POWER
    rhs = 1.0 / n_f
    tol = FISHER_REL_TOL * abs(rhs) + ISOPERIMETRIC_ABS_TOL
    return report_geq("isoperimetric", lhs, rhs, tol,
                      params={"entropy_power": n_f}, seed=seed)


def check_log_sobolev(f: Grid1D,
                      seed: int | None = None) -> VerificationReport:
    """Log-Sobolev form D(f || g~) <= (sigma^2 I(f) - 1)/2.

    g~ is the Gaussian matching the mean and variance of f, evaluated on
    f's grid without renormalization.
    """
    var = variance(f)
    mean = moment(f, 1) / f.mass
    ref = gaussian_on_grid(mean, math.sqrt(var), f.x0, f.dx, f.n_cells,
                           renormalize=False)
    lhs = renyi_divergence(f, ref, 1.0)
    j = var * fisher_information(f) - 1.0
    rhs = 0.5 * j
    tol = FISHER_REL_TOL * (1.0 + abs(rhs))
    return report_leq("log_sobolev", lhs, rhs, tol,
                      params={"variance": var, "standardized_fisher": j},
                      seed=seed)


# ---------------------------------------------------------------------------
# suite orchestration


@dataclass(frozen=True)
class SuiteConfig:
    """What to run and how much of it.

    pairs sizes every corpus: the main suite has `pairs` pairs and
    _quarter(config) triples, the contraction suites as many strictly
    positive mixtures; every generated grid has `cells` cells on
    [-HALFWIDTH, HALFWIDTH].  The largest grid built is a triple's
    rearranged sum, three factors of 2 cells half cells each, so 6 cells -
    2 cells; validate refuses a `cells` that takes it past MAX_CELLS.  The
    same config always produces the same reports in the same order.
    """

    suite: str = "all"
    seed: int = 0
    pairs: int = 200
    cells: int = 2048

    def validate(self) -> None:
        if self.suite not in SUITES + ("all",):
            raise ConfigInvalid(f"unknown suite {self.suite!r}; "
                                f"choose from {SUITES + ('all',)}")
        if self.pairs < 0:
            raise ConfigInvalid("pairs must be >= 0")
        if self.cells < 8:
            raise ConfigInvalid("cells must be >= 8")
        if 6 * self.cells - 2 > MAX_CELLS:
            raise ConfigInvalid(f"cells must be <= {(MAX_CELLS + 2) // 6}, so that a triple's "
                                f"rearranged sum, 6 cells - 2 cells, fits MAX_CELLS = {MAX_CELLS}")
        if self.seed < 0:
            raise ConfigInvalid("seed must be >= 0")


def _quarter(config: SuiteConfig) -> int:
    """The size of the main suite's triple corpus and of the contraction
    suites' corpora: a quarter of the pairs, at least one."""
    return max(1, config.pairs // 4)


def _derived_seed(seed: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, stream, index)).generate_state(1)[0])


def _corpus(config: SuiteConfig, stream: int, indices: range, group: int,
            kinds: tuple[str, ...] = GENERATOR_KINDS) -> Iterator[tuple[int, list[Grid1D]]]:
    """Groups `indices` of `stream`, `group` densities each, built one at a
    time as they are read, each with its report seed; group i depends on
    the seed, the stream and i alone, so any range of a corpus can be built
    apart from the rest."""
    for i in indices:
        batch = []
        for j in range(group):
            kind = kinds[(i * group + j) % len(kinds)]
            spec = DensityGeneratorSpec(
                kind=kind, component_count=2 + (i + j) % 3,
                seed=_derived_seed(config.seed, stream, i * group + j),
                cells=config.cells)
            batch.append(random_density(spec))
        yield _derived_seed(config.seed, stream, i), batch


_SMOOTH = ("gaussian-mixture",)


def _run_pairs(config: SuiteConfig, indices: range) -> list[VerificationReport]:
    """The main suite's checks on pairs `indices` of its pair corpus."""
    reports: list[VerificationReport] = []
    for i, (seed, fs) in zip(indices, _corpus(config, 1, indices, 2)):
        group = Group(tuple(fs))
        for p in ORDERS:
            reports.append(check_main_theorem(group, p, seed=seed))
        reports.append(check_majorized_convolution(group, seed=seed))
        reports.append(check_epi_chain(group, seed=seed))
        reports.append(check_most_gen(group, _INTEGRANDS[i % len(_INTEGRANDS)], seed=seed))
        for p in FACTOR_ORDERS:
            reports.append(bobkov_chistyakov_bound_check(group, p, seed=seed))
        reports.append(mixture_entropy_bound_check(group, seed=seed))
    return reports


def _run_triples(config: SuiteConfig, indices: range) -> list[VerificationReport]:
    """The main suite's checks on triples `indices` of its triple corpus."""
    reports: list[VerificationReport] = []
    for seed, fs in _corpus(config, 2, indices, 3):
        group = Group(tuple(fs))
        for p in ORDERS:
            reports.append(check_main_theorem(group, p, seed=seed))
        reports.append(check_majorized_convolution(group, seed=seed))
    return reports


def _run_witnesses(config: SuiteConfig) -> list[VerificationReport]:
    """The main suite's Gaussian EPI witness and Brunn-Minkowski pairs."""
    # equality witness: Gaussian factors make every link of the chain tight
    dx = 2.0 * HALFWIDTH / config.cells
    g1 = gaussian_on_grid(0.0, 0.9, -HALFWIDTH, dx, config.cells)
    g2 = gaussian_on_grid(0.3, 0.7, -HALFWIDTH, dx, config.cells)
    reports = [check_epi_chain(Group((g1, g2)), seed=config.seed)]
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
        out.append(normalize(Grid1D(-HALFWIDTH, dx, vals)))
    return out[0], out[1]


def _run_rbll(config: SuiteConfig) -> list[VerificationReport]:
    reports = []
    for seed, fs in _corpus(config, 3, range(max(1, config.pairs // 2)), 2):
        reports.append(check_rbll(fs, seed=seed))
    for seed, fs in _corpus(config, 4, range(max(1, _quarter(config) // 2)), 3):
        reports.append(check_rbll(fs, seed=seed))
    # degenerate k = 1: mass conservation under rearrangement
    for seed, fs in _corpus(config, 5, range(1), 1):
        reports.append(check_rbll(fs, seed=seed))
    return reports


def _run_divergence(config: SuiteConfig) -> list[VerificationReport]:
    reports = []
    corpus = _corpus(config, 8, range(_quarter(config)), 2, kinds=_SMOOTH)
    for seed, fs in corpus:
        group = Group(tuple(fs))
        (f, g), (f_star, g_star) = group.fs, group.stars
        for alpha in (0.3, 1.0):
            reports.append(check_divergence_contraction(group, alpha, seed=seed))
        # L1 contraction: ||f^* - g^*||_1 <= ||f - g||_1, exact on grids
        lhs = l1_distance(f_star, g_star)
        rhs = l1_distance(f, g)
        reports.append(report_leq("l1_contraction", lhs, rhs, L1_TOL, seed=seed))
        # variance can only shrink; midpoint moments carry O(dx^2)
        v_tol = 0.5 * f.dx * f.dx
        reports.append(report_leq("variance_decrease", variance(f_star), variance(f),
                                  v_tol, seed=seed))
    return reports


def _run_fisher(config: SuiteConfig) -> list[VerificationReport]:
    reports = []
    corpus = _corpus(config, 9, range(_quarter(config)), 1, kinds=_SMOOTH)
    for seed, (f,) in corpus:
        for check in (check_fisher_monotone, check_isoperimetric, check_log_sobolev):
            reports.append(check(f, seed=seed))
    return reports


def _run_levy(config: SuiteConfig) -> list[VerificationReport]:
    reports = []
    cells = min(config.cells, 512)
    dx = 3.0 / cells
    mids = (np.arange(cells) + 0.5) * dx
    jump = normalize(Grid1D(0.0, dx, np.exp(-2.0 * mids)))  # skewed jump law on [0, 3]
    for lam_t in (0.25, 1.0):
        spec = LevySpec(a=1.0, rate=lam_t, jump=jump, t=1.0)
        reports.extend(check_levy_dominance(spec, (0.5, 1.0, 2.0, math.inf)))
    # lambda = 0: pure diffusion, rearranging the jump law changes nothing
    spec0 = LevySpec(a=1.0, rate=0.0, jump=jump, t=1.0)
    h_x = renyi_entropy(marginal_density(spec0), 1.0)
    h_z = renyi_entropy(rearranged_marginal(spec0), 1.0)
    reports.append(report_geq("levy_dominance[lambda=0]", h_x, h_z,
                              LEVY_DIFFUSION_TOL, params={"rate": 0.0}))
    return reports


# the main suite's pair and triple corpora are cut into this many units
# each, so that its work can be shared out over the processes
_PAIR_UNITS = 8
_TRIPLE_UNITS = 2


def _chunks(count: int, parts: int) -> list[range]:
    """range(count) cut into at most `parts` consecutive non-empty ranges."""
    bounds = [count * k // parts for k in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


Unit = Callable[[], list[VerificationReport]]


def _units(config: SuiteConfig) -> list[Unit]:
    """The configured suites as independent units, in report order.

    A unit carries only the config and an index range, and builds its own
    corpus groups from their derived seeds.
    """
    runners: dict[str, Callable[[SuiteConfig], list[VerificationReport]]] = {
        "rbll": _run_rbll,
        "divergence": _run_divergence,
        "fisher": _run_fisher,
        "levy": _run_levy,
    }
    selected = SUITES if config.suite == "all" else (config.suite,)
    units: list[Unit] = []
    for name in selected:
        if name == "main":
            units += [partial(_run_pairs, config, r)
                      for r in _chunks(config.pairs, _PAIR_UNITS)]
            units += [partial(_run_triples, config, r)
                      for r in _chunks(_quarter(config), _TRIPLE_UNITS)]
            units.append(partial(_run_witnesses, config))
        else:
            units.append(partial(runners[name], config))
    return units


T = TypeVar("T")


class _WorkerTraceback(Exception):
    """The traceback, as text, of an error a forked worker raised; set as
    the __cause__ of that error when it is raised again in the caller."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


def _take(units: list[Unit], work: Callable[[Unit], T], tokens: int
          ) -> tuple[dict[int, T], tuple[int, Exception] | None]:
    """work(units[i]) for each index i this process reads from the token
    pipe, until the pipe is empty or a unit raises.

    Returns the results by index, and the index and error of the unit that
    raised, if one did.  On an error the pipe is drained, so that no
    process starts another unit: every unit it could start has a higher
    index.
    """
    done: dict[int, T] = {}
    while token := os.read(tokens, 1):
        i = token[0]
        try:
            done[i] = work(units[i])
        except Exception as exc:
            os.read(tokens, len(units))  # every token there is
            return done, (i, exc)
    return done, None


def _work_and_send(units: list[Unit], work: Callable[[Unit], T],
                   tokens: int, results: int) -> NoReturn:
    """A forked worker's life: take units, pickle what they gave to the
    results pipe, and exit without returning to the caller's frames.  If
    that pickling fails (an error that does not pickle), the worker exits
    with status 1 and the caller raises for the missing results."""
    status = 1
    try:
        done, failed = _take(units, work, tokens)
        sent = None
        if failed is not None:
            # signal and traceback are imported where they are used, on
            # the rare paths, so that a CLI start-up does not pay for them
            import traceback

            i, exc = failed
            text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
            sent = (i, exc, text)
        with os.fdopen(results, "wb") as fh:
            pickle.dump((done, sent), fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _run_units(config: SuiteConfig, work: Callable[[Unit], T]) -> list[T]:
    """work(unit) for each unit of _units(config), in unit order.

    The calling process runs units, and so does one forked worker per
    further CPU in the affinity mask (no more processes than units); on
    one CPU nothing is forked.  The unit indices are handed out from a
    pipe filled before the fork, one byte each (there are at most 15
    units): a read of one byte is atomic, so the pipe is a counter shared
    by all the processes, and each index goes to one of them, in
    ascending order.  A worker pickles its results to a pipe of its own
    once it finds no unit left; the caller reads them after its own last
    unit, and joins all results by index.  When units raise, the error of
    the lowest-index one is raised, with its class, whichever process ran
    it: every lower unit had been taken and is finished by then.  Every
    worker has been waited for when this returns or raises; on any other
    error (an interrupt, a worker that died) the rest are killed first.
    """
    config.validate()
    units = _units(config)
    forks = min(len(os.sched_getaffinity(0)), len(units)) - 1
    if forks < 1:
        return [work(unit) for unit in units]
    tokens, fill = os.pipe()
    os.write(fill, bytes(range(len(units))))
    os.close(fill)
    workers: dict[int, int] = {}  # pid -> read end of its results pipe
    try:
        for _ in range(forks):
            read, write = os.pipe()
            # fork, not spawn: a forked worker starts with numpy and this
            # package loaded, where a spawned one would import them again
            # (some 0.2 s, a third of an acceptance-size run), and it needs
            # nothing pickled but its results; the package starts no
            # threads that a fork could catch mid-work
            pid = os.fork()
            if pid == 0:
                _work_and_send(units, work, tokens, write)
            workers[pid] = read
            os.close(write)
        results, failed = _take(units, work, tokens)
        errors = [] if failed is None else [(*failed, None)]
        for pid in list(workers):
            with open(workers[pid], "rb", closefd=False) as fh:
                try:
                    done, sent = pickle.load(fh)
                except (EOFError, pickle.UnpicklingError):
                    done = sent = None
            _, status = os.waitpid(pid, 0)
            os.close(workers.pop(pid))
            if done is None:
                raise RuntimeError(f"verify worker {pid} ended (wait status {status}) "
                                   "before sending its results")
            results.update(done)
            if sent is not None:
                errors.append(sent)
        if errors:
            _, exc, text = min(errors, key=lambda e: e[0])
            if text is None:
                raise exc
            raise exc from _WorkerTraceback(text)
        return [results[i] for i in range(len(units))]
    finally:
        # only on an error: a worker the loop above has not waited for
        if workers:
            import signal
        for pid, read in workers.items():
            os.close(read)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        os.close(tokens)


def _rendered(unit: Unit) -> tuple[list[VerificationReport], str]:
    reports = unit()
    return reports, report_records(reports)


def run_suite(config: SuiteConfig) -> list[VerificationReport]:
    """Run the configured suites and return their reports in a fixed order.

    The suites are cut into units that run in this process and on forked
    workers, one per further CPU in the affinity mask (see _run_units).
    Reports are put together in unit order, so they do not depend on the
    number of processes.  When units raise, the error of the first of them
    in unit order is raised here with its class.
    """
    return [rep for reports in _run_units(config, lambda unit: unit()) for rep in reports]


def run_suite_rendered(config: SuiteConfig) -> list[tuple[list[VerificationReport], str]]:
    """run_suite's reports unit by unit, each unit's with their records.

    The records are report_records of the unit's reports, rendered in the
    process that ran the unit, so write_reports_json can write the whole
    document from them without rendering a record here.
    """
    return _run_units(config, _rendered)
