"""Acceptance gate: eleven product-level checks, one test per criterion.

Every test prints a single ``criterion N PASS``/``criterion N FAIL`` line
(visible with ``pytest -s`` and in failure reports) and asserts the same
verdict, so ``pytest -v tests/test_acceptance.py`` gives one line per
criterion either way.  The randomized-corpus criteria share one run of
the main suite through a module fixture.
"""

import collections
import math
import time

import numpy as np
import pytest

from renyi_rearrange import (
    BallPair,
    DensityGeneratorSpec,
    GENERATOR_KINDS,
    Grid1D,
    Group,
    LevySpec,
    SuiteConfig,
    ball_sum_entropy,
    bobkov_chistyakov_bound_check,
    brunn_minkowski_check,
    c_constant,
    check_levy_dominance,
    convolve,
    entropy_power,
    epi_gap_balls,
    gaussian_on_grid,
    generalized_gaussian,
    marginal_density,
    moment,
    random_density,
    rearrange_1d,
    rearranged_marginal,
    refine,
    renyi_entropy,
    run_suite,
    uniform_interval,
)
from renyi_rearrange.verifier import check_epi_chain

C_21_EXACT = 166753125.0 / (
    16.0 * (573635.0 * math.sqrt(2.5) / 2.0 - 142365.0 * math.sqrt(10.0)) ** 2)

ORDERS = (0.0, 0.5, 1.0, 2.0, math.inf)


def level_set_measure(f, t):
    """Lebesgue measure of the super-level set {f > t}."""
    return float(np.count_nonzero(f.values > t) * f.dx)


def _verdict(num: int, failures: list[str]) -> None:
    ok = not failures
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}"
          + ("" if ok else f": {'; '.join(failures)}"))
    assert ok, f"criterion {num}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def main_suite():
    config = SuiteConfig(suite="main", seed=0, pairs=200, cells=2048)
    start = time.perf_counter()
    reports = run_suite(config)
    elapsed = time.perf_counter() - start
    by_name = collections.defaultdict(list)
    for rep in reports:
        by_name[rep.name.split("[")[0]].append(rep)
    return by_name, elapsed


def _failing(reports):
    return [r for r in reports if r.status != "pass"]


def test_criterion_01_constant_reproduction():
    failures = []
    start = time.perf_counter()
    value = c_constant(2.0)
    coarse = c_constant(2.0, cells=4096)
    elapsed = time.perf_counter() - start
    if abs(value - 0.956668) > 5e-4:
        failures.append(f"C_2,1 = {value} vs published 0.956668")
    if abs(value - C_21_EXACT) > 5e-4:
        failures.append(f"C_2,1 = {value} vs closed form {C_21_EXACT}")
    if abs(value - coarse) > 2e-4:
        failures.append(f"resolutions disagree by {abs(value - coarse):.2e}")
    if elapsed > 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    _verdict(1, failures)


def test_criterion_02_closed_form_anchors():
    failures = []
    n1 = entropy_power(gaussian_on_grid(0.0, 1.0, -8.0, 16.0 / 4096, 4096), 1.0)
    if abs(n1 / (2.0 * math.pi * math.e) - 1.0) > 1e-3:
        failures.append(f"N_1(gaussian) = {n1}")
    u = uniform_interval(-0.5, 0.5, cells=512)
    h_tri = renyi_entropy(convolve(u, u), 1.0)
    if abs(h_tri - 0.5) > 1e-3:
        failures.append(f"h(triangle) = {h_tri}")
    h_ball = ball_sum_entropy(BallPair(1, 0.5, 0.5))
    if abs(h_ball - 0.5) > 1e-4:
        failures.append(f"ball sum entropy = {h_ball}")
    for beta in (-1.0, 0.0, 0.4):
        m2 = moment(generalized_gaussian(beta), 2)
        if abs(m2 - 1.0) > 5e-3:
            failures.append(f"E X^2 = {m2} at beta = {beta}")
    _verdict(2, failures)


def test_criterion_03_exact_identities():
    failures = []
    for i in range(500):
        spec = DensityGeneratorSpec(
            kind=GENERATOR_KINDS[i % len(GENERATOR_KINDS)],
            component_count=2 + i % 3, seed=10_000 + i, cells=256)
        f = random_density(spec)
        g = rearrange_1d(f)
        if abs(g.mass - f.mass) > 1e-12:
            failures.append(f"mass drift at i={i}")
        for p in ORDERS:
            if abs(renyi_entropy(g, p) - renyi_entropy(f, p)) > 1e-10:
                failures.append(f"h_{p} drift at i={i}")
        for frac in (0.25, 0.5, 0.75):
            t = frac * f.max_value
            if abs(level_set_measure(g, t) - level_set_measure(f, t)) > 1e-12:
                failures.append(f"level set {frac} drift at i={i}")
        gg = rearrange_1d(g)
        rr = refine(g, 2)
        if not (np.array_equal(gg.values, rr.values)
                and gg.x0 == rr.x0 and gg.dx == rr.dx):
            failures.append(f"idempotence broken at i={i}")
        if failures:
            break
    _verdict(3, failures)


def test_criterion_04_main_theorem_suite(main_suite):
    by_name, elapsed = main_suite
    failures = []
    reports = by_name["main_theorem"]
    if len(reports) != 1250:
        failures.append(f"expected 1250 checks, got {len(reports)}")
    bad = _failing(reports)
    if bad:
        failures.append(f"{len(bad)} failures, first {bad[0].name}")
    if elapsed > 60.0:
        failures.append(f"suite took {elapsed:.1f}s, budget 60s")
    _verdict(4, failures)


def test_criterion_05_majorization(main_suite):
    by_name, _ = main_suite
    failures = []
    reports = by_name["majorized_convolution"]
    if len(reports) != 250:
        failures.append(f"expected 250 checks, got {len(reports)}")
    bad = _failing(reports)
    if bad:
        failures.append(f"{len(bad)} failures, worst margin "
                        f"{min(r.margin for r in bad):.2e}")
    _verdict(5, failures)


def test_criterion_06_contractions_and_monotonicities():
    failures = []
    reports = []
    for suite in ("divergence", "fisher"):
        reports.extend(run_suite(SuiteConfig(suite=suite, seed=0, cells=2048)))
    bad = _failing(reports)
    if bad:
        failures.append(f"{len(bad)} failures, first {bad[0].name}")
    if len(reports) != 200 + 150:
        failures.append(f"expected 350 checks, got {len(reports)}")
    names = {r.name.split("[")[0] for r in reports}
    wanted = {"divergence_contraction", "l1_contraction", "variance_decrease",
              "fisher_monotone", "isoperimetric", "log_sobolev"}
    if names != wanted:
        failures.append(f"check families {sorted(names)}")
    _verdict(6, failures)


def test_criterion_07_epi_chain(main_suite):
    by_name, _ = main_suite
    failures = []
    reports = by_name["epi_chain"]
    if len(reports) < 100:
        failures.append(f"only {len(reports)} chain checks")
    bad = _failing(reports)
    if bad:
        failures.append(f"{len(bad)} failures")
    cells, hw = 2048, 4.0
    dx = 2.0 * hw / cells
    rep = check_epi_chain(Group((gaussian_on_grid(0.0, 0.9, -hw, dx, cells),
                                 gaussian_on_grid(0.3, 0.7, -hw, dx, cells))))
    chain = (rep.params["h_sum"], rep.params["h_star"],
             rep.params["gaussian_bound"])
    spread = max(chain) - min(chain)
    if spread > 2e-3:
        failures.append(f"gaussian chain spread {spread:.2e}")
    _verdict(7, failures)


def test_criterion_08_dimensional_epi_gap():
    failures = []
    start = time.perf_counter()
    per_dim = {}
    dims = (2, 4, 8, 16, 32, 64)
    for m, gap in zip(dims, epi_gap_balls(dims, 0.5)):
        per_dim[m] = gap / m
        if gap < -1e-9:
            failures.append(f"negative gap {gap} at dim {m}")
        if gap / m > 3.0 * math.log(m) / m:
            failures.append(f"gap/dim above 3 log(dim)/dim at dim {m}")
    for lo, hi in ((4, 8), (8, 16), (16, 32), (32, 64)):
        if per_dim[hi] > per_dim[lo] + 1e-12:
            failures.append(f"gap/dim not decreasing from {lo} to {hi}")
    elapsed = time.perf_counter() - start
    if elapsed > 5.0:
        failures.append(f"took {elapsed:.1f}s, budget 5s")
    _verdict(8, failures)


def test_criterion_09_levy_dominance():
    failures = []
    cells = 256
    dx = 3.0 / cells
    mids = (np.arange(cells) + 0.5) * dx
    vals = np.exp(-2.0 * mids)
    jump = Grid1D(0.0, dx, vals / (vals.sum() * dx))
    for lam in (0.25, 1.0):
        spec = LevySpec(a=1.0, rate=lam, jump=jump, t=1.0)
        for rep in check_levy_dominance(spec, (0.5, 1.0, 2.0, math.inf)):
            if not rep.passed:
                failures.append(f"{rep.name} fails at lambda t = {lam}")
    spec0 = LevySpec(a=1.0, rate=0.0, jump=jump, t=1.0)
    h_x = renyi_entropy(marginal_density(spec0), 1.0)
    h_z = renyi_entropy(rearranged_marginal(spec0), 1.0)
    if abs(h_x - h_z) > 1e-3:
        failures.append(f"lambda = 0 gap {abs(h_x - h_z):.2e}")
    _verdict(9, failures)


def test_criterion_10_brunn_minkowski(main_suite):
    by_name, _ = main_suite
    failures = []
    reports = by_name["brunn_minkowski"]
    if len(reports) != 100:
        failures.append(f"expected 100 checks, got {len(reports)}")
    bad = _failing(reports)
    if bad:
        failures.append(f"{len(bad)} failures")
    loose = [r.tolerance for r in reports if r.tolerance != 0.0]
    if loose:
        failures.append(f"{len(loose)} budgets other than 0, e.g. {loose[0]:.2e}")
    f = uniform_interval(0.0, 1.0, cells=256)
    g = uniform_interval(0.0, 2.0, cells=512)
    rep = brunn_minkowski_check(f, g)
    if not rep.passed or rep.margin != 0.0:
        failures.append(f"interval case margin {rep.margin:.2e}")
    _verdict(10, failures)


def test_criterion_11_bobkov_chistyakov(main_suite):
    by_name, _ = main_suite
    failures = []
    reports = by_name["bobkov_chistyakov"]
    if len(reports) != 600:
        failures.append(f"expected 600 checks, got {len(reports)}")
    bad = _failing(reports)
    if bad:
        failures.append(f"{len(bad)} failures")
    u = uniform_interval(-0.5, 0.5, cells=256)
    rep = bobkov_chistyakov_bound_check(Group((u, u)), math.inf)
    if not rep.passed or abs(rep.lhs - rep.rhs) > 1e-3:
        failures.append(f"sup-norm equality off by {abs(rep.lhs - rep.rhs):.2e}")
    _verdict(11, failures)
