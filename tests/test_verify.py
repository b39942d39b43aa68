import dataclasses
import json
import math
from fractions import Fraction
import multiprocessing
import os
import sys
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi_rearrange import (
    BadParameter,
    ConfigInvalid,
    DensityError,
    DensityGeneratorSpec,
    Grid1D,
    Group,
    OrderOutOfRange,
    SuiteConfig,
    VerificationReport,
    ZeroMass,
    bobkov_chistyakov_bound_check,
    eps_conv,
    gaussian_on_grid,
    mixture_entropy_bound_check,
    random_density,
    renyi_divergence,
    renyi_entropies,
    report_geq,
    report_leq,
    reports_to_json,
    run_suite,
    summarize,
)
import renyi_rearrange.config as config_module
import renyi_rearrange.entropy as entropy_module
from renyi_rearrange import cli, verifier
from renyi_rearrange.convolve import convolve_k
from renyi_rearrange.entropy import FACTOR_ORDERS, ORDERS
from renyi_rearrange.rearrange import rearrange_1d
from renyi_rearrange.verifier import (
    _INTEGRANDS,
    HALFWIDTH,
    check_epi_chain,
    check_main_theorem,
    check_majorized_convolution,
    check_most_gen,
    check_divergence_contraction,
    check_rbll,
)


class TestReportGeq:
    def test_finite_pass_and_margin(self):
        rep = report_geq("x", 3.0, 2.5, 1e-9)
        assert rep.passed and rep.status == "pass"
        assert rep.margin == pytest.approx(0.5)

    def test_finite_fail(self):
        rep = report_geq("x", 2.0, 2.5, 1e-9)
        assert not rep.passed and rep.status == "fail"
        assert rep.margin == pytest.approx(-0.5)

    def test_within_tolerance_passes(self):
        assert report_geq("x", 1.0, 1.0 + 1e-12, 1e-9).passed

    def test_infinite_lhs(self):
        assert report_geq("x", math.inf, 7.0, 0.0).passed
        assert report_geq("x", math.inf, 7.0, 0.0).margin == math.inf
        rep = report_geq("x", -math.inf, 7.0, 0.0)
        assert not rep.passed and rep.margin == -math.inf

    def test_infinite_rhs(self):
        assert report_geq("x", 7.0, -math.inf, 0.0).passed
        assert not report_geq("x", 7.0, math.inf, 0.0).passed

    def test_passed_is_read_from_status(self):
        rep = report_geq("x", 3.0, 2.5, 1e-9)
        assert not dataclasses.replace(rep, status="fail").passed
        with pytest.raises(TypeError):
            dataclasses.replace(rep, passed=True)

    def test_same_sign_infinities_inconclusive(self):
        for side in (math.inf, -math.inf):
            rep = report_geq("x", side, side, 0.0)
            assert rep.status == "inconclusive"
            assert not rep.passed
            assert math.isnan(rep.margin)


class TestReportLeq:
    def test_keeps_statement_order(self):
        rep = report_leq("x", 2.0, 3.0, 1e-9)
        assert (rep.lhs, rep.rhs) == (2.0, 3.0)
        assert rep.passed
        # margin is still sign-normalized: room below the bound
        assert rep.margin == pytest.approx(1.0)

    def test_fail_direction(self):
        assert not report_leq("x", 3.0, 2.0, 1e-9).passed

    def test_infinite_bound_passes(self):
        # a divergence bounded by +inf is trivially fine
        rep = report_leq("x", 5.0, math.inf, 0.0)
        assert rep.passed and rep.margin == math.inf

    def test_both_infinite_inconclusive(self):
        rep = report_leq("x", math.inf, math.inf, 0.0)
        assert rep.status == "inconclusive" and math.isnan(rep.margin)


def _strict(name):
    raise ValueError(f"{name} is not strict JSON")


def _records(reports):
    """The report records as reports_to_json writes them, parsed as strict JSON."""
    return json.loads(reports_to_json(list(reports)), parse_constant=_strict)["reports"]


class TestSerialization:
    def test_nonfinite_are_strings(self):
        rep = report_geq("x", math.inf, math.inf, 0.0)
        [d] = _records([rep])
        assert d["lhs"] == "inf" and d["rhs"] == "inf"
        assert d["margin"] == "nan"
        assert d["pass"] is False and d["status"] == "inconclusive"

    def test_params_are_sorted(self):
        rep = report_geq("x", 1.0, 0.0, 0.0, params={"b": 1, "a": 2})
        assert list(_records([rep])[0]["params"]) == ["a", "b"]

    def test_json_is_strict_and_deterministic(self):
        reps = [report_geq("a", 1.0, 0.0, 1e-9, seed=3),
                report_leq("b", -math.inf, 0.0, 0.0),
                report_geq("x", 1.0, 0.0, 0.1, params={"h": math.inf, "g": math.nan})]
        text1 = reports_to_json(reps, extra={"seed": 3, "argv": ["verify"]})
        text2 = reports_to_json(reps, extra={"seed": 3, "argv": ["verify"]})
        assert text1 == text2
        payload = json.loads(text1, parse_constant=_strict)
        assert payload["summary"]["total"] == 3
        assert payload["reports"][2]["params"] == {"g": "nan", "h": "inf"}
        assert "Infinity" not in text1 and "NaN" not in text1

    @pytest.mark.parametrize("key", ["reports", "summary"])
    def test_extra_cannot_replace_the_reports(self, key):
        with pytest.raises(ValueError):
            reports_to_json([report_geq("a", 1.0, 0.0, 0.0)], extra={key: []})

    def test_nonfinite_extra_is_refused(self):
        with pytest.raises(ValueError):
            reports_to_json([], extra={"config": {"rate": math.inf}})

    def test_params_must_be_json_scalars(self):
        with pytest.raises(TypeError):
            reports_to_json([report_geq("a", 1.0, 0.0, 0.0, params={"v": [1.0]})])

    def test_summarize_counts(self):
        reps = [report_geq("a", 1.0, 0.0, 0.0),
                report_geq("b", 0.0, 1.0, 0.0),
                report_geq("c", math.inf, math.inf, 0.0)]
        assert summarize(reps) == {
            "total": 3, "passed": 1, "failed": 1, "inconclusive": 1}


def _json_float(x):
    return x if math.isfinite(x) else repr(x)


def _oracle_dict(r):
    """The record reports_to_json must write, for json.dumps(indent=2)."""
    return {
        "name": r.name,
        "lhs": _json_float(r.lhs),
        "rhs": _json_float(r.rhs),
        "margin": _json_float(r.margin),
        "tolerance": _json_float(r.tolerance),
        "pass": r.passed,
        "params": {k: _json_float(v) if isinstance(v, float) else v
                   for k, v in sorted(r.params.items())},
        "seed": r.seed,
        "status": r.status,
    }


# text that reaches every branch of the string escaper
_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\té€\u2028\U0001f600'),
                          st.characters()), max_size=8)
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([math.inf, -math.inf, math.nan]))
_PARAMS = st.dictionaries(_TEXT, st.one_of(st.integers(), _FLOATS, _TEXT, st.booleans(),
                                           st.none()), max_size=4)
_REPORTS = st.lists(st.builds(
    VerificationReport, name=_TEXT, lhs=_FLOATS, rhs=_FLOATS, margin=_FLOATS,
    tolerance=_FLOATS, status=st.sampled_from(["pass", "fail", "inconclusive"]),
    params=_PARAMS, seed=st.one_of(st.none(), st.integers())), max_size=4)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False, allow_infinity=False), _TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_TEXT, inner, max_size=3)),
    max_leaves=8)
_EXTRA = st.one_of(st.none(), st.just({}), st.dictionaries(
    _TEXT.filter(lambda k: k not in ("reports", "summary")),
    st.dictionaries(_TEXT, _JSON, max_size=3), min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(reports=_REPORTS, extra=_EXTRA)
def test_writer_matches_json_dumps_of_the_records(reports, extra):
    payload = {"reports": [_oracle_dict(r) for r in reports],
               "summary": summarize(reports),
               **{k: extra[k] for k in sorted(extra or {})}}
    assert reports_to_json(reports, extra) == json.dumps(payload, indent=2, allow_nan=False)


def _gauss(mean, sd, cells=1024, halfwidth=6.0):
    dx = 2.0 * halfwidth / cells
    return gaussian_on_grid(mean, sd, -halfwidth, dx, cells)


class TestChecks:
    def test_main_theorem_gaussian_near_equality(self):
        # a centered Gaussian is its own rearrangement, so the two sides
        # only differ through the resolution doubling
        g = _gauss(0.0, 1.0)
        group = Group((g, g))
        for p in (0.0, 0.5, 1.0, 2.0, math.inf):
            rep = check_main_theorem(group, p)
            assert rep.passed
            assert abs(rep.margin) < 1e-3

    def test_main_theorem_needs_two(self):
        with pytest.raises(BadParameter):
            check_main_theorem(Group((_gauss(0.0, 1.0),)), 1.0)

    def test_epi_chain_gaussians_tight(self):
        rep = check_epi_chain(Group((_gauss(0.0, 0.9), _gauss(0.3, 0.7))))
        assert rep.passed
        h_sum = rep.params["h_sum"]
        h_star = rep.params["h_star"]
        bound = rep.params["gaussian_bound"]
        exact = 0.5 * math.log(2.0 * math.pi * math.e * (0.81 + 0.49))
        for value in (h_sum, h_star, bound):
            assert value == pytest.approx(exact, abs=2e-3)

    def test_rbll_mass_degenerate(self):
        rep = check_rbll([_gauss(0.2, 0.8)])
        assert rep.passed
        assert abs(rep.margin) < 1e-12

    def test_rbll_needs_input(self):
        with pytest.raises(BadParameter):
            check_rbll([])

    def test_divergence_contraction_reads_the_groups_stars(self, monkeypatch):
        # the pair's rearrangements come from group.stars, each density
        # rearranged once however many orders are checked
        f, g = (random_density(DensityGeneratorSpec("gaussian-mixture", seed=s, cells=256))
                for s in (3, 4))
        calls = []
        monkeypatch.setattr(entropy_module, "rearrange_1d",
                            lambda h: calls.append(h) or rearrange_1d(h))
        group = Group((f, g))
        for alpha in (0.3, 1.0):
            rep = check_divergence_contraction(group, alpha, seed=7)
            f_star, g_star = group.stars
            assert rep.passed and rep.seed == 7
            assert rep.name == f"divergence_contraction[alpha={alpha:g}]"
            assert rep.lhs == renyi_divergence(f_star, g_star, alpha)
            assert rep.rhs == renyi_divergence(f, g, alpha)
            assert rep.lhs < rep.rhs
        assert [id(h) for h in calls] == [id(f), id(g)]
        assert f_star.values.tobytes() == rearrange_1d(f).values.tobytes()


class TestExactOverlap:
    def test_same_grid_pair_overlap_is_exact(self):
        # on one grid the overlap is the sum of the cell products times dx:
        # here 2^-20 + 2^-60, times dx = 2^-2, a float.  A projection of g
        # onto its own grid reads its cumulative mass, where 1 + 2^-60
        # rounds to 1, so it lost g's second cell
        f = Grid1D(-0.25, 0.25, np.array([2.0**-20, 1.0]))
        g = Grid1D(-0.25, 0.25, np.array([1.0, 2.0**-60]))
        exact = sum(Fraction(a) * Fraction(b) for a, b in zip(f.values, g.values)) * Fraction(f.dx)
        assert exact.denominator & (exact.denominator - 1) == 0  # dyadic
        rep = check_rbll([f, g])
        assert Fraction(rep.lhs) == exact
        # the rearranged pair sits on one grid too, so rhs is the float sum
        fs, gs = rearrange_1d(f), rearrange_1d(g)
        assert rep.rhs == float(np.sum(fs.values * gs.values) * fs.dx)


def _fisher_monotone(seed):
    """The fisher_monotone reports of one Fisher corpus at 2048 cells."""
    reports = run_suite(SuiteConfig(suite="fisher", seed=seed, cells=2048))
    return [r for r in reports if r.name == "fisher_monotone"]


class TestFisherMonotone:
    @pytest.mark.parametrize("seed", [0, 977])
    def test_margins_within_roundoff(self, seed):
        # the discrete statement is exact, so no margin may fall below the
        # roundoff bound (n + 5) 2^-53 (lhs + rhs) of the two sums
        reports = _fisher_monotone(seed)
        assert len(reports) == 50
        bounds = [(2048 + 5) * 2.0**-53 * (rep.lhs + rep.rhs) for rep in reports]
        short = [(rep.seed, rep.margin, bound)
                 for rep, bound in zip(reports, bounds) if rep.margin < -bound]
        assert not short
        assert [rep.tolerance for rep in reports] == bounds
        assert all(rep.passed for rep in reports)

    def test_swapping_cells_100_and_101_right_of_the_middle_fails(self, monkeypatch):
        # a wrong arrangement: cells c + 100 and c + 101 of f# swapped, c the
        # middle cell; swapping c and c + 1 fails none of these densities
        real = verifier.discrete_arrangement

        def swapped(f):
            v = real(f).values.copy()
            c = (f.n_cells - 1) // 2
            v[c + 100], v[c + 101] = v[c + 101], v[c + 100]
            return Grid1D(f.x0, f.dx, v)

        monkeypatch.setattr(verifier, "discrete_arrangement", swapped)
        reports = _fisher_monotone(0)
        assert sum(not r.passed for r in reports) >= 1


class TestIntegrands:
    def test_labels(self):
        assert [label for label, _, _ in _INTEGRANDS] == [
            "xlogx", "power(2)", "power(0.5)", "hinge(0.25)"]

    def test_seed0_main_suite_reads_the_four(self):
        reports = run_suite(SuiteConfig(suite="main", seed=0, pairs=8, cells=64))
        names = sorted({r.name for r in reports if r.name.startswith("most_gen")})
        assert names == sorted(f"most_gen[{label}]" for label in
                               ("xlogx", "power(2)", "power(0.5)", "hinge(0.25)"))

    def test_xlogx_vanishes_at_zero(self):
        out = _INTEGRANDS[0][1](np.array([0.0, 1.0]))
        assert out[0] == 0.0 and out[1] == 0.0

    def test_concave_power_flipped(self):
        out = _INTEGRANDS[2][1](np.array([4.0]))
        assert out[0] == -2.0


class TestSuiteConfig:
    def test_defaults_validate(self):
        SuiteConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"suite": "bogus"},
        {"pairs": -1},
        {"suite": "All"},  # suite names are case-sensitive
        {"cells": 7},  # one below the floor
        {"cells": 4},
        {"seed": -1},
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigInvalid):
            SuiteConfig(**kwargs).validate()

    def test_cells_past_max_cells_refused(self):
        # a triple's rearranged sum has 6 cells - 2 cells: 4194304 =
        # MAX_CELLS at 699051, one cell more takes it past
        SuiteConfig(cells=699051).validate()
        with pytest.raises(ConfigInvalid, match="cells must be <= 699051"):
            SuiteConfig(cells=699052).validate()
        with pytest.raises(ConfigInvalid):
            SuiteConfig(cells=10**9).validate()


class TestRunSuite:
    def test_deterministic_reports(self):
        config = SuiteConfig(suite="divergence", seed=11, pairs=12, cells=256)
        first = _records(run_suite(config))
        second = _records(run_suite(config))
        assert first == second
        assert len(first) == 3 * 4  # two alphas + L1 + variance per pair

    def test_small_all_run_is_green(self):
        config = SuiteConfig(suite="all", seed=5, pairs=2, cells=512)
        reports = run_suite(config)
        counts = summarize(reports)
        assert counts["failed"] == 0
        assert counts["inconclusive"] == 0
        assert counts["total"] == len(reports) > 40

    def test_unknown_suite_raises(self):
        with pytest.raises(ConfigInvalid):
            run_suite(SuiteConfig(suite="nope"))

    def test_zero_budget_failures_bounded_by_default_budget(self):
        # a margin does not depend on its budget, so the reports a zero
        # convolution budget would fail are the ones with a negative
        # margin: a handful of near-equality checks, none of them by more
        # than the default budget of a triple was sized to absorb; this
        # pins the discretization-error rationale
        config = SuiteConfig(suite="main", seed=0, pairs=8, cells=256)
        margins = [r.margin for r in run_suite(config)]
        assert min(margins) < 0.0
        dx = 2.0 * HALFWIDTH / config.cells
        assert min(margins) >= -eps_conv(dx, 3)

    # the reports whose budget is a convolution budget, by name prefix
    _CONV_BUDGETED = ("main_theorem[", "rbll[k=2]", "rbll[k=3]", "most_gen[",
                      "majorized_convolution[", "epi_chain", "bobkov_chistyakov[",
                      "levy_dominance[p=")

    def test_every_convolution_budget_reads_eps_conv(self, monkeypatch):
        # the budget of a convolution is config.eps_conv's formula and no
        # other: doubling EPS_CONV_FACTOR doubles exactly those tolerances
        # (a factor of 2 scales a float exactly) and leaves every other one
        config = SuiteConfig(pairs=4, cells=64)
        before = run_suite(config)
        monkeypatch.setattr(config_module, "EPS_CONV_FACTOR", 2.0 * config_module.EPS_CONV_FACTOR)
        after = run_suite(config)
        assert [r.name for r in after] == [r.name for r in before]
        for prefix in self._CONV_BUDGETED:
            assert any(r.name.startswith(prefix) for r in before), prefix
        missed = [r.name for r, s in zip(before, after)
                  if s.tolerance != (2.0 if r.name.startswith(self._CONV_BUDGETED) else 1.0)
                  * r.tolerance]
        assert missed == []

    def test_main_suite_reports_carry_seed(self):
        # every check of the main suite runs on a seeded corpus group, so
        # every report must be traceable back to its group
        reports = run_suite(SuiteConfig(suite="main", pairs=4, cells=64))
        unseeded = sorted({r.name for r in reports if r.seed is None})
        assert len(reports) > 0
        assert unseeded == []

    def test_main_suite_never_repeats_a_convolution(self, monkeypatch):
        # one CPU: the suite runs in this process, where the recorder is
        _cpus(monkeypatch, 1)
        # the package re-exports the function under the submodule's name
        original = sys.modules["renyi_rearrange.convolve"].convolve
        keys = []

        def recorder(f, g, *args, **kwargs):
            keys.append(tuple((h.x0, h.dx, h.values.tobytes()) for h in (f, g)))
            return original(f, g, *args, **kwargs)

        # patch every module that bound the kernel at import time
        for name, module in list(sys.modules.items()):
            if (name.startswith("renyi_rearrange.")
                    and getattr(module, "convolve", None) is original):
                monkeypatch.setattr(module, "convolve", recorder)
        run_suite(SuiteConfig(suite="main", pairs=4, cells=64))
        assert len(keys) > 0
        repeats = len(keys) - len(set(keys))
        assert repeats == 0

    def test_main_suite_reads_each_density_once(self, monkeypatch):
        # every order a group's checks use comes out of one layer pass per
        # density: the sums, the factors, the mixture, the EPI witness
        _cpus(monkeypatch, 1)
        original = sys.modules["renyi_rearrange.entropy"].renyi_entropies
        keys = []

        def recorder(f, orders):
            keys.append((f.x0, f.dx, f.values.tobytes()))
            return original(f, orders)

        for name, module in list(sys.modules.items()):
            if (name.startswith("renyi_rearrange.")
                    and getattr(module, "renyi_entropies", None) is original):
                monkeypatch.setattr(module, "renyi_entropies", recorder)
        run_suite(SuiteConfig(suite="main", pairs=4, cells=64))
        # 4 pairs: two sums, two factors, one mixture; 1 triple: two sums;
        # the Gaussian EPI witness: two sums, two factors
        assert len(keys) == 4 * 5 + 1 * 2 + 4
        assert len(set(keys)) == len(keys)


def _cpus(monkeypatch, n):
    """Make run_suite see n CPUs in the affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _forks(monkeypatch, late=None):
    """The list that gets an item for each process forked from now on.

    With late "caller" or "worker", that side of each fork sleeps 0.15 s
    after it, so that the other side takes the first unit."""
    forks = []
    real = os.fork

    def fork():
        forks.append(os.getpid())
        pid = real()
        if late == ("caller" if pid else "worker"):
            time.sleep(0.15)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _around_units(monkeypatch, around):
    """Make unit i of every run call around(i, unit) in its place."""
    original = verifier._units
    monkeypatch.setattr(verifier, "_units", lambda config: [
        partial(around, i, unit) for i, unit in enumerate(original(config))])


def _logged(path):
    """The (unit index, pid) lines an _around_units callback wrote to path."""
    return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]


def _log(path, i):
    with open(path, "a") as fh:
        fh.write(f"{i} {os.getpid()}\n")


def _assert_no_children():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerPool:
    """The suite's units run in this process and on one forked worker per
    further CPU, or in this process alone on one CPU; the reports are the
    same either way, and no worker outlives the call."""

    CONFIG = SuiteConfig(suite="all", seed=3, pairs=9, cells=128)

    def test_unit_ranges_cover_each_corpus_once(self):
        units = verifier._units(SuiteConfig(pairs=9))
        pairs = [i for u in units if u.func is verifier._run_pairs for i in u.args[1]]
        triples = [i for u in units if u.func is verifier._run_triples for i in u.args[1]]
        assert pairs == list(range(9)) and triples == list(range(2))
        assert len(units) == 8 + 2 + 1 + 4

    def test_json_bytes_do_not_depend_on_the_worker_count(self, monkeypatch):
        forks = _forks(monkeypatch)
        _cpus(monkeypatch, 2)
        shared = reports_to_json(run_suite(self.CONFIG))
        assert len(forks) == 1
        _cpus(monkeypatch, 1)
        serial = reports_to_json(run_suite(self.CONFIG))
        assert len(forks) == 1  # nothing forked on one CPU
        assert serial == shared
        assert json.loads(serial)["summary"]["failed"] == 0
        _assert_no_children()

    # 8: more processes than this host may have cores; each unit must
    # still run once, which a counter that lost an update would break
    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_the_caller_runs_units_beside_its_workers(self, cpus, monkeypatch, tmp_path):
        log = tmp_path / "units.log"

        def around(i, unit):
            _log(log, i)
            time.sleep(0.01)  # no process can take every unit alone
            return unit()

        _around_units(monkeypatch, around)
        forks = _forks(monkeypatch)
        _cpus(monkeypatch, cpus)
        reports = run_suite(self.CONFIG)
        assert len(forks) == cpus - 1
        ran = _logged(log)
        assert sorted(i for i, _ in ran) == list(range(15))
        pids = {pid for _, pid in ran}
        assert len(pids) <= cpus
        if cpus == 2:
            # with more workers the caller may still be forking when they
            # have taken every unit
            assert os.getpid() in pids and len(pids) == 2
        _assert_no_children()
        _cpus(monkeypatch, 1)
        assert _records(run_suite(self.CONFIG)) == _records(reports)

    def test_worker_error_reaches_the_parent_with_its_class(self, monkeypatch, capsys):
        parent = os.getpid()

        def no_mass(spec):
            if os.getpid() == parent:
                time.sleep(0.01)
                return real(spec)
            raise ZeroMass(f"no mass for seed {spec.seed}")

        # patched before the fork, so the worker inherits it
        real = verifier.random_density
        monkeypatch.setattr(verifier, "random_density", no_mass)
        _cpus(monkeypatch, 2)
        forks = _forks(monkeypatch)
        with pytest.raises(DensityError) as excinfo:
            run_suite(self.CONFIG)
        assert excinfo.type is ZeroMass
        # the worker's traceback comes along as the cause
        assert "no_mass" in str(excinfo.value.__cause__)
        assert len(forks) == 1
        _assert_no_children()
        rc = cli.main(["verify", "--suite", "main", "--count", "4", "--cells", "64"])
        assert rc == 2
        assert "error: no mass for seed" in capsys.readouterr().err
        assert len(forks) == 2
        _assert_no_children()

    def test_caller_error_leaves_no_worker(self, monkeypatch):
        parent = os.getpid()

        def around(i, unit):
            time.sleep(0.01)
            if os.getpid() == parent:
                raise ZeroMass(f"unit {i}")
            return unit()

        _around_units(monkeypatch, around)
        _cpus(monkeypatch, 2)
        with pytest.raises(ZeroMass):
            run_suite(self.CONFIG)
        _assert_no_children()

    @pytest.mark.parametrize("first", ["caller", "worker"])
    def test_the_lowest_unit_error_is_raised(self, first, monkeypatch, tmp_path):
        # every unit fails; unit 0 fails last, after the other process has
        # failed on unit 1, so the first error to arrive is not the one raised
        log = tmp_path / "units.log"

        def around(i, unit):
            _log(log, i)
            if i == 0:
                time.sleep(0.3)
            raise ZeroMass(f"unit {i}")

        _around_units(monkeypatch, around)
        _forks(monkeypatch, late="caller" if first == "worker" else "worker")
        _cpus(monkeypatch, 2)
        with pytest.raises(ZeroMass, match="^unit 0$"):
            run_suite(self.CONFIG)
        ran = dict(_logged(log))
        assert sorted(ran) == [0, 1]  # each process failed once, then stopped
        assert (ran[0] == os.getpid()) == (first == "caller")
        assert ran[1] != ran[0]
        _assert_no_children()

    @pytest.mark.parametrize("death", ["exit", "unpicklable error"])
    def test_worker_that_dies_is_an_error(self, death, monkeypatch):
        parent = os.getpid()

        class Local(Exception):
            """Defined in a function, so pickle cannot name it."""

        def around(i, unit):
            time.sleep(0.01)
            if os.getpid() != parent:
                if death == "exit":
                    os._exit(3)
                raise Local(f"unit {i}")
            return unit()

        _around_units(monkeypatch, around)
        _cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="before sending its results"):
            run_suite(self.CONFIG)
        _assert_no_children()

    def test_interrupted_caller_kills_its_worker(self, monkeypatch):
        parent = os.getpid()

        def around(i, unit):
            if os.getpid() != parent:
                time.sleep(60.0)
            time.sleep(0.05)
            raise KeyboardInterrupt

        _around_units(monkeypatch, around)
        _cpus(monkeypatch, 2)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_suite(self.CONFIG)
        assert time.perf_counter() - t0 < 10.0
        _assert_no_children()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_cli_json_is_reports_to_json_of_run_suite(self, cpus, monkeypatch, tmp_path):
        _cpus(monkeypatch, cpus)
        path = tmp_path / "verify.json"
        rc = cli.main(["verify", "--suite", "all", "--seed", "5", "--count", "9",
                       "--cells", "128", "--json", str(path)])
        assert rc == 0
        config = SuiteConfig(suite="all", seed=5, pairs=9, cells=128)
        extra = {"config": {"suite": "all", "seed": 5, "count": 9, "cells": 128}}
        assert path.read_text() == reports_to_json(run_suite(config), extra) + "\n"
        _assert_no_children()


def test_rbll_unit_holds_one_group_at_a_time():
    # its 100 pairs, 25 triples and one solo density took 3.64 MB together
    # while they were built as one list
    config = SuiteConfig(cells=2048)
    # a small run first, so that the modules loaded on first use are not counted
    verifier._run_rbll(SuiteConfig(pairs=2, cells=64))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        reports = verifier._run_rbll(config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(reports) == 100 + 25 + 1
    assert peak < 1e6


def _group_checks(group):
    """Every check that reads a convolution group, run on `group`."""
    k = len(group.fs)
    reports = [check_main_theorem(group, p) for p in ORDERS]
    reports += [check_most_gen(group, integrand) for integrand in _INTEGRANDS]
    reports.append(check_majorized_convolution(group))
    reports += [bobkov_chistyakov_bound_check(group, p) for p in FACTOR_ORDERS]
    reports.append(mixture_entropy_bound_check(group))
    if k == 2:
        reports.append(check_epi_chain(group))
    return _records(reports)


@pytest.mark.parametrize("k", [2, 3])
def test_group_computes_each_member_once(k, monkeypatch):
    kinds = ("spiky-piecewise", "uniform-mixture", "bimodal")
    fs = tuple(random_density(DensityGeneratorSpec(kind=kinds[j], seed=40 + j, cells=128))
               for j in range(k))
    module = sys.modules["renyi_rearrange.convolve"]
    original = module.convolve
    calls = []

    def recorder(f, g, *args, **kwargs):
        calls.append((f, g))
        return original(f, g, *args, **kwargs)

    monkeypatch.setattr(module, "convolve", recorder)
    group = Group(fs)
    # the members are lazy: a triple's main-theorem checks compute no factor row
    check_main_theorem(group, 1.0)
    assert "h_factors" not in vars(group)
    first = _group_checks(group)
    assert _group_checks(group) == first
    assert len(calls) == 2 * (k - 1)

    # the members are the plain folds and passes, bit for bit
    conv = convolve_k(list(fs))
    conv_star = convolve_k([rearrange_1d(f) for f in fs])
    for got, want in ((group.conv, conv), (group.conv_star, conv_star)):
        assert (got.x0, got.dx, got.values.tobytes()) == (want.x0, want.dx,
                                                          want.values.tobytes())

    def row(f, orders):
        return dict(zip(orders, renyi_entropies(f, orders)))

    assert dict(group.h_conv) == row(conv, ORDERS)
    assert dict(group.h_conv_star) == row(conv_star, ORDERS)
    assert [dict(r) for r in group.h_factors] == [row(f, FACTOR_ORDERS) for f in fs]
    assert group.h_conv["inf"] == group.h_conv[math.inf]

    # an order outside a row is out of range for the checks that read it
    with pytest.raises(OrderOutOfRange):
        check_main_theorem(group, 3.0)
    with pytest.raises(OrderOutOfRange):
        bobkov_chistyakov_bound_check(group, 1.5)
    if k == 3:
        with pytest.raises(BadParameter):
            check_epi_chain(group)


# each group check with the members it can find precomputed: "convs" is a
# group whose conv and conv_star were read first, "rows" one whose entropy
# rows were
_CONV_CHECKS = [
    *[(f"main_theorem[p={p:g}]", ("convs", "rows"),
       lambda group, p=p: check_main_theorem(group, p)) for p in ORDERS],
    *[(f"most_gen[{entry[0]}]", ("convs",),
       lambda group, entry=entry: check_most_gen(group, entry)) for entry in _INTEGRANDS],
    ("majorized_convolution", ("convs",), check_majorized_convolution),
    ("epi_chain", ("convs", "rows"), check_epi_chain),
    *[(f"bobkov_chistyakov[p={p:g}]", ("convs", "rows"),
       lambda group, p=p: bobkov_chistyakov_bound_check(group, p)) for p in FACTOR_ORDERS],
    ("mixture_entropy_bound", ("rows",),
     mixture_entropy_bound_check),
]


@pytest.mark.parametrize("name, check, k, form", [
    pytest.param(name, check, k, form,
                 id=f"{name}-k{k}" + ("" if form == "convs" else f"-{form}"))
    for name, forms, check in _CONV_CHECKS for k in (2, 3) for form in forms
    if not (name == "epi_chain" and k == 3)  # the EPI chain takes a pair
])
def test_precomputed_convolutions_give_same_reports(name, check, k, form, monkeypatch):
    kinds = ("spiky-piecewise", "uniform-mixture", "bimodal")
    fs = tuple(random_density(DensityGeneratorSpec(kind=kinds[j], seed=40 + j, cells=128))
               for j in range(k))
    pre = Group(fs)
    members = ("conv", "conv_star") if form == "convs" else ("h_conv", "h_conv_star", "h_factors")
    for member in members:
        getattr(pre, member)  # computed now and kept

    module = sys.modules["renyi_rearrange.convolve"]
    original = module.convolve
    calls = []

    def recorder(f, g, *args, **kwargs):
        calls.append((f, g))
        return original(f, g, *args, **kwargs)

    monkeypatch.setattr(module, "convolve", recorder)
    [with_pre] = _records([check(pre)])
    assert calls == []  # the check convolves nothing the group already holds
    assert with_pre["name"].startswith(name.split("[")[0])
    assert [with_pre] == _records([check(Group(fs))])
