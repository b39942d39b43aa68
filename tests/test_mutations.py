"""Checks that can fail: each test patches a deliberate defect into a small
suite run and asserts that at least one report of the check meant to catch
it fails, while the same run unpatched passes.
"""

import sys

import numpy as np

import renyi_rearrange.balls as balls
from renyi_rearrange import Grid1D, SuiteConfig, run_suite


def _brunn_minkowski_reports():
    # 8 Brunn-Minkowski pairs at seed 0, two of them at equality; the 4
    # pairs of pairs=8 all have gaps and margins of 16 cells or more
    reports = run_suite(SuiteConfig(suite="main", pairs=16, cells=256))
    return [r for r in reports if r.name == "brunn_minkowski"]


def test_brunn_minkowski_catches_a_sum_set_one_cell_short(monkeypatch):
    clean = _brunn_minkowski_reports()
    assert clean and all(r.passed for r in clean)
    # the defect shows only at equality, where the budget is 0
    assert any(r.margin == 0.0 for r in clean)

    merge = balls._merge

    def short_merge(starts, ends):
        starts, ends = merge(starts, ends)
        return starts, np.append(ends[:-1], ends[-1] - 1)

    monkeypatch.setattr(balls, "_merge", short_merge)
    assert any(not r.passed for r in _brunn_minkowski_reports())


def _order_zero_reports():
    # the smallest seed-0 corpus with a pair at equality: 8 cells, one
    # pair and one triple; the pair's supports are intervals, so its
    # main_theorem[p=0] margin is 0
    reports = run_suite(SuiteConfig(suite="main", pairs=1, cells=8))
    return [r for r in reports if r.name == "main_theorem[p=0]"]


def test_main_theorem_at_order_zero_catches_a_convolution_that_drops_a_support_cell(
        monkeypatch):
    clean = _order_zero_reports()
    assert clean and all(r.passed for r in clean)
    assert any(r.margin == 0.0 for r in clean)

    module = sys.modules["renyi_rearrange.convolve"]
    convolve = module.convolve

    def dropping_convolve(f, g):
        h = convolve(f, g)
        values = h.values.copy()
        values[np.flatnonzero(values)[-1]] = 0.0  # the last cell of the support
        return Grid1D(h.x0, h.dx, values)

    monkeypatch.setattr(module, "convolve", dropping_convolve)
    assert any(not r.passed for r in _order_zero_reports())
