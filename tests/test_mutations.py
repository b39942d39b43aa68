"""Checks that can fail: each test patches a deliberate defect into a small
suite run and asserts that at least one report of the check meant to catch
it fails, while the same run unpatched passes.
"""

import numpy as np

import renyi_rearrange.balls as balls
from renyi_rearrange import SuiteConfig, run_suite


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
