"""Verification reports: one record per checked inequality.

Margins are sign-normalized so that nonnegative means the inequality
holds with room to spare, regardless of which way the original statement
points; a report passes iff margin >= -tolerance.  Infinite values follow
a fixed convention: +inf on the large side is an automatic pass, -inf on
the large side an automatic fail, and two infinite sides of the same sign
are inconclusive (the comparison carries no information).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

__all__ = ["VerificationReport", "report_geq", "report_leq", "summarize", "reports_to_json"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a single inequality check.

    lhs/rhs are quoted as in the checked statement ``lhs >= rhs`` after
    sign normalization; margin = lhs - rhs except in the infinite corner
    cases described in the module docstring.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    status: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "margin": _jsonable(self.margin),
            "tolerance": _jsonable(self.tolerance),
            "pass": self.passed,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "seed": self.seed,
            "status": self.status,
        }


def _jsonable(x: float) -> float | str:
    # strict JSON has no Infinity/NaN literals
    return x if math.isfinite(x) else repr(x)


def report_geq(name: str, lhs: float, rhs: float, tolerance: float,
               params: Mapping[str, Any] | None = None,
               seed: int | None = None) -> VerificationReport:
    """Report for a claim of the form lhs >= rhs."""
    lhs = float(lhs)
    rhs = float(rhs)
    if math.isinf(lhs) and math.isinf(rhs) and lhs == rhs:
        margin, status = math.nan, "inconclusive"
    elif math.isinf(lhs):
        # +inf on the large side passes, -inf fails, outright
        margin, status = (math.inf, "pass") if lhs > 0 else (-math.inf, "fail")
    elif math.isinf(rhs):
        # finite lhs against -inf passes trivially, against +inf fails
        margin, status = (math.inf, "pass") if rhs < 0 else (-math.inf, "fail")
    else:
        margin = lhs - rhs
        status = "pass" if margin >= -tolerance else "fail"
    return VerificationReport(name=name, lhs=lhs, rhs=rhs, margin=margin,
                              tolerance=float(tolerance), status=status,
                              params=dict(params or {}), seed=seed)


def report_leq(name: str, lhs: float, rhs: float, tolerance: float,
               params: Mapping[str, Any] | None = None,
               seed: int | None = None) -> VerificationReport:
    """Report for a claim of the form lhs <= rhs (normalized to rhs >= lhs)."""
    rep = report_geq(name, rhs, lhs, tolerance, params, seed)
    # keep the statement's own lhs/rhs order for readability
    return replace(rep, lhs=float(lhs), rhs=float(rhs))


def summarize(reports: list[VerificationReport]) -> dict[str, int]:
    return {
        "total": len(reports),
        "passed": sum(1 for r in reports if r.status == "pass"),
        "failed": sum(1 for r in reports if r.status == "fail"),
        "inconclusive": sum(1 for r in reports if r.status == "inconclusive"),
    }


def reports_to_json(reports: list[VerificationReport],
                    extra: Mapping[str, Any] | None = None) -> str:
    """Deterministic JSON for a report list (same input, same bytes)."""
    payload: dict[str, Any] = {
        "reports": [r.to_dict() for r in reports],
        "summary": summarize(reports),
    }
    if extra:
        payload.update({k: extra[k] for k in sorted(extra)})
    return json.dumps(payload, indent=2, sort_keys=False)
