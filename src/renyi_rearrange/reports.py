"""Verification reports: one record per checked inequality.

Margins are sign-normalized so that nonnegative means the inequality
holds with room to spare, regardless of which way the original statement
points; a report passes iff margin >= -tolerance.  Infinite values follow
a fixed convention: +inf on the large side is an automatic pass, -inf on
the large side an automatic fail, and two infinite sides of the same sign
are inconclusive (the comparison carries no information).

The report schema lives in two functions.  _report_json writes one
record, in a fixed field order (name, lhs, rhs, margin, tolerance, pass,
params with its keys sorted, seed, status), its bytes equal to
``json.dumps(..., indent=2)`` of that record.  write_reports_json lays
out the document around the records: the report list, then the summary
and any extra keys.  The JSON is strict: every non-finite float, in
params too, is written as its quoted repr ("inf", "-inf", "nan").
report_records renders a run of reports as one piece of the report list,
and write_reports_json writes the document from such pieces through a
caller's write function, so a document made of many pieces (verify's,
one per unit of its suites) is never held as one string.
reports_to_json is that writer collecting into a string.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Callable, Iterable, Mapping

__all__ = ["VerificationReport", "report_geq", "report_leq", "summarize", "reports_to_json",
           "report_records", "write_reports_json"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a single inequality check.

    lhs/rhs are quoted as in the checked statement ``lhs >= rhs`` after
    sign normalization; margin = lhs - rhs except in the infinite corner
    cases described in the module docstring.  params values are JSON
    scalars: str, int, float, bool or None.
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


def _float(x: float) -> str:
    """x as json.dumps writes it, or its quoted repr when x is not finite."""
    r = float.__repr__(x)
    return r if math.isfinite(x) else f'"{r}"'


def _scalar(v: Any) -> str:
    """A params value or seed as json.dumps writes it, floats as _float does."""
    if isinstance(v, float):
        return _float(v)
    if isinstance(v, str):
        return _string(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"report value {v!r} is not a JSON scalar")


def _report_json(r: VerificationReport) -> str:
    """One report, laid out as an item of json.dumps(indent=2)'s report list."""
    if r.params:
        items = ",\n".join([f"        {_string(k)}: {_scalar(r.params[k])}"
                            for k in sorted(r.params)])
        params = f"{{\n{items}\n      }}"
    else:
        params = "{}"
    return (f'    {{\n      "name": {_string(r.name)},\n'
            f'      "lhs": {_float(r.lhs)},\n      "rhs": {_float(r.rhs)},\n'
            f'      "margin": {_float(r.margin)},\n'
            f'      "tolerance": {_float(r.tolerance)},\n'
            f'      "pass": {"true" if r.passed else "false"},\n'
            f'      "params": {params},\n      "seed": {_scalar(r.seed)},\n'
            f'      "status": {_string(r.status)}\n    }}')


def report_records(reports: list[VerificationReport]) -> str:
    """The reports' records, ",\n"-joined as they stand in the report list."""
    return ",\n".join(map(_report_json, reports))


def write_reports_json(write: Callable[[str], object], records: Iterable[str],
                       summary: Mapping[str, int],
                       extra: Mapping[str, Any] | None = None) -> None:
    """Write the JSON document of a report list piece by piece through write.

    records are report_records of consecutive runs of the list, in order
    (an empty one adds nothing), and summary is summarize() of the whole
    list.  The summary and the caller's extra keys (sorted) follow the
    report list, encoded by json.dumps(indent=2).  extra may not name
    "reports" or "summary", nor hold a non-finite float (ValueError, raised
    before anything is written).
    """
    extra = extra or {}
    if "reports" in extra or "summary" in extra:
        raise ValueError("extra may not replace the reports or their summary")
    # the tail object's "{\n" is the document's own
    tail = json.dumps({"summary": dict(summary), **{k: extra[k] for k in sorted(extra)}},
                      indent=2, allow_nan=False)[2:]
    write('{\n  "reports": [')
    sep = "\n"
    for chunk in records:
        if chunk:
            write(sep)
            write(chunk)
            sep = ",\n"
    write("],\n" if sep == "\n" else "\n  ],\n")
    write(tail)


def reports_to_json(reports: list[VerificationReport],
                    extra: Mapping[str, Any] | None = None) -> str:
    """Deterministic JSON for a report list (same input, same bytes), as
    write_reports_json writes it."""
    parts: list[str] = []
    write_reports_json(parts.append, [report_records(reports)], summarize(reports), extra)
    return "".join(parts)
