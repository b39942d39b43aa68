"""The benchmark's workloads: inputs made from the seed, the CLI calls of
one pass, and the check each call's output must pass.

Run as a script, this module is the set-up that ``setup_s`` times: a
fresh interpreter imports ``renyi_rearrange.cli`` and writes the
workload's input files::

    PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD SEED WORKDIR
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable

# C_{2,1} in closed (radical) form, as in the package's acceptance tests
C_21_EXACT = 166753125.0 / (
    16.0 * (573635.0 * math.sqrt(2.5) / 2.0 - 142365.0 * math.sqrt(10.0)) ** 2)
C_21_TOL = 5e-4

# checks made by one verify --suite all call; they do not depend on the seed
VERIFY_ALL_CHECKS = 3286

LEVY_ORDERS = "0,0.5,1,2,inf"
JUMP_KIND = "uniform-mixture"
JUMP_CELLS = 512
EPIGAP_MAX_DIM = 4096


@dataclass
class Outcome:
    """What one CLI call returned: exit code (None when it raised),
    captured stdout, the bytes of the file it wrote, and any exception."""

    rc: int | None
    stdout: str
    written: bytes | None = None
    error: str | None = None


class Failed(Exception):
    """The program reported a failure: a fail or inconclusive report, or a
    non-zero exit."""


class Wrong(Exception):
    """The program reported success, but its output is not correct."""


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: Callable[[Outcome], None]
    output_path: str | None = None


def _jump_csv(workdir: str) -> str:
    return os.path.join(workdir, "jumps.csv")


def prepare(workload: str, seed: int, workdir: str) -> None:
    """Write the workload's input files into workdir."""
    if workload == "analytic":
        from renyi_rearrange.grids import (
            DensityGeneratorSpec, random_density, write_density_csv)
        jump = random_density(DensityGeneratorSpec(kind=JUMP_KIND, seed=seed, cells=JUMP_CELLS))
        write_density_csv(jump, _jump_csv(workdir))


def _require_exit_zero(out: Outcome) -> None:
    if out.rc != 0:
        raise Failed(f"exit {out.rc}")


def _check_verify_all(out: Outcome) -> None:
    expected = VERIFY_ALL_CHECKS
    m = re.search(r"checks=(\d+) passed=(\d+) failed=(\d+) inconclusive=(\d+)", out.stdout)
    if m is None:
        raise Wrong("no summary line")
    total, passed, failed, inconclusive = map(int, m.groups())
    if failed or inconclusive:
        raise Failed(f"{failed} fail and {inconclusive} inconclusive reports")
    _require_exit_zero(out)
    if total != expected or passed != total:
        raise Wrong(f"{passed}/{total} checks passed, expected {expected}")
    if out.written is None:
        raise Wrong("no JSON file written")
    payload = json.loads(out.written)
    if payload["summary"] != {"total": expected, "passed": expected,
                              "failed": 0, "inconclusive": 0}:
        raise Wrong(f"JSON summary {payload['summary']}")
    if len(payload["reports"]) != expected:
        raise Wrong(f"JSON holds {len(payload['reports'])} reports")


def _check_constant(out: Outcome) -> None:
    _require_exit_zero(out)
    payload = json.loads(out.stdout)
    value = payload["c_constant"]
    if not abs(value - C_21_EXACT) <= C_21_TOL:
        raise Wrong(f"C_2,1 = {value!r}, closed form {C_21_EXACT!r}")
    if not abs(payload["coarse_value"] - C_21_EXACT) <= C_21_TOL:
        raise Wrong(f"coarse C_2,1 = {payload['coarse_value']!r}")


def _check_landscape(steps: int) -> Callable[[Outcome], None]:
    def check(out: Outcome) -> None:
        _require_exit_zero(out)
        lines = out.stdout.splitlines()
        if lines[0] != "a1,a2,ratio" or len(lines) != 1 + steps * steps:
            raise Wrong(f"{len(lines)} landscape lines")
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        for a1, a2, ratio in rows:
            # scaling both summands leaves the ratio at C_{2,1}; the
            # conjecture puts every other scale pair above it
            if a1 == a2 and not abs(ratio - C_21_EXACT) <= C_21_TOL:
                raise Wrong(f"diagonal ratio {ratio!r} at a={a1}")
            if not ratio >= C_21_EXACT - C_21_TOL:
                raise Wrong(f"ratio {ratio!r} below C_2,1 at ({a1}, {a2})")
    return check


def _check_levy(out: Outcome) -> None:
    n_orders = len(LEVY_ORDERS.split(","))
    reports = [line for line in out.stdout.splitlines() if "levy_dominance[" in line]
    if any(not line.startswith("ok") for line in reports):
        raise Failed("a dominance report failed")
    _require_exit_zero(out)
    if len(reports) != n_orders or f"passed={n_orders}/{n_orders}" not in out.stdout:
        raise Wrong(f"{len(reports)} dominance reports, expected {n_orders}")


def _check_epigap(out: Outcome) -> None:
    rows = [line.split() for line in out.stdout.splitlines()[1:-1]]
    dims = [int(r[0]) for r in rows]
    if dims != [2 ** k for k in range(1, EPIGAP_MAX_DIM.bit_length())]:
        raise Wrong(f"dims {dims}")
    if any(r[4] != "true" for r in rows):
        raise Failed(f"gap check false at dim {[int(r[0]) for r in rows if r[4] != 'true']}")
    _require_exit_zero(out)
    # the entropy-power gap is nonnegative in every dimension
    for r in rows:
        if not float(r[1]) >= 0.0:
            raise Wrong(f"gap {r[1]} at dim {r[0]}")


def operations(workload: str, seed: int, workdir: str) -> list[Op]:
    """The CLI calls of one pass, in order."""
    s = str(seed)
    if workload == "verify-acceptance":
        path = os.path.join(workdir, "verify-all.json")
        return [Op("verify-all",
                   ("verify", "--suite", "all", "--seed", s, "--count", "200",
                    "--cells", "2048", "--json", path),
                   _check_verify_all, output_path=path)]
    if workload == "analytic":
        return [
            Op("conjecture", ("conjecture", "--p", "2"), _check_constant),
            Op("landscape", ("conjecture", "--p", "2", "--landscape", "0.5:2.0:9"),
               _check_landscape(9)),
            Op("levy", ("levy", "--a", "1", "--lambda", "30", "--t", "1",
                        "--jumps", _jump_csv(workdir), "--orders", LEVY_ORDERS),
               _check_levy),
            Op("epigap", ("epigap", "--max-dim", str(EPIGAP_MAX_DIM), "--lambda", "0.5"),
               _check_epigap),
        ]
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    import renyi_rearrange.cli  # noqa: F401  (the import every CLI call pays)

    prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3])
