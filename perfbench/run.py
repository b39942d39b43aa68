"""Benchmark of the renyi-rearrange CLI.

Drives ``renyi_rearrange.cli.main([...])`` in this process, one call after
another (a closed loop with one caller), on one of the workloads in
``workloads.py``, and checks every call's output.  Run from the root of a
checkout::

    python3 perfbench/run.py --workload verify-acceptance --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
wall time of a pass, scaled to a reference machine speed (see
REF_KERNEL_S), the set-up time of a fresh interpreter, the peak allocation
of a pass (measured in a pass of its own under tracemalloc), and the share
of CLI calls that did not fail.  ``--trace 1`` alternates
plain and traced passes and reports the per-layer metrics from the spans
of the traced ones (see spans.py) plus the tracing overhead.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# one thread per numerical library, set before numpy loads: the load is a
# single caller, and library thread pools would only contend with it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy
import scipy
from scipy.integrate import IntegrationWarning
from scipy.signal import fftconvolve

from spans import SpanRecorder
from workloads import Failed, Outcome, Wrong, operations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 5

# On a shared host the CPU speed one process sees swings by tens of percent
# within seconds as other tenants load the machine, so a raw time says as
# much about the neighbours as about the program.  Every pass and every
# set-up is bracketed by timings of a fixed reference kernel, each lasting
# PROBE_SHARE of the previous call, and wall_s and setup_s scale each time
# by REF_KERNEL_S over the kernel's mean time around it.  They are seconds
# at the speed at which the kernel takes REF_KERNEL_S, its median time on
# the 2-core box (Python 3.11, numpy 2.4) the benchmark was defined on.
# The raw times are in the info line.
REF_KERNEL_S = 2.0e-3
PROBE_SHARE = 0.15
SETUP_HINT_S = 1.5  # about one set-up's time


class Reference:
    """A fixed numpy and Python kernel whose time stands for machine speed."""

    def __init__(self) -> None:
        rng = numpy.random.default_rng(0)
        self.short = rng.random((2, 2048))
        self.long = rng.random(8192)
        self.unsorted = rng.random(16384)
        self.floats = rng.random(2000).tolist()

    def _kernel(self) -> None:
        # the kinds of work the package's time goes to: direct and FFT
        # convolution, sorting, and interpreted loops over floats
        numpy.convolve(self.short[0], self.short[1])
        fftconvolve(self.long, self.long)
        numpy.sort(self.unsorted)
        sum(math.log(x) for x in self.floats)
        sorted(self.floats)

    def time(self, seconds: float) -> float:
        """Mean time of one kernel run, over runs lasting at least ``seconds``."""
        n, t0 = 0, time.perf_counter()
        while n == 0 or time.perf_counter() - t0 < seconds:
            self._kernel()
            n += 1
        return (time.perf_counter() - t0) / n


def _import_package():
    """Import the CLI from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import renyi_rearrange.cli as cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import renyi_rearrange from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: renyi_rearrange imported from {cli.__file__}, not {SRC}")
    return cli


def _time_setup(workload: str, seed: int, workdir: str) -> float:
    """Wall time of a fresh interpreter importing the CLI and writing the inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(Path(__file__).with_name("workloads.py")),
           workload, str(seed), workdir]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


class Runner:
    """Runs passes of a workload and keeps the tally of calls and checks."""

    def __init__(self, cli, ops) -> None:
        self.cli = cli
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter[str] = Counter()
        self.first_digests: list[str] | None = None
        self.quad_warnings = 0

    def _call(self, op):
        stdout = io.StringIO()
        error = None
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                # looked up on each call, so a traced pass reaches the wrapper
                rc = self.cli.main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed call; the run goes on
                rc, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        self.quad_warnings += sum(issubclass(w.category, IntegrationWarning)
                                  for w in caught)
        written = None
        if op.output_path is not None and os.path.exists(op.output_path):
            written = Path(op.output_path).read_bytes()
            os.remove(op.output_path)
        return elapsed, Outcome(rc, stdout.getvalue(), written, error)

    def run_pass(self) -> float:
        """One pass over the workload's calls; returns its wall time.
        Outputs are checked after the clock stops."""
        timed = [self._call(op) for op in self.ops]
        digests = []
        for op, (_, out) in zip(self.ops, timed):
            digest = hashlib.sha256(repr((out.rc, out.stdout, out.written)).encode()).hexdigest()
            digests.append(digest)
            self.attempted += 1
            try:
                if out.error is not None:
                    raise Failed(out.error)
                try:
                    op.check(out)
                except (ValueError, IndexError, KeyError) as exc:
                    raise Wrong(f"unreadable output: {exc!r}") from exc
                if self.first_digests is not None and digest != self.first_digests[len(digests) - 1]:
                    raise Wrong("output differs from the first pass with the same seed")
            except Failed as exc:
                self.failed += 1
                self.reasons[f"{op.label}: failed: {exc}"] += 1
            except Wrong as exc:
                self.failed += 1
                if out.rc != 0:
                    self.reasons[f"{op.label}: failed: exit {out.rc}: {exc}"] += 1
                else:
                    self.wrong += 1
                    self.reasons[f"{op.label}: WRONG: {exc}"] += 1
        if self.first_digests is None:
            self.first_digests = digests
        return sum(elapsed for elapsed, _ in timed)


def _bracketed(ref: Reference, step, more, hint: float) -> dict[str, list[float]]:
    """Call ``step`` while ``more(calls so far)`` holds, timing the reference
    kernel before the first call and after each, so that every call has a
    reference timing just before and just after it.  ``hint`` is about as
    long as one call.  Returns the calls' times scaled to REF_KERNEL_S, and
    the raw times and reference timings behind them."""
    raw, refs = [], [ref.time(PROBE_SHARE * hint)]
    while more(len(raw)):
        raw.append(step())
        refs.append(ref.time(PROBE_SHARE * raw[-1]))
    scaled = [t * 2.0 * REF_KERNEL_S / (r0 + r1) for t, r0, r1 in zip(raw, refs, refs[1:])]
    return {"scaled": scaled, "raw": raw, "ref_kernel": refs}


def _measure(runner: Runner, ref: Reference, seconds: float,
             setup: dict[str, list[float]]) -> tuple[dict, dict]:
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    peak_pass = runner.run_pass()
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()

    deadline = time.perf_counter() + seconds
    passes = _bracketed(ref, runner.run_pass,
                        lambda n: n == 0 or time.perf_counter() < deadline, peak_pass)
    metrics = {
        "wall_s": statistics.median(passes["scaled"]),
        "setup_s": statistics.median(setup["scaled"]),
        "peak_mb": peak / 1e6,
        "ok_share": 1.0 - runner.failed / runner.attempted,
    }
    samples = {f"{name}.{key}": values for name, timed in (("pass", passes), ("setup", setup))
               for key, values in timed.items()}
    return metrics, samples


def _measure_traced(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    runner.run_pass()  # warm-up, and the outputs later passes must repeat
    plain, traced, summaries, warns = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(runner.run_pass())
        recorder = SpanRecorder()
        before = runner.quad_warnings
        with recorder.installed():
            traced.append(runner.run_pass())
        warns.append(runner.quad_warnings - before)
        summaries.append(recorder.summary())
    recorder.write(str(spans_path))
    # median_low: a value one traced pass measured, so counts stay whole
    metrics = {key: statistics.median_low(s[key] for s in summaries) for key in summaries[0]}
    metrics["balls.quad_warnings"] = statistics.median_low(warns)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, {"plain_wall_s": plain, "traced_wall_s": traced}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = _import_package()

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        def setup() -> float:
            return _time_setup(args.workload, args.seed, workdir)

        runner = Runner(cli, operations(args.workload, args.seed, workdir))
        if args.trace:
            setup()
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            values, samples = _measure_traced(runner, args.seconds, spans_path)
            wanted = spec["per_layer"]
        else:
            ref = Reference()
            setups = _bracketed(ref, setup, lambda n: n < SETUP_REPS, SETUP_HINT_S)
            values, samples = _measure(runner, ref, args.seconds, setups)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "passes": {k: len(v) for k, v in samples.items()},
        "samples": {k: [float(f"{x:.6g}") for x in v] for k, v in samples.items()},
        "failures": dict(runner.reasons),
    }
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
