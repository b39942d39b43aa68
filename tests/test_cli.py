import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import renyi_rearrange
import renyi_rearrange.cli as cli
from renyi_rearrange import (
    DensityGeneratorSpec,
    Grid1D,
    is_symmetric_decreasing,
    random_density,
    read_density_csv,
    report_geq,
    uniform_interval,
    write_density_csv,
)
from renyi_rearrange.reports import report_records
from simd import pin


@pytest.fixture
def uniform_csv(tmp_path):
    path = tmp_path / "uniform.csv"
    write_density_csv(uniform_interval(-1.0, 1.0, cells=64), str(path))
    return str(path)


@pytest.fixture
def skewed_csv(tmp_path):
    vals = np.arange(1.0, 65.0)
    dx = 2.0 / 64.0
    grid = Grid1D(-1.0, dx, vals / (vals.sum() * dx))
    path = tmp_path / "skewed.csv"
    write_density_csv(grid, str(path))
    return str(path)


class TestEntropyCommand:
    def test_uniform_order_two(self, uniform_csv, capsys):
        rc = cli.main(["entropy", "--density", uniform_csv, "--order", "p=2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == "2.0"
        assert payload["entropy"] == pytest.approx(math.log(2.0), abs=1e-12)
        assert payload["entropy_power"] == pytest.approx(4.0, rel=1e-12)
        assert payload["cells"] == 64
        assert payload["mass"] == pytest.approx(1.0, abs=1e-12)

    def test_tolerance_note_is_the_same_for_every_order(self, skewed_csv, capsys):
        notes = set()
        for token in ("0", "0.5", "0.99999", "1", "1.000001", "2", "inf"):
            assert cli.main(["entropy", "--density", skewed_csv, "--order", token]) == 0
            notes.add(json.loads(capsys.readouterr().out)["tolerance_note"])
        assert notes == {"exact finite sum for a step density"}

    def test_sup_order_token(self, uniform_csv, capsys):
        rc = cli.main(["entropy", "--density", uniform_csv, "--order", "inf"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == "inf"
        assert payload["entropy"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["entropy", "--density", str(tmp_path / "nope.csv"),
                       "--order", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_order_is_usage_error(self, uniform_csv, capsys):
        for token in ("p=-3", "abc"):
            rc = cli.main(["entropy", "--density", uniform_csv, "--order", token])
            assert rc == 2
            assert "error:" in capsys.readouterr().err

    def test_minus_infinity_order_is_usage_error(self, uniform_csv, capsys):
        # -inf is no Renyi order; it must not be read as +inf
        rc = cli.main(["entropy", "--density", uniform_csv, "--order=-inf"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_malformed_csv_row_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,f\n0.0,1.0\nabc,1\n1.0,1.0\n")
        rc = cli.main(["entropy", "--density", str(path), "--order", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1

    def test_entropy_power_below_normal_floats_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "narrow.csv"
        write_density_csv(Grid1D(0.0, 1e-200, np.array([5e199, 5e199])), str(path))
        rc = cli.main(["entropy", "--density", str(path), "--order", "2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


class TestParserErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_suite_choice(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_parser_is_built_once_and_outlives_a_usage_error(self, skewed_csv, capsys):
        assert cli._parser() is cli._parser()
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        argv = ["entropy", "--density", skewed_csv, "--order", "0.5"]
        assert cli.main(argv) == 0
        fresh = subprocess.run([sys.executable, "-m", "renyi_rearrange.cli", *argv],
                               env=_fresh_env(), capture_output=True, text=True,
                               check=True).stdout
        assert capsys.readouterr().out == fresh


class TestRearrangeCommand:
    def test_writes_symmetric_decreasing_csv(self, skewed_csv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = cli.main(["rearrange", "--density", skewed_csv, "--out", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        g = read_density_csv(str(out))
        assert g.n_cells == 128
        assert g.dx == pytest.approx((2.0 / 64.0) / 2.0)
        assert is_symmetric_decreasing(g)
        assert g.mass == pytest.approx(1.0, abs=1e-12)


class TestBallsumCommand:
    def test_entropy_only_prints_bare_float(self, capsys):
        rc = cli.main(["ballsum", "--dim", "1", "--r1", "1", "--r2", "1",
                       "--entropy-only"])
        assert rc == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(math.log(2.0) + 0.5, abs=1e-9)

    def test_full_payload(self, capsys):
        rc = cli.main(["ballsum", "--dim", "2", "--r1", "1", "--r2", "0.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim"] == 2
        assert payload["support_radius"] == pytest.approx(1.5)
        assert payload["density_at_origin"] > 0.0
        assert payload["log_density_at_origin"] == pytest.approx(
            math.log(payload["density_at_origin"]), rel=1e-13)
        assert payload["log_density_at_breakpoint"] == pytest.approx(
            math.log(payload["density_at_breakpoint"]), rel=1e-13)
        assert math.isfinite(payload["entropy"])

    def test_bad_radius_is_usage_error(self, capsys):
        rc = cli.main(["ballsum", "--dim", "1", "--r1", "-1", "--r2", "1"])
        assert rc == 2

    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_non_finite_radius_is_usage_error(self, radius, capsys):
        rc = cli.main(["ballsum", "--dim", "3", "--r1", radius, "--r2", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1

    def test_high_dimension_prints_log_densities(self, capsys):
        # the density at the origin is exp(874.206) in dimension 512, beyond
        # the float range: only its log is printed, and the command succeeds
        rc = cli.main(["ballsum", "--dim", "512", "--r1", "1", "--r2", "0.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "density_at_origin" not in payload
        assert "density_at_breakpoint" not in payload
        assert payload["log_density_at_origin"] == pytest.approx(874.2064, abs=1e-4)
        assert payload["log_density_at_breakpoint"] == payload["log_density_at_origin"]
        assert payload["entropy"] == pytest.approx(-814.6148, abs=1e-4)


class TestConjectureCommand:
    def test_point_payload(self, capsys):
        rc = cli.main(["conjecture", "--p", "2.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "upper-bound"
        assert payload["c_constant"] == pytest.approx(0.956668, abs=5e-4)
        assert payload["resolution_agreement"] < 2e-4
        assert payload["coarse_value"] == pytest.approx(payload["c_constant"],
                                                        abs=2e-4)

    def test_landscape_csv(self, capsys):
        rc = cli.main(["conjecture", "--p", "2.0", "--landscape", "0.8:1.2:2"])
        assert rc == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "a1,a2,ratio"
        assert len(lines) == 1 + 4
        ratios = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(0.9 < r <= 1.01 for r in ratios)
        assert "argmin" in captured.err

    def test_landscape_argmin_is_first_of_the_ties(self, capsys):
        # the nine diagonal points share the float of scale ratio 1, C_{2,1}
        # on the landscape's grid; the nearest other point is 7e-4 above it
        rc = cli.main(["conjecture", "--p", "2.0", "--landscape", "0.5:2.0:9"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "at (a1,a2)=(0.5,0.5), first in grid order of 9 points at the minimum" in err

    def test_bad_landscape_spec(self, capsys):
        rc = cli.main(["conjecture", "--p", "2.0", "--landscape", "1:2"])
        assert rc == 2

    @pytest.mark.parametrize("spec", ["1e200:2e200:2", "1e-200:2e-200:2"])
    def test_landscape_entropy_power_past_the_float_range(self, spec, capsys):
        # the factors' entropy powers leave the float range, but the ratio
        # reads only the scale ratio: the unscaled grid's ratios, bit for bit
        def ratios(landscape):
            assert cli.main(["conjecture", "--p", "2.0", "--landscape", landscape]) == 0
            lines = capsys.readouterr().out.splitlines()[1:]
            return [line.rsplit(",", 1)[1] for line in lines]

        assert ratios(spec) == ratios("1:2:2")

    def test_landscape_scale_ratio_past_the_cell_bound(self, capsys, monkeypatch):
        def no_resample(*args):
            raise AssertionError("resample ran for a refused pair")

        monkeypatch.setattr(renyi_rearrange.conjecture, "resample", no_resample)
        rc = cli.main(["conjecture", "--p", "2.0", "--landscape", "1e-6:1:3"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "would resample onto 1024001024 cells" in err[0]

    def test_infinite_landscape_bound(self, capsys):
        rc = cli.main(["conjecture", "--p", "2.0", "--landscape", "0.5:inf:3"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: landscape needs 0 < a1min < a1max < inf and steps >= 2\n")

    def test_nan_order_is_usage_error(self, capsys):
        rc = cli.main(["conjecture", "--p", "nan"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: beta_p needs p > n/(n+2)")


class TestVerifyCommand:
    def test_json_output_is_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            rc = cli.main(["verify", "--suite", "divergence", "--seed", "9",
                           "--count", "8", "--cells", "256", "--json", str(path)])
            assert rc == 0
        first, second = (path.read_bytes() for path in paths)
        assert first == second
        payload = json.loads(first)
        assert payload["summary"]["failed"] == 0
        assert payload["config"]["seed"] == 9
        out = capsys.readouterr().out
        assert "failed=0" in out

    def test_failing_report_exits_one(self, monkeypatch, capsys):
        forced = [report_geq("forced", 0.0, 1.0, 0.0)]
        monkeypatch.setattr(cli, "run_suite_rendered",
                            lambda config: [(forced, report_records(forced))])
        rc = cli.main(["verify", "--suite", "main", "--count", "1"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL forced" in out
        assert "failed=1" in out

    def test_negative_seed_is_usage_error(self, capsys):
        # it raised numpy's ValueError inside a unit and exited 1, the code
        # of a failed check
        rc = cli.main(["verify", "--seed", "-1", "--count", "2", "--cells", "64"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


class TestVerifyBytes:
    """The sha256 of the JSON document of a small verify run, which holds
    the lhs, rhs and tolerance of a report of every family.

    The bits depend on the SIMD kernels numpy dispatches to, so the
    digest is pinned for numpy 2.4 at each x86-64 level, recorded by
    limiting numpy with NPY_DISABLE_CPU_FEATURES (tests/simd.py), and the
    test is skipped elsewhere.
    """

    PINS = {
        ("X86_V4",): "8f24da7312ade921340360367d494a475159848b0b003b2e5fe429bc3e66184d",
        ("X86_V3",): "a86c7d6f048b2933a63f4c710f0b387ef1c84eae4efbadc5177b02c36da00a10",
        ("X86_V2",): "d44956ce64fab64f41e44f40146e5c9d38f6f013e89091501380473c9caa9d93",
    }

    def test_document_digest(self, tmp_path):
        digest = pin(self.PINS)
        path = tmp_path / "verify.json"
        rc = cli.main(["verify", "--suite", "all", "--seed", "0", "--count", "8",
                       "--cells", "256", "--json", str(path)])
        assert rc == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestLevyCommand:
    def test_dominance_all_orders(self, uniform_csv, tmp_path, capsys):
        jump = tmp_path / "jump.csv"
        vals = np.ones(64)
        dx = 1.0 / 64.0
        write_density_csv(Grid1D(0.0, dx, vals / (vals.sum() * dx)), str(jump))
        rc = cli.main(["levy", "--a", "1.0", "--lambda", "0.5", "--t", "1.0",
                       "--jumps", str(jump), "--orders", "0.5,1,2,inf"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "passed=4/4" in out

    def test_failing_report_exits_one(self, uniform_csv, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "check_levy_dominance",
            lambda spec, orders: [report_geq("forced", 0.0, 1.0, 0.0)])
        rc = cli.main(["levy", "--a", "1.0", "--lambda", "0.5", "--t", "1.0",
                       "--jumps", uniform_csv, "--orders", "1"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


    @pytest.mark.parametrize("flag, value", [("--t", "inf"), ("--lambda", "nan"),
                                             ("--lambda", "inf"), ("--a", "inf")])
    def test_non_finite_parameter_is_usage_error(self, uniform_csv, flag, value, capsys):
        params = {"--a": "1.0", "--lambda": "0.5", "--t": "1.0", flag: value}
        rc = cli.main(["levy", *(tok for item in params.items() for tok in item),
                       "--jumps", uniform_csv, "--orders", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1

    def test_rate_past_the_term_cap_is_usage_error(self, uniform_csv, capsys):
        # lambda t = 1e12 needs ~1e12 Poisson terms; it was once refused
        # only after 11.8 s of summing a tail that read "still 0.999"
        rc = cli.main(["levy", "--a", "1", "--lambda", "1e12", "--t", "1",
                       "--jumps", uniform_csv, "--orders", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert "k=200" in captured.err and "lambda*t=1e+12" in captured.err
        assert "no k up to it bounds the Poisson tail below SERIES_TOL = 1e-08" in captured.err

    @pytest.mark.parametrize("a, rate, t", [("1e300", "1", "1"), ("1e200", "0", "1e200")])
    def test_diffusion_too_wide_is_usage_error(self, tmp_path, a, rate, t, capsys):
        # a Gaussian window of 8 sqrt(a t) each side asked numpy for more
        # cells than it can index, and sqrt(a t) = inf took the ceiling of NaN
        jump = tmp_path / "jump.csv"
        write_density_csv(random_density(DensityGeneratorSpec(
            kind="uniform-mixture", seed=0, cells=512)), str(jump))
        rc = cli.main(["levy", "--a", a, "--lambda", rate, "--t", t,
                       "--jumps", str(jump), "--orders", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("t", ["1e-200", "1e-5"])
    def test_unresolved_diffusion_is_usage_error(self, tmp_path, t, capsys):
        # 8 sqrt(t) is at most 1.6 cells of the jump law's spacing: it once
        # printed h_1(X_t) = -4.158883 at t = 1e-200, for a law near -228.84
        jump = tmp_path / "jump.csv"
        write_density_csv(random_density(DensityGeneratorSpec(
            kind="uniform-mixture", seed=977, cells=512)), str(jump))
        rc = cli.main(["levy", "--a", "1", "--lambda", "1", "--t", t,
                       "--jumps", str(jump), "--orders", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert "cannot resolve the diffusion" in captured.err

    def test_underflowing_mean_prints_the_zero_rate(self, tmp_path, capsys):
        # lambda t = 1e-200 * 1e-200 underflows to 0: no jumps, so levy
        # prints the rate-0 lines.  An empty series summed on the jump law's
        # grid reads h_1(X_t) = -4.158883 and h_1(Z_t) = -4.852030
        jump = tmp_path / "jump.csv"
        write_density_csv(random_density(DensityGeneratorSpec(
            kind="uniform-mixture", seed=977, cells=512)), str(jump))
        outs = []
        for rate in ("1e-200", "0"):
            rc = cli.main(["levy", "--a", "1", "--lambda", rate, "--t", "1e-200",
                           "--jumps", str(jump), "--orders", "0,0.5,1,2,inf"])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "h_p(X_t)=-228.839571 h_p(Z_t)=-228.839571 margin=0.00e+00" in outs[0]

    def test_no_orders_is_usage_error(self, uniform_csv, capsys):
        rc = cli.main(["levy", "--a", "1.0", "--lambda", "0.5", "--t", "1.0",
                       "--jumps", uniform_csv, "--orders", ","])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


class TestEpigapCommand:
    def test_doubling_dims_pass(self, capsys):
        rc = cli.main(["epigap", "--max-dim", "16"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [ln.split() for ln in lines[1:] if ln and ln.split()[0].isdigit()]
        assert [int(r[0]) for r in rows] == [2, 4, 8, 16]
        assert all(r[-1] == "true" for r in rows)

    def test_high_dimensions_pass(self, capsys):
        rc = cli.main(["epigap", "--max-dim", "4096", "--lambda", "0.5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [ln.split() for ln in lines[1:] if ln and ln.split()[0].isdigit()]
        assert [int(r[0]) for r in rows] == [2 ** k for k in range(1, 13)]
        assert all(float(r[1]) >= 0.0 and r[-1] == "true" for r in rows)

    def test_min_dim_guard(self, capsys):
        rc = cli.main(["epigap", "--max-dim", "1"])
        assert rc == 2

    def test_wrong_gap_fails_the_increment_check(self, capsys, monkeypatch):
        # 0.713917 is the gap an inaccurate cap integral once printed at dim
        # 512 (the true gap is 2.598); it passes every check but the step one
        real = cli.epi_gap_balls

        def wrong_at_512(dims, lam):
            return [0.713917 if m == 512 else gap for m, gap in zip(dims, real(dims, lam))]

        monkeypatch.setattr(cli, "epi_gap_balls", wrong_at_512)
        rc = cli.main(["epigap", "--max-dim", "512", "--lambda", "0.5"])
        lines = capsys.readouterr().out.strip().splitlines()
        rows = {int(r[0]): r for r in (ln.split() for ln in lines[1:-1])}
        assert rows[512][1:] == ["0.713917", "0.001394", "0.036553", "false"]
        assert all(r[-1] == "true" for m, r in rows.items() if m < 512)
        assert rc == 1


# one CPU, so that the whole of a verify run happens in this interpreter,
# none of it in a forked worker whose imports it would not see
_LOADED = """
import contextlib, io, json, os, sys
os.sched_getaffinity = lambda pid: {0}
import renyi_rearrange.cli as cli
if sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(sys.argv[2:])
    assert rc == 0, rc
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == sys.argv[1])))
"""


def _fresh_env():
    """The environment of a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(renyi_rearrange.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def _modules_after(package, argv):
    """The modules of `package` a fresh interpreter holds after running argv."""
    out = subprocess.run([sys.executable, "-c", _LOADED, package, *argv], env=_fresh_env(),
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _scipy_modules_after(argv):
    return _modules_after("scipy", argv)


class TestStartup:
    """The CLI starts on numpy alone; scipy is loaded only for incomplete Beta
    functions, no command loads scipy.integrate, and nothing loads
    multiprocessing (verify forks its workers with os.fork)."""

    @pytest.mark.parametrize("argv", [
        [],
        ["verify", "--suite", "all", "--count", "5", "--cells", "256"],
        ["conjecture", "--p", "2"],
    ])
    def test_loads_no_scipy(self, argv):
        assert _scipy_modules_after(argv) == []

    def test_levy_loads_no_scipy(self, tmp_path):
        jump = tmp_path / "jump.csv"
        write_density_csv(uniform_interval(0.0, 1.0, cells=64), str(jump))
        argv = ["levy", "--a", "1.0", "--lambda", "3", "--t", "1.0",
                "--jumps", str(jump), "--orders", "0,1,inf"]
        assert _scipy_modules_after(argv) == []

    @pytest.mark.parametrize("argv", [
        ["epigap", "--max-dim", "8"],
        ["ballsum", "--dim", "3", "--r1", "1", "--r2", "0.5"],
    ])
    def test_ball_sums_load_no_scipy_integrate(self, argv):
        loaded = _scipy_modules_after(argv)
        assert "scipy.special" in loaded
        assert not any(m.startswith("scipy.integrate") for m in loaded)

    def test_import_loads_no_multiprocessing(self):
        assert _modules_after("multiprocessing", []) == []
        argv = ["verify", "--suite", "all", "--count", "5", "--cells", "256"]
        assert _modules_after("multiprocessing", argv) == []

    def test_heavy_tailed_maximizer_loads_no_scipy_integrate(self):
        # its normalizer and tail mass are closed-form Beta functions
        loaded = _scipy_modules_after(["conjecture", "--p", "0.8"])
        assert "scipy.special" in loaded
        assert not any(m.startswith("scipy.integrate") for m in loaded)
