import collections
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from renyi_rearrange import (
    DensityGeneratorSpec,
    GENERATOR_KINDS,
    Grid1D,
    Group,
    NegativeValue,
    NonPositiveSpacing,
    BadParameter,
    EmptyGrid,
    ZeroMass,
    gaussian_on_grid,
    is_symmetric_decreasing,
    make_grid,
    moment,
    normalize,
    random_density,
    read_density_csv,
    refine,
    variance,
    write_density_csv,
)
from renyi_rearrange import entropy, verifier
from renyi_rearrange.convolve import (convolve, convolve_k, convolve_series, project_onto,
                                      resample, scale_density)
from renyi_rearrange.entropy import mixture_entropy_bound_check
from renyi_rearrange.grids import HALFWIDTH, _run_within, half_cell_offset
from renyi_rearrange.levy import _snap
from renyi_rearrange.rearrange import rearrange_1d
from renyi_rearrange.verifier import SuiteConfig


class TestGrid1D:
    def test_basic_properties(self):
        f = make_grid(0.0, 0.25, [1.0, 2.0, 1.0, 0.0])
        assert f.n_cells == 4
        assert f.mass == pytest.approx(1.0)
        assert f.max_value == 2.0
        assert_allclose(f.midpoints, [0.125, 0.375, 0.625, 0.875])
        assert_allclose(f.edges, [0.0, 0.25, 0.5, 0.75, 1.0])
        # support counts only strictly positive cells
        assert f.support_measure == pytest.approx(0.75)

    def test_values_are_read_only(self):
        f = make_grid(0.0, 1.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_validation(self):
        with pytest.raises(NonPositiveSpacing):
            make_grid(0.0, 0.0, [1.0])
        with pytest.raises(NonPositiveSpacing):
            make_grid(0.0, -0.5, [1.0])
        with pytest.raises(NegativeValue):
            make_grid(0.0, 1.0, [1.0, -0.1])
        with pytest.raises(EmptyGrid):
            make_grid(0.0, 1.0, [])

    @pytest.mark.parametrize("x0", [math.inf, -math.inf, math.nan])
    def test_origin_must_be_finite(self, x0):
        # an infinite origin put every midpoint at inf, and half_cell_offset
        # raised a bare OverflowError (ValueError for nan) from round()
        with pytest.raises(BadParameter):
            make_grid(x0, 0.1, [1.0, 2.0])
        with pytest.raises(BadParameter):
            Grid1D(x0, 0.1, np.array([1.0, 2.0]))
        with pytest.raises(BadParameter):
            Grid1D(np.float64(x0), 0.1, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("dx", [0.0, -1.0, math.inf, math.nan])
    def test_spacing_must_be_positive_and_finite(self, dx):
        # Grid1D owns the check: built directly it once took any dx, and
        # Grid1D(0, -1, [1]) had mass -1
        with pytest.raises(NonPositiveSpacing):
            Grid1D(0.0, dx, np.array([1.0]))
        with pytest.raises(NonPositiveSpacing):
            make_grid(0.0, dx, [1.0])

    @pytest.mark.parametrize("dx_new", [math.inf, math.nan, 0.0, -0.5])
    def test_resample_refuses_a_bad_spacing(self, dx_new):
        # resample(f, inf) once sized a one-cell target and returned a grid
        # with dx = inf and value nan, with a RuntimeWarning on the way; it
        # now refuses before any arithmetic on dx_new
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveSpacing):
                resample(make_grid(0.0, 0.5, [1.0, 1.0]), dx_new)

    @pytest.mark.parametrize("dx", [0.0, -0.3, math.inf, math.nan])
    def test_project_onto_refuses_a_bad_spacing(self, dx):
        # refused before any arithmetic on dx, so numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveSpacing):
                project_onto(make_grid(0.0, 0.5, [1.0, 1.0]), 0.0, dx, 4)

    def test_normalize(self):
        f = make_grid(-1.0, 0.5, [3.0, 1.0, 0.0, 4.0])
        g = normalize(f)
        assert g.mass == pytest.approx(1.0, abs=1e-15)
        assert g.x0 == f.x0 and g.dx == f.dx
        with pytest.raises(ZeroMass):
            normalize(make_grid(0.0, 1.0, [0.0, 0.0]))

    def test_refine_is_exact(self):
        f = make_grid(-1.0, 0.5, [1.0, 3.0, 2.0, 1.0])
        g = refine(f, 3)
        assert g.n_cells == 12
        assert g.dx == pytest.approx(f.dx / 3)
        assert g.x0 == f.x0
        assert np.array_equal(g.values, np.repeat(f.values, 3))
        assert g.mass == pytest.approx(f.mass, abs=1e-15)


class TestMoments:
    def test_two_block_variance(self):
        # density 1/2 on [-2,-1] and [1,2]: E X^2 = 7/3 in the continuum;
        # the midpoint rule applied to x^2 subtracts exactly dx^2/12
        dx = 0.1
        n = 40
        vals = np.zeros(n)
        vals[:10] = 0.5
        vals[30:] = 0.5
        f = make_grid(-2.0, dx, vals)
        assert f.mass == pytest.approx(1.0, abs=1e-14)
        expected = 7.0 / 3.0 - dx * dx / 12.0
        assert variance(f) == pytest.approx(expected, abs=1e-12)
        assert moment(f, 1) == pytest.approx(0.0, abs=1e-13)

    def test_gaussian_variance(self):
        # the window cuts the right tail at 4.6 sigma, so the moments
        # carry a small truncation bias on top of the midpoint rule
        f = gaussian_on_grid(0.3, 0.8, -4.0, 8.0 / 2048, 2048)
        assert moment(f, 1) / f.mass == pytest.approx(0.3, abs=1e-4)
        assert variance(f) == pytest.approx(0.64, rel=1e-3)


class TestGenerators:
    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_normalized_and_deterministic(self, kind):
        spec = DensityGeneratorSpec(kind=kind, seed=11, cells=256)
        f = random_density(spec)
        g = random_density(spec)
        assert np.array_equal(f.values, g.values)
        assert f.mass == pytest.approx(1.0, abs=1e-12)
        assert f.n_cells == 256
        assert float(f.values.min()) >= 0.0

    def test_seeds_differ(self):
        a = random_density(DensityGeneratorSpec(kind="bimodal", seed=1, cells=128))
        b = random_density(DensityGeneratorSpec(kind="bimodal", seed=2, cells=128))
        assert not np.array_equal(a.values, b.values)

    def test_gaussian_mixture_positive_and_decayed(self):
        # strictly positive everywhere, but negligible at the window edge
        for seed in range(20):
            f = random_density(DensityGeneratorSpec(
                kind="gaussian-mixture", seed=seed, cells=512))
            assert float(f.values.min()) > 0.0
            edge = max(f.values[0], f.values[-1])
            assert edge < 1e-6 * f.max_value

    def test_bad_kind(self):
        with pytest.raises(BadParameter):
            random_density(DensityGeneratorSpec(kind="sawtooth"))

    def test_bad_cells(self):
        with pytest.raises(BadParameter):
            random_density(DensityGeneratorSpec(kind="bimodal", cells=0))

    def test_negative_seed(self):
        # numpy's SeedSequence refuses it with a bare ValueError
        with pytest.raises(BadParameter, match="seed"):
            random_density(DensityGeneratorSpec(kind="bimodal", seed=-1))


def _mask_density(spec, fallbacks):
    """random_density as it was written with a full-grid mask per component,
    kept as the reference for the run-and-slice generator; counts in
    fallbacks[kind] each component that covered no midpoint."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    hw, cells = HALFWIDTH, spec.cells
    dx = 2.0 * hw / cells
    mids = -hw + (np.arange(cells) + 0.5) * dx
    vals = np.zeros(cells)
    if spec.kind == "uniform-mixture":
        weights = rng.dirichlet(np.ones(spec.component_count))
        for w in weights:
            center = rng.uniform(-0.8 * hw, 0.8 * hw)
            width = rng.uniform(0.05 * hw, 0.6 * hw)
            inside = np.abs(mids - center) <= width / 2.0
            if not inside.any():
                fallbacks[spec.kind] += 1
                inside[rng.integers(0, cells)] = True
            vals[inside] += w / (inside.sum() * dx)
    elif spec.kind == "gaussian-mixture":
        weights = rng.dirichlet(np.ones(spec.component_count))
        for w in weights:
            mu = rng.uniform(-0.45 * hw, 0.45 * hw)
            sigma_hi = max(0.081 * hw, min(0.25 * hw, (hw - abs(mu)) / 6.5))
            sigma = rng.uniform(0.08 * hw, sigma_hi)
            vals += w * np.exp(-0.5 * ((mids - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        vals = np.maximum(vals, 1e-12 * vals.max())
    elif spec.kind == "spiky-piecewise":
        for _ in range(4 * spec.component_count):
            lo = rng.integers(0, cells)
            width = int(rng.integers(1, max(2, cells // 16)))
            hi = min(cells, lo + width)
            vals[lo:hi] += rng.pareto(1.5) + 0.1
    else:  # bimodal
        w = rng.uniform(0.3, 0.7)
        sep = rng.uniform(0.8 * hw, 1.4 * hw)
        width = rng.uniform(0.1 * hw, 0.3 * hw)
        for wt, center in ((w, -sep / 2.0), (1.0 - w, sep / 2.0)):
            inside = np.abs(mids - center) <= width / 2.0
            if not inside.any():
                fallbacks[spec.kind] += 1
                inside[np.argmin(np.abs(mids - center))] = True
            vals[inside] += wt / (inside.sum() * dx)
    return normalize(Grid1D(x0=-hw, dx=dx, values=vals))


class TestGeneratorBits:
    """random_density fills each flat component by one slice of a run of
    cells; it gives the bits of the mask-based reference above."""

    @pytest.mark.parametrize("cells", [8, 9, 64, 2048])
    def test_bit_identical_to_the_mask_reference(self, cells):
        fallbacks = collections.Counter()
        for kind in GENERATOR_KINDS:
            for seed in range(200):
                spec = DensityGeneratorSpec(kind, component_count=1 + seed % 4,
                                            seed=seed, cells=cells)
                want, got = _mask_density(spec, fallbacks), random_density(spec)
                assert (got.x0, got.dx) == (want.x0, want.dx)
                assert got.values.tobytes() == want.values.tobytes(), spec
        if cells < 16:
            # at a cell width of about 1, narrow components miss every
            # midpoint and take both one-cell fallbacks, whose draws differ
            assert fallbacks["uniform-mixture"] > 0 and fallbacks["bimodal"] > 0

    @pytest.mark.parametrize("half", [0.0, 0.25, 0.5, 0.75, 3.0])
    def test_run_is_the_mask_with_ties_at_both_ends(self, half):
        # random draws almost never put a midpoint exactly half a width
        # from a center; here d has cells at +-half, which the mask keeps
        d = np.arange(-2.0, 2.25, 0.25)
        lo, hi = _run_within(d, half)
        inside = np.flatnonzero(np.abs(d) <= half)
        assert (lo, hi) == (inside[0], inside[-1] + 1)


class TestSymmetricDecreasing:
    def test_recognizes_shapes(self):
        assert is_symmetric_decreasing(make_grid(-1.0, 0.5, [1.0, 2.0, 2.0, 1.0]))
        assert not is_symmetric_decreasing(make_grid(-1.0, 0.5, [2.0, 1.0, 1.0, 2.0]))
        assert not is_symmetric_decreasing(make_grid(0.0, 0.5, [1.0, 2.0, 2.0, 1.0]))

    def test_single_cell(self):
        assert is_symmetric_decreasing(make_grid(-0.5, 1.0, [3.0]))

    def test_centering_is_measured_in_cells(self):
        # two cells on [0, 2e-12] are off center by a whole cell, however
        # small the cell; a 3e6-wide grid whose origin is 2e-9 off is not
        assert not is_symmetric_decreasing(make_grid(0.0, 1e-12, [1.0, 1.0]))
        assert is_symmetric_decreasing(make_grid(-1.5e6 + 2e-9, 1e6, [1.0, 2.0, 1.0]))

    @pytest.mark.parametrize("dx", [0.25, 1.0, 3.0])
    def test_centring_edge_is_the_half_cell_rule(self, dx):
        # centred within 2e-9 half cells (1e-9 cells) passes, as
        # half_cell_offset reads it; 5e-9 cells off does not
        for shift, centred in ((5e-10, True), (-5e-10, True), (5e-9, False), (-5e-9, False)):
            f = make_grid((-2.5 + shift) * dx, dx, [1.0, 2.0, 3.0, 2.0, 1.0])
            assert is_symmetric_decreasing(f) is centred, shift

    def test_asymmetric_values_rejected(self):
        # centered and nonincreasing to the right of 0, but not mirrored
        assert not is_symmetric_decreasing(make_grid(-1.0, 0.5, [1.0, 3.0, 2.0, 1.0]))

    @pytest.mark.parametrize("scale", [2.0**-36, 1.0, 2.0**36])
    def test_value_slack_is_relative_to_the_maximum(self, scale):
        # 1e-6 of the maximum off even, or off nonincreasing, fails at any
        # scale, and a centred step density passes, however small its values
        tilt = make_grid(-1.5, 1.0, np.array([1.0, 1.0, 1.0 - 1e-6]) / scale)
        assert not is_symmetric_decreasing(tilt)
        valley = make_grid(-2.0, 1.0, np.array([1.0, 1.0 - 1e-6, 1.0 - 1e-6, 1.0]) / scale)
        assert not is_symmetric_decreasing(valley)
        assert is_symmetric_decreasing(make_grid(-1.5, 1.0, np.array([1.0, 2.0, 1.0]) / scale))


class TestCsvRoundTrip:
    def test_round_trip_bits(self, tmp_path):
        f = random_density(DensityGeneratorSpec(kind="spiky-piecewise", seed=9, cells=100))
        path = tmp_path / "density.csv"
        write_density_csv(f, path)
        g = read_density_csv(path)
        assert g.n_cells == f.n_cells
        assert g.x0 == pytest.approx(f.x0, abs=1e-12)
        assert g.dx == pytest.approx(f.dx, rel=1e-12)
        assert np.array_equal(g.values, f.values)

    def test_rejects_uneven_spacing(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,f\n0.0,1.0\n1.0,1.0\n3.0,1.0\n")
        with pytest.raises(BadParameter):
            read_density_csv(path)

    def test_spacing_test_is_relative_to_dx(self, tmp_path):
        # steps of 1e-12, 5e-10 and 1e-12: no grid, however small its cells
        path = tmp_path / "bad.csv"
        path.write_text("x,f\n0,1\n1e-12,1\n5e-10,1\n5.01e-10,1\n")
        with pytest.raises(BadParameter, match="not uniformly spaced"):
            read_density_csv(path)

    def test_far_grid_round_trip(self, tmp_path):
        # midpoints near 1e6 round to 1.2e-10, so the written steps are off
        # by up to 1.1e-4 of dx = 1e-6, and the file still reads
        f = make_grid(1e6, 1e-6, np.full(1000, 1e3))
        path = tmp_path / "far.csv"
        write_density_csv(f, path)
        g = read_density_csv(path)
        assert g.n_cells == f.n_cells
        assert g.dx == pytest.approx(f.dx, rel=1e-7)
        assert g.x0 == pytest.approx(f.x0, abs=1e-9)
        assert np.array_equal(g.values, f.values)

    @pytest.mark.parametrize("row", ["abc,1", "0.5", "nan,1"])
    def test_rejects_malformed_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,f\n0.0,1.0\n{row}\n1.0,1.0\n")
        with pytest.raises(BadParameter, match=r"bad\.csv: line 3: "):
            read_density_csv(path)


def _uneven(cells=64, seed=5):
    return random_density(DensityGeneratorSpec("spiky-piecewise", seed=seed, cells=cells))


def _levy_jump(monkeypatch):
    """The jump law verifier._run_levy builds, seen by its callee."""
    seen = []
    monkeypatch.setattr(verifier, "check_levy_dominance",
                        lambda spec, orders: seen.append(spec.jump) or [])
    verifier._run_levy(SuiteConfig(cells=64))
    return seen[0]


def _mixture(monkeypatch):
    """The mixture mixture_entropy_bound_check builds, seen by its callee."""
    seen = []
    real = entropy.renyi_entropy
    monkeypatch.setattr(entropy, "renyi_entropy",
                        lambda f, order: seen.append(f) or real(f, order))
    mixture_entropy_bound_check(Group((_uneven(seed=1), _uneven(seed=2))), [0.25, 0.75])
    return seen[0]


_BUILDERS = {
    "Grid1D": lambda mp: Grid1D(0.0, 0.5, np.array([1.0, 0.5, 0.5])),
    "Grid1D-view": lambda mp: Grid1D(0.0, 0.5, np.array([9.0, 1.0, 1.0])[1:]),
    "make_grid": lambda mp: make_grid(0.0, 0.5, [1.0, 1.0]),
    "normalize": lambda mp: normalize(_uneven()),
    "refine": lambda mp: refine(_uneven(), 3),
    "random_density": lambda mp: _uneven(),
    "convolve-direct": lambda mp: convolve(_uneven(), _uneven(seed=6), method="direct"),
    "convolve-fft": lambda mp: convolve(_uneven(), _uneven(seed=6), method="fft"),
    "convolve_series-many": lambda mp: convolve_series(_uneven(), _uneven(seed=6),
                                                       [0.5, 0.3, 0.2]),
    "rearrange_1d": lambda mp: rearrange_1d(_uneven()),
    "scale_density": lambda mp: scale_density(_uneven(), 2.5),
    "project_onto": lambda mp: project_onto(_uneven(), -1.0, 0.3, 10),
    "resample": lambda mp: resample(_uneven(), 0.07),
    "indicator_pair": lambda mp: verifier._indicator_pair(SuiteConfig(cells=64), 3)[0],
    "levy_jump": _levy_jump,
    "mixture": _mixture,
}


class TestGridContract:
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_every_density_is_read_only(self, name, monkeypatch):
        d = _BUILDERS[name](monkeypatch)
        assert isinstance(d, Grid1D)
        a = d.values
        assert not a.flags.writeable
        # no base that the array views into can be written either
        base = a.base
        while isinstance(base, np.ndarray):
            assert not base.flags.writeable
            base = base.base
        with pytest.raises(ValueError):
            a[0] = 1.0

    def test_make_grid_copies_caller_data(self):
        data = np.array([1.0, 2.0, 3.0])
        f = make_grid(0.0, 1.0, data)
        assert data.flags.writeable and not np.shares_memory(data, f.values)
        data[0] = 7.0
        assert f.values[0] == 1.0

    def test_group_members_cannot_go_stale(self):
        f = Grid1D(-4.0, 1.0, np.full(8, 0.125))
        group = Group((f, _uneven(cells=8)))
        h = group.h_conv[1.0]
        with pytest.raises(ValueError):
            group.fs[0].values[0] = 3.0
        with pytest.raises(ValueError):
            group.conv.values[0] = 3.0
        assert entropy.renyi_entropy(convolve_k(group.fs), 1.0) == h

    @pytest.mark.parametrize("off, aligned", [(1e-9, True), (1e-8, False)])
    def test_half_cell_tolerance_edge(self, off, aligned):
        dx = 0.1
        g = make_grid((3.0 + off) * dx / 2.0, dx, [1.0, 2.0, 7.0])
        f = make_grid(-0.2, dx, [5.0, 5.0])
        assert half_cell_offset(g) == (3 if aligned else None)
        if aligned:
            convolve_series(f, g, [0.5, 0.5])
            assert _snap(g) is g
        else:
            with pytest.raises(BadParameter, match="multiple of dx/2"):
                convolve_series(f, g, [0.5, 0.5])
            snapped = _snap(g)
            assert snapped is not g and half_cell_offset(snapped) is not None
            assert snapped.mass == pytest.approx(g.mass, rel=1e-12)
