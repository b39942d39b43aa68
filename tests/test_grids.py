import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.special import gamma

from renyi_rearrange import (
    DensityGeneratorSpec,
    GENERATOR_KINDS,
    Grid1D,
    NegativeValue,
    NonPositiveSpacing,
    NotSymmetric,
    RadialDensity,
    BadParameter,
    EmptyGrid,
    ZeroMass,
    gaussian_on_grid,
    is_symmetric_decreasing,
    make_grid,
    make_radial,
    moment,
    normalize,
    radial_from_grid,
    random_density,
    read_density_csv,
    refine,
    shell_volume,
    unit_ball_volume,
    variance,
    write_density_csv,
)


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


class TestRadialDensity:
    def test_shell_volumes_sum_to_ball(self):
        for n in (1, 2, 3, 5):
            dr = 0.125
            j_max = 16
            total = sum(shell_volume(n, j, dr) for j in range(j_max))
            ball = unit_ball_volume(n) * (j_max * dr) ** n
            assert total == pytest.approx(ball, rel=1e-12)

    def test_unit_ball_volume_against_recursive_slices(self):
        # V_n = V_{n-1} * int_{-1}^{1} (1 - t^2)^{(n-1)/2} dt, integrated
        # numerically, against the closed form pi^{n/2} / Gamma(n/2 + 1)
        v = 1.0
        for n in range(1, 9):
            slice_integral, _ = integrate.quad(
                lambda t, k=n: (1.0 - t * t) ** ((k - 1) / 2.0), -1.0, 1.0)
            v = v * slice_integral
            closed = math.pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)
            assert unit_ball_volume(n) == pytest.approx(closed, rel=1e-12)
            assert v == pytest.approx(closed, rel=1e-10)

    def test_make_radial_mass(self):
        prof = np.array([1.0, 0.5, 0.0, 0.25])
        f = make_radial(2, 0.5, prof)
        expected = sum(p * shell_volume(2, j, 0.5) for j, p in enumerate(prof))
        assert f.mass == pytest.approx(expected, rel=1e-14)
        assert f.support_measure == pytest.approx(
            shell_volume(2, 0, 0.5) + shell_volume(2, 1, 0.5) + shell_volume(2, 3, 0.5))

    def test_radial_validation(self):
        with pytest.raises(BadParameter):
            make_radial(0, 0.5, [1.0])
        with pytest.raises(NonPositiveSpacing):
            make_radial(2, 0.0, [1.0])
        with pytest.raises(NegativeValue):
            make_radial(2, 0.5, [1.0, -1.0])


class TestRadialFromGrid:
    def test_symmetric_grid_round_trip(self):
        f = gaussian_on_grid(0.0, 1.0, -4.0, 8.0 / 512, 512)
        rad = radial_from_grid(f)
        assert rad.dim == 1
        assert rad.dr == pytest.approx(f.dx / 2.0)
        # same mass, same maximum
        assert rad.mass == pytest.approx(f.mass, rel=1e-12)
        assert float(rad.profile.max()) == f.max_value

    def test_asymmetric_grid_rejected(self):
        f = make_grid(-1.0, 0.5, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(NotSymmetric):
            radial_from_grid(f)

    def test_off_center_grid_rejected(self):
        f = make_grid(0.0, 0.5, [1.0, 2.0, 2.0, 1.0])
        with pytest.raises(NotSymmetric):
            radial_from_grid(f)


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


class TestSymmetricDecreasing:
    def test_recognizes_shapes(self):
        assert is_symmetric_decreasing(make_grid(-1.0, 0.5, [1.0, 2.0, 2.0, 1.0]))
        assert not is_symmetric_decreasing(make_grid(-1.0, 0.5, [2.0, 1.0, 1.0, 2.0]))
        assert not is_symmetric_decreasing(make_grid(0.0, 0.5, [1.0, 2.0, 2.0, 1.0]))

    def test_single_cell(self):
        assert is_symmetric_decreasing(make_grid(-0.5, 1.0, [3.0]))


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

    @pytest.mark.parametrize("row", ["abc,1", "0.5", "nan,1"])
    def test_rejects_malformed_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,f\n0.0,1.0\n{row}\n1.0,1.0\n")
        with pytest.raises(BadParameter, match=r"bad\.csv: line 3: "):
            read_density_csv(path)
