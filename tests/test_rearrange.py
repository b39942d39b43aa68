import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi_rearrange import (
    DensityGeneratorSpec,
    GENERATOR_KINDS,
    GridMismatch,
    Group,
    gaussian_on_grid,
    is_symmetric_decreasing,
    l1_distance,
    majorizes,
    make_grid,
    random_density,
    rearrange_1d,
    refine,
    renyi_entropy,
    sorted_layers,
)
from renyi_rearrange.config import MAJ_TOL

ORDERS = [0.0, 0.5, 1.0, 2.0, math.inf]


def level_set_measure(f, t):
    """Lebesgue measure of the super-level set {f > t}."""
    vals, meas = f.cells()
    return float(meas[vals > t].sum())


def _corpus(count, cells=200):
    out = []
    for i in range(count):
        kind = GENERATOR_KINDS[i % len(GENERATOR_KINDS)]
        out.append(random_density(DensityGeneratorSpec(kind=kind, seed=1000 + i,
                                                       cells=cells)))
    return out


class TestRearrange1D:
    def test_hand_case(self):
        f = make_grid(0.0, 1.0, [0.0, 2.0, 1.0, 3.0])
        g = rearrange_1d(f)
        assert g.n_cells == 8
        assert g.dx == 0.5
        assert g.x0 == -2.0
        assert np.array_equal(g.values, [0.0, 1.0, 2.0, 3.0, 3.0, 2.0, 1.0, 0.0])

    def test_output_is_symmetric_decreasing(self):
        for f in _corpus(12):
            assert is_symmetric_decreasing(rearrange_1d(f))

    def test_mass_exact(self):
        for f in _corpus(8):
            g = rearrange_1d(f)
            # same multiset of values on half-width cells
            assert g.mass == pytest.approx(f.mass, abs=1e-13)

    def test_level_sets_exact(self):
        for f in _corpus(6):
            g = rearrange_1d(f)
            thresholds = np.quantile(f.values[f.values > 0], [0.0, 0.3, 0.6, 0.9])
            for t in thresholds:
                assert level_set_measure(g, float(t)) == pytest.approx(
                    level_set_measure(f, float(t)), abs=1e-14)

    @pytest.mark.parametrize("p", ORDERS)
    def test_entropies_preserved(self, p):
        for f in _corpus(5):
            assert renyi_entropy(rearrange_1d(f), p) == pytest.approx(
                renyi_entropy(f, p), abs=1e-11)

    def test_idempotent_up_to_refinement(self):
        # rearranging a rearranged density only splits its cells in half
        for f in _corpus(6):
            g = rearrange_1d(f)
            gg = rearrange_1d(g)
            split = refine(g, 2)
            assert gg.x0 == split.x0
            assert gg.dx == split.dx
            assert np.array_equal(gg.values, split.values)

    def test_symmetric_decreasing_fixed_point(self):
        f = gaussian_on_grid(0.0, 1.1, -4.0, 8.0 / 512, 512)
        g = rearrange_1d(f)
        split = refine(f, 2)
        assert np.array_equal(g.values, split.values)
        assert g.x0 == split.x0

    def test_translation_invariance(self):
        f = make_grid(3.0, 0.5, [1.0, 4.0, 2.0, 1.0])
        g = make_grid(-17.0, 0.5, [1.0, 4.0, 2.0, 1.0])
        assert np.array_equal(rearrange_1d(f).values, rearrange_1d(g).values)
        assert rearrange_1d(f).x0 == rearrange_1d(g).x0


def _rearrange_1d_reference(f):
    """rearrange_1d ranking the cells by a stable argsort and a gather."""
    n = f.n_cells
    ranked = f.values[np.argsort(-f.values, kind="stable")]
    out = np.empty(2 * n)
    idx = np.arange(n)
    out[n - 1 - idx] = ranked
    out[n + idx] = ranked
    return out


class TestRearrange1DReference:
    def _assert_same(self, f):
        g = rearrange_1d(f)
        assert g.values.tobytes() == _rearrange_1d_reference(f).tobytes()
        assert (g.x0, g.dx) == (-0.5 * f.n_cells * f.dx, 0.5 * f.dx)

    def test_ties_and_zero_cells(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 17, 256, 2048):
            self._assert_same(make_grid(-1.0, 0.01, rng.integers(0, 4, size=n) * 0.5))
        self._assert_same(make_grid(0.0, 1.0, [0.0, 2.0, 0.0, 2.0, 1.0, 0.0]))

    def test_random_densities(self):
        for f in _corpus(8, cells=300):
            self._assert_same(f)


class TestSortedLayersReference:
    """sorted_layers on a Grid1D sorts values alone; the reference ranks
    cells by a stable argsort and gathers values and measures."""

    def _assert_same(self, f):
        order = np.argsort(-f.values, kind="stable")
        vals, cell = sorted_layers(f)
        assert vals.tobytes() == f.values[order].tobytes()
        assert cell.tobytes() == np.full(f.n_cells, f.dx)[order].tobytes()

    def test_ties_and_zero_cells(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 17, 256, 2048):
            self._assert_same(make_grid(-1.0, 0.01, rng.integers(0, 4, size=n) * 0.5))
        self._assert_same(make_grid(0.0, 1.0, [0.0, 2.0, 0.0, 2.0, 1.0, 0.0]))

    def test_random_densities_and_their_sums(self):
        for f in _corpus(8, cells=300):
            self._assert_same(f)
            self._assert_same(rearrange_1d(f))
        fs = _corpus(3, cells=256)
        group = Group(tuple(fs))
        for h in (group.conv, group.conv_star):
            self._assert_same(h)


class TestMajorization:
    def test_reflexive(self):
        f = random_density(DensityGeneratorSpec(kind="bimodal", seed=3, cells=128))
        ok, worst = majorizes(rearrange_1d(f), rearrange_1d(f))
        assert ok
        assert worst == pytest.approx(0.0, abs=1e-15)

    def test_taller_uniform_majorizes_wider(self):
        # both mass 1; the narrow tall one is more concentrated
        tall = make_grid(-0.5, 0.25, [1.0, 1.0, 1.0, 1.0])
        wide = make_grid(-1.0, 0.5, [0.5, 0.5, 0.5, 0.5])
        ok, _ = majorizes(wide, tall)
        assert ok
        ok_rev, worst = majorizes(tall, wide)
        assert not ok_rev
        assert worst < -0.2

    def test_rearranged_self_majorization(self):
        # f rearranged is exactly as concentrated as f, so each majorizes
        # the other once both are in symmetric decreasing form
        for f in _corpus(4, cells=96):
            fs = rearrange_1d(f)
            ok1, _ = majorizes(fs, fs)
            assert ok1


def _majorizes_reference(f, g):
    """majorizes with both cumulative masses interpolated on the union of
    the two sides' breakpoints."""
    vf, wf = sorted_layers(f)
    vg, wg = sorted_layers(g)
    bf = np.concatenate(([0.0], np.cumsum(wf)))
    bg = np.concatenate(([0.0], np.cumsum(wg)))
    cf = np.concatenate(([0.0], np.cumsum(vf * wf)))
    cg = np.concatenate(([0.0], np.cumsum(vg * wg)))
    grid = np.union1d(bf[1:], bg[1:])
    f_at = np.interp(grid, bf, cf, right=cf[-1])
    g_at = np.interp(grid, bg, cg, right=cg[-1])
    worst = float((g_at - f_at).min())
    return bool(worst >= -MAJ_TOL), worst


class TestMajorizesReference:
    """The minimum over each side's own breakpoints is the union minimum."""

    @staticmethod
    def _assert_same(f, g):
        for a, b in ((f, g), (g, f)):
            assert majorizes(a, b) == _majorizes_reference(a, b)

    def test_random_pairs_matched_resolution(self):
        corpus = _corpus(10, cells=256)
        for f, g in zip(corpus, corpus[1:]):
            self._assert_same(f, g)
            self._assert_same(rearrange_1d(f), g)

    def test_half_spacing(self):
        for f, g in zip(_corpus(5, cells=128), _corpus(6, cells=256)[1:]):
            self._assert_same(f, g)
            self._assert_same(f, refine(f, 2))

    def test_convolution_against_rearranged_convolution(self):
        corpus = _corpus(9, cells=128)
        for fs in (corpus[0:2], corpus[2:4], corpus[4:7], corpus[6:9]):
            group = Group(tuple(fs))
            self._assert_same(group.conv, group.conv_star)

    def test_incommensurate_spacings(self):
        # breakpoints at multiples of 0.1 on one side and 0.07 on the other
        # interleave irregularly; zeros leave f's layers short of its window
        rng = np.random.default_rng(11)
        for _ in range(4):
            vals = rng.uniform(0.0, 2.0, size=40)
            vals[rng.integers(0, 40, size=6)] = 0.0
            f = make_grid(-2.0, 0.1, vals)
            g = make_grid(-1.75, 0.07, rng.uniform(0.0, 3.0, size=50))
            self._assert_same(rearrange_1d(f), f)
            self._assert_same(rearrange_1d(f), rearrange_1d(g))
            self._assert_same(f, g)


class TestLevelSetProfile:
    def test_l1_distance(self):
        f = make_grid(0.0, 0.5, [1.0, 2.0])
        g = make_grid(0.0, 0.5, [2.0, 2.0])
        assert l1_distance(f, g) == pytest.approx(0.5)
        with pytest.raises(GridMismatch):
            l1_distance(f, make_grid(0.0, 0.25, [1.0, 2.0]))
        # spacings are compared relative to dx, not against an absolute slack
        with pytest.raises(GridMismatch):
            l1_distance(make_grid(0.0, 1e-10, [1.0, 2.0]),
                        make_grid(0.0, 2e-10, [1.0, 2.0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                min_size=1, max_size=40),
       st.floats(min_value=1e-3, max_value=10.0, allow_nan=False))
def test_rearrangement_properties_hold_for_any_values(values, dx):
    if sum(values) <= 0.0:
        values = list(values) + [1.0]
    f = make_grid(-2.0, dx, values)
    g = rearrange_1d(f)
    assert is_symmetric_decreasing(g)
    # the rearranged values are the original multiset, duplicated
    assert sorted(g.values) == sorted(list(values) * 2)
    assert g.mass == pytest.approx(f.mass, rel=1e-12, abs=1e-12)
    assert renyi_entropy(g, 2.0) == pytest.approx(renyi_entropy(f, 2.0),
                                                  abs=1e-10)
