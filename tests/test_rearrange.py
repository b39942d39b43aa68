import itertools
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
    SpacingMismatch,
    fisher_information,
    gaussian_on_grid,
    is_symmetric_decreasing,
    l1_distance,
    majorizes,
    make_grid,
    random_density,
    rearrange_1d,
    refine,
    renyi_entropy,
)
from renyi_rearrange.config import MAJ_TOL
from renyi_rearrange.rearrange import _cumulative_mass, discrete_arrangement

from exact_oracle import majorization_margin

ORDERS = [0.0, 0.5, 1.0, 2.0, math.inf]


def level_set_measure(f, t):
    """Lebesgue measure of the super-level set {f > t}."""
    return float(np.count_nonzero(f.values > t) * f.dx)


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


class TestDiscreteArrangement:
    def test_hand_cases(self):
        # the largest in the middle cell (the left middle one for an even
        # count), then alternately right and left
        f = make_grid(-1.0, 0.5, [1.0, 2.0, 3.0, 4.0, 5.0])
        g = discrete_arrangement(f)
        assert (g.x0, g.dx) == (f.x0, f.dx)
        assert np.array_equal(g.values, [1.0, 3.0, 5.0, 4.0, 2.0])
        g = discrete_arrangement(make_grid(0.0, 1.0, [4.0, 1.0, 3.0, 2.0]))
        assert np.array_equal(g.values, [2.0, 4.0, 3.0, 1.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_minimizes_fisher_information_over_orderings(self, seed):
        # perfect squares on dx = 1: every I_h is an integer sum, so the
        # minimum over all 720 orderings is compared exactly
        roots = np.random.default_rng(seed).integers(0, 5, size=6)
        roots[0] = max(roots[0], 1)
        f = make_grid(0.0, 1.0, (roots ** 2).astype(float))
        best = min(fisher_information(make_grid(0.0, 1.0, list(p)))
                   for p in itertools.permutations(f.values))
        assert fisher_information(discrete_arrangement(f)) == best

    def test_values_are_the_same_multiset(self):
        for f in _corpus(6):
            assert np.array_equal(np.sort(discrete_arrangement(f).values), np.sort(f.values))


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
    """majorizes reads the layers of f by sorting its values alone; the
    reference ranks cells by a stable argsort, gathers their values and
    scales their running sum by dx."""

    def _assert_same(self, f):
        ranked = f.values[np.argsort(-f.values, kind="stable")]
        got = _cumulative_mass(f, 1, f.n_cells)
        assert got.tobytes() == (np.cumsum(ranked) * f.dx).tobytes()

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


class TestMajorizesReference:
    """majorizes against the exact rational margin of tests/exact_oracle.py.

    The float margin is a difference of two running sums of at most n
    terms each, scaled by dx and read off linear slices, so it is within
    a few n ulps of the total mass of the exact one.
    """

    @staticmethod
    def _assert_close(f, g):
        for a, b in ((f, g), (g, f)):
            ok, worst = majorizes(a, b)
            exact = majorization_margin(a.values, a.dx, b.values, b.dx)
            n = 2 * max(a.n_cells, b.n_cells)
            bound = 4 * n * np.finfo(float).eps * max(a.mass, b.mass, 1.0)
            assert abs(worst - float(exact)) <= bound
            if abs(exact + MAJ_TOL) > bound:
                assert ok == (exact >= -MAJ_TOL)

    @pytest.mark.parametrize("r", (1, 2, 4))
    def test_small_grids_with_ties_and_zero_cells(self, r):
        rng = np.random.default_rng(50 + r)
        for _ in range(40):
            n, m = (int(k) for k in rng.integers(1, 12, size=2))
            fv = rng.integers(0, 4, size=n) * 0.5
            gv = rng.integers(0, 4, size=m) * 0.25
            fv[0] = gv[0] = 1.0  # not identically zero
            f = make_grid(0.0, 0.1, fv)
            g = make_grid(0.3, 0.1 / r, gv)
            self._assert_close(f, g)
            self._assert_close(rearrange_1d(f), g)

    def test_ties_at_exact_equality(self):
        # a density and its rearrangement have the same layers: the exact
        # margin is 0 at every length, in both directions
        for f in (make_grid(0.0, 0.5, [0.0, 2.0, 0.0, 2.0, 1.0, 0.0]),
                  make_grid(-1.0, 0.25, [1.0, 1.0, 1.0, 1.0])):
            assert majorization_margin(f.values, f.dx, rearrange_1d(f).values,
                                       rearrange_1d(f).dx) == 0
            self._assert_close(f, rearrange_1d(f))

    def test_random_pairs_matched_resolution(self):
        corpus = _corpus(10, cells=64)
        for f, g in zip(corpus, corpus[1:]):
            self._assert_close(f, g)
            self._assert_close(rearrange_1d(f), g)

    def test_half_spacing(self):
        for f, g in zip(_corpus(5, cells=32), _corpus(6, cells=64)[1:]):
            self._assert_close(f, g)
            self._assert_close(f, refine(f, 2))

    def test_convolution_against_rearranged_convolution(self):
        corpus = _corpus(9, cells=32)
        for fs in (corpus[0:2], corpus[2:4], corpus[4:7], corpus[6:9]):
            group = Group(tuple(fs))
            self._assert_close(group.conv, group.conv_star)

    def test_incommensurate_spacings(self):
        # spacings 0.1 and 0.07 share no grid of knots: majorizes refuses
        # them, as convolve does
        rng = np.random.default_rng(11)
        f = make_grid(-2.0, 0.1, rng.uniform(0.0, 2.0, size=40))
        for dx in (0.07, 0.3 + 1e-9, 0.1 / 2.5):
            g = make_grid(-1.75, dx, rng.uniform(0.0, 3.0, size=50))
            for a, b in ((f, g), (g, f), (rearrange_1d(f), g)):
                with pytest.raises(SpacingMismatch):
                    majorizes(a, b)


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
