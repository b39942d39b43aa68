import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

from renyi_rearrange import (
    BadParameter,
    DensityGeneratorSpec,
    Grid1D,
    LevySpec,
    TruncationInsufficient,
    check_levy_dominance,
    convolve,
    gaussian_on_grid,
    is_symmetric_decreasing,
    make_grid,
    marginal_density,
    moment,
    normalize,
    project_onto,
    random_density,
    rearrange_1d,
    rearranged_marginal,
    refine,
    renyi_entropies,
    renyi_entropy,
    scale_density,
    uniform_interval,
    variance,
)
from renyi_rearrange.convolve import convolve_series
from renyi_rearrange.grids import half_cell_offset, require_same_grid, same_spacing
from renyi_rearrange.levy import _K_CAP, _poisson_pmf, _snap, auto_k_max
from simd import pin


def skewed_jump(cells=256, decay=2.0, span=3.0):
    dx = span / cells
    x = (np.arange(cells) + 0.5) * dx
    return normalize(make_grid(0.0, dx, np.exp(-decay * x)))


def hull_sum_set(f, jump, k_max, a=1.0):
    """Cells of f, a marginal at diffusion a and t = 1, inside the union over
    k <= k_max of the Gaussian window plus k copies of the jump's hull."""
    dx = jump.dx
    reach = max(4, math.ceil(8.0 * math.sqrt(a) / dx))
    pos = np.flatnonzero(jump.values > 0.0)
    a_lo, b_hi = jump.x0 + pos[0] * dx, jump.x0 + (pos[-1] + 1) * dx
    expected = np.zeros(f.n_cells, dtype=bool)
    for k in range(k_max + 1):
        lo = -(reach + 0.5) * dx + k * (a_lo + dx / 2)
        hi = (reach + 0.5) * dx + k * (b_hi - dx / 2)
        expected |= (f.midpoints > lo) & (f.midpoints < hi)
    return expected


def run_sum_set(f, jump, k_max, a):
    """Cells of f, a marginal at diffusion a and t = 1, inside the union over
    k <= k_max of the Gaussian window plus k copies of the jump's positive
    cells: the k-fold sum set, from indicator convolutions on whole cells."""
    dx = jump.dx
    reach = max(4, math.ceil(8.0 * math.sqrt(a) / dx))
    term = np.ones(2 * reach + 1, dtype=np.int64)
    x0 = -(reach + 0.5) * dx
    expected = np.zeros(f.n_cells, dtype=bool)
    for _ in range(k_max + 1):
        # each half cell's midpoint lies a quarter cell inside a whole cell
        cell = np.floor((f.midpoints - x0) / dx).astype(np.int64)
        inside = (cell >= 0) & (cell < term.size)
        expected[inside] |= term[cell[inside]] > 0
        term = np.minimum(np.convolve(term, jump.values > 0.0), 1)
        x0 += jump.x0 + dx / 2
    return expected


def _cut_at(monkeypatch, k_max):
    """levy's marginals summed to term k_max, in place of auto_k_max's."""
    monkeypatch.setattr(sys.modules["renyi_rearrange.levy"], "auto_k_max", lambda mu: k_max)


def _count_run_sums(monkeypatch):
    calls = []
    module = sys.modules["renyi_rearrange.convolve"]
    real = module._sum_runs
    monkeypatch.setattr(module, "_sum_runs", lambda *args: calls.append(1) or real(*args))
    return calls


class TestLevySpec:
    def test_validation(self):
        jump = skewed_jump()
        with pytest.raises(BadParameter):
            LevySpec(a=-1.0, rate=1.0, jump=jump, t=1.0)
        with pytest.raises(BadParameter):
            LevySpec(a=1.0, rate=-0.5, jump=jump, t=1.0)
        with pytest.raises(BadParameter):
            LevySpec(a=1.0, rate=1.0, jump=jump, t=0.0)

    @pytest.mark.parametrize("field", ["a", "rate", "t"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_parameters_rejected(self, field, value):
        params = {"a": 1.0, "rate": 1.0, "t": 1.0, field: value}
        with pytest.raises(BadParameter, match="must be finite"):
            LevySpec(jump=skewed_jump(), **params)

    @pytest.mark.parametrize("a, rate, t", [(1e300, 1.0, 1.0), (1e10, 1.0, 1.0),
                                            (1e200, 0.0, 1e200), (1e-200, 0.0, 1e-200)])
    def test_window_past_the_cell_cap_is_refused(self, a, rate, t):
        # sqrt(a t) infinite or zero, or a Gaussian window of 8 sqrt(a t)
        # each side wider than MAX_CELLS cells (5e7 of them at a = 1e10)
        spec = LevySpec(a=a, rate=rate, jump=skewed_jump(), t=t)
        for marginal in (marginal_density, rearranged_marginal):
            with pytest.raises(BadParameter, match="sqrt"):
                marginal(spec)

    def test_jump_must_be_normalized(self):
        bad = make_grid(0.0, 0.1, np.full(10, 3.0))
        with pytest.raises(BadParameter):
            LevySpec(a=1.0, rate=1.0, jump=bad, t=1.0)


class TestTruncation:
    def test_k_max_grows_with_intensity(self):
        ks = [auto_k_max(mu) for mu in (0.1, 1.0, 5.0, 20.0)]
        assert ks == sorted(ks)
        assert ks[0] >= 1

    def test_tail_below_threshold(self):
        from scipy.stats import poisson
        for mu in (0.25, 1.0, 4.0):
            k = auto_k_max(mu)
            assert poisson.sf(k, mu) < 1e-8

    def test_cap_enforced(self):
        with pytest.raises(TruncationInsufficient):
            auto_k_max(500.0)

    def test_auto_k_max_unchanged(self):
        # k is the first whose geometric tail bound pmf(k+1)/(1 - mu/(k+2))
        # is below 1e-8 (here from scipy's pmf); it is never below the k of
        # scipy's exact Poisson tail, and equal to it at every mean the
        # tests use, the verify suite's lambda*t = 0.25 and 1.0 and the
        # rate 30 among them
        from scipy.stats import poisson

        def first_k(mu, tail):
            ks = np.arange(math.ceil(mu), _K_CAP + 1)
            below = np.flatnonzero(tail(ks, mu) < 1e-8)
            return int(ks[below[0]]) if below.size else _K_CAP + 1

        def bound(ks, mu):
            return poisson.pmf(ks + 1, mu) / (1.0 - mu / (ks + 2))

        used = (0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 20.0, 30.0, 120.0)
        for mu in [*used, *np.linspace(0.01, 160.0, 201)]:
            mu = float(mu)
            k, exact = first_k(mu, bound), first_k(mu, poisson.sf)
            if k > _K_CAP:
                with pytest.raises(TruncationInsufficient):
                    auto_k_max(mu)
            else:
                assert auto_k_max(mu) == k >= exact, mu
            if mu in used:
                assert k == exact, mu

    @pytest.mark.parametrize("refuse", ["auto_k_max", "marginal_density"])
    def test_large_mean_is_refused_without_summing(self, refuse, monkeypatch):
        # at lambda t = 1e12 no k up to the cap is tried; summing the tail
        # once took 11.8 s of pmf terms whose exponent cancels
        module = sys.modules["renyi_rearrange.levy"]
        calls = []
        monkeypatch.setattr(module, "_poisson_pmf",
                            lambda k, mu: calls.append(k) or _poisson_pmf(k, mu))
        spec = LevySpec(a=1.0, rate=1e12, jump=skewed_jump(cells=32), t=1.0)
        with pytest.raises(TruncationInsufficient,
                           match=r"k=200 is too short for lambda\*t=1e\+12"):
            if refuse == "auto_k_max":
                auto_k_max(1e12)
            else:
                marginal_density(spec)
        assert calls == []

    def test_auto_k_max_computes_each_term_once(self, monkeypatch):
        module = sys.modules["renyi_rearrange.levy"]
        calls = []
        monkeypatch.setattr(module, "_poisson_pmf",
                            lambda k, mu: calls.append(k) or _poisson_pmf(k, mu))
        for mu in (30.0, 120.0):
            calls.clear()
            auto_k_max(mu)
            assert len(calls) == len(set(calls))
        calls.clear()
        with pytest.raises(TruncationInsufficient, match=f"k={_K_CAP}"):
            auto_k_max(150.0)  # below the cap, yet no k up to it will do
        assert len(calls) == len(set(calls)) == _K_CAP - 150 + 1


class TestMarginal:
    def test_pure_diffusion_matches_gaussian(self):
        jump = skewed_jump()
        for a, t in ((1.0, 1.0), (0.7, 1.3), (2.0, 0.25)):
            spec = LevySpec(a=a, rate=0.0, jump=jump, t=t)
            f = marginal_density(spec)
            h = renyi_entropy(f, 1.0)
            assert h == pytest.approx(0.5 * math.log(2 * math.pi * math.e * a * t),
                                      abs=1e-3)

    def test_unit_mass(self):
        spec = LevySpec(a=1.0, rate=1.0, jump=skewed_jump(), t=1.0)
        f = marginal_density(spec)
        assert f.mass == pytest.approx(1.0, abs=1e-9)

    def test_moments_match_compound_poisson(self):
        # E X_t = lambda t E[J], Var X_t = t (a + lambda E[J^2])
        jump = skewed_jump()
        mean_j = moment(jump, 1)
        second_j = moment(jump, 2)
        for lam, t in ((0.5, 1.0), (1.0, 0.5)):
            spec = LevySpec(a=1.0, rate=lam, jump=jump, t=t)
            f = marginal_density(spec)
            assert moment(f, 1) == pytest.approx(lam * t * mean_j, abs=5e-3)
            assert variance(f) == pytest.approx(t * (1.0 + lam * second_j),
                                                rel=1e-2)

    def test_support_is_the_hull_sum_set(self):
        # the k-th term is the Gaussian window [C, D) folded with k copies
        # of the jump's hull [A, B), so it is positive exactly on
        # [C + k (A + dx/2), D + k (B - dx/2)) (the window outspans every
        # gap of the jump law); its 8-sigma tails sit far below FFT
        # resolution and must still count as support
        jump = random_density(DensityGeneratorSpec(kind="uniform-mixture",
                                                   seed=0, cells=512))
        spec = LevySpec(a=1.0, rate=5.0, jump=jump, t=1.0)
        f = marginal_density(spec)
        k_max = auto_k_max(spec.rate * spec.t)
        assert np.array_equal(f.values > 0.0, hull_sum_set(f, jump, k_max))

    def test_support_keeps_terms_with_tiny_weights(self, monkeypatch):
        # at k = 40 the last Poisson(5) weights are below 1e-20: a
        # floor-valued tail cell times such a weight underflows to 0, and
        # summing weighted terms lost 828 of the 39890 support cells
        jump = random_density(DensityGeneratorSpec(kind="uniform-mixture",
                                                   seed=0, cells=512))
        spec = LevySpec(a=1.0, rate=5.0, jump=jump, t=1.0)
        _cut_at(monkeypatch, 40)
        f = marginal_density(spec)
        assert np.array_equal(f.values > 0.0, hull_sum_set(f, jump, 40))

    def test_support_with_gaps_wider_than_the_window(self, monkeypatch):
        # three 4-cell runs 30 cells apart, 200 cells out, and a 9-cell
        # Gaussian window: the terms stay gapped until their clusters meet
        # near k = 9, so the single-run rule for the later terms must wait
        vals = np.zeros(72)
        vals[[*range(4), *range(34, 38), *range(68, 72)]] = 1.0
        jump = normalize(make_grid(10.0, 0.05, vals))
        spec = LevySpec(a=1e-4, rate=5.0, jump=jump, t=1.0)
        k_max = auto_k_max(spec.rate * spec.t)
        calls = _count_run_sums(monkeypatch)
        f = marginal_density(spec)
        assert 5 <= len(calls) < k_max
        expected = run_sum_set(f, jump, k_max, spec.a)
        assert np.array_equal(f.values > 0.0, expected)
        # the gaps are real: the hulls alone would fill them
        assert np.count_nonzero(expected) < np.count_nonzero(hull_sum_set(f, jump, k_max, spec.a))

    def test_entropy_grows_in_time(self):
        jump = skewed_jump()
        hs = []
        for t in (0.25, 0.5, 1.0, 2.0):
            spec = LevySpec(a=1.0, rate=1.0, jump=jump, t=t)
            hs.append(renyi_entropy(marginal_density(spec), 1.0))
        assert hs == sorted(hs)


class TestRearrangedMarginal:
    def test_symmetric_jump_changes_nothing(self):
        # a symmetric decreasing jump density is its own rearrangement, so
        # both marginals are built from identical ingredients
        jump = uniform_interval(-0.5, 0.5, cells=64)
        assert is_symmetric_decreasing(jump)
        spec = LevySpec(a=1.0, rate=1.0, jump=jump, t=0.5)
        f = marginal_density(spec)
        g = rearranged_marginal(spec)
        assert np.array_equal(f.values, g.values)
        assert f.x0 == g.x0

    def test_skewed_jump_lowers_entropy(self):
        spec = LevySpec(a=1.0, rate=1.0, jump=skewed_jump(), t=1.0)
        h_x = renyi_entropy(marginal_density(spec), 1.0)
        h_z = renyi_entropy(rearranged_marginal(spec), 1.0)
        assert h_z <= h_x


class TestDominance:
    def test_reports_pass(self):
        spec = LevySpec(a=1.0, rate=1.0, jump=skewed_jump(), t=1.0)
        reports = check_levy_dominance(spec, [0.5, 1.0, 2.0, math.inf])
        assert len(reports) == 4
        assert all(r.passed for r in reports)
        # the skew is real: strictly positive margins, not tolerance saves
        assert all(r.margin > 0.0 for r in reports)

    def test_support_dominance_with_gapped_jumps(self):
        # a jump law with gaps: FFT noise in the folded terms must not
        # count as support, or h_0 measures the grid instead of the density
        jump = random_density(DensityGeneratorSpec(kind="uniform-mixture",
                                                   seed=0, cells=512))
        spec = LevySpec(a=1.0, rate=5.0, jump=jump, t=1.0)
        report = check_levy_dominance(spec, [0.0])[0]
        assert report.lhs >= report.rhs

    def test_zero_rate_equality(self):
        spec = LevySpec(a=1.0, rate=0.0, jump=skewed_jump(), t=1.0)
        reports = check_levy_dominance(spec, [1.0])
        assert reports[0].passed
        assert reports[0].margin == pytest.approx(0.0, abs=1e-12)

    def test_underflowing_mean_is_the_zero_rate(self):
        # lambda t = 1e-200 * 1e-200 is 0.0: no jumps, so both marginals are
        # the rate-0 Gaussian on its own grid.  An empty series summed on the
        # jump law's grid reads h_1(X_t) = -4.158883 and h_1(Z_t) = -4.852030
        jump = _uniform_mixture(977)
        tiny = LevySpec(a=1.0, rate=1e-200, jump=jump, t=1e-200)
        zero = LevySpec(a=1.0, rate=0.0, jump=jump, t=1e-200)
        assert tiny.rate * tiny.t == 0.0
        for name, marginal in MARGINALS:
            f, g = marginal(tiny), marginal(zero)
            assert (f.x0, f.dx) == (g.x0, g.dx), name
            assert np.array_equal(f.values, g.values), name
        reports = check_levy_dominance(tiny, [0.0, 0.5, 1.0, 2.0, math.inf])
        assert [r.margin for r in reports] == [0.0] * 5

    def test_margins_do_not_depend_on_scale(self):
        # scaling the jump law by 2^36 and a by 2^72 scales X_t and Z_t by
        # 2^36 exactly: the margins stay, and every h_p moves by 36 log 2.
        # The scaled law's values are below 1e-9, so a symmetry slack not
        # relative to the maximum would read it as symmetric decreasing, Z_t
        # as X_t and every margin as 0
        jump = random_density(DensityGeneratorSpec(kind="uniform-mixture",
                                                   seed=977, cells=512))
        s = 2.0**36
        big = scale_density(jump, s)
        assert not is_symmetric_decreasing(big)
        orders = [0.5, 1.0, 2.0, math.inf]
        unit = check_levy_dominance(LevySpec(a=1.0, rate=30.0, jump=jump, t=1.0), orders)
        wide = check_levy_dominance(LevySpec(a=s * s, rate=30.0, jump=big, t=1.0), orders)
        for r1, r2 in zip(unit, wide):
            assert abs(r2.margin - r1.margin) <= 1e-9, r1.name
            assert abs(r2.lhs - r1.lhs - 36.0 * math.log(2.0)) <= 1e-9, r1.name
            assert abs(r2.rhs - r1.rhs - 36.0 * math.log(2.0)) <= 1e-9, r1.name


class TestLevyBytes:
    """The marginals and reports of the rate-30 laws of seeds 0 and 977
    (uniform-mixture, 512 cells, a = 1, t = 1), bit for bit.

    The bits depend on the SIMD kernels numpy dispatches to (with FMA a
    complex product a * b can differ from b * a in the last bit), and the
    marginals differ at each of the three x86-64 levels.  So they are
    pinned for numpy 2.4 at each level, recorded by limiting numpy with
    NPY_DISABLE_CPU_FEATURES (tests/simd.py), and the test is skipped
    elsewhere.
    """

    ORDERS = (0.0, 0.5, 1.0, 2.0, math.inf)
    PINS = {
        ("X86_V4", 0): (
            "c1c552e2c7f72a707bb3342f0a4a76b5ae8513d8b8b14a7faf780fbdc619f43c",
            "1eac8999264be39777e442d40a86b033a7d6cb8689f6ebec4b3cd093401af52c",
            (("0x1.8d45f42f3bb29p+2", "0x1.6f5b3c80ce907p+2"),
             ("0x1.173f478fe88aep+2", "0x1.9cca06dbd7c33p+1"),
             ("0x1.0a9893f7efdefp+2", "0x1.830a29dc6a184p+1"),
             ("0x1.00a02a911c2c4p+2", "0x1.6eda0a266faeep+1"),
             ("0x1.d493983d73221p+1", "0x1.41e907f71adc9p+1"))),
        ("X86_V4", 977): (
            "1657af9fe511116cb5092a91c2b20dae0bf7b31fc739623113d94cf5c93cde6a",
            "d617b93c4ce23b1b69afd37c41a850c1d420310e5a78c14fd062e8f35a67f751",
            (("0x1.7f474b3507db1p+2", "0x1.77c3cadd1eacdp+2"),
             ("0x1.deb768694162ep+1", "0x1.b944124e45bbep+1"),
             ("0x1.c5682bf6e5078p+1", "0x1.9f6064c2e2eabp+1"),
             ("0x1.b17c9a4ecb372p+1", "0x1.8b1bcf9cf2076p+1"),
             ("0x1.84db5d466552ep+1", "0x1.5e13e2fe1da9ep+1"))),
        ("X86_V3", 0): (
            "3ba65c492bb52fe7837b59cd8d97c9b37013cd702e2da27f415d1594e78f3ebb",
            "c76c05e19960b0c280a85903c6cc55ac861056725d571c1b2ba4faea880f81ef",
            (("0x1.8d45f42f3bb29p+2", "0x1.6f5b3c80ce907p+2"),
             ("0x1.173f478fe8862p+2", "0x1.9cca06db419dbp+1"),
             ("0x1.0a9893f7efdefp+2", "0x1.830a29dc6a185p+1"),
             ("0x1.00a02a911c2c4p+2", "0x1.6eda0a266faeep+1"),
             ("0x1.d493983d73221p+1", "0x1.41e907f71adc9p+1"))),
        ("X86_V3", 977): (
            "af91d966c1fb5d5213ccbb8485992696b9605c2db00d73794696da44c2e3f9d5",
            "976f20066a21c290675d76a76c78868acf1e124d1db5f9d279b10748459739e0",
            (("0x1.7f474b3507db1p+2", "0x1.77c3cadd1eacdp+2"),
             ("0x1.deb7686604316p+1", "0x1.b944124e49466p+1"),
             ("0x1.c5682bf6e5078p+1", "0x1.9f6064c2e2eabp+1"),
             ("0x1.b17c9a4ecb372p+1", "0x1.8b1bcf9cf2076p+1"),
             ("0x1.84db5d466552ep+1", "0x1.5e13e2fe1da9ep+1"))),
        ("X86_V2", 0): (
            "5b49db18671334bad76895942f58e861ca3055971118045810b6a860771c554f",
            "fd54768de2b97703e62ef28399d9870aa65407eca7362f310f2c52b864a0d0b2",
            (("0x1.8d45f42f3bb29p+2", "0x1.6f5b3c80ce907p+2"),
             ("0x1.173f47711f1f2p+2", "0x1.9cca06e3fb41ap+1"),
             ("0x1.0a9893f7efdebp+2", "0x1.830a29dc6a183p+1"),
             ("0x1.00a02a911c2c4p+2", "0x1.6eda0a266faf0p+1"),
             ("0x1.d493983d73221p+1", "0x1.41e907f71adcap+1"))),
        ("X86_V2", 977): (
            "1e39eba09706ff163b3bf4cc0794eb7cb2bf7d2f0c8e553ece777d0c7de041f0",
            "508d7cf9e4addf3e5e6765341ee2adacf8962b62953122d8ab41188c2961cc13",
            (("0x1.7f474b3507db1p+2", "0x1.77c3cadd1eacdp+2"),
             ("0x1.deb768c9b23ddp+1", "0x1.b94412a3a620ep+1"),
             ("0x1.c5682bf6e50b6p+1", "0x1.9f6064c2e2ec6p+1"),
             ("0x1.b17c9a4ecb374p+1", "0x1.8b1bcf9cf2076p+1"),
             ("0x1.84db5d466552fp+1", "0x1.5e13e2fe1da9ep+1"))),
    }

    @staticmethod
    def _sha256(f):
        return hashlib.sha256(f.values.tobytes()).hexdigest()

    @pytest.mark.parametrize("seed", (0, 977))
    def test_marginals_and_reports(self, seed):
        x_sha, z_sha, sides = pin(self.PINS, seed)
        spec = LevySpec(a=1.0, rate=30.0, jump=_uniform_mixture(seed), t=1.0)
        assert self._sha256(marginal_density(spec)) == x_sha
        assert self._sha256(rearranged_marginal(spec)) == z_sha
        reports = check_levy_dominance(spec, self.ORDERS)
        assert [(r.lhs.hex(), r.rhs.hex()) for r in reports] == list(sides)


def _traced_peak(call):
    """The tracemalloc peak of call(), after one untraced call has warmed
    imports, numpy's FFT plan cache and the other caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """Peaks on the seed-0 rate-30 law, in B = 637,024 bytes, its Z_t's
    values (79,628 cells, the hull of its support)."""

    B = 637_024

    @staticmethod
    def _spec():
        return LevySpec(a=1.0, rate=30.0, jump=_uniform_mixture(0), t=1.0)

    def _check_peak(self, orders):
        spec = self._spec()
        assert rearranged_marginal(spec).values.nbytes == self.B
        return _traced_peak(lambda: check_levy_dominance(spec, orders))

    def test_peak_of_a_dominance_check(self):
        # one marginal alive at a time; the series sum's peak, its dx/2
        # values beside its two inverse transforms, is the check's, 2.07 B
        # (1.32 MB).  With the values allocated before the transforms it was
        # 3.13 B, and with both marginals alive at once 5.56 B
        assert self._check_peak((0.0, 0.5, 1.0, 2.0, math.inf)) <= 2.5 * self.B

    def test_peak_at_an_order_near_one(self):
        # Z_t, its log and the product of the two for the mean of the log:
        # 3.00 B.  A copy of the values as a list of Python floats took
        # 4.56 B, two temporaries for the expm1 terms 4.002 B, and the log
        # kept beside a power sum's scratch 3.07 B
        assert self._check_peak((0.99999,)) <= 3.25 * self.B

    def test_peak_of_the_series_sum(self, monkeypatch):
        # convolve_series on the inputs of Z_t: the dx/2 output is allocated
        # once both classes' inverse transforms (each half its size) are
        # taken and every spectrum is freed, 2.03 times the output's bytes;
        # allocated before the transforms, beside four of them, 3.03 times
        calls = []
        module = sys.modules["renyi_rearrange.levy"]
        real = module.convolve_series
        monkeypatch.setattr(module, "convolve_series",
                            lambda *args: calls.append(args) or real(*args))
        rearranged_marginal(self._spec())
        (f, g, weights), = calls
        out_bytes = real(f, g, weights).values.nbytes
        assert out_bytes == self.B
        assert _traced_peak(lambda: real(f, g, weights)) <= 2.25 * out_bytes

    def test_peak_of_an_entropy_row(self):
        # beside Z_t, one scratch array of its size per order, with no
        # mask: 1.002 B.  The log-space power sums' mask of maxima beside
        # their scratch took 1.13 B, and a log kept for every order beside
        # each power sum's scratch 2.13 B
        z_t = rearranged_marginal(self._spec())
        peak = _traced_peak(lambda: renyi_entropies(z_t, (0.0, 0.5, 1.0, 2.0, math.inf)))
        assert peak <= 1.0625 * self.B


def fold_series(f, g, weights):
    """Reference for convolve_series: term k is convolve folded k times,
    and the weighted terms, whose origins differ by multiples of dx/2, are
    summed on the dx/2 refinement, each value covering two half cells."""
    terms = [(weights[0], f)]
    for w in weights[1:]:
        terms.append((w, convolve(terms[-1][1], g)))
    half = f.dx / 2.0
    lo = min(t.x0 for _, t in terms)
    offsets = [round((t.x0 - lo) / half) for _, t in terms]
    acc = np.zeros(max(o + 2 * t.n_cells for o, (_, t) in zip(offsets, terms)))
    for o, (w, t) in zip(offsets, terms):
        term = w * t.values
        acc[o:o + 2 * t.n_cells:2] += term
        acc[o + 1:o + 2 * t.n_cells:2] += term
    return Grid1D(x0=lo, dx=half, values=acc)


def fold_marginal(spec, jump, k_max):
    """Reference marginal: the Gaussian and Poisson weights of levy's
    mixture, summed by fold_series over the law as levy snaps it."""
    return _fold(spec, _snap(jump), k_max)


def _fold(spec, law, k_max):
    """fold_series of levy's Gaussian and Poisson weights over law as given,
    normalized."""
    mu = spec.rate * spec.t
    sigma = math.sqrt(spec.a * spec.t)
    dx = law.dx
    reach = max(4, int(math.ceil(8.0 * sigma / dx)))
    gauss = gaussian_on_grid(0.0, sigma, -(reach + 0.5) * dx, dx, 2 * reach + 1)
    weights = [_poisson_pmf(k, mu) for k in range(k_max + 1)]
    return normalize(fold_series(gauss, law, weights))


def assert_same_series(ref, new):
    require_same_grid(ref, new)
    assert np.array_equal(ref.values > 0.0, new.values > 0.0)
    assert np.max(np.abs(ref.values - new.values)) <= 1e-13 * ref.max_value


def _uniform_mixture(seed, cells=512):
    return random_density(DensityGeneratorSpec(kind="uniform-mixture", seed=seed,
                                               cells=cells))


MARGINALS = (("X_t", marginal_density), ("Z_t", rearranged_marginal))


def _off_lattice_jump():
    # first midpoint 0.3 cell off the dx/2 lattice: levy snaps it
    dx = 0.05
    vals = np.linspace(1.0, 3.0, 40)
    return normalize(make_grid(0.3 * dx, dx, vals))


def _one_cell_jump():
    return make_grid(0.25, 0.05, np.array([20.0]))


def _placed_jump(first_midpoint_cells):
    # a law whose first midpoint sits a whole number of cells after -dx/2,
    # so h = 2 (x0 + dx/2) / dx is even: the terms of odd k start a whole
    # number of cells from those of even k
    law = _uniform_mixture(7, cells=128)
    return make_grid(first_midpoint_cells * law.dx, law.dx, law.values)


# (jump law, rate, a series length k or None for auto_k_max): the
# benchmark's jump laws at rate 30, the verify suite's skewed law at
# lambda t = 0.25 and 1, a gapped spiky law, a law that needs snapping, a
# one-cell law, a k beyond the automatic one (levy's auto_k_max patched to
# return it), and laws with even h = 0, -6, 4
SERIES_CASES = {
    "uniform-mixture-0-rate30": (lambda: _uniform_mixture(0), 30.0, None),
    "uniform-mixture-977-rate30": (lambda: _uniform_mixture(977), 30.0, None),
    "skewed-rate0.25": (lambda: skewed_jump(cells=512), 0.25, None),
    "skewed-rate1": (lambda: skewed_jump(cells=512), 1.0, None),
    "spiky-gapped-rate5": (lambda: random_density(DensityGeneratorSpec(
        kind="spiky-piecewise", seed=3, cells=256)), 5.0, None),
    "off-lattice-rate3": (_off_lattice_jump, 3.0, None),
    "one-cell-rate2": (_one_cell_jump, 2.0, None),
    "uniform-mixture-5-rate4-kmax20": (lambda: _uniform_mixture(5, cells=128), 4.0, 20),
    "even-h0-rate3": (lambda: _placed_jump(-0.5), 3.0, None),
    "even-h-6-rate3-kmax25": (lambda: _placed_jump(-3.5), 3.0, 25),
    "even-h4-rate2": (lambda: _placed_jump(1.5), 2.0, None),
}


def _case(case, monkeypatch):
    """The spec of a SERIES_CASES law and the last term k its marginals sum,
    levy cut there when the case names one."""
    make_jump, rate, k_max = SERIES_CASES[case]
    spec = LevySpec(a=1.0, rate=rate, jump=make_jump(), t=1.0)
    if k_max is None:
        return spec, auto_k_max(rate)
    _cut_at(monkeypatch, k_max)
    return spec, k_max


class TestSeriesContract:
    """levy calls convolve_series with at least two weights, each positive,
    and f and g on one spacing, on every SERIES_CASES law (the verify
    suite's lambda t = 0.25 and 1 among them) and at extreme means; at
    lambda t = 0 it does not call it."""

    @staticmethod
    def _check(monkeypatch, run):
        """The number of convolve_series calls while run() runs, each checked."""
        calls = []
        module = sys.modules["renyi_rearrange.levy"]
        real = module.convolve_series

        def checked(f, g, weights):
            assert len(weights) >= 2 and min(weights) > 0.0, weights
            assert same_spacing(f, g), (f.dx, g.dx)
            calls.append(len(weights))
            return real(f, g, weights)

        monkeypatch.setattr(module, "convolve_series", checked)
        run()
        return len(calls)

    @pytest.mark.parametrize("case", sorted(SERIES_CASES))
    def test_series_cases(self, case, monkeypatch):
        make_jump, rate, _ = SERIES_CASES[case]
        spec = LevySpec(a=1.0, rate=rate, jump=make_jump(), t=1.0)
        assert self._check(monkeypatch, lambda: [m(spec) for _, m in MARGINALS]) == 2

    @pytest.mark.parametrize("rate, t, calls", [
        (5e-324, 1.0, 2), (1e-300, 1.0, 2), (1e-17, 1.0, 2), (131.0, 1.0, 2),
        (0.0, 1.0, 0), (1e-200, 1e-200, 0)])  # lambda t = 0: no series
    def test_extreme_means(self, rate, t, calls, monkeypatch):
        spec = LevySpec(a=1.0, rate=rate, jump=skewed_jump(), t=t)
        assert self._check(monkeypatch, lambda: [m(spec) for _, m in MARGINALS]) == calls


class TestSeriesAgainstFold:
    @pytest.mark.parametrize("case", sorted(SERIES_CASES))
    def test_marginal_matches_fold(self, case, monkeypatch):
        spec, k = _case(case, monkeypatch)
        assert_same_series(fold_marginal(spec, spec.jump, k), marginal_density(spec))

    @pytest.mark.parametrize("case", sorted(SERIES_CASES))
    def test_rearranged_marginal_matches_fold(self, case, monkeypatch):
        # the rearranged law is centered: its first midpoint is a negative
        # multiple of its spacing plus half a cell, so terms step back by an
        # odd number of half cells
        spec, k = _case(case, monkeypatch)
        star = rearrange_1d(_snap(spec.jump))
        h = round(2.0 * star.x0 / star.dx) + 1
        assert h < 0 and h % 2 == 1
        assert_same_series(fold_marginal(spec, star, k), rearranged_marginal(spec))

    @pytest.mark.parametrize("seed", [0, 977])
    def test_half_order_reaches_only_the_roundoff_floor(self, seed):
        # a third or more of each rate-30 marginal's cells lie below 1e-15 of
        # its maximum, where the transform's roundoff is the value; h_p for
        # p < 1 weighs those cells up, so it agrees with the fold only to
        # ~1e-7, while h_0, h_1, h_2 and h_inf agree to roundoff
        jump = _uniform_mixture(seed)
        spec = LevySpec(a=1.0, rate=30.0, jump=jump, t=1.0)
        k = auto_k_max(30.0)
        pairs = [(fold_marginal(spec, jump, k), marginal_density(spec)),
                 (fold_marginal(spec, rearrange_1d(_snap(jump)), k), rearranged_marginal(spec))]
        for ref, new in pairs:
            assert abs(renyi_entropy(new, 0.5) - renyi_entropy(ref, 0.5)) <= 1e-6
            for p in (0.0, 1.0, 2.0, math.inf):
                assert abs(renyi_entropy(new, p) - renyi_entropy(ref, p)) <= 1e-11

    def test_one_weight_is_refine(self):
        # with no jumps the one Poisson weight is 1: both pure-diffusion
        # marginals keep the bytes of the refined Gaussian
        spec = LevySpec(a=1.0, rate=0.0, jump=skewed_jump(), t=1.0)
        dx = 16.0 / 1024  # sigma = 1, 8 sigma each side
        gauss = gaussian_on_grid(0.0, 1.0, -(512 + 0.5) * dx, dx, 1025)
        for _, marginal in MARGINALS:
            assert np.array_equal(marginal(spec).values, normalize(refine(gauss, 2)).values)

    def test_many_run_pairs_take_the_mask_path(self, monkeypatch):
        # 64 one-cell spikes 16 cells apart: terms 1 and 2 have 64 and 127
        # runs, and with the spikes' 64 runs these pairs outnumber the cells
        # of terms 2 and 3, whose sum sets come from the indicator FFT
        calls = []
        module = sys.modules["renyi_rearrange.convolve"]
        real = module._fft_conv
        monkeypatch.setattr(module, "_fft_conv",
                            lambda *args: calls.append(args[2]) or real(*args))
        vals = np.zeros(1024)
        vals[::16] = 1.0
        g = normalize(make_grid(0.0, 0.01, vals))
        f = normalize(make_grid(-0.02, 0.01, np.array([1.0, 2.0, 1.0])))
        weights = [0.4, 0.3, 0.2, 0.1]
        out = convolve_series(f, g, weights)
        assert len(calls) == 2
        assert_same_series(fold_series(f, g, weights), out)
        assert out.mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("first, h", [(-0.5, 0), (-3.5, -6), (1.5, 4)])
    @pytest.mark.parametrize("weights", [[0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4],
                                         [0.1, 0.25, 0.05, 0.45, 0.15]])
    def test_even_h_matches_fold(self, first, h, weights):
        # the terms of odd k sit on whole cells of those of even k
        g = _placed_jump(first)
        assert half_cell_offset(g) + 1 == h
        f = _uniform_mixture(11, cells=96)
        f = make_grid(-0.5 * g.dx * f.n_cells, g.dx, f.values)
        assert_same_series(fold_series(f, g, weights), convolve_series(f, g, weights))

    def test_validation(self):
        g = _off_lattice_jump()
        f = make_grid(-0.1, g.dx, np.full(4, 5.0))
        with pytest.raises(BadParameter, match="multiple of dx/2"):
            convolve_series(f, g, [0.5, 0.5])

    def test_output_past_the_cell_cap_is_refused(self):
        # a one-cell law 10^4 out at dx = 10^-3: two terms span 2e7 half
        # cells, which the sum would have allocated and transformed
        f = make_grid(-0.0005, 0.001, np.array([1000.0]))
        g = make_grid(1e4 - 0.0005, 0.001, np.array([1000.0]))
        tracemalloc.start()
        try:
            with pytest.raises(BadParameter, match="MAX_CELLS"):
                convolve_series(f, g, [0.5, 0.5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_run_sums_do_not_grow_with_k_max(self, monkeypatch):
        # the Gaussian window outspans the jump law's one gap, so every
        # term's support is one run read off the window's and the law's
        # hulls; no term's runs are summed from the last term's
        calls = _count_run_sums(monkeypatch)
        spec = LevySpec(a=1.0, rate=30.0, jump=_uniform_mixture(0), t=1.0)
        counts = {}
        for name, marginal in MARGINALS:
            for k in (65, 90, 130):
                _cut_at(monkeypatch, k)
                calls.clear()
                marginal(spec)
                counts[name, k] = len(calls)
        assert len(set(counts.values())) == 1, counts

    def test_transform_count_does_not_grow_with_k_max(self, monkeypatch):
        # three forward transforms (f and the jump law at two shifts) and one
        # inverse per parity class of k, all at half the length that zero
        # stuffing onto the dx/2 lattice took, and over the jump law's hull
        # alone (69120 and 34560 points with its zero margins)
        calls = []
        for name in ("rfft", "irfft"):
            real = getattr(np.fft, name)

            def counted(a, n=None, *args, _name=name, _real=real, **kwargs):
                calls.append((_name, len(a) if n is None else n))
                return _real(a, n, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        spec = LevySpec(a=1.0, rate=30.0, jump=_uniform_mixture(0), t=1.0)
        assert auto_k_max(30.0) == 65
        seen = {}
        for name, marginal in MARGINALS:
            for k in (65, 90, 130):
                _cut_at(monkeypatch, k)
                calls.clear()
                marginal(spec)
                seen[name, k] = (sorted(name for name, _ in calls), {n for _, n in calls})
        counts = ["irfft"] * 2 + ["rfft"] * 3
        assert all(names == counts for names, _ in seen.values())
        assert seen["Z_t", 65][1] == {40_000}
        assert seen["X_t", 65][1] == {32_000}


def _aligned(f):
    """f on the dx/2 lattice as levy snaps it, its zero margins kept."""
    if half_cell_offset(f) is not None:
        return f
    start = round(f.x0 / f.dx) - 1
    return project_onto(f, start * f.dx, f.dx, f.n_cells + 2)


def _marginals(case, monkeypatch):
    """The spec and series length of a SERIES_CASES law, and its X_t and Z_t,
    each with the untrimmed aligned jump law whose series it sums."""
    spec, k = _case(case, monkeypatch)
    aligned = _aligned(spec.jump)
    return spec, k, (("X_t", marginal_density(spec), aligned),
                     ("Z_t", rearranged_marginal(spec), rearrange_1d(aligned)))


class TestHull:
    """Each marginal spans its support's hull: the series is summed over the
    jump law's cells from its first positive one to its last."""

    # (X_t, Z_t) cells; with the jump laws' zero margins both seeds had
    # 68,480 and 137,088
    CELLS = {"uniform-mixture-0-rate30": (63_540, 79_628),
             "uniform-mixture-977-rate30": (51_060, 90_808)}

    @pytest.mark.parametrize("case", sorted(SERIES_CASES))
    def test_marginals_end_in_positive_cells(self, case, monkeypatch):
        _, _, marginals = _marginals(case, monkeypatch)
        for name, f, _ in marginals:
            assert f.values[0] > 0.0 and f.values[-1] > 0.0, name
        if case in self.CELLS:
            assert tuple(f.n_cells for _, f, _ in marginals) == self.CELLS[case]

    @pytest.mark.parametrize("case", sorted(SERIES_CASES))
    def test_no_mass_is_dropped(self, case, monkeypatch):
        # the fold of the untrimmed law is exactly 0 off the marginal's
        # cells, positive at its ends and the marginal on them
        spec, k, marginals = _marginals(case, monkeypatch)
        for name, f, law in marginals:
            ref = _fold(spec, law, k)
            start = round((f.x0 - ref.x0) / f.dx)
            assert abs(ref.x0 + start * f.dx - f.x0) <= 1e-9 * f.dx, name
            assert 0 <= start and start + f.n_cells <= ref.n_cells, name
            on = ref.values[start:start + f.n_cells]
            assert not ref.values[:start].any() and not ref.values[start + f.n_cells:].any(), name
            assert on[0] > 0.0 and on[-1] > 0.0, name
            assert np.max(np.abs(on - f.values)) <= 1e-13 * ref.max_value, name
