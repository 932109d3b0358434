import math
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from hardylab.funcs import PowerInside, PowerOutside, RadialProduct
from hardylab.hgroup import GroupDims, ProductSpec, koranyi_norm
from hardylab import measure
from hardylab.operators import _nested_power_norm
from hardylab.measure import (
    ROUNDING_ULPS,
    Estimate,
    GridWorkspace,
    IntegrandError,
    IntegrationError,
    chunked_mean,
    grid_workspace,
    integrate_1d,
    lp_norm,
    mc_integrate,
    radial_integral,
    TAG_EXPERIMENT,
    UnsupportedFamilyError,
    rounding_error,
    subseed,
    substream,
)

SPEC1 = ProductSpec.of_orders(1)
SPEC2 = ProductSpec.of_orders(1, 1)
D1 = GroupDims(1)


def ones(pts):
    return np.ones(pts[0].shape[0])


class TestMcIntegrate:
    def test_constant_gives_volume(self):
        est = mc_integrate(ones, SPEC1, [1.0], 10_000, seed=1)
        assert est.value == pytest.approx(math.pi**2 / 2, rel=1e-12)
        assert est.std_error == 0.0

    def test_radius_squared(self):
        est = mc_integrate(lambda p: koranyi_norm(p[0]) ** 2, SPEC1, [1.0], 200_000, seed=2)
        assert est.within(math.pi**2 / 3, sigmas=3.0)
        assert est.std_error > 0

    def test_zero(self):
        est = mc_integrate(lambda p: np.zeros(p[0].shape[0]), SPEC1, [1.0], 5_000, seed=3)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_nonfinite_reports_point(self):
        def bad(pts):
            v = np.ones(pts[0].shape[0])
            v[7] = np.nan
            return v

        with pytest.raises(IntegrandError, match="sample"):
            mc_integrate(bad, SPEC1, [1.0], 2_000, seed=4)

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            mc_integrate(ones, SPEC2, [1.0], 100, seed=0)
        with pytest.raises(ValueError):
            mc_integrate(ones, SPEC1, [-1.0], 100, seed=0)

    def test_worker_count_invariance(self):
        # mc_integrate runs on the calling thread; the nested norm is the one
        # library route whose chunks still run on a pool.  10,000 samples
        # span three of its 4096-sample chunks.
        f = PowerInside.extremal(SPEC1, 2.0, 0.1)
        a = _nested_power_norm(f, 2.0, SPEC1, 10_000, 5, inner_samples=64, workers=1)
        b = _nested_power_norm(f, 2.0, SPEC1, 10_000, 5, inner_samples=64, workers=2)
        assert a.value == b.value and a.std_error == b.std_error

    def test_linearity_common_seed(self):
        fa = lambda p: koranyi_norm(p[0]) ** 2
        fb = ones
        comb = lambda p: 2.0 * fa(p) + 3.0 * fb(p)
        ea = mc_integrate(fa, SPEC1, [1.0], 40_000, seed=6)
        eb = mc_integrate(fb, SPEC1, [1.0], 40_000, seed=6)
        ec = mc_integrate(comb, SPEC1, [1.0], 40_000, seed=6)
        assert ec.value == pytest.approx(2 * ea.value + 3 * eb.value, rel=1e-12)

    def test_product_space(self):
        est = mc_integrate(ones, SPEC2, [1.0, 2.0], 5_000, seed=7)
        want = (math.pi**2 / 2) * (math.pi**2 / 2) * 2**4
        assert est.value == pytest.approx(want, rel=1e-12)


class TestRadialIntegral:
    def test_inverse_square(self):
        got = radial_integral(lambda r: r**-2.0, D1, 1.0)
        assert got == pytest.approx(math.pi**2, rel=1e-10)

    def test_gaussian_like_tail(self):
        got = radial_integral(lambda r: np.exp(-np.minimum(r, 60.0) ** 4), D1, math.inf)
        assert got == pytest.approx(math.pi**2 / 2, rel=1e-10)

    def test_zero(self):
        assert radial_integral(lambda r: 0.0 * r, D1, 1.0) == 0.0

    @pytest.mark.parametrize("alpha", [-3.8, -3.0, -1.0, 0.0, 2.5])
    def test_power_profiles_match_closed_form(self, alpha):
        got = radial_integral(lambda r: r**alpha, D1, 1.0, tol=1e-11)
        want = D1.omega / (alpha + D1.Q)
        assert got == pytest.approx(want, rel=1e-9)

    def test_matches_scipy_on_smooth_profile(self):
        prof = lambda r: np.exp(-r) * (1 + np.sin(r) ** 2)
        got = radial_integral(prof, D1, 5.0, tol=1e-11)
        want, _ = quad(lambda r: (math.exp(-r) * (1 + math.sin(r) ** 2)) * r**3, 0, 5)
        assert got == pytest.approx(D1.omega * want, rel=1e-9)

    def test_outside_power_tail(self):
        # integral over [1, inf) of r^(-4.2) r^3 dr = 1/0.2
        got = radial_integral(lambda r: r**-4.2, D1, math.inf, lower=1.0)
        assert got == pytest.approx(D1.omega / 0.2, rel=1e-9)

    def test_budget_error_carries_residual(self):
        rng = np.random.default_rng(0)

        def noisy(r):
            return rng.normal(size=np.shape(r))

        with pytest.raises(IntegrationError) as err:
            integrate_1d(noisy, 0.0, 1.0, tol=1e-14, max_panels=64)
        assert math.isfinite(err.value.residual)

    def test_tolerance_is_relative(self):
        # an absolute floor of tol would accept any answer below 1e-10 here
        got = integrate_1d(lambda t: 1e-30 * t**0.3, 0.0, 1.0, tol=1e-10)
        assert got == pytest.approx(1e-30 / 1.3, rel=1e-10, abs=0.0)

    def test_singular_upper_endpoint_needs_no_flag(self):
        got = integrate_1d(lambda t: (1.0 - t) ** -0.9, 0.0, 1.0)
        assert got == pytest.approx(10.0, rel=1e-9)


class TestLpNorm:
    def test_indicator(self):
        f = PowerInside(SPEC1, (0.0,))
        want = math.sqrt(math.pi**2 / 2)
        assert f.lp_norm_exact(2.0) == pytest.approx(want, rel=1e-14)
        assert lp_norm(f, SPEC1, 2.0, "radial").value == pytest.approx(want, rel=1e-10)

    def test_extremal_m2_all_routes(self):
        f = PowerInside.extremal(SPEC2, 2.0, 0.1)
        want_sq = 100 * math.pi**4
        closed = f.lp_norm_exact(2.0)
        assert closed**2 == pytest.approx(want_sq, rel=1e-13)
        rad = lp_norm(f, SPEC2, 2.0, "radial")
        assert rad.value**2 == pytest.approx(want_sq, rel=1e-8)
        mc = lp_norm(f, SPEC2, 2.0, "mc", samples=60_000, seed=8)
        assert mc.within(closed, sigmas=3.0)

    def test_outside_family(self):
        f = PowerOutside.extremal(SPEC1, 2.0, 0.1)
        want_sq = 2 * math.pi**2 / 0.2
        assert f.lp_norm_exact(2.0) ** 2 == pytest.approx(want_sq, rel=1e-13)
        assert lp_norm(f, SPEC1, 2.0, "radial").value ** 2 == pytest.approx(want_sq, rel=1e-8)
        mc = lp_norm(f, SPEC1, 2.0, "mc", samples=60_000, seed=9)
        assert mc.value**2 == pytest.approx(want_sq, rel=5 * mc.std_error / mc.value + 1e-9)

    def test_zero_function(self):
        f = RadialProduct(SPEC1, (lambda r: 0.0 * r,), ((0.0, 1.0),))
        assert lp_norm(f, SPEC1, 2.0, "radial").value == 0.0

    def test_radial_vs_mc_polar_identity(self):
        f = RadialProduct(SPEC1, (lambda r: np.exp(-r),), ((0.0, 3.0),))
        rad = lp_norm(f, SPEC1, 2.0, "radial")
        mc = mc_integrate(lambda pts: f(pts) ** 2, SPEC1, [3.0], 100_000, seed=10)
        assert mc.within(rad.value**2, sigmas=3.0)

    def test_mc_needs_a_power_family(self):
        f = RadialProduct(SPEC1, (lambda r: np.exp(-r),), ((0.0, 3.0),))
        with pytest.raises(UnsupportedFamilyError, match="power families"):
            lp_norm(f, SPEC1, 2.0, "mc", samples=2_000, seed=0)

    def test_p_validation(self):
        f = PowerInside(SPEC1, (0.0,))
        with pytest.raises(ValueError):
            lp_norm(f, SPEC1, 1.0, "radial")


class TestEstimate:
    def test_exact(self):
        e = Estimate.exact(2.5)
        assert e.is_exact and e.std_error == 0.0 and e.samples == 0

    def test_ratio_propagation(self):
        a = Estimate(4.0, 0.04, 100)
        b = Estimate(2.0, 0.02, 100)
        r = a.ratio(b)
        assert r.value == 2.0
        assert r.std_error == pytest.approx(2.0 * math.hypot(0.01, 0.01), rel=1e-12)

    def test_powered(self):
        a = Estimate(4.0, 0.4, 100)
        h = a.powered(0.5)
        assert h.value == 2.0
        assert h.std_error == pytest.approx(0.5 * 4.0**-0.5 * 0.4, rel=1e-12)

    def test_substream_determinism(self):
        a = substream(42, 1, 2).random(5)
        b = substream(42, 1, 2).random(5)
        c = substream(42, 1, 3).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 5, -3, 2**63, 2**64 + 7])
    def test_subseed_matches_the_row_seed_formula(self, seed):
        # the 63-bit row seeds the experiments have always used
        for idx in (0, 1, 3 * 7 + 2, 999_000):
            ss = np.random.SeedSequence([seed & ((1 << 64) - 1), TAG_EXPERIMENT, idx])
            assert subseed(seed, TAG_EXPERIMENT, idx) == int(ss.generate_state(1, np.uint64)[0] >> 1)

    @pytest.mark.parametrize("seed", [0, 5, -3, 2**63, 2**64 + 7])
    def test_a_key_reads_flattened(self, seed):
        # a row's key extended by an estimator draws like the whole path
        want = substream(seed, TAG_EXPERIMENT, 3, 2, 11, 0).random(4)
        for key, path in ((((seed, TAG_EXPERIMENT), 3), (2, 11, 0)),
                          ((seed, (TAG_EXPERIMENT, (3, 2))), (11, 0)),
                          (((seed, TAG_EXPERIMENT, 3, 2, 11, 0),), ())):
            assert np.array_equal(substream(key, *path).random(4), want)
        assert not np.array_equal(substream((seed, TAG_EXPERIMENT), 3, 2, 11, 1).random(4), want)


def near_constant(rng, k):
    return 1.0 + 1e-9 * rng.standard_normal(k)


def constant(rng, k):
    return np.full(k, 0.2)


def all_draws(draw, samples, seed, tag, chunk_size):
    """The values chunked_mean draws, one array per chunk."""
    starts = range(0, samples, chunk_size)
    return [np.asarray(draw(substream(seed, tag, k), min(chunk_size, samples - s)))
            for k, s in enumerate(starts)]


class TestChunkedMean:
    def test_near_constant_multi_chunk_error(self):
        # a spread of 1e-9 on a mean of 1, which uncentred sums lose to cancellation
        n = 200_000
        est = chunked_mean(near_constant, n, seed=3, tag=11, chunk_size=65_536)
        vals = np.concatenate(all_draws(near_constant, n, 3, 11, 65_536))
        assert est.std_error == pytest.approx(np.std(vals) / math.sqrt(n), rel=1e-6)
        assert est.value == pytest.approx(1.0, abs=1e-11)
        assert est.samples == n

    def test_constant_multi_chunk_error_is_rounding_scale(self):
        est = chunked_mean(constant, 200_000, seed=3, tag=11, chunk_size=65_536)
        assert est.value == pytest.approx(0.2, rel=1e-15)
        assert est.std_error <= math.ulp(0.2)

    def test_mean_is_ordered_sum_of_chunk_sums(self):
        draw = lambda rng, k: rng.random(k) ** 3
        n = 150_000
        est = chunked_mean(draw, n, seed=8, tag=11, chunk_size=40_000)
        total = 0.0
        for chunk in all_draws(draw, n, 8, 11, 40_000):
            total += float(chunk.sum())
        assert est.value == total / n

    @pytest.mark.parametrize("draw", [near_constant, constant])
    def test_worker_count_invariance(self, draw):
        a = chunked_mean(draw, 150_000, seed=4, tag=11, workers=1, chunk_size=40_000)
        b = chunked_mean(draw, 150_000, seed=4, tag=11, workers=3, chunk_size=40_000)
        assert a == b

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("scale", [2.0**-560, 2.0**560], ids=["2^-560", "2^560"])
    def test_error_scales_exactly_far_from_one(self, scale, workers):
        # the squared deviations would underflow to 0 or overflow to inf,
        # and an infinite error passes any gate
        def unit(rng, k):
            return rng.random(k)

        def scaled(rng, k):
            return rng.random(k) * scale

        want = chunked_mean(unit, 150_000, seed=4, tag=11, workers=workers, chunk_size=40_000)
        got = chunked_mean(scaled, 150_000, seed=4, tag=11, workers=workers, chunk_size=40_000)
        assert got.value == want.value * scale
        assert got.std_error == want.std_error * scale


class TestGridWorkspace:
    def test_grids_are_taken_in_stack_order(self):
        # in order within a chunk, and all given back when it ends
        ws = GridWorkspace()
        a = ws.grid((4, 3))
        b = ws.grid((4, 3))
        assert not np.shares_memory(a, b)
        ws.trim()
        assert np.shares_memory(ws.grid((4, 3)), a)
        assert np.shares_memory(ws.grid((4, 3)), b)

    def test_a_smaller_grid_takes_the_front_and_a_larger_replaces(self):
        ws = GridWorkspace()
        big = ws.grid((4, 3))
        ws.trim()
        small = ws.grid((2, 3))
        assert small.flags.c_contiguous and small.base is big.base
        assert small.__array_interface__["data"] == big.__array_interface__["data"]
        ws.trim()
        assert ws.grid((5, 3)).shape == (5, 3)
        assert not np.shares_memory(ws.grid((4, 3)), big)  # the next buffer is new

    def test_a_grid_under_an_eighth_of_its_buffer_replaces_it(self):
        ws = GridWorkspace()
        big = ws.grid((16, 4))
        ws.trim()
        assert np.shares_memory(ws.grid((2, 4)), big)  # an eighth: kept
        ws.trim()
        small = ws.grid((2, 3))
        assert not np.shares_memory(small, big)
        assert small.base.size == 6

    def test_trim_drops_buffers_beyond_eight_times_the_largest_grid(self):
        ws = GridWorkspace()
        ws.grid((100, 4))
        ws.grid((100, 4))
        ws.grid((10, 4))
        ws.trim()
        assert [b.size for b in ws._buffers] == [400, 400, 40]
        ws.grid((10, 4))  # replaces the first buffer
        ws.trim()  # the second, at 10x, goes
        assert [b.size for b in ws._buffers] == [40, 40]
        ws.trim()  # no grid since the last trim: nothing is kept
        assert ws._buffers == []

    def test_concurrent_chunks_never_share_a_workspace(self, monkeypatch):
        # more threads than cores and a short switch interval: a workspace
        # handed to two chunks at once would mix their grids
        monkeypatch.setattr(measure, "_idle_workspaces", [])
        with grid_workspace() as first:
            pass
        with grid_workspace() as again:
            assert again is first  # handed back when the chunk ended

        def draw(rng, k):
            with grid_workspace() as ws:
                grid = ws.grid((k, 4))
                grid[...] = rng.random((k, 1))
                time.sleep(0)  # let another chunk run between the write and the read
                return grid.sum(axis=1)

        want = chunked_mean(draw, 64 * 40, 1, TAG_EXPERIMENT, workers=1, chunk_size=64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = chunked_mean(draw, 64 * 40, 1, TAG_EXPERIMENT, workers=6, chunk_size=64)
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert 1 <= len(measure._idle_workspaces) <= 6


class TestWithin:
    def test_zero_error_passes_at_a_few_ulp(self):
        # 1 - 0.8 is 2 ulp short of 0.2: a constant integrand's exact answer
        est = Estimate(1.0 - 0.8, 0.0, 40_000)
        assert est.value != 0.2
        assert est.within(0.2)
        assert Estimate(0.2 + 4 * math.ulp(0.2), 0.0, 40_000).within(0.2)

    def test_zero_error_fails_at_relative_1e_12(self):
        for target in (0.2, 1.0, 3.0e5):
            assert not Estimate(target * (1.0 + 1e-12), 0.0, 40_000).within(target)
            assert not Estimate(target * (1.0 - 1e-12), 0.0, 40_000).within(target)

    def test_rounding_term_scale(self):
        for x in (0.2, 1.0, 7.5e3):
            assert rounding_error(x, x) == ROUNDING_ULPS * math.ulp(x)
            assert rounding_error(x, x) <= 2e-15 * x
        assert rounding_error(0.5, -2.0) == ROUNDING_ULPS * math.ulp(2.0)

    def test_non_finite_target_never_passes(self):
        assert not Estimate(1.0, 0.0, 100).within(math.inf)
        assert not Estimate(1.0, 0.0, 100).within(math.nan)
        assert rounding_error(1.0, math.inf) == 0.0

    def test_statistical_error_still_gates(self):
        est = Estimate(1.0, 0.01, 1000)
        assert est.within(1.029)
        assert not est.within(1.031)
        assert est.tolerance(1.0) == 0.03 + rounding_error(1.0, 1.0)
