import json
import math

import numpy as np
import pytest

from hardylab.funcs import (
    Bump,
    BumpMixture,
    PowerInside,
    PowerOutside,
    RadialProduct,
    RadializedFunction,
    UnsupportedFamilyError,
    parse_test_function,
    random_bump_mixture,
)
from hardylab import funcs
from hardylab.hgroup import ProductSpec, dilate_arrays, distance, koranyi_norm
from hardylab.measure import GridWorkspace, lp_norm

SPEC1 = ProductSpec.of_orders(1)
SPEC2 = ProductSpec.of_orders(1, 1)


def value_at(f, *radii):
    """f at the point with |x_i|_h = radii[i] on each factor's first
    horizontal axis, called on one-row coordinate arrays."""
    pts = [np.array([[r] + [0.0] * (d.dim - 1)]) for d, r in zip(f.spec.factors, radii)]
    return float(f(pts)[0])


class TestEvaluate:
    def test_indicator(self):
        f = PowerInside(SPEC1, (0.0,))
        assert value_at(f, 0.5) == 1.0
        assert value_at(f, 1.5) == 0.0

    def test_inside_power_value(self):
        f = PowerInside(SPEC1, (-1.9,))
        assert value_at(f, 0.5) == pytest.approx(0.5**-1.9, rel=1e-13)

    def test_outside_power_support(self):
        f = PowerOutside(SPEC1, (3.0,))
        assert value_at(f, 0.5) == 0.0
        assert value_at(f, 2.0) == pytest.approx(2.0**-3, rel=1e-13)

    def test_product_structure(self):
        f = PowerInside(SPEC2, (-1.0, -0.5))
        assert value_at(f, 0.5, 0.25) == pytest.approx(0.5**-1 * 0.25**-0.5, rel=1e-13)
        # one factor outside kills the product
        assert value_at(f, 0.5, 1.25) == 0.0

    def test_bump_at_center(self):
        c = np.array([0.3, -0.2, 0.1])
        f = BumpMixture(SPEC1, (Bump((c,), (0.7,), 2.0),))
        assert f([c[None, :]])[0] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)
        assert value_at(f, 3.0) == 0.0

    def test_power_homogeneity(self):
        f = PowerInside(SPEC2, (-1.2, -0.3))
        lam = (0.5, 0.7)
        want = value_at(f, 0.6, 0.9) * lam[0] ** -1.2 * lam[1] ** -0.3
        assert value_at(f, lam[0] * 0.6, lam[1] * 0.9) == pytest.approx(want, rel=1e-12)


class TestClosedNorms:
    def test_extremal_inside(self):
        f = PowerInside.extremal(SPEC2, 2.0, 0.1)
        assert f.lp_norm_exact(2.0) ** 2 == pytest.approx(100 * math.pi**4, rel=1e-13)

    def test_extremal_outside(self):
        f = PowerOutside.extremal(SPEC2, 2.0, 0.1)
        assert f.lp_norm_exact(2.0) ** 2 == pytest.approx(100 * math.pi**4, rel=1e-13)

    def test_indicator_is_volume(self):
        f = PowerInside(SPEC1, (0.0,))
        assert f.lp_norm_exact(2.0) ** 2 == pytest.approx(math.pi**2 / 2, rel=1e-14)

    def test_infinite_norm_rejected(self):
        f = PowerInside(SPEC1, (-2.5,))  # alpha*p + Q = -1 < 0
        with pytest.raises(ValueError, match="norm infinite"):
            f.lp_norm_exact(2.0)
        g = PowerOutside(SPEC1, (1.5,))  # beta*p - Q = -1 < 0
        with pytest.raises(ValueError, match="norm infinite"):
            g.lp_norm_exact(2.0)

    def test_unsupported_family(self):
        f = RadialProduct(SPEC1, (lambda r: r,), ((0.0, 1.0),))
        with pytest.raises(UnsupportedFamilyError):
            f.lp_norm_exact(2.0)

    def test_agreement_with_quadrature_and_mc(self):
        f = PowerInside(SPEC1, (-1.3,))
        want = f.lp_norm_exact(2.5)
        rad = lp_norm(f, SPEC1, 2.5, "radial")
        assert rad.value == pytest.approx(want, rel=1e-8)
        mc = lp_norm(f, SPEC1, 2.5, "mc", samples=60_000, seed=3)
        assert mc.within(want, sigmas=3.0)


class TestRadialize:
    def test_fixes_radial_functions(self):
        f = RadialProduct(SPEC1, (lambda r: r,), ((0.0, math.inf),))
        gf = RadializedFunction(f, inner_samples=5_000, seed=1)
        assert value_at(gf, 0.7) == pytest.approx(0.7, rel=1e-12)

    def test_kills_odd_parts(self):
        class OddPart(funcs.TestFunction):
            spec = SPEC1

            def __call__(self, pts):
                X = pts[0]
                return 1.0 + X[:, 0] * np.cos(koranyi_norm(X))

        samples = 60_000
        gf = RadializedFunction(OddPart(), inner_samples=samples, seed=2)
        # |X_0 cos| <= |x|_h = 0.9 bounds the spread of the odd part a priori
        assert abs(value_at(gf, 0.9) - 1.0) <= 3.0 * 0.9 / math.sqrt(samples)

    def test_radialized_function_is_deterministic(self):
        f = random_bump_mixture(SPEC1, np.random.default_rng(5))
        gf = RadializedFunction(f, inner_samples=16, seed=9)
        pts = [np.random.default_rng(0).normal(size=(64, 3))]
        a = gf([p.copy() for p in pts])
        b = gf([p.copy() for p in pts])
        assert np.array_equal(a, b)

    def test_product_space_radialization(self):
        f = RadialProduct(SPEC2, (lambda r: r, lambda r: r**2), ((0.0, math.inf),) * 2)
        gf = RadializedFunction(f, inner_samples=4_000, seed=3)
        assert value_at(gf, 0.5, 2.0) == pytest.approx(0.5 * 4.0, rel=1e-10)


class TestParsing:
    def test_power_forms(self):
        f = parse_test_function("power-inside:-1.9,-1.9", SPEC2)
        assert isinstance(f, PowerInside) and f.alphas == (-1.9, -1.9)

    def test_bumps_file(self, tmp_path):
        data = [
            {"centers": [[0.1, 0.0, 0.0]], "radii": [0.5], "coefficient": 0.7},
            {"centers": [[0.0, 0.2, 0.0]], "radii": [0.3], "coefficient": 0.2},
        ]
        path = tmp_path / "bumps.json"
        path.write_text(json.dumps(data))
        f = parse_test_function(f"bumps:{path}", SPEC1)
        assert isinstance(f, BumpMixture) and len(f.bumps) == 2
        assert f.bumps[0].coefficient == 0.7

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            parse_test_function("wavelet:3", SPEC1)

    def test_bump_radii_validation(self):
        with pytest.raises(ValueError):
            Bump((np.zeros(3),), (0.0,), 1.0)

    def test_bump_centre_validation(self, tmp_path):
        path = tmp_path / "bumps.json"
        for centers, message in (
            ([[1.0, 1.0, 1.0, 1.0]], r"\['centers'\] must have 2n\+1 coordinates"),
            ([[1.0, math.inf, 0.0]], r"\['centers'\]\[0\] must be a list of finite numbers"),
            ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], r"\['centers'\] must list one point per factor"),
        ):
            path.write_text(json.dumps([{"centers": centers, "radii": [0.5], "coefficient": 1.0}]))
            with pytest.raises(ValueError, match=rf"bumps file .*bumps\.json\[0\]{message}"):
                parse_test_function(f"bumps:{path}", SPEC1)


class TestRandomMixtures:
    def test_generator_ranges(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = random_bump_mixture(SPEC2, rng)
            assert 1 <= len(f.bumps) <= 5
            for b in f.bumps:
                assert all(0.1 <= r <= 1.0 for r in b.radii)
                assert 0.1 <= b.coefficient <= 1.0
                assert all(koranyi_norm(c) < 2.0 for c in b.centers)

    def test_support_bound_holds(self):
        rng = np.random.default_rng(12)
        f = random_bump_mixture(SPEC1, rng)
        S = f.support_radii()[0]
        pts = [np.random.default_rng(1).normal(scale=3.0, size=(5_000, 3))]
        vals = f(pts)
        outside = koranyi_norm(pts[0]) > S
        assert np.all(vals[outside] == 0.0)

    def test_values_and_envelope_match_a_per_bump_loop(self):
        rng = np.random.default_rng(14)
        f = BumpMixture(SPEC2, tuple(
            Bump(tuple(rng.normal(scale=0.2, size=(2, 3))), tuple(rng.uniform(0.5, 1.0, 2)), c)
            for c in (1.0, -0.5, 0.3)
        ))
        pts = [rng.normal(scale=0.8, size=(4_000, 3)) for _ in range(2)]
        values, envelope = f.values_and_envelope(pts)
        loop = np.zeros(4_000)
        overlap = np.zeros(4_000)
        for bump in f.bumps:
            psi = np.ones(4_000)
            for center, radius, X in zip(bump.centers, bump.radii, pts):
                s = distance(X, center) / radius
                psi *= _masked_bump_profile(s)
            loop += abs(bump.coefficient) * psi
            overlap += psi > 0
        np.testing.assert_allclose(envelope, loop, rtol=1e-14, atol=0.0)
        assert overlap.max() >= 2  # the overlapping bumps are exercised
        assert np.array_equal(values, f(pts))
        assert np.all(np.abs(values) <= envelope) and np.any(np.abs(values) < envelope)


def _masked_bump_profile(s):
    """The profile as it was first written, with a boolean mask."""
    out = np.zeros_like(s)
    mask = s < 1.0
    out[mask] = np.exp(-1.0 / (1.0 - s[mask] ** 2))
    return out


class TestBumpProfile:
    def test_bit_identical_to_the_masked_form(self):
        edges = np.array([0.0, 5e-324, 1e-300, 1e-8, 0.5, np.nextafter(1.0, 0.0), 1.0,
                          np.nextafter(1.0, 2.0), 2.0, 1e300, np.inf])
        rng = np.random.default_rng(21)
        for s in (edges, rng.uniform(0.0, 1.2, 100_000), rng.uniform(0.999, 1.001, 100_000)):
            with np.errstate(over="ignore"):  # 1e300 squared
                u = s * s
            assert np.array_equal(funcs._bump_profile(u), _masked_bump_profile(s))

    def test_nan_distance_gives_nan(self):
        out = funcs._bump_profile(np.array([0.25, np.nan, 4.0]))
        assert out[0] == _masked_bump_profile(np.array([0.5]))[0]
        assert np.isnan(out[1]) and out[2] == 0.0


class TestBumpProposal:
    """The law a bump mixture is sampled from: the radial law of one bump
    and the envelope under which it is drawn."""

    @pytest.mark.parametrize("Q", [4, 6])
    def test_radial_law_matches_the_quadrature_cdf(self, Q):
        from scipy.integrate import quad
        from scipy.stats import kstest

        def target(s):
            return math.exp(-1.0 / (1.0 - s * s)) * s ** (Q - 1) if s < 1.0 else 0.0

        M = quad(target, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert funcs._bump_radial_law(Q)[0] == pytest.approx(M, rel=1e-13)
        s = funcs.sample_bump_radii(Q, np.random.default_rng(40 + Q), 20_000)
        assert s.shape == (20_000,) and 0.0 < s.min() and s.max() < 1.0

        def cdf(x):
            return np.array([quad(target, 0.0, min(v, 1.0), epsabs=0.0, epsrel=1e-12)[0]
                             for v in np.atleast_1d(x)]) / M

        assert kstest(s, cdf).pvalue > 1e-3
        # the mean and the second moment, against quadrature, at 4 sigma
        for power in (1, 2):
            want = quad(lambda v: v**power * target(v), 0.0, 1.0, epsrel=1e-12)[0] / M
            se = np.std(s**power) / math.sqrt(s.size)
            assert abs(np.mean(s**power) - want) < 4.0 * se

    @pytest.mark.parametrize("Q", [4, 6, 8])
    def test_envelope_bounds_the_target_on_every_cell(self, Q):
        M, lower, width, height = funcs._bump_radial_law(Q)
        # the cells tile [0, 1] and hold equal envelope mass
        assert lower[0] == 0.0 and np.all(width > 0.0)
        np.testing.assert_allclose(lower[1:], (lower + width)[:-1], rtol=0.0, atol=1e-15)
        assert lower[-1] + width[-1] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(height * width, M / funcs._RADIAL_CELLS, rtol=1e-12)
        s = lower[:, None] + width[:, None] * np.linspace(0.0, 1.0, 2001)[None, :]
        s = np.minimum(s, np.nextafter(1.0, 0.0))
        target = funcs._radial_target(s.ravel(), Q).reshape(s.shape)
        assert np.all(target <= height[:, None])
        # tight: the envelope holds no more than 1/0.9 of the target's mass
        assert np.sum(height * width) < M / 0.9

    def test_masses_are_the_bump_integrals(self):
        # |c| times the integral of the product profile, here by radial
        # quadrature in each factor about the centre
        from scipy.integrate import quad

        bump = Bump((np.array([0.3, -0.1, 0.2]), np.array([0.0, 0.5, 0.0, 0.1, 0.0])),
                    (0.6, 0.8), -0.7)
        spec = ProductSpec.of_orders(1, 2)
        f = BumpMixture(spec, (bump,))
        want = 0.7
        for d, r in zip(spec.factors, bump.radii):
            want *= d.omega * quad(lambda t: math.exp(-1.0 / (1.0 - (t / r) ** 2)) * t ** (d.Q - 1)
                                   if t < r else 0.0, 0.0, r, epsabs=0.0, epsrel=1e-12)[0]
        assert f.bump_masses() == pytest.approx([want], rel=1e-11)


class TestOnDilations:
    @pytest.mark.parametrize("orders", [(1,), (2,), (3,), (1, 1), (2, 3)])
    def test_mixture_grid_matches_the_base_grid(self, orders):
        spec = ProductSpec.of_orders(*orders)
        rng = np.random.default_rng(23 + sum(orders))
        f = random_bump_mixture(spec, rng, radius_range=(0.5, 1.0), center_radius=0.5)
        k, K = 300, 9
        pts = [rng.normal(scale=0.4, size=(k, d.dim)) for d in spec.factors]
        # shared nodes, the scales themselves; and the adjoint pairing's
        # windows, at the materialized scales 1/(lo + (1 - lo) sigma) >= 1,
        # on points nearer the origin so that the grid still meets the bumps
        nodes = [rng.uniform(0.05, 2.0, K) for _ in spec.factors]
        sigma = [rng.uniform(0.0, 1.0, K) for _ in spec.factors]
        starts = [rng.uniform(0.0, 1.0, k) for _ in spec.factors]
        windows = [1.0 / (lo[:, None] + (1.0 - lo)[:, None] * s) for lo, s in zip(starts, sigma)]
        for pts, scales, nodes, starts in ((pts, nodes, nodes, None),
                                           ([0.5 * X for X in pts], windows, sigma, starts)):
            fused = f.on_dilations(pts, scales, nodes, starts, GridWorkspace())
            base = funcs.TestFunction.on_dilations(f, pts, scales, nodes, starts, GridWorkspace())
            assert fused.shape == base.shape == (k, K)
            assert np.count_nonzero(base) > k  # the grid meets the bumps
            assert np.max(np.abs(fused - base)) <= 1e-13 * np.max(np.abs(base))

    # the two bumps of tools/probes.py: centres (0.1, -0.2, 0.05) and
    # (-0.3, 0.2, 0.1), radii 0.7 and 0.5
    TWO_BUMPS = BumpMixture(SPEC1, (
        Bump((np.array([0.1, -0.2, 0.05]),), (0.7,), 1.0),
        Bump((np.array([-0.3, 0.2, 0.1]),), (0.5,), 0.6),
    ))

    def test_grid_points_outside_every_ball_are_zero(self):
        # row 0 meets the first bump; row 1 dilates to (3s, 0, 0), at
        # horizontal distance above 2.4 from both centres for s >= 1
        pts = [np.array([[0.1, -0.2, 0.05], [3.0, 0.0, 0.0]])]
        nodes = [np.linspace(1.0, 2.0, 5)]
        got = self.TWO_BUMPS.on_dilations(pts, nodes, nodes, None, GridWorkspace())
        assert got[0, 0] > 0.0
        assert np.all(got[1] == 0.0)

    def test_grid_point_at_a_centre_gives_the_peak(self):
        # delta_2 delta_{1/2} c = c exactly; the first bump's peak is
        # coefficient * e^-1, and the second centre is 0.57 away, beyond its radius 0.5
        c = self.TWO_BUMPS.bumps[0].centers[0]
        pts = [dilate_arrays(0.5, c, 1)[None, :]]
        nodes = [np.array([2.0])]
        got = self.TWO_BUMPS.on_dilations(pts, nodes, nodes, None, GridWorkspace())
        assert got[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_empty_mixture_grid_is_zero(self):
        f = BumpMixture(SPEC2, ())
        pts = [np.ones((4, 3)), np.ones((4, 3))]
        nodes = [np.linspace(0.1, 1.0, 5), np.ones(5)]
        starts = [np.zeros(4), np.full(4, 0.5)]
        got = f.on_dilations(pts, [1.0 / (lo[:, None] + (1.0 - lo)[:, None] * s)
                                   for lo, s in zip(starts, nodes)], nodes, starts, GridWorkspace())
        assert got.shape == (4, 5) and not got.any()

    @pytest.mark.parametrize("spec", [SPEC1, ProductSpec.of_orders(1, 2)])
    def test_base_grid_is_dilate_then_call(self, spec):
        # bit for bit on both power families; the outside one at the inverse
        # scales, as the adjoint pairing dilates, so that the grid meets it
        rng = np.random.default_rng(22)
        k, K = 50, 7
        pts = [rng.normal(scale=0.4, size=(k, d.dim)) for d in spec.factors]
        scales = [rng.uniform(0.1, 2.0, K), rng.uniform(0.1, 2.0, (k, K))][: spec.m]
        for f, sc in ((PowerInside.extremal(spec, 2.0, 0.4), scales),
                      (PowerOutside.extremal(spec, 2.0, 0.4), [1.0 / s for s in scales])):
            got = funcs.TestFunction.on_dilations(f, pts, sc, None, None, GridWorkspace())
            assert got.shape == (k, K)
            assert np.count_nonzero(got[:, [0, K - 1]]) > 0
            for a in range(k):
                for b in (0, K - 1):
                    s = [np.broadcast_to(s, (k, K))[a, b] for s in sc]
                    want = f([dilate_arrays(s_i, X[a][None], d.n)
                              for s_i, X, d in zip(s, pts, spec.factors)])[0]
                    assert got[a, b] == want

    @pytest.mark.parametrize("spec", [SPEC1, ProductSpec.of_orders(1, 2)])
    def test_power_grids_scale_the_norms(self, spec):
        # |delta_s x| = s |x|: the power families' grids match the base grid
        # to rounding, and the indicator's support to the bit away from its edge
        rng = np.random.default_rng(24)
        k, K = 400, 9
        pts = [rng.normal(scale=0.4, size=(k, d.dim)) for d in spec.factors]
        scales = [rng.uniform(0.1, 2.0, K), rng.uniform(0.1, 2.0, (k, K))][: spec.m]
        for f, sc in ((PowerInside.extremal(spec, 2.0, 0.4), scales),
                      (PowerInside(spec, (0.0,) * spec.m), scales),
                      (PowerOutside.extremal(spec, 2.0, 0.4), [1.0 / s for s in scales])):
            got = f.on_dilations(pts, sc, None, None, GridWorkspace())
            want = funcs.TestFunction.on_dilations(f, pts, sc, None, None, GridWorkspace())
            assert got.shape == want.shape == (k, K)
            assert np.count_nonzero(want) > k and np.array_equal(got == 0.0, want == 0.0)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
