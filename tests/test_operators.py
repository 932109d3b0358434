import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hardylab import closedform as cf
from hardylab import funcs
from hardylab import measure
from hardylab import operators as ops
from hardylab.funcs import (
    Bump,
    BumpMixture,
    PowerInside,
    PowerOutside,
    random_bump_mixture,
)
from hardylab.hgroup import GroupDims, ProductSpec, dilate_arrays, distance, koranyi_norm
from hardylab.measure import (
    TAG_EXPERIMENT,
    TAG_NESTED,
    GridWorkspace,
    chunked_mean,
    subseed,
    substream,
)

SPEC1 = ProductSpec.of_orders(1)
SPEC2 = ProductSpec.of_orders(1, 1)
D1 = GroupDims(1)


def image(f, c, adjoint, R):
    """The image R^e G(R) of f's profile under the kernel t^c, from
    `_image_profile`."""
    (F, a, b), = f.radial_profiles()
    e, G = ops._image_profile(F, a, b, c, adjoint, 1e-10)
    return R**e * G(R)


def ball_average(f, R):
    """The ball average over B(0, R): Q times the image with c = Q - 1."""
    return D1.Q * image(f, D1.Q - 1.0, False, R)


class TestHardyEval:
    def test_constant_average_is_one(self):
        f = PowerInside(SPEC1, (0.0,))
        mc = ops.hardy_eval(f, [0.5], samples=2_000, seed=1)
        assert mc.value == pytest.approx(1.0, rel=1e-12)

    def test_power_hand_value(self):
        f = PowerInside(SPEC1, (-1.0,))
        want = 8 / 3
        assert ball_average(f, np.array([0.5]))[0] == pytest.approx(want, rel=1e-9)
        mc = ops.hardy_eval(f, [0.5], samples=100_000, seed=2)
        assert mc.within(want, sigmas=3.0)

    def test_saturated_average(self):
        f = PowerInside(SPEC1, (-1.0,))
        assert ball_average(f, np.array([2.0]))[0] == pytest.approx(1 / 12, rel=1e-9)

    def test_zero_radius_rejected(self):
        f = PowerInside(SPEC1, (0.0,))
        for r in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="radii must be positive"):
                ops.hardy_eval(f, [r])
        with pytest.raises(ValueError, match="expected 1 radii"):
            ops.hardy_eval(f, [0.5, 0.5])

    def test_product_space(self):
        f = PowerInside(SPEC2, (-1.0, 0.0))
        mc = ops.hardy_eval(f, [0.5, 0.5], samples=100_000, seed=3)
        assert mc.within(8 / 3, sigmas=3.0)

    def test_monotone_under_pointwise_ordering(self):
        rng = np.random.default_rng(5)
        f = random_bump_mixture(SPEC1, rng)
        extra = random_bump_mixture(SPEC1, rng)
        g = BumpMixture(SPEC1, f.bumps + extra.bumps)  # g >= f pointwise
        a = ops.hardy_eval(f, [1.2], samples=20_000, seed=6)
        b = ops.hardy_eval(g, [1.2], samples=20_000, seed=6)
        assert a.value <= b.value + 1e-15  # common points: exact per-sample order

    def test_dilation_covariance(self):
        f = random_bump_mixture(SPEC1, np.random.default_rng(7))
        lam = 1.7
        # f o delta_lam is the mixture with centres delta_{1/lam} c and radii r/lam
        g = BumpMixture(SPEC1, tuple(
            Bump(tuple(dilate_arrays(1 / lam, c, 1) for c in bump.centers),
                 tuple(r / lam for r in bump.radii), bump.coefficient)
            for bump in f.bumps
        ))
        pts = [np.random.default_rng(8).normal(scale=0.5, size=(64, 3))]
        assert np.allclose(g(pts), f([dilate_arrays(lam, pts[0], 1)]), rtol=1e-12, atol=0.0)
        a = ops.hardy_eval(g, [0.9], samples=40_000, seed=8)
        b = ops.hardy_eval(f, [lam * 0.9], samples=40_000, seed=9)
        se = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) <= 3 * se + 1e-12


class TestPowerFamiliesArePinned:
    """Both pairings on the power families, whose dilation grids scale the
    per-point norms, pinned as hex floats.  The m = 2 adjoint value moved by
    1 ulp when the grids stopped dilating the points, and by 1 ulp again,
    from 0x1.d90d76d8bd954p+3 to 0x1.d90d76d8bd953p+3, when the adjoint
    kernel became one power t^(a - Q) in place of t^a divided by t^Q, which
    rounds differently.  When the dilation rule came to be sized by its pilot,
    both Hardy values moved, by -1.5e-4 relative at m = 1 (from
    0x1.b9024cc961fedp+1) and +3.4e-4 at m = 2 (from 0x1.dde3a08f80fadp+4),
    0.010 and 0.009 of their standard errors; the pilot kept the fixed rule
    for both adjoint values."""

    @staticmethod
    def _values(spec):
        m = spec.m
        ind = PowerInside(spec, (0.0,) * m)
        fin = PowerInside.extremal(spec, 2.0, 0.4)
        fout = PowerOutside.extremal(spec, 2.0, 0.4)
        phi = ops.MonomialWeight((3.0,) * m)
        out = [
            ops.pairing_weighted_hardy(ind, fin, phi, spec, samples=3000, seed=4).value,
            ops.pairing_weighted_cesaro(ind, fout, phi, spec, 2.0, samples=3000, seed=4).value,
        ]
        return [float(v).hex() for v in out]

    def test_m1(self):
        assert self._values(SPEC1) == ["0x1.b8f1a3458cc5ap+1", "0x1.072c5b37b5b85p+1"]

    def test_m2(self):
        assert self._values(ProductSpec.of_orders(1, 2)) == [
            "0x1.de0d3e9c1f92fp+4", "0x1.d90d76d8bd953p+3",
        ]

    @staticmethod
    def _norms(spec):
        """The exact, radial and Monte Carlo L^2.5 norms of both extremal
        families; no probe runs the outside family's Monte Carlo norm."""
        out = []
        for f in (PowerInside.extremal(spec, 2.5, 0.3), PowerOutside.extremal(spec, 2.5, 0.45)):
            out += [f.lp_norm_exact(2.5), measure.lp_norm(f, spec, 2.5, "radial").value,
                    measure.lp_norm(f, spec, 2.5, "mc", samples=4000, seed=6).value]
        return [float(v).hex() for v in out]

    def test_norms_m1(self):
        assert self._norms(SPEC1) == [
            "0x1.d97f449bab5a2p+1", "0x1.d97f449b591ecp+1", "0x1.d9bc57063c87fp+1",
            "0x1.929b482230867p+1", "0x1.929b482250c68p+1", "0x1.92cf35cfdafefp+1",
        ]

    def test_norms_m2(self):
        assert self._norms(ProductSpec.of_orders(1, 2)) == [
            "0x1.20e64472af685p+4", "0x1.20e644724b0fcp+4", "0x1.208895a1612f5p+4",
            "0x1.a1bcdef6c8747p+3", "0x1.a1bcdef70b612p+3", "0x1.a13568b661466p+3",
        ]


class TestWeightBoundIntegral:
    def test_monomial_values(self):
        assert ops.weight_bound_integral(ops.MonomialWeight((3.0,)), 2.0, SPEC1, "hardy") == 0.5
        assert ops.weight_bound_integral(ops.MonomialWeight((3.0, 3.0)), 2.0, SPEC2, "hardy") == 0.25
        assert ops.weight_bound_integral(ops.MonomialWeight((3.0,)), 2.0, SPEC1, "cesaro") == 0.5
        assert ops.weight_bound_integral(ops.MonomialWeight((0.0,)), 2.0, SPEC1, "cesaro") == math.inf

    def test_general_weight_numeric(self):
        gw = ops.GeneralWeight([lambda t: t**3])
        got = ops.weight_bound_integral(gw, 2.0, SPEC1, "hardy")
        assert got == pytest.approx(0.5, rel=1e-8)
        flat = ops.GeneralWeight([np.ones_like])
        assert ops.weight_bound_integral(flat, 2.0, SPEC1, "cesaro") == math.inf

    def test_general_weight_matches_monomial_at_m2(self):
        # the general weight takes the per-factor quadrature, the monomial its closed form
        gen = ops.GeneralWeight([lambda t: t**3] * 2)
        mono = ops.MonomialWeight((3.0, 3.0))
        for kind in ("hardy", "cesaro"):
            assert ops.weight_bound_integral(mono, 2.0, SPEC2, kind) == 0.25
            assert ops.weight_bound_integral(gen, 2.0, SPEC2, kind) == pytest.approx(0.25, rel=1e-8)

    TABLES = [{"t": [0, 0.25, 0.5, 1], "values": [0, 0, 0.2, 1]},
              {"t": [0, 0.3, 0.6, 1], "values": [0, 0, 0.5, 1]},
              {"t": [0, 0.2, 0.7, 1], "values": [0, 0, 0.4, 0.7]}]

    @pytest.mark.parametrize("m", [2, 3])
    def test_table_weight_is_a_product_of_factor_integrals(self, tmp_path, m):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"factors": self.TABLES[:m]}))
        phi = ops.parse_weight(f"table:{path}", m)
        spec = ProductSpec.of_orders(*(1,) * m)
        for kind, e in (("hardy", 4 / 3), ("cesaro", 4 * (1 - 1 / 3))):  # Q = 4, p = 3
            want = 1.0
            for tab in self.TABLES[:m]:
                want *= quad(lambda t, tab=tab: np.interp(t, tab["t"], tab["values"]) * t**-e,
                             0.0, 1.0, points=tab["t"][1:-1], epsabs=0.0, epsrel=1e-12)[0]
            assert ops.weight_bound_integral(phi, 3.0, spec, kind) == pytest.approx(want, rel=1e-8)

    def test_table_factor_nonzero_at_zero_is_unbounded(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"factors": [self.TABLES[0], {"t": [0, 1], "values": [1, 1]}]}))
        phi = ops.parse_weight(f"table:{path}", 2)
        for kind in ("hardy", "cesaro"):
            assert ops.weight_bound_integral(phi, 2.0, SPEC2, kind) == math.inf

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            ops.weight_bound_integral(ops.MonomialWeight((1.0,)), 2.0, SPEC1, "other")


class TestNormQuotient:
    def test_indicator_sqrt2(self):
        f = PowerInside(SPEC1, (0.0,))
        rad = ops.norm_quotient(f, 2.0, SPEC1, method="radial")
        assert rad.value == pytest.approx(math.sqrt(2), rel=1e-8)
        mc = ops.norm_quotient(f, 2.0, SPEC1, method="mc", samples=60_000, seed=11)
        assert mc.within(math.sqrt(2), sigmas=3.0)

    def test_extremal_routes_agree(self):
        f = PowerInside.extremal(SPEC1, 2.0, 0.1)
        closed = ops.norm_quotient(f, 2.0, SPEC1, method="closed")
        assert closed.value == pytest.approx(cf.power_family_quotient(0.1, 2.0, SPEC1), rel=1e-14)
        rad = ops.norm_quotient(f, 2.0, SPEC1, method="radial")
        assert rad.value == pytest.approx(closed.value, rel=1e-7)
        mc = ops.norm_quotient(f, 2.0, SPEC1, method="mc", samples=50_000, seed=12, inner_samples=512)
        assert mc.within(closed.value, sigmas=3.5)

    def test_bump_quotient_below_sharp(self):
        f = random_bump_mixture(SPEC1, np.random.default_rng(13))
        q = ops.norm_quotient(f, 2.0, SPEC1, method="mc", samples=40_000, seed=13)
        assert q.value < 2.0

    def test_compact_estimate_is_deterministic(self):
        # the replicates run in index order on the calling thread; the CLI's
        # byte identity across --workers is test_cli's
        f = random_bump_mixture(SPEC2, np.random.default_rng(15))
        runs = [ops._hardy_norm_compact(f, 2.0, SPEC2, 8_000, seed=15) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0].std_error > 0.0

    def test_centred_control_has_no_corner_tail(self):
        # C5's control, one centred bump, at p = 3, m = 2, whose quotient the
        # radial route gives as 1.746874: a point near the origin in both
        # factors must not stand alone in its corner of the node grid, where
        # that one term raised to the p-th power reaches past the sharp
        # constant 2.25.  With per-factor counts every estimate stays within
        # 10% (about 5 sd)
        control = BumpMixture(SPEC2, (Bump((np.zeros(3), np.zeros(3)), (1.0, 1.0), 1.0),))
        q = [ops._hardy_norm_compact(control, 3.0, SPEC2, 20_000, seed=s).value for s in range(40)]
        assert np.all(np.abs(np.asarray(q) / 1.746874 - 1.0) < 0.1)

    @pytest.mark.parametrize("spec", [SPEC1, SPEC2], ids=["m1", "m2"])
    def test_compact_errors_are_calibrated(self, spec):
        # 60 seeds at 6,000 samples, p = 2: the spread of the estimates over
        # the rms of their reported errors.  The bounds [0.7, 1.4] were fixed
        # before any run: for normal replicate quotients its square follows
        # F(59, 900), so each mixture reads outside them with probability
        # 4.7e-4 (3.7e-5 above, 4.3e-4 below), 9.3e-4 for the two
        f = random_bump_mixture(spec, np.random.default_rng(9000))
        est = [ops._hardy_norm_compact(f, 2.0, spec, 6_000, seed=s) for s in range(60)]
        sd = np.std([e.value for e in est], ddof=1)
        rms = math.sqrt(np.mean([e.std_error**2 for e in est]))
        assert 0.7 <= sd / rms <= 1.4

    def test_compact_rule_is_the_two_panel_rule(self):
        # the compact estimator's rule on [0, S], S * _axis_rule(64, (0.5,)),
        # against the two hand-mapped 32-node panels split at S/2
        gx, gw = np.polynomial.legendre.leggauss(32)
        t, tw = ops._axis_rule(64, (0.5,))
        for s in np.random.default_rng(25).uniform(0.2, 4.0, 200):
            panels = [(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in ((0.0, 0.5 * s), (0.5 * s, s))]
            x = np.concatenate([mid + half * gx for mid, half in panels])
            w = np.concatenate([half * gw for _, half in panels])
            assert (s * tw).tobytes() == w.tobytes()
            assert np.max(np.abs(s * t - x)) <= 2.0 * np.spacing(s)

    @settings(max_examples=200, deadline=None)
    @given(s=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 2**32 - 1))
    def test_node_index_is_searchsorted(self, s, seed):
        # the compact binning's table lookup against searchsorted: random
        # radii, every node and both of its float neighbours, 0, S and 10 S,
        # and the non-finite radii that searchsorted puts past the last node
        nodes = s * ops._axis_rule(64, (0.5,))[0]
        r = np.concatenate([
            np.random.default_rng(seed).uniform(0.0, 1.2 * s, 500),
            nodes, np.nextafter(nodes, 0.0), np.nextafter(nodes, np.inf),
            [0.0, s, 10.0 * s, np.inf, np.nan],
        ])
        got = ops._node_index(nodes)(r)
        assert got.tobytes() == np.searchsorted(nodes, r, side="left").tobytes()

    def test_nested_mc_refuses_fractional_p(self):
        # a single inner mean raised to a fractional power is biased upward
        f = PowerInside.extremal(SPEC1, 1.5, 0.1)
        with pytest.raises(ValueError, match="closed or radial"):
            ops.norm_quotient(f, 1.5, SPEC1, method="mc")

    def test_zero_norm_rejected(self):
        zero = BumpMixture(SPEC1, ())
        with pytest.raises(ValueError, match="zero norm|vanishes"):
            ops.norm_quotient(zero, 2.0, SPEC1, method="mc", samples=2_000, seed=0)

    def test_compact_estimator_takes_bump_mixtures_only(self):
        f = funcs.RadialProduct(SPEC1, (lambda r: np.exp(-r),), ((0.0, 3.0),))
        with pytest.raises(funcs.UnsupportedFamilyError):
            ops._hardy_norm_compact(f, 2.0, SPEC1, 2_000, seed=0)

    @pytest.mark.parametrize("bumps", [
        (),
        (Bump((np.zeros(3),), (0.5,), 0.0), Bump((np.ones(3),), (0.3,), 0.0)),
    ], ids=["empty", "zero-coefficients"])
    def test_zero_mass_is_refused_before_any_draw(self, bumps, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("a zero-mass mixture was sampled")

        monkeypatch.setattr(ops, "sample_ball", draw)
        monkeypatch.setattr(ops, "sample_bump_radii", draw)
        with pytest.raises(ValueError, match="^zero norm: the function vanishes on its sample$"):
            ops._hardy_norm_compact(BumpMixture(SPEC1, bumps), 2.0, SPEC1, 2_000, seed=0)

    def test_weighted_quotient_routes(self):
        f = PowerOutside.extremal(SPEC1, 2.0, 0.1)
        phi = ops.MonomialWeight((3.0,))
        closed = cf.weighted_power_quotient(f.betas, phi.exponents, 2.0, SPEC1)
        rad = ops.norm_quotient(f, 2.0, SPEC1, operator="weighted-hardy", phi=phi,
                                method="radial", tol=1e-9)
        assert closed == pytest.approx(cf.weighted_family_quotient([3.0], 0.1, 2.0, SPEC1), rel=1e-14)
        assert rad.value == pytest.approx(closed, rel=1e-7)
        with pytest.raises(ValueError, match="not supported for weighted quotients"):
            ops.norm_quotient(f, 2.0, SPEC1, operator="weighted-hardy", phi=phi, method="closed")

    def test_cesaro_quotient_routes(self):
        f = PowerOutside.extremal(SPEC1, 2.0, 0.1)
        phi = ops.MonomialWeight((3.0,))
        closed = cf.cesaro_power_quotient(f.betas, phi.exponents, 2.0, SPEC1)
        rad = ops.norm_quotient(f, 2.0, SPEC1, operator="weighted-cesaro", phi=phi,
                                method="radial", tol=1e-9)
        assert closed == pytest.approx(rad.value, rel=1e-7)

    @pytest.mark.parametrize("spec, p, eps", [
        (SPEC1, 1.2, 0.2), (SPEC1, 1.5, 0.0125), (SPEC1, 2.0, 0.1), (SPEC1, 3.0, 0.0125),
        (SPEC1, 4.0, 0.0125), (SPEC2, 1.2, 0.2), (SPEC2, 2.0, 0.1),
    ], ids=["1.2-0.2", "1.5-0.0125", "2.0-0.1", "3.0-0.0125", "4.0-0.0125", "m2-1.2-0.2", "m2-2.0-0.1"])
    def test_radial_route_matches_closed_form(self, spec, p, eps):
        f = PowerInside.extremal(spec, p, eps)
        rad = ops.norm_quotient(f, p, spec, method="radial")
        assert rad.value == pytest.approx(cf.power_family_quotient(eps, p, spec), rel=1e-9)

    @pytest.mark.parametrize("operator, a", [("weighted-cesaro", 3.0), ("weighted-hardy", 2.0),
                                             ("weighted-cesaro", 40.0), ("weighted-hardy", 40.0)])
    def test_weighted_radial_routes_match_closed_forms(self, operator, a):
        # tol=1e-9 is the tolerance weighted_sharpness runs the radial route at;
        # at a = 40 the cumulative integral C(x) of `_image_profile` grows like
        # x^38 and would overflow at the outer rule's largest radii unscaled
        f = PowerOutside.extremal(SPEC1, 3.0, 0.2)
        phi = ops.MonomialWeight((a,))
        closed = {"weighted-hardy": cf.weighted_power_quotient,
                  "weighted-cesaro": cf.cesaro_power_quotient}[operator]
        rad = ops.norm_quotient(f, 3.0, SPEC1, operator=operator, phi=phi, method="radial", tol=1e-9)
        assert rad.value == pytest.approx(closed(f.betas, phi.exponents, 3.0, SPEC1), rel=1e-9)

    def test_weighted_unbounded_rejected(self):
        f = PowerOutside.extremal(SPEC1, 2.0, 0.1)
        with pytest.raises(ops.UnboundedOperatorError):
            ops.norm_quotient(f, 2.0, SPEC1, operator="weighted-hardy",
                              phi=ops.MonomialWeight((0.0,)), method="radial")


class TestImageProfile:
    """`_image_profile` against closed-form images at R in {0.3, 1, 4}; a
    monomial weight t^a has the kernel t^a, and t^(a - Q) for the adjoint."""

    RADII = np.array([0.3, 1.0, 4.0])

    def _check(self, got, want):
        for g, w in zip(got, want):
            if w == 0.0:
                assert g == 0.0  # an empty window, exactly
            else:
                assert g == pytest.approx(w, rel=1e-9)

    def test_weighted_image_of_the_outside_power(self):
        a, beta = 3.0, 2.5
        got = image(PowerOutside(SPEC1, (beta,)), a, False, self.RADII)
        e = a - beta + 1.0
        want = [R**-beta * (1.0 - R**-e) / e if R > 1.0 else 0.0 for R in self.RADII]
        self._check(got, want)

    def test_adjoint_image_of_the_outside_power(self):
        a, beta = 3.0, 2.5
        got = image(PowerOutside(SPEC1, (beta,)), a - D1.Q, True, self.RADII)
        e = a - D1.Q + beta + 1.0
        self._check(got, [R**-beta * min(R, 1.0) ** e / e for R in self.RADII])

    def test_adjoint_indicator_profile(self):
        # at a = Q - 1 the adjoint kernel is 1/t, and int_R^1 dt/t = -ln R
        got = image(PowerInside(SPEC1, (0.0,)), -1.0, True, self.RADII)
        self._check(got, [-math.log(R) if R < 1.0 else 0.0 for R in self.RADII])

    def test_ball_average_outside_the_support_is_zero(self):
        got = ball_average(PowerOutside(SPEC1, (2.5,)), self.RADII)
        assert got[0] == 0.0 and got[1] == 0.0  # B(0, R) misses |x| > 1 for R <= 1
        assert got[2] == pytest.approx(D1.Q / (D1.Q - 2.5) * (4.0**-2.5 - 4.0**-D1.Q), rel=1e-9)


class TestSupportSampler:
    """Bump mixtures are drawn in proportion to sum_j |c_j| Psi_j."""

    SIGNED = BumpMixture(SPEC2, (
        Bump((np.array([0.1, -0.2, 0.05]), np.array([0.0, 0.3, -0.1])), (0.7, 0.5), 1.0),
        Bump((np.array([-0.3, 0.2, 0.1]), np.array([0.2, 0.0, 0.0])), (0.5, 0.9), -0.6),
        Bump((np.array([0.0, 0.0, 0.4]), np.array([0.0, 0.1, 0.0])), (0.4, 0.4), 0.0),
    ))

    def test_weights_are_bounded_by_the_mass(self):
        f = self.SIGNED
        draw = ops._support_sampler(f, SPEC2)
        mass = f.bump_masses().sum()
        pts, dens, fv = draw(substream(3, 1), 20_000)
        w = fv / dens
        assert np.all(np.abs(w) <= mass * (1.0 + 1e-14))
        assert w.min() < 0.0 < w.max()
        # the draw's density and values are the envelope over the mass and f
        f2, envelope = f.values_and_envelope(pts)
        assert np.array_equal(dens, envelope / mass) and np.array_equal(fv, f2)
        # every point lies in a bump with a nonzero coefficient
        inside = np.zeros(20_000, dtype=bool)
        for bump in f.bumps[:2]:
            inside |= np.all([distance(X, c) < r for X, c, r in zip(pts, bump.centers, bump.radii)],
                             axis=0)
        assert inside.all()

    def test_weights_equal_the_mass_without_negative_coefficients(self):
        f = random_bump_mixture(SPEC2, substream(4, 1))
        draw = ops._support_sampler(f, SPEC2)
        pts, dens, fv = draw(substream(4, 2), 10_000)
        np.testing.assert_allclose(fv / dens, f.bump_masses().sum(), rtol=1e-14, atol=0.0)

    def test_integral_of_f_is_unbiased(self):
        # E_q[f / q] is the integral of f, sum_j c_j mass_j / |c_j|
        f = self.SIGNED
        draw = ops._support_sampler(f, SPEC2)
        masses = f.bump_masses()
        want = sum(b.coefficient * m / abs(b.coefficient)
                   for b, m in zip(f.bumps, masses) if b.coefficient)

        def weights(rng, k):
            _, dens, fv = draw(rng, k)
            return fv / dens

        est = chunked_mean(weights, 40_000, 5, TAG_NESTED)
        assert abs(est.value - want) < 4.0 * est.std_error

    def test_stratified_draw_fills_every_stratum_once(self, monkeypatch):
        # 8 bumps of equal mass, centred on the vertical axis at t = 0..7, so
        # that a point's bump is its rounded t and its horizontal part is the
        # sphere point's, scaled: the choice strata put 16 points in each
        # bump, in index order.  Each factor's a x b = 12 x 11 grid gives
        # every point a cell of its own for its angle and radius uniforms,
        # in an order of its own (strata in index order, or one order for
        # both factors, would tie the angle or the radius to the bump)
        k, per, a, b = 128, 16, 12, 11
        f = BumpMixture(SPEC2, tuple(
            Bump((np.array([0.0, 0.0, t]), np.array([0.0, 0.0, -t])), (0.2, 0.2), (-1.0) ** t)
            for t in range(8)))
        radii, sphere, seen = ops.sample_bump_radii, ops.sample_unit_sphere, []

        def spy_radii(Q, rng, size, u=None):  # the uniforms as passed, before they are overwritten
            seen.append([u.copy()])
            return radii(Q, rng, size, u)

        def spy_sphere(dims, rng, size, angle=None):
            seen[-1].append(angle.copy())
            return sphere(dims, rng, size, angle)

        monkeypatch.setattr(ops, "sample_bump_radii", spy_radii)
        monkeypatch.setattr(ops, "sample_unit_sphere", spy_sphere)
        pts, _, _, choice = ops._support_sampler(f, SPEC2)(substream(7, 1), k, stratified=True)
        assert np.array_equal(choice, np.repeat(np.arange(8), per))
        assert np.array_equal(np.rint(pts[0][:, 2]), np.repeat(np.arange(8.0), per))
        strata = [np.arange(k)]
        for x, (radius, angle) in zip(pts, seen):
            row, col = np.floor(radius * b), np.floor(angle * a)
            assert np.unique(row * a + col).size == k  # no cell holds two points
            turn = np.arctan2(x[:, 1], x[:, 0]) / (2.0 * np.pi) + 0.5
            assert np.array_equal(np.floor(turn * a), col)  # the point's angle is its uniform's
            strata += [row, col]
        # rank correlations of independent orders have sd 1/sqrt(k - 1), about 0.09
        corr = np.corrcoef(strata)
        assert np.all(np.abs(corr[np.triu_indices(len(strata), 1)]) < 0.5)

    def test_top_stratum_picks_no_bump_past_the_last(self):
        # U = 1 - 2**-53 puts (k - 1 + U)/k at 1.0 in floats; the last bump
        # of SIGNED has zero mass, and past it there is no bump at all, and
        # the top radius stratum at 1.0 would pick an envelope cell past the
        # last (every proposal is then rejected and drawn again i.i.d.)
        class TopStratum:
            def __init__(self, rng):
                self._rng = rng

            def random(self, size):  # every one-row draw at the top; the rest pass through
                return np.full(size, 1.0 - 2.0**-53) if isinstance(size, int) else self._rng.random(size)

            def __getattr__(self, name):
                return getattr(self._rng, name)

        f = self.SIGNED
        pts, dens, fv, _ = ops._support_sampler(f, SPEC2)(TopStratum(substream(8, 1)), 64,
                                                          stratified=True)
        assert np.all(dens > np.finfo(float).tiny) and np.all(np.isfinite(fv))
        top = f.bumps[1]  # the last bump of nonzero mass
        assert np.all([distance(X[-1], c) < r for X, c, r in zip(pts, top.centers, top.radii)])

    def test_count_moments_match_the_stratified_choices(self):
        # E[N_j^m] for the counts of stratified choices per bump, against
        # 2,000 draws of 50 points; the third bump has zero mass
        f, k = self.SIGNED, 50
        draw = ops._support_sampler(f, SPEC2)
        counts = np.array([np.bincount(draw(substream(9, c), k, stratified=True)[3], minlength=3)
                           for c in range(2000)], dtype=float)
        masses = f.bump_masses()
        for m in (1, 2, 3):
            want = ops._stratified_count_moment(masses, k, m)
            got = counts**m
            assert want[2] == 0.0 and np.all(got[:, 2] == 0.0)
            se = got.std(axis=0, ddof=1) / math.sqrt(len(got))
            assert np.all(np.abs(got.mean(axis=0) - want)[:2] <= 4.0 * se[:2])
        assert ops._stratified_count_moment(masses, k, 1)[:2] == pytest.approx(k * masses[:2] / masses.sum())

    def test_zero_mass_falls_back_to_the_support_polyball(self):
        zero = BumpMixture(SPEC1, (Bump((np.zeros(3),), (0.5,), 0.0),))
        pts, dens, fv = ops._support_sampler(zero, SPEC1)(substream(6, 1), 100)
        assert np.all(fv == 0.0) and np.all(dens == dens[0]) and dens[0] > 0.0


class TestPairings:
    def test_indicator_exact(self):
        ind = PowerInside(SPEC1, (0.0,))
        phi = ops.MonomialWeight((4.0,))
        lhs = ops.pairing_weighted_hardy(ind, ind, phi, SPEC1, samples=5_000, seed=1)
        rhs = ops.pairing_weighted_cesaro(ind, ind, phi, SPEC1, p=2.0, samples=20_000, seed=2)
        target = math.pi**2 / 10
        assert lhs.value == pytest.approx(target, rel=1e-12)  # constant integrand
        assert rhs.within(target, sigmas=3.0)

    def test_bump_pair_agrees(self):
        rng = substream(99, 1)
        f = random_bump_mixture(SPEC1, rng, max_bumps=2, radius_range=(0.5, 1.0), center_radius=0.3)
        g = random_bump_mixture(SPEC1, rng, max_bumps=2, radius_range=(0.5, 1.0), center_radius=0.3)
        phi = ops.MonomialWeight((4.0,))
        lhs = ops.pairing_weighted_hardy(f, g, phi, SPEC1, samples=30_000, seed=3)
        rhs = ops.pairing_weighted_cesaro(g, f, phi, SPEC1, p=2.0, samples=30_000, seed=4)
        se = math.hypot(lhs.std_error, rhs.std_error)
        assert abs(lhs.value - rhs.value) <= 4 * se


    @pytest.mark.parametrize("spec", [SPEC1, SPEC2])
    def test_bump_pair_matches_the_slow_reference(self, spec, monkeypatch):
        # the same draws as the pairings, under the rule each pairing chose,
        # evaluated on the dilated points by the base on_dilations, with the
        # Jacobian, phi and t^-Q on every node, for a monomial and a table
        # weight (split at its knots on the Hardy side)
        chosen = []
        choose = ops._choose_rule
        monkeypatch.setattr(ops, "_choose_rule", lambda *a: chosen.append(choose(*a)) or chosen[-1])
        rng = substream(7, 1)
        f = random_bump_mixture(spec, rng, max_bumps=2, radius_range=(0.5, 1.0), center_radius=0.3)
        g = random_bump_mixture(spec, rng, max_bumps=2, radius_range=(0.5, 1.0), center_radius=0.3)
        table = [lambda t: np.interp(t, [0.0, 0.25, 0.5, 1.0], [0.0, 0.0, 0.2, 1.0]),
                 lambda t: np.interp(t, [0.0, 0.3, 0.6, 1.0], [0.0, 0.0, 0.5, 1.0])]
        knots = [(0.25, 0.5), (0.3, 0.6)]
        for phi in (ops.MonomialWeight((4.0,) * spec.m),
                    ops.GeneralWeight(table[: spec.m], knots=knots[: spec.m])):
            self._check_against_the_slow_reference(spec, f, g, phi, chosen)

    @staticmethod
    def _check_against_the_slow_reference(spec, f, g, phi, chosen):
        def hardy(S, W):
            def draw(rng, k):
                pts, dens, fvals = ops._support_sampler(f, spec)(rng, k)
                grid = funcs.TestFunction.on_dilations(g, pts, list(S.T), list(S.T), None,
                                                       GridWorkspace())
                phivals = np.prod([prof(s) for prof, s in zip(phi.profiles, S.T)], axis=0)
                return fvals * (grid @ (W * phivals)) / dens
            return draw

        def cesaro(S, W):
            def draw(rng, k):
                pts, dens, gvals = ops._support_sampler(g, spec)(rng, k)
                K = S.shape[0]
                t_nodes, starts, jac, kern = [], [], np.ones((k, K)), np.ones((k, K))
                for i, (dims, sup) in enumerate(zip(spec.factors, f.support_radii())):
                    lo = np.minimum(koranyi_norm(pts[i]) / sup, 1.0)
                    t = np.maximum(lo[:, None] + (1.0 - lo)[:, None] * S[None, :, i], 1e-300)
                    jac *= (1.0 - lo)[:, None]
                    kern /= t**dims.Q
                    t_nodes.append(t)
                    starts.append(lo)
                phivals = np.prod([prof(t) for prof, t in zip(phi.profiles, t_nodes)], axis=0)
                fvals = funcs.TestFunction.on_dilations(f, pts, [1.0 / t for t in t_nodes],
                                                        list(S.T), starts, GridWorkspace())
                return gvals * ((fvals * phivals * kern * jac) @ W) / dens
            return draw

        # full chunks; a partial last chunk (5000 = 2 * 2048 + 904), which
        # takes the front of the workspace grids
        for samples in (4096, 5000):
            for pairing, draw, seed in (
                (lambda: ops.pairing_weighted_hardy(f, g, phi, spec, samples, 5), hardy, 5),
                (lambda: ops.pairing_weighted_cesaro(g, f, phi, spec, 2.0, samples, 6), cesaro, 6),
            ):
                got = pairing()
                ref = chunked_mean(draw(*chosen[-1]), samples, seed, TAG_NESTED, chunk_size=2048)
                assert got.value == pytest.approx(ref.value, rel=1e-13, abs=0.0)
                assert got.std_error == pytest.approx(ref.std_error, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("weight, m, seed, k, samples", [
        ("monomial:4", 1, 9, 0, 20_000),  # C8 acceptance pairs
        ("monomial:4", 1, 9, 1, 20_000),
        ("monomial:4", 1, 9, 2, 20_000),
        ("table", 1, 5, 0, 20_000),
        ("table", 2, 5, 0, 4000),
    ])
    def test_chosen_rule_is_within_a_twentieth_of_an_error_of_64_nodes(
        self, weight, m, seed, k, samples, tmp_path, monkeypatch,
    ):
        # C8's pair k at that seed, both pairings, against the mean of the
        # same draws under 64 nodes per axis (split at the same knots),
        # evaluated in row blocks so that a 64 x 64 grid stays small
        spec = ProductSpec.of_orders(*([1] * m))
        if weight == "table":
            path = tmp_path / "w.json"
            path.write_text(json.dumps({"factors": [
                {"t": [0, 0.25, 0.5, 1], "values": [0, 0, 0.2, 1]},
                {"t": [0, 0.3, 0.6, 1], "values": [0, 0, 0.5, 1]}][:m]}))
            weight = f"table:{path}"
        phi = ops.parse_weight(weight, m)
        rng = substream(seed, TAG_EXPERIMENT, 9000 + k)
        f = random_bump_mixture(spec, rng, max_bumps=3, radius_range=(0.5, 1.0), center_radius=0.3)
        g = random_bump_mixture(spec, rng, max_bumps=3, radius_range=(0.5, 1.0), center_radius=0.3)
        chosen = []
        choose = ops._choose_rule
        monkeypatch.setattr(ops, "_choose_rule", lambda *a: chosen.append(a) or choose(*a))
        for est in (
            ops.pairing_weighted_hardy(f, g, phi, spec, samples, subseed(seed, TAG_EXPERIMENT, 10 + 2 * k)),
            ops.pairing_weighted_cesaro(g, f, phi, spec, 2.0, samples,
                                        subseed(seed, TAG_EXPERIMENT, 11 + 2 * k)),
        ):
            sampler, rule_values, _, knots, _, pair_seed, _ = chosen.pop(0)
            values = rule_values(*ops._dilation_rule(m, 64, knots))
            total = 0.0
            for c, size in enumerate(measure._chunk_sizes(samples, 2048)):
                pts, dens, fv = sampler(substream(pair_seed, TAG_NESTED, c), size)
                for a in range(0, size, 128):
                    total += values([x[a:a + 128] for x in pts], dens[a:a + 128], fv[a:a + 128],
                                    GridWorkspace()).sum()
            assert abs(est.value - total / samples) <= 0.05 * est.std_error

    def test_constant_integrand_keeps_the_fixed_rule(self, monkeypatch):
        # the indicator's <f,Pg> has no spread to size a rule against
        chosen = []
        choose = ops._choose_rule
        monkeypatch.setattr(ops, "_choose_rule", lambda *a: chosen.append(choose(*a)) or chosen[-1])
        for spec in (SPEC1, SPEC2):
            ind = PowerInside(spec, (0.0,) * spec.m)
            ops.pairing_weighted_hardy(ind, ind, ops.MonomialWeight((4.0,) * spec.m), spec, 4096, 1)
            fixed = ops._dilation_rule(spec.m, ops._fixed_order(spec.m))
            assert all(np.array_equal(a, b) for a, b in zip(chosen[-1], fixed))

    @pytest.mark.parametrize("spec", [SPEC1, SPEC2])
    def test_pairings_allocate_no_grids_once_warm(self, spec):
        # the first call fills the workspace; later calls form every (k, K)
        # grid in it, so their traced peak stays below two m = 1 grids
        # (2 * 2048 * 32 * 8 bytes = 1 MB; an m = 2 grid is 6.5 MB)
        rng = substream(7, 1)
        f = random_bump_mixture(spec, rng, max_bumps=2, radius_range=(0.5, 1.0), center_radius=0.3)
        g = random_bump_mixture(spec, rng, max_bumps=2, radius_range=(0.5, 1.0), center_radius=0.3)
        phi = ops.MonomialWeight((4.0,) * spec.m)
        calls = (lambda: ops.pairing_weighted_hardy(f, g, phi, spec, samples=4096, seed=5),
                 lambda: ops.pairing_weighted_cesaro(g, f, phi, spec, p=2.0, samples=4096, seed=6))
        for call in calls:
            call()
        tracemalloc.start()
        try:
            for call in calls:
                tracemalloc.reset_peak()
                call()
                assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    def test_idle_workspaces_drop_m2_grids_after_m1_pairings(self, monkeypatch):
        # an m = 2 grid is 12.5 m = 1 grids; after m = 1 chunks no idle
        # buffer may hold more than 8 of them
        monkeypatch.setattr(measure, "_idle_workspaces", [])
        for spec in (SPEC2, SPEC1):
            rng = substream(7, 1)
            f = random_bump_mixture(spec, rng, max_bumps=2, radius_range=(0.5, 1.0), center_radius=0.3)
            phi = ops.MonomialWeight((4.0,) * spec.m)
            ops.pairing_weighted_hardy(f, f, phi, spec, samples=4096, seed=5)
            ops.pairing_weighted_cesaro(f, f, phi, spec, p=2.0, samples=4096, seed=6)
        sizes = [b.size for ws in measure._idle_workspaces for b in ws._buffers]
        assert sizes and max(sizes) <= 8 * 2048 * 32

    def test_cesaro_pairing_refuses_an_unbounded_weight(self):
        # weight one: the adjoint characteristic integral diverges at p = 2
        ind = PowerInside(SPEC1, (0.0,))
        with pytest.raises(ops.UnboundedOperatorError, match="unbounded operator"):
            ops.pairing_weighted_cesaro(ind, ind, ops.MonomialWeight((0.0,)), SPEC1, p=2.0)

    def test_unbounded_support_is_refused(self):
        # the support sampler used to fall back to the unit ball, where
        # PowerOutside vanishes, and both pairings returned an exact 0
        f = PowerOutside.extremal(SPEC1, 2.0, 0.4)
        phi = ops.MonomialWeight((4.0,))
        with pytest.raises(ValueError, match="power-outside: it is unbounded"):
            ops.pairing_weighted_hardy(f, f, phi, SPEC1, samples=4000)
        with pytest.raises(ValueError, match="power-outside: it is unbounded"):
            ops.pairing_weighted_cesaro(f, f, phi, SPEC1, p=2.0, samples=4000)

    @pytest.mark.parametrize("exponent", [4.0, 0.0])
    def test_three_factors_refused(self, exponent):
        # weight one is unbounded for the adjoint at p = 2: the m guard comes first
        spec = ProductSpec.of_orders(1, 1, 1)
        ind = PowerInside(spec, (0.0,) * 3)
        phi = ops.MonomialWeight((exponent,) * 3)
        with pytest.raises(ValueError, match="m <= 2"):
            ops.pairing_weighted_hardy(ind, ind, phi, spec)
        with pytest.raises(ValueError, match="m <= 2"):
            ops.pairing_weighted_cesaro(ind, ind, phi, spec, p=2.0)


class TestParseWeight:
    def test_forms(self):
        assert isinstance(ops.parse_weight("one", 2), ops.MonomialWeight)
        w = ops.parse_weight("monomial:3,3", 2)
        assert w.exponents == (3.0, 3.0)
        with pytest.raises(ValueError):
            ops.parse_weight("monomial:3", 2)
        with pytest.raises(ValueError):
            ops.parse_weight("spline:1", 1)

    def test_table_weight(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"factors": [{"t": [0.0, 1.0], "values": [0.0, 1.0]}]}))
        w = ops.parse_weight(f"table:{path}", 1)
        got = w.kernel(0, D1, False)(np.array([0.25, 0.5]))
        assert got == pytest.approx([0.25, 0.5])

    @pytest.mark.parametrize("factors", [
        [{"t": [0, 1], "values": [0, 0]}],
        [{"t": [0, 1, 2], "values": [0, 0, 1]}],  # nonzero only beyond t = 1
        [{"t": [0, 1], "values": [0, 1]}, {"t": [0, 1], "values": [0, 0]}],
    ])
    def test_table_factor_zero_on_the_cube_rejected(self, tmp_path, factors):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"factors": factors}))
        with pytest.raises(ValueError, match=f"factor {len(factors)} is zero on"):
            ops.parse_weight(f"table:{path}", len(factors))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ops.MonomialWeight((-1.0,))
