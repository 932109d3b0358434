import json
import math

import numpy as np
import pytest

from hardylab import closedform as cf
from hardylab import operators as ops
from hardylab.funcs import (
    BumpMixture,
    DilatedFunction,
    PowerInside,
    PowerOutside,
    ProductPoint,
    RadialProduct,
    random_bump_mixture,
)
from hardylab.hgroup import ProductSpec
from hardylab.measure import substream

SPEC1 = ProductSpec.of_orders(1)
SPEC2 = ProductSpec.of_orders(1, 1)


def point_at(spec, *radii):
    return ProductPoint.from_radii(spec, radii)


class TestHardyEval:
    def test_constant_average_is_one(self):
        f = PowerInside(SPEC1, (0.0,))
        x = point_at(SPEC1, 0.5)
        assert ops.hardy_eval(f, x, method="closed").value == 1.0
        assert ops.hardy_eval(f, x, method="radial").value == pytest.approx(1.0, rel=1e-10)
        mc = ops.hardy_eval(f, x, method="mc", samples=2_000, seed=1)
        assert mc.value == pytest.approx(1.0, rel=1e-12)

    def test_power_hand_value(self):
        f = PowerInside(SPEC1, (-1.0,))
        x = point_at(SPEC1, 0.5)
        want = 8 / 3
        assert ops.hardy_eval(f, x, method="closed").value == pytest.approx(want, rel=1e-14)
        assert ops.hardy_eval(f, x, method="radial").value == pytest.approx(want, rel=1e-9)
        mc = ops.hardy_eval(f, x, method="mc", samples=100_000, seed=2)
        assert mc.within(want, sigmas=3.0)

    def test_saturated_average(self):
        f = PowerInside(SPEC1, (-1.0,))
        got = ops.hardy_eval(f, point_at(SPEC1, 2.0), method="closed").value
        assert got == pytest.approx(1 / 12, rel=1e-14)

    def test_zero_radius_rejected(self):
        f = PowerInside(SPEC1, (0.0,))
        with pytest.raises(ValueError, match="undefined"):
            ops.hardy_eval(f, point_at(SPEC1, 0.0), method="closed")

    def test_product_space(self):
        f = PowerInside(SPEC2, (-1.0, 0.0))
        x = point_at(SPEC2, 0.5, 0.5)
        assert ops.hardy_eval(f, x, method="closed").value == pytest.approx(8 / 3, rel=1e-14)

    def test_monotone_under_pointwise_ordering(self):
        rng = np.random.default_rng(5)
        f = random_bump_mixture(SPEC1, rng)
        extra = random_bump_mixture(SPEC1, rng)
        g = BumpMixture(SPEC1, f.bumps + extra.bumps)  # g >= f pointwise
        x = point_at(SPEC1, 1.2)
        a = ops.hardy_eval(f, x, method="mc", samples=20_000, seed=6)
        b = ops.hardy_eval(g, x, method="mc", samples=20_000, seed=6)
        assert a.value <= b.value + 1e-15  # common points: exact per-sample order

    def test_dilation_covariance(self):
        f = random_bump_mixture(SPEC1, np.random.default_rng(7))
        lam = 1.7
        g = DilatedFunction(f, (lam,))
        x = point_at(SPEC1, 0.9)
        x_scaled = point_at(SPEC1, lam * 0.9)
        a = ops.hardy_eval(g, x, method="mc", samples=40_000, seed=8)
        b = ops.hardy_eval(f, x_scaled, method="mc", samples=40_000, seed=9)
        se = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) <= 3 * se + 1e-12


class TestWeightedHardyEval:
    def test_unit_weight_constant(self):
        f = PowerInside(SPEC1, (0.0,))
        phi = ops.MonomialWeight((0.0,))
        got = ops.weighted_hardy_eval(f, phi, point_at(SPEC1, 0.5))
        assert got.value == pytest.approx(1.0, rel=1e-10)

    def test_linear_profile_halves(self):
        f = RadialProduct(SPEC1, (lambda r: r,), ((0.0, math.inf),))
        phi = ops.MonomialWeight((0.0,))
        got = ops.weighted_hardy_eval(f, phi, point_at(SPEC1, 0.8))
        assert got.value == pytest.approx(0.4, rel=1e-10)

    def test_outside_family_vanishes_inside(self):
        f = PowerOutside.extremal(SPEC1, 2.0, 0.1)
        phi = ops.MonomialWeight((4.0,))
        got = ops.weighted_hardy_eval(f, phi, point_at(SPEC1, 0.8))
        assert got.value == 0.0

    def test_outside_family_closed_profile(self):
        f = PowerOutside.extremal(SPEC1, 2.0, 0.1)
        phi = ops.MonomialWeight((4.0,))
        R, b = 3.0, 2.1
        got = ops.weighted_hardy_eval(f, phi, point_at(SPEC1, R))
        want = R**-b * (1 - (1 / R) ** (4 - b + 1)) / (4 - b + 1)
        assert got.value == pytest.approx(want, rel=1e-9)

    def test_general_weight_matches_monomial(self):
        f = RadialProduct(SPEC1, (lambda r: np.exp(-r),), ((0.0, math.inf),))
        x = point_at(SPEC1, 1.1)
        mono = ops.weighted_hardy_eval(f, ops.MonomialWeight((2.0,)), x)
        gen = ops.weighted_hardy_eval(
            f, ops.GeneralWeight(lambda T: T[:, 0] ** 2, 1), x, tol=1e-10
        )
        assert gen.value == pytest.approx(mono.value, rel=1e-8)

    def test_mc_route(self):
        f = random_bump_mixture(SPEC1, np.random.default_rng(3))
        phi = ops.MonomialWeight((1.0,))
        x = point_at(SPEC1, 0.7)
        quad_val = ops.weighted_hardy_eval(f, phi, x, tol=1e-10)
        mc = ops.weighted_hardy_eval(f, phi, x, method="mc", samples=60_000, seed=4)
        assert mc.within(quad_val.value, sigmas=3.0)


class TestWeightedCesaroEval:
    def test_indicator_profile(self):
        f = PowerInside(SPEC1, (0.0,))
        phi = ops.MonomialWeight((4.0,))
        got = ops.weighted_cesaro_eval(f, phi, point_at(SPEC1, 0.8), p=2.0)
        assert got.value == pytest.approx(0.2, rel=1e-10)
        assert ops.weighted_cesaro_eval(f, phi, point_at(SPEC1, 1.4), p=2.0).value == 0.0

    def test_zero_weight(self):
        f = PowerInside(SPEC1, (0.0,))
        phi = ops.GeneralWeight(lambda T: np.zeros(T.shape[0]), 1)
        got = ops.weighted_cesaro_eval(f, phi, point_at(SPEC1, 0.5), p=2.0)
        assert got.value == 0.0

    def test_unbounded_weight_rejected(self):
        f = PowerInside(SPEC1, (0.0,))
        phi = ops.MonomialWeight((0.0,))
        with pytest.raises(ops.UnboundedOperatorError, match="unbounded operator"):
            ops.weighted_cesaro_eval(f, phi, point_at(SPEC1, 0.5), p=2.0)

    def test_mc_route(self):
        f = PowerInside(SPEC1, (0.0,))
        phi = ops.MonomialWeight((4.0,))
        mc = ops.weighted_cesaro_eval(f, phi, point_at(SPEC1, 0.8), p=2.0,
                                      method="mc", samples=40_000, seed=5)
        assert mc.within(0.2, sigmas=3.0)


class TestPowerFamiliesArePinned:
    """The dilation integrands of both evaluators go through
    `TestFunction.on_dilations`; on the power families its values are the
    dilate-then-call values bit for bit, pinned here as hex floats."""

    @staticmethod
    def _values(spec):
        m = spec.m
        x = ProductPoint.from_radii(spec, [0.6, 1.7][:m])
        y = ProductPoint.from_radii(spec, [1.9, 2.4][:m])
        fin = PowerInside.extremal(spec, 2.0, 0.4)
        fout = PowerOutside.extremal(spec, 2.0, 0.4)
        mono = ops.MonomialWeight((3.0,) * m)
        out = [
            ops.weighted_hardy_eval(fin, mono, x, method="mc", samples=3000, seed=4).value,
            ops.weighted_cesaro_eval(fout, mono, y, 2.0, method="mc", samples=3000, seed=4).value,
        ]
        if m == 1:  # a general weight takes the iterated quadrature
            gen = ops.GeneralWeight(lambda T: np.prod(T**3 + 0.5 * T**4, axis=1), m)
            out.append(ops.weighted_hardy_eval(fin, gen, x, tol=1e-8).value)
            out.append(ops.weighted_cesaro_eval(fout, gen, y, 2.0, tol=1e-8).value)
        return [float(v).hex() for v in out]

    def test_m1(self):
        assert self._values(SPEC1) == [
            "0x1.dd3d6eb339a98p-1", "0x1.694b23346f3afp-4",
            "0x1.46c9a384c705bp+0", "0x1.eec9acea02c86p-4",
        ]

    def test_m2(self):
        assert self._values(ProductSpec.of_orders(1, 2)) == [
            "0x1.4501895ab94d2p-4", "0x1.a0826edb577f5p-9",
        ]


class TestWeightBoundIntegral:
    def test_monomial_values(self):
        assert ops.weight_bound_integral(ops.MonomialWeight((3.0,)), 2.0, SPEC1, "hardy") == 0.5
        assert ops.weight_bound_integral(ops.MonomialWeight((3.0, 3.0)), 2.0, SPEC2, "hardy") == 0.25
        assert ops.weight_bound_integral(ops.MonomialWeight((3.0,)), 2.0, SPEC1, "cesaro") == 0.5
        assert ops.weight_bound_integral(ops.MonomialWeight((0.0,)), 2.0, SPEC1, "cesaro") == math.inf

    def test_general_weight_numeric(self):
        gw = ops.GeneralWeight(lambda T: T[:, 0] ** 3, 1)
        got = ops.weight_bound_integral(gw, 2.0, SPEC1, "hardy")
        assert got == pytest.approx(0.5, rel=1e-8)
        flat = ops.GeneralWeight(lambda T: np.ones(T.shape[0]), 1)
        assert ops.weight_bound_integral(flat, 2.0, SPEC1, "cesaro") == math.inf

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

    def test_compact_estimate_is_worker_invariant(self):
        f = random_bump_mixture(SPEC2, np.random.default_rng(15))
        runs = [ops._hardy_norm_compact(f, 2.0, SPEC2, 8_000, seed=15, workers=w) for w in (1, 2, 3)]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0].std_error > 0.0

    def test_nested_mc_refuses_fractional_p(self):
        # a single inner mean raised to a fractional power is biased upward
        f = PowerInside.extremal(SPEC1, 1.5, 0.1)
        with pytest.raises(ValueError, match="closed or radial"):
            ops.norm_quotient(f, 1.5, SPEC1, method="mc")

    def test_zero_norm_rejected(self):
        zero = BumpMixture(SPEC1, ())
        with pytest.raises(ValueError, match="zero norm|vanishes"):
            ops.norm_quotient(zero, 2.0, SPEC1, method="mc", samples=2_000, seed=0)

    def test_weighted_quotient_routes(self):
        f = PowerOutside.extremal(SPEC1, 2.0, 0.1)
        phi = ops.MonomialWeight((3.0,))
        closed = ops.norm_quotient(f, 2.0, SPEC1, operator="weighted-hardy", phi=phi, method="closed")
        rad = ops.norm_quotient(f, 2.0, SPEC1, operator="weighted-hardy", phi=phi,
                                method="radial", tol=1e-9)
        assert closed.value == pytest.approx(cf.weighted_family_quotient([3.0], 0.1, 2.0, SPEC1), rel=1e-14)
        assert rad.value == pytest.approx(closed.value, rel=1e-7)

    def test_cesaro_quotient_routes(self):
        f = PowerOutside.extremal(SPEC1, 2.0, 0.1)
        phi = ops.MonomialWeight((3.0,))
        closed = ops.norm_quotient(f, 2.0, SPEC1, operator="weighted-cesaro", phi=phi, method="closed")
        rad = ops.norm_quotient(f, 2.0, SPEC1, operator="weighted-cesaro", phi=phi,
                                method="radial", tol=1e-9)
        assert closed.value == pytest.approx(rad.value, rel=1e-7)

    @pytest.mark.parametrize("p, eps", [(1.2, 0.2), (1.5, 0.0125), (2.0, 0.1), (3.0, 0.0125),
                                        (4.0, 0.0125)])
    def test_radial_route_matches_closed_form(self, p, eps):
        f = PowerInside.extremal(SPEC1, p, eps)
        rad = ops.norm_quotient(f, p, SPEC1, method="radial")
        assert rad.value == pytest.approx(cf.power_family_quotient(eps, p, SPEC1), rel=1e-9)

    @pytest.mark.parametrize("operator, a", [("weighted-cesaro", 3.0), ("weighted-hardy", 2.0)])
    def test_weighted_radial_routes_match_closed_forms(self, operator, a):
        # tol=1e-9 is the tolerance weighted_sharpness runs the radial route at
        f = PowerOutside.extremal(SPEC1, 3.0, 0.2)
        phi = ops.MonomialWeight((a,))
        closed = ops.norm_quotient(f, 3.0, SPEC1, operator=operator, phi=phi, method="closed")
        rad = ops.norm_quotient(f, 3.0, SPEC1, operator=operator, phi=phi, method="radial", tol=1e-9)
        assert rad.value == pytest.approx(closed.value, rel=1e-9)

    def test_weighted_unbounded_rejected(self):
        f = PowerOutside.extremal(SPEC1, 2.0, 0.1)
        with pytest.raises(ops.UnboundedOperatorError):
            ops.norm_quotient(f, 2.0, SPEC1, operator="weighted-hardy",
                              phi=ops.MonomialWeight((0.0,)), method="closed")


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
        got = w(np.array([[0.25], [0.5]]))
        assert got == pytest.approx([0.25, 0.5])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ops.MonomialWeight((-1.0,))
