import math

import numpy as np
import pytest
from scipy.integrate import quad

from hardylab import closedform as cf
from hardylab.hgroup import GroupDims, ProductSpec

SPEC1 = ProductSpec.of_orders(1)
SPEC2 = ProductSpec.of_orders(1, 1)
D1 = GroupDims(1)


class TestSharpConstant:
    def test_values(self):
        assert cf.sharp_constant(2.0, 2) == 4.0
        assert cf.sharp_constant(3.0, 1) == 1.5
        assert cf.sharp_constant(1000.0, 1) == pytest.approx(1.001, abs=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            cf.sharp_constant(1.0, 1)
        with pytest.raises(ValueError):
            cf.sharp_constant(2.0, 0)


class TestBallAveragePower:
    def test_constant(self):
        assert cf.ball_average_power(0.0, D1, 0.3) == 1.0
        assert cf.ball_average_power(0.0, D1, 1.0) == 1.0

    def test_hand_values(self):
        assert cf.ball_average_power(-1.0, D1, 0.5) == pytest.approx(8 / 3, rel=1e-14)
        assert cf.ball_average_power(-1.0, D1, 2.0) == pytest.approx(1 / 12, rel=1e-14)

    def test_integrability_guard(self):
        with pytest.raises(ValueError):
            cf.ball_average_power(-4.0, D1, 0.5)

    def test_outside_variant(self):
        assert cf.outside_ball_average_power(3.0, D1, 0.5) == 0.0
        # average of |y|^-3 over B(0,2): omega*int_1^2 r^(-3+3) dr / (V*2^4)
        want = D1.omega * 1.0 / (D1.ball_volume * 16)
        assert cf.outside_ball_average_power(3.0, D1, 2.0) == pytest.approx(want, rel=1e-13)


class TestExtremalQuotients:
    def test_frozen_values(self):
        grid = {0.2: 1.9069251784911847, 0.1: 1.9518001458970664,
                0.05: 1.9754591932991792, 0.025: 1.987615979999813}
        for eps, want in grid.items():
            assert cf.power_family_quotient(eps, 2.0, SPEC1) == pytest.approx(want, rel=1e-13)

    def test_product_structure(self):
        q1 = cf.power_family_quotient(0.1, 2.0, SPEC1)
        q2 = cf.power_family_quotient(0.1, 2.0, SPEC2)
        assert q2 == pytest.approx(q1 * q1, rel=1e-13)
        assert q2 == pytest.approx(16.8 / 4.41, rel=1e-13)

    def test_lower_bound_values(self):
        assert cf.extremal_lower_bound(0.1, 2.0, SPEC1) == pytest.approx(2 / 1.05, rel=1e-14)
        assert cf.extremal_lower_bound(0.1, 2.0, SPEC2) == pytest.approx((2 / 1.05) ** 2, rel=1e-14)

    def test_quotient_against_independent_quadrature(self):
        # two-piece integral of the image profile, done with scipy
        p, eps, Q = 2.0, 0.1, 4
        alpha = -Q / p + eps
        lead = Q / (alpha + Q)
        inner, _ = quad(lambda r: (lead * r**alpha) ** p * r ** (Q - 1), 0, 1)
        outer, _ = quad(lambda r: (lead * r**-Q) ** p * r ** (Q - 1), 1, 50)
        outer += (lead**p) * 50.0 ** (Q - Q * p) / (Q * p - Q)  # analytic tail
        norm_f, _ = quad(lambda r: r ** (alpha * p + Q - 1), 0, 1)
        want = ((inner + outer) / norm_f) ** (1 / p)
        assert cf.power_family_quotient(eps, p, SPEC1) == pytest.approx(want, rel=1e-10)

    def test_lower_bound_is_the_normalized_ball_integral(self):
        # (1/V) int_{|z|<1} |z|^(-Q/p+eps) dz == p/(p-1+p*eps/Q)
        for eps in (0.2, 0.05, 0.01):
            alpha = -2.0 + eps
            val, _ = quad(lambda r: r ** (alpha + 3), 0, 1)
            want = D1.omega * val / D1.ball_volume
            assert cf.extremal_lower_bound(eps, 2.0, SPEC1) == pytest.approx(want, rel=1e-7)

    def test_chain_ordering_and_monotonicity(self):
        sharp = cf.sharp_constant(2.0, 1)
        prev = 0.0
        for eps in (0.2, 0.1, 0.05, 0.025, 0.0125, 1e-3):
            low = cf.extremal_lower_bound(eps, 2.0, SPEC1)
            q = cf.power_family_quotient(eps, 2.0, SPEC1)
            assert low <= q < sharp
            assert q > prev
            prev = q
        assert cf.power_family_quotient(1e-7, 2.0, SPEC1) == pytest.approx(sharp, abs=1e-6)

    def test_eps_range_guard(self):
        with pytest.raises(ValueError):
            cf.power_family_quotient(0.0, 2.0, SPEC1)
        with pytest.raises(ValueError):
            cf.power_family_quotient(1.5, 2.0, SPEC1)  # above min(1, (p-1)Q/p)

    def test_indicator_quotient(self):
        assert cf.indicator_quotient(2.0, 1) == pytest.approx(math.sqrt(2), rel=1e-15)
        assert cf.indicator_quotient(2.0, 2) == pytest.approx(2.0, rel=1e-15)


class TestWeightedForms:
    def test_characteristic_values(self):
        assert cf.monomial_weight_characteristic([3.0], 2.0, SPEC1, "hardy") == 0.5
        assert cf.monomial_weight_characteristic([3.0, 3.0], 2.0, SPEC2, "hardy") == 0.25
        assert cf.monomial_weight_characteristic([3.0], 2.0, SPEC1, "cesaro") == 0.5
        assert cf.monomial_weight_characteristic([0.0], 2.0, SPEC1, "cesaro") == math.inf
        assert cf.monomial_weight_characteristic([0.0], 2.0, SPEC1, "hardy") == math.inf

    def test_extremal_bound_values(self):
        got = cf.weighted_extremal_bound([3.0], 0.1, 2.0, SPEC1)
        want = 0.1**0.1 * (1 - 0.1**1.9) / 1.9
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(0.41281, abs=5e-5)
        assert cf.weighted_extremal_bound([3.0], 1e-3, 2.0, SPEC1) == pytest.approx(0.49681, abs=5e-5)

    def test_bound_converges_to_characteristic(self):
        c = cf.monomial_weight_characteristic([3.0], 2.0, SPEC1, "hardy")
        for eps in (0.1, 0.01, 1e-3, 1e-5):
            b = cf.weighted_extremal_bound([3.0], eps, 2.0, SPEC1)
            u = cf.truncated_weight_integral([3.0], eps, 2.0, SPEC1)
            q = cf.weighted_family_quotient([3.0], eps, 2.0, SPEC1)
            assert b <= q <= c <= u + 1e-12
        assert cf.weighted_extremal_bound([3.0], 1e-7, 2.0, SPEC1) == pytest.approx(c, rel=1e-4)

    def test_quotient_against_independent_quadrature(self):
        # ||P_phi f_eps||_p^p by scipy on the explicit image profile
        p, eps, Q, a = 2.0, 0.1, 4, 3.0
        beta = Q / p + eps
        g = a + 1.0 - beta

        def image(r):
            inner = (1 - r ** -g) / g
            return (r**-beta * inner) ** p * r ** (Q - 1)

        num, _ = quad(image, 1, np.inf)
        den = 1.0 / (eps * p)
        want = (num / den) ** (1 / p)
        assert cf.weighted_family_quotient([a], eps, p, SPEC1) == pytest.approx(want, rel=1e-9)

    def test_cesaro_quotient_against_independent_quadrature(self):
        p, eps, Q, a = 2.0, 0.1, 4, 3.0
        beta = Q / p + eps
        D = a + 1.0 + beta - Q

        def inside(r):
            return (r ** (a + 1.0 - Q) / D) ** p * r ** (Q - 1)

        def outside(r):
            return (r**-beta / D) ** p * r ** (Q - 1)

        num = quad(inside, 0, 1)[0] + quad(outside, 1, np.inf)[0]
        den = 1.0 / (eps * p)
        want = (num / den) ** (1 / p)
        assert cf.cesaro_family_quotient([a], eps, p, SPEC1) == pytest.approx(want, rel=1e-9)

    def test_cesaro_quotient_monotone_below_characteristic(self):
        cstar = cf.monomial_weight_characteristic([3.0], 2.0, SPEC1, "cesaro")
        prev = 0.0
        for eps in (0.2, 0.1, 0.05, 0.01, 1e-3):
            q = cf.cesaro_family_quotient([3.0], eps, 2.0, SPEC1)
            assert prev < q < cstar
            prev = q

    @pytest.mark.parametrize("spec, exps", [(SPEC1, [3.0]), (SPEC2, [3.0, 5.0])])
    def test_cesaro_quotient_at_large_p(self, spec, exps):
        # D^p underflows (a = 3) or overflows (a = 5) at p = 1000, while the
        # quotient itself is of order 1/D
        p = 1000.0
        for eps in (0.2, 0.025):
            logq = 0.0
            for dims, a in zip(spec.factors, exps):
                b = dims.Q / p + eps
                e, D, s = b * p - dims.Q, a + 1.0 + b - dims.Q, (a + 1.0 - dims.Q) * p + dims.Q
                logq += math.log1p(e / s) / p - math.log(D)
            got = cf.cesaro_family_quotient(exps, eps, p, spec)
            assert got == pytest.approx(math.exp(logq), rel=1e-13)

    def test_product_factorization(self):
        b1 = cf.weighted_extremal_bound([3.0], 0.05, 2.0, SPEC1)
        b2 = cf.weighted_extremal_bound([3.0, 3.0], 0.05, 2.0, SPEC2)
        assert b2 == pytest.approx(b1 * b1, rel=1e-12)

    def test_degenerate_exponents_rejected(self):
        with pytest.raises(ValueError):
            cf.weighted_family_quotient([0.0], 0.1, 2.0, SPEC1)  # characteristic diverges
        with pytest.raises(ValueError):
            cf.cesaro_power_quotient([2.1], [0.0], 2.0, SPEC1)
