import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hardylab import hgroup
from hardylab.hgroup import (
    DilationDistances,
    GroupDims,
    ProductSpec,
    ball_volume,
    dilate,
    dilate_arrays,
    distance,
    group_law,
    inverse,
    koranyi_norm,
    polyball_volume,
    sample_unit_ball,
    sample_unit_sphere,
    unit_ball_volume,
)

coord = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
triple = st.tuples(coord, coord, coord)


def hp(*c):
    return np.array(c, dtype=float)


class TestGroupLaw:
    def test_identity_element(self):
        x = hp(1.3, -0.2, 4.0)
        assert np.allclose(group_law(x, np.zeros(3)), x)
        assert np.allclose(group_law(np.zeros(3), x), x)

    def test_hand_values_and_noncommutativity(self):
        a, b = hp(1, 0, 0), hp(0, 1, 0)
        assert np.allclose(group_law(a, b), [1, 1, -2])
        assert np.allclose(group_law(b, a), [1, 1, 2])

    def test_inverse_cancels(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 5))
        assert np.max(np.abs(group_law(X, -X))) == 0.0

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(triple, triple, triple)
    def test_associativity(self, a, b, c):
        x, y, z = hp(*a), hp(*b), hp(*c)
        lhs = group_law(group_law(x, y), z)
        rhs = group_law(x, group_law(y, z))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            group_law(hp(1, 0, 0), np.zeros(5))
        with pytest.raises(ValueError, match=r"not of the form 2n\+1"):
            koranyi_norm(np.ones(4))


class TestInverse:
    def test_examples(self):
        assert np.allclose(inverse(np.zeros(3)), 0.0)
        assert np.allclose(inverse(hp(1, 2, 3)), [-1, -2, -3])

    def test_group_axiom(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=5)
            assert np.allclose(group_law(inverse(x), x), 0.0, atol=1e-12)


class TestDilate:
    def test_unit(self):
        x = hp(0.3, -1.0, 2.0)
        assert np.allclose(dilate(1.0, x), x)

    def test_hand_value(self):
        assert np.allclose(dilate(2.0, hp(1, 1, 1)), [2, 2, 4])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.floats(0.01, 50.0), st.floats(0.01, 50.0), triple)
    def test_semigroup(self, r, s, a):
        x = hp(*a)
        got = dilate(r, dilate(s, x))
        want = dilate(r * s, x)
        assert np.allclose(got, want, rtol=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            dilate(0.0, hp(1, 0, 0))
        with pytest.raises(ValueError):
            dilate(-2.0, hp(1, 0, 0))


def _in_place_dilation(r, x, n):
    """Per-coordinate in-place scaling of a copy of x, broadcast up front."""
    out = np.array(np.broadcast_to(x, np.broadcast_shapes(x.shape[:-1], np.shape(r)) + x.shape[-1:]))
    out[..., : 2 * n] *= np.asarray(r)[..., None]
    out[..., 2 * n] *= np.asarray(r) * np.asarray(r)
    return out


class TestDilateArrays:
    N, K, k, n = 7, 5, 3, 2

    @pytest.mark.parametrize("r_shape, x_shape", [
        ((), (N, 2 * n + 1)),
        ((N,), (N, 2 * n + 1)),
        ((N, 1), (N, K, 2 * n + 1)),
        ((K,), (k, 1, 2 * n + 1)),
        ((k, K), (k, 1, 2 * n + 1)),
    ])
    def test_bitwise_equal_to_in_place_scaling(self, r_shape, x_shape):
        rng = np.random.default_rng(4)
        x = rng.normal(size=x_shape) * 3.0
        r = rng.uniform(0.01, 10.0, size=r_shape)
        got = dilate_arrays(r, x, self.n)
        want = _in_place_dilation(r, x, self.n)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_fresh_array_and_zero_radius(self):
        x = np.array([[1.0, -2.0, 3.0]])
        out = dilate_arrays(0.0, x, 1)
        assert out is not x and x.tolist() == [[1.0, -2.0, 3.0]]
        assert np.all(out == 0.0)


class TestKoranyiNorm:
    def test_unit_horizontal(self):
        assert koranyi_norm(hp(1, 0, 0)) == 1.0

    def test_vertical(self):
        assert koranyi_norm(hp(0, 0, 4)) == pytest.approx(2.0, rel=1e-15)

    def test_homogeneity_hand_value(self):
        got = koranyi_norm(dilate(3.0, hp(1, 1, 1)))
        assert got == pytest.approx(3 * 5**0.25, rel=1e-13)
        assert got == pytest.approx(405.0**0.25, rel=1e-13)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.floats(1e-3, 1e3), triple)
    def test_homogeneity(self, r, a):
        x = hp(*a)
        assert koranyi_norm(dilate(r, x)) == pytest.approx(r * koranyi_norm(x), rel=1e-12, abs=1e-15)


class TestDistance:
    def test_self(self):
        x = hp(0.4, 1.0, -2.0)
        assert distance(x, x) == 0.0

    def test_to_origin(self):
        x = hp(0.4, 1.0, -2.0)
        assert distance(x, np.zeros(3)) == pytest.approx(koranyi_norm(x), rel=1e-15)

    def test_left_invariance(self):
        rng = np.random.default_rng(3)
        Z, P, Q = (rng.normal(size=(200, 3)) for _ in range(3))
        lhs = distance(group_law(Z, P), group_law(Z, Q))
        rhs = distance(P, Q)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_triangle_inequality_fuzz(self):
        rng = np.random.default_rng(4)
        P, X, Q = (rng.normal(scale=2.0, size=(10_000, 3)) for _ in range(3))
        lhs = distance(P, Q)
        rhs = distance(P, X) + distance(X, Q)
        assert np.all(lhs <= rhs + 1e-12)


def _exact_distance(p, q, n):
    """d(p, q) from exact rational arithmetic on the float inputs, rounded
    once to a float before the fourth root, and the exact vertical part v."""
    p = [Fraction(float(a)) for a in p]
    q = [Fraction(float(a)) for a in q]
    horiz = sum((a - b) ** 2 for a, b in zip(p[: 2 * n], q[: 2 * n]))
    v = p[2 * n] - q[2 * n] + 2 * sum(q[j] * p[n + j] - p[j] * q[n + j] for j in range(n))
    return float(horiz * horiz + v * v) ** 0.25, float(v)


class TestFusedDistance:
    """The fused kernel against exact arithmetic.  The composition
    |q^{-1} o p|_h is no reference at the ulp level: where its cross term
    cancels it is itself off by tens of ulp."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_within_four_ulp_of_exact(self, n, scale):
        rng = np.random.default_rng(n)
        P, Q = (rng.normal(scale=scale, size=(150, 2 * n + 1)) for _ in range(2))
        for q in (Q[0], Q):  # one point (matrix-vector) and a batch
            d = distance(P, q)
            qs = np.broadcast_to(q, P.shape)
            exact = np.array([_exact_distance(a, b, n)[0] for a, b in zip(P, qs)])
            assert np.all(np.abs(d - exact) <= 4 * np.spacing(np.maximum(d, exact)))
            ref = koranyi_norm(group_law(inverse(q), P))
            assert np.allclose(d, ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_near_points_within_the_conditioning_bound(self, n, scale):
        # for q close to p the vertical part v cancels; a rounding error of
        # (n+1) eps * S in v, with S the sum of its terms' sizes, moves d by
        # |v| / (2 d^3) times that
        rng = np.random.default_rng(10 + n)
        P = rng.normal(scale=scale, size=(150, 2 * n + 1))
        Q = P + rng.normal(scale=scale * 1e-4, size=P.shape)
        d = distance(P, Q)
        exact, v = map(np.array, zip(*(_exact_distance(a, b, n) for a, b in zip(P, Q))))
        h = P[:, : 2 * n] - Q[:, : 2 * n]
        jq = 2.0 * np.concatenate([-Q[:, n : 2 * n], Q[:, :n]], axis=1)
        S = np.abs(P[:, 2 * n] - Q[:, 2 * n]) + np.sum(np.abs(h * jq), axis=1)
        bound = 4 * np.spacing(np.maximum(d, exact)) + (n + 1) * 2.0**-52 * np.abs(v) * S / (2 * exact**3)
        assert np.all(np.abs(d - exact) <= bound)

    def test_single_points_and_self_distance(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            P = rng.normal(scale=1e3, size=(50, 2 * n + 1))
            p, q = P[0], P[1]
            assert isinstance(distance(p, q), float)
            assert distance(p, q) == distance(P[:1], q)[0]
            exact, _ = _exact_distance(p, q, n)
            assert abs(distance(p, q) - exact) <= 4 * np.spacing(max(distance(p, q), exact))
            assert distance(p, p) == 0.0
            assert np.all(distance(P, P) == 0.0)
            assert all(distance(P, x)[i] == 0.0 for i, x in enumerate(P))


def _exact_squared_distance_on_dilation(x, s, q, n):
    """d(delta_s x, q)^2 from exact rational arithmetic on the float inputs
    (delta_s x unrounded), rounded once to a float before the square root."""
    x, q = [Fraction(float(a)) for a in x], [Fraction(float(a)) for a in q]
    s = Fraction(float(s))
    h = [s * a - b for a, b in zip(x[: 2 * n], q[: 2 * n])]
    jq = [-2 * b for b in q[n : 2 * n]] + [2 * b for b in q[:n]]
    v = s * s * x[2 * n] - q[2 * n] + sum(a * b for a, b in zip(h, jq))
    horiz = sum(a * a for a in h)
    return math.sqrt(float(horiz * horiz + v * v))


class TestDistanceOnDilations:
    """The grid kernel `DilationDistances` against exact arithmetic, within a
    bound fixed in advance: 4 ulp of M = (s |x|_h + |q|_h)^2, which bounds
    every term of H and V.  The window form is held to it at the scales the
    adjoint pairing forms, s = fl(1/t) with t = fl(lo + fl((1 - lo) sigma))."""

    @staticmethod
    def _check(x, nodes, q, n, starts=None):
        k, K = x.shape[0], len(nodes)
        if starts is None:
            scales = np.broadcast_to(nodes, (k, K))
        else:  # the adjoint pairing's t grid, inverted in place
            t = np.multiply((1.0 - starts)[:, None], nodes[None, :])
            t += starts[:, None]
            scales = np.divide(1.0, np.maximum(t, 1e-300, out=t), out=t)
        dist = DilationDistances(x, q[None, :], np.array([1.0]), nodes, starts, scales)
        got = dist(0, np.empty((k, K)), np.empty((k, K)))
        assert got.shape == (k, K)
        exact = np.array([[_exact_squared_distance_on_dilation(x[a], scales[a, b], q, n)
                           for b in range(K)] for a in range(k)])
        bound = 4 * np.spacing((scales * koranyi_norm(x)[:, None] + koranyi_norm(q)) ** 2)
        assert np.all(np.abs(got - exact) <= bound)
        return got, bound

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_the_dilated_points(self, n, scale):
        rng = np.random.default_rng(30 + n)
        x = rng.normal(size=(40, 2 * n + 1))
        q = dilate_arrays(scale, rng.normal(size=2 * n + 1), n)
        self._check(x, scale * rng.uniform(0.0, 2.0, 16), q, n)  # shared nodes
        self._check(x, rng.uniform(0.0, 1.0, 16), q, n, starts=rng.uniform(0.0, 1.0, 40))  # windows

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_points_next_to_q(self, n, scale):
        # delta_s x lands on q at s = 2 (exactly: power-of-two dilations
        # are exact) and within 1e-4 relative of it at the other rows; the
        # grid gives d^2 = 0 there only to within the bound
        rng = np.random.default_rng(40 + n)
        q = dilate_arrays(scale, rng.normal(size=2 * n + 1), n)
        x = dilate_arrays(0.5, q, n) + dilate_arrays(scale, rng.normal(scale=1e-4, size=(40, 2 * n + 1)), n)
        x[0] = dilate_arrays(0.5, q, n)
        got, bound = self._check(x, np.array([0.5, 1.0, 2.0, 2.0 + 1e-6, 4.0]), q, n)
        assert abs(got[0, 2]) <= bound[0, 2]

    # window starts: 0, tiny, inner, next to 1 and 1 itself (t = 1 on every node)
    STARTS = np.array([0.0, 1e-6, 0.3, 0.9, 0.999, 1.0 - 2.0**-40, 1.0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_window_form_at_every_start(self, n, scale):
        # the Gauss-Legendre nodes of the m = 1 pairings; points and centre
        # at the scale, so every term of H and V is of order scale^2
        rng = np.random.default_rng(50 + n)
        nodes = 0.5 * (np.polynomial.legendre.leggauss(32)[0] + 1.0)
        x = dilate_arrays(scale, rng.normal(size=(42, 2 * n + 1)), n)
        q = dilate_arrays(scale, rng.normal(size=2 * n + 1), n)
        self._check(x, nodes, q, n, starts=np.resize(self.STARTS, 42))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_window_points_next_to_delta_t_q(self, n, scale):
        # x next to delta_t q at one node's t per row, so that delta_{1/t} x
        # is next to q there; rows 0 and 1 are delta_t q itself, at t = 1/2
        # (lo = 0, sigma = 1/2) and t = 1 (lo = 1/2, sigma = 1), where d is
        # exactly 0
        rng = np.random.default_rng(60 + n)
        q = dilate_arrays(scale, rng.normal(size=2 * n + 1), n)
        nodes = np.array([0.1, 0.25, 0.5, 0.5 + 1e-6, 0.75, 1.0])
        starts = np.resize(self.STARTS, 40)
        t = starts + (1.0 - starts) * nodes[rng.integers(0, len(nodes), 40)]
        x = dilate_arrays(t, q, n)
        x += dilate_arrays(scale, rng.normal(scale=1e-4, size=(40, 2 * n + 1)), n)
        x[0], x[1] = dilate_arrays(0.5, q, n), q
        starts[0], starts[1] = 0.0, 0.5
        got, bound = self._check(x, nodes, q, n, starts=starts)
        assert abs(got[0, 2]) <= bound[0, 2] and abs(got[1, 5]) <= bound[1, 5]


def _ball_volume_reduction(n: int) -> float:
    """Independent oracle: reduce the unit-ball volume to a 1D integral,
    area(S^{2n-1}) * int_0^1 rho^(2n-1) * 2*sqrt(1-rho^4) drho."""
    area = 2 * math.pi**n / math.gamma(n)
    val, _ = quad(lambda r: r ** (2 * n - 1) * 2.0 * math.sqrt(1 - r**4), 0, 1)
    return area * val


class TestVolumes:
    @pytest.mark.parametrize("n,expected", [
        (1, math.pi**2 / 2),
        (2, 2 * math.pi**2 / 3),
        (3, math.pi**4 / 16),
    ])
    def test_closed_forms(self, n, expected):
        assert unit_ball_volume(n) == pytest.approx(expected, rel=1e-14)
        assert unit_ball_volume(n) == pytest.approx(_ball_volume_reduction(n), rel=1e-11)

    def test_scaling(self):
        d = GroupDims(1)
        assert ball_volume(d, 2.0) == pytest.approx(8 * math.pi**2, rel=1e-14)
        with pytest.raises(ValueError):
            ball_volume(d, 0.0)

    def test_polyball_is_product_of_balls(self):
        spec = ProductSpec.of_orders(1, 2)
        want = ball_volume(GroupDims(1), 0.5) * ball_volume(GroupDims(2), 1.7)
        assert polyball_volume(spec, (0.5, 1.7)) == want
        assert polyball_volume(spec, np.array([0.5, 1.7])) == want
        for radii in ((1.0, 0.0), (-1.0, 1.0)):
            with pytest.raises(ValueError):
                polyball_volume(spec, radii)

    def test_alt_normalization_is_doubled(self):
        for n in (1, 2, 3):
            assert hgroup.alt_unit_ball_volume(n) == 2.0 * unit_ball_volume(n)

    def test_dims_invariants(self):
        for n in (1, 2, 5):
            d = GroupDims(n)
            assert d.Q == 2 * n + 2
            assert d.omega == d.Q * d.ball_volume

    def test_product_spec(self):
        spec = ProductSpec.of_orders(1, 2)
        assert spec.m == 2
        with pytest.raises(ValueError):
            ProductSpec(())


class TestSamplers:
    def test_ball_support_and_radial_mean(self):
        d = GroupDims(1)
        rng = np.random.default_rng(7)
        pts = sample_unit_ball(d, rng, size=200_000)
        norms = koranyi_norm(pts)
        assert norms.max() < 1.0
        # radial density Q r^(Q-1) gives E r = Q/(Q+1) = 0.8 for Q=4
        se = norms.std() / math.sqrt(len(norms))
        assert abs(norms.mean() - 0.8) < 3 * se

    def test_ball_mean_other_orders(self):
        for n in (2, 3):
            d = GroupDims(n)
            rng = np.random.default_rng(70 + n)
            norms = koranyi_norm(sample_unit_ball(d, rng, size=60_000))
            target = d.Q / (d.Q + 1)
            se = norms.std() / math.sqrt(len(norms))
            assert abs(norms.mean() - target) < 4 * se

    def test_sphere_on_sphere(self):
        d = GroupDims(1)
        rng = np.random.default_rng(8)
        pts = sample_unit_sphere(d, rng, size=20_000)
        assert np.max(np.abs(koranyi_norm(pts) - 1.0)) < 1e-12

    def test_sphere_symmetry(self):
        d = GroupDims(1)
        rng = np.random.default_rng(9)
        pts = sample_unit_sphere(d, rng, size=200_000)
        se = pts[:, 0].std() / math.sqrt(len(pts))
        assert abs(pts[:, 0].mean()) < 3 * se

    def test_polar_reconstruction(self):
        # radius with density Q r^(Q-1) times an independent sphere sample
        # must match the uniform ball law
        d = GroupDims(1)
        rng = np.random.default_rng(10)
        k = 200_000
        r = rng.random(k) ** (1.0 / d.Q)
        xi = sample_unit_sphere(d, rng, size=k)
        xi[:, : 2 * d.n] *= r[:, None]
        xi[:, 2 * d.n] *= r * r
        ball = sample_unit_ball(d, rng, size=k)
        for stat in (lambda a: koranyi_norm(a), lambda a: a[:, 2] ** 2):
            s1, s2 = stat(xi), stat(ball)
            se = math.hypot(s1.std() / math.sqrt(k), s2.std() / math.sqrt(k))
            assert abs(s1.mean() - s2.mean()) < 3 * se

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sphere_matches_the_projected_ball(self, n):
        # the direct polar draw against its definition, delta_{1/|x|}(x) for
        # x uniform on the ball: quantiles of theta = asin(x_t) and of one
        # horizontal coordinate agree within binomial error, and the sphere
        # is hit to rounding at every n
        from scipy.stats import ks_2samp

        d = GroupDims(n)
        k = 40_000
        direct = sample_unit_sphere(d, np.random.default_rng(60 + n), size=k)
        ball = sample_unit_ball(d, np.random.default_rng(70 + n), size=k)
        norms = koranyi_norm(ball)
        ball[:, : 2 * n] /= norms[:, None]
        ball[:, 2 * n] /= norms**2
        assert np.max(np.abs(koranyi_norm(direct) - 1.0)) < 1e-14
        theta = [np.arcsin(a[:, 2 * n]) for a in (direct, ball)]
        probs = np.linspace(0.05, 0.95, 19)
        q_direct, q_ball = (np.quantile(t, probs) for t in theta)
        # each quantile of the other sample sits at its probability within
        # 4 binomial sigmas of both samples together
        got = np.searchsorted(np.sort(theta[0]), q_ball) / k
        assert np.all(np.abs(got - probs) < 4.0 * np.sqrt(2.0 * probs * (1 - probs) / k))
        if n == 1:  # theta is uniform on (-pi/2, pi/2)
            assert np.allclose(q_direct, np.pi * (probs - 0.5), atol=4.0 * np.pi / math.sqrt(k))
        for j in (0, 2 * n - 1):
            assert ks_2samp(direct[:, j], ball[:, j]).pvalue > 1e-3

    def test_stratified_sphere_matches_the_iid_one(self):
        # at n = 1 angle uniforms in one stratum each, in random order, put
        # one horizontal angle in each of k equal arcs of the circle, and
        # the coordinates follow the i.i.d. law
        from scipy.stats import ks_2samp

        d = GroupDims(1)
        k = 40_000
        rng = np.random.default_rng(61)
        angle = (rng.permutation(k) + rng.random(k)) / k
        strat = sample_unit_sphere(d, rng, size=k, angle=angle)
        iid = sample_unit_sphere(d, np.random.default_rng(71), size=k)
        assert np.max(np.abs(koranyi_norm(strat) - 1.0)) < 1e-14
        angle = np.arctan2(strat[:, 1], strat[:, 0]) / (2.0 * np.pi) + 0.5
        assert np.array_equal(np.sort(np.floor(angle * k)), np.arange(k))
        for j in range(3):
            assert ks_2samp(strat[:, j], iid[:, j]).pvalue > 1e-3


# The kernels' earlier formulas, which made the 2n+1 coordinates numpy's
# inner loop: the column-wise kernels must reproduce them.
def _ref_koranyi_norm(x, n):
    horiz = np.sum(x[..., : 2 * n] ** 2, axis=-1)
    return (horiz**2 + x[..., 2 * n] ** 2) ** 0.25


def _ref_distance(p, q, n):
    h = p[..., : 2 * n] - q[..., : 2 * n]
    horiz = np.einsum("...i,...i->...", h, h)
    jq = 2.0 * np.concatenate([-q[..., n : 2 * n], q[..., :n]], axis=-1)
    cross = h @ jq if q.ndim == 1 else np.einsum("...i,...i->...", h, jq)
    vert = p[..., 2 * n] - q[..., 2 * n] + cross
    return np.sqrt(np.sqrt(horiz * horiz + vert * vert))


def _ref_dilate_arrays(r, x, n):
    r = np.asarray(r, dtype=float)
    out = np.empty(np.broadcast_shapes(x.shape[:-1], r.shape) + x.shape[-1:])
    np.multiply(x[..., : 2 * n], r[..., None], out=out[..., : 2 * n])
    np.multiply(x[..., 2 * n], r * r, out=out[..., 2 * n])
    return out


def _ref_group_law(x, y, n):
    out = x + y
    cross = 2.0 * np.sum(y[..., :n] * x[..., n : 2 * n] - x[..., :n] * y[..., n : 2 * n], axis=-1)
    out[..., 2 * n] = x[..., 2 * n] + y[..., 2 * n] + cross
    return out


class TestColumnKernelsArePinned:
    """The column-wise kernels against the reference formulas above, on
    random batches: bit for bit at n = 1, where every report lives.  At
    n = 2 and 3 the norm, the dilation and the group law still match bit for
    bit, but `distance` adds its horizontal squares in order where einsum
    may pair them.  Two orders of a sum of 2n nonnegative terms differ by at
    most (2n - 1) eps relative, which moves d = (horiz^2 + v^2)^(1/4) by at
    most half of that: (2n - 1) ulp of d, and 2 more for the roundings after
    the sum, is the bound held."""

    @staticmethod
    def _batches(n, scale=3.0):
        rng = np.random.default_rng(40 + n)
        x, y = (rng.normal(scale=scale, size=(2000, 2 * n + 1)) for _ in range(2))
        return rng, x, y

    @staticmethod
    def _ulps(got, want):
        return np.max(np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want))))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_norm_dilation_and_group_law(self, n):
        rng, x, y = self._batches(n)
        assert koranyi_norm(x).tobytes() == _ref_koranyi_norm(x, n).tobytes()
        assert group_law(x, y).tobytes() == _ref_group_law(x, y, n).tobytes()
        assert group_law(x[0], y).tobytes() == _ref_group_law(x[0], y, n).tobytes()
        k, K = 40, 32
        for r, pts in ((rng.uniform(0.1, 3.0, len(x)), x),
                       (rng.uniform(0.0, 1.0, K), x[:k, None, :])):  # (k, 1, 2n+1) x (K,)
            got = dilate_arrays(r, pts, n)
            assert got.shape == _ref_dilate_arrays(r, pts, n).shape
            assert got.tobytes() == _ref_dilate_arrays(r, pts, n).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_distance(self, n):
        _, x, y = self._batches(n)
        # one centre (the @ product), a batch of centres and two single points
        for p, q in ((x, y[0]), (x, y), (x[0], y[1])):
            got, want = np.asarray(distance(p, q)), _ref_distance(p, q, n)
            if n == 1:
                assert got.tobytes() == want.tobytes()
            else:
                assert self._ulps(got, want) <= 2 * n + 1

    @pytest.mark.parametrize("factors", [(1,), (1, 1)])
    def test_bump_sampler_gathers_the_centres_as_fancy_indexing(self, factors):
        # the support sampler's points against c[choice] o delta_{r s}(sigma),
        # drawn from the same stream through the reference kernels
        from hardylab import funcs, operators
        from hardylab.funcs import random_bump_mixture

        spec = ProductSpec.of_orders(*factors)
        f = random_bump_mixture(spec, np.random.default_rng(5))
        k = 3000
        pts = operators._support_sampler(f, spec)[0](np.random.default_rng(6), k)[0]
        rng = np.random.default_rng(6)
        cdf = np.cumsum(f.bump_masses())
        choice = np.searchsorted(cdf, rng.random(k) * cdf[-1], side="right")
        for i, dims in enumerate(spec.factors):
            c = np.stack([b.centers[i] for b in f.bumps])
            r = np.array([b.radii[i] for b in f.bumps])
            scale = funcs.sample_bump_radii(dims.Q, rng, k) * r[choice]
            sphere = sample_unit_sphere(dims, rng, k)
            want = _ref_group_law(c[choice], _ref_dilate_arrays(scale, sphere, dims.n), dims.n)
            assert pts[i].tobytes() == want.tobytes()

    @pytest.mark.parametrize("factors, value, std_error", [
        ((1,), "0x1.5033fd3ca4afap-4", "0x1.0b18f64c7de15p-13"),
        ((1, 1), "0x1.2148a532c6a69p-5", "0x1.3ffee33c48249p-14"),
    ])
    def test_compact_estimate_keeps_the_add_at_bits(self, factors, value, std_error):
        # the values of np.add.at count histograms over c[choice] gathers, on
        # the stratified draws: np.take gathers the same rows, and
        # np.bincount's counts are exact
        from hardylab import operators
        from hardylab.funcs import random_bump_mixture

        spec = ProductSpec.of_orders(*factors)
        seed = 20 + len(factors)
        f = random_bump_mixture(spec, np.random.default_rng(seed))
        est = operators._hardy_norm_compact(f, 2.0, spec, 6_000, seed=seed)
        assert (est.value.hex(), est.std_error.hex()) == (value, std_error)
