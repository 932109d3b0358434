"""Heisenberg group arithmetic, Koranyi geometry, and uniform ball/sphere sampling.

The group H^n lives on R^{2n+1}: 2n horizontal coordinates and one vertical
coordinate that scales quadratically under dilations.  Everything downstream
(quadrature, operators, experiments) consumes the constants derived here:
the homogeneous dimension Q = 2n+2, the Lebesgue volume of the unit Koranyi
ball, and the polar sphere constant omega = Q * volume.

Points are coordinate arrays of shape (..., 2n+1), n read from the last axis.
`koranyi_norm`, `distance`, `dilate_arrays` and `group_law` work on them one
coordinate column at a time, so that each numpy pass runs over the points,
not over the 2n+1 coordinates of one point.
All operations are exact formulas; the only randomness is in the samplers,
which take an explicit numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GroupDims",
    "ProductSpec",
    "group_law",
    "inverse",
    "dilate",
    "dilate_arrays",
    "koranyi_norm",
    "distance",
    "DilationDistances",
    "unit_ball_volume",
    "alt_unit_ball_volume",
    "ball_volume",
    "polyball_volume",
    "sample_unit_ball",
    "sample_unit_sphere",
    "sample_ball",
]


@lru_cache(maxsize=None)
def unit_ball_volume(n: int) -> float:
    """Lebesgue volume of the unit Koranyi ball {x : |x|_h < 1} in H^n.

    Reducing to the (rho, t) plane gives the closed form
    pi^(n+1/2) * Gamma(n/2) / ((n+1) * Gamma(n) * Gamma((n+1)/2)),
    e.g. pi^2/2 for n=1 and 2*pi^2/3 for n=2.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    try:
        return (
            math.pi ** (n + 0.5)
            * math.gamma(n / 2.0)
            / ((n + 1) * math.gamma(float(n)) * math.gamma((n + 1) / 2.0))
        )
    except OverflowError as err:
        raise ValueError(f"the unit-ball volume of H^{n} overflows a float") from err


def alt_unit_ball_volume(n: int) -> float:
    """Alternative normalization of the unit-ball constant found in the literature.

    Exactly twice `unit_ball_volume`; reports carry the ratio so the
    discrepancy stays visible.  Sharp-constant results do not depend on it.
    """
    return 2.0 * unit_ball_volume(n)


@dataclass(frozen=True)
class GroupDims:
    """Dimensional data of one factor H^n."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("group index n must be a positive integer")

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    def Q(self) -> int:
        """Homogeneous dimension 2n+2 governing |delta_r E| = r^Q |E|."""
        return 2 * self.n + 2

    @property
    def ball_volume(self) -> float:
        return unit_ball_volume(self.n)

    @property
    def omega(self) -> float:
        """Polar sphere constant Q * ball_volume, so that
        integral f dx = omega * integral_0^inf (sphere avg of f at r) r^(Q-1) dr."""
        return self.Q * self.ball_volume


@dataclass(frozen=True)
class ProductSpec:
    """A product H^{n_1} x ... x H^{n_m}."""

    factors: tuple[GroupDims, ...]

    def __post_init__(self) -> None:
        if len(self.factors) < 1:
            raise ValueError("a product space needs at least one factor")

    @classmethod
    def of_orders(cls, *ns: int) -> "ProductSpec":
        return cls(tuple(GroupDims(int(n)) for n in ns))

    @property
    def m(self) -> int:
        return len(self.factors)


def _coerce(x) -> tuple[np.ndarray, int]:
    """x as a float array, and the n of its last axis of length 2n+1."""
    arr = np.asarray(x, dtype=float)
    dim = arr.shape[-1]
    if dim < 3 or dim % 2 == 0:
        raise ValueError(f"coordinate length {dim} is not of the form 2n+1 with n >= 1")
    return arr, (dim - 1) // 2


def dilate_arrays(r, x: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """delta_r on coordinate arrays, unchecked, as a fresh array or into
    `out` (x itself dilates in place): x[..., :2n] * r and x[..., 2n] * (r*r),
    with r broadcasting against x[..., 0] (so r of shape (K,) against x of
    shape (k, 1, 2n+1) gives (k, K, 2n+1)).  r = 0 collapses x onto the
    origin."""
    r = np.asarray(r, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(x.shape[:-1], r.shape) + x.shape[-1:])
    for i in range(2 * n):
        np.multiply(x[..., i], r, out=out[..., i])
    np.multiply(x[..., 2 * n], r * r, out=out[..., 2 * n])
    return out


def _sum_of_squares(cols) -> np.ndarray:
    """sum_i c_i^2 over the columns c_i, added in order: for up to six
    columns the order of np.sum over a last axis, bit for bit."""
    acc = np.square(cols[0])
    tmp = np.empty_like(acc)
    for c in cols[1:]:
        acc += np.square(c, out=tmp)
    return acc


def group_law(x, y):
    """Group product x o y.  Horizontal parts add; the vertical part picks up
    the symplectic cross term 2 * sum_j (y_j x_{n+j} - x_j y_{n+j})."""
    x, n = _coerce(x)
    y, yn = _coerce(y)
    if n != yn:
        raise ValueError(f"dimension mismatch: n={n} vs n={yn}")
    out = x + y
    cross = y[..., 0] * x[..., n] - x[..., 0] * y[..., n]
    for j in range(1, n):
        cross += y[..., j] * x[..., n + j] - x[..., j] * y[..., n + j]
    cross *= 2.0
    out[..., 2 * n] = x[..., 2 * n] + y[..., 2 * n] + cross
    return out


def inverse(x):
    """Group inverse: coordinate-wise negation."""
    return -_coerce(x)[0]


def dilate(r, x):
    """Anisotropic dilation delta_r: horizontal coordinates scale by r,
    the vertical coordinate by r^2.  Requires r > 0."""
    xa, xn = _coerce(x)
    if np.any(np.asarray(r, dtype=float) <= 0.0):
        raise ValueError("dilation parameter must be positive")
    return dilate_arrays(r, xa, xn)


def koranyi_norm(x):
    """Koranyi gauge ((sum_i x_i^2)^2 + x_vert^2)^(1/4)."""
    xa, xn = _coerce(x)
    val = _sum_of_squares([xa[..., i] for i in range(2 * xn)])
    val *= val
    val += np.square(xa[..., 2 * xn])
    val **= 0.25
    return float(val) if val.ndim == 0 else val


def distance(p, q):
    """Left-invariant distance d(p, q) = |q^{-1} o p|_h, fused into one pass.

    With the horizontal difference h = p_h - q_h and the symplectic map
    J q = (-q_{n+1..2n}, q_{1..n}), the vertical part of q^{-1} o p is
    p_t - q_t + p_h . (2 J q) = p_t - q_t + h . (2 J q), since q . J q = 0.
    Then d = sqrt(sqrt(|h|^4 + v^2)).  Writing the cross term through h
    keeps d(x, x) exactly 0.  A single point q makes it a matrix-vector
    product; q may also be a batch that broadcasts against p."""
    pa, n = _coerce(p)
    qa, qn = _coerce(q)
    if n != qn:
        raise ValueError(f"dimension mismatch: n={n} vs n={qn}")
    h = np.empty(np.broadcast_shapes(pa.shape, qa.shape)[:-1] + (2 * n,))
    for i in range(2 * n):
        np.subtract(pa[..., i], qa[..., i], out=h[..., i])
    horiz = _sum_of_squares([h[..., i] for i in range(2 * n)])
    if qa.ndim == 1:
        cross = h @ (2.0 * np.concatenate([-qa[n : 2 * n], qa[:n]]))
    else:  # (2 J q)_i is -2 q_{n+i} for i < n, else 2 q_{i-n}
        cross = h[..., 0] * (-2.0 * qa[..., n])
        for i in range(1, 2 * n):
            cross += h[..., i] * (-2.0 * qa[..., n + i] if i < n else 2.0 * qa[..., i - n])
    vert = pa[..., 2 * n] - qa[..., 2 * n]
    vert += cross
    horiz *= horiz
    vert *= vert
    horiz += vert
    val = np.sqrt(np.sqrt(horiz))
    return float(val) if val.ndim == 0 else val


class DilationDistances:
    """Grids u_j = (d(delta_s x, q_j) / r_j)^2 for one factor's points x
    (k, 2n+1), centres q_j (J, 2n+1) and radii r_j, on the (k, K) scales a
    pairing makes from its nodes sigma (K,): s = sigma (shared nodes), or,
    given window starts lo (k,), s = 1/t with t = lo + (1 - lo) sigma, whose
    (k, K) grid `scales` the window form also reads.

    With A = |x_h|^2, B = x_h . q_h and U = x_h . (2 J q), the horizontal part
    of q^{-1} o delta_s x has squared length H = A s^2 - 2B s + |q_h|^2 and
    its vertical part is V = x_t s^2 + U s - q_t (as in `distance`,
    q_h . J q = 0), so d^2 = sqrt(H^2 + V^2).  With shared nodes H and V
    are quadratics in sigma.  In the window form H = s^2 X + |q_h|^2 and
    V = s^2 Y - q_t, with X = A - 2B t and Y = x_t + U t linear in sigma;
    the constants are added after the products with s, so that the rounding
    of t (s t = 1 only to a few ulp) reaches the B and U terms alone.  Each
    grid of H, V, X or Y is one (k, 3) @ (3, K) product of per-point
    coefficient rows with node powers.  The per-point features (A, x_t and
    x_h, or lo x_h and (1 - lo) x_h) are formed once per chunk and factor,
    and a centre's rows, 1/r^2 folded in, are one product of them with that
    centre's matrix.

    Every term of H and V is at most M = (s |x|_h + |q|_h)^2, so cancellation
    leaves an absolute error of a few ulp of M / r^2 (the tests hold it to 4);
    unlike `distance`, the grid does not give an exact 0 where delta_s x = q.
    A call writes nothing but the grids h and v it is given and the
    instance's own rows, so threads that each make an instance and pass
    grids of their own (a chunk's `measure.GridWorkspace`) may run at once."""

    def __init__(self, x: np.ndarray, centers, radii: np.ndarray, nodes: np.ndarray,
                 starts: np.ndarray | None, scales) -> None:
        n = _coerce(x)[1]
        q = np.reshape(centers, (-1, 2 * n + 1))
        qh, qt = q[:, : 2 * n], q[:, 2 * n]
        p = np.einsum("ji,ji->j", qh, qh)
        jq = 2.0 * np.concatenate([-q[:, n : 2 * n], q[:, :n]], axis=1)
        inv_r2 = 1.0 / np.square(radii)
        xh = np.ascontiguousarray(x[:, : 2 * n].T)
        a = np.einsum("ik,ik->k", xh, xh)
        # one feature per row, so that each is a contiguous pass over the
        # points; matrix columns per centre: three for H (or X), then three
        # for V (or Y), which multiply the node powers
        if starts is None:  # features x_h, x_t, 1, A; powers sigma^2, sigma, 1
            features = np.vstack([xh, x[:, 2 * n], np.ones(len(a)), a])
            mat = np.zeros((2 * n + 3, len(q), 6))
            mat[: 2 * n, :, 1], mat[: 2 * n, :, 4] = -2.0 * qh.T, jq.T
            mat[-3, :, 3] = mat[-1, :, 0] = 1.0
            mat[-2, :, 2], mat[-2, :, 5] = p, -qt
            self._powers = np.stack([nodes * nodes, nodes, np.ones_like(nodes)])
            self._scales = None
        else:  # features lo x_h, (1 - lo) x_h, x_t, A; powers sigma, 1, 1:
            # X = -2B (1 - lo) sigma - 2B lo + A, with A added last, and
            # Y = U (1 - lo) sigma + U lo + x_t
            features = np.vstack([xh * starts, xh * (1.0 - starts), x[:, 2 * n], a])
            mat = np.zeros((4 * n + 2, len(q), 6))
            mat[: 2 * n, :, 1], mat[: 2 * n, :, 4] = -2.0 * qh.T, jq.T
            mat[2 * n : 4 * n, :, 0], mat[2 * n : 4 * n, :, 3] = -2.0 * qh.T, jq.T
            mat[-2, :, 5] = mat[-1, :, 2] = 1.0
            self._powers = np.stack([nodes, np.ones_like(nodes), np.ones_like(nodes)])
            self._scales, self._p, self._qt = scales, p * inv_r2, qt * inv_r2
        mat *= inv_r2[:, None]
        self._features, self._mat = features.T, mat
        self._rows = np.empty((len(x), 6))

    def __call__(self, j: int, h: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u_j in the (k, K) grid h, which it returns; v is working space."""
        rows = np.matmul(self._features, self._mat[:, j], out=self._rows)
        np.matmul(rows[:, :3], self._powers, out=h)
        np.matmul(rows[:, 3:], self._powers, out=v)
        if self._scales is not None:
            for grid, const in ((h, self._p[j]), (v, -self._qt[j])):
                grid *= self._scales
                grid *= self._scales
                grid += const
        h *= h
        v *= v
        h += v
        return np.sqrt(h, out=h)


def ball_volume(dims: GroupDims, r: float) -> float:
    """Volume of the Koranyi ball of radius r: ball_volume * r^Q."""
    if r <= 0.0:
        raise ValueError("radius must be positive")
    return dims.ball_volume * r**dims.Q


def polyball_volume(spec: ProductSpec, radii) -> float:
    """Volume of the polyball B(0, r_1) x ... x B(0, r_m): the product of
    the factors' `ball_volume`, taken in factor order."""
    vol = 1.0
    for dims, r in zip(spec.factors, radii):
        vol *= ball_volume(dims, float(r))
    return vol


def sample_unit_ball(dims: GroupDims, rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform (Haar/Lebesgue) samples on the open unit Koranyi ball.

    The radial pair (rho, t) is drawn by rejection against the density
    proportional to rho^(2n-1) on {rho^4 + t^2 < 1}; a uniform direction on
    the Euclidean sphere S^(2n-1) supplies the horizontal part.  Acceptance
    rates stay dimension-independent because the proposal already carries
    the rho^(2n-1) weight.  Returns an array of shape (size, 2n+1).
    """
    n = dims.n
    rho = np.empty(size)
    t = np.empty(size)
    filled = 0
    while filled < size:
        k = max(64, int(1.6 * (size - filled)))
        rho_prop = rng.random(k) ** (1.0 / (2 * n))
        t_prop = rng.uniform(-1.0, 1.0, k)
        ok = rho_prop**4 + t_prop**2 < 1.0
        take = min(int(ok.sum()), size - filled)
        idx = np.nonzero(ok)[0][:take]
        rho[filled : filled + take] = rho_prop[idx]
        t[filled : filled + take] = t_prop[idx]
        filled += take
    direction = rng.standard_normal((size, 2 * n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    pts = np.empty((size, dims.dim))
    pts[:, : 2 * n] = rho[:, None] * direction
    pts[:, 2 * n] = t
    return pts


def sample_unit_sphere(dims: GroupDims, rng: np.random.Generator, size: int,
                       angle: np.ndarray | None = None) -> np.ndarray:
    """Samples on the unit Koranyi sphere under the normalized polar surface
    measure, the law of delta_{1/|x|_h}(x) for x uniform on the unit ball.

    With |x_h|^2 = r^2 cos(theta) and x_t = r^2 sin(theta), Lebesgue measure
    is r^(Q-1) cos(theta)^(n-1) dr dtheta times the uniform measure on the
    horizontal directions.  So the sphere point is (sqrt(cos(theta)) e,
    sin(theta)) with e uniform on S^(2n-1) and w = sin(theta) of density
    proportional to (1 - w^2)^(n/2 - 1), that is w = 2B - 1 with
    B ~ Beta(n/2, n/2).  At n = 1 that is the arcsine law of cos(pi U), and
    the angle of e is uniform; both are drawn as such.

    At n = 1, `angle`, if given, holds the `size` uniforms V of the angles
    2 pi (V - 1/2), each in [0, 1) and uniform on its own (a caller's
    strata), and is overwritten; w stays i.i.d.  At n >= 2 it must be None:
    the direction comes from normals and w from a Beta variate, which have
    no cheap inverse to take strata through."""
    n = dims.n
    out = np.empty((size, dims.dim))
    if n == 1:  # w = cos(pi U); the angle of e, pi (2V - 1), keeps cos and sin on [-pi, pi]
        if angle is None:
            w, phi = rng.random((2, size))
        else:
            w, phi = rng.random(size), angle
        w *= math.pi
        np.cos(w, out=w)
        out[:, 2] = w
        rho = np.sqrt(np.sqrt((1.0 - w) * (1.0 + w)))  # sqrt(cos(theta))
        phi -= 0.5
        if angle is None:
            phi *= 2.0 * math.pi
            np.multiply(rho, np.cos(phi), out=out[:, 0])
            np.multiply(rho, np.sin(phi, out=phi), out=out[:, 1])
            return out
        # from t = tan(angle / 2): cos = (1 - t^2)/(1 + t^2), sin = 2t/(1 + t^2),
        # within an ulp or two of cos and sin, and about a fifth of their time
        # (the branch above keeps np.cos and np.sin, whose bits C6 and C8 report)
        phi *= math.pi
        t = np.tan(phi, out=phi)
        t2 = t * t
        rho /= 1.0 + t2
        np.multiply(rho, np.subtract(1.0, t2, out=t2), out=out[:, 0])
        t += t
        np.multiply(rho, t, out=out[:, 1])
        return out
    direction = rng.standard_normal((size, 2 * n))
    w = 2.0 * rng.beta(0.5 * n, 0.5 * n, size) - 1.0
    out[:, 2 * n] = w
    w *= -w
    w += 1.0
    scale = np.sqrt(w, out=w)  # cos(theta)
    scale /= np.einsum("ij,ij->i", direction, direction)
    np.multiply(direction, np.sqrt(scale, out=scale)[:, None], out=out[:, : 2 * n])
    return out


def sample_ball(dims: GroupDims, rng: np.random.Generator, radius: float, size: int):
    """Uniform samples on B(0, radius): unit-ball samples pushed through delta_radius."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    return dilate_arrays(radius, sample_unit_ball(dims, rng, size=size), dims.n)
