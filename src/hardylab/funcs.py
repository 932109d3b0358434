"""Test functions on products of Heisenberg groups.

Four families cover everything the experiments need: truncated power
functions inside and outside the unit polyball (the near-extremal families),
radial products of 1D profiles, and smooth bump mixtures (the non-radial
fuzzing surface).  Each function evaluates vectorized batches of per-factor
coordinate arrays, one row per point, and knows its own support and, where
available, its exact L^p norm and radial profiles.  The operators' dilation
integrals evaluate f on grids of dilations through `TestFunction.on_dilations`,
which bump mixtures answer without forming the dilated points, in grids of
the chunk's `GridWorkspace`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import hgroup
from .hgroup import ProductSpec, dilate_arrays, koranyi_norm
from .measure import GridWorkspace, UnsupportedFamilyError, integrate_1d

__all__ = [
    "TestFunction",
    "PowerInside",
    "PowerOutside",
    "RadialProduct",
    "Bump",
    "BumpMixture",
    "UnsupportedFamilyError",
    "spherical_values",
    "random_bump_mixture",
    "parse_test_function",
]


class TestFunction:
    """Base class: f(pts) maps per-factor batches pts[i] of shape
    (N, 2n_i+1) to shape (N,).  f.on_dilations(pts, scales, nodes, starts,
    ws), with pts[i] of shape (k, 2n_i+1) and scales[i] broadcasting against
    (k, K), is the (k, K) grid of f(delta_{s_1} x_1, ..., delta_{s_m} x_m) at
    x_i = pts[i][a], s_i = scales[i][a, b], written into a grid of the
    workspace ws, which the caller may overwrite.  nodes and starts give the
    map that made the scales: scales[i] is nodes[i] (K,) when starts is
    None, else 1/t with t = lo + (1 - lo) nodes[i] at lo = starts[i][:, None]
    (the adjoint pairing's windows).  Bump mixtures read the map; the other
    families read the scales."""

    spec: ProductSpec
    family: str = "generic"

    def __call__(self, pts: list[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def on_dilations(self, pts: list[np.ndarray], scales, nodes, starts,
                     ws: GridWorkspace) -> np.ndarray:
        grid = np.broadcast_shapes((pts[0].shape[0], 1), *(np.shape(s) for s in scales))
        flat = [dilate_arrays(np.broadcast_to(s, grid), X[:, None, :], d.n).reshape(-1, d.dim)
                for d, s, X in zip(self.spec.factors, scales, pts)]
        out = ws.grid(grid)
        out[...] = np.reshape(self(flat), grid)
        return out

    def support_radii(self) -> tuple[float, ...]:
        """Per-factor radius S_i with f = 0 outside the polyball of those radii."""
        raise NotImplementedError

    def radial_profiles(self):
        """Per-factor (profile, lower, upper) when f is a radial product."""
        raise UnsupportedFamilyError(f"{self.family} is not a radial product")

    def lp_norm_exact(self, p: float) -> float:
        raise UnsupportedFamilyError(f"no closed-form norm for {self.family}")


def _radii_of(pts: list[np.ndarray]) -> list[np.ndarray]:
    return [koranyi_norm(a) for a in pts]


class _PowerFamily(TestFunction):
    """prod_i |x_i|_h^(e_i), e = `exponents`, where every radius lies in the
    region (lo, hi): the unit polyball (side = +1) or its outside (side = -1),
    on which |x_i|_h^(e_i p) is integrable when side (e_i p + Q_i) > 0.  Its
    dilation grids need one norm per point, since |delta_s x|_h = s |x|_h."""

    @property
    def exponents(self) -> tuple[float, ...]:
        raise NotImplementedError

    def __post_init__(self) -> None:
        if len(self.exponents) != self.spec.m:
            raise ValueError("one exponent per factor required")
        if not all(map(math.isfinite, self.exponents)):
            raise ValueError(f"exponents must be finite: {self.exponents}")

    def _of_radii(self, radii: list[np.ndarray]) -> np.ndarray:
        """f in place on the radius arrays, which share one shape: the result
        is radii[0].  The mask is r < 1 inside and r > 1 outside, so r = 0
        and r = inf count as in the region."""
        keep, exps = np.less if self.side > 0 else np.greater, self.exponents
        mask = keep(radii[0], 1.0)
        for r in radii[1:]:
            mask &= keep(r, 1.0)
        out = radii[0]
        # r = 0 under a negative power gives inf; off the region, where the
        # mask then sets 0, a power may also overflow
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out **= exps[0]
            for r, e in zip(radii[1:], exps[1:]):
                r **= e
                out *= r
        np.copyto(out, 0.0, where=np.logical_not(mask, out=mask))
        return out

    def __call__(self, pts: list[np.ndarray]) -> np.ndarray:
        return self._of_radii(_radii_of(pts))

    def on_dilations(self, pts: list[np.ndarray], scales, nodes, starts,
                     ws: GridWorkspace) -> np.ndarray:
        grid = np.broadcast_shapes((pts[0].shape[0], 1), *(np.shape(s) for s in scales))
        return self._of_radii([np.multiply(r[:, None], s, out=ws.grid(grid))
                               for r, s in zip(_radii_of(pts), scales)])

    def support_radii(self) -> tuple[float, ...]:
        return (self.hi,) * self.spec.m

    def radial_profiles(self):
        return [((lambda r, e=e: r**e), self.lo, self.hi) for e in self.exponents]

    def lp_norm_exact(self, p: float) -> float:
        normp = 1.0
        for dims, e in zip(self.spec.factors, self.exponents):
            denom = e * p + dims.Q
            if self.side * denom <= 0:
                raise ValueError("norm infinite: e*p + Q must be positive inside "
                                 "the unit ball and negative outside")
            normp *= dims.omega / abs(denom)
        return normp ** (1.0 / p)


@dataclass(frozen=True)
class PowerInside(_PowerFamily):
    """prod_i |x_i|_h^(alpha_i) restricted to the open unit polyball."""

    spec: ProductSpec
    alphas: tuple[float, ...]
    family: str = field(default="power-inside", init=False)
    lo, hi, side = 0.0, 1.0, 1.0

    @property
    def exponents(self) -> tuple[float, ...]:
        return self.alphas

    @classmethod
    def extremal(cls, spec: ProductSpec, p: float, eps: float) -> "PowerInside":
        """The near-extremal family with alpha_i = -Q_i/p + eps."""
        return cls(spec, tuple(-d.Q / p + eps for d in spec.factors))


@dataclass(frozen=True)
class PowerOutside(_PowerFamily):
    """prod_i |x_i|_h^(-beta_i) restricted to |x_i|_h > 1 for every factor."""

    spec: ProductSpec
    betas: tuple[float, ...]
    family: str = field(default="power-outside", init=False)
    lo, hi, side = 1.0, math.inf, -1.0

    @property
    def exponents(self) -> tuple[float, ...]:
        return tuple(-b for b in self.betas)

    @classmethod
    def extremal(cls, spec: ProductSpec, p: float, eps: float) -> "PowerOutside":
        """The outside-ball family with beta_i = Q_i/p + eps."""
        return cls(spec, tuple(d.Q / p + eps for d in spec.factors))


@dataclass(frozen=True)
class RadialProduct(TestFunction):
    """prod_i F_i(|x_i|_h) for vectorized 1D profiles F_i."""

    spec: ProductSpec
    profiles: tuple
    supports: tuple[tuple[float, float], ...] = ()
    family: str = field(default="radial-product", init=False)

    def __post_init__(self) -> None:
        if len(self.profiles) != self.spec.m:
            raise ValueError("one profile per factor required")
        if not self.supports:
            object.__setattr__(self, "supports", tuple((0.0, math.inf) for _ in self.profiles))

    def __call__(self, pts: list[np.ndarray]) -> np.ndarray:
        radii = _radii_of(pts)
        acc = np.ones_like(radii[0], dtype=float)
        for F, r, (a, b) in zip(self.profiles, radii, self.supports):
            vals = np.where((r >= a) & (r <= b), np.asarray(F(r), dtype=float), 0.0)
            acc = acc * vals
        return acc

    def support_radii(self) -> tuple[float, ...]:
        return tuple(b for _, b in self.supports)

    def radial_profiles(self):
        return [(F, a, b) for F, (a, b) in zip(self.profiles, self.supports)]


@dataclass(frozen=True)
class Bump:
    """One product bump: smooth profile exp(-1/(1-s^2)) of the scaled
    Koranyi distance s = d(center_i, x_i)/radius_i in each factor."""

    centers: tuple[np.ndarray, ...]
    radii: tuple[float, ...]
    coefficient: float

    def __post_init__(self) -> None:
        if any(r <= 0 for r in self.radii):
            raise ValueError("bump radii must be strictly positive")


def _bump_profile(u: np.ndarray) -> np.ndarray:
    """exp(-1/(1-u)) for 0 <= u < 1, else 0, in place on u, the squared
    scaled distance (u clamps at 1); NaN stays NaN."""
    with np.errstate(over="ignore", divide="ignore"):
        np.minimum(u, 1.0, out=u)
        np.subtract(1.0, u, out=u)
        np.divide(-1.0, u, out=u)
    return np.exp(u, out=u)


def _profile_at(center: np.ndarray, radius: float, X: np.ndarray) -> np.ndarray:
    """A bump's profile in one factor at the points X, exp(-1/(1-u)) with
    u = (d(X, center) / radius)^2, in place on the fresh distance array."""
    s = hgroup.distance(X, center)
    s /= radius
    s *= s
    return _bump_profile(s)


def _radial_target(s: np.ndarray, Q: int) -> np.ndarray:
    """exp(-1/(1-s^2)) s^(Q-1): the polar integrand of a bump profile at
    scaled distances s, a 1-D array, unimodal on (0, 1) with its mode at
    s^2 = (Q - sqrt(2Q - 1)) / (Q - 1)."""
    return _bump_profile(s * s) * s ** (Q - 1)


_RADIAL_CELLS = 128


@lru_cache(maxsize=None)
def _bump_radial_law(Q: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(M, lower, width, height) for the scaled radius of a bump in a factor
    of homogeneous dimension Q.  M = int_0^1 `_radial_target` ds.  The cells
    [lower, lower + width] tile [0, 1] and each holds the same envelope mass
    M / _RADIAL_CELLS, so a cell is picked uniformly.  The target rises
    before its mode and falls after it, so the cells are laid out from the
    mode both ways, and on each cell its maximum is at the edge nearer the
    mode; a cell is as wide as that mass over this maximum, and the end cells
    are cut at 0 and 1.  height = mass / width, raised by 2^-40 so that
    rounding cannot lift the target above it."""
    M = integrate_1d(lambda s: _radial_target(s, Q), 0.0, 1.0, tol=1e-14)
    mass = M / _RADIAL_CELLS
    mode = math.sqrt((Q - math.sqrt(2.0 * Q - 1.0)) / (Q - 1.0))

    def walk(step: float) -> list[float]:
        edges, e = [], mode
        while 0.0 < e < 1.0:
            g = float(_radial_target(np.array([e]), Q)[0])
            e = e + step * mass / g if g > 0.0 else step  # the target vanishes beyond
            edges.append(e)
        return edges

    edges = np.clip([*walk(-1.0)[::-1], mode, *walk(1.0)], 0.0, 1.0)
    width = np.diff(edges)
    return M, edges[:-1], width, mass * (1.0 + 2.0**-40) / width


def _envelope_proposals(s: np.ndarray, lower: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Proposals under `_bump_radial_law`'s envelope from uniforms s in
    [0, 1), in place on s: the integer part of s times the cell count picks
    the cell, the fraction the point in it.  Returns the cells."""
    s *= lower.size
    cell = s.astype(np.intp)
    s -= cell
    s *= width[cell]
    s += lower[cell]
    return cell


def sample_bump_radii(Q: int, rng: np.random.Generator, size: int,
                      u: np.ndarray | None = None) -> np.ndarray:
    """`size` scaled radii s in (0, 1) with density exp(-1/(1-s^2)) s^(Q-1) / M,
    by rejection under the piecewise-constant envelope of `_bump_radial_law`:
    a uniform cell, a uniform point in it, accepted with probability
    target / height (about 0.95 of proposals).

    `u`, if given, holds the `size` envelope uniforms of the first
    proposals, each in [0, 1) and uniform on its own (a caller's strata),
    and is overwritten by the radii.  A rejected proposal is replaced in
    place by an i.i.d. draw, so each radius keeps the law above whatever the
    joint law of u.  Compacting the accepted ones instead would shift every
    later radius into another point's stratum."""
    _, lower, width, height = _bump_radial_law(Q)
    if u is not None:
        cell = _envelope_proposals(u, lower, width)
        rejected = np.flatnonzero(rng.random(size) * height[cell] >= _radial_target(u, Q))
        u[rejected] = sample_bump_radii(Q, rng, rejected.size)
        return u
    out = np.empty(size)
    filled = 0
    while filled < size:
        k = max(64, int(1.1 * (size - filled)))
        s, v = rng.random((2, k))
        cell = _envelope_proposals(s, lower, width)
        take = s[v * height[cell] < _radial_target(s, Q)][: size - filled]
        out[filled : filled + take.size] = take
        filled += take.size
    return out


@dataclass(frozen=True)
class BumpMixture(TestFunction):
    """Finite sum of product bumps; smooth, compactly supported, generically
    non-radial."""

    spec: ProductSpec
    bumps: tuple[Bump, ...]
    family: str = field(default="bump-mixture", init=False)

    def __call__(self, pts: list[np.ndarray]) -> np.ndarray:
        return self.values_and_envelope(pts)[0]

    def values_and_envelope(self, pts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """f(pts) = sum_j c_j Psi_j(pts) and the envelope sum_j |c_j| Psi_j(pts),
        with Psi_j bump j's product profile, both from one distance per bump
        and factor.  |f| <= envelope, with equality where no negative
        coefficient contributes."""
        total = np.zeros(pts[0].shape[0])
        envelope = np.zeros(pts[0].shape[0])
        for bump in self.bumps:
            factors = zip(bump.centers, bump.radii, pts)
            acc = _profile_at(*next(factors))
            acc *= bump.coefficient
            for center, radius, X in factors:
                acc *= _profile_at(center, radius, X)
            total += acc
            envelope += np.abs(acc, out=acc)
        return total, envelope

    def bump_masses(self) -> np.ndarray:
        """Per bump, |c_j| times the integral of its profile:
        |c_j| prod_i omega_i r_ij^Q_i M(Q_i), by the polar formula about the
        centre (Haar measure is left-invariant)."""
        return np.asarray([
            abs(bump.coefficient) * math.prod(
                d.omega * r**d.Q * _bump_radial_law(d.Q)[0]
                for d, r in zip(self.spec.factors, bump.radii))
            for bump in self.bumps
        ], dtype=float)

    def on_dilations(self, pts: list[np.ndarray], scales, nodes, starts,
                     ws: GridWorkspace) -> np.ndarray:
        """`TestFunction.on_dilations` from the node map, through one
        `hgroup.DilationDistances` per factor, which folds each bump's
        1/radius into its coefficient rows and so returns u = (d/radius)^2.
        The distance grids turn over three workspace grids (two at m = 1), so
        that a factor's H and V never land on the bump's product so far."""
        grid = (pts[0].shape[0], len(nodes[0]))
        total = ws.grid(grid)
        total.fill(0.0)
        windows = [None] * len(pts) if starts is None else starts
        dists = [hgroup.DilationDistances(X, [b.centers[i] for b in self.bumps],
                                          np.array([b.radii[i] for b in self.bumps]), nodes[i], lo, s)
                 for i, (X, lo, s) in enumerate(zip(pts, windows, scales))]
        bufs = [ws.grid(grid) for _ in range(min(self.spec.m + 1, 3))]
        for j, bump in enumerate(self.bumps):
            acc = bump.coefficient
            for i, dist in enumerate(dists):
                u = dist(j, bufs[i % len(bufs)], bufs[(i + 1) % len(bufs)])
                acc = np.multiply(_bump_profile(u), acc, out=u)
            total += acc
        return total

    def support_radii(self) -> tuple[float, ...]:
        # |x_i| <= |c_i| + r_i on the support, by the triangle inequality
        radii = []
        for i, dims in enumerate(self.spec.factors):
            best = 0.0
            for bump in self.bumps:
                best = max(best, float(koranyi_norm(bump.centers[i])) + bump.radii[i])
            radii.append(best if self.bumps else 1.0)
        return tuple(radii)


def spherical_values(f: TestFunction, radii: list[np.ndarray], rng: np.random.Generator,
                     samples: int) -> np.ndarray:
    """The (N, samples) grid of f on the Koranyi spheres of the per-factor
    radii, each radii[i] of shape (N,): row a holds f at `samples` points
    (delta_{r_1a} sigma_1, ..., delta_{r_ma} sigma_m), with sigma_i on factor
    i's unit sphere under its polar measure.  The spheres are drawn from rng
    factor by factor, N * samples points each.  The mean of row a is the
    spherical average g_f at the radii (r_1a, ..., r_ma)."""
    N = len(radii[0])
    flat = []
    for dims, r in zip(f.spec.factors, radii):
        sph = hgroup.sample_unit_sphere(dims, rng, size=N * samples).reshape(N, samples, dims.dim)
        flat.append(dilate_arrays(r[:, None], sph, dims.n, out=sph).reshape(-1, dims.dim))
    return np.asarray(f(flat), dtype=float).reshape(N, samples)


def random_bump_mixture(
    spec: ProductSpec,
    rng: np.random.Generator,
    max_bumps: int = 5,
    radius_range: tuple[float, float] = (0.1, 1.0),
    center_radius: float = 2.0,
) -> BumpMixture:
    """Draw a random bump mixture: 1..max_bumps bumps, centers uniform in the
    polyball of radius center_radius, radii uniform in radius_range and
    coefficients uniform in [0.1, 1)."""
    count = int(rng.integers(1, max_bumps + 1))
    bumps = []
    for _ in range(count):
        centers = []
        for dims in spec.factors:
            c = hgroup.sample_ball(dims, rng, center_radius, 1)[0]
            centers.append(c)
        radii = tuple(float(rng.uniform(*radius_range)) for _ in spec.factors)
        coeff = float(rng.uniform(0.1, 1.0))
        bumps.append(Bump(tuple(centers), radii, coeff))
    return BumpMixture(spec, tuple(bumps))


def _json_floats(obj, key, ndim: int, where: str) -> np.ndarray:
    """obj[key] from a JSON input file as a finite float array with `ndim` axes
    (0: a number, 1: a list of numbers), or a ValueError naming `where` and key."""
    try:
        a = np.asarray(obj[key], dtype=float)
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{where}[{key!r}] is missing or not numeric") from err
    if a.ndim != ndim or not np.all(np.isfinite(a)):
        raise ValueError(f"{where}[{key!r}] must be "
                         + ("a finite number", "a list of finite numbers")[ndim])
    return a


def _bump_entry(entry, spec: ProductSpec, where: str) -> Bump:
    """One bump of a bumps file, with a centre and a positive radius per factor."""
    centers = entry.get("centers") if isinstance(entry, dict) else None
    if not isinstance(centers, list) or len(centers) != spec.m:
        raise ValueError(f"{where}['centers'] must list one point per factor, {spec.m} in all")
    centers = tuple(_json_floats(centers, i, 1, f"{where}['centers']") for i in range(spec.m))
    if any(c.shape != (d.dim,) for c, d in zip(centers, spec.factors)):
        raise ValueError(f"{where}['centers'] must have 2n+1 coordinates in H^n")
    radii = _json_floats(entry, "radii", 1, where)
    if radii.shape != (spec.m,) or not np.all(radii > 0):
        raise ValueError(f"{where}['radii'] must hold one positive radius per factor")
    return Bump(centers, tuple(radii.tolist()), float(_json_floats(entry, "coefficient", 0, where)))


def parse_test_function(text: str, spec: ProductSpec) -> TestFunction:
    """Parse the CLI's textual function forms:
    power-inside:a1,a2,...   bumps:<json file>."""
    kind, _, rest = text.partition(":")
    if kind == "power-inside":
        alphas = tuple(float(v) for v in rest.split(","))
        return PowerInside(spec, alphas)
    if kind == "bumps":
        with open(rest, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError(f"bumps file {rest} must hold a JSON list of bumps")
        return BumpMixture(spec, tuple(_bump_entry(entry, spec, f"bumps file {rest}[{i}]")
                                       for i, entry in enumerate(data)))
    raise ValueError(f"unknown test-function spec {text!r}")
