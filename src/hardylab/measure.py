"""Quadrature engine: deterministic Monte Carlo over product Koranyi balls,
adaptive 1D Gauss-Legendre panels (with infinite-interval substitution and
power-law endpoint grading), and L^p norms of test functions.

Monte Carlo determinism: samples are partitioned into fixed-size chunks and
chunk k consumes a counter-based Philox substream keyed on (seed, tag, k).
Chunk results are reduced in index order, so estimates are bit-identical
for any worker count or scheduling.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .hgroup import GroupDims, ProductSpec, polyball_volume, sample_ball

__all__ = [
    "Estimate",
    "ROUNDING_ULPS",
    "rounding_error",
    "IntegrationError",
    "IntegrandError",
    "substream",
    "subseed",
    "GridWorkspace",
    "grid_workspace",
    "mc_integrate",
    "integrate_1d",
    "radial_integral",
    "lp_norm",
]

_MASK64 = (1 << 64) - 1

# substream tags, one per call site that derives streams
TAG_MC = 11
TAG_POWER_NORM = 12
TAG_RADIALIZE = 13
TAG_NESTED = 14
TAG_COMPACT = 15
TAG_EXPERIMENT = 16
TAG_SPHERE = 17
TAG_PILOT = 18


class IntegrationError(RuntimeError):
    """Quadrature failed to converge; carries the residual estimate."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


class IntegrandError(ValueError):
    """An integrand produced a non-finite value; reports the offending point."""


class UnsupportedFamilyError(TypeError):
    """A closed, radial or Monte Carlo method was asked of a family that
    lacks it."""


ROUNDING_ULPS = 8
"""Units in the last place of max(|value|, |target|) that every comparison of
an estimate with its target allows on top of its statistical error.  It
covers the rounding of the inputs and of the arithmetic behind a value (a
window width `1 - 0.8` is 2 ulp short of 0.2), about 1e-15 relative, and is
far too small to stand in for a Monte Carlo error."""


def rounding_error(value: float, target: float) -> float:
    """The rounding term of a comparison of value with target; 0 when either
    is non-finite, so that no infinite allowance can hide a bad value."""
    scale = max(abs(value), abs(target))
    return ROUNDING_ULPS * math.ulp(scale) if math.isfinite(scale) else 0.0


@dataclass(frozen=True)
class Estimate:
    """A numerical result.  Closed-form values carry std_error = 0 and
    samples = 0; Monte Carlo values carry the statistical standard error of
    the mean, which is 0 up to rounding for a constant integrand.  Comparisons with a target
    (`within`) add the rounding term `rounding_error` to it."""

    value: float
    std_error: float = 0.0
    samples: int = 0

    @classmethod
    def exact(cls, value: float) -> "Estimate":
        return cls(float(value))

    @property
    def is_exact(self) -> bool:
        return self.samples == 0

    def __float__(self) -> float:
        return self.value

    def scaled(self, c: float) -> "Estimate":
        return Estimate(self.value * c, abs(c) * self.std_error, self.samples)

    def powered(self, q: float) -> "Estimate":
        """Delta-method propagation through value**q (value > 0)."""
        v = self.value**q
        se = abs(q) * self.value ** (q - 1.0) * self.std_error if self.value > 0 else 0.0
        return Estimate(v, se, self.samples)

    def _combined(self, other: "Estimate", v: float) -> "Estimate":
        """v with the independent relative errors of self and other added in
        quadrature."""
        rel = math.hypot(*(e.std_error / e.value if e.value != 0 else 0.0 for e in (self, other)))
        return Estimate(v, abs(v) * rel, max(self.samples, other.samples))

    def ratio(self, other: "Estimate") -> "Estimate":
        if other.value == 0.0:
            raise ZeroDivisionError("zero norm in quotient")
        return self._combined(other, self.value / other.value)

    def product(self, other: "Estimate") -> "Estimate":
        return self._combined(other, self.value * other.value)

    def tolerance(self, target: float, sigmas: float = 3.0, atol: float = 0.0) -> float:
        """Largest |value - target| that `within` accepts: sigmas standard
        errors, plus atol, plus the rounding term of the comparison."""
        return sigmas * self.std_error + atol + rounding_error(self.value, target)

    def within(self, target: float, sigmas: float = 3.0, atol: float = 0.0) -> bool:
        """True when value agrees with target within `tolerance`."""
        return abs(self.value - target) <= self.tolerance(target, sigmas, atol)


def _seed_sequence(seed: int, path) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed) & _MASK64] + [int(p) & _MASK64 for p in path])


def substream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based substream for (seed, *path): a Philox generator keyed by
    the SeedSequence hash of the path.  Independent of call order."""
    key = _seed_sequence(seed, path).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def subseed(seed: int, *path: int) -> int:
    """Deterministic 63-bit seed for (seed, *path), from the same hash as
    `substream`; experiments give each report row its own."""
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0] >> 1)


def _chunk_sizes(samples: int, chunk_size: int) -> list[int]:
    full, rem = divmod(samples, chunk_size)
    sizes = [chunk_size] * full
    if rem:
        sizes.append(rem)
    return sizes


def _ordered_map(fn, count: int, workers: int = 1) -> list:
    """[fn(0), ..., fn(count - 1)], on up to `workers` threads.  The results
    come back in index order, so a reduction over them is bit-identical for
    any worker count as long as fn(k) depends on k alone."""
    if workers > 1 and count > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(count)))
    return [fn(k) for k in range(count)]


class GridWorkspace:
    """Float grids for the draws of one Monte Carlo chunk, kept from chunk to
    chunk by `grid_workspace`.

    Grids are taken in order: `grid(shape)` hands out the next buffer as a
    C-contiguous array of that shape, and `trim()`, when the chunk ends,
    gives them all back.  A buffer keeps the size of the largest grid it has
    held, so the shorter last chunk takes the front of it; a larger grid
    replaces it, and so does one that needs less than an eighth of it.
    `trim()` also drops the buffers more than eight times the largest grid
    taken since the last trim, so that a workspace grown for m = 2 grids
    (12.5 times an m = 1 grid) does not keep them through later m = 1
    chunks."""

    def __init__(self) -> None:
        self._buffers: list[np.ndarray] = []
        self._taken = 0
        self._largest = 0

    def grid(self, shape) -> np.ndarray:
        size = math.prod(shape)
        if self._taken == len(self._buffers):
            self._buffers.append(np.empty(size))
        elif not size <= self._buffers[self._taken].size <= 8 * size:
            self._buffers[self._taken] = np.empty(size)
        self._taken += 1
        self._largest = max(self._largest, size)
        return self._buffers[self._taken - 1][:size].reshape(shape)

    def trim(self) -> None:
        self._buffers = [b for b in self._buffers if b.size <= 8 * self._largest]
        self._taken = self._largest = 0


_idle_workspaces: list[GridWorkspace] = []
_idle_lock = threading.Lock()


@contextlib.contextmanager
def grid_workspace():
    """A `GridWorkspace` for one chunk: an idle one, or a new one when all
    are in use, trimmed and handed back with its grids when the chunk ends.
    Grid memory freed at the end of a chunk would go back to the system and
    be faulted in again by the next; here it stays, in at most one
    workspace per chunk run at once, that is per worker thread.  The list
    is process-wide because `_ordered_map` starts new threads for every
    call."""
    with _idle_lock:
        ws = _idle_workspaces.pop() if _idle_workspaces else GridWorkspace()
    try:
        yield ws
    finally:
        ws.trim()
        with _idle_lock:
            _idle_workspaces.append(ws)


def chunked_mean(
    draw,
    samples: int,
    seed: int,
    tag: int,
    workers: int = 1,
    chunk_size: int = 65536,
) -> Estimate:
    """Mean of `draw(rng, size) -> values` over `samples` draws, with its
    standard error, accumulated chunk by chunk in fixed order.  The error is
    the statistical one, sqrt(sum (v - mean)^2) / samples, which is
    0 up to rounding for a constant integrand.  The deviations are squared
    at a power-of-two scale, so the error neither underflows nor overflows
    where the values lie far from 1; the scaling is exact, which leaves the
    error's bits unchanged wherever the unscaled squares stay normal."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    sizes = _chunk_sizes(samples, chunk_size)

    def run(k: int) -> tuple[float, float, int | None]:
        """The chunk's sum, and its centred sum of squares in units of
        4^e, with 2^e above the largest deviation (None when all are 0)."""
        rng = substream(seed, tag, k)
        vals = np.asarray(draw(rng, sizes[k]), dtype=float)
        if vals.shape != (sizes[k],):
            raise ValueError(f"draw returned shape {vals.shape}, expected ({sizes[k]},)")
        s = float(vals.sum())
        dev = vals - s / sizes[k]
        largest = float(np.max(np.abs(dev)))
        if largest == 0.0:
            return s, 0.0, None
        e = math.frexp(largest)[1]
        np.ldexp(dev, -e, out=dev)
        dev *= dev
        return s, float(dev.sum()), e

    parts = _ordered_map(run, len(sizes), workers)

    # Merge the chunks' sums and centred sums of squares in fixed order (bit-
    # identical for any worker count) with the pairwise update of Chan, Golub
    # & LeVeque (1979); s2/n - mean^2 would cancel catastrophically.  The
    # sums of squares are merged in units of 4^top, top the largest scale.
    top = max((e for _, _, e in parts if e is not None), default=0)
    s1 = 0.0
    m2 = 0.0
    done = 0
    for size, (s, c, e) in zip(sizes, parts):
        if e is not None:
            c = math.ldexp(c, 2 * (e - top))
        if done:
            delta = math.ldexp(s / size - s1 / done, -top)
            c += delta * delta * (done * size / (done + size))
        s1 += s
        m2 += c
        done += size
    n = float(samples)
    return Estimate(s1 / n, math.ldexp(math.sqrt(m2 / n / n), top), samples)


def mc_integrate(
    f,
    spec: ProductSpec,
    radii,
    samples: int,
    seed: int,
    workers: int = 1,
) -> Estimate:
    """Monte Carlo integral of f over B(0, r_1) x ... x B(0, r_m).

    `f` is called with a list of per-factor coordinate arrays of shape
    (k, 2 n_i + 1) and must return k values.  The estimate is the sample mean
    times the product of ball volumes; std_error scales identically.
    Non-finite integrand values raise IntegrandError with the sample point.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (spec.m,):
        raise ValueError(f"expected {spec.m} radii, got shape {radii.shape}")
    if not np.all((radii > 0) & (radii < np.inf)):  # NaN fails both
        raise ValueError("radii must be positive and finite")
    volume = polyball_volume(spec, radii)

    def draw(rng: np.random.Generator, k: int) -> np.ndarray:
        pts = [sample_ball(dims, rng, float(r), k) for dims, r in zip(spec.factors, radii)]
        vals = np.asarray(f(pts), dtype=float)
        if vals.shape != (k,):
            raise ValueError(f"integrand returned shape {vals.shape}, expected ({k},)")
        bad = ~np.isfinite(vals)
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            where = [p[i].tolist() for p in pts]
            raise IntegrandError(f"non-finite integrand value {vals[i]} at sample {where}")
        return vals

    return chunked_mean(draw, samples, seed, TAG_MC, workers=workers).scaled(volume)


# ---------------------------------------------------------------------------
# Adaptive 1D quadrature
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _gl(g, lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi) + half * _GL_X
    return half * float(np.dot(_GL_W, np.asarray(g(x), dtype=float)))


def _panel(g, lo: float, hi: float) -> tuple[float, float]:
    """Refined panel value (two-half Gauss-Legendre) and local error estimate."""
    coarse = _gl(g, lo, hi)
    mid = 0.5 * (lo + hi)
    fine = _gl(g, lo, mid) + _gl(g, mid, hi)
    if not (math.isfinite(fine) and math.isfinite(coarse)):
        raise IntegrationError(
            f"non-finite integrand values on panel [{lo:.6g}, {hi:.6g}]"
        )
    return fine, abs(fine - coarse)


def _power_closeout(g, endpoint: float, lo: float, hi: float) -> float:
    """Close out a panel adjacent to an algebraic singularity by fitting
    g ~ c * s^gamma against the distance s from the endpoint.  Exact for pure
    power behavior; the panel is tiny by the time this is invoked."""
    width = hi - lo
    s1, s2 = 0.125 * width, 0.5 * width
    if endpoint <= lo:  # singularity at the lower end
        t1, t2 = endpoint + s1, endpoint + s2
        span = hi - endpoint
    else:  # singularity at the upper end
        t1, t2 = endpoint - s1, endpoint - s2
        span = endpoint - lo
    g1 = float(np.asarray(g(np.array([t1])))[0])
    g2 = float(np.asarray(g(np.array([t2])))[0])
    if g1 == 0.0 and g2 == 0.0:
        return 0.0
    if g1 == 0.0 or g2 == 0.0 or (g1 > 0) != (g2 > 0):
        raise IntegrationError("cannot grade endpoint panel: integrand changes sign or vanishes")
    gamma = math.log(abs(g1) / abs(g2)) / math.log(s1 / s2)
    if not math.isfinite(gamma) or gamma <= -0.9995:
        raise IntegrationError(
            f"endpoint behaviour ~ s^{gamma:.4f} is not integrable at panel scale {width:.3e}",
            residual=abs(g2) * width,
        )
    return g2 * s2 * (span / s2) ** (gamma + 1.0) / (gamma + 1.0)


def integrate_1d(
    g,
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_panels: int = 4096,
) -> float:
    """Globally adaptive Gauss-Legendre integration of a vectorized g on [lo, hi].

    Panels are bisected worst-error-first until the summed local error drops
    below tol * |integral|: tol is relative, so a small integral is computed
    as accurately as a large one.  A panel that shrinks against either end
    of the interval is closed out with a fitted power tail, which keeps
    integrable endpoint singularities (r^gamma, gamma > -1) convergent at
    tolerances far beyond plain bisection.
    """
    if not hi > lo:
        raise ValueError("empty integration interval")
    # Close out endpoint panels before bisection shrinks them to the point
    # where Gauss-Legendre nodes round onto the endpoint itself; only a
    # singular endpoint draws bisection this far.
    cut = (hi - lo) * 2.0**-40

    heap: list[tuple[float, float, float, float, float]] = []
    counter = 0

    def push(a: float, b: float) -> None:
        nonlocal counter
        if b - a < cut and (a <= lo or b >= hi):
            val = _power_closeout(g, lo if a <= lo else hi, a, b)
            heapq.heappush(heap, (0.0, float(counter), a, b, val))
        else:
            val, err = _panel(g, a, b)
            heapq.heappush(heap, (-err, float(counter), a, b, val))
        counter += 1

    n0 = 4
    edges = np.linspace(lo, hi, n0 + 1)
    for i in range(n0):
        push(edges[i], edges[i + 1])

    while True:
        total = sum(item[4] for item in heap)
        tot_err = sum(-item[0] for item in heap)
        if tot_err <= tol * abs(total):
            return total
        if len(heap) >= max_panels:
            raise IntegrationError(
                f"no convergence within {max_panels} panels", residual=tot_err
            )
        _, _, a, b, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        push(a, mid)
        push(mid, b)


def radial_integral(
    profile,
    dims: GroupDims,
    upper: float,
    tol: float = 1e-10,
    lower: float = 0.0,
) -> float:
    """omega_Q * integral of profile(r) * r^(Q-1) over [lower, upper].

    This is the polar-coordinate form of an integral of a radial function
    over H^n; upper may be math.inf, handled by the substitution
    r = lower + u/(1-u) on u in [0, 1).
    """
    Q = dims.Q

    def g(r: np.ndarray) -> np.ndarray:
        return np.asarray(profile(r), dtype=float) * r ** (Q - 1)

    if math.isinf(upper):

        def h(u: np.ndarray) -> np.ndarray:
            u = np.minimum(u, 1.0 - 2.0**-52)  # keep r finite at rounded nodes
            return g(lower + u / (1.0 - u)) / (1.0 - u) ** 2

        val = integrate_1d(h, 0.0, 1.0, tol=tol)
    else:
        if not upper > lower:
            return 0.0
        val = integrate_1d(g, lower, upper, tol=tol)
    return dims.omega * val


# ---------------------------------------------------------------------------
# L^p norms
# ---------------------------------------------------------------------------


def _power_norm_mc(f, spec: ProductSpec, p: float, samples: int, seed: int, workers: int = 1) -> Estimate:
    """Importance-sampled Monte Carlo for ||f||_p^p of a pure power family.

    Uniform product-ball sampling of |f|^p has infinite variance whenever the
    radial exponent drops below -Q/2, which the near-extremal families always
    do.  In each factor |f|^p r^(Q-1) is r^(g-1), g = e p + Q, on the
    family's region, where s g > 0 with s = `f.side`.  Drawing r = u^(s/gam),
    gam = s g / 2, with density gam r^(s gam - 1) on the region, leaves a
    bounded weight (omega/gam) r^(s gam) and an honest standard error.
    """
    s = f.side
    gammas = []
    consts = []
    for dims, a in zip(spec.factors, f.exponents):
        gam = 0.5 * s * (a * p + dims.Q)
        if gam <= 0:
            raise ValueError("norm infinite: exponent condition violated")
        gammas.append(gam)
        consts.append(dims.omega / gam)

    def draw(rng: np.random.Generator, k: int) -> np.ndarray:
        w = np.ones(k)
        for gam, c in zip(gammas, consts):
            r = rng.random(k) ** (s / gam)
            w *= c * r ** (s * gam)
        return w

    return chunked_mean(draw, samples, seed, TAG_POWER_NORM, workers=workers)


def lp_norm(
    f,
    spec: ProductSpec,
    p: float,
    method: str = "mc",
    samples: int = 100_000,
    seed: int = 0,
    tol: float = 1e-10,
    workers: int = 1,
) -> Estimate:
    """||f||_{L^p} of a test function by the requested method.

    radial  -- per-factor radial quadrature of |F_i|^p (radial products only);
    mc      -- Monte Carlo with importance-sampled radii (power families only).

    A closed-form norm is the function's own `lp_norm_exact`.
    """
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    if method == "radial":
        profiles = f.radial_profiles()
        normp = 1.0
        for dims, (F, a, b) in zip(spec.factors, profiles):
            normp *= radial_integral(lambda r, F=F: np.abs(F(r)) ** p, dims, b, tol=tol, lower=a)
        return Estimate.exact(normp ** (1.0 / p))
    if method == "mc":
        if f.family not in ("power-inside", "power-outside"):
            raise UnsupportedFamilyError(f"Monte Carlo norms exist only for the power families, "
                                         f"not {f.family}")
        return _power_norm_mc(f, spec, p, samples, seed, workers=workers).powered(1.0 / p)
    raise ValueError(f"unknown method {method!r}")
