"""Quadrature engine: deterministic Monte Carlo over product Koranyi balls,
adaptive 1D Gauss-Legendre panels (with infinite-interval substitution and
power-law endpoint grading), and L^p norms of test functions.

Monte Carlo determinism: samples are partitioned into fixed-size chunks and
chunk k consumes a counter-based Philox substream keyed on (seed, tag, k).
Chunk results are reduced in index order, so estimates are bit-identical
for any worker count or scheduling.
"""

from __future__ import annotations

import heapq
import math
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
    "mc_integrate",
    "integrate_1d",
    "nodewise",
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


class IntegrationError(RuntimeError):
    """Quadrature failed to converge; carries the residual estimate."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


class IntegrandError(ValueError):
    """An integrand produced a non-finite value; reports the offending point."""


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
    0 up to rounding for a constant integrand."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    sizes = _chunk_sizes(samples, chunk_size)

    def run(k: int) -> tuple[float, float]:
        rng = substream(seed, tag, k)
        vals = np.asarray(draw(rng, sizes[k]), dtype=float)
        if vals.shape != (sizes[k],):
            raise ValueError(f"draw returned shape {vals.shape}, expected ({sizes[k]},)")
        s = float(vals.sum())
        dev = vals - s / sizes[k]
        dev *= dev
        return s, float(dev.sum())

    parts = _ordered_map(run, len(sizes), workers)

    # Merge the chunks' sums and centred sums of squares in fixed order (bit-
    # identical for any worker count) with the pairwise update of Chan, Golub
    # & LeVeque (1979); s2/n - mean^2 would cancel catastrophically.
    s1 = 0.0
    m2 = 0.0
    done = 0
    for size, (s, c) in zip(sizes, parts):
        if done:
            delta = s / size - s1 / done
            c += delta * delta * (done * size / (done + size))
        s1 += s
        m2 += c
        done += size
    n = float(samples)
    return Estimate(s1 / n, math.sqrt(m2 / n / n), samples)


def mc_integrate(
    f,
    spec: ProductSpec,
    radii,
    samples: int,
    seed: int,
    workers: int = 1,
    chunk_size: int = 65536,
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
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
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

    return chunked_mean(draw, samples, seed, TAG_MC, workers=workers, chunk_size=chunk_size).scaled(volume)


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


def nodewise(inner):
    """Vectorize a scalar inner integral over the nodes of an outer rule:
    nodewise(inner)(R) is [inner(R_0), inner(R_1), ...].  Every nested
    quadrature evaluates its inner integrals node by node through here."""
    return lambda Rv: np.fromiter((inner(R) for R in Rv), dtype=float, count=len(Rv))


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
    do.  Sampling each factor's radius with density g(r) ~ r^(e/2 - 1), where
    e is that factor's radial exponent of |f|^p r^(Q-1) dr plus one, leaves a
    bounded weight r^(e/2) and an honest standard error.
    """
    inside = f.family == "power-inside"
    exps = f.alphas if inside else [-b for b in f.betas]
    gammas = []
    consts = []
    for dims, a in zip(spec.factors, exps):
        e = a * p + dims.Q  # integrand r^(e-1) on (0,1]; on [1,inf) e < 0
        if inside:
            if e <= 0:
                raise ValueError("norm infinite: exponent condition violated")
            gam = 0.5 * e
        else:
            if e >= 0:
                raise ValueError("norm infinite: exponent condition violated")
            gam = -0.5 * e
        gammas.append(gam)
        consts.append(dims.omega / gam)

    def draw(rng: np.random.Generator, k: int) -> np.ndarray:
        w = np.ones(k)
        for gam, c in zip(gammas, consts):
            u = rng.random(k)
            if inside:
                r = u ** (1.0 / gam)  # density gam * r^(gam-1) on (0,1]
                w *= c * r**gam
            else:
                r = u ** (-1.0 / gam)  # density gam * r^(-gam-1) on [1,inf)
                w *= c * r**-gam
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
    truncation: float | None = None,
    workers: int = 1,
) -> Estimate:
    """||f||_{L^p} of a test function by the requested method.

    closed  -- the function's exact norm formula (power families only);
    radial  -- per-factor radial quadrature of |F_i|^p (radial products only);
    mc      -- Monte Carlo: importance-sampled radii for power families,
               otherwise uniform sampling over the support polyball, with
               unbounded factors cut at the given truncation radius.
    """
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    if method == "closed":
        return Estimate.exact(f.lp_norm_exact(p))
    if method == "radial":
        profiles = f.radial_profiles()
        normp = 1.0
        for dims, (F, a, b) in zip(spec.factors, profiles):
            normp *= radial_integral(lambda r, F=F: np.abs(F(r)) ** p, dims, b, tol=tol, lower=a)
        return Estimate.exact(normp ** (1.0 / p))
    if method == "mc":
        if getattr(f, "family", None) in ("power-inside", "power-outside"):
            return _power_norm_mc(f, spec, p, samples, seed, workers=workers).powered(1.0 / p)
        radii = list(f.support_radii())
        if any(math.isinf(r) for r in radii):
            if truncation is None:
                raise ValueError("unbounded support: pass an explicit truncation radius")
            radii = [truncation if math.isinf(r) else r for r in radii]
        return mc_integrate(
            lambda pts: np.abs(np.asarray(f(pts), dtype=float)) ** p,
            spec, radii, samples, seed, workers=workers,
        ).powered(1.0 / p)
    raise ValueError(f"unknown method {method!r}")
