"""The three operators under study and their norm quotients.

* ball-average operator: per-factor average over Koranyi balls of radii
  |x_i|_h (the product Hardy-type operator);
* weighted dilation average over [0,1]^m with weight phi;
* its adjoint, the weighted Cesaro-type operator with kernel phi(t)/prod t^Q_i
  and inverse dilations.

Pointwise evaluation offers closed, quadrature (radial) and Monte Carlo
routes; norm quotients combine them with variance-safe estimators.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import closedform
from .funcs import BumpMixture, ProductPoint, TestFunction, UnsupportedFamilyError
from .hgroup import (
    GroupDims,
    ProductSpec,
    ball_volume,
    dilate_arrays,
    group_law,
    koranyi_norm,
    polyball_volume,
    sample_ball,
    sample_unit_ball,
)
from .measure import (
    Estimate,
    IntegrationError,
    TAG_COMPACT,
    TAG_NESTED,
    _ordered_map,
    chunked_mean,
    integrate_1d,
    lp_norm,
    mc_integrate,
    nodewise,
    radial_integral,
    substream,
)

__all__ = [
    "Weight",
    "MonomialWeight",
    "GeneralWeight",
    "UnboundedOperatorError",
    "parse_weight",
    "hardy_eval",
    "weighted_hardy_eval",
    "weighted_cesaro_eval",
    "weight_bound_integral",
    "norm_quotient",
    "pairing_weighted_hardy",
    "pairing_weighted_cesaro",
]


class UnboundedOperatorError(ValueError):
    """The weight fails the boundedness characterization."""


class Weight:
    """Nonnegative weight on [0,1]^m; callable on (N, m) arrays."""

    m: int
    label: str = "general"

    def __call__(self, T: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def is_monomial(self) -> bool:
        return False


@dataclass(frozen=True)
class MonomialWeight(Weight):
    """prod_i t_i^(a_i) with exponents a_i >= 0."""

    exponents: tuple[float, ...]

    def __post_init__(self) -> None:
        # written so that NaN, for which a < 0 is false, is refused too
        if not all(0.0 <= a < math.inf for a in self.exponents):
            raise ValueError(f"monomial exponents must be finite and nonnegative: {self.label}")

    @property
    def m(self) -> int:
        return len(self.exponents)

    @property
    def label(self) -> str:
        return "monomial:" + ",".join(f"{a:g}" for a in self.exponents)

    @property
    def is_monomial(self) -> bool:
        return True

    def __call__(self, T: np.ndarray) -> np.ndarray:
        out = np.ones(T.shape[0])
        for i, a in enumerate(self.exponents):
            if a != 0.0:
                out = out * T[:, i] ** a
        return out


class GeneralWeight(Weight):
    """Wraps an arbitrary nonnegative evaluable weight."""

    def __init__(self, fn, m: int, label: str = "general"):
        self.fn = fn
        self.m = m
        self.label = label

    def __call__(self, T: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(T), dtype=float)


def parse_weight(text: str, m: int) -> Weight:
    """Parse the CLI's weight forms: `one`, `monomial:a1,...`, `table:<file>`."""
    if text == "one":
        return MonomialWeight((0.0,) * m)
    kind, _, rest = text.partition(":")
    if kind == "monomial":
        exps = tuple(float(v) for v in rest.split(","))
        if len(exps) != m:
            raise ValueError(f"expected {m} monomial exponents, got {len(exps)}")
        return MonomialWeight(exps)
    if kind == "table":
        with open(rest, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        factors = data["factors"]
        if len(factors) != m:
            raise ValueError(f"table weight has {len(factors)} factors, expected {m}")
        tables = []
        for fac in factors:
            grid = np.asarray(fac["t"], dtype=float)
            vals = np.asarray(fac["values"], dtype=float)
            if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(vals)) and np.all(vals >= 0)):
                raise ValueError(f"weight {text}: t and values must be finite, values nonnegative")
            tables.append((grid, vals))

        def product_of_tables(T: np.ndarray) -> np.ndarray:
            out = np.ones(T.shape[0])
            for i, (grid, vals) in enumerate(tables):
                out = out * np.interp(T[:, i], grid, vals)
            return out

        return GeneralWeight(product_of_tables, m, f"table:{rest}")
    raise ValueError(f"unknown weight spec {text!r}")


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------


def _check_point(f: TestFunction, x: ProductPoint) -> tuple[float, ...]:
    if not x.matches(f.spec):
        raise ValueError("point does not match the function's product space")
    return x.radii


def hardy_eval(
    f: TestFunction,
    x: ProductPoint,
    method: str = "mc",
    samples: int = 20_000,
    seed: int = 0,
    tol: float = 1e-10,
    workers: int = 1,
) -> Estimate:
    """The product ball-average operator at x: the average of f over
    B(0,|x_1|) x ... x B(0,|x_m|).  Undefined when any |x_i|_h = 0.

    Monte Carlo evaluation is seeded explicitly: pass fresh seeds per point
    for independent field evaluations, or reuse one seed across points for a
    smooth (common-random-numbers) quotient surface."""
    radii = _check_point(f, x)
    if any(r == 0.0 for r in radii):
        raise ValueError("ball average undefined where some |x_i|_h = 0")
    spec = f.spec
    if method == "closed":
        out = 1.0
        if f.family == "power-inside":
            for dims, a, r in zip(spec.factors, f.alphas, radii):
                out *= closedform.ball_average_power(a, dims, r)
        elif f.family == "power-outside":
            for dims, b, r in zip(spec.factors, f.betas, radii):
                out *= closedform.outside_ball_average_power(b, dims, r)
        else:
            raise UnsupportedFamilyError("closed ball averages exist only for power families")
        return Estimate.exact(out)
    if method == "radial":
        out = 1.0
        for dims, (F, a, b), r in zip(spec.factors, f.radial_profiles(), radii):
            out *= _radial_ball_average(F, a, b, dims, r, tol)
        return Estimate.exact(out)
    if method == "mc":
        est = mc_integrate(f, spec, radii, samples, seed, workers=workers)
        return est.scaled(1.0 / polyball_volume(spec, radii))
    raise ValueError(f"unknown method {method!r}")


def _radial_ball_average(F, a: float, b: float, dims: GroupDims, R: float, tol: float) -> float:
    """Average over B(0, R) of the radial profile F supported on [a, b], by
    polar quadrature."""
    return radial_integral(F, dims, min(R, b), tol, lower=a) / ball_volume(dims, R)


def _iterated_cube(gfun, bounds, tol: float):
    """Iterated adaptive quadrature of gfun over a product of intervals.
    gfun takes (N, m) and returns (N,); bounds is a list of (lo, hi)."""
    m = len(bounds)
    lo, hi = bounds[0]
    if hi <= lo:
        return 0.0
    if m == 1:
        return integrate_1d(lambda t: gfun(t[:, None]), lo, hi, tol=tol)

    outer = nodewise(lambda t0: _iterated_cube(
        lambda T: gfun(np.column_stack([np.full(T.shape[0], t0), T])), bounds[1:], tol
    ))
    return integrate_1d(outer, lo, hi, tol=tol)


def weighted_hardy_eval(
    f: TestFunction,
    phi: Weight,
    x: ProductPoint,
    method: str = "quadrature",
    tol: float = 1e-9,
    samples: int = 20_000,
    seed: int = 0,
    workers: int = 1,
) -> Estimate:
    """integral over [0,1]^m of f(delta_{t_1} x_1, ..., delta_{t_m} x_m) phi(t) dt."""
    radii = _check_point(f, x)
    spec = f.spec
    if phi.m != spec.m:
        raise ValueError("weight and product space disagree on m")

    def g(T: np.ndarray) -> np.ndarray:
        return f.on_dilations(x.arrays(), list(T.T))[0] * phi(T)

    if method == "mc":
        return chunked_mean(lambda rng, k: g(rng.random((k, spec.m))), samples, seed, TAG_NESTED, workers=workers)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    try:
        profiles = f.radial_profiles()
    except UnsupportedFamilyError:
        profiles = None
    if profiles is not None and phi.is_monomial:
        out = 1.0
        for (F, a, b), r, e in zip(profiles, radii, phi.exponents):
            t_lo = 0.0 if r == 0.0 else min(a / r, 1.0)
            t_hi = 1.0 if r == 0.0 else min(b / r, 1.0)
            if t_hi <= t_lo:
                return Estimate.exact(0.0)
            out *= integrate_1d(
                lambda t, F=F, r=r, e=e: np.asarray(F(t * r), dtype=float) * t**e,
                t_lo, t_hi, tol=tol,
            )
        return Estimate.exact(out)
    try:
        val = _iterated_cube(g, [(0.0, 1.0)] * spec.m, tol)
    except IntegrationError as err:
        raise IntegrationError(f"divergent integrand in weighted average: {err}") from err
    return Estimate.exact(val)


def weighted_cesaro_eval(
    f: TestFunction,
    phi: Weight,
    x: ProductPoint,
    p: float,
    method: str = "quadrature",
    tol: float = 1e-9,
    samples: int = 20_000,
    seed: int = 0,
    workers: int = 1,
) -> Estimate:
    """integral over [0,1]^m of f(delta_{1/t_1} x_1, ...) phi(t) / prod t_i^{Q_i} dt.

    Requires the adjoint characteristic integral of phi (at exponent p) to be
    finite; otherwise the operator is unbounded and evaluation is refused.
    """
    radii = _check_point(f, x)
    spec = f.spec
    _require_bounded(phi, p, spec, "cesaro")
    # trim to the t-region where the inversely dilated point can meet the support
    intervals = []
    try:
        profiles = f.radial_profiles()
        supports = [(a, b) for _, a, b in profiles]
    except UnsupportedFamilyError:
        profiles = None
        supports = [(0.0, s) for s in f.support_radii()]
    for (a, b), r in zip(supports, radii):
        t_lo = 0.0 if math.isinf(b) else r / b
        t_hi = 1.0 if a == 0.0 else min(r / a, 1.0)
        intervals.append((min(t_lo, 1.0), t_hi))
    if any(hi <= lo for lo, hi in intervals):
        return Estimate.exact(0.0)

    def g(T: np.ndarray) -> np.ndarray:
        kern = phi(T)
        for i, dims in enumerate(spec.factors):
            kern = kern / T[:, i] ** dims.Q
        return f.on_dilations(x.arrays(), list(1.0 / T.T))[0] * kern

    if method == "mc":
        widths = np.array([hi - lo for lo, hi in intervals])
        los = np.array([lo for lo, _ in intervals])
        vol = float(np.prod(widths))

        def draw(rng: np.random.Generator, k: int) -> np.ndarray:
            return g(los + rng.random((k, spec.m)) * widths) * vol

        return chunked_mean(draw, samples, seed, TAG_NESTED, workers=workers)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    if profiles is not None and phi.is_monomial:
        out = 1.0
        for (F, _, _), r, e, dims, (t_lo, t_hi) in zip(
            profiles, radii, phi.exponents, spec.factors, intervals
        ):
            out *= integrate_1d(
                lambda t, F=F, r=r, e=e, Q=dims.Q: np.asarray(F(r / t), dtype=float)
                * t ** (e - Q),
                t_lo, t_hi, tol=tol,
            )
        return Estimate.exact(out)
    return Estimate.exact(_iterated_cube(g, intervals, tol))


def weight_bound_integral(phi: Weight, p: float, spec: ProductSpec, kind: str) -> float:
    """Characteristic integral C_phi deciding boundedness:
    integral over [0,1]^m of prod t_i^(-Q_i/p) phi (kind='hardy') or
    prod t_i^(-Q_i(1-1/p)) phi (kind='cesaro'); +inf counts as a value."""
    if kind not in ("hardy", "cesaro"):
        raise ValueError("kind must be 'hardy' or 'cesaro'")
    if phi.m != spec.m:
        raise ValueError("weight and product space disagree on m")
    if phi.is_monomial:
        return closedform.monomial_weight_characteristic(phi.exponents, p, spec, kind)
    exps = [
        dims.Q / p if kind == "hardy" else dims.Q * (1.0 - 1.0 / p)
        for dims in spec.factors
    ]

    def g(T: np.ndarray) -> np.ndarray:
        out = phi(T)
        for i, e in enumerate(exps):
            out = out / T[:, i] ** e
        return out

    try:
        return _iterated_cube(g, [(0.0, 1.0)] * spec.m, 1e-9)
    except IntegrationError:
        return math.inf


def _require_bounded(phi: Weight, p: float, spec: ProductSpec, kind: str) -> None:
    """Refuse a weight whose characteristic integral of the given kind
    diverges at exponent p: the operator is then unbounded on L^p."""
    if math.isinf(weight_bound_integral(phi, p, spec, kind)):
        raise UnboundedOperatorError(
            f"unbounded operator: the {kind} characteristic integral diverges at p={p:g}"
        )


# ---------------------------------------------------------------------------
# Norm-quotient estimators
# ---------------------------------------------------------------------------


def _nested_power_norm(
    f, p: float, spec: ProductSpec, samples: int, seed: int,
    inner_samples: int = 512, workers: int = 1,
) -> Estimate:
    """||T f||_p^p for the inside power family under the ball-average operator,
    by nested Monte Carlo with per-factor importance sampling.

    The image T f(x) factors through the radii, so the norm is a product of
    per-factor 1D integrals int_0^inf A(R)^p R^(Q-1) dR, with A(R) the ball
    average of the factor profile.  Radii are drawn from a two-piece density
    matched to half the integrand's power on each side (bounded weights);
    A(R) is estimated by inner Monte Carlo ball averages.  The p-th power
    uses p independent inner replicates, which makes the estimator unbiased;
    p must therefore be an integer (a single inner mean raised to a
    fractional power is biased upward, by Jensen's inequality).
    """
    if f.family != "power-inside":
        raise UnsupportedFamilyError("nested estimator targets the inside power family")
    if not float(p).is_integer():
        raise ValueError(f"the nested Monte Carlo estimator needs an integer p, got {p:g}; "
                         "use the closed or radial method")
    reps = int(p)
    k_inner = max(8, inner_samples // reps)
    total = Estimate.exact(1.0)
    for fi, (dims, alpha) in enumerate(zip(spec.factors, f.alphas)):
        Q = dims.Q
        e_in = alpha * p + Q  # inside integrand is R^(e_in - 1)
        if e_in <= 0:
            raise ValueError("norm infinite: alpha*p + Q must be positive")
        g_in = 0.5 * e_in
        g_out = 0.5 * Q * (p - 1.0)

        def draw(
            rng: np.random.Generator, k: int,
            dims=dims, Q=Q, alpha=alpha, g_in=g_in, g_out=g_out,
        ) -> np.ndarray:
            # The inside piece is evaluated with the importance weight and the
            # R^alpha factors of the inner means combined analytically: the
            # net power of R is exactly g_in, i.e. the uniform variate itself,
            # so arbitrarily small eps cannot underflow.
            pick = rng.random(k) < 0.5
            u = np.maximum(rng.random(k), 2.0**-60)
            vv = np.maximum(rng.random((k, reps, k_inner)), 2.0**-60) ** (1.0 / Q)
            out = np.empty(k)

            kin = int(pick.sum())
            if kin:
                m_in = vv[pick] ** alpha  # s = R*v with R <= 1: always in support
                prod_means = m_in.mean(axis=2).prod(axis=1)
                out[pick] = (2.0 * dims.omega / g_in) * u[pick] * prod_means

            kout = k - kin
            if kout:
                R = u[~pick] ** (-1.0 / g_out)
                mask = vv[~pick] < (1.0 / R)[:, None, None]
                m_out = np.where(mask, vv[~pick], 1.0) ** alpha * mask
                prod_means = (R[:, None] ** alpha * m_out.mean(axis=2)).prod(axis=1)
                out[~pick] = (2.0 * dims.omega / g_out) * R ** (Q + g_out) * prod_means
            return out

        total = total.product(chunked_mean(draw, samples, seed + fi, TAG_NESTED, workers=workers, chunk_size=4096))
    return total


def _hardy_norm_compact(
    f, p: float, spec: ProductSpec, samples: int, seed: int, workers: int = 1,
) -> Estimate:
    """||T f||_p / ||f||_p for a compactly supported f under the ball-average
    operator, with both norms taken from one shared sample set.

    T f depends on x only through the radii, and the inner integral saturates
    once a radius clears the support, so the norm splits over subsets of
    "inside" factors: quadrature over [0, S_i] on cumulative integrals of f
    (estimated by binned prefix sums of the Monte Carlo sample) plus exact
    power tails.  The standard error comes from the replicates' spread.
    """
    S = [float(s) for s in f.support_radii()]
    if any(math.isinf(s) or s <= 0 for s in S):
        raise ValueError("compact-support estimator needs finite positive support radii")
    m = spec.m
    replicates = 16
    per_rep = max(samples // replicates, 1)
    pref = 1.0
    for dims in spec.factors:
        pref *= dims.omega / dims.ball_volume**p
    taus = [s ** (d.Q * (1.0 - p)) / (d.Q * (p - 1.0)) for d, s in zip(spec.factors, S)]
    sampler, _ = _support_sampler(f, spec)

    # two 32-node Gauss-Legendre panels per dimension
    gx, gw = np.polynomial.legendre.leggauss(32)
    nodes, weights = [], []
    for s in S:
        xs, ws = [], []
        for lo, hi in ((0.0, 0.5 * s), (0.5 * s, s)):
            half = 0.5 * (hi - lo)
            xs.append(0.5 * (lo + hi) + half * gx)
            ws.append(half * gw)
        nodes.append(np.concatenate(xs))
        weights.append(np.concatenate(ws))
    G = [len(x) for x in nodes]

    def replicate(c: int) -> tuple[np.ndarray, float]:
        """(m-dim importance-weighted histogram, ||f||_p^p estimate) of replicate c."""
        pts, dens, fv = sampler(substream(seed, TAG_COMPACT, c), per_rep)
        idx = [
            np.searchsorted(nodes[i], koranyi_norm(pts[i]), side="left")
            for i in range(m)
        ]
        hist = np.zeros(tuple(g + 2 for g in G))
        np.add.at(hist, tuple(idx), fv / dens)
        return hist, float(np.mean(np.abs(fv) ** p / dens))

    bins = _ordered_map(replicate, replicates, workers)

    def tf_power(hist: np.ndarray, n_samp: int) -> float:
        """||T f||_p^p from one importance-weighted histogram."""
        cum = hist
        for ax in range(m):
            cum = np.cumsum(cum, axis=ax)
        cum = cum[tuple(slice(0, g + 1) for g in G)] / n_samp
        J = 0.0
        for inside in itertools.product((True, False), repeat=m):
            sl = tuple(slice(0, G[i]) if inside[i] else G[i] for i in range(m))
            I = np.abs(cum[sl]) ** p
            term = pref
            for i in range(m):
                if inside[i]:
                    wq = weights[i] * nodes[i] ** (spec.factors[i].Q * (1.0 - p) - 1.0)
                    I = np.tensordot(I, wq, axes=([0], [0]))
                else:
                    term *= taus[i]
            J += term * float(I)
        return J

    J_full = tf_power(sum(h for h, _ in bins), per_rep * replicates)
    F_full = sum(v for _, v in bins) / replicates
    if F_full <= 0.0:
        raise ValueError("zero norm: the function vanishes on its sample")
    q_reps = np.asarray([(tf_power(h, per_rep) / v) ** (1.0 / p) for h, v in bins if v > 0])
    q_sem = float(np.std(q_reps, ddof=1) / math.sqrt(len(q_reps))) if len(q_reps) > 1 else 0.0
    return Estimate((J_full / F_full) ** (1.0 / p), q_sem, per_rep * replicates)


def _radial_hardy_norm(f, p: float, spec: ProductSpec, tol: float) -> float:
    """||T f||_p by per-factor quadrature: the image profile is itself
    computed by inner quadrature, so this route never touches the closed
    forms it is used to validate."""
    normp = 1.0
    for dims, (F, a, b) in zip(spec.factors, f.radial_profiles()):
        avg = nodewise(lambda R: _radial_ball_average(F, a, b, dims, R, tol))
        normp *= radial_integral(lambda Rv: np.abs(avg(Rv)) ** p, dims, math.inf, tol)
    return normp ** (1.0 / p)


def _weighted_radial_norm(
    f, phi: MonomialWeight, p: float, spec: ProductSpec, tol: float, adjoint: bool
) -> float:
    """||T f||_p for the outside power family under the (adjoint) weighted
    operator, by per-factor quadrature of the explicit image profile."""
    if f.family != "power-outside":
        raise UnsupportedFamilyError("radial weighted norms target the outside power family")
    normp = 1.0
    for dims, beta, a in zip(spec.factors, f.betas, phi.exponents):
        Q = dims.Q

        def image(R: float) -> float:
            # delta_{1/t} (resp. delta_t) of a radius-R point meets the support
            # |y| > 1 exactly for t < R (resp. t > 1/R)
            if adjoint:
                return integrate_1d(
                    lambda t: (R / t) ** -beta * t ** (a - Q),
                    0.0, min(R, 1.0), tol=tol,
                )
            lo = 1.0 / R
            if lo >= 1.0:
                return 0.0
            return integrate_1d(lambda t: (t * R) ** -beta * t**a, lo, 1.0, tol=tol)

        prof = nodewise(image)
        normp *= radial_integral(lambda Rv: np.abs(prof(Rv)) ** p, dims, math.inf, tol)
    return normp ** (1.0 / p)


def norm_quotient(
    f: TestFunction,
    p: float,
    spec: ProductSpec,
    operator: str = "hardy",
    phi: Weight | None = None,
    method: str = "mc",
    samples: int = 100_000,
    seed: int = 0,
    inner_samples: int = 512,
    workers: int = 1,
    tol: float = 1e-10,
) -> Estimate:
    """||T f||_p / ||f||_p for one of the three operators, with errors
    propagated from both estimates."""
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    if operator == "hardy":
        if method == "closed":
            if f.family != "power-inside":
                raise UnsupportedFamilyError("closed quotients exist for the inside power family")
            return Estimate.exact(closedform.general_power_quotient(f.alphas, p, spec))
        if method == "radial":
            num = _radial_hardy_norm(f, p, spec, tol)
            den = lp_norm(f, spec, p, method="radial", tol=tol)
            return Estimate.exact(num / den.value)
        if method == "mc":
            if f.family == "power-inside":
                nump = _nested_power_norm(
                    f, p, spec, samples, seed, inner_samples=inner_samples, workers=workers
                )
                den = lp_norm(f, spec, p, method="mc", samples=samples, seed=seed + 101, workers=workers)
                return nump.powered(1.0 / p).ratio(den)
            return _hardy_norm_compact(f, p, spec, samples, seed, workers=workers)
        raise ValueError(f"unknown method {method!r}")
    if operator in ("weighted-hardy", "weighted-cesaro"):
        if phi is None:
            raise ValueError("weighted quotients need a weight")
        adjoint = operator == "weighted-cesaro"
        _require_bounded(phi, p, spec, "cesaro" if adjoint else "hardy")
        if method == "closed":
            if f.family != "power-outside" or not phi.is_monomial:
                raise UnsupportedFamilyError(
                    "closed weighted quotients need the outside family and a monomial weight"
                )
            fn = closedform.cesaro_power_quotient if adjoint else closedform.weighted_power_quotient
            return Estimate.exact(fn(f.betas, phi.exponents, p, spec))
        if method == "radial":
            if not phi.is_monomial:
                raise UnsupportedFamilyError("radial weighted quotients need a monomial weight")
            num = _weighted_radial_norm(f, phi, p, spec, tol, adjoint)
            den = lp_norm(f, spec, p, method="radial", tol=tol)
            return Estimate.exact(num / den.value)
        raise ValueError(f"method {method!r} not supported for weighted quotients")
    raise ValueError(f"unknown operator {operator!r}")


# ---------------------------------------------------------------------------
# Duality pairings
# ---------------------------------------------------------------------------

def _tensor_nodes(m: int):
    """Gauss-Legendre nodes and weights on [0,1]^m, for m <= 2."""
    if m > 2:
        raise ValueError(f"pairings need m <= 2 (a tensor grid on [0,1]^m), got m={m}")
    order = 32 if m == 1 else 20  # smooth integrands; keep the m=2 tensor small
    gx, gw = np.polynomial.legendre.leggauss(order)
    s = 0.5 * (gx + 1.0)  # nodes on [0,1]
    w = 0.5 * gw
    if m == 1:
        return s[:, None], w
    S1, S2 = np.meshgrid(s, s, indexing="ij")
    W = np.outer(w, w).ravel()
    return np.column_stack([S1.ravel(), S2.ravel()]), W


def _in_polyball(pts: list[np.ndarray], radii) -> np.ndarray:
    """Mask of the points inside the polyball of the given radii (open balls
    about the origin)."""
    inside = np.ones(pts[0].shape[0], dtype=bool)
    for x, r in zip(pts, radii):
        inside &= koranyi_norm(x) < r
    return inside


def _support_sampler(f: TestFunction, spec: ProductSpec):
    """(draw, density) pair for sampling the support of f with a known law.

    `draw(rng, k)` returns `(pts, dens, values)`: k points, the proposal
    density at each, and f at each, so no caller evaluates f on them again.
    `density(pts)` returns `(dens, values)` at arbitrary points, the density
    being zero off the proposal's support.

    Bump mixtures are sampled from the union of their product balls (pick a
    bump proportionally to its ball volume, then per factor dilate one
    unit-ball sample by the chosen bump's radius and left-translate it to
    its centre); the mixture density at a point only needs ball-membership
    counts, which `BumpMixture.values_and_counts` returns with f from the
    same distances, so the weights are exact and every sample lands where f
    can be nonzero.  Anything else falls back to uniform sampling of the
    support polyball."""
    if isinstance(f, BumpMixture) and f.bumps:
        vols = np.asarray([polyball_volume(spec, bump.radii) for bump in f.bumps])
        total = float(vols.sum())
        probs = vols / total

        def density(pts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
            values, count = f.values_and_counts(pts)
            return count / total, values

        centers = [np.stack([bump.centers[i] for bump in f.bumps]) for i in range(spec.m)]
        radii = [np.asarray([bump.radii[i] for bump in f.bumps]) for i in range(spec.m)]

        def draw(rng: np.random.Generator, k: int):
            choice = rng.choice(len(probs), size=k, p=probs)
            pts = [
                group_law(c[choice], dilate_arrays(r[choice], sample_unit_ball(dims, rng, k), dims.n))
                for dims, c, r in zip(spec.factors, centers, radii)
            ]
            dens, values = density(pts)
            return pts, np.maximum(dens, 1.0 / total), values  # drawn points are inside

        return draw, density

    radii = [s if math.isfinite(s) else 1.0 for s in f.support_radii()]
    vol = polyball_volume(spec, radii)

    def density(pts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        return _in_polyball(pts, radii) / vol, np.asarray(f(pts), dtype=float)

    def draw(rng: np.random.Generator, k: int):
        pts = [sample_ball(dims, rng, r, k) for dims, r in zip(spec.factors, radii)]
        return pts, np.full(k, 1.0 / vol), np.asarray(f(pts), dtype=float)

    return draw, density


def pairing_weighted_hardy(
    f: TestFunction,
    g: TestFunction,
    phi: Weight,
    spec: ProductSpec,
    samples: int = 20_000,
    seed: int = 0,
    workers: int = 1,
) -> Estimate:
    """<f, P_phi g>: Monte Carlo over the support of f, with the dilation
    integral at each sample point done by tensor Gauss-Legendre on [0,1]^m.
    Intended for smooth g (bumps) or cases where the t-integrand is smooth."""
    S, W = _tensor_nodes(spec.m)
    sampler, _ = _support_sampler(f, spec)

    def draw(rng: np.random.Generator, k: int) -> np.ndarray:
        pts, dens, fvals = sampler(rng, k)
        pg = g.on_dilations(pts, list(S.T)) @ (W * phi(S))
        return fvals * pg / dens

    return chunked_mean(draw, samples, seed, TAG_NESTED, workers=workers, chunk_size=2048)


def pairing_weighted_cesaro(
    g: TestFunction,
    f: TestFunction,
    phi: Weight,
    spec: ProductSpec,
    p: float,
    samples: int = 20_000,
    seed: int = 0,
    workers: int = 1,
) -> Estimate:
    """<g, P*_phi f>: Monte Carlo over the support of g; at each sample the
    t-integral is taken on the per-point support window [ |x_i|/S_i, 1 ] with
    affine-mapped Gauss-Legendre nodes, which keeps indicator-type f exact."""
    S, W = _tensor_nodes(spec.m)
    _require_bounded(phi, p, spec, "cesaro")
    sup = f.support_radii()
    sampler, _ = _support_sampler(g, spec)

    def draw(rng: np.random.Generator, k: int) -> np.ndarray:
        pts, dens, gvals = sampler(rng, k)
        K = S.shape[0]
        t_nodes = []
        jac = np.ones((k, K))
        kern = np.ones((k, K))
        for i, dims in enumerate(spec.factors):
            r = koranyi_norm(pts[i])
            lo = np.minimum(r / sup[i], 1.0)
            t = lo[:, None] + (1.0 - lo)[:, None] * S[None, :, i]  # (k, K)
            t = np.maximum(t, 1e-300)
            jac *= (1.0 - lo)[:, None]
            kern /= t**dims.Q
            t_nodes.append(t)
        T = np.stack([t.reshape(-1) for t in t_nodes], axis=1)
        phivals = phi(T).reshape(k, K)
        fvals = f.on_dilations(pts, [1.0 / t for t in t_nodes])
        inner = (fvals * phivals * kern * jac) @ W
        return gvals * inner / dens

    return chunked_mean(draw, samples, seed, TAG_NESTED, workers=workers, chunk_size=2048)
