"""The three operators under study and their norm quotients.

* ball-average operator: per-factor average over Koranyi balls of radii
  |x_i|_h (the product Hardy-type operator);
* weighted dilation average over [0,1]^m with weight phi;
* its adjoint, the weighted Cesaro-type operator with kernel phi(t)/prod t^Q_i
  and inverse dilations.

The ball average is evaluated at given radii by Monte Carlo (`hardy_eval`); the
weighted pair enters only through the duality pairings and the norm
quotients, which combine closed forms, radial quadrature and variance-safe
Monte Carlo estimators.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import closedform
from .funcs import (
    BumpMixture,
    TestFunction,
    UnsupportedFamilyError,
    _json_floats,
    sample_bump_radii,
)
from .hgroup import (
    GroupDims,
    ProductSpec,
    dilate_arrays,
    group_law,
    koranyi_norm,
    polyball_volume,
    sample_ball,
    sample_unit_sphere,
)
from .measure import (
    Estimate,
    IntegrationError,
    TAG_COMPACT,
    TAG_NESTED,
    TAG_PILOT,
    chunked_mean,
    grid_workspace,
    integrate_1d,
    lp_norm,
    mc_integrate,
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
    "weight_bound_integral",
    "norm_quotient",
    "pairing_weighted_hardy",
    "pairing_weighted_cesaro",
]


class UnboundedOperatorError(ValueError):
    """The weight fails the boundedness characterization."""


class Weight:
    """Nonnegative product weight prod_i phi_i(t_i) on [0,1]^m, one vectorized
    1-D profile per factor.  knots[i] lists the interior points of (0, 1) at
    which phi_i may have a kink (a table weight's knots), empty where phi_i
    is smooth as far as the weight knows."""

    profiles: tuple
    knots: tuple
    label: str = "general"

    @property
    def m(self) -> int:
        return len(self.profiles)

    def kernel(self, i: int, dims: GroupDims, adjoint: bool):
        """Factor i of the operator's kernel as a vectorized f(t, out=None):
        phi_i(t), or phi_i(t) t^(-Q_i) for the adjoint, written into out
        when one is given."""
        phi, e = self.profiles[i], -dims.Q if adjoint else 0.0

        def f(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            out = np.power(t, e, out=out)
            out *= phi(t)
            return out

        return f


@dataclass(frozen=True)
class MonomialWeight(Weight):
    """prod_i t_i^(a_i) with exponents a_i >= 0."""

    exponents: tuple[float, ...]

    def __post_init__(self) -> None:
        # written so that NaN, for which a < 0 is false, is refused too
        if not all(0.0 <= a < math.inf for a in self.exponents):
            raise ValueError(f"monomial exponents must be finite and nonnegative: {self.label}")

    @property
    def profiles(self) -> tuple:
        return tuple((lambda t, a=a: t**a) for a in self.exponents)

    @property
    def label(self) -> str:
        return "monomial:" + ",".join(f"{a:g}" for a in self.exponents)

    @property
    def knots(self) -> tuple:
        return ((),) * self.m

    def kernel(self, i: int, dims: GroupDims, adjoint: bool):
        """t^a, or t^(a - Q) for the adjoint, from one power."""
        e = self.exponents[i] - dims.Q if adjoint else self.exponents[i]
        return lambda t, out=None: np.power(t, e, out=out)


class GeneralWeight(Weight):
    """A product of arbitrary nonnegative vectorized 1-D profiles."""

    def __init__(self, profiles, label: str = "general", knots=None):
        self.profiles = tuple(profiles)
        self.label = label
        self.knots = ((),) * self.m if knots is None else tuple(map(tuple, knots))


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
        factors = data.get("factors") if isinstance(data, dict) else None
        if not isinstance(factors, list) or len(factors) != m:
            raise ValueError(f"weight {text}['factors'] must list one table per factor, {m} in all")
        profiles, knots = [], []
        for i, fac in enumerate(factors):
            where = f"weight {text}['factors'][{i}]"
            grid = _json_floats(fac, "t", 1, where)
            vals = _json_floats(fac, "values", 1, where)
            if not 0 < grid.size == vals.size or np.any(np.diff(grid) < 0) or np.any(vals < 0):
                raise ValueError(f"{where}: 't' must not decrease, with one value >= 0 per knot")
            # the interpolant is piecewise linear and flat beyond the end knots,
            # so it vanishes on [0, 1] exactly when it does at the knots clipped
            # to [0, 1]; a zero weight makes both sides of a pairing 0, a PASS
            if not np.interp(np.clip(grid, 0.0, 1.0), grid, vals).any():
                raise ValueError(f"weight {text}: factor {i + 1} is zero on [0, 1]")
            profiles.append(lambda t, grid=grid, vals=vals: np.interp(t, grid, vals))
            knots.append(tuple(float(t) for t in np.unique(grid) if 0.0 < t < 1.0))
        return GeneralWeight(profiles, f"table:{rest}", knots)
    raise ValueError(f"unknown weight spec {text!r}")


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------


def hardy_eval(
    f: TestFunction,
    radii,
    samples: int = 20_000,
    seed: int = 0,
) -> Estimate:
    """The product ball-average operator, by Monte Carlo, at any x with
    |x_i|_h = radii[i]: the average of f over B(0,r_1) x ... x B(0,r_m).

    The evaluation is seeded explicitly: pass fresh seeds per point for
    independent field evaluations, or reuse one seed across points for a
    smooth (common-random-numbers) quotient surface."""
    est = mc_integrate(f, f.spec, radii, samples, seed)
    return est.scaled(1.0 / polyball_volume(f.spec, radii))


def weight_bound_integral(phi: Weight, p: float, spec: ProductSpec, kind: str) -> float:
    """Characteristic integral C_phi deciding boundedness:
    integral over [0,1]^m of prod t_i^(-Q_i/p) phi (kind='hardy') or
    prod t_i^(-Q_i(1-1/p)) phi (kind='cesaro'); +inf counts as a value."""
    if kind not in ("hardy", "cesaro"):
        raise ValueError("kind must be 'hardy' or 'cesaro'")
    if phi.m != spec.m:
        raise ValueError("weight and product space disagree on m")
    if isinstance(phi, MonomialWeight):
        return closedform.monomial_weight_characteristic(phi.exponents, p, spec, kind)
    # the weight is a product, so the integral is a product of 1-D integrals
    total = 1.0
    for dims, phi_i in zip(spec.factors, phi.profiles):
        e = dims.Q / p if kind == "hardy" else dims.Q * (1.0 - 1.0 / p)
        try:
            total *= integrate_1d(lambda t: phi_i(t) / t**e, 0.0, 1.0, tol=1e-9)
        except IntegrationError:
            return math.inf
    return total


def _require_bounded(phi: Weight, p: float, spec: ProductSpec, kind: str) -> None:
    """Refuse a weight whose characteristic integral of the given kind
    diverges at exponent p: the operator is then unbounded on L^p."""
    if math.isinf(weight_bound_integral(phi, p, spec, kind)):
        raise UnboundedOperatorError(
            f"unbounded operator: the {kind} characteristic integral diverges at p={p}"
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
    f, p: float, spec: ProductSpec, samples: int, seed: int,
) -> Estimate:
    """||T f||_p / ||f||_p for a compactly supported f under the ball-average
    operator, with both norms taken from one shared sample set.

    T f depends on x only through the radii, and the inner integral saturates
    once a radius clears the support: per factor, quadrature over [0, S_i]
    on cumulative integrals of f (estimated by binned prefix sums of the
    Monte Carlo sample) plus an exact power tail tau_i beyond S_i.  Each
    axis' node weights carry tau_i at the saturated index G_i, so the norm
    is one contraction of |cum|^p.  The standard error comes from the
    replicates' spread.  The replicates run in index order on the calling
    thread: each is about 3k rows, too little numpy work per call for pool
    threads to do more than pass the GIL back and forth.

    Each replicate draws a stratified sample (the sampler's
    `stratified=True`: its bump choice, and per factor its bump radius and,
    at n = 1, its sphere angle on one grid): its points are dependent, but
    the replicates stay independent, each on its own substream
    (seed, TAG_COMPACT, c), so the spread of the 16 replicate quotients
    still estimates the error, with 15 degrees of freedom.  The
    stratification lowers the variance of each replicate and so of the
    quotient (Stein, Technometrics 1987).  The radii are binned to the
    nodes by `_node_index`.

    For a bump mixture the cumulative integrals are sums over the bumps of
    products over the factors, int_{B(R)} f = sum_j c_j prod_i int_{B(R_i)}
    Psi_ij, and given the choices, each factor's coordinates are drawn
    independently of the others'.  So each replicate counts the points of
    bump j below each node, per factor, and takes the outer product of those
    counts over the factors (a V-statistic over the points' factors) with
    weight c_j prod_i M_ij / E[N_j^m] (`_stratified_count_moment`), which
    keeps it unbiased whatever the count N_j of bump j's points.  At m >= 2
    a point near the origin in every factor then no longer stands alone in
    its corner of the node grid; with one sample point per corner, that
    single term raised to the p-th power was the heavy tail of the centred
    control at p = 3, m = 2.  Other families are refused, and so is a
    mixture of zero mass, with its zero norm, before any draw.
    """
    if not isinstance(f, BumpMixture):
        raise UnsupportedFamilyError("the compact estimator takes bump mixtures")
    S = [float(s) for s in f.support_radii()]
    if any(math.isinf(s) or s <= 0 for s in S):
        raise ValueError("compact-support estimator needs finite positive support radii")
    m = spec.m
    replicates = 16
    per_rep = max(samples // replicates, 1)
    try:
        pref = math.prod(dims.omega / dims.ball_volume**p for dims in spec.factors)
    except ArithmeticError:  # an overflow, or a division by an underflow
        pref = math.inf
    if not 0.0 < pref < math.inf:
        raise ValueError(f"p={p:g} is too large: the prefactor prod omega / |B(0, 1)|^p "
                         "leaves the float range")

    # two 32-node Gauss-Legendre panels per dimension, split at S/2, weighted
    # by r^(Q(1-p)-1) and followed by the tail int_S^inf r^(Q(1-p)-1) dr
    t, tw = _axis_rule(64, (0.5,))
    G = len(t)
    nodes, weights = [], []
    for d, s in zip(spec.factors, S):
        x = s * t
        with np.errstate(over="ignore"):  # np.float64: inf where a float power raises
            w = np.append(s * tw * x ** (d.Q * (1.0 - p) - 1.0),
                          np.float64(s) ** (d.Q * (1.0 - p)) / (d.Q * (p - 1.0)))
        if not np.isfinite(w).all():
            raise ValueError(f"p={p:g} is too large: the node weights r^(Q(1-p)-1) leave the float range")
        nodes.append(x)
        weights.append(w)

    masses = f.bump_masses()
    if not masses.sum() > 0.0:
        raise ValueError("zero norm: the function vanishes on its sample")
    sampler, _ = _support_sampler(f, spec)
    bin_of = [_node_index(x) for x in nodes]
    # bump j's weight c_j prod_i M_ij / E[N_j^m], times per_rep
    signed = np.copysign(masses, [bump.coefficient for bump in f.bumps])
    coef = np.divide(per_rep * signed, _stratified_count_moment(masses, per_rep, m),
                     out=np.zeros_like(masses), where=masses > 0.0)

    def replicate(c: int) -> tuple[np.ndarray, float]:
        """(m-dim histogram over the node indices 0..G, G past the last node,
        ||f||_p^p estimate) of replicate c: per bump, the outer product of its
        points' node counts in each factor."""
        pts, dens, fv, choice = sampler(substream(seed, TAG_COMPACT, c), per_rep, stratified=True)
        cells = choice * (G + 1)
        counts = [np.bincount(cells + bin_of[i](koranyi_norm(pts[i])),
                              minlength=coef.size * (G + 1)).reshape(-1, G + 1)
                  for i in range(m)]
        hist = np.zeros((G + 1,) * m)
        for j, weight in enumerate(coef):  # bump by bump: no (J, (G + 1)^m) array
            term = weight * counts[0][j]
            for count in counts[1:]:
                term = np.multiply.outer(term, count[j])
            hist += term
        return hist, float(np.mean(np.abs(fv) ** p / dens))

    bins = [replicate(c) for c in range(replicates)]

    def tf_power(hist: np.ndarray, n_samp: int) -> float:
        """||T f||_p^p from a histogram of `replicate` (or a sum of them) over
        n_samp points."""
        cum = hist
        for ax in range(m):
            cum = np.cumsum(cum, axis=ax)
        J = np.abs(cum / n_samp) ** p
        for w in weights:
            J = np.tensordot(J, w, axes=([0], [0]))
        return pref * float(J)

    J_full = tf_power(sum(h for h, _ in bins), per_rep * replicates)
    F_full = sum(v for _, v in bins) / replicates
    if F_full <= 0.0:
        raise ValueError("zero norm: the function vanishes on its sample")
    q_reps = np.asarray([(tf_power(h, per_rep) / v) ** (1.0 / p) for h, v in bins if v > 0])
    q_sem = float(np.std(q_reps, ddof=1) / math.sqrt(len(q_reps))) if len(q_reps) > 1 else 0.0
    return Estimate((J_full / F_full) ** (1.0 / p), q_sem, per_rep * replicates)


def _node_index(nodes: np.ndarray):
    """A function r -> np.searchsorted(nodes, r, side="left") for sorted,
    distinct, nonnegative nodes, by table lookup.

    The cells [c h, (c + 1) h) cover [0, nodes[-1]], with h a power-of-two
    fraction of nodes[-1] below half the smallest gap, so no cell holds two
    nodes.  Cells are computed as floor(x * (1 / h)) for nodes and radii
    alike; that map is monotone, so the nodes in cells below r's are below r and
    those in cells above are above it.  table[c] counts the nodes in cells
    below c, and one comparison with the node that may share r's cell,
    against nodes padded with +inf, finishes the count.  Radii beyond the
    last cell, inf and NaN take the top cell and come out at len(nodes),
    as from searchsorted.  The radii must be nonnegative (norms)."""
    last = float(nodes[-1])
    cells = 2 ** math.ceil(math.log2(2.0 * last / float(np.diff(nodes).min())))
    inv_h = cells / last
    top = cells + 1  # past the cell of the last node
    node_cells = np.floor(nodes * inv_h).astype(np.intp)
    table = np.searchsorted(node_cells, np.arange(top + 1), side="left")
    padded = np.append(nodes, np.inf)

    def index(r: np.ndarray) -> np.ndarray:
        cell = np.multiply(r, inv_h)
        np.fmin(cell, top, out=cell)  # fmin takes top for NaN, so the cast is defined
        i = table[cell.astype(np.intp)]
        i += padded[i] < r
        return i

    return index


def _image_profile(F, a: float, b: float, c: float, adjoint: bool, tol: float):
    """The image of a profile F on [a, b] under the dilation average with
    kernel t^c, R -> int_0^1 t^c F(tR) dt (F(R/t) if adjoint), as (e, G) with
    the image R^e G(R).  With C(x) = int_a^min(b,x) r^c F(r) dr, r = tR gives
    R^(-c-1) C(R), and s = t/R the adjoint image R^(c+1) C(1/R) with F(1/s)
    on [1/b, 1/a] in C.  G = x^-d C(x), d = max(c + 1, 0), at x = R (1/R if
    adjoint) stays in range where C grows.  It sums `integrate_1d` pieces
    between its sorted nodes, so only the first meets a singularity at a,
    and a node at or below a gives 0 exactly.  The ball average over B(0, R)
    is Q times the image with c = Q - 1, since omega_Q = Q |B(0, 1)|."""
    if adjoint:
        F, a, b = (lambda s, F=F: F(1.0 / s)), 1.0 / b, math.inf if a == 0.0 else 1.0 / a
    d = max(c + 1.0, 0.0)

    def G(x: np.ndarray) -> np.ndarray:
        out = np.empty(len(x))
        total, lo, prev = 0.0, a, 0.0
        for i in np.argsort(x):
            xi, hi = x[i], min(max(x[i], a), b)
            total *= (prev / xi) ** d
            if hi > lo:
                total += integrate_1d(lambda r: (r / xi) ** d * r ** (c - d) * F(r), lo, hi, tol=tol)
                lo = hi
            out[i], prev = total, xi
        return out

    return (c + 1.0 - d, lambda R: G(1.0 / R)) if adjoint else (d - c - 1.0, G)


def _image_norm(f, p: float, spec: ProductSpec, kernels, adjoint: bool, tol: float) -> float:
    """||T f||_p for a radial product f whose image under T is, factor by
    factor, k times the `_image_profile` for the kernel t^c, one (k, c) pair
    per factor: this route never touches the closed forms it validates."""
    normp = 1.0
    for dims, (F, a, b), (k, c) in zip(spec.factors, f.radial_profiles(), kernels):
        e, G = _image_profile(F, a, b, c, adjoint, tol)
        normp *= radial_integral(lambda R: np.abs(k * R**e * G(R)) ** p, dims, math.inf, tol=tol)
    return normp ** (1.0 / p)


def _radial_hardy_norm(f, p: float, spec: ProductSpec, tol: float) -> float:
    """||T f||_p under the ball-average operator, by per-factor quadrature."""
    return _image_norm(f, p, spec, [(d.Q, d.Q - 1.0) for d in spec.factors], False, tol)


def _weighted_radial_norm(
    f, phi: MonomialWeight, p: float, spec: ProductSpec, tol: float, adjoint: bool
) -> float:
    """||T f||_p for the outside power family under the (adjoint) weighted
    operator, by per-factor quadrature: kernels t^a, or t^(a - Q) if adjoint."""
    if f.family != "power-outside":
        raise UnsupportedFamilyError("radial weighted norms target the outside power family")
    kernels = [(1.0, a - d.Q if adjoint else a) for d, a in zip(spec.factors, phi.exponents)]
    return _image_norm(f, p, spec, kernels, adjoint, tol)


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
        if method == "mc":
            if f.family == "power-inside":
                nump = _nested_power_norm(
                    f, p, spec, samples, seed, inner_samples=inner_samples, workers=workers
                )
                den = lp_norm(f, spec, p, method="mc", samples=samples, seed=seed + 101)
                return nump.powered(1.0 / p).ratio(den)
            return _hardy_norm_compact(f, p, spec, samples, seed)
        if method != "radial":
            raise ValueError(f"unknown method {method!r}")
        num = _radial_hardy_norm(f, p, spec, tol)
    elif operator in ("weighted-hardy", "weighted-cesaro"):
        if phi is None:
            raise ValueError("weighted quotients need a weight")
        adjoint = operator == "weighted-cesaro"
        _require_bounded(phi, p, spec, "cesaro" if adjoint else "hardy")
        if method != "radial":
            raise ValueError(f"method {method!r} not supported for weighted quotients")
        if not isinstance(phi, MonomialWeight):
            raise UnsupportedFamilyError("radial weighted quotients need a monomial weight")
        num = _weighted_radial_norm(f, phi, p, spec, tol, adjoint)
    else:
        raise ValueError(f"unknown operator {operator!r}")
    return Estimate.exact(num / lp_norm(f, spec, p, method="radial", tol=tol).value)


# ---------------------------------------------------------------------------
# Duality pairings
# ---------------------------------------------------------------------------

_PILOT_POINTS = 512
_PILOT_CELLS = 2**14  # a pilot grid's values: at most this, and at least an eighth of it


def _fixed_order(m: int) -> int:
    """Nodes per axis of the fixed rule that a pairing falls back to, and
    the most it may take: 32 at m = 1, and a 20 x 20 tensor at m = 2."""
    if m > 2:
        raise ValueError(f"pairings need m <= 2 (a tensor grid on [0,1]^m), got m={m}")
    return 32 if m == 1 else 20


@functools.lru_cache(maxsize=None)
def _axis_rule(order: int, knots: tuple) -> tuple[np.ndarray, np.ndarray] | None:
    """order Gauss-Legendre nodes and weights on [0, 1], composite over the
    pieces that the knots cut from it, each with its share of the order in
    proportion to its length; None when a piece would get no node.  The
    arrays are cached, so they are read-only."""
    ends = (0.0, *knots, 1.0)
    counts = np.diff(np.rint(order * np.asarray(ends))).astype(int)
    if (counts < 1).any():
        return None
    nodes, weights = [], []
    for a, b, n in zip(ends, ends[1:], counts):
        gx, gw = np.polynomial.legendre.leggauss(n)
        nodes.append(a + (b - a) * (0.5 * (gx + 1.0)))
        weights.append((b - a) * (0.5 * gw))
    rule = np.concatenate(nodes), np.concatenate(weights)
    for a in rule:
        a.flags.writeable = False
    return rule


def _dilation_rule(m: int, order: int, knots=None):
    """Nodes (K, m) and weights (K,) of the tensor of `_axis_rule`s on
    [0,1]^m, order nodes per axis, each axis split at its knots; None when
    an axis has no rule of that order."""
    axes = [_axis_rule(order, k) for k in knots or ((),) * m]
    if None in axes:
        return None
    if m == 1:
        return axes[0][0][:, None], axes[0][1]
    (s1, w1), (s2, w2) = axes
    S1, S2 = np.meshgrid(s1, s2, indexing="ij")
    return np.column_stack([S1.ravel(), S2.ravel()]), np.outer(w1, w2).ravel()


def _choose_rule(sampler, rule_values, m: int, knots, samples: int, seed: int, ws):
    """The dilation rule of a pairing, sized from a pilot error estimate.

    `rule_values(S, W)` returns the pairing's per-point values
    `values(pts, dens, fvals, ws)` under the rule (S, W).  The pilot draws
    `_PILOT_POINTS` points once, from the substream (seed, TAG_PILOT), and
    evaluates them under rules of K = 4, 8, 16 and the fixed order nodes per
    axis, going upward, each against the rule of 2K.  With d the per-point
    difference of the two, the first K whose bias bound |mean d| +
    3 sd(d)/sqrt(n) lies below 1/20 of the projected standard error
    sd(values)/sqrt(samples) is taken.  When none passes, or the values have
    no spread (there is no error to size against), the fixed rule is kept:
    32 nodes at m = 1, a 20 x 20 tensor at m = 2.  So the rule never has
    more columns than that one.  The pilot's grids are taken from ws in row
    blocks of at most `_PILOT_CELLS` values, which lets ws keep its buffers
    from rung to rung."""
    top = _fixed_order(m)
    pts, dens, fvals = sampler(substream(seed, TAG_PILOT), _PILOT_POINTS)
    pilot, blocks_run = {}, 0

    def at(order: int):
        nonlocal blocks_run
        if order not in pilot:
            rule, blocks = _dilation_rule(m, order, knots), []
            if rule is not None:
                values, rows = rule_values(*rule), max(_PILOT_CELLS // len(rule[1]), 1)
                for a in range(0, _PILOT_POINTS, rows):
                    if blocks_run:
                        ws.trim()  # hands back the last block's grids, and keeps them
                    blocks_run += 1
                    blocks.append(values([x[a:a + rows] for x in pts], dens[a:a + rows],
                                         fvals[a:a + rows], ws))
            pilot[order] = np.concatenate(blocks) if blocks else None
        return pilot[order]

    for order in (4, 8, 16, top):
        coarse, fine = at(order), at(2 * order)
        if coarse is None or fine is None:
            continue
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite values pass no rung
            spread = float(np.std(fine, ddof=1))
            d = coarse - fine
            bias = abs(float(d.mean())) + 3.0 * float(np.std(d, ddof=1)) / math.sqrt(_PILOT_POINTS)
        if spread == 0.0:
            break
        if bias < spread / math.sqrt(samples) / 20.0:
            return _dilation_rule(m, order, knots)
    return _dilation_rule(m, top)


def _pairing(sampler, rule_values, m: int, knots, samples: int, seed: int) -> Estimate:
    """chunked_mean of a pairing's per-point values under the rule that
    `_choose_rule` sized for it.  The pilot's workspace is held until the
    chunks are done, so that it goes back to the idle stack last and the
    next pilot gets it again: pilot and chunk grids never share buffers.
    The chunks run in order on the calling thread: at 2,048 rows, two
    threads cost C8 more CPU than one, for no less wall time."""
    with grid_workspace() as ws:
        values = rule_values(*_choose_rule(sampler, rule_values, m, knots, samples, seed, ws))

        def draw(rng: np.random.Generator, k: int) -> np.ndarray:
            pts, dens, fvals = sampler(rng, k)
            with grid_workspace() as chunk_ws:
                return values(pts, dens, fvals, chunk_ws)

        return chunked_mean(draw, samples, seed, TAG_NESTED, chunk_size=2048)


def _in_polyball(pts: list[np.ndarray], radii) -> np.ndarray:
    """Mask of the points inside the polyball of the given radii (open balls
    about the origin)."""
    inside = np.ones(pts[0].shape[0], dtype=bool)
    for x, r in zip(pts, radii):
        inside &= koranyi_norm(x) < r
    return inside


_BELOW_ONE = 1.0 - 2.0**-53  # the largest float below 1


def _stratified_count_moment(masses: np.ndarray, k: int, m: int) -> np.ndarray:
    """E[N_j^m] for N_j, the number of k stratified bump choices (point i's
    uniform in [i/k, (i + 1)/k)) that pick bump j, for bumps of the given
    masses.  Bump j takes the span [lo, hi) of the strata, its cumulative
    mass before and after it over the total, times k.  Each stratum picks it
    independently with the length of their overlap, which is 1 for the
    strata inside the span, so N_j is their number plus at most two
    Bernoulli variates at its ends."""
    edges = k * np.append(0.0, np.cumsum(masses)) / masses.sum()
    out = np.zeros(masses.size)
    for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        first, stop = math.floor(lo), min(math.ceil(hi), k)
        if stop <= first:
            continue
        # only the first and the last stratum can hold part of the span
        ends = {i: min(max(hi - i, 0.0), 1.0) - min(max(lo - i, 0.0), 1.0) for i in (first, stop - 1)}
        full = stop - first - len(ends) + sum(q == 1.0 for q in ends.values())
        law = np.ones(1)  # of the uncertain part of N_j
        for q in ends.values():
            if 0.0 < q < 1.0:
                law = np.convolve(law, [1.0 - q, q])
        out[j] = law @ (full + np.arange(law.size)) ** float(m)
    return out


def _in_strata(index, u: np.ndarray, count: int) -> np.ndarray:
    """(index + u) / count in place on the uniforms u: a uniform in stratum
    `index` of `count` equal strata of [0, 1), held below 1, since
    (count - 1 + U) / count rounds to 1.0 for U near 1 and a caller that
    scales it by a cell count would index past its last cell."""
    u += index
    u /= count
    return np.minimum(u, _BELOW_ONE, out=u)


def _grid_strata(rng: np.random.Generator, k: int, n: int):
    """(radius, angle) uniforms of k points on a random Latin grid: cell
    c = perm(i) of the a x b grid, a = ceil(sqrt(k)) angle strata at n = 1
    and a = 1 at n >= 2 (angle None), b = ceil(k / a) radius strata, the
    permutation of a * b cells cut to k.  Point i's angle takes stratum
    c mod a and its radius stratum c div a, so no two points share a cell
    and, on its own, each uniform is uniform."""
    a = math.isqrt(k - 1) + 1 if n == 1 else 1
    b = -(-k // a)
    cell = rng.permutation(a * b)[:k]
    if n > 1:
        return _in_strata(cell, rng.random(k), b), None
    row = cell // a  # floor division and a product take half the time of np.divmod
    cell -= row * a
    return _in_strata(row, rng.random(k), b), _in_strata(cell, rng.random(k), a)


def _support_sampler(f: TestFunction, spec: ProductSpec):
    """(draw, density) pair for sampling the support of f with a known law.

    `draw(rng, k, stratified=False)` returns `(pts, dens, values)`: k
    points, the proposal density at each, and f at each, so no caller
    evaluates f on them again.  For a bump mixture of positive mass,
    `draw(rng, k, stratified=True)` also returns each point's bump index.
    `density(pts)` returns `(dens, values)` at arbitrary points, the density
    being zero off the proposal's support.

    A bump mixture f = sum_j c_j Psi_j is sampled in proportion to its
    envelope sum_j |c_j| Psi_j (importance sampling; Owen, "Monte Carlo
    theory, methods and examples", 2013, ch. 9): pick bump j with
    probability proportional to its mass (`BumpMixture.bump_masses`), then
    in each factor set x_i = c_ij o delta_{r_ij s}(sigma), with sigma on the
    unit Koranyi sphere under its polar measure and s from the bump's radial
    law (`funcs.sample_bump_radii`).  Then d(x_i, c_ij) = r_ij s, so x has
    density envelope / mass, which `BumpMixture.values_and_envelope` returns
    with f from the same distances.  The weight f / density is bounded by
    the mass, and equals it (up to rounding) when no coefficient is
    negative.  Anything else, a mixture of zero mass included, falls back to
    uniform sampling of the support polyball; a function of unbounded
    support is refused.

    With `stratified=True` a bump mixture's k points are stratified in
    three of their uniforms (McKay, Beckman & Conover, Technometrics 1979;
    Owen, ch. 10).  Point i picks its bump with a uniform in the stratum
    [i/k, (i + 1)/k), in index order.  In each factor it takes cell perm(i)
    of an a x b grid (`_grid_strata`), one permutation per factor: the
    cell's column is its sphere angle's stratum (n = 1, a = ceil(sqrt(k));
    `sample_unit_sphere`) and its row the stratum of the envelope uniform of
    its first radius proposal (`sample_bump_radii`).  At n >= 2, a = 1 and
    only the radius is stratified: that sphere comes from normals and a Beta
    variate, which have no cheap inverse.  Every stratum is held below 1
    (`_in_strata`).  A rejected radius proposal is replaced in place by an
    exact draw, so each radius keeps the radial law on its own, independent
    of the point's bump stratum.  The vertical w stays i.i.d.: a third grid
    axis for it lowered the variance no further.  The points are then not
    independent, so an estimator that takes its error from the spread of
    single points (`chunked_mean`) must not stratify; the compact estimator,
    which takes it from independent replicates, does."""
    masses = f.bump_masses() if isinstance(f, BumpMixture) else np.zeros(0)
    total = float(masses.sum())
    if total > 0.0:
        cdf = np.cumsum(masses)
        centers = [np.stack([bump.centers[i] for bump in f.bumps]) for i in range(spec.m)]
        radii = [np.asarray([bump.radii[i] for bump in f.bumps]) for i in range(spec.m)]

        def density(pts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
            values, envelope = f.values_and_envelope(pts)
            return np.divide(envelope, total, out=envelope), values

        def draw(rng: np.random.Generator, k: int, stratified: bool = False):
            u = rng.random(k)
            if stratified:  # point i's choice in stratum i, in index order
                _in_strata(np.arange(k), u, k)
            u *= cdf[-1]  # below cdf[-1], so no bump of zero mass is picked
            choice = np.searchsorted(cdf, u, side="right")
            pts = []
            for dims, c, r in zip(spec.factors, centers, radii):
                radius, angle = _grid_strata(rng, k, dims.n) if stratified else (None, None)
                scale = sample_bump_radii(dims.Q, rng, k, radius)
                scale *= r[choice]
                sphere = sample_unit_sphere(dims, rng, k, angle)
                pts.append(group_law(np.take(c, choice, axis=0),
                                     dilate_arrays(scale, sphere, dims.n, out=sphere)))
            dens, values = density(pts)
            # an envelope that underflows to 0 has f = 0 there as well
            np.maximum(dens, np.finfo(float).tiny, out=dens)
            return (pts, dens, values, choice) if stratified else (pts, dens, values)

        return draw, density

    radii = f.support_radii()
    if not all(math.isfinite(s) for s in radii):
        raise ValueError(f"cannot sample the support of {f.family}: it is unbounded")
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
) -> Estimate:
    """<f, P_phi g>: Monte Carlo over the support of f, with the dilation
    integral at each sample point done by tensor Gauss-Legendre on [0,1]^m,
    composite over the pieces that the weight's knots cut from each axis and
    sized by `_choose_rule`.  Intended for smooth g (bumps) or cases where
    the t-integrand is smooth between the knots."""
    _fixed_order(spec.m)  # refuses m > 2

    def rule_values(S, W):
        w_phi = W * math.prod(phi.kernel(i, dims, False)(S[:, i])
                              for i, dims in enumerate(spec.factors))

        def values(pts, dens, fvals, ws):
            pg = g.on_dilations(pts, list(S.T), list(S.T), None, ws) @ w_phi
            return fvals * pg / dens

        return values

    return _pairing(_support_sampler(f, spec)[0], rule_values, spec.m, phi.knots,
                    samples, seed)


def pairing_weighted_cesaro(
    g: TestFunction,
    f: TestFunction,
    phi: Weight,
    spec: ProductSpec,
    p: float,
    samples: int = 20_000,
    seed: int = 0,
) -> Estimate:
    """<g, P*_phi f>: Monte Carlo over the support of g; at each sample the
    t-integral is taken on the per-point support window [ |x_i|/S_i, 1 ] with
    affine-mapped Gauss-Legendre nodes, sized by `_choose_rule`, which keeps
    indicator-type f exact.  The weight's knots do not split this rule: the
    pilot measures its error across them like any other.  The (k, K) grids
    of t, of the inverse scales 1/t (formed in place of t) and of the kernel
    phi(t) prod t_i^(-Q_i) are the chunk's workspace grids.  f gets the
    window starts and the nodes next to the scales, the map that made them."""
    _fixed_order(spec.m)  # refuses m > 2 before the weight
    _require_bounded(phi, p, spec, "cesaro")
    sup = f.support_radii()

    def rule_values(S, W):
        def values(pts, dens, gvals, ws):
            k = pts[0].shape[0]
            grid = (k, S.shape[0])
            t_nodes, starts, kernels = [], [], []
            jac = np.ones(k)  # the affine map's Jacobian is constant along each point's nodes
            for i, dims in enumerate(spec.factors):
                r = koranyi_norm(pts[i])
                lo = np.minimum(r / sup[i], 1.0)
                t = np.multiply((1.0 - lo)[:, None], S[None, :, i], out=ws.grid(grid))
                t += lo[:, None]
                np.maximum(t, 1e-300, out=t)
                jac *= 1.0 - lo
                kernels.append(phi.kernel(i, dims, True)(t, out=ws.grid(grid)))
                t_nodes.append(t)
                starts.append(lo)
            for factor in kernels[1:]:
                kernels[0] *= factor
            scales = [np.divide(1.0, t, out=t) for t in t_nodes]
            integrand = f.on_dilations(pts, scales, list(S.T), starts, ws)
            integrand *= kernels[0]
            return gvals * ((integrand @ W) * jac) / dens

        return values

    return _pairing(_support_sampler(g, spec)[0], rule_values, spec.m, None,
                    samples, seed)
