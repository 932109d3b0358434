"""Named experiments bundling operators and oracles into acceptance-grade
reports.

Each experiment returns an ExperimentReport: rows of (input, estimate,
oracle, deviation, sigma multiple, verdict) plus a summary keyed by the
laboratory's numbered acceptance checks (C1..C10, listed in the README).
Every verdict comes from one rule, a row's `Gate`, and `_report` derives
each summary value from the rows whose gates name that key.
Each row derives its streams from the path (seed, TAG_EXPERIMENT, row path),
so a report is a pure function of (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closedform, hgroup, operators
from .funcs import (
    Bump,
    BumpMixture,
    PowerInside,
    PowerOutside,
    random_bump_mixture,
    spherical_values,
)
from .hgroup import GroupDims, ProductSpec, ball_volume, dilate_arrays, koranyi_norm, polyball_volume
from .measure import (
    Estimate,
    TAG_EXPERIMENT,
    TAG_MC,
    chunked_mean,
    integrate_1d,
    mc_integrate,
    radial_integral,
    subseed,
    substream,
)
from .operators import MonomialWeight, Weight

__all__ = [
    "ReportRow",
    "ExperimentReport",
    "DEFAULT_EPS_GRID",
    "WEIGHTED_EPS_GRID",
    "sharpness_sweep",
    "bound_fuzz",
    "radialization_check",
    "duality_check",
    "weighted_sharpness",
    "geometry_selftest",
    "volume_check",
]

DEFAULT_EPS_GRID = (0.2, 0.1, 0.05, 0.025, 0.0125)
WEIGHTED_EPS_GRID = (0.1, 0.05, 0.01, 1e-3)
"""The eps grid of the weighted sweep, decreasing."""

SIGMAS = 3.0
"""Standard errors a Monte Carlo row may deviate by and still PASS."""
HARD_SIGMAS = 4.5
"""Deviation past which a row of a gated batch FAILs outright; rows between
SIGMAS and HARD_SIGMAS read INFO and count against the batch's budget."""
EXCEEDANCE_BUDGET = 0.02
"""Share of a gated batch (at least one row) allowed past SIGMAS: a correct
implementation still throws occasional excursions across many rows."""
MIN_BOX_HITS = 25
"""Fewest expected hits, samples * V_n / 2^(2n+1), for which box rejection
runs; below it the count cannot test a volume.  The box fills ever less of
the ball as n grows: at n = 30 a million samples expect 6e-31 hits."""

# Roles in the row paths under (seed, TAG_EXPERIMENT), README "Numerical notes".
# None is 0: a SeedSequence pads entropy shorter than its pool with zeros, so a
# path ending in 0 would key the same stream as the path without it.
_FUNCTION, _POINT, _NORM, _QUOTIENT, _CONTROL, _GIVEN = 1, 2, 3, 4, 5, 6  # C5, C6
_AXIOMS, _VOLUME, _SCALING, _POLAR = 1, 2, 3, 4  # C9


@dataclass(frozen=True)
class Gate:
    """The one verdict rule.  A row's estimate must lie in [lo, hi], each
    finite end widened by `Estimate.tolerance`: k standard errors plus atol
    plus the rounding term.  lo = hi is a two-sided target, an infinite end
    a one-sided bound.  The row counts toward summary `key`.
    A `budget` gate is two-sided; its row reads INFO rather than FAIL up to
    HARD_SIGMAS, and its key FAILs when more than max(1, round(
    EXCEEDANCE_BUDGET * n)) of its n budget rows miss.  An `info` gate
    demonstrates rather than certifies: it reads INFO when it holds."""

    key: str
    lo: float = -math.inf
    hi: float = math.inf
    k: float = SIGMAS
    atol: float = 0.0
    budget: bool = False
    info: bool = False

    def holds(self, est: Estimate) -> bool:
        v = est.value
        return ((self.lo == -math.inf or self.lo - v <= est.tolerance(self.lo, self.k, self.atol))
                and (self.hi == math.inf or v - self.hi <= est.tolerance(self.hi, self.k, self.atol)))

    def verdict(self, est: Estimate) -> str:
        if self.holds(est):
            return "INFO" if self.info else "PASS"
        near = self.budget and _sigma(est, self.hi, self.atol) <= HARD_SIGMAS
        return "INFO" if near else "FAIL"


def _sigma(est: Estimate, oracle: float, atol: float) -> float:
    """|value - oracle| / max(std_error, fixed / SIGMAS), where `fixed` is the
    part of a gate's allowance that does not scale with sigmas: atol plus the
    rounding term.  It is the plain sigma count while the statistical error
    dominates; when the error is at rounding scale (a constant integrand) it
    measures the deviation against the fixed allowance, and exceeds SIGMAS
    exactly when the deviation exceeds that allowance."""
    err = max(est.std_error, est.tolerance(oracle, 0.0, atol) / SIGMAS)
    return abs(est.value - oracle) / err if err > 0 else math.inf  # 0 only for non-finite values


@dataclass
class ReportRow:
    input: str
    estimate: float
    std_error: float = 0.0
    oracle: float | None = None
    deviation: float | None = None
    sigma_multiple: float | None = None
    verdict: str = "INFO"
    gate: Gate | None = None

    @classmethod
    def of(cls, label: str, est, oracle: float | None = None, gate: Gate | None = None) -> "ReportRow":
        """The row of an estimate (or exact float), its displayed oracle and
        the gate that decides its verdict; a row without a gate reads INFO.
        The deviation is from the oracle, which need not be the gate's target.
        The sigma multiple is `_sigma` for a gated Monte Carlo estimate and 0
        for exact values and rows that gate nothing."""
        if not isinstance(est, Estimate):
            est = Estimate.exact(est)
        dev = sig = None
        if oracle is not None:
            dev = est.value - oracle
            sig = 0.0 if gate is None or est.is_exact else _sigma(est, oracle, gate.atol)
        verdict = "INFO" if gate is None else gate.verdict(est)
        return cls(label, est.value, est.std_error, oracle, dev, sig, verdict, gate)


@dataclass
class ExperimentReport:
    experiment: str
    params: dict
    rows: list[ReportRow]
    summary: dict[str, str]
    seed: int

    @property
    def passed(self) -> bool:
        return "FAIL" not in self.summary.values()


def _report(name: str, params: dict, rows, seed: int, keys=()) -> ExperimentReport:
    """The report, its summary read from the rows' gates: the given keys
    first, in order, then any other key in row order.  A key FAILs when a
    member row FAILs or its budget rows overrun the budget; it reads INFO
    when every member gate is `info` (or it has none), else PASS."""
    batches: dict[str, list[ReportRow]] = {key: [] for key in keys}
    for r in rows:
        if r.gate is not None:
            batches.setdefault(r.gate.key, []).append(r)
    summary = {}
    for key, batch in batches.items():
        budget = [r for r in batch if r.gate.budget]
        over = sum(r.verdict != "PASS" for r in budget)
        if any(r.verdict == "FAIL" for r in batch) or over > max(1, round(EXCEEDANCE_BUDGET * len(budget))):
            summary[key] = "FAIL"
        else:
            summary[key] = "INFO" if all(r.gate.info for r in batch) else "PASS"
    return ExperimentReport(name, params, list(rows), summary, seed)


# ---------------------------------------------------------------------------
# Sharpness of the unweighted operator
# ---------------------------------------------------------------------------


def sharpness_sweep(
    p: float,
    spec: ProductSpec,
    eps_grid=DEFAULT_EPS_GRID,
    method: str = "closed",
    samples: int = 100_000,
    inner_samples: int = 768,
    seed: int = 0,
    workers: int = 1,
) -> ExperimentReport:
    """Quotients of the near-extremal family along an eps grid, the certified
    lower bounds, and a linear eps -> 0 extrapolation against the sharp
    constant (p/(p-1))^m."""
    sharp = closedform.sharp_constant(p, spec.m)
    eps_grid = tuple(sorted(eps_grid, reverse=True))
    rows: list[ReportRow] = []
    tag = {1: "C1", 2: "C2"}.get(spec.m, f"m={spec.m}")

    closed_q = [closedform.power_family_quotient(e, p, spec) for e in eps_grid]
    lower = [closedform.extremal_lower_bound(e, p, spec) for e in eps_grid]

    estimates: list[Estimate] = []
    for i, eps in enumerate(eps_grid):
        f = PowerInside.extremal(spec, p, eps)
        q = closed_q[i]
        if method == "closed":
            est, gate = Estimate.exact(q), None
        elif method == "radial":
            est = operators.norm_quotient(f, p, spec, method="radial")
            gate = Gate(f"{tag}:radial-agrees", q, q, atol=1e-6)
        elif method == "mc":
            est = operators.norm_quotient(
                f, p, spec, method="mc", samples=samples,
                seed=(seed, TAG_EXPERIMENT, i), inner_samples=inner_samples, workers=workers,
            )
            gate = Gate(f"{tag}:mc-agrees-3sigma", q, q)
        else:
            raise ValueError(f"unknown method {method!r}")
        estimates.append(est)
        rows.append(ReportRow.of(f"quotient eps={eps:g}", est, None if gate is None else q, gate))
        rows.append(ReportRow.of(f"lower-bound eps={eps:g}", lower[i]))

    # C4 chain: lower bound <= quotient < sharp constant, on the exact values
    chain = all(
        lo <= q < sharp for lo, q in zip(lower, closed_q)
    ) and all(q1 < q2 for q1, q2 in zip(closed_q, closed_q[1:]))
    rows.append(ReportRow.of("bound-chain (lower <= quotient < sharp, monotone)", float(chain),
                             gate=Gate("C4:bound-chain", lo=1.0)))

    # linear extrapolation to eps = 0 with a residual guard
    values = np.asarray([e.value for e in estimates])
    coeffs = np.polyfit(np.asarray(eps_grid), values, 1)
    intercept = float(coeffs[1])
    residual = float(np.max(np.abs(np.polyval(coeffs, eps_grid) - values)))
    fit_tol = 0.01 * sharp + 4.0 * max((r.std_error for r in rows), default=0.0)
    # The intercept is c . values, with c the intercept row of the fit's
    # pseudo-inverse; the per-eps estimates are independent.
    c = np.linalg.pinv(np.column_stack([eps_grid, np.ones(len(eps_grid))]))[1]
    fit = Estimate(intercept, math.sqrt(sum((ci * e.std_error) ** 2 for ci, e in zip(c, estimates))),
                   max(e.samples for e in estimates))
    extrapolation = f"{tag}:extrapolation-2pct"
    rows.append(ReportRow.of("extrapolated quotient eps->0", fit, sharp,
                             Gate(extrapolation, sharp, sharp, k=0.0, atol=0.02 * sharp)))
    rows.append(ReportRow.of("extrapolation fit residual", residual,
                             gate=Gate("fit-residual-guard", hi=fit_tol)))

    params = {
        "p": p, "factors": [d.n for d in spec.factors], "eps_grid": list(eps_grid),
        "method": method, "samples": samples, "inner_samples": inner_samples,
        "sharp_constant": sharp,
        "plot_series": "quotient", "plot_rule": sharp,
    }
    return _report("sharpness", params, rows, seed,
                   keys=("C4:bound-chain", extrapolation, "fit-residual-guard"))


# ---------------------------------------------------------------------------
# Upper-bound fuzzing with bump mixtures
# ---------------------------------------------------------------------------


def bound_fuzz(
    trials: int,
    p: float,
    spec: ProductSpec,
    samples: int = 60_000,
    seed: int = 0,
    extra_function=None,
) -> ExperimentReport:
    """Random bump mixtures must never beat the sharp constant: records the
    quotient of each mixture and PASSes when max <= sharp * (1 + 3 sigma_rel).
    Includes a centered radial control bump and a zero-mixture error row;
    `extra_function` (e.g. a CLI-supplied family) gets its own scored row."""
    sharp = closedform.sharp_constant(p, spec.m)
    rows: list[ReportRow] = []
    worst = -math.inf  # reported only when trials ran
    key = "C5:no-quotient-exceeds-bound"

    def bound(q: Estimate) -> Gate:
        # sharp * (1 + SIGMAS se / value): the quotient's relative error,
        # scaled by the bound; a quotient of 0 or below gets no allowance
        return Gate(key, hi=sharp, k=SIGMAS * sharp / q.value if q.value > 0 else 0.0)

    if extra_function is not None:
        method = "closed" if extra_function.family == "power-inside" else "mc"
        q = operators.norm_quotient(
            extra_function, p, spec, method=method, samples=samples,
            seed=(seed, TAG_EXPERIMENT, _GIVEN),
        )
        rows.append(ReportRow.of(f"given function ({extra_function.family})", q, sharp, bound(q)))
    for k in range(trials):
        f = random_bump_mixture(spec, substream(seed, TAG_EXPERIMENT, k, _FUNCTION))
        q = operators.norm_quotient(f, p, spec, method="mc", samples=samples,
                                    seed=(seed, TAG_EXPERIMENT, k, _QUOTIENT))
        worst = max(worst, q.value)
        rows.append(ReportRow.of(f"trial={k} bumps={len(f.bumps)}", q, sharp, bound(q)))

    # control: one centered radial bump behaves like a mollified indicator
    centers = tuple(np.zeros(d.dim) for d in spec.factors)
    control = BumpMixture(spec, (Bump(centers, (1.0,) * spec.m, 1.0),))
    qc = operators.norm_quotient(control, p, spec, method="mc", samples=samples,
                                 seed=(seed, TAG_EXPERIMENT, _CONTROL))
    below = Gate(key, hi=sharp, k=0.0)
    rows.append(ReportRow.of("control: centered radial bump", qc,
                             closedform.indicator_quotient(p, spec.m), below))

    # control: a zero mixture must be rejected, not scored
    zero = BumpMixture(spec, ())
    try:
        operators.norm_quotient(zero, p, spec, method="mc", samples=2048, seed=seed)
        rows.append(ReportRow.of("control: zero mixture", math.nan, gate=below))
    except ValueError as err:
        rows.append(ReportRow.of(f"control: zero mixture rejected ({err})", 0.0))

    if trials:
        rows.append(ReportRow.of("max quotient", worst, sharp))
    params = {
        "trials": trials, "p": p, "factors": [d.n for d in spec.factors],
        "samples": samples, "sharp_constant": sharp,
    }
    return _report("bound-fuzz", params, rows, seed)


# ---------------------------------------------------------------------------
# Radialization
# ---------------------------------------------------------------------------


def _sphere_profile_norms(f: BumpMixture, p: float, spec: ProductSpec,
                          rng: np.random.Generator) -> tuple[Estimate, float]:
    """(||g_f||_p, ||f||_p) from 384 common sphere samples per node of the
    24-node tensor rule `operators._dilation_rule` over f's support, blocks
    of at most 24^2 nodes drawn from rng in node order; the first carries
    the error ||f||_p / sqrt(384).  Jensen's inequality holds per node for
    the *samples*, so the contraction ||g_f||_p <= ||f||_p is exact."""
    nodes, sphere_samples = 24, 384
    t, tw = operators._dilation_rule(spec.m, nodes)
    radii = t * np.asarray(f.support_radii())
    w = tw * math.prod(s * dims.omega * r ** (dims.Q - 1)
                       for dims, s, r in zip(spec.factors, f.support_radii(), radii.T))
    acc_g = acc_f = 0.0
    for b in range(0, len(w), nodes**2):
        vals = spherical_values(f, list(radii[b:b + nodes**2].T), rng, sphere_samples)
        acc_g += float((w[b:b + nodes**2] * np.abs(vals.mean(axis=1)) ** p).sum())
        acc_f += float((w[b:b + nodes**2] * np.mean(np.abs(vals) ** p, axis=1)).sum())
    if not (0.0 < acc_g < math.inf and 0.0 < acc_f < math.inf):  # C6's f > 0: 0 is an underflow
        raise ValueError(f"p={p:g} is too large: the p-th power sums of the norms leave the float range")
    nf = acc_f ** (1.0 / p)
    return Estimate(acc_g ** (1.0 / p), nf * (1.0 / math.sqrt(sphere_samples)), len(w) * sphere_samples), nf


def _ball_diff_average(
    f: BumpMixture, gf, spec: ProductSpec, radii, samples: int, seed: int | tuple
) -> Estimate:
    """Ball average of (g_f - f) over the polyball of the given radii, by a
    defensive mixture (Hesterberg, Technometrics 1995): each point is, with
    probability 1/2, uniform on the ball, else drawn with density the bump
    envelope over its mass (`operators._support_sampler`).  A chunk of k
    takes Binomial(k, 1/2) uniform points, so its points are i.i.d. with
    density q and `chunked_mean`'s error is their own.  `gf(pts, rng)` gives
    g_f at the points in the ball, from the chunk's generator after its own
    draws.  The expectation is exactly zero and every weight is bounded."""
    draw_b = operators._support_sampler(f, spec)
    mass = float(f.bump_masses().sum())
    vol = polyball_volume(spec, radii)

    def draw(rng: np.random.Generator, k: int) -> np.ndarray:
        k_u = int(rng.binomial(k, 0.5))
        pts_u = [hgroup.sample_ball(dims, rng, float(r), k_u) for dims, r in zip(spec.factors, radii)]
        pts_b, dens_b, fv_b = draw_b(rng, k - k_u)
        fv_u, env_u = f.values_and_envelope(pts_u)
        pts = [np.concatenate([a, b], axis=0) for a, b in zip(pts_u, pts_b)]
        mask = operators._in_polyball(pts, radii)
        q = 0.5 * mask / vol + 0.5 * np.concatenate([env_u / mass, dens_b])
        vals = np.zeros(k)
        if mask.any():
            sub = [a[mask] for a in pts]
            h = np.asarray(gf(sub, rng), dtype=float) - np.concatenate([fv_u, fv_b])[mask]
            vals[mask] = h / q[mask]
        return vals / vol

    return chunked_mean(draw, samples, seed, TAG_EXPERIMENT, chunk_size=8192)


def radialization_check(
    trials: int = 50,
    p: float = 2.0,
    spec: ProductSpec | None = None,
    samples: int = 6000,
    inner_samples: int = 48,
    seed: int = 0,
) -> ExperimentReport:
    """For random bump mixtures f: the ball average of the spherical
    average g_f equals that of f pointwise (within Monte Carlo error) at two
    points per trial, and ||g_f||_p <= ||f||_p.  g_f at a point is the mean
    of f at `inner_samples` points on its spheres (`spherical_values`), drawn
    from the generator of the chunk that drew the point.  Trial k draws f
    and both points' radii from the path (k, _FUNCTION) under
    (seed, TAG_EXPERIMENT), point j's ball average from the key
    (k, _POINT, j) and the norms' sphere samples from (k, _NORM)."""
    if spec is None:
        spec = ProductSpec.of_orders(1)
    rows: list[ReportRow] = []
    key = "C6:radialization"
    for k in range(trials):
        rng = substream(seed, TAG_EXPERIMENT, k, _FUNCTION)
        # centers near the origin so the spherical averages and ball averages
        # exchange non-negligible mass; far-flung bumps only compare 0 with 0
        f = random_bump_mixture(spec, rng, max_bumps=3, radius_range=(0.4, 1.0), center_radius=0.5)

        def gf(pts, chunk_rng):
            radii = [koranyi_norm(a) for a in pts]
            return spherical_values(f, radii, chunk_rng, inner_samples).mean(axis=1)

        sup = f.support_radii()
        for j in range(2):
            radii = [rng.uniform(0.6, 1.1) * s for s in sup]
            diff = _ball_diff_average(f, gf, spec, radii, samples, (seed, TAG_EXPERIMENT, k, _POINT, j))
            rows.append(ReportRow.of(f"trial={k} point={j} ball-avg(g_f - f)", diff, 0.0,
                                     Gate(key, 0.0, 0.0, budget=True)))
        ng, nf = _sphere_profile_norms(f, p, spec, substream(seed, TAG_EXPERIMENT, k, _NORM))
        rows.append(ReportRow.of(f"trial={k} norm contraction ||g_f|| <= ||f||", ng, nf, Gate(key, hi=nf)))
    params = {
        "trials": trials, "p": p, "factors": [d.n for d in spec.factors],
        "samples": samples, "inner_samples": inner_samples,
    }
    return _report("radialize-check", params, rows, seed)


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


def duality_check(
    phi: Weight,
    p: float,
    spec: ProductSpec,
    pairs: int = 20,
    samples: int = 20_000,
    seed: int = 0,
) -> ExperimentReport:
    """Both pairings <f, P_phi g> and <g, P*_phi f> must agree: exactly (by
    quadrature) for the polyball indicator under a monomial weight, and
    within Monte Carlo error for random bump pairs.  Also reports, as INFO,
    how the adjoint family quotients approach the adjoint characteristic."""
    # P*_phi is bounded on L^q, q = p/(p-1), exactly when P_phi is on L^p: the
    # cesaro integral at q is the hardy one at p, which the refusal names
    operators._require_bounded(phi, p, spec, "hardy")
    q_exp = p / (p - 1.0)
    rows: list[ReportRow] = []
    key = "C8:duality"
    ind = PowerInside(spec, (0.0,) * spec.m)

    if isinstance(phi, MonomialWeight):
        oracle = polyball_volume(spec, (1.0,) * spec.m) / math.prod(a + 1.0 for a in phi.exponents)
        quad = Gate(key, oracle, oracle, atol=1e-8)
        rows.append(ReportRow.of("indicator pairing <f,Pg> (quadrature)",
                                 _indicator_pairing_quad(phi, spec, adjoint=False), oracle, quad))
        rows.append(ReportRow.of("indicator pairing <g,P*f> (quadrature)",
                                 _indicator_pairing_quad(phi, spec, adjoint=True), oracle, quad))
        lhs_mc = operators.pairing_weighted_hardy(ind, ind, phi, spec, samples,
                                                  subseed(seed, TAG_EXPERIMENT, 1))
        rhs_mc = operators.pairing_weighted_cesaro(ind, ind, phi, spec, q_exp, samples,
                                                   subseed(seed, TAG_EXPERIMENT, 2))
        mc = Gate(key, oracle, oracle, atol=1e-9)
        rows.append(ReportRow.of("indicator pairing <f,Pg> (mc)", lhs_mc, oracle, mc))
        rows.append(ReportRow.of("indicator pairing <g,P*f> (mc)", rhs_mc, oracle, mc))

    for k in range(pairs):
        rng = substream(seed, TAG_EXPERIMENT, 9000 + k)
        f = random_bump_mixture(spec, rng, max_bumps=3, radius_range=(0.5, 1.0), center_radius=0.3)
        g = random_bump_mixture(spec, rng, max_bumps=3, radius_range=(0.5, 1.0), center_radius=0.3)
        lhs = operators.pairing_weighted_hardy(f, g, phi, spec, samples,
                                               subseed(seed, TAG_EXPERIMENT, 10 + 2 * k))
        rhs = operators.pairing_weighted_cesaro(g, f, phi, spec, q_exp, samples,
                                                subseed(seed, TAG_EXPERIMENT, 11 + 2 * k))
        match = Estimate(lhs.value, math.hypot(lhs.std_error, rhs.std_error), lhs.samples)
        rows.append(ReportRow.of(f"bump pair={k} pairing match", match, rhs.value,
                                 Gate(key, rhs.value, rhs.value, budget=True)))

    # adjoint norm conjecture, reported as INFO only
    if isinstance(phi, MonomialWeight):
        cstar = operators.weight_bound_integral(phi, p, spec, "cesaro")
        if math.isfinite(cstar):
            approach = []
            for eps in (0.2, 0.1, 0.05, 0.025):
                try:
                    q = closedform.cesaro_family_quotient(phi.exponents, eps, p, spec)
                except ValueError:
                    continue
                approach.append(q)
                rows.append(ReportRow.of(f"adjoint family quotient eps={eps:g}", q, cstar))
            mono = all(a < b for a, b in zip(approach, approach[1:])) and all(
                q <= cstar for q in approach
            )
            rows.append(ReportRow.of("adjoint quotients increase toward the adjoint characteristic",
                                     float(mono)))
    params = {"phi": phi.label, "p": p, "factors": [d.n for d in spec.factors],
              "samples": samples, "pairs": pairs}
    return _report("cesaro-duality", params, rows, seed, keys=(key, "cesaro-norm-conjecture"))


def _indicator_pairing_quad(phi: MonomialWeight, spec: ProductSpec, adjoint: bool) -> float:
    """Pairing of the polyball indicator with itself, factor by factor:
    <f, P g>  = prod_i omega_i int_0^1 (int_0^1 t^a dt) R^(Q-1) dR,
    <g, P* f> = prod_i omega_i int_0^1 (int_R^1 t^(a-Q) dt) R^(Q-1) dR,
    each inner integral the indicator's image R^e G(R), with R^e folded into
    R^(Q-1) so that nothing overflows at large Q (both sides equal V/(a+1))."""
    out = 1.0
    ind = PowerInside(spec, (0.0,) * spec.m)
    for dims, a, (F, lo, hi) in zip(spec.factors, phi.exponents, ind.radial_profiles()):
        e, G = operators._image_profile(F, lo, hi, a - dims.Q if adjoint else a, adjoint, 1e-12)
        out *= dims.omega * integrate_1d(lambda R: G(R) * R ** (e + dims.Q - 1), 0.0, 1.0, tol=1e-11)
    return out


# ---------------------------------------------------------------------------
# Weighted sharpness (characteristic integral as the exact bound)
# ---------------------------------------------------------------------------


def weighted_sharpness(
    phi: MonomialWeight,
    p: float,
    spec: ProductSpec,
    seed: int = 0,
) -> ExperimentReport:
    """Along WEIGHTED_EPS_GRID, the characteristic integral C_phi bounds every
    quotient from above and the certified extremal bounds converge to it from
    below; an infinite C_phi is demonstrated by bounds growing without limit
    (INFO)."""
    if not isinstance(phi, MonomialWeight):
        raise ValueError("weighted sharpness sweeps use monomial weights")
    c_phi = closedform.monomial_weight_characteristic(phi.exponents, p, spec, "hardy")
    rows: list[ReportRow] = []
    eps_grid = WEIGHTED_EPS_GRID

    if math.isinf(c_phi):
        grid = eps_grid + (1e-4,)
        bounds = [closedform.weighted_extremal_bound(phi.exponents, e, p, spec) for e in grid]
        for e, b in zip(grid, bounds):
            rows.append(ReportRow.of(f"rigorous-bound eps={e:g}", b))
        growing = all(a < b for a, b in zip(bounds, bounds[1:])) and bounds[-1] > 10.0 * max(bounds[0], 1.0)
        rows.append(ReportRow.of("bounds grow without limit (operator unbounded)", float(growing),
                                 gate=Gate("C7:unbounded-demonstrated", lo=1.0, info=True)))
        params = {"phi": phi.label, "p": p, "factors": [d.n for d in spec.factors],
                  "eps_grid": list(grid), "characteristic": "inf",
                  "plot_series": "rigorous-bound", "plot_rule": None}
        return _report("weighted", params, rows, seed)

    key = "C7:weighted-bounds"
    for e in eps_grid:
        bound = closedform.weighted_extremal_bound(phi.exponents, e, p, spec)
        uncorrected = closedform.truncated_weight_integral(phi.exponents, e, p, spec)
        quot = closedform.weighted_family_quotient(phi.exponents, e, p, spec)
        rows.append(ReportRow.of(f"quotient eps={e:g}", quot, c_phi, Gate(key, bound, c_phi)))
        rows.append(ReportRow.of(f"rigorous-bound eps={e:g}", bound, c_phi))
        rows.append(ReportRow.of(f"uncorrected-bound eps={e:g}", uncorrected, c_phi))

    e_min = eps_grid[-1]
    b_min = closedform.weighted_extremal_bound(phi.exponents, e_min, p, spec)
    rows.append(ReportRow.of(f"bound at eps={e_min:g} within 5% of characteristic", b_min, c_phi,
                             Gate(key, c_phi, c_phi, atol=0.05 * c_phi)))

    # dual route: the closed quotient against profile quadrature at one eps
    f = PowerOutside.extremal(spec, p, eps_grid[0])
    q_rad = operators.norm_quotient(
        f, p, spec, operator="weighted-hardy", phi=phi, method="radial", tol=1e-9
    )
    q_closed = closedform.weighted_family_quotient(phi.exponents, eps_grid[0], p, spec)
    rows.append(ReportRow.of(f"quotient eps={eps_grid[0]:g} (quadrature route)", q_rad, q_closed,
                             Gate(key, q_closed, q_closed, atol=1e-7)))

    params = {"phi": phi.label, "p": p, "factors": [d.n for d in spec.factors],
              "eps_grid": list(eps_grid), "characteristic": c_phi,
              "plot_series": "quotient", "plot_rule": c_phi}
    return _report("weighted", params, rows, seed)


# ---------------------------------------------------------------------------
# Geometry self-test
# ---------------------------------------------------------------------------


def _box_volume_mc(n: int, samples: int, key: int | tuple, radius: float = 1.0) -> Estimate:
    """Volume of the Koranyi ball of the given radius by plain box rejection:
    `chunked_mean` of the hit indicator |x|_h < radius over uniform points
    in delta_radius([-1,1]^{2n} x [-1,1]), chunk k drawn from (key, TAG_MC,
    k), times the box volume.  Independent of the samplers."""
    dim = 2 * n + 1
    expected = samples * hgroup.unit_ball_volume(n) / 2.0**dim
    if expected < MIN_BOX_HITS:
        raise ValueError(f"box rejection at n={n} expects {expected:.3g} hits from {samples} "
                         f"samples; it needs at least {MIN_BOX_HITS}")

    def draw(rng: np.random.Generator, k: int) -> np.ndarray:
        pts = rng.uniform(-1.0, 1.0, size=(k, dim))
        return koranyi_norm(dilate_arrays(radius, pts, n, out=pts)) < radius

    return chunked_mean(draw, samples, key, TAG_MC).scaled(2.0**dim * radius ** (2 * n) * radius**2)


def _volume_rows(
    n: int, samples: int, seed: tuple, key: str, method: str = "", of_n: str = ""
) -> list[ReportRow]:
    """The box-rejection unit-ball volume against the closed form, and its
    ratio to the alternative normalization (INFO)."""
    vol = _box_volume_mc(n, samples, seed)
    exact = hgroup.unit_ball_volume(n)
    alt = hgroup.alt_unit_ball_volume(n)
    return [
        ReportRow.of(f"unit ball volume n={n}{method}", vol, exact, Gate(key, exact, exact)),
        ReportRow.of(f"volume ratio to alternative normalization{of_n}",
                     Estimate(vol.value / alt, vol.std_error / alt, samples), 0.5),
    ]


def geometry_selftest(
    seed: int = 0,
    samples: int = 1_000_000,
    ns: tuple[int, ...] = (1, 2, 3),
    triples: int = 100_000,
) -> ExperimentReport:
    """Group axioms, gauge homogeneity, triangle inequality, measure scaling,
    Monte Carlo ball volumes against the derived constants, and the polar
    identity; also flags the factor-two alternative volume normalization."""
    rng = substream(seed, TAG_EXPERIMENT, _AXIOMS)
    n = 1
    dims = GroupDims(n)
    dim = dims.dim

    # group axioms on random triples
    X = rng.normal(0.0, 1.0, (10_000, dim)) * 3.0
    Y = rng.normal(0.0, 1.0, (10_000, dim)) * 3.0
    Z = rng.normal(0.0, 1.0, (10_000, dim)) * 3.0
    lhs = hgroup.group_law(hgroup.group_law(X, Y), Z)
    rhs = hgroup.group_law(X, hgroup.group_law(Y, Z))
    scale = np.maximum(np.abs(lhs), 1.0)
    assoc = float(np.max(np.abs(lhs - rhs) / scale))
    inv = float(np.max(np.abs(hgroup.group_law(X, hgroup.inverse(X)))))
    lam = 10.0 ** rng.uniform(-3, 3, 10_000)
    hom = float(np.max(np.abs(
        koranyi_norm(hgroup.dilate(lam, X)) - lam * koranyi_norm(X)
    ) / np.maximum(lam * koranyi_norm(X), 1e-30)))
    dleft = np.abs(
        hgroup.distance(hgroup.group_law(Z, X), hgroup.group_law(Z, Y)) - hgroup.distance(X, Y)
    ) / np.maximum(hgroup.distance(X, Y), 1e-30)

    # triangle inequality fuzz
    P = rng.normal(0.0, 1.5, (triples, dim))
    W = rng.normal(0.0, 1.5, (triples, dim))
    Qp = rng.normal(0.0, 1.5, (triples, dim))
    viol = int(np.count_nonzero(
        hgroup.distance(P, Qp) > hgroup.distance(P, W) + hgroup.distance(W, Qp) + 1e-12
    ))
    key = "C9:geometry"
    rows = [
        ReportRow.of(label, value, gate=Gate(key, hi=limit)) for label, value, limit in (
            ("associativity max relative deviation (1e4 triples)", assoc, 1e-12),
            ("x o (-x) = 0 max deviation", inv, 1e-12),
            ("norm homogeneity |delta_r x| = r |x| max rel dev", hom, 1e-12),
            ("left invariance of distance max rel dev", float(np.max(dleft)), 1e-12),
            (f"triangle inequality violations ({triples} triples)", float(viol), 0.0),
        )
    ]

    # Monte Carlo volumes vs the derived constants; alt-normalization ratio
    for nn in ns:
        rows += _volume_rows(nn, samples, (seed, TAG_EXPERIMENT, _VOLUME, nn), key,
                             f" (box rejection, {samples} samples)", f" n={nn}")

    # measure scaling |delta_r E| = r^Q |E| via box rejection at radius r
    r_dil = 1.7
    scaled = ball_volume(dims, r_dil)
    rows.append(ReportRow.of(f"measure scaling |B(0,{r_dil})| = r^Q V_Q",
                             _box_volume_mc(n, samples, (seed, TAG_EXPERIMENT, _SCALING), r_dil),
                             scaled, Gate(key, scaled, scaled)))

    # polar identity: 1D radial quadrature vs Monte Carlo for exp(-r^4)
    spec1 = ProductSpec.of_orders(1)
    quad = radial_integral(lambda rr: np.exp(-np.minimum(rr, 60.0) ** 4), dims, math.inf)
    trunc = 2.7  # exp(-2.7^4) ~ 1e-24: truncation far below Monte Carlo noise
    est = mc_integrate(
        lambda pts: np.exp(-koranyi_norm(pts[0]) ** 4), spec1, [trunc],
        min(samples, 400_000), (seed, TAG_EXPERIMENT, _POLAR),
    )
    rows.append(ReportRow.of("polar identity: quadrature vs mc for exp(-r^4)", est, quad,
                             Gate(key, quad, quad)))

    params = {"samples": samples, "ns": list(ns), "triples": triples}
    return _report("geometry-check", params, rows, seed)


def volume_check(n: int, samples: int = 1_000_000, seed: int = 0) -> ExperimentReport:
    """Box-rejection volume of the unit Koranyi ball against the closed form,
    with the alternative-normalization ratio flagged."""
    rows = _volume_rows(n, samples, (seed, TAG_EXPERIMENT, _VOLUME, n), "C9:volume")
    params = {"n": n, "samples": samples,
              "derived_volume": hgroup.unit_ball_volume(n),
              "alt_volume_constant": hgroup.alt_unit_ball_volume(n)}
    return _report("volume", params, rows, seed)
