"""Analytic oracle: exact values for every integral the experiments verify.

All formulas here are elementary radial calculus on the polar identity
integral f dx = omega_Q * integral_0^inf (sphere avg) r^(Q-1) dr, so each one
can be (and is, in the tests) cross-checked against quadrature and Monte
Carlo.  Everything is pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hgroup import GroupDims, ProductSpec

__all__ = [
    "SharpConstant",
    "sharp_constant",
    "ball_average_power",
    "outside_ball_average_power",
    "general_power_quotient",
    "power_family_quotient",
    "extremal_lower_bound",
    "indicator_quotient",
    "monomial_weight_characteristic",
    "truncated_weight_integral",
    "weighted_extremal_bound",
    "weighted_power_quotient",
    "weighted_family_quotient",
    "cesaro_power_quotient",
    "cesaro_family_quotient",
]


@dataclass(frozen=True)
class SharpConstant:
    """The exact operator norm (p/(p-1))^m of the m-fold ball-average operator."""

    p: float
    m: int
    value: float


def sharp_constant(p: float, m: int) -> SharpConstant:
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    if m < 1:
        raise ValueError("m must be a positive integer")
    if p / (p - 1.0) == 1.0:
        raise ValueError(f"p={p:g} is too large: p/(p-1) rounds to 1")
    return SharpConstant(p, m, (p / (p - 1.0)) ** m)


def ball_average_power(alpha: float, dims: GroupDims, R: float) -> float:
    """Average of |y|^alpha * 1{|y| < 1} over the ball B(0, R):
    (Q/(alpha+Q)) * R^alpha for R <= 1, and (Q/(alpha+Q)) * R^-Q once the
    inner integral saturates (R > 1).  Requires alpha + Q > 0."""
    Q = dims.Q
    if alpha + Q <= 0:
        raise ValueError("alpha + Q must be positive for an integrable power")
    if R <= 0:
        raise ValueError("R must be positive")
    lead = Q / (alpha + Q)
    if R <= 1.0:
        return lead * R**alpha
    return lead * R**-Q


def outside_ball_average_power(beta: float, dims: GroupDims, R: float) -> float:
    """Average of |y|^-beta * 1{|y| > 1} over B(0, R); zero until R > 1."""
    Q = dims.Q
    if R <= 0:
        raise ValueError("R must be positive")
    if R <= 1.0:
        return 0.0
    if beta == Q:
        return Q * math.log(R) / R**Q
    return (Q / (Q - beta)) * (R ** (Q - beta) - 1.0) / R**Q


def general_power_quotient(alphas, p: float, spec: ProductSpec) -> float:
    """Exact ||T f||_p / ||f||_p for f = prod |x_i|^(alpha_i) on the unit
    polyball under the m-fold ball-average operator:
    prod_i (Q_i/(alpha_i+Q_i)) * (1 + (alpha_i p + Q_i)/(Q_i (p-1)))^(1/p)."""
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    out = 1.0
    for dims, a in zip(spec.factors, alphas):
        e = a * p + dims.Q
        if e <= 0:
            raise ValueError("norm infinite: alpha*p + Q must be positive")
        if a + dims.Q <= 0:
            raise ValueError("ball average undefined: alpha + Q must be positive")
        out *= (dims.Q / (a + dims.Q)) * (1.0 + e / (dims.Q * (p - 1.0))) ** (1.0 / p)
    return out


def _check_eps(eps: float, p: float, spec: ProductSpec) -> None:
    limit = min([1.0] + [(p - 1.0) * d.Q / p for d in spec.factors])
    if not 0.0 < eps < limit:
        raise ValueError(f"eps must lie in (0, {limit}) for p={p}")


def power_family_quotient(eps: float, p: float, spec: ProductSpec) -> float:
    """Exact quotient of the near-extremal inside family alpha_i = -Q_i/p + eps.

    Per factor: (Q/(Q - Q/p + eps)) * (1 + eps*p/(Q (p-1)))^(1/p); increases
    monotonically to p/(p-1) as eps decreases to 0 and stays strictly below it.
    """
    _check_eps(eps, p, spec)
    return general_power_quotient([-d.Q / p + eps for d in spec.factors], p, spec)


def extremal_lower_bound(eps: float, p: float, spec: ProductSpec) -> float:
    """The lower bound prod_i p/(p - 1 + p*eps/Q_i) certified by the
    near-extremal family: per factor it equals the normalized integral
    (1/V_Q) * integral_{|z|<1} |z|^(-Q/p + eps) dz, which is exactly the
    first factor of the exact quotient, so bound <= quotient always."""
    _check_eps(eps, p, spec)
    out = 1.0
    for dims in spec.factors:
        out *= p / (p - 1.0 + p * eps / dims.Q)
    return out


def indicator_quotient(p: float, m: int) -> float:
    """Quotient of the unit-polyball indicator: (p/(p-1))^(m/p)."""
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    return (p / (p - 1.0)) ** (m / p)


def monomial_weight_characteristic(exponents, p: float, spec: ProductSpec, kind: str) -> float:
    """Characteristic integral of a monomial weight prod t_i^(a_i):
    prod_i 1/(a_i + 1 - Q_i/p) for the dilation-average operator, or
    prod_i 1/(a_i + 1 - Q_i (1-1/p)) for its adjoint; +inf when any factor's
    exponent condition fails."""
    if kind not in ("hardy", "cesaro"):
        raise ValueError("kind must be 'hardy' or 'cesaro'")
    out = 1.0
    for dims, a in zip(spec.factors, exponents):
        drop = dims.Q / p if kind == "hardy" else dims.Q * (1.0 - 1.0 / p)
        denom = a + 1.0 - drop
        if denom <= 0:
            return math.inf
        out *= 1.0 / denom
    return out


def truncated_weight_integral(exponents, eps: float, p: float, spec: ProductSpec) -> float:
    """prod_i integral_eps^1 t^(a_i - Q_i/p - eps) dt in closed form; finite
    for every eps > 0 because the truncation regularizes the endpoint."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    out = 1.0
    for dims, a in zip(spec.factors, exponents):
        g = a + 1.0 - dims.Q / p - eps
        if g == 0.0:
            out *= -math.log(eps)
        else:
            out *= (1.0 - eps**g) / g
    return out


def weighted_extremal_bound(exponents, eps: float, p: float, spec: ProductSpec) -> float:
    """Rigorous lower bound certified by the outside family under a monomial
    weight: eps^(eps*m) times the truncated characteristic integral.  The
    eps^eps factor per factor is the tail-mass ratio the shortcut derivation
    drops; it tends to 1 as eps -> 0, so both versions share the limit."""
    return eps ** (eps * spec.m) * truncated_weight_integral(exponents, eps, p, spec)


def _beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def weighted_power_quotient(betas, exponents, p: float, spec: ProductSpec) -> float:
    """Exact quotient of f = prod |x_i|^(-beta_i) outside the unit polyball
    under the monomial-weighted dilation average.

    Per factor, with e = beta*p - Q > 0 (f integrable) and g = a + 1 - beta > 0,
    the image profile integral reduces to a Beta function:
    quotient^p = e * B(e/g, p+1) / g^(p+1).
    """
    out_p = 1.0
    for dims, b, a in zip(spec.factors, betas, exponents):
        e = b * p - dims.Q
        g = a + 1.0 - b
        if e <= 0:
            raise ValueError("norm infinite: beta*p - Q must be positive")
        if g <= 0:
            raise ValueError("closed quotient needs a + 1 - beta > 0")
        out_p *= e * _beta(e / g, p + 1.0) / g ** (p + 1.0)
    return out_p ** (1.0 / p)


def weighted_family_quotient(exponents, eps: float, p: float, spec: ProductSpec) -> float:
    """Exact quotient of the near-extremal outside family beta_i = Q_i/p + eps
    under the monomial-weighted dilation average; increases to the
    characteristic integral as eps -> 0."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return weighted_power_quotient([d.Q / p + eps for d in spec.factors], exponents, p, spec)


def cesaro_power_quotient(betas, exponents, p: float, spec: ProductSpec) -> float:
    """Exact quotient of f = prod |x_i|^(-beta_i) outside the unit polyball
    under the monomial-weighted adjoint operator.

    Per factor, with e = beta*p - Q > 0, D = a + 1 + beta - Q > 0 (kernel
    integrable) and s = (a + 1 - Q)p + Q > 0 (image integrable near 0):
    quotient^p = (1/D^p) * (1 + e/s).
    """
    out_p = 1.0
    for dims, b, a in zip(spec.factors, betas, exponents):
        e = b * p - dims.Q
        D = a + 1.0 + b - dims.Q
        s = (a + 1.0 - dims.Q) * p + dims.Q
        if e <= 0:
            raise ValueError("norm infinite: beta*p - Q must be positive")
        if D <= 0 or s <= 0:
            raise ValueError("quotient undefined: adjoint characteristic diverges")
        out_p *= (1.0 + e / s) / D**p
    return out_p ** (1.0 / p)


def cesaro_family_quotient(exponents, eps: float, p: float, spec: ProductSpec) -> float:
    """Exact quotient of the outside family beta_i = Q_i/p + eps under the
    monomial-weighted adjoint operator.

    Per factor, with c = a + 1 - Q(1-1/p) > 0:
    quotient = (1/(c+eps)) * (1 + eps/c)^(1/p), increasing to 1/c as eps -> 0.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return cesaro_power_quotient([d.Q / p + eps for d in spec.factors], exponents, p, spec)
