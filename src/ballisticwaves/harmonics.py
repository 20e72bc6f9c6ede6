"""Solid harmonics K_lm = r^l Y_lm, their monomial expansions and translations.

The solid (harmonic) polynomials appear in three roles: as the angular factors
of multipole waves, as translation kernels when a source is displaced, and as
differential operators acting on Airy functions in far-field formulas.  All
three are served by a single cached monomial expansion of K_lm in x, y, z.

Phase convention is Condon-Shortley throughout (K_11 = -sqrt(3/8pi)(x+iy)),
so the closed-form translation coefficients hold sign-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnsupportedOrderError
from .specfun import airy_derivs_upto

#: Largest supported angular momentum for solid-harmonic expansions.
L_MAX = 20


@dataclass(frozen=True, order=True)
class MultipoleIndex:
    """Angular momentum pair (l, m) labelling sources, waves and currents."""

    l: int
    m: int

    def __post_init__(self) -> None:
        if self.l < 0 or abs(self.m) > self.l:
            raise DomainError(f"need 0 <= |m| <= l, got l={self.l}, m={self.m}")


@dataclass(frozen=True)
class MonomialExpansion:
    """K_lm as a sum of monomials coeff * x^p * y^q * z^s with p+q+s = l; a call
    leaves zero powers out (no float changes, and a constant stays one number)."""

    l: int
    m: int
    terms: tuple[tuple[int, int, int, complex], ...]

    def __call__(self, x: complex, y: complex, z: complex) -> complex:
        xyz = (x, y, z)
        total = 0
        for *e, c in self.terms:
            for v, n in zip(xyz, e):
                if n:
                    c = c * v**n
            total = total + c
        return total


def _check_index(idx: MultipoleIndex) -> MultipoleIndex:
    if idx.l > L_MAX:
        raise UnsupportedOrderError(f"l <= {L_MAX} required, got l={idx.l}")
    return idx


@lru_cache(maxsize=None)
def _klm_terms(l: int, m: int) -> tuple[tuple[int, int, int, complex], ...]:
    # Closed monomial expansion for m >= 0:
    #   K_lm = sqrt((2l+1)/(4pi) (l-m)! (l+m)!) *
    #          sum_k [(-(x+iy)/2)^(k+m) ((x-iy)/2)^k z^(l-2k-m)]
    #                / ((k+m)! k! (l-2k-m)!)
    # with the two binomial powers expanded into x^a y^b monomials.
    # Negative m follows from K_{l,-m} = (-1)^m K_lm^* (coefficient-wise).
    if m < 0:
        return tuple(
            (p, q, s, (-1) ** (-m) * c.conjugate())
            for p, q, s, c in _klm_terms(l, -m)
        )
    pref = math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - m) * math.factorial(l + m)
    )
    acc: dict[tuple[int, int, int], complex] = {}
    for k in range((l - m) // 2 + 1):
        s = l - 2 * k - m
        base = (
            (-1.0) ** (k + m)
            * 0.5 ** (2 * k + m)
            / (math.factorial(k + m) * math.factorial(k) * math.factorial(s))
        )
        for a in range(k + m + 1):
            for b in range(k + 1):
                coeff = (
                    base
                    * math.comb(k + m, a)
                    * math.comb(k, b)
                    * 1j ** (k + m - a)
                    * (-1j) ** (k - b)
                )
                key = (a + b, (k + m - a) + (k - b), s)
                acc[key] = acc.get(key, 0.0) + coeff
    terms = tuple(
        (p, q, s, pref * c)
        for (p, q, s), c in sorted(acc.items())
        if abs(c) > 0.0
    )
    return terms


@lru_cache(maxsize=None)
def klm_coeffs(idx: MultipoleIndex) -> MonomialExpansion:
    """Monomial expansion of the solid harmonic K_lm (cached per index)."""
    _check_index(idx)
    return MonomialExpansion(idx.l, idx.m, _klm_terms(idx.l, idx.m))


def klm_eval(idx: MultipoleIndex, r) -> complex:
    """Evaluate K_lm(r) = r^l Y_lm(r_hat); r may have complex components."""
    exp = klm_coeffs(idx)
    x, y, z = r
    return exp(x, y, z)


def translation_coeff_c(l: int, m: int, lam: int, mu: int) -> float:
    """Coefficient C^{lm}_{lam,mu} of the general translation theorem.

    Vanishes when |m - mu| > l - lam; symmetric under
    (lam, mu) -> (l - lam, m - mu).
    """
    if not (0 <= lam <= l):
        raise DomainError(f"need 0 <= lam <= l, got lam={lam}, l={l}")
    if abs(m) > l or abs(mu) > lam:
        raise DomainError(f"invalid orders m={m}, mu={mu} for l={l}, lam={lam}")
    if abs(m - mu) > l - lam:
        return 0.0
    return math.sqrt(
        4.0
        * math.pi
        * (2 * l + 1)
        / ((2 * lam + 1) * (2 * (l - lam) + 1))
        * math.comb(l + m, lam + mu)
        * math.comb(l - m, lam - mu)
    )


def translation_coeff_t(j: int, l: int, m: int) -> float:
    """Coefficient T_jlm of the z-axis translation theorem."""
    if not (abs(m) <= j <= l):
        raise DomainError(f"need |m| <= j <= l, got j={j}, l={l}, m={m}")
    return _translation_t(j, l, m)


def _translation_t(j: int, l: int, m: int) -> float:
    """T_jlm for |m| <= j <= l, unchecked (ballistic._plan's terms)."""
    return math.sqrt(
        (2 * l + 1)
        / (2 * j + 1)
        * math.comb(l + m, j + m)
        * math.comb(l - m, j - m)
    )


def klm_translate_z(idx: MultipoleIndex, a: float, r) -> complex:
    """K_lm(r + a z_hat) via the single-sum z-axis translation theorem."""
    _check_index(idx)
    l, m = idx.l, idx.m
    total = 0.0 + 0.0j
    for j in range(abs(m), l + 1):
        total += (
            translation_coeff_t(j, l, m)
            * a ** (l - j)
            * klm_eval(MultipoleIndex(j, m), r)
        )
    return total


def klm_general_translate(idx: MultipoleIndex, a, r) -> complex:
    """K_lm(r + a) via the double-sum translation theorem."""
    _check_index(idx)
    l, m = idx.l, idx.m
    total = 0.0 + 0.0j
    for lam in range(l + 1):
        for mu in range(-lam, lam + 1):
            if abs(m - mu) > l - lam:
                continue
            total += (
                translation_coeff_c(l, m, lam, mu)
                * klm_eval(MultipoleIndex(lam, mu), r)
                * klm_eval(MultipoleIndex(l - lam, m - mu), a)
            )
    return total


def klm_grad(idx: MultipoleIndex, r) -> tuple[complex, complex, complex]:
    """Cartesian gradient of K_lm, term-by-term from the monomial expansion."""
    exp = klm_coeffs(idx)
    x, y, z = r
    gx = gy = gz = 0.0 + 0.0j
    for p, q, s, c in exp.terms:
        if p:
            gx += c * p * x ** (p - 1) * y**q * z**s
        if q:
            gy += c * q * x**p * y ** (q - 1) * z**s
        if s:
            gz += c * s * x**p * y**q * z ** (s - 1)
    return gx, gy, gz


def klm_operator_on_airy(idx: MultipoleIndex, X: float, Y: float, alpha: float) -> complex:
    """Apply the solid-harmonic operator K_lm(X, Y, i d/d(alpha)) to Ai(alpha).

    Each monomial coeff x^p y^q z^s contributes
    coeff * X^p * Y^q * i^s * Ai^(s)(alpha).
    """
    return klm_operator_on_airy_scaled(idx, X, Y, airy_derivs_upto(idx.l, alpha))


def klm_operator_on_airy_scaled(
    idx: MultipoleIndex, X: float, Y: float, ai_derivs: np.ndarray
) -> complex:
    """Same operator applied to a caller-supplied derivative table.

    The table may carry scaled Airy derivatives (common exponential factor
    split off); the result then carries the same factor.
    """
    exp = klm_coeffs(idx)
    total = 0.0 + 0.0j
    for p, q, s, c in exp.terms:
        total += c * X**p * Y**q * 1j**s * ai_derivs[s]
    return total
