"""Real-argument Airy functions and supporting classical special functions.

All higher-level machinery (auxiliary Q/Qi families, Green functions, beam
profiles) reduces to the four Airy values Ai, Bi, Ai', Bi' and a handful of
companions: the Airy Hankel combination Ci = Bi + i*Ai, higher derivatives of
Ai, the primitive of Ai, negative Airy zeros, and |P_l^m|^2 continued past
|x| = 1.

Scalar Airy values come from scipy.special; array arguments with |x| >= 15
come from the DLMF 9.7 large-|x| series, which is several times cheaper than
scipy there and as accurate.  Scaled variants (with the exponential factor
exp((2/3) x^(3/2)) split off) are provided so that products like
Ci(a+) Ai(a-) can be assembled without intermediate under- or overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.special as sc

from .errors import DomainError, UnsupportedOrderError

_SQRT_PI = math.sqrt(math.pi)
_PI_SQRT3 = math.pi * math.sqrt(3.0)

#: Largest |x| accepted by the evaluation routines.  Beyond this window the
#: unscaled values are far outside double range and callers must use the
#: scaled variants explicitly.
X_MAX = 200.0

#: Maximum derivative order handled by airy_deriv_n.
DERIV_MAX = 40

#: Gauss-Laguerre nodes of _airy_moment_scaled and its smallest argument, 2^(2/3) eps
#: at airyq.EPS0: there Qi is within 1.5e-14 of 30 digits for nu <= 60 (1.2e-13 at 50).
_MOMENT_NODES = 60
_MOMENT_X_MIN = 2.0 ** (2.0 / 3.0)
#: (nodes, weights) by (nodes, nu); Qi and airy_integral use at most 71 nu values.
_laguerre_rule = lru_cache(maxsize=None)(sc.roots_genlaguerre)
#: Gauss-Legendre nodes of airy_integral and the lower end of their window, which
#: ends at _MOMENT_X_MIN: Ai has at most about 6 oscillations there (phase
#: (2/3) 15^(3/2) ~ 39), and from 48 nodes on the rule sits at scipy's Airy rounding.
_LEGENDRE_NODES = 64
_LEGENDRE_X_MIN = -15.0
_legendre_rule = lru_cache(maxsize=None)(sc.roots_legendre)


@dataclass(frozen=True)
class AiryValues:
    """The four Airy values at a common real argument."""

    ai: float
    aip: float
    bi: float
    bip: float


@dataclass(frozen=True)
class ScaledAiryValues:
    """Airy values with the dominant exponential factor split off.

    For x > 0 the true values are  ai = ai_m * exp(-s),  aip = aip_m * exp(-s),
    bi = bi_m * exp(s),  bip = bip_m * exp(s)  with  s = (2/3) x^(3/2).
    For x <= 0 the values are unscaled and s = 0.
    """

    ai_m: float
    aip_m: float
    bi_m: float
    bip_m: float
    s: float


def _check_finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"Airy argument must be finite, got {x!r}")
    return x


def _airy_exponent(x):
    """(2/3) x^(3/2) for x >= 0, by numpy's power ufunc on floats and arrays alike.

    A float's own ** rounds differently in a few percent of arguments.  At the
    beam grids' x ~ 2e4 one ulp of this exponent is 2e-10 of the value it
    scales, so there the scalar and grid paths must round it alike.
    """
    return (2.0 / 3.0) * np.power(x, 1.5)


def _asymptotic_coeffs(n: int) -> np.ndarray:
    """DLMF 9.7.2 coefficients u_k, v_k for k < n as Horner rows in 1/zeta^2:
    row j holds (u_2i, u_2i+1, v_2i, v_2i+1) with i = n/2 - 1 - j."""
    u = [1.0]
    for k in range(1, n):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216 * k))
    v = [-(6 * k + 1) / (6 * k - 1) * u[k] for k in range(n)]
    return np.array([u[0::2], u[1::2], v[0::2], v[1::2]]).T[::-1, :, None]


#: Terms of the large-|x| series (at |x| = 15 the sums stop changing from 14 on),
#: and the |x| from which airy_scaled_grid uses it instead of scipy: there it is
#: as accurate as scipy, while at |x| = 8 it is still 4e-13 off.
_ASYM_TERMS = 18
_X_ASYM = 15.0
_ASYM_COEFFS = _asymptotic_coeffs(_ASYM_TERMS)


def _airy_asymptotic(x: np.ndarray) -> np.ndarray:
    """Rows (ai, aip, bi, bip, s) from the DLMF 9.7.5-9.7.12 series, for a
    non-empty array x of one sign with |x| >> 1.

    For x > 0 these are the ScaledAiryValues mantissas with s = (2/3) x^(3/2);
    for x < 0 the oscillatory forms, unscaled, with s = 0.
    """
    # zeta = (2/3)|x|^(3/2); Horner in +-1/zeta^2 (the sign of x) gives the
    # even and odd parts ue, uo, ve, vo of sum u_k / zeta^k and sum v_k / zeta^k,
    # which are also the DLMF 9.7.9-9.7.12 sums with alternating pairs.
    ax = np.abs(x)
    zeta = _airy_exponent(ax)
    t = 1.0 / zeta
    w = np.copysign(t * t, x)
    acc = np.zeros((4, x.size))
    for c in _ASYM_COEFFS:
        acc *= w
        acc += c
    ue, uo, ve, vo = acc
    uo *= t
    vo *= t
    q = ax**0.25
    f, g = 1.0 / (_SQRT_PI * q), q / _SQRT_PI  # prefactors of Ai, Bi and of Ai', Bi'
    if x[0] > 0.0:
        return np.array([
            0.5 * f * (ue - uo),
            -0.5 * g * (ve - vo),
            f * (ue + uo),
            g * (ve + vo),
            zeta,
        ])
    ph = zeta - 0.25 * math.pi
    sn, cs = np.sin(ph), np.cos(ph)
    return np.array([
        f * (cs * ue + sn * uo),
        g * (sn * ve - cs * vo),
        f * (cs * uo - sn * ue),
        g * (cs * ve + sn * vo),
        np.zeros_like(x),
    ])


def airy_scaled_grid(x: np.ndarray):
    """Vectorized scaled Airy values on an array argument.

    Returns (ai_m, aip_m, bi_m, bip_m, s) arrays with the same convention as
    ScaledAiryValues: for x > 0 the true values carry factors e^{-s} (Ai) and
    e^{s} (Bi) with s = (2/3) x^{3/2}; for x <= 0 they are unscaled (s = 0).
    Finite |x| >= 15 takes the DLMF 9.7 asymptotic series (18 terms): within
    5e-16 of the value for x > 0, and for x < 0 within 1.3e-14 of the modulus
    up to |x| = 30, beyond which the double rounding of the phase (2/3)|x|^{3/2}
    sets the floor, about 2^-52 times the phase, for scipy as for the series.
    The window |x| < 15 and non-finite x go to scipy's airye / airy.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((5,) + x.shape)
    far = (np.abs(x) >= _X_ASYM) & np.isfinite(x)
    for side in (far & (x > 0.0), far & (x < 0.0)):
        if side.any():
            out[:, side] = _airy_asymptotic(x[side])
    pos = (x > 0.0) & ~far
    if pos.any():
        out[:4, pos] = sc.airye(x[pos])
        out[4, pos] = _airy_exponent(x[pos])
    mid = ~(pos | far)
    if mid.any():
        out[:4, mid] = sc.airy(x[mid])
        out[4, mid] = 0.0
    return tuple(out)


def airy_unrestricted(x: float) -> AiryValues:
    """Ai, Ai', Bi, Bi' without the |x| <= 200 documentation window.

    Large positive x overflows Bi (returns inf) and underflows Ai; below
    x = -5e5 the values come from the oscillatory asymptotic series, since
    scipy's airy returns nan from about -1e6 on.
    """
    x = _check_finite(x)
    if x < -5.0e5:
        ai, aip, bi, bip = _airy_asymptotic(np.array([x]))[:4, 0]
    else:
        ai, aip, bi, bip = sc.airy(x)
    return AiryValues(float(ai), float(aip), float(bi), float(bip))


def airy(x: float) -> AiryValues:
    """Evaluate Ai, Ai', Bi, Bi' at real x, |x| <= 200.

    For large positive x, Ai underflows to (signed) zero; use airy_scaled
    when the exponentially small part is needed.
    """
    x = _check_finite(x)
    if abs(x) > X_MAX:
        raise DomainError(f"|x| <= {X_MAX} required, got {x}")
    ai, aip, bi, bip = sc.airy(x)
    return AiryValues(float(ai), float(aip), float(bi), float(bip))


def airy_scaled(x: float) -> ScaledAiryValues:
    """Scaled Airy values; see ScaledAiryValues for the scaling convention."""
    x = _check_finite(x)
    if x <= 0.0:
        v = airy_unrestricted(x)
        return ScaledAiryValues(v.ai, v.aip, v.bi, v.bip, 0.0)
    # From _X_ASYM on, one ulp of s shows (2e-10 at x ~ 2e4), so s is rounded as
    # on the grids; below, the float's ** is 20 times cheaper and within 7e-15.
    s = (2.0 / 3.0) * x**1.5 if x < _X_ASYM else float(_airy_exponent(x))
    ai_m, aip_m, bi_m, bip_m = sc.airye(x)
    return ScaledAiryValues(float(ai_m), float(aip_m), float(bi_m), float(bip_m), s)


def airy_ci(x: float) -> tuple[complex, complex]:
    """The Airy Hankel function Ci = Bi + i*Ai and its derivative."""
    v = airy(x)
    return complex(v.bi, v.ai), complex(v.bip, v.aip)


def _airy_ode_derivs(n: int, w, wp, x) -> list:
    """Derivatives 0..n of any solution of w'' = x w, from w and w' at x.

    Uses w^(k) = x w^(k-2) + (k-2) w^(k-3).  The arguments may be floats,
    complex numbers or arrays; the map is linear in (w, w'), so scaled
    mantissas give scaled derivatives with the same exponential factor.
    """
    d = [w, wp][: n + 1]
    for k in range(2, n + 1):
        d.append(x * d[k - 2] + (k - 2) * d[k - 3] if k >= 3 else x * d[0])
    return d


def airy_deriv_n(n: int, x: float) -> float:
    """n-th derivative of Ai at x via the closed recurrence.

    Uses Ai'' = x Ai and its differentiated form
    Ai^(n+2) = x Ai^(n) + n Ai^(n-1), seeded by Ai and Ai'.
    """
    if n < 0 or n > DERIV_MAX:
        raise UnsupportedOrderError(f"derivative order must be in [0, {DERIV_MAX}], got {n}")
    return _airy_deriv_table(n, x)[n]


def _airy_deriv_table(n: int, x: float) -> list[float]:
    v = airy(x)
    return _airy_ode_derivs(n, v.ai, v.aip, x)


def airy_derivs_upto(n: int, x: float) -> np.ndarray:
    """Derivatives Ai^(0..n) at x as an array (shared table for operators)."""
    if n < 0 or n > DERIV_MAX:
        raise UnsupportedOrderError(f"derivative order must be in [0, {DERIV_MAX}], got {n}")
    return np.asarray(_airy_deriv_table(n, x))


def _airy_moment_scaled(nu: float, x):
    """M_nu(x) = e^{(2/3) x^{3/2}} int_0^inf tau^nu Ai(x + tau) dtau, x >= _MOMENT_X_MIN.

    With a = sqrt(x + tau), b = sqrt(x) and u = (2/3)(a^3 - b^3) it is one
    Gauss-Laguerre sum against u^nu e^{-u} of (tau/u)^nu kve(1/3, (2/3) b^3 + u)
    / (pi sqrt 3), where tau/u = (3/2)(a + b)/(a^2 + ab + b^2) has no cancellation.
    A float x gives a float; a 1-d array x of N points gives N values from one
    (N, nodes) kve evaluation and one matrix-vector product.
    """
    u, w = _laguerre_rule(_MOMENT_NODES, nu)
    vector = isinstance(x, np.ndarray)
    b = np.sqrt(x)[:, None] if vector else math.sqrt(x)
    a = np.cbrt(b**3 + 1.5 * u)
    r = 1.5 * (a + b) / (a * a + a * b + b * b)
    f = r**nu * sc.kve(1.0 / 3.0, (2.0 / 3.0) * b**3 + u)
    m = f @ w
    return m / _PI_SQRT3 if vector else float(m) / _PI_SQRT3


def airy_integral(x: float) -> float:
    """Ai_1(x) = integral of Ai from 0 to x; tends to 1/3 as x -> +infinity.

    x >= 2^(2/3): 1/3 minus the Airy-moment tail.  -15 <= x < 2^(2/3): a 64-node
    Gauss-Legendre rule of Ai on [min(x, 0), max(x, 0)].  x < -15: scipy's itairy,
    within 7e-16 of mpmath at x = -15.5 ... -200; above -15 it is up to 5e-7 off,
    and at x = 9 it has the wrong sign.
    """
    x = _check_finite(x)
    if abs(x) > X_MAX:
        raise DomainError(f"|x| <= {X_MAX} required, got {x}")
    if x >= _MOMENT_X_MIN:
        return 1.0 / 3.0 - _airy_moment_scaled(0.0, x) * math.exp(-(2.0 / 3.0) * x**1.5)
    if x >= _LEGENDRE_X_MIN:
        t, w = _legendre_rule(_LEGENDRE_NODES)
        return 0.5 * x * float(w @ sc.airy(0.5 * x * (t + 1.0))[0])
    return float(sc.itairy(x)[0])


def assoc_legendre_abs2(l: int, m: int, x: float) -> float:
    """|P_l^m(x)|^2, extended to real x with |x| > 1.

    For |x| <= 1 this is the square of the ordinary real associated Legendre
    polynomial (Condon-Shortley convention).  For |x| > 1 the polynomial is
    complex and double-valued, but its squared modulus is single-valued:
    every factor (1 - x^2)^(|m|/2) contributes |1 - x^2|^(|m|) to the square.
    """
    m_abs = abs(int(m))
    l = int(l)
    if m_abs > l:
        raise DomainError(f"|m| <= l required, got l={l}, m={m}")
    if l > 20:
        raise UnsupportedOrderError(f"l <= 20 required, got l={l}")
    # Evaluate P_l^{|m|} by the standard recurrence with the complex square
    # root of (1 - x^2); the modulus of the result is what we need, and
    # P_l^{-m} differs from P_l^{m} by a real ratio of factorials.
    z = complex(x)
    sroot = np.sqrt(1.0 - z * z)  # principal branch; only |.| matters
    p_mm = complex(1.0)
    for k in range(1, m_abs + 1):
        p_mm *= -(2 * k - 1) * sroot
    if l == m_abs:
        p_lm = p_mm
    else:
        p_prev, p_cur = p_mm, z * (2 * m_abs + 1) * p_mm
        for ll in range(m_abs + 2, l + 1):
            p_prev, p_cur = p_cur, (
                (2 * ll - 1) * z * p_cur - (ll - 1 + m_abs) * p_prev
            ) / (ll - m_abs)
        p_lm = p_cur if l > m_abs else p_prev
    val = abs(p_lm) ** 2
    if m < 0:
        val *= (math.factorial(l - m_abs) / math.factorial(l + m_abs)) ** 2
    return float(val)


def airy_zero(n: int) -> float:
    """n-th negative zero of Ai (n = 1, 2, ...), n <= 100."""
    n = int(n)
    if n < 1 or n > 100:
        raise DomainError(f"zero index must be in [1, 100], got {n}")
    return float(sc.ai_zeros(n)[0][-1])


def airy_prime_zero(n: int) -> float:
    """n-th negative zero of Ai' (n = 1, 2, ...), n <= 100."""
    n = int(n)
    if n < 1 or n > 100:
        raise DomainError(f"zero index must be in [1, 100], got {n}")
    return float(sc.ai_zeros(n)[1][-1])


def _double_factorial(n: int) -> float:
    # Convention: (-1)!! = 0!! = 1.
    return 1.0 if n <= 0 else float(math.prod(range(n, 0, -2)))
