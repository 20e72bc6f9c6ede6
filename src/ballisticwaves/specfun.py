"""Real-argument Airy functions and supporting classical special functions.

All higher-level machinery (auxiliary Q/Qi families, Green functions, beam
profiles) reduces to the four Airy values Ai, Bi, Ai', Bi' and a handful of
companions: the Airy Hankel combination Ci = Bi + i*Ai, higher derivatives of
Ai, the primitive of Ai, negative Airy zeros, and |P_l^m|^2 continued past
|x| = 1.

The package owns its Airy values at every finite real x, for floats and
arrays alike: |x| < 15 by Taylor steps from a committed table of mpmath values
(DLMF 9.2.1, the Airy equation, gives every Taylor coefficient), |x| >= 15
by the DLMF 9.7 large-|x| series (on arrays, only the terms that can still
reach 2^-60 at each point).  Scaled variants (with the exponential
factor exp((2/3) x^(3/2)) split off) are provided so that products like
Ci(a+) Ai(a-) can be assembled without intermediate under- or overflow.
scipy is imported only inside the few functions that still need it: the Airy
moment (kve, roots_genlaguerre), airy_integral below -15 (itairy) and the
Airy zeros (ai_zeros).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._airy_table import CENTRE_STEPS, CENTRE_VALUES
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
#: Gauss-Legendre nodes of airy_integral and the lower end of their window, which
#: ends at _MOMENT_X_MIN: Ai has at most about 6 oscillations there (phase
#: (2/3) 15^(3/2) ~ 39), and from 48 nodes on the rule sits at the Airy rounding.
_LEGENDRE_NODES = 64
_LEGENDRE_X_MIN = -15.0


@lru_cache(maxsize=None)
def _legendre_rule(n: int):
    """Gauss-Legendre (nodes, weights); numpy.polynomial loads on first use."""
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=None)
def _moment_rule(nu: float):
    """(nodes, weights, kve) of the Airy-moment rule for nu; Qi and airy_integral
    use at most 71 nu values.  scipy is imported here, on the first moment."""
    from scipy.special import kve, roots_genlaguerre

    u, w = roots_genlaguerre(_MOMENT_NODES, nu)
    return u, w, kve


class AiryValues(NamedTuple):
    """The four Airy values at a common real argument."""

    ai: float
    aip: float
    bi: float
    bip: float


class ScaledAiryValues(NamedTuple):
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


# --------------------------------------------------------------------------
# |x| < 15: Taylor steps.
#
# Around a centre c, Ai(c + h) and Bi(c + h) are power series in h whose
# coefficients w^(k)(c) / k! follow from (w, w') at c by the Airy equation.
# The committed table holds the 121 centres -15, -14.75, ..., 15; one 18-term
# step from it fills the 481 centres every 1/16 at import, and from those
# |h| <= 1/32 needs at most 12 terms.  For x > 0 the mantissas take the factor
# e^(+-(s(x) - s(c))) onto the scaled centre values, with the difference of
# the two exponents formed without cancellation.
# --------------------------------------------------------------------------

#: |x| from which the DLMF 9.7 series answers instead of the Taylor window.
_X_ASYM = 15.0
#: Centres per unit of x in the evaluated window, and the bound, relative to the
#: largest term, on the first Taylor term left out at each centre.
_WINDOW_STEPS = 16
_WINDOW_TOL = 2.0**-56


def _taylor_coeffs(c: np.ndarray, values, n: int) -> np.ndarray:
    """(n, 2, centres) Taylor coefficients w^(k)(c) / k! of Ai (row 0) and Bi
    (row 1) at the centres c, from values = (ai, aip, bi, bip) arrays there."""
    ai, aip, bi, bip = values
    fact = np.array([math.factorial(k) for k in range(n)])[:, None]
    return np.stack([
        np.array(_airy_ode_derivs(n - 1, ai, aip, c)) / fact,
        np.array(_airy_ode_derivs(n - 1, bi, bip, c)) / fact,
    ], axis=1)


def _taylor_grid(x: np.ndarray, steps: int, coeffs: np.ndarray) -> np.ndarray:
    """Rows (ai, aip, bi, bip, s) at a 1-d array x, |x| <= 15, in the
    ScaledAiryValues convention, from the Taylor coefficients at the centres
    k / steps, k = -15 steps ... 15 steps."""
    j = np.rint(x * steps)
    c = j / steps
    h = x - c
    idx = j.astype(np.intp) + 15 * steps
    out = np.empty((5, x.size))
    p, dp = out[0:4:2], out[1:4:2]  # (ai, bi) and (aip, bip)
    p[:] = 0.0
    dp[:] = 0.0
    ck = np.empty((2, x.size))
    for table in coeffs[::-1]:
        dp *= h
        dp += p
        p *= h
        p += table.take(idx, axis=1, out=ck)
    # e^(s(x) - s(c)) for x > 0, the exponent without cancellation; 1 for x <= 0.
    xp, cp = np.maximum(x, 0.0), np.maximum(c, 0.0)
    sx, sc = np.sqrt(xp), np.sqrt(cp)
    den = sx + sc
    d = (2.0 / 3.0) * (xp - cp) * (xp + sx * sc + cp)
    e = np.exp(np.divide(d, den, out=np.zeros_like(x), where=den > 0.0))
    out[:2] *= e
    out[2:4] /= e
    out[4] = _airy_exponent(xp)
    return out


def _window_tables():
    """Taylor coefficients at the centres every 1/_WINDOW_STEPS: one array of
    scaled ones for the grids and, per centre, lists of complex Ai + i Bi
    coefficients in Horner order, cut after the last term that matters there,
    scaled and unscaled (for c > 0 the latter take e^(-+s(c)), so no exp is
    left per call, at the cost of the rounding of s(c): up to 8e-15)."""
    coarse = np.arange(len(CENTRE_VALUES)) / CENTRE_STEPS - _X_ASYM
    first = _taylor_coeffs(coarse, np.array(CENTRE_VALUES).T, 18)
    n = int(_X_ASYM) * _WINDOW_STEPS
    centres = np.arange(-n, n + 1) / _WINDOW_STEPS
    n_max = 16
    coeffs = _taylor_coeffs(centres, _taylor_grid(centres, CENTRE_STEPS, first)[:4], n_max)
    # Sizes of the terms of the value (|c_k| h^k) and of the slope
    # (k |c_k| h^(k-1)) at the largest step, against the largest of each.
    k = np.arange(n_max)[:, None, None]
    size = np.abs(coeffs) * (0.5 / _WINDOW_STEPS) ** k
    size = np.concatenate([size, k * size])
    size /= size.max(axis=0)
    kept = (size > _WINDOW_TOL).any(axis=1)
    counts = n_max - np.argmax(kept[::-1], axis=0)
    e = np.exp(_airy_exponent(np.maximum(centres, 0.0)))
    plain = coeffs * np.array([1.0 / e, e])[None]

    def lists(table):
        return [
            (table[:m, 0, i] + 1j * table[:m, 1, i])[::-1].tolist() for i, m in enumerate(counts)
        ]

    return coeffs[: counts.max()], lists(coeffs), lists(plain)


_WINDOW_COEFFS, _WINDOW_SCALED, _WINDOW_PLAIN = _window_tables()
_WINDOW_MID = int(_X_ASYM) * _WINDOW_STEPS  # list index of the centre 0


def _taylor_step(x: float, lists: list) -> tuple:
    """(Ai + i Bi, Ai' + i Bi', c) at a float |x| < 15 from the nearest centre c.

    One complex Horner over Python floats: the real parts carry Ai, the
    imaginary parts Bi, rounded exactly as _taylor_grid rounds them.
    """
    j = round(x * _WINDOW_STEPS)
    c = j / _WINDOW_STEPS
    h = x - c
    p = dp = 0j
    for ck in lists[j + _WINDOW_MID]:
        dp = dp * h + p
        p = p * h + ck
    return p, dp, c


# --------------------------------------------------------------------------
# |x| >= 15: the DLMF 9.7 series.
# --------------------------------------------------------------------------


def _asymptotic_coeffs(n: int) -> np.ndarray:
    """DLMF 9.7.2 coefficients u_k, v_k for k < n as Horner rows in 1/zeta^2:
    row j holds (u_2i, u_2i+1, v_2i, v_2i+1) with i = n/2 - 1 - j."""
    u = [1.0]
    for k in range(1, n):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216 * k))
    v = [-(6 * k + 1) / (6 * k - 1) * u[k] for k in range(n)]
    return np.array([u[0::2], u[1::2], v[0::2], v[1::2]]).T[::-1, :, None]


#: Terms of the large-|x| series: at |x| = 15 the sums stop changing from 14 on,
#: while at |x| = 8 the series is still 4e-13 off.
_ASYM_TERMS = 18
_ASYM_COEFFS = _asymptotic_coeffs(_ASYM_TERMS)
#: The array sums leave out the rows that cannot reach this size against the
#: leading term 1: from |x| ~ 1e3 on, two of the nine rows are left.
_ASYM_TOL = 2.0**-60


def _asymptotic_reach(coeffs: np.ndarray) -> np.ndarray:
    """Ascending zeta up to which the Horner rows of coeffs in 1/zeta^(2i),
    i = n/2 - 1 ... 1, can still reach _ASYM_TOL: a point needs 1 + (the
    number of these at or above its zeta) rows."""
    size = np.abs(coeffs[::-1, :, 0]).max(axis=1)  # by power i of 1/zeta^2
    i = np.arange(1, len(size))
    reach = (size[1:] / _ASYM_TOL) ** (1.0 / (2.0 * i))
    return np.maximum.accumulate(reach[::-1])  # a row is needed wherever a later one is


_ASYM_REACH = _asymptotic_reach(_ASYM_COEFFS)
#: The same rows for floats, as complex pairs (u_2i + i v_2i, u_2i+1 + i v_2i+1).
_ASYM_PAIRS = [(complex(ue, ve), complex(uo, vo)) for ue, uo, ve, vo in _ASYM_COEFFS[..., 0]]


def _airy_asymptotic(x):
    """(ai, aip, bi, bip, s) from the DLMF 9.7.5-9.7.12 series, for a float x or
    a non-empty array x of one sign, with |x| >> 1.

    For x > 0 these are the ScaledAiryValues mantissas with s = (2/3) x^(3/2);
    for x < 0 the oscillatory forms, unscaled, with s = 0.
    """
    # zeta = (2/3)|x|^(3/2); Horner in +-1/zeta^2 (the sign of x) gives the
    # even and odd parts ue, uo, ve, vo of sum u_k / zeta^k and sum v_k / zeta^k,
    # which are also the DLMF 9.7.9-9.7.12 sums with alternating pairs.
    vector = isinstance(x, np.ndarray)
    ax = abs(x)
    zeta = _airy_exponent(ax)
    if vector:
        positive = x[0] > 0.0
        t = 1.0 / zeta
        w = np.copysign(t * t, x)
        # Each point starts its sum at the first row that can reach _ASYM_TOL
        # at its own zeta (zero terms before it), so its value does not depend
        # on the other points of the array.
        rows = 1 + _ASYM_REACH.size - np.searchsorted(_ASYM_REACH, zeta)
        low, top = int(rows.min()), int(rows.max())
        started = rows > np.arange(top - 1, low - 1, -1)[:, None]  # by row, top - 1 ... low
        acc = np.zeros((4, x.size))
        for i in range(top - 1, -1, -1):
            c = _ASYM_COEFFS[-1 - i]
            acc *= w
            if i < low:
                acc += c
            else:
                np.add(acc, c, out=acc, where=started[top - 1 - i])
        ue, uo, ve, vo = acc
        sin, cos = np.sin, np.cos
    else:
        positive = x > 0.0
        zeta = float(zeta)
        t = 1.0 / zeta
        w = t * t if positive else -t * t
        even = odd = 0j
        for ce, co in _ASYM_PAIRS:
            even = even * w + ce
            odd = odd * w + co
        ue, ve, uo, vo = even.real, even.imag, odd.real, odd.imag
        sin, cos = math.sin, math.cos
    uo = uo * t
    vo = vo * t
    q = ax**0.25
    f, g = 1.0 / (_SQRT_PI * q), q / _SQRT_PI  # prefactors of Ai, Bi and of Ai', Bi'
    if positive:
        return 0.5 * f * (ue - uo), -0.5 * g * (ve - vo), f * (ue + uo), g * (ve + vo), zeta
    ph = zeta - 0.25 * math.pi
    sn, cs = sin(ph), cos(ph)
    return (
        f * (cs * ue + sn * uo),
        g * (sn * ve - cs * vo),
        f * (cs * uo - sn * ue),
        g * (cs * ve + sn * vo),
        0.0 * zeta,
    )


def airy_scaled_grid(x: np.ndarray):
    """Vectorized scaled Airy values on an array argument.

    Returns (ai_m, aip_m, bi_m, bip_m, s) arrays with the same convention as
    ScaledAiryValues: for x > 0 the true values carry factors e^{-s} (Ai) and
    e^{s} (Bi) with s = (2/3) x^{3/2}; for x <= 0 they are unscaled (s = 0).
    |x| < 15 takes Taylor steps of at most 12 terms from centres every 1/16,
    whose values come from a committed 40-digit table: within 5e-16 of the
    local size of each function (the value for x > 0, the modulus
    |x|^(-+1/4) / sqrt(pi) for x < 0).  Finite |x| >= 15 takes the DLMF 9.7
    asymptotic series, each point summing only those of its 18 terms that
    can still reach 2^-60 (4 from |x| ~ 1e3 on), so that no point depends on
    the rest of the array: within 5e-16 of the value for x > 0, and for
    x < 0 within 1.3e-14 of the modulus up to |x| = 30, beyond which the double
    rounding of the phase (2/3)|x|^{3/2} sets the floor, about 2^-52 times the
    phase.  Non-finite x give nan values with s = +inf at x = +inf and s = 0
    at nan and -inf.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    near = ax < _X_ASYM
    if near.all():
        return tuple(_window_grid(x.ravel()).reshape((5,) + x.shape))
    some_near = near.any()
    if not some_near:
        lo, hi = float(x.min()), float(x.max())
        # All on one side of the series: no mask gather or scatter, which
        # saves about a tenth of a 37-vortex lattice image.
        if 0.0 < lo and hi < math.inf or -math.inf < lo and hi < 0.0:
            return tuple(np.reshape(v, x.shape) for v in _airy_asymptotic(x.ravel()))
    out = np.empty((5,) + x.shape)
    if some_near:
        out[:, near] = _window_grid(x[near])
    far = ~near & (ax < math.inf)
    for side in (far & (x > 0.0), far & (x < 0.0)):
        if side.any():
            out[:, side] = _airy_asymptotic(x[side])
    bad = ~(near | far)
    if bad.any():
        out[:4, bad] = math.nan
        out[4, bad] = np.where(x[bad] > 0.0, math.inf, 0.0)
    return tuple(out)


#: Points per block of the Taylor window on grids: the working arrays of a
#: block stay in cache (about 0.5 MB), which halves the cost per point.
_GRID_BLOCK = 4096


def _window_grid(x: np.ndarray) -> np.ndarray:
    """Rows (ai, aip, bi, bip, s) at a 1-d array x, |x| < 15, block by block."""
    out = np.empty((5, x.size))
    for a in range(0, x.size, _GRID_BLOCK):
        block = x[a : a + _GRID_BLOCK]
        out[:, a : a + block.size] = _taylor_grid(block, _WINDOW_STEPS, _WINDOW_COEFFS)
    return out


def _unscaled(x: float) -> AiryValues:
    """Ai, Ai', Bi, Bi' at a finite float x: Taylor steps over the unscaled
    lists, or the large-|x| series times e^(-+s)."""
    if abs(x) < _X_ASYM:
        p, dp, _ = _taylor_step(x, _WINDOW_PLAIN)
        return AiryValues(p.real, dp.real, p.imag, dp.imag)
    ai, aip, bi, bip, s = _airy_asymptotic(x)
    if s:
        # Ai underflows to zero and Bi overflows to inf, as the true values do.
        d = math.exp(-s)
        g = math.exp(0.5 * s) if s < 1400.0 else math.inf
        ai, aip, bi, bip = ai * d, aip * d, bi * g * g, bip * g * g
    return AiryValues(ai, aip, bi, bip)


def airy_unrestricted(x: float) -> AiryValues:
    """Ai, Ai', Bi, Bi' without the |x| <= 200 documentation window.

    Large positive x overflows Bi (returns inf) and underflows Ai.  Below
    x = -15 the values carry the phase floor of the large-|x| series (see
    airy_scaled_grid), about 2^-52 (2/3)|x|^(3/2) of the modulus.
    """
    return _unscaled(_check_finite(x))


def airy(x: float) -> AiryValues:
    """Evaluate Ai, Ai', Bi, Bi' at real x, |x| <= 200.

    For large positive x, Ai underflows to (signed) zero; use airy_scaled
    when the exponentially small part is needed.
    """
    x = _check_finite(x)
    if abs(x) > X_MAX:
        raise DomainError(f"|x| <= {X_MAX} required, got {x}")
    return _unscaled(x)


def airy_scaled(x: float) -> ScaledAiryValues:
    """Scaled Airy values; see ScaledAiryValues for the scaling convention.

    s is (2/3) x^(3/2) by the float's own power below x = 15 and rounded as on
    the grids from there on, where one ulp of it shows (2e-10 at x ~ 2e4).
    """
    x = _check_finite(x)
    if abs(x) >= _X_ASYM:
        return ScaledAiryValues._make(_airy_asymptotic(x))
    p, dp, c = _taylor_step(x, _WINDOW_SCALED)
    if x <= 0.0:
        return ScaledAiryValues(p.real, dp.real, p.imag, dp.imag, 0.0)
    sx, sc = math.sqrt(x), math.sqrt(c)
    e = math.exp((2.0 / 3.0) * (x - c) * (x + sx * sc + c) / (sx + sc))
    return ScaledAiryValues(p.real * e, dp.real * e, p.imag / e, dp.imag / e, (2.0 / 3.0) * x**1.5)


def _ai_grid(x: np.ndarray):
    """Unscaled (Ai, Ai') on an array x; Ai underflows to zero for large x > 0."""
    flat = np.asarray(x, dtype=float).ravel()
    out = np.empty((2, flat.size))
    for a in range(0, flat.size, _GRID_BLOCK):  # blocks keep the working arrays small
        ai_m, aip_m, _, _, s = airy_scaled_grid(flat[a : a + _GRID_BLOCK])
        d = np.exp(-s)
        out[0, a : a + _GRID_BLOCK] = ai_m * d
        out[1, a : a + _GRID_BLOCK] = aip_m * d
    return out[0].reshape(np.shape(x)), out[1].reshape(np.shape(x))


def airy_ci(x: float) -> tuple[complex, complex]:
    """The Airy Hankel function Ci = Bi + i*Ai and its derivative."""
    v = airy(x)
    return complex(v.bi, v.ai), complex(v.bip, v.aip)


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
    u, w, kve = _moment_rule(nu)
    vector = isinstance(x, np.ndarray)
    b = np.sqrt(x)[:, None] if vector else math.sqrt(x)
    a = np.cbrt(b**3 + 1.5 * u)
    r = 1.5 * (a + b) / (a * a + a * b + b * b)
    f = r**nu * kve(1.0 / 3.0, (2.0 / 3.0) * b**3 + u)
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
        return 0.5 * x * float(w @ _ai_grid(0.5 * x * (t + 1.0))[0])
    from scipy.special import itairy

    return float(itairy(x)[0])


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


def _airy_zeros(n: int):
    """(a_1 ... a_n, a'_1 ... a'_n), the first n negative zeros of Ai and of Ai',
    from scipy's ai_zeros: the package's one source of Airy zeros."""
    from scipy.special import ai_zeros

    return ai_zeros(n)[:2]


def airy_zero(n: int) -> float:
    """n-th negative zero of Ai (n = 1, 2, ...), n <= 100."""
    n = int(n)
    if n < 1 or n > 100:
        raise DomainError(f"zero index must be in [1, 100], got {n}")
    return float(_airy_zeros(n)[0][-1])


def airy_prime_zero(n: int) -> float:
    """n-th negative zero of Ai' (n = 1, 2, ...), n <= 100."""
    n = int(n)
    if n < 1 or n > 100:
        raise DomainError(f"zero index must be in [1, 100], got {n}")
    return float(_airy_zeros(n)[1][-1])


def _double_factorial(n: int) -> float:
    # Convention: (-1)!! = 0!! = 1.
    return 1.0 if n <= 0 else float(math.prod(range(n, 0, -2)))
