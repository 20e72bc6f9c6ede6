"""Independent references for the benchmark's correctness checks.

Nothing here calls the library.  Each reference uses different machinery
from the code it checks:

* Airy values and their products from mpmath at 30 digits;
* Qi_k(eps) for k >= 0 from its Riemann-Liouville integral
      Qi_k(eps) = 2^(2/3) / (sqrt(pi) Gamma(k + 1/2))
                  * int_0^inf s^(2k) Ai(2^(2/3) (eps + s^2)) ds,
  with the exponential factor of Ai split off analytically, by adaptive
  Gauss-Kronrod quadrature (not the three-term recursion);
* Q_k(rho, zeta; eps) from its defining integral along a rotated ray (not
  the five-point recursion), and Q_0, Q_1, Q_2 in closed form from mpmath
  Airy functions for arguments too large for the quadrature;
* solid harmonics K_lm for l <= 2 written out by hand.

Every reference returns its own relative accuracy (quadrature error
estimate, or the double-precision limit for mpmath values), which caps the
digits a check can report.
"""

from __future__ import annotations

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import scipy.special as sc
from scipy.integrate import IntegrationWarning, quad

#: Digits a double-precision result can carry at best.
DOUBLE_DIGITS = 15.0

_C = 2.0 ** (2.0 / 3.0)
_RAY = math.pi / 8.0  # rotation of the quadrature ray into the lower half plane


def rel_error(got, want) -> float:
    """|got - want| / |want|, by the Euclidean norm for vectors."""
    return float(np.linalg.norm(np.subtract(got, want)) / np.linalg.norm(want))


def digits(got, want, ref_rel_err: float = 0.0) -> float:
    """Correct decimal digits of got against want, capped by the reference."""
    cap = DOUBLE_DIGITS
    if ref_rel_err > 0.0:
        cap = min(cap, -math.log10(ref_rel_err))
    err = rel_error(got, want)
    return cap if err == 0.0 else min(cap, -math.log10(err))


# --------------------------------------------------------------------------
# Airy functions (mpmath)
# --------------------------------------------------------------------------


def airy_mp(x, dps: int = 30):
    """(Ai, Ai', Bi, Bi') at x as mpmath numbers."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        return mp.airyai(x), mp.airyai(x, 1), mp.airybi(x), mp.airybi(x, 1)


def airy_zeros_above(eps: float, prime: bool) -> int:
    """Number of zeros of Ai (or Ai') lying above eps, from mpmath."""
    n = 0
    while True:
        z = float(mp.airyaizero(n + 1, derivative=1 if prime else 0))
        if z <= eps:
            return n
        n += 1


# --------------------------------------------------------------------------
# Qi_k(eps)
# --------------------------------------------------------------------------


def qi_ref(k: int, eps: float) -> tuple[float, float]:
    """(mantissa, relative error) of Qi_k(eps), logscale -(4/3) max(eps, 0)^1.5.

    k >= 0 from the Riemann-Liouville integral; k = -1, -2 from
    Qi_-1 = -2 Ai Ai' and Qi_-2 = 2 Ai'^2 + 2 eps Ai^2 in mpmath (40 digits).
    """
    if k >= 0:
        mant, _, err = qi_rl(k, eps)
        return mant, err
    ai, aip, _, _ = airy_mp(eps, dps=40)
    with mp.workdps(40):
        e = mp.mpf(eps)
        val = {-1: -2 * ai * aip, -2: 2 * aip**2 + 2 * e * ai**2}[k]
        val *= mp.exp(mp.mpf(4) / 3 * mp.mpf(max(eps, 0.0)) ** mp.mpf(1.5))
        return float(val), 1e-16


def _rl_log_integrand(k: int, eps: float, s: float) -> tuple[float, float]:
    """(log |f|, sign f) of f = s^(2k) Ai(C(eps + s^2)) exp((4/3) max(eps, 0)^(3/2))."""
    x = _C * (eps + s * s)
    if x > 0.0:
        ai_m = sc.airye(x)[0]
        if eps > 0.0:
            x0 = _C * eps
            # x^1.5 - x0^1.5 without cancellation
            dx = _C * s * s
            d15 = dx * (x * x + x * x0 + x0 * x0) / (x**1.5 + x0**1.5)
            expo = -(2.0 / 3.0) * d15
        else:
            expo = -(2.0 / 3.0) * x**1.5
        if ai_m <= 0.0:
            return -math.inf, 1.0
        log_ai = math.log(ai_m) + expo
        sign = 1.0
    else:
        ai = sc.airy(x)[0]
        if ai == 0.0:
            return -math.inf, 1.0
        log_ai = math.log(abs(ai))
        sign = math.copysign(1.0, ai)
    if s == 0.0:
        return (log_ai if k == 0 else -math.inf), sign
    return 2.0 * k * math.log(s) + log_ai, sign


def qi_rl(k: int, eps: float) -> tuple[float, float, float]:
    """Qi_k(eps), k >= 0, by quadrature of the Riemann-Liouville integral.

    Returns (mantissa, logscale, relative error estimate) with
    Qi_k = mantissa * exp(logscale) and logscale = -(4/3) max(eps, 0)^(3/2),
    the scaling the library's qi_scaled uses.
    """
    if k < 0:
        raise ValueError("the Riemann-Liouville form needs k >= 0")

    def f(s):
        lg, sign = _rl_log_integrand(k, eps, s)
        return 0.0 if lg == -math.inf else sign * math.exp(lg - shift)

    # Peak of the (positive, decaying) part of the integrand sets the scale.
    if eps > 0.0:
        width = 1.0 / math.sqrt(2.0 * math.sqrt(eps) + 1.0)
        s_peak = math.sqrt(k / (2.0 * math.sqrt(eps) + 1.0))
    else:
        width = 1.0
        s_peak = math.sqrt(-eps + k / 2.0)
    # Upper limit: where the integrand has fallen by e^-80 from the peak.
    shift = _rl_log_integrand(k, eps, max(s_peak, 1e-300))[0]
    s_hi = max(s_peak, width)
    while _rl_log_integrand(k, eps, s_hi)[0] - shift > -80.0:
        s_hi = s_hi * 1.5 + width
    marks = (s_peak - 2 * width, s_peak, s_peak + 2 * width, math.sqrt(max(-eps, 0.0)))
    pts = sorted({p for p in marks if 0.0 < p < s_hi})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, 0.0, s_hi, points=pts or None, limit=400,
                        epsabs=0.0, epsrel=1e-13)
    pref = _C / (math.sqrt(math.pi) * math.gamma(k + 0.5))
    logscale = -(4.0 / 3.0) * max(eps, 0.0) ** 1.5
    mant = pref * val * math.exp(shift)
    rel = abs(err / val) if val != 0.0 else 1.0
    return mant, logscale, max(rel, 1e-16)


def qi_mp_table(kmax: int, eps: float, dps: int = 120) -> list:
    """Qi_0 ... Qi_kmax in high precision (three-term recursion in mpmath).

    Used only where the float recursion under test is a different one (the
    five-point Q recursion); the digits carried far exceed the loss.
    """
    with mp.workdps(dps):
        e = mp.mpf(eps)
        ai, aip = mp.airyai(e), mp.airyai(e, 1)
        t = {0: ai**2, -1: -2 * ai * aip, -2: 2 * aip**2 + 2 * e * ai**2}
        for j in range(kmax):
            t[j + 1] = (t[j - 2] / 4 - e * t[j]) / (j + mp.mpf("0.5"))
        return [t[j] for j in range(kmax + 1)]


def im_q_series(k: int, rho: float, zeta: float, eps: float, terms: int = 60) -> float:
    """Im Q_k = sum_n (-rho^2)^n / n! Qi_{k+n}(eps - zeta), in mpmath.

    Follows from dQ_k/d(rho^2) = -Q_{k+1} and Im Q_k(0, zeta; eps) =
    Qi_k(eps - zeta); independent of the five-point recursion.
    """
    table = qi_mp_table(k + terms, eps - zeta)
    with mp.workdps(120):
        r2 = mp.mpf(rho) ** 2
        total = mp.mpf(0)
        for n in range(terms):
            total += (-r2) ** n / mp.factorial(n) * table[k + n]
        return float(total)


# --------------------------------------------------------------------------
# Q_k(rho, zeta; eps)
# --------------------------------------------------------------------------


def q_ray(k: int, rho: float, zeta: float, eps: float) -> tuple[complex, float]:
    """Q_k by quadrature of its defining integral along a rotated ray.

    Q_k = i / (2 pi^(3/2)) int_0^inf (i tau)^-(k+1/2)
          exp(i (rho^2/tau + tau (zeta - eps) - tau^3/12)) dtau,
    with tau = s e^(-i pi/8): every exponent term then decays, so ordinary
    adaptive quadrature converges.  Returns (value, relative error estimate).
    """
    if rho <= 0.0:
        raise ValueError("the rotated-ray integral needs rho > 0")
    w = zeta - eps
    e = cmath.exp(-1j * _RAY)
    pref = 1j / (2.0 * math.pi**1.5)

    def g(s):
        tau = s * e
        return pref * e * cmath.exp(
            1j * (rho * rho / tau + tau * w - tau**3 / 12.0) - (k + 0.5) * cmath.log(1j * tau)
        )

    cut = max(1.0, rho)
    total, err = 0.0 + 0.0j, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in ((0.0, cut), (cut, np.inf)):
            v, ev = quad(g, lo, hi, complex_func=True, limit=400, epsabs=0.0, epsrel=1e-13)
            total += v
            err += abs(ev)
    rel = err / abs(total) if total != 0.0 else 1.0
    return total, max(rel, 1e-16)


def q012_closed(rho: float, zeta: float, eps: float, dps: int = 40):
    """(Q_0, Q_1, Q_2) as mpmath complex numbers from Airy functions.

    Q_0 = Ai(x) Ci(y) with x = eps - zeta + rho, y = eps - zeta - rho and
    Ci = Bi + i Ai; Q_{k+1} = -(1 / 2 rho) dQ_k/drho, differentiated by
    hand with Ai'' = x Ai.
    """
    with mp.workdps(dps):
        r = mp.mpf(rho)
        x = mp.mpf(eps) - mp.mpf(zeta) + r
        y = mp.mpf(eps) - mp.mpf(zeta) - r
        a, ap = mp.airyai(x), mp.airyai(x, 1)
        c = mp.airybi(y) + 1j * mp.airyai(y)
        cp = mp.airybi(y, 1) + 1j * mp.airyai(y, 1)
        q0 = a * c
        d0 = ap * c - a * cp  # dQ0/drho
        q1 = -d0 / (2 * r)
        d1 = -((x + y) * a * c - 2 * ap * cp) / (2 * r) + d0 / (2 * r * r)  # dQ1/drho
        q2 = -d1 / (2 * r)
        return q0, q1, q2


# --------------------------------------------------------------------------
# Solid harmonics K_lm = r^l Y_lm (Condon-Shortley), l <= 2
# --------------------------------------------------------------------------

_PI = math.pi


def klm(l: int, m: int, r) -> tuple[complex, np.ndarray]:
    """(K_lm(r), grad K_lm(r)) for l <= 2, written out explicitly."""
    x, y, z = (float(c) for c in r)
    s = 1.0 if m >= 0 else -1.0
    u = complex(x, s * y)  # x +- i y
    du = np.array([1.0, s * 1j, 0.0])
    if l == 0:
        return 0.5 / math.sqrt(_PI) + 0j, np.zeros(3, dtype=complex)
    if l == 1:
        if m == 0:
            c = math.sqrt(3.0 / (4.0 * _PI))
            return c * z + 0j, np.array([0.0, 0.0, c], dtype=complex)
        c = -s * math.sqrt(3.0 / (8.0 * _PI))
        return c * u, c * du
    if l == 2:
        if m == 0:
            c = math.sqrt(5.0 / (16.0 * _PI))
            return (
                c * (2.0 * z * z - x * x - y * y) + 0j,
                c * np.array([-2.0 * x, -2.0 * y, 4.0 * z], dtype=complex),
            )
        if abs(m) == 1:
            c = -s * math.sqrt(15.0 / (8.0 * _PI))
            return c * z * u, c * (z * du + np.array([0.0, 0.0, u]))
        c = math.sqrt(15.0 / (32.0 * _PI))
        return c * u * u, c * 2.0 * u * du
    raise ValueError("explicit solid harmonics cover l <= 2 only")


def tcoeff(j: int, l: int, m: int) -> float:
    """z-axis translation coefficient T_jlm."""
    return math.sqrt(
        (2 * l + 1) / (2 * j + 1) * math.comb(l + m, j + m) * math.comb(l - m, j - m)
    )


def green_lm_ref(l: int, m: int, r, beta: float, bf: float, eps: float, cache=None):
    """(G_lm, grad G_lm, relative error) from rotated-ray Q_k values.

    G_lm = -4 beta (bF)^(l+3) sum_j (2 bF)^j T_jlm K_jm(r) Q_(2j-l+1), with
    dQ_k/drho = -2 rho Q_(k+1) and dQ_k/dzeta = Q_(k-1) for the gradient.
    cache, a dict, shares Q_k values between multipoles at the same point.
    """
    rn = math.sqrt(sum(float(c) ** 2 for c in r))
    rho, zeta = bf * rn, bf * float(r[2])
    cache = {} if cache is None else cache

    def qk(k):
        if k not in cache:
            cache[k] = q_ray(k, rho, zeta, eps)
        return cache[k][0]

    val = 0.0 + 0.0j
    grad = np.zeros(3, dtype=complex)
    rhat = np.array([float(c) for c in r]) / rn
    for j in range(abs(m), l + 1):
        c = (2.0 * bf) ** j * tcoeff(j, l, m)
        k = 2 * j - l + 1
        kv, kg = klm(j, m, r)
        val += c * kv * qk(k)
        grad += c * (kg * qk(k) + kv * (-2.0 * rho * qk(k + 1) * bf * rhat
                                        + qk(k - 1) * bf * np.array([0.0, 0.0, 1.0])))
    pref = -4.0 * beta * bf ** (l + 3)
    rel = max(e for _, e in cache.values())
    return pref * val, pref * grad, rel
