"""Independent numerical oracles used by the test suite.

Everything here is deliberately built from different machinery than the
library under test: arbitrary-precision arithmetic (mpmath), adaptive
quadrature of defining integrals along rotated rays, and finite-difference
operators.  Test tolerances are chosen against these references.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings

import mpmath as mp
import numpy as np
from scipy.integrate import IntegrationWarning, quad

#: Ray rotation angle for the oscillatory-integral oracle.  Any angle in
#: (0, pi/6) makes all three exponent terms decay; pi/8 balances the
#: endpoint decay rates.
RAY_ANGLE = math.pi / 8.0


def airy_mp(x: float, dps: int = 30, scaled: bool = False):
    """(Ai, Ai', Bi, Bi') at x via mpmath with dps decimal digits.

    scaled=True returns, for x > 0, Ai and Ai' times e^s and Bi and Bi' times
    e^-s with the exact s = (2/3) x^(3/2) (the specfun.ScaledAiryValues
    mantissas); for x <= 0 the values are unscaled either way.
    """
    with mp.workdps(dps):
        x = mp.mpf(x)
        e = mp.exp(mp.mpf(2) / 3 * x**1.5) if scaled and x > 0 else mp.mpf(1)
        return (
            float(mp.airyai(x) * e),
            float(mp.airyai(x, 1) * e),
            float(mp.airybi(x) / e),
            float(mp.airybi(x, 1) / e),
        )


def airy_deriv_mp(n: int, x: float, dps: int = 30) -> float:
    """n-th derivative of Ai at x via mpmath."""
    with mp.workdps(dps):
        return float(mp.airyai(x, n))


def q_oracle(k: int, rho: float, zeta: float, eps: float) -> complex:
    """Adaptive quadrature of the defining integral for Q_k.

    The integration path is rotated into the lower half plane,
    tau = s * exp(-i * RAY_ANGLE): the 1/tau term then decays at s -> 0
    (for rho > 0) and the tau^3 term decays at s -> infinity, so the
    integrand is absolutely integrable and ordinary adaptive quadrature
    applies.
    """
    if rho <= 0.0:
        raise ValueError("the rotated-ray oracle needs rho > 0")
    w = zeta - eps
    e = cmath.exp(-1j * RAY_ANGLE)
    pref = 1j / (2.0 * math.pi**1.5)

    def integrand(s):
        tau = s * e
        z = 1j * (rho * rho / tau + tau * w - tau**3 / 12.0)
        return pref * e * cmath.exp(z - (k + 0.5) * cmath.log(1j * tau))

    cut = max(1.0, rho)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        head, _ = quad(integrand, 0.0, cut, complex_func=True, limit=400,
                       epsabs=1e-13, epsrel=1e-12)
        tail, _ = quad(integrand, cut, np.inf, complex_func=True, limit=400,
                       epsabs=1e-13, epsrel=1e-12)
    return head + tail


def qi_mp(k: int, eps: float, dps: int = 60) -> float:
    """Qi_k by the three-term recursion in fixed high precision."""
    with mp.workdps(dps):
        e = mp.mpf(eps)
        ai = mp.airyai(e)
        aip = mp.airyai(e, 1)
        t = {0: ai**2, -1: -2 * ai * aip, -2: 2 * aip**2 + 2 * e * ai**2}
        for j in range(0, k):
            t[j + 1] = (t[j - 2] / 4 - e * t[j]) / (j + mp.mpf("0.5"))
        for j in range(0, -k, 1):
            # downward: Qi_{k-2} = 4[(k+1/2) Qi_{k+1} + eps Qi_k]
            kk = -j - 1
            t[kk - 2] = 4 * ((kk + mp.mpf("0.5")) * t[kk + 1] + e * t[kk])
        return float(t[k])


def hamiltonian_residual(green, r, E: float, ctx, h_dimless: float = 1e-3) -> float:
    """Relative residual of (-hbar^2/2M lap - F z) G = E G at a field point.

    green is a callable r -> complex; the Laplacian is the standard 7-point
    second-order stencil with step h_dimless / (beta F).
    """
    h = h_dimless / ctx.beta_f
    g0 = green(tuple(r))
    lap = 0.0 + 0.0j
    for d in range(3):
        rp = list(r)
        rm = list(r)
        rp[d] += h
        rm[d] -= h
        lap += green(tuple(rp)) + green(tuple(rm))
    lap = (lap - 6.0 * g0) / (h * h)
    hg = -ctx.hbar**2 / (2.0 * ctx.mass) * lap - ctx.force * r[2] * g0
    return abs(hg - E * g0) / abs(E * g0)


def central_diff(f, x: float, h: float):
    """Fourth-order central difference derivative of a scalar callable."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12.0 * h)


def q_neg_mp(n: int, a, dps: int = 16) -> complex:
    """Q_{-n} as the n-th zeta-derivative of Ai(alpha_-) Ci(alpha_+) by mpmath.diff.

    a is a QArgs; mpmath.diff raises its working precision with n, so the
    base precision only sets the accuracy of the final result.
    """
    with mp.workdps(dps):
        rho, eps = mp.mpf(a.rho), mp.mpf(a.eps)

        def q0(zeta):
            y = eps - zeta - rho
            return mp.airyai(eps - zeta + rho) * (mp.airybi(y) + 1j * mp.airyai(y))

        return complex(mp.diff(q0, mp.mpf(a.zeta), n))


def qi_neg_mp(n: int, eps: float, dps: int = 16) -> float:
    """Qi_{-n} = (-d/deps)^n Ai(eps)^2 by mpmath.diff."""
    with mp.workdps(dps):
        return float((-1) ** n * mp.diff(lambda e: mp.airyai(e) ** 2, mp.mpf(eps), n))


def pi_profile_mp(x: float, y: float, z: float, E: float, ctx, dps: int = 40) -> float:
    """Far-field pi-polarization photocurrent density at (x, y, z) in mpmath.

    Evaluates 24 beta^8 F^7 Ai'(alpha_-)^2 / (pi^2 hbar (-alpha_+)) with
    alpha_-+ = eps - bF z +- bF r formed in dps digits from the same inputs.
    """
    with mp.workdps(dps):
        x, y, z = mp.mpf(x), mp.mpf(y), mp.mpf(z)
        beta, force, hbar = mp.mpf(ctx.beta), mp.mpf(ctx.force), mp.mpf(ctx.hbar)
        bf, eps = mp.mpf(ctx.beta_f), mp.mpf(ctx.eps(E))
        r = mp.sqrt(x * x + y * y + z * z)
        a_minus = eps - bf * z + bf * r
        a_plus = eps - bf * z - bf * r
        return float(
            24 * beta**8 * force**7 / (mp.pi**2 * hbar * (-a_plus))
            * mp.airyai(a_minus, 1) ** 2
        )


def far_swave_mp(x: float, y: float, z: float, E: float, ctx, dps: int = 40):
    """Far-field s-wave Green function and current density at (x, y, z) in mpmath.

    Returns (G_00, j_00) with G_00 = 4 i beta (bF)^3 Ci(alpha_+) Ai(alpha_-) /
    sqrt(-4 pi alpha_+) and j_00 = -2 beta^6 F^5 Ai(alpha_-)^2 / (pi^2 hbar
    alpha_+), Ci = Bi + i Ai, and alpha_-+ = eps - bF z +- bF r formed in dps
    digits from the same inputs.
    """
    with mp.workdps(dps):
        x, y, z = mp.mpf(x), mp.mpf(y), mp.mpf(z)
        beta, force, hbar = mp.mpf(ctx.beta), mp.mpf(ctx.force), mp.mpf(ctx.hbar)
        bf, eps = mp.mpf(ctx.beta_f), mp.mpf(ctx.eps(E))
        r = mp.sqrt(x * x + y * y + z * z)
        a_minus = eps - bf * z + bf * r
        a_plus = eps - bf * z - bf * r
        ai = mp.airyai(a_minus)
        ci = mp.mpc(mp.airybi(a_plus), mp.airyai(a_plus))
        green = 4j * beta * bf**3 * ci * ai / mp.sqrt(-4 * mp.pi * a_plus)
        current = -2 * beta**6 * force**5 * ai**2 / (mp.pi**2 * hbar * a_plus)
        return complex(green), float(current)


def pwave_profile_mp(vec, x: float, y: float, z: float, E: float, ctx, dps: int = 40) -> float:
    """Far-field photocurrent density of a p-wave source with polarization vec.

    Evaluates 24 beta^8 F^7 / (pi^2 hbar (-alpha_+))
    |e_z Ai'(alpha_-) + i (e_x X + e_y Y) Ai(alpha_-)|^2 with e = vec / |vec|,
    X = bF x / sqrt(-alpha_+), Y = bF y / sqrt(-alpha_+) and alpha_-+ formed
    in dps digits from the same inputs.  No solid-harmonic operators are
    involved; pi, sigma and circular light are the special cases (0, 0, 1),
    (1, 0, 0) and (i, 0, 1)/sqrt(2).
    """
    with mp.workdps(dps):
        x, y, z = mp.mpf(x), mp.mpf(y), mp.mpf(z)
        beta, force, hbar = mp.mpf(ctx.beta), mp.mpf(ctx.force), mp.mpf(ctx.hbar)
        bf, eps = mp.mpf(ctx.beta_f), mp.mpf(ctx.eps(E))
        e = [mp.mpc(c) for c in vec]
        norm = mp.sqrt(sum(abs(c) ** 2 for c in e))
        ex, ey, ez = (c / norm for c in e)
        r = mp.sqrt(x * x + y * y + z * z)
        a_minus = eps - bf * z + bf * r
        a_plus = eps - bf * z - bf * r
        sa = mp.sqrt(-a_plus)
        amp = ez * mp.airyai(a_minus, 1) + 1j * (ex * bf * x / sa + ey * bf * y / sa) * mp.airyai(
            a_minus
        )
        return float(24 * beta**8 * force**7 / (mp.pi**2 * hbar * (-a_plus)) * abs(amp) ** 2)


def _qi_loss_digits(k: int, eps: float) -> float:
    """Rough decimal digits the upward Qi recursion loses by order k."""
    if eps <= 0.0 or k <= 0:
        return 0.0
    per = 2.0 * eps**1.5
    return sum(max(0.0, math.log10(per / (j + 0.5))) for j in range(k))


def qi_scaled_mp(k: int, eps: float) -> float:
    """Qi_k e^{(4/3) max(eps, 0)^(3/2)} by the upward recursion in adaptive precision.

    The working precision is 30 digits plus the recursion's estimated loss,
    so the cancellation at eps > 0 still leaves about 30 digits; the scale
    factor is applied in the same precision, with the exact exponent.
    """
    with mp.workdps(30 + int(_qi_loss_digits(k, eps))):
        e = mp.mpf(eps)
        ai, aip = mp.airyai(e), mp.airyai(e, 1)
        t = {0: ai**2, -1: -2 * ai * aip, -2: 2 * aip**2 + 2 * e * ai**2}
        for j in range(k):
            t[j + 1] = (t[j - 2] / 4 - e * t[j]) / (j + mp.mpf("0.5"))
        return float(t[k] * mp.exp(4 * max(e, 0) ** mp.mpf(1.5) / 3))


@functools.lru_cache(maxsize=1 << 14)
def _airyai_at(x, prec: int):
    """mp.airyai(x) at the working precision prec, memoized: qi_quad_mp meets the
    same Gauss-Legendre nodes, so the same Ai arguments, for every index at one eps."""
    return mp.airyai(x)


def qi_quad_mp(index: float, eps: float, dps: int = 30) -> float:
    """Qi at any index > -1/2 from its Riemann-Liouville integral by mpmath quadrature.

    Qi_k = 2^(2/3) / (sqrt(pi) Gamma(k + 1/2)) int_0^inf s^(2k) Ai(2^(2/3)(eps + s^2)) ds.
    For eps >= 0 and k <= 21/2 the integrand beyond s = 4 is below 1e-25 of
    its peak, so the integral stops there; one Gauss-Legendre interval was
    both faster and closer than tanh-sinh or a split interval.
    """
    with mp.workdps(dps):
        k, e, c = mp.mpf(index), mp.mpf(eps), mp.cbrt(4)
        integral = mp.quad(lambda s: s ** (2 * k) * _airyai_at(c * (e + s * s), mp.mp.prec),
                           [0, 4], method="gauss-legendre")
        return float(c / (mp.sqrt(mp.pi) * mp.gamma(k + 0.5)) * integral)


def airy_integral_mp(x: float, dps: int = 30) -> float:
    """Ai_1(x) = int_0^x Ai by mpmath quadrature."""
    with mp.workdps(dps):
        return float(mp.quad(mp.airyai, [0, x]))


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return {}
    return __cpu_features__


#: The tests that compare a point with a plane, or the same values computed in
#: arrays of different lengths, bit for bit need numpy to round each element of
#: an exp, log, sin, cos or division the same at every array length, and to
#: divide a complex by a real as a product with the reciprocal.  Both were
#: verified with numpy 2.4 dispatching to AVX-512 (Skylake-X and later) loops;
#: they are properties of the numpy build and its SIMD paths, not of the
#: physics.  On any other numpy or CPU those tests use a stated tolerance.
BIT_EXACT = np.__version__.startswith("2.4.") and bool(_cpu_features().get("AVX512_SKX"))


def assert_same_floats(got, want, tol: float, scale=None) -> None:
    """got equals want bit for bit where BIT_EXACT holds; elsewhere within
    tol times scale (default |want|), elementwise."""
    got, want = np.asarray(got), np.asarray(want)
    if BIT_EXACT:
        assert np.array_equal(got, want)
    else:
        scale = np.abs(want) if scale is None else scale
        assert np.all(np.abs(got - want) <= tol * scale)


def beam_mantissa(weights, table, alpha, xi, ups, zeta_t):
    """The closed-form Q brackets of the Gaussian beams (l <= 1):
    sum_w w psi_lm / [beta (bF)^3 Lambda(eps_t) e^logq] over a Q mantissa table,

    psi_00   = -4 Q_1,
    psi_10   =  4 sqrt(2) alpha [2 zeta_t Q_2 - 4 alpha^2 Q_1 + Q_0],
    psi_1+-1 = -+ 8 alpha (xi +- i upsilon) Q_2,

    with every Q at the virtual point (rho_t, zeta_t; eps_t).  The table and the
    coordinates may be floats or arrays.
    """
    total = 0.0
    for idx, w in weights.items():
        if idx.l == 0:
            psi = -4.0 * table[1]
        elif idx.m == 0:
            bracket = 2.0 * zeta_t * table[2] - 4.0 * alpha**2 * table[1] + table[0]
            psi = 4.0 * math.sqrt(2.0) * alpha * bracket
        else:
            psi = -idx.m * 8.0 * alpha * (xi + 1j * idx.m * ups) * table[2]
        total = total + w * psi
    return total


def wave_per_term(amplitudes, p, eps: float, grad: bool = False):
    """Reference for ballistic._wave (same signature and result): the per-term
    assembly that preceded its cached plan.  Each (key, j) term is formed from
    the public harmonics API, c = lambda 2^j T_jlm times K_jm(p) by klm_eval
    (and grad K_jm by klm_grad), summed per Q order and read from the library's
    own Q table; only the term assembly is independent.  Amplitude sequences
    become numpy arrays, one wave per element.
    """
    from ballisticwaves.airyq import QArgs, _q_table_scaled, q_table_scaled_grid
    from ballisticwaves.harmonics import MultipoleIndex, klm_eval, klm_grad, translation_coeff_t

    kk, dk = {}, {}  # per Q order k: sum c K_jm, sum c grad K_jm
    for idx, lam in amplitudes.items():
        lam = np.asarray(lam) if isinstance(lam, (list, tuple)) else lam
        for j in range(abs(idx.m), idx.l + 1):
            jdx, k = MultipoleIndex(j, idx.m), 2 * j - idx.l + 1
            c = lam * 2.0**j * translation_coeff_t(j, idx.l, idx.m)
            kk[k] = kk.get(k, 0.0) + c * klm_eval(jdx, p)
            if grad:
                dk[k] = [s + c * d for s, d in zip(dk.get(k, (0.0,) * 3), klm_grad(jdx, p))]
    ks = sorted(kk)
    orders = sorted(set(ks).union(*({k - 1, k + 1} for k in dk)))
    x, y, z = p
    if any(isinstance(v, np.ndarray) for v in p):
        rho = np.sqrt(x * x + y * y + z * z)
        keys, inv = np.unique(rho + 1j * z if np.ndim(z) else rho, return_inverse=True)
        zeta = keys.imag if np.ndim(z) else z
        tab, logscale = q_table_scaled_grid(orders[-1], keys.real, zeta, eps, orders[0])
        inv = inv.reshape(rho.shape)
        q, logscale = {k: tab[k][inv] for k in orders}, logscale[inv]
    else:
        rho = math.sqrt(x * x + y * y + z * z)
        q, logscale = _q_table_scaled(orders[-1], QArgs(rho, z, eps), orders[0])
    psi = sum(kk[k] * q[k] for k in ks)
    if not grad:
        return psi, None, logscale
    up = -2.0 * sum(kk[k] * q[k + 1] for k in ks)
    g = [up * x, up * y, up * z + sum(kk[k] * q[k - 1] for k in ks)]
    g = [gi + sum(dk[k][i] * q[k] for k in ks) for i, gi in enumerate(g)]
    return psi, np.stack(np.broadcast_arrays(*g), axis=-1), logscale


def spherical_hankel_mp(l: int, u: float, dps: int = 30) -> complex:
    """h_l^(+)(u) = -y_l(u) + i j_l(u) from mpmath's Bessel functions of order
    l + 1/2, j_l = sqrt(pi/2u) J_{l+1/2}(u) and y_l likewise (DLMF 10.47.3),
    each part rounded once."""
    with mp.workdps(dps):
        u = mp.mpf(u)
        f = mp.sqrt(mp.pi / (2 * u))
        nu = l + mp.mpf(1) / 2
        return complex(float(-f * mp.bessely(nu, u)), float(f * mp.besselj(nu, u)))
