"""Free-particle partial waves, Wigner currents and extended-source strengths.

The field-free problem serves as the reference limit of the accelerated one:
its Green function is an outgoing spherical wave, multipole waves reduce to
spherical Hankel partial waves, and the emission rate of an (l, m) source
follows Wigner's threshold law.  Extended sources map onto point multipoles
with strengths given by a radial Bessel transform of the source profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ballistic import HBAR
from .errors import DomainError, SingularityError
from .harmonics import MultipoleIndex, klm_eval
from .specfun import _double_factorial

__all__ = [
    "RadialSourceProfile",
    "green_free",
    "green_free_lm",
    "wigner_current",
    "extended_source_strength",
    "free_total_current",
]


@dataclass(frozen=True)
class RadialSourceProfile:
    """Radial coefficient function sigma_lm(R) of an extended source.

    samples holds (R, sigma_lm(R)) pairs on an increasing radial grid with
    compact support; the profile is taken to vanish beyond the last sample.
    """

    idx: MultipoleIndex
    samples: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        radii = [r for r, _ in self.samples]
        if len(radii) < 3:
            raise DomainError("need at least 3 radial samples")
        if radii[0] < 0.0 or any(b <= a for a, b in zip(radii, radii[1:])):
            raise DomainError("radial grid must be increasing and nonnegative")


def _wavenumber(E: float, mass: float, hbar: float) -> float:
    return math.sqrt(2.0 * mass * E) / hbar


def green_free(r, r_src, E: float, mass: float, hbar: float = HBAR) -> complex:
    """Free outgoing-wave Green function -(M/2 pi hbar^2) e^{ikd}/d.

    For E <= 0 the analytic continuation k -> i kappa is returned (a decaying
    evanescent kernel), which is the natural extension below threshold.
    """
    d = math.dist(tuple(map(float, r)), tuple(map(float, r_src)))
    if d == 0.0:
        raise SingularityError("green_free diverges at r = r'")
    pref = -mass / (2.0 * math.pi * hbar**2)
    if E > 0.0:
        k = _wavenumber(E, mass, hbar)
        return pref * complex(math.cos(k * d), math.sin(k * d)) / d
    kappa = _wavenumber(-E, mass, hbar)
    return complex(pref * math.exp(-kappa * d) / d)


def _spherical_hankel_plus(l: int, u: float) -> complex:
    """Outgoing h_l^(+)(u) = n_l(u) + i j_l(u), u > 0, with the Neumann convention
    n_l = -y_l, so that h_0^(+)(u) = e^{iu}/u.

    Both parts run the upward recurrence h_{n+1} = (2n+1)/u h_n - h_{n-1} (DLMF
    10.51.1) from h_0 and h_1 = e^{iu} (1/u - i)/u, which is stable for y_l at
    every u and for j_l where u > l.  Where u <= l, j_l is the minimal solution
    the recurrence loses, and it is summed from the power series (DLMF 10.53.1)
    j_l(u) = u^l/(2l+1)!! sum_k (-u^2/2)^k / (k! (2l+3)(2l+5)...(2l+2k+1)),
    whose alternating terms cancel little there (j_l is positive and rising
    for u <= l).
    """
    s, c = math.sin(u), math.cos(u)
    h0, h1 = complex(c, s) / u, complex(c / u + s, s / u - c) / u
    if l == 0:
        return h0
    for n in range(1, l):
        h0, h1 = h1, (2 * n + 1) / u * h1 - h0
    if u > l:
        return h1
    t = u**l / _double_factorial(2 * l + 1)
    x, jl, k = -0.5 * u * u, t, 0
    while abs(t) > 1e-17 * jl:
        k += 1
        t *= x / (k * (2 * l + 2 * k + 1))
        jl += t
    return complex(h1.real, jl)


def green_free_lm(
    idx: MultipoleIndex, R, E: float, mass: float, hbar: float = HBAR
) -> complex:
    """Free multipole wave -(M k^{l+1}/2 pi hbar^2) h_l^{(+)}(kR) Y_lm(R_hat).

    h_l^{(+)} comes from _spherical_hankel_plus (recurrence and power series;
    each part within 1e-13 relative for l <= 12, kR in [1e-2, 1e3], except
    close to that part's zeros, where its relative error grows as 1/|part|),
    so the call imports no scipy.
    """
    if E <= 0.0:
        raise DomainError("green_free_lm requires E > 0")
    x, y, z = map(float, R)
    dist = math.sqrt(x * x + y * y + z * z)
    if dist == 0.0:
        raise SingularityError("green_free_lm diverges at the source point")
    k = _wavenumber(E, mass, hbar)
    ylm = klm_eval(idx, (x / dist, y / dist, z / dist))
    return (
        -mass
        * k ** (idx.l + 1)
        / (2.0 * math.pi * hbar**2)
        * _spherical_hankel_plus(idx.l, k * dist)
        * ylm
    )


def wigner_current(idx: MultipoleIndex, E: float, mass: float, hbar: float = HBAR) -> float:
    """Free multipole emission rate J = M k^{2l+1} / (4 pi^2 hbar^3).

    Independent of m; vanishes at threshold for all l >= 0 (Wigner's law).
    """
    if E < 0.0:
        raise DomainError("wigner_current requires E >= 0")
    k = _wavenumber(E, mass, hbar)
    return mass * k ** (2 * idx.l + 1) / (4.0 * math.pi**2 * hbar**3)


def extended_source_strength(
    profile: RadialSourceProfile, E: float, mass: float, hbar: float = HBAR
) -> float:
    """Point-multipole strength lambda_lm of an extended source.

    lambda_lm = (4 pi / k^l) * integral R^{l+2} j_l(kR) sigma_lm(R) dR,
    reducing at threshold (E = 0) to 4 pi gamma_lm / (2l+1)!! with
    gamma_lm = integral R^{2l+2} sigma_lm(R) dR.  It keeps scipy: the
    transform takes scipy's spherical_jn on the whole radial grid and its
    Simpson rule.
    """
    # Imported here, as every scipy use in the package is: scipy.integrate (with
    # scipy.optimize and scipy.sparse.linalg) alone costs about 0.35 s.
    from scipy.integrate import simpson
    from scipy.special import spherical_jn

    l = profile.idx.l
    radii = np.array([r for r, _ in profile.samples])
    vals = np.array([s for _, s in profile.samples])
    if E < 0.0:
        raise DomainError("extended_source_strength requires E >= 0")
    if E == 0.0:
        gamma = simpson(radii ** (2 * l + 2) * vals, x=radii)
        return 4.0 * math.pi * gamma / _double_factorial(2 * l + 1)
    k = _wavenumber(E, mass, hbar)
    integrand = radii ** (l + 2) * spherical_jn(l, k * radii) * vals
    return 4.0 * math.pi / k**l * float(simpson(integrand, x=radii))


def free_total_current(
    strengths: dict[MultipoleIndex, complex], E: float, mass: float, hbar: float = HBAR
) -> float:
    """Total rate of a source decomposed into multipole strengths lambda_lm.

    The free current matrix is diagonal, so the rate is the weighted sum
    sum |lambda_lm|^2 J_lm over the components.
    """
    return sum(
        abs(lam) ** 2 * wigner_current(idx, E, mass, hbar)
        for idx, lam in strengths.items()
    )
