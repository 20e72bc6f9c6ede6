"""Two-path semiclassical and tunneling approximations to far-field profiles.

For classically allowed emission (E > 0) a particle reaches a distant screen
point by a direct ("fast") and a caustic-reflected ("slow") parabolic path;
their interference modulates the classical cross section into a ring pattern.
For E < 0 the same formulas, analytically continued, describe exponentially
suppressed tunneling emission without interference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, RegimeError
from .harmonics import MultipoleIndex
from .specfun import assoc_legendre_abs2

__all__ = [
    "ScreenPoint",
    "classical_radius",
    "tunneling_radius",
    "classical_cross_section",
    "reduced_action",
    "closed_orbit_action",
    "two_path_profile",
    "semiclassical_profile",
    "tunneling_profile",
    "paraxial_tunneling_profile",
]


@dataclass(frozen=True)
class ScreenPoint:
    """Lateral position (R, phi) on a detector plane at distance z, energy E."""

    R: float
    phi: float
    z: float
    E: float

    def __post_init__(self) -> None:
        if self.R < 0.0:
            raise DomainError(f"lateral radius must be >= 0, got {self.R}")
        if self.z <= 0.0:
            raise DomainError(f"screen distance must be > 0, got {self.z}")


def classical_radius(p: ScreenPoint, ctx) -> float:
    """Asymptotic radius R_cl of the classically allowed disc, R_cl^2 = 4Ez/F."""
    if p.E <= 0.0:
        raise RegimeError("classically allowed motion requires E > 0")
    return math.sqrt(4.0 * p.E * p.z / ctx.force)


def tunneling_radius(p: ScreenPoint, ctx) -> float:
    """Tunneling analog R_tun with R_tun^2 = 4|E|z/F (E < 0)."""
    if p.E >= 0.0:
        raise RegimeError("tunneling regime requires E < 0")
    return math.sqrt(4.0 * abs(p.E) * p.z / ctx.force)


def classical_cross_section(p: ScreenPoint, ctx) -> float:
    """Differential cross section R_cl^2 sqrt(1 - R^2/R_cl^2) of either path.

    Its inverse (the trajectory density on the screen) diverges at the
    caustic R = R_cl, which is reported as a regime error.
    """
    r_cl = classical_radius(p, ctx)
    if p.R >= r_cl:
        raise RegimeError(
            f"R={p.R:g} lies on or beyond the caustic R_cl={r_cl:g}"
        )
    return r_cl**2 * math.sqrt(1.0 - (p.R / r_cl) ** 2)


def _alphas(p: ScreenPoint, ctx) -> tuple[float, float]:
    a = ctx.qargs((p.R, 0.0, p.z), p.E)
    return a.alpha_minus, a.alpha_plus


def reduced_action(p: ScreenPoint, branch: str, ctx) -> float:
    """Reduced action W^(+-) = (2 hbar/3)[(-a+)^{3/2} +- (-a-)^{3/2}].

    branch "fast" is the direct path (lower sign), "slow" the path reflected
    at the turning surface (upper sign); the slow path additionally acquires
    a -pi/2 reflection phase that is applied in the profile formulas, not
    included in the action itself.
    """
    if branch not in ("fast", "slow"):
        raise DomainError(f"branch must be 'fast' or 'slow', got {branch!r}")
    am, ap = _alphas(p, ctx)
    if am > 0.0 or ap > 0.0:
        raise RegimeError(
            f"classically allowed region requires alpha_-, alpha_+ <= 0 "
            f"(got alpha_-={am:g}, alpha_+={ap:g})"
        )
    sign = 1.0 if branch == "slow" else -1.0
    return (2.0 * ctx.hbar / 3.0) * ((-ap) ** 1.5 + sign * (-am) ** 1.5)


def closed_orbit_action(E: float, ctx) -> float:
    """Action W_co = 4 hbar (2 beta E)^{3/2} / 3 of the orbit returning to the source."""
    if E <= 0.0:
        raise RegimeError("closed orbit exists only for E > 0")
    return 4.0 * ctx.hbar * (2.0 * ctx.beta * E) ** 1.5 / 3.0


def two_path_profile(
    amplitude: Callable[[float, float], complex], p: ScreenPoint, ctx
) -> float:
    """General two-path current density for a source amplitude A(theta, phi).

    j = (d Omega / d sigma_cl) |A(pi-theta, phi) e^{i s+} + A(theta, phi) e^{i s-}|^2
    with semiclassical phases s+- = W^(+-)/hbar (minus pi/2 for the reflected
    path) and the projection law sin(theta) = R/R_cl.
    """
    r_cl = classical_radius(p, ctx)
    cross = classical_cross_section(p, ctx)
    theta = math.asin(min(p.R / r_cl, 1.0))
    w_slow = reduced_action(p, "slow", ctx)
    w_fast = reduced_action(p, "fast", ctx)
    amp = amplitude(math.pi - theta, p.phi) * complex(
        math.cos(w_slow / ctx.hbar - 0.5 * math.pi),
        math.sin(w_slow / ctx.hbar - 0.5 * math.pi),
    ) + amplitude(theta, p.phi) * complex(
        math.cos(w_fast / ctx.hbar), math.sin(w_fast / ctx.hbar)
    )
    return abs(amp) ** 2 / cross


def _wavenumber(E: float, ctx) -> float:
    return math.sqrt(2.0 * ctx.mass * abs(E)) / ctx.hbar


def semiclassical_profile(idx: MultipoleIndex, p: ScreenPoint, ctx) -> float:
    """Two-path interference profile of a pure (l, m) source, E > 0.

    j = [M k^{2l+1} / 4 pi^3 hbar^3] (2l+1)/(R_cl sqrt(R_cl^2 - R^2))
        * (l-|m|)!/(l+|m|)! P_l^|m|(cos theta)^2
        * sin^2{(2/3)[2 beta E (1 - R^2/R_cl^2)]^{3/2} +- pi/4},
    upper sign for even l - |m| (the pattern reverses under parity change).
    The source amplitude is normalized to the free-space (Wigner) rate.
    """
    r_cl = classical_radius(p, ctx)
    if p.R >= r_cl:
        raise RegimeError(f"R={p.R:g} beyond the caustic R_cl={r_cl:g}")
    l, m = idx.l, abs(idx.m)
    k = _wavenumber(p.E, ctx)
    cos_th = math.sqrt(1.0 - (p.R / r_cl) ** 2)
    phase = (2.0 / 3.0) * (2.0 * ctx.beta * p.E * cos_th**2) ** 1.5
    sign = 1.0 if (l - m) % 2 == 0 else -1.0
    return (
        ctx.mass
        * k ** (2 * l + 1)
        / (4.0 * math.pi**3 * ctx.hbar**3)
        * (2 * l + 1)
        / (r_cl * math.sqrt(r_cl**2 - p.R**2))
        * math.factorial(l - m)
        / math.factorial(l + m)
        * assoc_legendre_abs2(l, m, cos_th)
        * math.sin(phase + sign * 0.25 * math.pi) ** 2
    )


def tunneling_profile(idx: MultipoleIndex, p: ScreenPoint, ctx) -> float:
    """Analytically continued profile for E < 0 (no interference).

    j = [M kappa^{2l+1} / 16 pi^3 hbar^3] (2l+1)/(R_tun sqrt(R_tun^2 + R^2))
        * (l-|m|)!/(l+|m|)! |P_l^|m|(sqrt(1 + R^2/R_tun^2))|^2
        * exp{-(4/3)[-2 beta E (1 + R^2/R_tun^2)]^{3/2}}.
    """
    r_tun = tunneling_radius(p, ctx)
    l, m = idx.l, abs(idx.m)
    kappa = _wavenumber(p.E, ctx)
    arg = 1.0 + (p.R / r_tun) ** 2
    expo = -(4.0 / 3.0) * (2.0 * ctx.beta * abs(p.E) * arg) ** 1.5
    return (
        ctx.mass
        * kappa ** (2 * l + 1)
        / (16.0 * math.pi**3 * ctx.hbar**3)
        * (2 * l + 1)
        / (r_tun * math.sqrt(r_tun**2 + p.R**2))
        * math.factorial(l - m)
        / math.factorial(l + m)
        * assoc_legendre_abs2(l, m, math.sqrt(arg))
        * math.exp(expo)
    )


def paraxial_tunneling_profile(idx: MultipoleIndex, p: ScreenPoint, ctx) -> float:
    """Small-R Gaussian limit of the tunneling profile.

    j ~ [M kappa^{2l+1} / 16 pi^3 hbar^3]
        (2l+1)(l+|m|)! / (2^{2|m|} (|m|!)^2 (l-|m|)!)
        * R^{2|m|} / R_tun^{2|m|+2}
        * exp(-kappa R^2 / 2z - kappa^3 / 6 (beta F)^3):
    a WKB ramp penetration factor times a centrifugal power law times a
    Gaussian whose width is independent of the force strength.
    """
    r_tun = tunneling_radius(p, ctx)
    l, m = idx.l, abs(idx.m)
    kappa = _wavenumber(p.E, ctx)
    bf = ctx.beta_f
    return (
        ctx.mass
        * kappa ** (2 * l + 1)
        / (16.0 * math.pi**3 * ctx.hbar**3)
        * (2 * l + 1)
        * math.factorial(l + m)
        / (2 ** (2 * m) * math.factorial(m) ** 2 * math.factorial(l - m))
        * p.R ** (2 * m)
        / r_tun ** (2 * m + 2)
        * math.exp(-kappa * p.R**2 / (2.0 * p.z) - kappa**3 / (6.0 * bf**3))
    )
