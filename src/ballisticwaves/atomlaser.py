"""Atom-laser beams outcoupled from Gaussian condensate sources by gravity.

A weakly rf-coupled Bose-Einstein condensate acts as a Gaussian source of
matter waves falling in the gravitational field.  In the far field the
Gaussian source maps onto a displaced virtual point source of strength
Lambda: a beam is Lambda times the point multipole wave of ballistic._wave at
the shifted (tilde) variables, and outcoupling rates are Qi values there.
Vortex states carry angular momentum into the beam; a rotating vortex
lattice decomposes into circular (m, m) components with polynomial weights.

All compositions of the huge factors Lambda ~ e^(2 alpha^2 eps_t) with the
exponentially small Q/Qi values are performed in log space.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .airyq import _q_diagonal_blocks, qi_scaled
from .ballistic import G_EARTH, HBAR, RB87_MASS, DetectorGrid, PhysicalContext, _exp, _wave
from .errors import (
    DomainError,
    RegimeError,
    SingularityError,
    StabilityWarning,
    UnsupportedOrderError,
)
from .harmonics import MultipoleIndex

__all__ = [
    "GaussianSource",
    "ScaledVars",
    "VortexLattice",
    "rb87_context",
    "scaled_vars",
    "virtual_strength",
    "log_virtual_strength",
    "beam_psi_00",
    "beam_psi_1m",
    "beam_psi_perp",
    "gaussian_multipole_current",
    "vortex_current_1m",
    "perp_vortex_current",
    "perp_vortex_source",
    "farfield_density",
    "beam_density_grid",
    "lattice_beam_grid",
    "triangular_vortex_positions",
    "lattice_coeffs",
    "lattice_norm",
    "lattice_beam",
    "lattice_spectrum",
]

#: Highest vortex count handled by the lattice beam (Q recursion depth).
LATTICE_N_MAX = 40

#: vortex_current_1m (m = 0) warns when its Qi bracket cancels more digits
#: than this, estimated as log10(max |term| / |bracket|).
J10_LOSS_DIGITS_MAX = 6.0


@dataclass(frozen=True)
class GaussianSource:
    """Isotropic Gaussian condensate source of N atoms, rf coupling Omega.

    The source wave function is sigma_lm = N_l K_lm(grad) applied to the
    ground Gaussian of width a, normalized to integral |sigma|^2 = N (hbar
    Omega)^2.
    """

    n_atoms: float
    rabi: float
    width: float
    idx: MultipoleIndex = MultipoleIndex(0, 0)

    def __post_init__(self) -> None:
        if self.n_atoms <= 0 or self.rabi <= 0 or self.width <= 0:
            raise DomainError("n_atoms, rabi and width must all be positive")


@dataclass(frozen=True)
class ScaledVars:
    """Dimensionless beam variables shifted to the virtual point source.

    alpha = beta F a is the scaled condensate width; zeta_t = zeta + 2
    alpha^4 and eps_t = eps + 4 alpha^4 are the shifted height and energy,
    rho_t the shifted hyperradius.  The lateral coordinates xi, upsilon are
    unshifted.
    """

    alpha: float
    xi: float
    upsilon: float
    zeta_t: float
    rho_t: float
    eps_t: float


@dataclass(frozen=True)
class VortexLattice:
    """Vortex positions v_k = x_k + i y_k of a rotating condensate source."""

    positions: tuple[complex, ...]
    rot: float
    width: float
    n_atoms: float
    rabi: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.n_atoms <= 0 or self.rabi <= 0:
            raise DomainError("width, n_atoms and rabi must be positive")
        if len(self.positions) > LATTICE_N_MAX:
            raise UnsupportedOrderError(
                f"at most {LATTICE_N_MAX} vortices supported, got {len(self.positions)}"
            )

    @property
    def n(self) -> int:
        """Number of vortices = highest angular momentum component."""
        return len(self.positions)

    @functools.cached_property
    def _coeffs(self) -> np.ndarray:
        """lattice_coeffs, built once per lattice; callers must not modify it."""
        coeffs = np.array([1.0 + 0.0j])
        for v in sorted(self.positions, key=abs):
            coeffs = np.convolve(coeffs, np.array([-v, 1.0 + 0.0j]))
        return coeffs

    @functools.cached_property
    def _components(self):
        """(m, orders, log_w, unit, slots, (b, j)) over the components m with
        w_m != 0: m as floats, the Q orders m + 1, log|w_m| + m log a - 0.5
        _log_sum, w_m / |w_m|, and the row of each in a (b, j) layout, b j >= n + 1,
        where row i j + jj holds m = jj b + i (the layout of the two-level
        Horner sum of _lattice_psi)."""
        a = self.width
        comps = [(m, wm) for m, wm in enumerate(self._coeffs) if wm != 0.0]
        ms = [m for m, _ in comps]
        log_w = [math.log(abs(wm)) + m * math.log(a) - 0.5 * self._log_sum for m, wm in comps]
        b = math.isqrt(self.n + 1)
        j = -(-(self.n + 1) // b)
        return (
            np.array(ms, dtype=float),
            tuple(m + 1 for m in ms),
            np.array(log_w),
            np.array([wm / abs(wm) for _, wm in comps]),
            np.array([m % b * j + m // b for m in ms]),
            (b, j),
        )

    @functools.cached_property
    def _log_sum(self) -> float:
        """log of sum_k k! |w_k|^2 a^{2k}, built once per lattice."""
        a = self.width
        terms = [
            math.lgamma(k + 1) + 2.0 * math.log(abs(wk)) + 2.0 * k * math.log(a)
            for k, wk in enumerate(self._coeffs)
            if wk != 0.0
        ]
        return float(_logsumexp(terms))


def rb87_context() -> PhysicalContext:
    """Physical context for Rb-87 atoms falling under gravity."""
    return PhysicalContext(mass=RB87_MASS, force=RB87_MASS * G_EARTH)


def scaled_vars(r, E: float, ctx: PhysicalContext, a: float) -> ScaledVars:
    """Shifted dimensionless variables of the virtual point source."""
    x, y, z = (float(c) for c in r)
    bf = ctx.beta_f
    alpha = bf * a
    xi, ups = bf * x, bf * y
    zeta_t = bf * z + 2.0 * alpha**4
    eps_t = ctx.eps(E) + 4.0 * alpha**4
    rho_t = math.sqrt(xi * xi + ups * ups + zeta_t * zeta_t)
    return ScaledVars(alpha, xi, ups, zeta_t, rho_t, eps_t)


def log_virtual_strength(
    n_atoms: float, rabi: float, a: float, eps_t: float, ctx: PhysicalContext
) -> float:
    """log Lambda(eps_t); Lambda is strongly energy- and size-dependent.

    eps_t is a float or an array (one energy per lattice component); each
    element takes the float call's operations in the same order.
    """
    alpha = ctx.beta_f * a
    return (
        0.5 * math.log(n_atoms)
        + math.log(ctx.hbar * rabi)
        + 1.5 * math.log(2.0 * math.sqrt(math.pi) * a)
        + 2.0 * alpha**2 * (eps_t - 4.0 * alpha**4 / 3.0)
    )


def virtual_strength(src: GaussianSource, E: float, ctx: PhysicalContext) -> float:
    """Virtual point-source strength Lambda(eps_t) (may overflow to inf)."""
    eps_t = ctx.eps(E) + 4.0 * (ctx.beta_f * src.width) ** 4
    logval = log_virtual_strength(src.n_atoms, src.rabi, src.width, eps_t, ctx)
    return _exp(logval)


_S00, _P10 = MultipoleIndex(0, 0), MultipoleIndex(1, 0)


def _beam(weights, src: GaussianSource, x, y, z: float, E: float, ctx: PhysicalContext):
    """(psi, logscale) of the beam sum_w w psi_w at lateral x, y (floats or arrays)
    on the height z.  An l <= 1 beam is a point multipole wave from the virtual
    point xi = bF x, upsilon = bF y, zeta_t = bF z + 2 alpha^4, eps_t = eps + 4 alpha^4:
      psi_00 = 2 sqrt(pi) Lambda G_00,  psi_1+-1 = -sqrt(8 pi/3) (alpha/bF) Lambda G_1+-1,
      psi_10 = -sqrt(8 pi/3) (alpha/bF) Lambda G_10 + 8 sqrt(2 pi) alpha^3 Lambda G_00,
    the last term the energy derivative d/dz' = -d/dz + F d/dE.  One _wave call
    serves all weights: several at a point are one amplitude column each, weighted
    after, so a sum of beams rounds as its single-source calls; else they are folded
    into the amplitudes, at less cost.
    """
    bf = ctx.beta_f
    alpha = bf * src.width
    eps_t = ctx.eps(E) + 4.0 * alpha**4
    amps: dict[MultipoleIndex, list] = {}
    for i, idx in enumerate(weights):
        amp = {idx: -math.sqrt(8.0 * math.pi / 3.0) * alpha if idx.l else 2.0 * math.sqrt(math.pi)}
        if idx == _P10:
            amp[_S00] = 8.0 * math.sqrt(2.0 * math.pi) * alpha**3
        for jdx, c in amp.items():
            amps.setdefault(jdx, [0.0] * len(weights))[i] = c
    w = list(weights.values())
    fold = len(w) == 1 or isinstance(x, np.ndarray) or isinstance(y, np.ndarray)
    if fold:
        amps = {jdx: w[0] * a[0] if len(w) == 1 else float(np.dot(w, a)) for jdx, a in amps.items()}
    psi, _, logq = _wave(amps, (bf * x, bf * y, bf * z + 2.0 * alpha**4), eps_t)
    psi = psi if fold else sum(map(operator.mul, w, psi))
    logl = log_virtual_strength(src.n_atoms, src.rabi, src.width, eps_t, ctx)
    return -4.0 * ctx.beta * bf**3 * psi, logl + logq


def _beam_point(weights, src: GaussianSource, r, E: float, ctx: PhysicalContext) -> complex:
    """A beam at one point: its pixel's wave, inf in size where the beam overflows."""
    if math.sqrt(sum(float(c) ** 2 for c in r)) < 3.0 * src.width:
        warnings.warn(
            "evaluation point lies within 3 source widths of the condensate; "
            "the virtual-source mapping is unreliable there",
            StabilityWarning,
            stacklevel=3,
        )
    psi, logscale = _beam(weights, src, *(float(c) for c in r), E, ctx)
    return complex(psi * _exp(logscale))


def beam_psi_00(src: GaussianSource, r, E: float, ctx: PhysicalContext) -> complex:
    """Beam wave function of the vortex-free Gaussian source, 2 sqrt(pi) Lambda(eps_t)
    G_00 at the virtual point (= -4 beta (beta F)^3 Lambda Q_1(rho_t, zeta_t; eps_t))."""
    return _beam_point({_S00: 1.0}, src, r, E, ctx)


def beam_psi_1m(src: GaussianSource, r, E: float, ctx: PhysicalContext) -> complex:
    """Beam wave function of an l = 1 Gaussian multipole source, the virtual point
    multipole wave of _beam (psi_1+-1 = -+ 8 beta (bF)^3 alpha Lambda (xi +- i upsilon) Q_2)."""
    if src.idx.l != 1:
        raise DomainError(f"beam_psi_1m requires an l = 1 source, got l={src.idx.l}")
    return _beam_point({src.idx: 1.0}, src, r, E, ctx)


_PERP_WEIGHTS = {
    MultipoleIndex(1, 1): 0.5,
    MultipoleIndex(1, 0): math.sqrt(2.0) / 2.0,
    MultipoleIndex(1, -1): 0.5,
}


def perp_vortex_source(src: GaussianSource) -> dict[MultipoleIndex, float]:
    """Weights of the x-axis (perpendicular) vortex in the (1, m) basis.

    sigma_perp = (1/2)[sigma_11 + sqrt(2) sigma_10 + sigma_1,-1]; the squared
    weights 1/4 + 1/2 + 1/4 sum to one.
    """
    if src.idx.l != 1:
        raise DomainError("perpendicular vortex requires an l = 1 source")
    return dict(_PERP_WEIGHTS)


def beam_psi_perp(src: GaussianSource, r, E: float, ctx: PhysicalContext) -> complex:
    """Beam wave function of a vortex perpendicular to the force."""
    return _beam_point(perp_vortex_source(src), src, r, E, ctx)


def gaussian_multipole_current(
    m: int, n_atoms: float, rabi: float, a: float, E, ctx: PhysicalContext
):
    """Outcoupling rate of the circular (m, m) Gaussian multipole source.

    J_mm = (8/hbar) beta (bF)^3 (2 alpha)^{2m} Lambda(eps_t)^2 Qi_{m+1}(eps_t).
    E is a float or an ndarray; an array gives an array of its shape, from
    one array Qi call.
    """
    if m < 0:
        m = -m
    alpha = ctx.beta_f * a
    eps_t = ctx.eps(E) + 4.0 * alpha**4
    logl = log_virtual_strength(n_atoms, rabi, a, eps_t, ctx)
    mant, logqi = qi_scaled(m + 1, eps_t)
    logmag = (
        math.log(8.0 / ctx.hbar * ctx.beta * ctx.beta_f**3)
        + 2.0 * m * math.log(2.0 * alpha)
        + 2.0 * logl
        + logqi
    )
    return mant * _exp(logmag)


def vortex_current_1m(
    src: GaussianSource, E, ctx: PhysicalContext, mode: str = "exact"
):
    """Total current of an l = 1 Gaussian source (single vortex).

    mode "exact" uses the Qi combinations; "large-alpha" the Gaussian
    approximations around resonance; "slicing" the Franck-Condon integral of
    the condensate density over the resonance plane E + Fz = 0 (closed form
    for Gaussian sources; identical to "large-alpha" for this family).
    E is a float or an ndarray; an array gives an array of its shape, and
    the J_10 cancellation warning, at most one per call, names the worst
    loss and the eps_t where it occurs.
    """
    if src.idx.l != 1:
        raise DomainError(f"vortex_current_1m requires l = 1, got l={src.idx.l}")
    m = abs(src.idx.m)
    a = src.width
    alpha = ctx.beta_f * a
    eps = ctx.eps(E)
    if mode in ("large-alpha", "slicing"):
        envelope = _exp(-(eps**2) / (4.0 * alpha**2))
        nhw2 = src.n_atoms * (ctx.hbar * src.rabi) ** 2
        if m == 1:
            return 2.0 * math.sqrt(math.pi) * nhw2 / (ctx.hbar * ctx.force * a) * envelope
        return (
            4.0
            * math.sqrt(math.pi)
            * nhw2
            / (ctx.hbar * ctx.force * a)
            * (eps**2 / (4.0 * alpha**2))
            * envelope
        )
    if mode != "exact":
        raise DomainError(f"unknown mode {mode!r}")
    if m == 1:
        return gaussian_multipole_current(1, src.n_atoms, src.rabi, a, E, ctx)
    # J_10: the Qi_2 + 8 a^4 Qi_1 - 4 a^2 Qi_0 + Qi_{-1}/2 combination
    eps_t = eps + 4.0 * alpha**4
    logl = log_virtual_strength(src.n_atoms, src.rabi, a, eps_t, ctx)
    m2, logqi = qi_scaled(2, eps_t)
    m1, _ = qi_scaled(1, eps_t)
    m0, _ = qi_scaled(0, eps_t)
    mm1, _ = qi_scaled(-1, eps_t)
    terms = (m2, 8.0 * alpha**4 * m1, -4.0 * alpha**2 * m0, 0.5 * mm1)
    bracket = sum(terms)
    loss, at = _j10_loss(terms, bracket, eps_t)
    if loss > J10_LOSS_DIGITS_MAX:
        warnings.warn(
            f"J_10 bracket cancels: about {loss:.1f} of 16 digits lost at eps_t={at:.4g}",
            StabilityWarning,
            stacklevel=2,
        )
    logmag = (
        math.log(32.0 / ctx.hbar * ctx.beta * ctx.beta_f**3 * alpha**2)
        + 2.0 * logl
        + logqi
    )
    return bracket * _exp(logmag)


def _j10_loss(terms, bracket, eps_t):
    """(digits the J_10 bracket cancels, estimated as log10(max |term| / |bracket|),
    and its eps_t) at the worst point; floats or arrays."""
    if not isinstance(bracket, np.ndarray):
        return (math.log10(max(map(abs, terms)) / abs(bracket)) if bracket else math.inf), eps_t
    with np.errstate(divide="ignore", invalid="ignore"):
        losses = np.log10(np.max(np.abs(terms), axis=0) / np.abs(bracket)).ravel()
    losses = np.fmax(losses, -math.inf)  # a nan bracket, as a float one, never warns
    if not losses.size:
        return -math.inf, math.nan
    i = np.argmax(losses)
    return losses[i], eps_t.flat[i]


def perp_vortex_current(
    src: GaussianSource, E, ctx: PhysicalContext, mode: str = "exact"
):
    """Total current of the perpendicular vortex: J = [J_11 + J_10]/2.

    E is a float or an ndarray, as in vortex_current_1m.
    """
    j11 = vortex_current_1m(
        GaussianSource(src.n_atoms, src.rabi, src.width, MultipoleIndex(1, 1)),
        E, ctx, mode,
    )
    j10 = vortex_current_1m(
        GaussianSource(src.n_atoms, src.rabi, src.width, MultipoleIndex(1, 0)),
        E, ctx, mode,
    )
    return 0.5 * (j11 + j10)


def farfield_density(
    src: GaussianSource,
    grid: DetectorGrid,
    E: float,
    ctx: PhysicalContext,
    orientation: str = "parallel",
    mode: str = "closed-form",
) -> DetectorGrid:
    """Atom density on a detector plane below a single-vortex condensate.

    mode "closed-form" evaluates the asymptotic Gaussian envelope times the
    modulation factor f_11 (parallel vortex) or f_perp (perpendicular);
    "virtual-source" squares the exact beam wave function of the displaced
    virtual point source (beam_density_grid, the (1, 1) source).
    Any other mode raises DomainError.
    """
    if orientation not in ("parallel", "perpendicular"):
        raise DomainError(f"unknown orientation {orientation!r}")
    a = src.width
    if mode == "virtual-source":
        src11 = GaussianSource(src.n_atoms, src.rabi, a, MultipoleIndex(1, 1))
        return beam_density_grid(src11, grid, E, ctx, orientation)
    if mode != "closed-form":
        raise DomainError(f"unknown mode {mode!r}")
    alpha = ctx.beta_f * a
    if alpha < 2.0:
        warnings.warn(
            f"closed-form far-field density assumes alpha >> 1, got alpha={alpha:.3g}",
            StabilityWarning,
            stacklevel=2,
        )
    bf = ctx.beta_f
    eps = ctx.eps(E)
    zeta = bf * grid.z
    xi = bf * grid.x[None, :]
    ups = bf * grid.y[:, None]
    if orientation == "parallel":
        f = xi**2 + ups**2
    else:
        f = eps**2 / 4.0 + (
            ups - eps * math.sqrt(zeta) / (2.0 * math.sqrt(2.0) * alpha**2)
        ) ** 2
    pref = (
        16.0
        * src.n_atoms
        * (ctx.hbar * src.rabi) ** 2
        * ctx.beta**5
        * ctx.force**3
        * alpha**3
        / (math.sqrt(2.0 * math.pi * zeta) * (zeta + 2.0 * alpha**4) ** 2)
    )
    values = pref * f * np.exp(
        -(eps**2 / (4.0 * alpha**2) + 2.0 * alpha**2 * (xi**2 + ups**2) / (zeta + 2.0 * alpha**4))
    )
    return DetectorGrid(grid.z, grid.x, grid.y, values)


def beam_density_grid(
    src: GaussianSource,
    grid: DetectorGrid,
    E: float,
    ctx: PhysicalContext,
    orientation: str | None = None,
) -> DetectorGrid:
    """Beam density |psi|^2 on a detector plane: the point multipole wave of the
    virtual source (_beam), one Q table entry per distinct radius of the plane.

    Handles the s-wave Gaussian source (src.idx = (0, 0)), the single parallel
    vortex (l = 1 with m = +-1 or m = 0), and orientation "perpendicular" for
    the x-axis vortex superposition; l >= 2 raises DomainError.
    """
    if orientation == "perpendicular":
        weights = _PERP_WEIGHTS
    elif src.idx.l > 1:
        raise DomainError(f"beam_density_grid requires l <= 1, got l={src.idx.l}")
    else:
        weights = {src.idx: 1.0}
    psi, log = _beam(weights, src, grid.x[None, :], grid.y[:, None], grid.z, E, ctx)
    return DetectorGrid(grid.z, grid.x, grid.y, np.abs(psi) ** 2 * np.exp(2.0 * log))


def lattice_beam_grid(
    latt: VortexLattice, grid: DetectorGrid, t: float, E: float, ctx: PhysicalContext
) -> DetectorGrid:
    """Beam density of the rotating lattice on a detector plane (vectorized).

    One Q table serves every angular momentum component on the distinct
    radii, and the components' weights are formed once per distinct (|u|,
    rho_t) pair; see _lattice_psi.  Both work in blocks, so the working memory
    beyond the per-pixel arrays stays about 2 MB whatever the plane.
    Non-finite values are not masked: they reach the caller as they arise
    (inf near the virtual source, where the beam overflows; lattice_beam
    gives the same there).
    """
    bf = ctx.beta_f
    xi = bf * grid.x[None, :] + np.zeros((len(grid.y), 1))
    ups = bf * grid.y[:, None] + np.zeros((1, len(grid.x)))
    zeta_t = bf * grid.z + 2.0 * (bf * latt.width) ** 4
    rho_t = np.sqrt(xi * xi + ups * ups + zeta_t * zeta_t)
    psi = _lattice_psi(latt, xi, ups, zeta_t, rho_t, t, E, ctx)
    return DetectorGrid(grid.z, grid.x, grid.y, np.abs(psi) ** 2)


def triangular_vortex_positions(shells: int, spacing: float) -> tuple[complex, ...]:
    """Hexagonal (triangular-lattice) vortex positions within a shell count.

    shells = 3 with the origin gives the 37-site pattern 1 + 6 + 12 + 18.
    """
    a1 = complex(spacing, 0.0)
    a2 = spacing * cmath.exp(1j * math.pi / 3.0)
    pts = []
    for i in range(-shells, shells + 1):
        for j in range(-shells, shells + 1):
            if max(abs(i), abs(j), abs(i + j)) <= shells:
                pts.append(i * a1 + j * a2)
    pts.sort(key=lambda v: (abs(v), cmath.phase(v)))
    return tuple(pts)


def lattice_coeffs(latt: VortexLattice) -> list[complex]:
    """Coefficients w_k of the monic lattice polynomial prod[(x+iy) - v_k].

    Computed by direct incremental multiplication with roots sorted by
    magnitude; w[k] multiplies (x+iy)^k, w[n] = 1.
    """
    return list(latt._coeffs)


def _logsumexp(a):
    """log sum_i exp(a_i) along axis 0 of a list of floats or of equal arrays.

    A -inf term adds nothing (all -inf give -inf), and a nan anywhere along the
    axis gives nan there.
    """
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - top), axis=0)) + top


def lattice_norm(latt: VortexLattice, a_z: float | None = None) -> float:
    """Normalization constant N_n of the lattice source wave function.

    Only the isotropic trap a_x = a_z is supported; the anisotropic closed
    forms do not exist in this framework.
    """
    a = latt.width
    if a_z is not None and a_z != a:
        raise UnsupportedOrderError("anisotropic traps (a_x != a_z) are not supported")
    # sum_k k! |w_k|^2 a^{2k+2}, with the extra a^2 folded in
    log_sum = latt._log_sum + 2.0 * math.log(a)
    return math.exp(
        0.5 * math.log(latt.n_atoms)
        + math.log(HBAR * latt.rabi)
        - 0.75 * math.log(math.pi)
        - 0.5 * (math.log(a) + log_sum)
    )


#: Distinct radii per block of the lattice kernel, and pixels per block of its
#: sums: a block's Airy values, Q rows, weights and partial sums stay under
#: about 2 MB for 37 vortices.
_LATTICE_RADII = 64
_LATTICE_PIXELS = 512


def _lattice_keys(rho, absu):
    """Pixels grouped by their (rho_t, |u|) pair, the key of the lattice weights.

    Returns (order, key, rho_k, absu_k): the pixels sorted by (rho_t, |u|),
    the index of each sorted pixel's key, and the keys' rho_t and |u|, sorted.
    """
    pairs = np.empty(rho.size, dtype=complex)
    pairs.real, pairs.imag = rho.ravel(), absu.ravel()
    order = np.argsort(pairs)  # complex sorts by real, then imaginary part
    del pairs
    rho, absu = rho.ravel()[order], absu.ravel()[order]
    new = np.ones(rho.size, dtype=bool)
    new[1:] = (rho[1:] != rho[:-1]) | (absu[1:] != absu[:-1])
    return order, np.cumsum(new) - 1, rho[new], absu[new]


def _lattice_psi(latt: VortexLattice, xi, ups, zeta_t: float, rho, t: float, E: float,
                 ctx: PhysicalContext):
    """Lattice beam wave function at lateral arrays (xi, upsilon) of one height.

    rho is rho_t at each point.  Component m has magnitude |w_m| a^m
    Lambda(eps_tm) (2 alpha |u|)^m e^logq and phase (w_m / |w_m|)
    e^{-i e_m t / hbar} e^{i m phi_u} times the Q_{m+1} mantissa.  The Q
    values come from one table over every component energy and the distinct
    radii, in blocks of _LATTICE_RADII.  Per (|u|, rho_t) key the log
    magnitudes are added as lm = const_m + m log(2 alpha |u|) + logq, L is
    their maximum over m, and W_m = phase_m Q_{m+1} e^{lm - L}; every point
    is then e^L times the sum over m of W_m (u / |u|)^m, a Horner sum in
    (u / |u|)^b over Horner sums of b coefficients (see _components), in
    blocks of _LATTICE_PIXELS.  On the axis u = 0 every m > 0 component is
    exactly zero.

    Each point's value is computed from its own (xi, upsilon) alone, with
    elementwise operations on contiguous arrays, so a point and a plane give
    the same floats there as long as numpy rounds each element of exp, log
    and complex arithmetic the same at every array length.  numpy 2.4 does
    on AVX-512 CPUs; a build that does not can move a pixel by about 5e-10
    of its density, one ulp of its log terms (about 2e6) for 37 vortices.
    """
    a = latt.width
    alpha = ctx.beta_f * a
    ms, orders, log_w, unit, slots, (b, nj) = latt._components
    e = E + ms * ctx.hbar * latt.rot
    eps_t = ctx.eps(e) + 4.0 * alpha**4
    const = log_w + log_virtual_strength(latt.n_atoms, latt.rabi, a, eps_t, ctx)
    phase = (unit * np.exp(-1j * e * t / ctx.hbar))[:, None]
    pref = -4.0 * ctx.beta * ctx.beta_f**3

    xi_f, ups_f = xi.ravel(), ups.ravel()
    order, key, rho_k, absu_k = _lattice_keys(rho, np.abs(xi + 1j * ups))
    # the distinct radii of the keys, and each key's radius
    new = np.ones(rho_k.size, dtype=bool)
    new[1:] = rho_k[1:] != rho_k[:-1]
    rho_u, key_r = rho_k[new], np.cumsum(new) - 1
    psi = np.empty(xi.size, dtype=complex)
    key_start = np.searchsorted(key_r, np.arange(0, rho_u.size + _LATTICE_RADII, _LATTICE_RADII))
    pix_start = np.searchsorted(key, key_start)
    blocks = _q_diagonal_blocks(orders, rho_u, zeta_t, eps_t, _LATTICE_RADII)
    for block, (r0, q, logq) in enumerate(blocks):
        k0, k1 = key_start[block], key_start[block + 1]
        kr = key_r[k0:k1] - r0
        absu = absu_k[k0:k1]
        with np.errstate(divide="ignore", invalid="ignore"):
            mlog = np.multiply.outer(ms, np.log(2.0 * alpha * absu))  # -inf on the axis
        if ms[0] == 0:
            mlog[0] = 0.0  # m log(2 alpha |u|) is left out at m = 0, not 0 * -inf
        lm = const[:, None] + mlog + logq[:, kr]
        # Start below every finite log: an axis key whose only components are
        # m > 0 stays at this floor with zero weights, instead of -inf - -inf = nan.
        top = np.maximum(lm.max(axis=0), -sys.float_info.max)
        weight = np.zeros((b * nj, k1 - k0), dtype=complex)
        weight[slots] = phase * q[:, kr] * np.exp(lm - top)
        scale = np.exp(top)
        for p0 in range(pix_start[block], pix_start[block + 1], _LATTICE_PIXELS):
            p1 = min(p0 + _LATTICE_PIXELS, pix_start[block + 1])
            pix, k = order[p0:p1], key[p0:p1] - k0
            au = absu[k]
            phase_u = (xi_f[pix] + 1j * ups_f[pix]) / (au + (au == 0.0))  # 0 on the axis
            # sum_m W_m p^m = sum_jj p^(b jj) V_jj with V_jj = sum_i W_(jj b + i) p^i:
            # Horner in p for every V_jj at once, then Horner in p^b, on
            # contiguous operands only, so one point and a plane round alike.
            wk = weight[:, k].reshape(b, nj, -1)
            pj = np.repeat(phase_u[None], nj, axis=0)
            v = wk[-1]
            for i in range(b - 2, -1, -1):
                v = v * pj + wk[i]
            pb = phase_u
            for _ in range(b - 1):
                pb = pb * phase_u
            acc = v[-1]
            for jj in range(nj - 2, -1, -1):
                acc = acc * pb + v[jj]
            psi[pix] = pref * acc * scale[k]
    return psi.reshape(xi.shape)


def lattice_beam(
    latt: VortexLattice, r, t: float, E: float, ctx: PhysicalContext
) -> complex:
    """Beam wave function of the rotating vortex-lattice source.

    Coherent sum over angular momentum components m = 0..n, each outcoupled
    at its effective energy E + m hbar Omega_rot; per-m magnitudes are
    combined in log space.  The density profile at time t equals the t = 0
    profile rotated by Omega_rot * t about the beam axis.  This is a
    one-pixel call of the lattice_beam_grid kernel: the same floats as that
    pixel of a plane, inf near the virtual source where the beam overflows.
    At rho_t = 0 (on the axis at z = -2 alpha^4 / bF) Q_k diverges and
    SingularityError is raised; a non-finite point or energy raises DomainError.
    """
    sv = scaled_vars(r, E, ctx, latt.width)
    if not math.isfinite(sv.rho_t + sv.eps_t):
        raise DomainError(f"lattice_beam needs a finite point and energy, got r={r}, E={E}")
    if sv.rho_t == 0.0:
        raise SingularityError("Q_k diverges at rho = 0 for k >= 1")
    # sv.rho_t rounds as lattice_beam_grid rounds a pixel's rho_t
    xi, ups, rho = np.array([sv.xi]), np.array([sv.upsilon]), np.array([sv.rho_t])
    return complex(_lattice_psi(latt, xi, ups, sv.zeta_t, rho, t, E, ctx)[0])


def lattice_spectrum(
    latt: VortexLattice, detunings, ctx: PhysicalContext
) -> list[tuple[float, float]]:
    """Outcoupling rate J_latt versus rf detuning (Hz).

    J_latt(E) is the weighted incoherent sum of the circular multipole
    currents J_mm(E + m hbar Omega_rot); the vortex structure is not visible
    in this integrated quantity.  Each component is one array
    gaussian_multipole_current call over all detunings, and the weighted
    components are summed by logsumexp along them.
    """
    w = latt._coeffs
    a = latt.width
    log_sum = latt._log_sum
    detunings = np.asarray(detunings, dtype=float).ravel()
    E = 2.0 * math.pi * ctx.hbar * detunings
    logs = []
    for m, wm in enumerate(w):
        if wm == 0.0:
            continue
        e_m = E + m * ctx.hbar * latt.rot
        j_mm = gaussian_multipole_current(m, latt.n_atoms, latt.rabi, a, e_m, ctx)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_j = np.where(j_mm <= 0.0, -math.inf, np.log(j_mm))  # a nan stays nan
        logs.append(
            math.lgamma(m + 1) + 2.0 * math.log(abs(wm)) + 2.0 * m * math.log(a) - log_sum + log_j
        )
    return list(zip(detunings.tolist(), np.exp(_logsumexp(logs)).tolist()))
