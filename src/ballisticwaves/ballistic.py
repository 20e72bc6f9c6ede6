"""Multipole matter waves in a uniform force field.

Exact Green functions, their far-field asymptotics, current densities, total
current matrices, and the photodetachment closed forms built on them.  The
force points along +z with magnitude F; all internal evaluation happens in
the dimensionless variables rho = beta*F*r, zeta = beta*F*z, eps = -2*beta*E
with beta = (M / 4 hbar^2 F^2)^(1/3), and a PhysicalContext converts at the
boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .airyq import QArgs, _q_table_scaled, q_table_scaled_grid, qi
from .errors import DomainError, RegimeError, SingularityError, UnsupportedOrderError
from .specfun import (
    _ai_grid,
    _airy_ode_derivs,
    _airy_zeros,
    _double_factorial,
    airy_unrestricted,
)
from .harmonics import (
    MultipoleIndex,
    _klm_terms,
    _translation_t,
    klm_operator_on_airy_scaled,
    translation_coeff_t,
)

# SI constants (CODATA 2018).
HBAR = 1.054571817e-34  # J s
ELECTRON_MASS = 9.1093837015e-31  # kg
ELEMENTARY_CHARGE = 1.602176634e-19  # C
RB87_MASS = 1.44316e-25  # kg
G_EARTH = 9.81  # m/s^2

#: Far-field formulas are used only when -alpha_plus exceeds this threshold;
#: chosen so the l <= 2 far/exact discrepancy stays below 1e-3.
ALPHA_THRESHOLD = 15.0

#: Recursion depth limit for multipole Green functions.
GREEN_L_MAX = 12


@dataclass(frozen=True)
class PhysicalContext:
    """Particle mass, force magnitude (along +z) and hbar, with derived scales."""

    mass: float
    force: float
    hbar: float = HBAR

    def __post_init__(self) -> None:
        if self.mass <= 0 or self.force <= 0 or self.hbar <= 0:
            raise DomainError("mass, force and hbar must all be positive")

    @functools.cached_property
    def beta(self) -> float:
        """Characteristic inverse energy (M / 4 hbar^2 F^2)^(1/3), in 1/J; computed
        once per context (the instance dict is outside the frozen fields)."""
        return (self.mass / (4.0 * self.hbar**2 * self.force**2)) ** (1.0 / 3.0)

    @functools.cached_property
    def beta_f(self) -> float:
        """Inverse length scale beta*F, in 1/m."""
        return self.beta * self.force

    def eps(self, energy: float) -> float:
        """Dimensionless energy eps = -2*beta*E."""
        return -2.0 * self.beta * energy

    def qargs(self, r, energy: float) -> QArgs:
        """Dimensionless arguments for a field point r (m) relative to the source."""
        x, y, z = r
        rnorm = math.sqrt(x * x + y * y + z * z)
        bf = self.beta_f
        return QArgs(bf * rnorm, bf * z, self.eps(energy))


@dataclass(frozen=True)
class SourceSuperposition:
    """Point multipole superposition sum_lm lambda_lm delta_lm(r - origin) at energy E."""

    amplitudes: dict[MultipoleIndex, complex]
    energy: float
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        for idx in self.amplitudes:
            if idx.l > GREEN_L_MAX:
                raise UnsupportedOrderError(f"l <= {GREEN_L_MAX} required, got {idx.l}")


@dataclass
class DetectorGrid:
    """Lateral sampling plane at height z; values is an image's pixels, None on a bare plane."""

    z: float
    x: np.ndarray
    y: np.ndarray
    values: np.ndarray | None = None

    @classmethod
    def centered(cls, z: float, width_x: float, width_y: float, nx: int, ny: int):
        if nx < 1 or ny < 1 or nx * ny > 4096 * 4096:
            raise DomainError("grid must have between 1 and 4096^2 pixels")
        return cls(
            z=z,
            x=np.linspace(-width_x / 2.0, width_x / 2.0, nx),
            y=np.linspace(-width_y / 2.0, width_y / 2.0, ny),
        )


def green_swave(r, r_src, E: float, ctx: PhysicalContext) -> complex:
    """Uniform-field Green function G(r, r'; E) for a unit point source at r'."""
    src = SourceSuperposition({MultipoleIndex(0, 0): math.sqrt(4.0 * math.pi)}, E, tuple(r_src))
    return _green_sum(src, r, ctx)[0]


def _exp(x):
    """e^x: numpy's for an array, math's for a float (several times cheaper) with
    inf where it overflows, as numpy gives."""
    if isinstance(x, np.ndarray):
        return np.exp(x)
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=256)
def _plan(keys: tuple, grad: bool):
    """The per-term constants of _wave for amplitudes keyed by keys (a tuple of
    MultipoleIndex), built once per keys and grad.

    Returns (blocks, powers, ks, orders).  blocks holds one (key position i, Q
    order k, 2^j T_jlm, monomials of K_jm, gradient monomials) per key and
    j = |m| ... l, k = 2j - l + 1, in the order the amplitudes come.  A monomial
    is (coefficient, ((axis, power), ...)) with zero powers left out; the
    gradient monomials are those of d K_jm / d axis for the three axes, and ()
    unless grad.  powers[axis] are the powers of that axis any monomial reads,
    ks the orders of psi and orders every Q order read, sorted.  The keys are
    valid indices, so the terms come from harmonics' unchecked kernels
    _klm_terms and _translation_t.
    """
    lmax = max((idx.l for idx in keys), default=0)
    if lmax > GREEN_L_MAX:
        raise UnsupportedOrderError(f"l <= {GREEN_L_MAX} required, got {lmax}")
    blocks, powers = [], [set(), set(), set()]

    def monomial(c, exps):
        fac = tuple((ax, n) for ax, n in enumerate(exps) if n)
        for ax, n in fac:
            powers[ax].add(n)
        return c, fac

    for i, idx in enumerate(keys):
        for j in range(abs(idx.m), idx.l + 1):
            terms = _klm_terms(j, idx.m)
            value = tuple(monomial(c, e) for *e, c in terms)
            slopes = tuple(
                tuple(monomial(c * e[ax], [n - (a == ax) for a, n in enumerate(e)])
                      for *e, c in terms if e[ax])
                for ax in range(3)
            ) if grad else ()
            f = 2.0**j * _translation_t(j, idx.l, idx.m)
            blocks.append((i, 2 * j - idx.l + 1, f, value, slopes))
    ks = sorted({k for _, k, *_ in blocks})
    orders = sorted(set(ks).union(*({k - 1, k + 1} for k in ks))) if grad else ks
    return tuple(blocks), tuple(tuple(sorted(p)) for p in powers), tuple(ks), tuple(orders)


def _poly(monomials, pw):
    """sum c prod axis^power over monomials, the powers read from pw[axis]; each
    product is formed left to right from c, as K_lm's monomial expansion forms it."""
    total = 0
    for c, fac in monomials:
        for ax, n in fac:
            c = c * pw[ax][n]
        total = total + c
    return total


def _wave(amplitudes, p, eps: float, grad: bool = False):
    """(psi, grad psi, logscale) of psi = sum lambda_lm g_lm(p; eps), from one Q table.

    p = (xi, upsilon, zeta) = bF r is a point's three floats or arrays that
    broadcast, and g_lm = sum_j 2^j T_jlm K_jm(p) Q_{2j-l+1}(|p|, zeta; eps) =
    G_lm / [-4 beta bF^(l+3)].  The terms come from _plan, cached on the keys of
    amplitudes: one power table of the three coordinates, then per term a
    product over it, summed per Q order with its amplitude lambda 2^j T_jlm;
    no harmonics object is made per call.  Each order used is read from one
    table: a point's float table (a point stays on floats throughout), or
    q_table_scaled_grid on the distinct (rho, zeta) of points (rho = 0 gives
    nan).  grad psi = d psi/dp (coordinate last), from dQ_k/dp = -2 p Q_{k+1} +
    e_z Q_{k-1}, is built only if grad.  exp(logscale) is returned, not
    applied, for callers that join it to a huge factor in log space.  At a
    point an amplitude may also be a sequence (every one of the same length):
    psi is then the list of the waves of its elements, from the one table and
    the one set of term values.
    """
    blocks, powers, ks, orders = _plan(tuple(amplitudes), grad)
    pw = [{n: v**n for n in ns} for v, ns in zip(p, powers)]
    terms = ((i, k, f, _poly(value, pw), [_poly(s, pw) for s in slopes])
             for i, k, f, value, slopes in blocks)
    lams = list(amplitudes.values())
    columns = bool(lams) and isinstance(lams[0], (list, tuple, np.ndarray))
    if columns:
        terms = list(terms)
        sums = [_order_sums(terms, col, grad) for col in zip(*lams)]
    else:  # a plane holds one K_jm array at a time, and no Q table yet
        sums = [_order_sums(terms, lams, grad)]
    x, y, z = p
    if any(isinstance(v, np.ndarray) for v in p):
        rho = np.sqrt(x * x + y * y + z * z)
        keys, inv = np.unique(rho + 1j * z if np.ndim(z) else rho, return_inverse=True)
        zeta = keys.imag if np.ndim(z) else z  # a plane's one zeta stays one number
        tab, logscale = q_table_scaled_grid(orders[-1], keys.real, zeta, eps, orders[0])
        inv = inv.reshape(rho.shape)
        q, logscale = {k: tab[k][inv] for k in orders}, logscale[inv]
    else:
        rho = math.sqrt(x * x + y * y + z * z)
        q, logscale = _q_table_scaled(orders[-1], QArgs(rho, z, eps), orders[0])
    waves = [_combine(kk, dk, q, ks, p) for kk, dk in sums]
    if columns:
        return [psi for psi, _ in waves], None, logscale
    return (*waves[0], logscale)


def _order_sums(terms, lams, grad: bool):
    """Per Q order k: sum c K_jm and, if grad, sum c grad K_jm, with c = lambda
    2^j T_jlm, over _wave's term values and one column of amplitudes."""
    kk, dk = {}, {}
    for i, k, f, value, slopes in terms:
        c = lams[i] * f
        kk[k] = kk.get(k, 0.0) + c * value
        if grad:
            dk[k] = [s + c * d for s, d in zip(dk.get(k, (0.0,) * 3), slopes)]
    return kk, dk


def _combine(kk, dk, q, ks, p):
    """(psi, grad psi or None) from the order sums of _order_sums and a Q table."""
    psi = sum(kk[k] * q[k] for k in ks)
    if not dk:
        return psi, None
    x, y, z = p
    up = -2.0 * sum(kk[k] * q[k + 1] for k in ks)
    g = [up * x, up * y, up * z + sum(kk[k] * q[k - 1] for k in ks)]
    g = [gi + sum(dk[k][i] * q[k] for k in ks) for i, gi in enumerate(g)]
    if any(isinstance(gi, np.ndarray) for gi in g):
        return psi, np.stack(np.broadcast_arrays(*g), axis=-1)
    return psi, np.array(g)


def _green_sum(src: SourceSuperposition, r, ctx: PhysicalContext, grad: bool = False):
    """(psi, grad psi or None) of psi = sum lambda_lm G_lm(r - origin; E + F z_origin)
    at one point r (3,) or points r (..., 3): _wave at p = bF (r - origin) with
    the amplitudes lambda_lm bF^l.  A point goes to _wave as three floats."""
    r = np.asarray(r, dtype=float)
    bf = ctx.beta_f
    if r.ndim == 1:
        d = [c - o for c, o in zip(r.tolist(), src.origin)]
        p, at_source = [bf * c for c in d], not any(d)
    else:
        d = r - np.asarray(src.origin, dtype=float)
        p, at_source = bf * np.moveaxis(d, -1, 0), not np.any(d, axis=-1).all()
    if at_source:
        raise SingularityError("multipole Green function evaluated at the source")
    amps = {idx: lam * bf**idx.l for idx, lam in src.amplitudes.items()}
    psi, dpsi, logscale = _wave(amps, p, ctx.eps(src.energy + ctx.force * src.origin[2]), grad)
    scale = -4.0 * ctx.beta * bf**3 * _exp(logscale)
    if dpsi is not None:
        dpsi = dpsi * (bf * scale if r.ndim == 1 else (bf * scale)[..., None])
    return psi * scale, dpsi


def green_lm(idx: MultipoleIndex, r, E: float, ctx: PhysicalContext) -> complex:
    """Multipole Green function G_lm(r, o; E) for a source at the origin."""
    return _green_sum(SourceSuperposition({idx: 1.0}, E), r, ctx)[0]


def green_lm_grad(idx: MultipoleIndex, r, E: float,
                  ctx: PhysicalContext) -> tuple[complex, np.ndarray]:
    """G_lm and its Cartesian gradient, from one Q table by dQ_k/drho = -2 rho
    Q_{k+1}, dQ_k/dzeta = Q_{k-1} and the solid harmonics' product rule."""
    return _green_sum(SourceSuperposition({idx: 1.0}, E), r, ctx, grad=True)


def _far_current(amp_a, amp_b, ap, ctx: PhysicalContext):
    """j_z = -beta (2bF)^5 / (4 pi hbar alpha_+) conj(A_a) A_b."""
    return -ctx.beta * (2.0 * ctx.beta_f) ** 5 / (4.0 * math.pi * ctx.hbar * ap) * (
        np.conj(amp_a) * amp_b
    )


def _far_field(indices, x, y, z: float, E: float, ctx: PhysicalContext):
    """({idx: A_lm}, alpha_+) at lateral offsets (x, y) on the plane z.

    A_lm = (2bF)^l i^l (-1)^m K_lm(X, Y, i d/dalpha) Ai(alpha_-), with
    X = bF x / sqrt(-alpha_+) and Y likewise, over one table Ai^(0..lmax)(alpha_-)
    closed by the Airy equation from Ai, Ai': airy_unrestricted for a point
    (floats), one _ai_grid call for a plane (arrays).  Both give Ai = 0 where
    it underflows, so a point and its pixel agree at any alpha_-.
    """
    plane = isinstance(x, np.ndarray)
    sqrt = np.sqrt if plane else math.sqrt
    lat2 = x**2 + y**2
    rnorm = sqrt(lat2 + z**2)
    bf = ctx.beta_f
    eps = ctx.eps(E)
    # For z > 0, r - z = (x^2 + y^2) / (r + z): on a detector plane r and z
    # agree to about 8 digits, which the plain difference would lose.
    am = eps + bf * (lat2 / (rnorm + z) if z > 0.0 else rnorm - z)
    ap = eps - bf * z - bf * rnorm
    if ap.max() >= -ALPHA_THRESHOLD:  # not np.max(ap), which costs 2 us on a point
        raise RegimeError(
            f"far-field form needs alpha_+ < -{ALPHA_THRESHOLD}, but alpha_+ reaches "
            f"{ap.max():.3g} at z={z:g} m, E={E:g} J"
        )
    lmax = max([idx.l for idx in indices])
    ai = _ai_grid(am) if plane else airy_unrestricted(am)[:2]
    derivs = _airy_ode_derivs(lmax, *ai, am)
    sa = sqrt(-ap)
    X, Y = bf * x / sa, bf * y / sa
    del lat2, rnorm, am, sa  # a plane's amplitudes reuse this memory: fewer page faults
    amps = {
        idx: (2.0 * bf) ** idx.l * 1j**idx.l * (-1.0) ** idx.m
        * klm_operator_on_airy_scaled(idx, X, Y, derivs)
        for idx in indices
    }
    return amps, ap


def green_lm_far(idx: MultipoleIndex, r, E: float, ctx: PhysicalContext) -> complex:
    """Far-field (z -> infinity) form of G_lm; valid for alpha_+ << -1.

    G_lm = (i/2) beta (2bF)^3 Ci(alpha_+) / sqrt(-alpha_+) A_lm.
    """
    amps, ap = _far_field((idx,), *np.asarray(r, dtype=float), E, ctx)
    v = airy_unrestricted(ap)
    ci = complex(v.bi, v.ai)
    return 0.5j * ctx.beta * (2.0 * ctx.beta_f) ** 3 * ci / math.sqrt(-ap) * amps[idx]


def scattering_wave(src: SourceSuperposition, r, ctx: PhysicalContext) -> complex:
    """psi(r) = sum_lm lambda_lm G_lm(r - origin; E + F z_origin), from one Q table."""
    return _green_sum(src, r, ctx)[0]


def current_density(src: SourceSuperposition, r, ctx: PhysicalContext) -> np.ndarray:
    """Particle current density j = (hbar/M) Im[psi* grad psi], in 1/(m^2 s).

    r and j are one point (3,) or points (..., 3); psi, grad psi share one Q table.
    """
    psi, grad = _green_sum(src, r, ctx, grad=True)
    return (ctx.hbar / ctx.mass) * np.imag(np.conj(psi)[..., None] * grad)


def current_density_z_far(
    idx_a: MultipoleIndex, idx_b: MultipoleIndex, r, E: float, ctx: PhysicalContext
) -> complex:
    """Far-field matrix element j^(z)_{lm,l'm'}(r, o; E)."""
    amps, ap = _far_field((idx_a, idx_b), *np.asarray(r, dtype=float), E, ctx)
    return _far_current(amps[idx_a], amps[idx_b], ap, ctx)


def total_current_matrix(
    idx_a: MultipoleIndex, idx_b: MultipoleIndex, E, ctx: PhysicalContext
):
    """Total multipole current matrix element J_{lm,l'm'}(E), in 1/s.

    Vanishes identically for m != m' (axial symmetry); diagonal elements are
    the emission rates J_lm(E).  E is a float or an ndarray; an array gives
    an array of its shape, from one array qi call per order.
    """
    if idx_a.l > GREEN_L_MAX or idx_b.l > GREEN_L_MAX:
        raise UnsupportedOrderError(f"l, l' <= {GREEN_L_MAX} required")
    if idx_a.m != idx_b.m:
        return np.zeros(E.shape) if isinstance(E, np.ndarray) else 0.0
    l, lp, m = idx_a.l, idx_b.l, idx_a.m
    eps = ctx.eps(E)
    bf = ctx.beta_f
    total = 0.0
    for j in range(abs(m), min(l, lp) + 1):
        total += (
            2.0**j
            * _double_factorial(2 * j + 1)
            * translation_coeff_t(j, l, m)
            * translation_coeff_t(j, lp, m)
            * qi(3 * j - l - lp + 1, eps)
        )
    return (
        ctx.mass
        / (2.0 * math.pi * ctx.hbar**3)
        * bf ** (l + lp + 1)
        * (-1.0) ** (l + lp)
        * total
    )


def total_current_asym(
    idx: MultipoleIndex, E: float, ctx: PhysicalContext, regime: str
) -> float:
    """Large-|E| asymptotics of the diagonal current J_lm(E).

    tunneling (E < 0): exponentially suppressed rate with evanescent momentum
    kappa = sqrt(2M|E|)/hbar; classical (E > 0): Wigner (secular) current
    modulated by the closed-orbit oscillation.
    """
    eps = ctx.eps(E)
    if abs(eps) < 4.0:
        raise RegimeError(f"|eps| >= 4 required for the asymptotic forms, got {eps:.3g}")
    l, m = idx.l, abs(idx.m)
    bf = ctx.beta_f
    angular = (2 * l + 1) * math.factorial(l + m) / (
        math.factorial(m) * math.factorial(l - m)
    )
    if regime == "tunneling":
        if E >= 0.0:
            raise RegimeError("tunneling regime requires E < 0")
        kappa = math.sqrt(2.0 * ctx.mass * abs(E)) / ctx.hbar
        # First subleading correction of the dominant (j = |m|) term, carried
        # over from the large-eps expansion of Qi_{3|m| - 2l + 1}.
        kq = 3 * m - 2 * l + 1
        corr = 1.0 - (3.0 * kq * kq + 9.0 * kq + 5.0) / (24.0 * eps**1.5)
        return (
            ctx.mass
            * kappa ** (2 * l + 1)
            / (4.0 * math.pi**2 * ctx.hbar**3)
            * angular
            * (bf / kappa) ** (3 * m + 3)
            * math.exp(-(kappa**3) / (6.0 * bf**3))
            * corr
        )
    if regime == "classical":
        if E <= 0.0:
            raise RegimeError("classical regime requires E > 0")
        k = math.sqrt(2.0 * ctx.mass * E) / ctx.hbar
        wigner = ctx.mass * k ** (2 * l + 1) / (4.0 * math.pi**2 * ctx.hbar**3)
        osc = (
            (-1.0) ** l
            * 2.0
            * angular
            * (bf / k) ** (3 * m + 3)
            * math.cos((k / bf) ** 3 / 6.0 + m * math.pi / 2.0)
        )
        return wigner * (1.0 - osc)
    raise DomainError(f"regime must be 'tunneling' or 'classical', got {regime!r}")


def staircase_energies(l: int, nu_max: int, ctx: PhysicalContext) -> list[float]:
    """Energies E_nu_l where J_l0(E) becomes stationary (staircase plateaus).

    dJ_00/deps is proportional to -Ai(eps)^2 and dJ_10/deps to -Ai'(eps)^2,
    so the plateaus sit exactly at the zeros a_n of Ai (l = 0) and a'_n of
    Ai' (l = 1).  Returns E_nu_l = -z_n / (2 beta), where z_n is the n-th zero
    of Ai for even l and of Ai' for odd l, n = nu + ceil(l/2), and nu runs
    from 1 (l = 0) or 0 (l >= 1) to nu_max.  These are the zeros that the
    closed form (1/8 beta) [3 pi (4 nu + 2l - 1)]^(2/3) approximates; that
    form is 9.5% off at the first p-wave plateau (a'_1 = -1.0188).

    For l = 2, dJ_20/deps changes sign at every Ai zero, which is returned.
    Each step also holds a second stationary point, a local maximum (eps ~
    -2.24 next to a_1 = -2.338), which is not returned.

    Raises DomainError for l > 2: there dJ_l0/deps never changes sign nor
    reaches zero (on eps in [-9, 0.5] its smallest magnitude is 1.2e-3 of its
    largest for l = 3 and 6.6e-4 for l = 4), so J_l0 has no stationary point
    to return.
    """
    if l < 0:
        raise DomainError("l >= 0 required")
    if l > 2:
        raise DomainError(f"J_l0 has no stationary points for l > 2, got l={l}")
    shift = (l + 1) // 2
    zeros = _airy_zeros(max(nu_max + shift, 1))[l % 2]
    return [
        -float(zeros[nu + shift - 1]) / (2.0 * ctx.beta)
        for nu in range(1 if l == 0 else 0, nu_max + 1)
    ]


#: Effective polarization vectors (complex, unit norm) of the named presets.
_POLARIZATION_PRESETS = {
    "pi": (0.0, 0.0, 1.0),
    "sigma": (1.0, 0.0, 0.0),
    "circular": (1j / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0)),
    "tilt45": (1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0)),
}


def polarization_to_source(
    polarization, C: complex, E: float, ctx: PhysicalContext
) -> SourceSuperposition:
    """Map a dipole-transition polarization onto the p-wave source amplitudes.

    A (possibly complex) unit vector (ex, ey, ez) decomposes as
    lambda_10 = ez, lambda_11 = (-ex + i ey)/sqrt(2),
    lambda_1,-1 = (ex + i ey)/sqrt(2), all scaled by C.
    """
    if isinstance(polarization, str):
        try:
            ex, ey, ez = _POLARIZATION_PRESETS[polarization]
        except KeyError:
            raise DomainError(
                f"unknown polarization {polarization!r}; "
                f"expected one of {sorted(_POLARIZATION_PRESETS)} or a 3-vector"
            ) from None
    else:
        vec = np.asarray(polarization, dtype=complex)
        norm = math.sqrt(float(np.sum(np.abs(vec) ** 2)))
        if norm == 0.0:
            raise DomainError("polarization vector must be nonzero")
        ex, ey, ez = vec / norm
    amps = {
        MultipoleIndex(1, 0): C * ez,
        MultipoleIndex(1, 1): C * (-ex + 1j * ey) / math.sqrt(2.0),
        MultipoleIndex(1, -1): C * (ex + 1j * ey) / math.sqrt(2.0),
    }
    amps = {idx: lam for idx, lam in amps.items() if lam != 0.0}
    return SourceSuperposition(amplitudes=amps, energy=E)


def photodetachment_profile(
    polarization,
    grid: DetectorGrid,
    E: float,
    ctx: PhysicalContext,
    mode: str = "far-field",
    C: complex = 1.0,
) -> DetectorGrid:
    """Photocurrent density j_z on a detector plane for a p-wave source.

    mode='far-field' evaluates, for every polarization, the one asymptotic
    form j_z = -beta (2bF)^5 / (4 pi hbar alpha_+) |sum_lm lambda_lm A_lm|^2
    with A_lm the far-field amplitudes of the grid, all from one Airy table;
    the tilt45 preset is pixelwise exactly the mean of the pi and sigma
    profiles.  mode='exact' takes j_z from one current_density call over all
    pixels instead, which raises SingularityError if a pixel is the source.
    """
    if mode not in ("far-field", "exact"):
        raise DomainError(f"mode must be 'far-field' or 'exact', got {mode!r}")
    xx, yy = np.meshgrid(grid.x, grid.y)
    if mode == "exact":
        src = polarization_to_source(polarization, C, E, ctx)
        j = current_density(src, np.stack([xx, yy, np.full_like(xx, grid.z)], axis=-1), ctx)
        return DetectorGrid(z=grid.z, x=grid.x, y=grid.y, values=j[..., 2])
    tilt = isinstance(polarization, str) and polarization == "tilt45"
    pols = ("pi", "sigma") if tilt else (polarization,)
    srcs = [polarization_to_source(pol, C, E, ctx).amplitudes for pol in pols]
    amps, ap = _far_field({idx for src in srcs for idx in src}, xx, yy, grid.z, E, ctx)
    psis = (sum(lam * amps[idx] for idx, lam in src.items()) for src in srcs)
    values = sum(_far_current(psi, psi, ap, ctx).real for psi in psis) / len(srcs)
    return DetectorGrid(z=grid.z, x=grid.x, y=grid.y, values=values)


def photodetachment_spectrum(
    polarization, energies, ctx: PhysicalContext, C: complex = 1.0
) -> list[tuple[float, float]]:
    """Total photocurrent J(E) over an energy range, from the current matrix:
    one array total_current_matrix call per same-m index pair."""
    src0 = polarization_to_source(polarization, C, 0.0, ctx)
    items = list(src0.amplitudes.items())
    energies = np.asarray(energies, dtype=float).ravel()
    total = np.zeros(energies.shape)
    for idx_a, la in items:
        for idx_b, lb in items:
            if idx_a.m != idx_b.m:
                continue
            total += (np.conj(la) * lb).real * total_current_matrix(idx_a, idx_b, energies, ctx)
    return list(zip(energies.tolist(), total.tolist()))
