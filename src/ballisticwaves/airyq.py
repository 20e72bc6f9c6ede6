"""Auxiliary Airy-product families Q_k(rho, zeta; eps) and Qi_k(eps).

Q_k generalizes the uniform-field Green function to arbitrary odd spatial
dimension 2k+1 and carries all position dependence of the multipole Green
functions.  Its on-source imaginary part Qi_k carries the total currents.

Evaluation strategy:

* Q_0 = Ai(a-) Ci(a+) with a+- = eps - zeta -+ rho and Ci = Bi + i Ai.
* Negative orders Q_{-n} are n-fold zeta-derivatives of Q_0, summed by the
  Leibniz rule  Q_{-n} = (-1)^n sum_p C(n, p) Ai^(p)(a-) Ci^(n-p)(a+),  with
  the derivative tables closed by the Airy equation w'' = x w.
* Positive orders follow from the five-point recursion
      rho^2 Q_{k+2} = (k + 1/2) Q_{k+1} - (zeta - eps) Q_k - 1/4 Q_{k-2},
  seeded by Q_{-3} ... Q_0.
* Everything is carried with a common exponential scale exp(s(a+) - s(a-)),
  s(x) = (2/3) x^(3/2) for x > 0, so products with exponentially large source
  strengths can be combined in log space without overflow.
* Qi_k follows the three-term recursion
      (k + 1/2) Qi_{k+1} + eps Qi_k - 1/4 Qi_{k-2} = 0
  from the seeds Qi_0 = Ai^2, Qi_{-1} = -2 Ai Ai', Qi_{-2} = 2 Ai'^2
  + 2 eps Ai^2.  Every Qi_{-n} = (-d/deps)^n Ai^2 comes from the same Leibniz
  rule over the Airy derivative table.  For eps > 0 the recursion cancels
  catastrophically, so at eps >= EPS0 every Qi_k with k >= 1/2 (half-integer k
  too) is the positive Airy moment, evaluated by a float quadrature:
      Qi_k = 2^((1-2k)/3) / (2 sqrt(pi) Gamma(k+1/2))
             * int_0^inf tau^(k-1/2) Ai(2^(2/3) eps + tau) dtau.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    RegimeError,
    SingularityError,
    StabilityWarning,
    UnsupportedOrderError,
)
from .specfun import (
    _SQRT_PI,
    ScaledAiryValues,
    _airy_moment_scaled,
    _airy_ode_derivs,
    _double_factorial,
    airy_derivs_upto,
    airy_integral,
    airy_scaled,
    airy_scaled_grid,
)

#: Supported index windows.
Q_NEG_MAX = 12      # Q_{-k} zeta-derivatives
Q_K_MAX = 42        # positive-index forward recursion depth
QI_K_MIN, QI_K_MAX = -24, 60

_C = 2.0 ** (2.0 / 3.0)

#: Below this radius the forward recursion for k >= 2 divides by rho^2 and
#: sheds digits; the divergence itself is the physical source singularity.
RHO_MIN = 1e-3

#: Qi_k, k >= 1/2, is the Airy moment from this eps on; the recursion just below keeps 2e-12.
EPS0 = 1.0


@dataclass(frozen=True)
class QArgs:
    """Dimensionless arguments: rho = beta*F*r, zeta = beta*F*z, eps = -2*beta*E."""

    rho: float
    zeta: float
    eps: float

    def __post_init__(self) -> None:
        if self.rho < 0.0:
            raise DomainError(f"rho >= 0 required, got {self.rho}")

    @property
    def alpha_minus(self) -> float:
        return self.eps - self.zeta + self.rho

    @property
    def alpha_plus(self) -> float:
        return self.eps - self.zeta - self.rho


# --------------------------------------------------------------------------
# Q_{-n} by the Leibniz rule.
#
# Q_0 = Ai(x) Ci(y) with x = alpha_-, y = alpha_+, and d/dzeta acts as
# -(d/dx + d/dy), so
#     Q_{-n} = (-1)^n sum_p C(n, p) Ai^(p)(x) Ci^(n-p)(y),
# with both derivative tables closed by the Airy equation w'' = x w.
# --------------------------------------------------------------------------


def _leibniz(orders, f: list, g: list) -> dict:
    """{-n: (-1)^n sum_p C(n, p) f[p] g[n-p] for n in orders}: n-th derivatives of a
    product whose factors both run against the variable, from their tables, keyed
    by the order -n of the Q_{-n} or Qi_{-n} they are."""
    out = {}
    for n in orders:
        total = f[0] * g[n]
        for p in range(1, n + 1):
            total += math.comb(n, p) * f[p] * g[n - p]
        out[-n] = -total if n % 2 else total
    return out


def _q_seeds(orders, x, y, am, ap) -> dict:
    """Mantissas {-n: Q_{-n} for n in orders} sharing the scale exp(s+ - s-).

    am, ap hold the scaled Airy values at x = alpha_- and y = alpha_+
    (ScaledAiryValues fields); x, y and the fields may be floats or arrays.
    """
    nmax = max(orders)
    exp = math.exp if isinstance(ap.s, float) else np.exp
    damp = exp(-2.0 * ap.s)  # Ai(a+) relative to Bi(a+)
    A = _airy_ode_derivs(nmax, am.ai_m, am.aip_m, x)
    C = _airy_ode_derivs(
        nmax, ap.bi_m + 1j * (ap.ai_m * damp), ap.bip_m + 1j * (ap.aip_m * damp), y
    )
    return _leibniz(orders, A, C)


def _q_recur(table: dict, kmax: int, r2, w) -> None:
    """Fill table[1..kmax] from table[-3..0]; r2 = rho^2, w = zeta - eps."""
    for k in range(-1, kmax - 1):
        # rho^2 Q_{k+2} = (k + 1/2) Q_{k+1} - (zeta - eps) Q_k - 1/4 Q_{k-2}
        table[k + 2] = (
            (k + 0.5) * table[k + 1] - w * table[k] - 0.25 * table[k - 2]
        ) / r2


def q0(a: QArgs) -> complex:
    """Q_0 = Ai(eps - zeta + rho) * Ci(eps - zeta - rho)."""
    return q(0, a)


def q_neg(k: int, a: QArgs) -> complex:
    """Q_{-k}, the k-fold zeta-derivative of Q_0 (k >= 0)."""
    if not 0 <= k <= Q_NEG_MAX:
        raise UnsupportedOrderError(f"need 0 <= k <= {Q_NEG_MAX}, got {k}")
    return q(-k, a)


def _warn_small_rho(rho: float, kmax: int) -> None:
    """Warn when the forward recursion to kmax >= 2 runs at 0 < rho < RHO_MIN."""
    if kmax >= 2 and 0.0 < rho < RHO_MIN:
        msg = f"forward Q recursion at rho={rho:g} < {RHO_MIN:g} loses digits"
        warnings.warn(msg, StabilityWarning, stacklevel=4)


def _q_table_scaled(kmax: int, a: QArgs, kmin: int = -3) -> tuple[dict[int, complex], float]:
    """Mantissas of Q_{min(kmin, -3)} ... Q_{kmax} sharing one logscale; for
    kmax <= 0 only Q_kmin ... Q_kmax, the seeds no recursion needs."""
    orders = range(-kmax, 1 - kmin) if kmax <= 0 else range(max(3, -kmin) + 1)
    x, y = a.alpha_minus, a.alpha_plus
    am, ap = airy_scaled(x), airy_scaled(y)
    table = _q_seeds(orders, x, y, am, ap)
    if kmax >= 1:
        if a.rho == 0.0:
            raise SingularityError("Q_k diverges at rho = 0 for k >= 1")
        _warn_small_rho(a.rho, kmax)
        _q_recur(table, kmax, a.rho * a.rho, a.zeta - a.eps)
    return table, ap.s - am.s


def q_scaled(k: int, a: QArgs) -> tuple[complex, float]:
    """(mantissa, logscale) with Q_k = mantissa * exp(logscale)."""
    if k < -Q_NEG_MAX or k > Q_K_MAX:
        raise UnsupportedOrderError(f"need {-Q_NEG_MAX} <= k <= {Q_K_MAX}, got {k}")
    table, logscale = _q_table_scaled(k, a, k)
    return table[k], logscale


def q(k: int, a: QArgs) -> complex:
    """Q_k(rho, zeta; eps) for -12 <= k <= 42."""
    m, s = q_scaled(k, a)
    return m * math.exp(s)


def q_grad(k: int, a: QArgs) -> tuple[complex, complex]:
    """(dQ_k/drho, dQ_k/dzeta) = (-2 rho Q_{k+1}, Q_{k-1})."""
    m_rho, m_zeta, logscale = q_grad_scaled(k, a)
    scale = math.exp(logscale)
    return m_rho * scale, m_zeta * scale


def q_grad_scaled(k: int, a: QArgs) -> tuple[complex, complex, float]:
    """(d_rho mantissa, d_zeta mantissa, shared logscale), from one table of Q_{k-1..k+1}."""
    if k - 1 < -Q_NEG_MAX or k + 1 > Q_K_MAX:
        raise UnsupportedOrderError(f"gradient needs orders {k - 1} ... {k + 1}")
    table, logscale = _q_table_scaled(k + 1, a, k - 1)
    return -2.0 * a.rho * table[k + 1], table[k - 1], logscale


def q_table_scaled_grid(kmax: int, rho, zeta, eps: float | np.ndarray, kmin: int = -3):
    """Vectorized mantissa table of Q_{min(kmin, -3)}..Q_{kmax} on array arguments.

    eps is a float or an array that broadcasts with rho and zeta (for example
    one energy per component at one point).  Returns (table, logscale) where
    table[k] and logscale are arrays broadcast from rho, zeta and eps, with
    Q_k = table[k] * exp(logscale) elementwise; every element equals, bit for
    bit, the call with that element's float eps.  Entries with rho = 0 are
    nan for k >= 1.  As in the scalar table, kmax >= 2 with some
    0 < rho < RHO_MIN gives one StabilityWarning.
    """
    if kmax > Q_K_MAX:
        raise UnsupportedOrderError(f"need kmax <= {Q_K_MAX}, got {kmax}")
    rho = np.asarray(rho, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    rho, zeta = np.broadcast_arrays(rho, zeta)
    x = eps - zeta + rho  # alpha_minus
    y = eps - zeta - rho  # alpha_plus
    am = ScaledAiryValues(*airy_scaled_grid(x))
    ap = ScaledAiryValues(*airy_scaled_grid(y))
    table = _q_seeds(range(max(3, -kmin) + 1), x, y, am, ap)
    if kmax >= 1:
        _warn_small_rho(float(np.min(rho, where=rho > 0.0, initial=math.inf)), kmax)
        with np.errstate(divide="ignore", invalid="ignore"):
            _q_recur(table, kmax, np.where(rho > 0.0, rho * rho, np.nan), zeta - eps)
    return table, ap.s - am.s


#: 1/4 of the recursion as a complex 0-d array (see _q_diagonal_blocks).
_QUARTER = np.array(0.25 + 0j)


@functools.lru_cache(maxsize=64)
def _diagonal_plan(orders: tuple) -> list:
    """Per step k = -1 ... max - 2 of the diagonal recursion, after checking that
    orders are non-decreasing in 1 ... Q_K_MAX: (k + 1/2 as a complex 0-d array,
    the slices of the rows of Q_{k+1}, Q_k, Q_{k-2} and of the factors that
    Q_{k+2} is computed on, the table rows it completes, and their slice of it).
    Order j is held for its rows first[j]:, the rows whose order is at least j."""
    if not orders or orders[0] < 1 or orders[-1] > Q_K_MAX or sorted(orders) != list(orders):
        raise UnsupportedOrderError(f"need non-decreasing orders in 1 ... {Q_K_MAX}, got {orders}")
    first = {j: bisect.bisect_left(orders, j) for j in range(-3, orders[-1] + 2)}
    plan = []
    for k in range(-1, orders[-1] - 1):
        s, done = first[k + 2], first[k + 3]
        plan.append((
            np.array(k + 0.5 + 0j),
            slice(s - first[k + 1], None),
            slice(s - first[k], None),
            slice(s - first[k - 2], None),
            slice(s, None),
            slice(s, done),
            slice(0, done - s),
        ))
    return plan


def _q_diagonal_blocks(orders, rho, zeta: float, eps, block: int):
    """(start, table, logscale) per block of at most `block` radii, where
    table[i, j] * exp(logscale[i, j]) is Q_{orders[i]}(rho[start + j], zeta; eps[i]).

    orders is a non-decreasing list of orders 1 ... Q_K_MAX, eps holds one
    energy per order, rho is 1-d and zeta one number (a detector plane).
    A block makes one Airy call at alpha_- and one at alpha_+ over all its
    rows, and runs the five-point recursion over all rows at once; a row
    leaves it once its order is reached.  This is the diagonal of
    q_table_scaled_grid(orders[-1], rho, zeta, eps[:, None]) at about half
    its recursion work: the 97^2 lattice_beam_grid image of 37 vortices took
    21 ms with it and 35 ms with that table, per block of 64 radii on one
    AVX-512 core.  Each value equals, bit for bit, its element of
    q_table_scaled_grid(orders[i], rho, zeta, eps[i]) as long as numpy
    rounds each element of the Airy series and of the recursion the same at
    every array length and divides a complex by a real as a product with
    the reciprocal (Smith's division, which numpy 2.4 uses); otherwise the
    two differ in the last bits.
    """
    plan = _diagonal_plan(tuple(orders))
    kmax = orders[-1]
    rho = np.asarray(rho, dtype=float)
    eps = np.asarray(eps, dtype=float)[:, None]
    w = zeta - eps
    _warn_small_rho(float(np.min(rho, where=rho > 0.0, initial=math.inf)), kmax)
    for start in range(0, rho.size, block):
        r = rho[start : start + block]
        x = eps - zeta + r  # alpha_minus
        y = eps - zeta - r  # alpha_plus
        am = ScaledAiryValues(*airy_scaled_grid(x))
        ap = ScaledAiryValues(*airy_scaled_grid(y))
        seeds = _q_seeds(range(4), x, y, am, ap)
        q = [seeds.pop(j) for j in (-3, -2, -1, 0)]  # q[j + 3]: Q_j on its rows
        table = np.empty(x.shape, dtype=complex)
        # numpy multiplies a real by a complex operand as the complex (real + 0j)
        # and divides a complex by a real as a product with the reciprocal, so
        # these complex factors of the table's shape give q_table_scaled_grid's
        # bits and spare a cast and a broadcast per operation.
        wr = np.broadcast_to(w, x.shape).astype(complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_r2 = np.broadcast_to(1.0 / np.where(r > 0.0, r * r, np.nan), x.shape).astype(complex)
            for k, (half, a, b, c, rows, done, head) in enumerate(plan, start=-1):
                # Q_{k+2} = [(k + 1/2) Q_{k+1} - w Q_k - Q_{k-2} / 4] / rho^2
                q.append(
                    (half * q[k + 4][a] - wr[rows] * q[k + 3][b] - _QUARTER * q[k + 1][c])
                    * inv_r2[rows]
                )
                q[k + 1] = None
                table[done] = q[-1][head]
        yield start, table, ap.s - am.s


def q_asym_origin(k: int, rho: float) -> float:
    """Leading divergence Re Q_k ~ (2k-3)!! / (2^k pi rho^(2k-1)) as rho -> 0."""
    if k < 1:
        raise DomainError(f"k >= 1 required, got {k}")
    if rho <= 0.0:
        raise DomainError(f"rho > 0 required, got {rho}")
    return _double_factorial(2 * k - 3) / (2**k * math.pi * rho ** (2 * k - 1))


# --------------------------------------------------------------------------
# Qi_k(eps): the on-source imaginary parts.
# --------------------------------------------------------------------------


def _qi_upward(t: dict, k, eps) -> dict:
    """Extend t, Qi by order ending in three consecutive orders, up to order k."""
    j = max(t)
    while j < k:
        # (j + 1/2) Qi_{j+1} = 1/4 Qi_{j-2} - eps Qi_j
        t[j + 1] = (0.25 * t[j - 2] - eps * t[j]) / (j + 0.5)
        j += 1
    return t


def _qi_moment(k: float, eps):
    """Qi_k e^{(4/3) eps^(3/2)} from the Airy moment, k >= 1/2, eps >= EPS0."""
    pref = 2.0 ** ((1.0 - 2.0 * k) / 3.0) / (2.0 * _SQRT_PI * math.gamma(k + 0.5))
    return pref * _airy_moment_scaled(k - 0.5, _C * eps)


def _qi_from_airy(k: int, eps, ai_m, aip_m):
    """Qi_k mantissa from the scaled Ai, Ai' at eps, by the Leibniz rule (k <= 0)
    or the upward recursion from Qi_0, Qi_-1, Qi_-2; floats or arrays."""
    d = _airy_ode_derivs(max(-k, 2), ai_m, aip_m, eps)
    if k <= 0:
        return _leibniz((-k,), d, d)[k]
    return _qi_upward(_leibniz(range(3), d, d), k, eps)[k]


def qi_scaled(k: int, eps):
    """(mantissa, logscale) with Qi_k = mantissa * exp(logscale), logscale the
    rounded -(4/3) max(eps, 0)^(3/2) and the mantissa taken against the exact one.

    eps is a float or an ndarray.  A float gives two floats; an array gives two
    arrays of its shape, each point within 1e-12 of the float call (the moment
    sums and the Airy values for |eps| >= 15 are rounded differently), with
    the logscale rounded exactly as the float call rounds it.
    """
    if k < QI_K_MIN or k > QI_K_MAX:
        raise UnsupportedOrderError(f"need {QI_K_MIN} <= k <= {QI_K_MAX}, got {k}")
    if isinstance(eps, np.ndarray):
        return _qi_scaled_array(k, eps)
    if k >= 1 and EPS0 <= eps < math.inf:
        return _qi_moment(k, eps), -(4.0 / 3.0) * eps**1.5
    v = airy_scaled(eps)
    # Not -2 v.s: sums of mantissas over k (the J_10 bracket) need the moment
    # path's logscale, and from x = 15 on airy_scaled rounds s as the grids do.
    logscale = -(4.0 / 3.0) * eps**1.5 if eps > 0.0 else -0.0
    return _qi_from_airy(k, eps, v.ai_m, v.aip_m), logscale


def _qi_scaled_array(k: int, eps: np.ndarray):
    """qi_scaled over an array: the moment rule on the points at eps >= EPS0
    (k >= 1), _qi_from_airy over airy_scaled_grid values on the others."""
    x = np.asarray(eps, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise DomainError("Qi needs finite eps")
    # A float's ** and numpy's power ufunc differ by one ulp in about 5% of
    # arguments, and one ulp of this logscale is 5e-10 of Qi at eps ~ 2e4.
    logscale = np.array([-(4.0 / 3.0) * max(e, 0.0) ** 1.5 for e in x.tolist()])
    mant = np.empty_like(x)
    mom = x >= EPS0 if k >= 1 else np.zeros(x.shape, dtype=bool)
    if mom.any():
        mant[mom] = _qi_moment(k, x[mom])
    if not mom.all():
        rest = x[~mom]
        ai_m, aip_m, *_ = airy_scaled_grid(rest)
        mant[~mom] = _qi_from_airy(k, rest, ai_m, aip_m)
    return mant.reshape(eps.shape), logscale.reshape(eps.shape)


def qi(k: int, eps):
    """Qi_k(eps) = lim_{rho,zeta -> 0} Im Q_k, for -24 <= k <= 60.

    eps is a float or an ndarray; an array gives an array of its shape (see
    qi_scaled for how closely it matches the float call).
    """
    m, s = qi_scaled(k, eps)
    return m * (np.exp(s) if isinstance(s, np.ndarray) else math.exp(s))


#: Supported half-integer window (as twice the index: -5/2 ... 21/2).
QI_HALF_MIN2, QI_HALF_MAX2 = -5, 21


def qi_half(index: float, eps: float) -> float:
    """Qi at half-integer index in {-5/2, -3/2, ..., 21/2}.

    Qi_{1/2} = (1/(2 sqrt(pi))) [1/3 - Ai_1(2^(2/3) eps)]; lower indices by
    repeated -d/deps (closing on derivatives of Ai), higher indices by the
    three-term recursion.  At eps >= EPS0 every index >= 1/2 is the Airy moment.
    """
    two = 2.0 * index
    if abs(two - round(two)) > 1e-12 or round(two) % 2 == 0:
        raise DomainError(f"index must be half-integer, got {index}")
    two = int(round(two))
    if two < QI_HALF_MIN2 or two > QI_HALF_MAX2:
        raise UnsupportedOrderError(
            f"half-integer index must lie in [{QI_HALF_MIN2}/2, {QI_HALF_MAX2}/2]"
        )
    if two >= 1 and EPS0 <= eps < math.inf:
        return _qi_moment(two / 2.0, eps) * math.exp(-(4.0 / 3.0) * eps**1.5)
    u = _C * eps
    if two <= 1:
        n = (1 - two) // 2  # Qi_{1/2 - n}
        if n == 0:
            return (1.0 / 3.0 - airy_integral(u)) / (2.0 * _SQRT_PI)
        return (-1.0) ** (n - 1) * _C**n * airy_derivs_upto(n - 1, u)[n - 1] / (
            2.0 * _SQRT_PI
        )
    seeds = {j - 2.5: qi_half(j - 2.5, eps) for j in range(4)}  # Qi_{-5/2} ... Qi_{1/2}
    return _qi_upward(seeds, two / 2.0, eps)[two / 2.0]


def qi_asym(k: int, eps: float, regime: str) -> float:
    """Leading large-|eps| forms of Qi_k.

    tunneling (eps -> +inf):
        (1/2pi) (2 sqrt(eps))^-(k+1) e^{-(4/3) eps^(3/2)}
            [1 - (3k^2 + 9k + 5)/(24 eps^(3/2))]
    classical (eps -> -inf): smooth (secular) term
        |eps|^(k-1/2) / (2 sqrt(pi) Gamma(k+1/2))
    plus the oscillation
        (1/2pi) (2 sqrt(|eps|))^-(k+1) sin((4/3)|eps|^(3/2) - k pi/2).
    """
    if regime == "tunneling":
        if eps <= 0.0:
            raise RegimeError("tunneling regime requires eps > 0")
        e32 = eps**1.5
        return (
            (1.0 / (2.0 * math.pi))
            * (2.0 * math.sqrt(eps)) ** (-(k + 1))
            * math.exp(-(4.0 / 3.0) * e32)
            * (1.0 - (3.0 * k * k + 9.0 * k + 5.0) / (24.0 * e32))
        )
    if regime == "classical":
        if eps >= 0.0:
            raise RegimeError("classical regime requires eps < 0")
        ae = abs(eps)
        secular = ae ** (k - 0.5) / (2.0 * _SQRT_PI * math.gamma(k + 0.5))
        osc = (
            (1.0 / (2.0 * math.pi))
            * (2.0 * math.sqrt(ae)) ** (-(k + 1))
            * math.sin((4.0 / 3.0) * ae**1.5 - k * math.pi / 2.0)
        )
        return secular + osc
    raise DomainError(f"regime must be 'tunneling' or 'classical', got {regime!r}")
