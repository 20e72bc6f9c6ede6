"""Airy-product families Q_k(rho, zeta; eps) and Qi_k(eps)."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballisticwaves.airyq import (
    EPS0,
    _q_diagonal_blocks,
    Q_K_MAX,
    Q_NEG_MAX,
    QI_K_MAX,
    QI_K_MIN,
    QArgs,
    q,
    q0,
    q_asym_origin,
    q_grad,
    q_grad_scaled,
    q_neg,
    q_scaled,
    q_table_scaled_grid,
    qi,
    qi_asym,
    qi_half,
    qi_scaled,
)
from ballisticwaves.atomlaser import LATTICE_N_MAX
from ballisticwaves.errors import (
    DomainError,
    RegimeError,
    SingularityError,
    StabilityWarning,
    UnsupportedOrderError,
)
from ballisticwaves.specfun import airy, airy_ci, airy_integral

import oracles

RNG = np.random.default_rng(7)


def _ci(x):
    v = airy(x)
    return complex(v.bi, v.ai), complex(v.bip, v.aip)


# ---------------------------------------------------------------- Q_0 and Q_{-k}


def test_q0_product_form():
    a = QArgs(0.8, -0.4, 1.3)
    ci, _ = _ci(a.alpha_plus)
    want = airy(a.alpha_minus).ai * ci
    assert q0(a) == pytest.approx(want, rel=1e-14)
    assert q(0, a) == q0(a)


def test_qargs_alpha():
    a = QArgs(0.5, 1.5, -2.0)
    assert a.alpha_minus == -2.0 - 1.5 + 0.5
    assert a.alpha_plus == -2.0 - 1.5 - 0.5
    with pytest.raises(DomainError):
        QArgs(-0.1, 0.0, 0.0)


def test_q_neg_first_derivative_closed_form():
    # dQ0/dzeta = -[Ai'(a-) Ci(a+) + Ai(a-) Ci'(a+)]
    a = QArgs(0.6, 0.3, -1.1)
    v = airy(a.alpha_minus)
    ci, cip = _ci(a.alpha_plus)
    want = -(v.aip * ci + v.ai * cip)
    assert q_neg(1, a) == pytest.approx(want, rel=1e-13)


def test_q_neg_is_zeta_derivative():
    rho, eps = 0.7, -0.8
    for k in (1, 2, 3):
        def f(z, k=k):
            return q_neg(k - 1, QArgs(rho, z, eps))

        fd = oracles.central_diff(f, 0.25, 1e-3)
        assert q_neg(k, QArgs(rho, 0.25, eps)) == pytest.approx(fd, rel=1e-8)


def test_q_neg_matches_mpmath_derivatives():
    # Independent of the Leibniz sum: mpmath differentiates Ai(a-) Ci(a+)
    # numerically in high precision, at eps < 0, eps = 0 and eps > 0.
    for a in (QArgs(0.7, 0.3, -2.0), QArgs(0.5, -0.4, 0.0), QArgs(1.2, 0.2, 3.0)):
        for n in range(Q_NEG_MAX + 1):
            want = oracles.q_neg_mp(n, a)
            assert abs(q_neg(n, a) - want) <= 1e-12 * abs(want)


def test_q_neg_order_error():
    with pytest.raises(UnsupportedOrderError):
        q_neg(Q_NEG_MAX + 1, QArgs(1.0, 0.0, 0.0))
    with pytest.raises(UnsupportedOrderError):
        q_neg(-1, QArgs(1.0, 0.0, 0.0))
    with pytest.raises(UnsupportedOrderError):
        q(Q_K_MAX + 1, QArgs(1.0, 0.0, 0.0))


# ------------------------------------------------------------- positive orders


def test_q_against_quadrature_oracle():
    pts = [
        (0, 0.8, 0.2, -1.0),
        (1, 0.5, 1.0, -2.0),
        (2, 1.5, -0.7, 0.8),
        (3, 0.5, 1.0, -2.0),
        (4, 2.2, 0.4, -4.0),
    ]
    for _ in range(20):
        k = int(RNG.integers(0, 5))
        rho = float(RNG.uniform(0.2, 3.0))
        zeta = float(RNG.uniform(-2.0, 2.0))
        eps = float(RNG.uniform(-6.0, 4.0))
        pts.append((k, rho, zeta, eps))
    for k, rho, zeta, eps in pts:
        got = q(k, QArgs(rho, zeta, eps))
        want = oracles.q_oracle(k, rho, zeta, eps)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-12)


def test_five_point_recursion_residual_grid():
    # rho^2 Q_{k+2} - (k+1/2) Q_{k+1} + (zeta-eps) Q_k + 1/4 Q_{k-2} = 0
    for rho in (0.2, 1.0, 3.0):
        for zeta in (-2.0, 0.0, 2.0):
            for eps in (-10.0, 0.0, 10.0):
                a = QArgs(rho, zeta, eps)
                tab = {k: q(k, a) for k in range(-3, 9)}
                for k in range(-1, 7):
                    terms = (
                        rho * rho * tab[k + 2],
                        (k + 0.5) * tab[k + 1],
                        (zeta - eps) * tab[k],
                        0.25 * tab[k - 2],
                    )
                    resid = terms[0] - terms[1] + terms[2] + terms[3]
                    scale = max(abs(t) for t in terms)
                    assert abs(resid) <= 1e-9 * scale


def test_q_scaled_consistency():
    a = QArgs(0.9, -15.0, -3.0)  # both alpha arguments far positive
    m, s = q_scaled(2, a)
    assert s < -5.0  # logscale = s(alpha_plus) - s(alpha_minus)
    assert m * math.exp(s) == pytest.approx(q(2, a), rel=1e-13)


def test_q_grad_matches_finite_differences():
    a = QArgs(0.8, 0.5, -1.5)
    for k in (-1, 0, 1, 3):
        d_rho, d_zeta = q_grad(k, a)
        fd_rho = oracles.central_diff(lambda t: q(k, QArgs(t, a.zeta, a.eps)), a.rho, 1e-3)
        fd_zeta = oracles.central_diff(lambda t: q(k, QArgs(a.rho, t, a.eps)), a.zeta, 1e-3)
        assert d_rho == pytest.approx(fd_rho, rel=1e-8)
        assert d_zeta == pytest.approx(fd_zeta, rel=1e-8)


def test_q_grad_scaled_consistency():
    a = QArgs(0.8, 0.5, -1.5)
    mr, mz, s = q_grad_scaled(2, a)
    dr, dz = q_grad(2, a)
    assert mr * math.exp(s) == pytest.approx(dr, rel=1e-13)
    assert mz * math.exp(s) == pytest.approx(dz, rel=1e-13)


def test_q_table_grid_matches_scalar():
    rho = np.array([0.3, 1.2, 2.5])
    zeta = np.array([-1.0, 0.0, 1.5])
    tab, ls = q_table_scaled_grid(6, rho, zeta, -2.0, kmin=-5)
    for i in range(3):
        a = QArgs(float(rho[i]), float(zeta[i]), -2.0)
        for k in (-5, -3, 0, 2, 6):
            got = tab[k][i] * math.exp(ls[i])
            assert got == pytest.approx(q(k, a), rel=1e-11)


def test_q_table_grid_array_eps_matches_float_calls_bit_for_bit():
    # eps broadcasts with rho and zeta: one point at many energies (as a
    # lattice beam uses it) and radii times energies.  Energies span the
    # Taylor window, both asymptotic sides and the lattice's eps_t ~ 1.9e4.
    rng = np.random.default_rng(22)
    eps = np.concatenate([rng.uniform(-40.0, 40.0, 40), rng.uniform(1.8e4, 2.0e4, 8)])
    tab, ls = q_table_scaled_grid(9, 1.7, 0.4, eps)
    rho = np.array([[0.2], [3.0], [90.0], [1.9e4]])
    tab2, ls2 = q_table_scaled_grid(4, rho, 1.9e4 - 2.0, eps, kmin=-5)
    assert tab[9].shape == eps.shape and tab2[4].shape == (4, eps.size)
    for j, e in enumerate(eps.tolist()):
        one, ls1 = q_table_scaled_grid(9, 1.7, 0.4, e)
        assert ls[j] == ls1
        assert all(tab[k][j] == one[k] for k in range(-3, 10))
        col, lsc = q_table_scaled_grid(4, rho, 1.9e4 - 2.0, e, kmin=-5)
        assert np.array_equal(ls2[:, j : j + 1], lsc)
        assert all(np.array_equal(tab2[k][:, j : j + 1], col[k]) for k in range(-5, 5))


@pytest.mark.parametrize("n", [0, 7, LATTICE_N_MAX])
def test_q_diagonal_blocks_match_per_order_tables_bit_for_bit(n):
    # Row m is Q_{m+1} at eps_m, as a lattice beam of n vortices uses it; the
    # lattice's energies (eps ~ 1.9e4, alpha_+ ~ -600) and the Taylor window,
    # over 37 radii in blocks of 16, so two block boundaries are crossed.
    rng = np.random.default_rng(23)
    zeta = 9837.0
    rho = np.sort(np.concatenate([zeta + rng.uniform(0.0, 0.6, 30), rng.uniform(0.2, 30.0, 7)]))
    eps = np.sort(rng.uniform(1.90e4, 1.91e4, n + 1))
    eps[::3] = rng.uniform(-20.0, 20.0, eps[::3].size)  # alpha_-+ in the Taylor window
    orders = list(range(1, n + 2))
    blocks = list(_q_diagonal_blocks(orders, rho, zeta, eps, 16))
    assert [start for start, _, _ in blocks] == [0, 16, 32]
    table = np.concatenate([tab for _, tab, _ in blocks], axis=1)
    logscale = np.concatenate([ls for _, _, ls in blocks], axis=1)
    assert table.shape == logscale.shape == (n + 1, rho.size)
    # Bit for bit where oracles.BIT_EXACT holds, else within 64 ulp of the row.
    for m, e in enumerate(eps.tolist()):
        want, ls = q_table_scaled_grid(m + 1, rho, zeta, e)
        oracles.assert_same_floats(table[m], want[m + 1], 64 * 2.0**-52, np.abs(want[m + 1]).max())
        oracles.assert_same_floats(logscale[m], ls, 4 * 2.0**-52)


def test_q_diagonal_blocks_keep_repeated_orders_and_reject_bad_ones():
    rho = np.array([1.5, 2.5])
    eps = np.array([-1.0, 0.5, 0.5, 3.0])
    (_, table, _), = _q_diagonal_blocks([2, 2, 5, 5], rho, 0.3, eps, 8)
    for i, (k, e) in enumerate(zip([2, 2, 5, 5], eps.tolist())):
        want = q_table_scaled_grid(k, rho, 0.3, e)[0][k]
        oracles.assert_same_floats(table[i], want, 64 * 2.0**-52, np.abs(want).max())
    for orders in ([0, 1], [3, 2], [Q_K_MAX + 1], []):
        with pytest.raises(UnsupportedOrderError):
            next(_q_diagonal_blocks(orders, rho, 0.3, eps[: len(orders)], 8))


def test_q_origin_asymptote():
    # Re Q_k ~ (2k-3)!!/(2^k pi rho^(2k-1)) as rho -> 0.
    assert q_asym_origin(1, 0.5) == pytest.approx(1.0 / (2.0 * math.pi * 0.5), rel=1e-15)
    assert q_asym_origin(2, 0.5) == pytest.approx(
        1.0 / (4.0 * math.pi * 0.5**3), rel=1e-15
    )
    rho = 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        for k in (1, 2, 3):
            got = q(k, QArgs(rho, 0.0, 0.0)).real
            assert got == pytest.approx(q_asym_origin(k, rho), rel=1e-2)
    with pytest.raises(DomainError):
        q_asym_origin(0, 0.5)
    with pytest.raises(DomainError):
        q_asym_origin(1, 0.0)


def test_q_singularity_and_stability():
    with pytest.raises(SingularityError):
        q(1, QArgs(0.0, 0.0, 0.0))
    with pytest.warns(StabilityWarning):
        q(2, QArgs(1e-4, 0.0, 0.0))
    # k <= 0 stays finite at rho = 0.
    q(0, QArgs(0.0, 0.3, -1.0))
    q_neg(2, QArgs(0.0, 0.3, -1.0))


def test_q_table_grid_warns_like_scalar():
    # One warning per grid call with some 0 < rho < RHO_MIN at kmax >= 2; none
    # for kmax = 1 or for entries at rho = 0 (nan there, as documented).
    with pytest.warns(StabilityWarning) as record:
        q_table_scaled_grid(2, np.array([1e-4, 0.5, 2e-4]), np.zeros(3), 0.0)
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", StabilityWarning)
        q_table_scaled_grid(1, np.array([1e-4]), np.zeros(1), 0.0)
        q_table_scaled_grid(6, np.array([0.0, 0.5]), np.zeros(2), 0.0)


# ------------------------------------------------------------------------- Qi


def test_qi_seed_anchors():
    for eps in (-3.0, 0.0, 2.0):
        v = airy(eps)
        assert qi(0, eps) == pytest.approx(v.ai**2, rel=1e-13)
        assert qi(-1, eps) == pytest.approx(-2.0 * v.ai * v.aip, rel=1e-13)
        assert qi(-2, eps) == pytest.approx(
            2.0 * v.aip**2 + 2.0 * eps * v.ai**2, rel=1e-13
        )
        # First upward step: Qi_1 = (1/2)[Qi_{-2}/2 - 2 eps Qi_0]
        assert qi(1, eps) == pytest.approx(v.aip**2 - eps * v.ai**2, rel=1e-12)


def test_qi_neg_matches_mpmath_derivatives():
    # Qi_{-n} = (-d/deps)^n Ai^2, differentiated numerically by mpmath.
    for eps in (-5.0, 0.0, 2.5):
        for n in range(13):
            assert qi(-n, eps) == pytest.approx(oracles.qi_neg_mp(n, eps), rel=1e-12)


def test_qi_recursion_residual():
    for k in range(-10, 21):
        for eps in (-20.0, -5.0, -1.0, 0.0, 2.0, 8.0):
            terms = (
                (k + 0.5) * qi(k + 1, eps),
                eps * qi(k, eps),
                0.25 * qi(k - 2, eps),
            )
            resid = terms[0] + terms[1] - terms[2]
            assert abs(resid) <= 1e-10 * max(1.0, *map(abs, terms))


def test_qi_matches_high_precision_on_lossy_path():
    # eps > 0 upward recursion cancels catastrophically; the adaptive
    # fallback must recover full precision.
    for k, eps in ((10, 4.0), (20, 6.0), (35, 3.0)):
        assert qi(k, eps) == pytest.approx(oracles.qi_mp(k, eps), rel=1e-10)
    for k, eps in ((-8, 5.0), (-20, -3.0)):
        assert qi(k, eps) == pytest.approx(oracles.qi_mp(k, eps), rel=1e-10)


# eps grid of the adaptive-oracle check: both sides of EPS0 = 1, the
# perpendicular-vortex eps_t ~ 490 and the lattice's eps_t ~ 1.9e4.
QI_ORACLE_EPS = (
    1e-6, 0.05, 0.2, 0.5, 0.8, 0.91, 0.99, 0.999999, 1.0, 1.05, 1.2, 1.5, 1.78,
    2.0, 3.0, 5.0, 9.0, 20.0, 60.0, 150.0, 490.0, 1.2e3, 5e3, 1.9e4, 2e4,
)


def test_qi_matches_adaptive_precision_oracle():
    # Every order the spectra use, through EPS0, to the lattice's eps_t; the
    # mantissas compare because both take them against exp(-(4/3) eps^(3/2)).
    for eps in QI_ORACLE_EPS:
        for k in range(1, QI_K_MAX + 1):
            m, s = qi_scaled(k, eps)
            assert s == -(4.0 / 3.0) * eps**1.5
            assert m == pytest.approx(oracles.qi_scaled_mp(k, eps), rel=1e-11, abs=0.0), (k, eps)


def test_qi_scaled_consistency():
    m, s = qi_scaled(3, 9.0)
    assert s < 0.0
    assert m * math.exp(s) == pytest.approx(qi(3, 9.0), rel=1e-13)


@given(
    st.integers(min_value=0, max_value=30),
    st.floats(min_value=-20.0, max_value=8.0),
)
@settings(max_examples=120, deadline=None)
def test_qi_positive_for_nonnegative_order(k, eps):
    # Outgoing-flux positivity of the retarded branch.
    assert qi(k, eps) > 0.0


def test_qi_order_errors():
    with pytest.raises(UnsupportedOrderError):
        qi(QI_K_MAX + 1, 0.0)
    with pytest.raises(UnsupportedOrderError):
        qi(QI_K_MIN - 1, 0.0)
    with pytest.raises(UnsupportedOrderError):
        qi(QI_K_MAX + 1, np.zeros(3))


def test_qi_array_matches_float_calls():
    # Array points take the Airy moment (k >= 1, eps >= EPS0) or the Leibniz
    # rule and recursion over airy_scaled_grid values, which from |eps| = 15 on
    # come from the asymptotic series, not scipy.  Each band of eps is one
    # sample.  Above eps = 0 Qi_k has no zeros and the mantissas match to 1e-12
    # relative; below, near its zeros, to 1e-12 of the band's largest one.  The
    # logscale is rounded exactly as the float call rounds it: numpy's power
    # ufunc would differ by one ulp, 5e-10 of Qi at eps ~ 2e4, in ~5% of points.
    rng = np.random.default_rng(10)
    edges = (-30.0, -25.0, -20.0, -15.0, -10.0, -5.0, 0.0, EPS0, 15.0, 2e4)
    bands = [
        np.concatenate([[lo, np.nextafter(hi, lo)], rng.uniform(lo, hi, 24)])
        for lo, hi in zip(edges, edges[1:])
    ]
    bands[-1] = np.append(bands[-1], 2e4)
    for k in range(QI_K_MIN, QI_K_MAX + 1):
        for eps in bands:
            m, s = qi_scaled(k, eps)
            want = [qi_scaled(k, float(e)) for e in eps]
            assert np.array_equal(s, [w[1] for w in want]), (k, eps[0])
            wm = np.array([w[0] for w in want])
            floor = np.abs(wm).max() if eps[0] < 0.0 else 0.0
            assert np.all(np.abs(m - wm) <= 1e-12 * np.maximum(np.abs(wm), floor)), (k, eps[0])
            wq = np.array([qi(k, float(e)) for e in eps])
            floor = np.abs(wq).max() if eps[0] < 0.0 else 0.0
            assert np.all(np.abs(qi(k, eps) - wq) <= 1e-12 * np.maximum(np.abs(wq), floor))


def test_qi_array_types():
    assert type(qi(2, 3.0)) is float and type(qi(-2, -3.0)) is float
    assert all(type(v) is float for v in qi_scaled(2, 3.0) + qi_scaled(-2, -3.0))
    zero_d = qi(2, np.array(3.0))  # numpy's scalar, as from a ufunc
    assert np.shape(zero_d) == () and zero_d == pytest.approx(qi(2, 3.0), rel=1e-12)
    assert qi_scaled(2, np.array(3.0))[0].shape == ()
    for k in (-2, 2):
        m, s = qi_scaled(k, np.array([]))
        assert m.shape == s.shape == (0,)
    eps = np.array([[-3.0, 0.5, 2.0], [20.0, -20.0, 1.0]])
    got = qi(1, eps)
    assert got.shape == (2, 3)
    want = np.array([qi(1, float(e)) for e in eps.ravel()]).reshape(2, 3)
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError):
        qi(1, np.array([0.0, math.nan]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: qi(1, math.inf),
        lambda: qi(5, math.inf),
        lambda: qi(60, math.inf),
        lambda: qi_scaled(3, math.inf),
        lambda: qi_half(1.5, math.inf),
    ],
    ids=["qi-1", "qi-5", "qi-60", "qi_scaled-3", "qi_half-1.5"],
)
def test_qi_rejects_positive_infinity(call):
    # eps = +inf is outside the moment rule's range; it must raise rather
    # than return nan (or a nan mantissa with logscale -inf).
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError):
            call()

def test_q_limit_matches_qi():
    # Im Q_k(rho, zeta -> 0) -> Qi_k.  Q depends on (zeta, eps) only through
    # zeta - eps, so the residual zeta displacement is absorbed as an energy
    # shift; what remains is the O(rho^2) convergence of the limit.
    eps = -1.5
    a = QArgs(1e-4, 1e-4, eps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        for k in (0, 1):
            assert q(k, a).imag == pytest.approx(qi(k, eps - a.zeta), rel=1e-5)
            assert q(k, a).imag == pytest.approx(qi(k, eps), rel=1e-3)
    # k = 2 at rho = 1e-4 sits inside the flagged digit-loss regime (the
    # forward recursion divides by rho^2); at rho = 1e-3 the cancellation
    # still leaves ~4 digits.
    b = QArgs(1e-3, 1e-4, eps)
    assert q(2, b).imag == pytest.approx(qi(2, eps - b.zeta), rel=1e-3)


# ------------------------------------------------------------- half-integer Qi


def test_qi_half_anchors():
    # Qi_{1/2}(0) = 1/(6 sqrt(pi)); Qi_{-1/2} = (2^(2/3)/(2 sqrt(pi))) Ai(2^(2/3) eps)
    assert qi_half(0.5, 0.0) == pytest.approx(1.0 / (6.0 * math.sqrt(math.pi)), rel=1e-13)
    c = 2.0 ** (2.0 / 3.0)
    for eps in (-2.0, 0.0, 1.5):
        assert qi_half(-0.5, eps) == pytest.approx(
            c / (2.0 * math.sqrt(math.pi)) * airy(c * eps).ai, rel=1e-12
        )
        assert qi_half(0.5, eps) == pytest.approx(
            (1.0 / 3.0 - airy_integral(c * eps)) / (2.0 * math.sqrt(math.pi)), rel=1e-12
        )


def test_qi_half_derivative_ladder():
    # Qi_{k-1} = -d Qi_k / d eps at half-integer index too.
    for idx in (0.5, -0.5, -1.5):
        fd = oracles.central_diff(lambda e: qi_half(idx, e), 0.4, 1e-4)
        assert qi_half(idx - 1.0, 0.4) == pytest.approx(-fd, rel=1e-7)


def test_qi_half_recursion_residual():
    eps = 1.0
    k = 1.5
    resid = (
        (k + 0.5) * qi_half(k + 1.0, eps)
        + eps * qi_half(k, eps)
        - 0.25 * qi_half(k - 2.0, eps)
    )
    assert abs(resid) <= 1e-12


def test_qi_half_matches_quadrature_oracle():
    # The upward half-integer recursion cancels at eps > 0 (5e-4 off at
    # (1/2, 2), 2e11 at (21/2, 4.6)); the Airy moment must not.  Below EPS0
    # the seed Qi_{1/2} takes Ai_1 from quadrature, not from scipy's itairy
    # (which put these 1.6e-6 to 8.3e-6 off at eps = 0.99).
    for eps in (0.05, 0.25, 0.5, 0.99, 1.0, 2.0, 3.0, 4.6, 10.0):
        for index in (0.5, 1.5, 6.5, 10.5):
            want = oracles.qi_quad_mp(index, eps)
            assert qi_half(index, eps) == pytest.approx(want, rel=1e-11, abs=0.0), (index, eps)


def test_qi_half_errors():
    with pytest.raises(DomainError):
        qi_half(1.0, 0.0)
    with pytest.raises(UnsupportedOrderError):
        qi_half(11.5, 0.0)
    with pytest.raises(UnsupportedOrderError):
        qi_half(-3.5, 0.0)


# ------------------------------------------------------------------ asymptotics


def test_qi_asym_tunneling():
    eps = 16.0
    for k in (0, 1, 3):
        assert qi_asym(k, eps, "tunneling") == pytest.approx(qi(k, eps), rel=1e-2)
    with pytest.raises(RegimeError):
        qi_asym(0, -1.0, "tunneling")


def test_qi_asym_classical():
    eps = -25.0
    secular = math.sqrt(abs(eps)) / math.pi  # k = 1 smooth term
    assert abs(secular - abs(eps) ** 0.5 / (2.0 * math.sqrt(math.pi) * math.gamma(1.5))) < 1e-14
    # k = 1 is the physically loaded order (s-wave current): full oscillatory
    # form to 0.5%.  Higher orders are secular-dominated and also tight.
    for k in (1, 2, 3):
        assert qi_asym(k, eps, "classical") == pytest.approx(qi(k, eps), rel=5e-3)
    # At k = 0 the oscillation is comparable to the secular term and the
    # leading form only brackets the exact value.
    assert qi_asym(0, eps, "classical") == pytest.approx(qi(0, eps), rel=0.15)
    with pytest.raises(RegimeError):
        qi_asym(0, 1.0, "classical")
    with pytest.raises(DomainError):
        qi_asym(0, 1.0, "nonsense")
