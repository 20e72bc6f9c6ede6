"""Airy kernel and companion special functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ai_zeros, bi_zeros

from ballisticwaves import _airy_table, specfun
from ballisticwaves.errors import DomainError, UnsupportedOrderError
from ballisticwaves.specfun import (
    airy,
    airy_ci,
    airy_deriv_n,
    airy_derivs_upto,
    airy_integral,
    airy_prime_zero,
    airy_scaled,
    airy_scaled_grid,
    airy_unrestricted,
    airy_zero,
    assoc_legendre_abs2,
)

import oracles


def test_airy_matches_mpmath_spot_values():
    for x in (-37.25, -12.0, -3.5, -1.0, 0.0, 0.5, 2.0, 7.75, 25.0, 80.0):
        v = airy(x)
        ai, aip, bi, bip = oracles.airy_mp(x)
        for got, want in ((v.ai, ai), (v.aip, aip), (v.bi, bi), (v.bip, bip)):
            assert got == pytest.approx(want, rel=1e-11, abs=1e-300)


@given(st.floats(min_value=-200.0, max_value=30.0))
@settings(max_examples=200, deadline=None)
def test_airy_wronskian(x):
    v = airy(x)
    assert v.ai * v.bip - v.aip * v.bi == pytest.approx(1.0 / math.pi, rel=1e-10)


@given(st.floats(min_value=-200.0, max_value=200.0))
@settings(max_examples=200, deadline=None)
def test_airy_scaled_consistency(x):
    v = airy_scaled(x)
    if x <= 0.0:
        assert v.s == 0.0
        w = airy(x)
        assert (v.ai_m, v.aip_m, v.bi_m, v.bip_m) == (w.ai, w.aip, w.bi, w.bip)
    else:
        assert v.s == pytest.approx((2.0 / 3.0) * x**1.5, rel=1e-14)
        w = airy(x)
        if w.ai > 0.0:
            assert v.ai_m * math.exp(-v.s) == pytest.approx(w.ai, rel=1e-12)
        if math.isfinite(w.bi):
            assert v.bi_m * math.exp(v.s) == pytest.approx(w.bi, rel=1e-12)


def test_airy_scaled_grid_matches_scalar():
    x = np.array([-600000.0, -10.0, -1.0, 0.0, 1.5, 50.0])
    ai, aip, bi, bip, s = airy_scaled_grid(x)
    for i, xv in enumerate(x):
        v = airy_scaled(xv)
        assert ai[i] == pytest.approx(v.ai_m, rel=1e-12)
        assert aip[i] == pytest.approx(v.aip_m, rel=1e-12)
        assert bi[i] == pytest.approx(v.bi_m, rel=1e-12)
        assert bip[i] == pytest.approx(v.bip_m, rel=1e-12)
        assert s[i] == pytest.approx(v.s, rel=1e-14, abs=0.0)


def _airy_grid_errors(x):
    # Largest error of airy_scaled_grid's (Ai, Ai', Bi, Bi') at each x against
    # 40-digit mpmath: relative to the value (scaled mantissas) for x > 0, and
    # relative to the modulus |x|^(-+1/4) / sqrt(pi) for x < 0.
    got = np.array(airy_scaled_grid(np.asarray(x))[:4]).T
    errs = []
    for xv, row in zip(x, got):
        want = np.array(oracles.airy_mp(xv, dps=40, scaled=True))
        if xv > 0.0:
            scale = np.abs(want)
        else:
            q = abs(xv) ** 0.25 / math.sqrt(math.pi)
            scale = np.array([1.0 / q, q, 1.0 / q, q])
        errs.append(np.max(np.abs(row - want) / scale))
    return np.array(errs)


def test_airy_scaled_grid_large_argument_matches_mpmath():
    # |x| >= 15 takes the DLMF 9.7 asymptotic series instead of scipy.
    x = np.geomspace(15.0, 1e4, 41)
    assert np.max(_airy_grid_errors(x)) <= 1e-13
    # For x < 0 the phase zeta = (2/3)|x|^(3/2) is rounded to double before
    # its sine and cosine are taken, which costs up to about 2^-52 zeta in
    # the modulus: 1.5e-10 at x = -1e4, on scipy's kernel as on the series.
    zeta = (2.0 / 3.0) * x**1.5
    assert np.all(_airy_grid_errors(-x) <= 1e-13 + 4e-16 * zeta)


def test_airy_scaled_grid_is_seamless_at_the_series_switch():
    # Just inside |x| = 15 scipy answers, just outside the series does.
    x = np.array([15.0 - 1e-9, 15.0 + 1e-9, -15.0 + 1e-9, -15.0 - 1e-9])
    zeta = (2.0 / 3.0) * np.abs(x) ** 1.5
    assert np.all(_airy_grid_errors(x) <= 1e-13 + 4e-16 * zeta * (x < 0.0))


def test_window_table_matches_mpmath():
    # Every committed centre value is the double nearest its 40-digit value,
    # scaled as ScaledAiryValues for c > 0.
    for i, row in enumerate(_airy_table.CENTRE_VALUES):
        c = i / _airy_table.CENTRE_STEPS - 15.0
        assert row == oracles.airy_mp(c, dps=40, scaled=True), c


def _window_points():
    # 200 seeded points in (-15, 15), and points 1e-6 and 3e-7 from every zero
    # of Ai, Ai', Bi and Bi' above -15 (12 of each), where values are small
    # against the local size.
    zeros = np.concatenate([ai_zeros(12)[:2], bi_zeros(12)[:2]]).ravel()
    assert zeros.min() > -15.0
    near = np.concatenate([zeros - 1e-6, zeros + 3e-7])
    return np.concatenate([np.random.default_rng(15).uniform(-15.0, 15.0, 200), near])


def test_airy_window_matches_mpmath():
    # Taylor steps from the committed table: within 1e-15 of the local size of
    # each function (scipy's airy / airye were 7e-14 off on such points).
    assert np.max(_airy_grid_errors(_window_points())) <= 1e-15


def _local_size(x, values):
    # |value| for x > 0, the modulus |x|^(-+1/4) / sqrt(pi) for x < 0.
    q = np.abs(x) ** 0.25 / math.sqrt(math.pi)
    modulus = np.array([1.0 / q, q, 1.0 / q, q])
    return np.where(x > 0.0, np.abs(values), modulus)


def _centre_boundaries():
    # The doubles on either side of every switch between the window's centres,
    # which lie 1/16 apart.
    mid = (np.arange(-240, 240) + 0.5) / 16.0
    return np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)


def test_airy_scalar_matches_grid():
    far = np.geomspace(15.0, 1e5, 20)
    x = np.concatenate([_window_points(), *_centre_boundaries(), far, -far])
    grid = np.array(airy_scaled_grid(x))
    scalar = np.array([list(airy_scaled(v)) for v in x.tolist()]).T
    assert np.max(np.abs(scalar[:4] - grid[:4]) / _local_size(x, grid[:4])) <= 1e-14
    np.testing.assert_allclose(scalar[4], grid[4], rtol=1e-14, atol=0.0)
    plain = np.array([list(airy_unrestricted(v)) for v in x[x <= 0.0].tolist()]).T
    assert np.array_equal(plain, scalar[:4, x <= 0.0])


def test_airy_series_truncation_matches_all_terms(monkeypatch):
    # Array sums start at the first row that can still reach 2^-60 at each point
    # (two of nine rows at |x| ~ 2e4).  Over |x| in [15, 2e4], on both sides, in
    # blocks of one magnitude and of mixed magnitudes, they stay within 5e-16
    # of the 18-term sums, and a point gives the same bits in either block
    # (where oracles.BIT_EXACT holds; 2 ulp elsewhere).
    rng = np.random.default_rng(31)
    ax = np.sort(np.exp(rng.uniform(math.log(15.0), math.log(2e4), 20000)))
    mixed = rng.permutation(ax.size)
    for sign in (1.0, -1.0):
        x = sign * ax
        got = np.concatenate([specfun._airy_asymptotic(b) for b in np.array_split(x, 250)], axis=1)
        again = np.empty_like(got)
        for b in np.array_split(mixed, 250):
            again[:, b] = specfun._airy_asymptotic(x[b])
        with monkeypatch.context() as m:
            m.setattr(specfun, "_ASYM_REACH", np.full(specfun._ASYM_REACH.shape, math.inf))
            full = np.concatenate([specfun._airy_asymptotic(b) for b in np.array_split(x, 50)],
                                  axis=1)
        size = np.vstack([_local_size(x, full[:4]), full[4]])
        oracles.assert_same_floats(again, got, 2 * 2.0**-52, size)
        assert np.array_equal(got[4], full[4])
        assert np.max(np.abs(got[:4] - full[:4]) / _local_size(x, full[:4])) <= 5e-16
    assert specfun._ASYM_REACH.size == specfun._ASYM_COEFFS.shape[0] - 1


def test_airy_window_is_continuous_at_centre_boundaries():
    # Across each switch the values move by their slope times the step (two
    # ulps), and by nothing more than the rounding of either side.
    below, above = _centre_boundaries()
    lo, hi = np.array(airy_scaled_grid(below)[:4]), np.array(airy_scaled_grid(above)[:4])
    ai, aip, bi, bip = lo
    r = np.sqrt(np.maximum(below, 0.0))  # the mantissas' own slope for x > 0
    slope = np.array([aip + r * ai, below * ai + r * aip, bip - r * bi, below * bi - r * bip])
    jump = hi - lo - slope * (above - below)
    assert np.max(np.abs(jump) / _local_size(below, lo)) <= 1e-15


def test_airy_scalar_is_seamless_at_the_series_switch():
    # Just inside |x| = 15 the Taylor window answers, just outside the series.
    for x in (15.0 - 1e-9, 15.0 + 1e-9, -15.0 + 1e-9, -15.0 - 1e-9):
        got = np.array(airy_scaled(x)[:4])
        want = np.array(oracles.airy_mp(x, dps=40, scaled=True))
        size = _local_size(np.array([x]), want[:, None]).ravel()
        bound = 1e-13 + 4e-16 * (2.0 / 3.0) * 15.0**1.5 * (x < 0.0)
        assert np.max(np.abs(got - want) / size) <= bound


def test_airy_non_finite_arguments():
    # Grids give nan values with s = 0, +inf, 0 at nan, +inf, -inf; scalars raise.
    x = np.array([math.nan, math.inf, -math.inf])
    out = np.array(airy_scaled_grid(x))
    assert np.isnan(out[:4]).all()
    assert out[4].tolist() == [0.0, math.inf, 0.0]
    for v in x.tolist():
        for f in (airy_scaled, airy_unrestricted):
            with pytest.raises(DomainError):
                f(v)


def test_airy_domain_errors():
    with pytest.raises(DomainError):
        airy(250.0)
    with pytest.raises(DomainError):
        airy(float("nan"))
    with pytest.raises(DomainError):
        airy(float("inf"))


def test_airy_far_negative_fallback():
    # Below the scipy support window the oscillatory series takes over.
    # Pointwise accuracy is limited by double rounding of the huge phase
    # (2/3)|x|^(3/2) ~ 1e9, i.e. ~|phase| * 2^-52 radians; the Wronskian is
    # phase-insensitive and stays tight.
    for x in (-6.0e5, -2.5e6):
        v = airy_unrestricted(x)
        ai, aip, bi, bip = oracles.airy_mp(x, dps=40)
        phase = (2.0 / 3.0) * abs(x) ** 1.5
        tol = max(1e-9, 10.0 * phase * 2.0**-52)
        amp = abs(x) ** -0.25 / math.sqrt(math.pi)
        assert v.ai == pytest.approx(ai, abs=tol * amp)
        assert v.bi == pytest.approx(bi, abs=tol * amp)
        ampp = abs(x) ** 0.25 / math.sqrt(math.pi)
        assert v.aip == pytest.approx(aip, abs=tol * ampp)
        assert v.bip == pytest.approx(bip, abs=tol * ampp)
        assert v.ai * v.bip - v.aip * v.bi == pytest.approx(1.0 / math.pi, rel=1e-8)


def test_airy_ci_combination():
    ci, cip = airy_ci(-1.3)
    v = airy(-1.3)
    assert ci == complex(v.bi, v.ai)
    assert cip == complex(v.bip, v.aip)


def test_airy_deriv_recurrence_anchors():
    for x in (-2.3, 0.0, 1.7):
        v = airy(x)
        assert airy_deriv_n(0, x) == v.ai
        assert airy_deriv_n(1, x) == v.aip
        assert airy_deriv_n(2, x) == pytest.approx(x * v.ai, rel=1e-14, abs=1e-300)
        assert airy_deriv_n(3, x) == pytest.approx(v.ai + x * v.aip, rel=1e-14)


def test_airy_deriv_matches_mpmath():
    for n in range(2, 8):
        for x in (-3.1, -0.4, 1.2):
            assert airy_deriv_n(n, x) == pytest.approx(
                oracles.airy_deriv_mp(n, x), rel=1e-11
            )


def test_airy_derivs_upto_table():
    tab = airy_derivs_upto(6, 0.8)
    for n in range(7):
        assert tab[n] == airy_deriv_n(n, 0.8)
    with pytest.raises(UnsupportedOrderError):
        airy_deriv_n(41, 0.0)


def test_airy_integral():
    assert airy_integral(0.0) == 0.0
    # Primitive tends to 1/3 on the right.
    assert airy_integral(50.0) == pytest.approx(1.0 / 3.0, rel=1e-11)
    # Derivative of the primitive is Ai (1.5e-13 off from the quadrature rule,
    # 1e-6 from scipy's itairy).
    d = oracles.central_diff(airy_integral, 1.1, 1e-3)
    assert d == pytest.approx(airy(1.1).ai, rel=1e-10)


def test_airy_integral_tail_matches_mpmath():
    # scipy's itairy returns -2.29 at x = 9.25 and 2.62 at 9.0.
    for x in (5.0, 7.5, 8.5, 9.0, 9.25, 12.0):
        assert airy_integral(x) == pytest.approx(oracles.airy_integral_mp(x), rel=1e-14)


def test_airy_integral_quadrature_window_matches_mpmath():
    # scipy's itairy is 1.7e-7 off at x = -8, 2.3e-7 at -5 and 3.2e-8 at 1.5.
    for x in np.linspace(-15.0, 1.58, 41).tolist():
        assert airy_integral(x) == pytest.approx(oracles.airy_integral_mp(x), rel=0.0, abs=1e-13)


def test_airy_zeros():
    assert airy_zero(1) == pytest.approx(-2.33810741045977, rel=1e-12)
    assert airy_prime_zero(1) == pytest.approx(-1.01879297164747, rel=1e-12)
    for n in (1, 2, 5, 10):
        assert abs(airy(airy_zero(n)).ai) < 1e-10
        assert abs(airy(airy_prime_zero(n)).aip) < 1e-10
    assert airy_zero(2) < airy_zero(1) < 0.0
    with pytest.raises(DomainError):
        airy_zero(0)
    with pytest.raises(DomainError):
        airy_prime_zero(101)


def test_assoc_legendre_inside_unit_interval():
    from scipy.special import lpmv

    for l in range(5):
        for m in range(l + 1):
            for x in (-0.9, -0.3, 0.0, 0.4, 0.99):
                assert assoc_legendre_abs2(l, m, x) == pytest.approx(
                    lpmv(m, l, x) ** 2, rel=1e-12, abs=1e-14
                )


def test_assoc_legendre_outside_unit_interval():
    # |P_1^1|^2 = |1 - x^2| and |P_1^0|^2 = x^2 continue past |x| = 1.
    for x in (1.5, 2.0, 3.7):
        assert assoc_legendre_abs2(1, 1, x) == pytest.approx(abs(1 - x * x), rel=1e-12)
        assert assoc_legendre_abs2(1, 0, x) == pytest.approx(x * x, rel=1e-12)
        assert assoc_legendre_abs2(2, 2, x) == pytest.approx(
            9.0 * (x * x - 1.0) ** 2, rel=1e-12
        )


def test_assoc_legendre_negative_m_ratio():
    for l, m, x in ((2, 1, 0.3), (3, 2, 1.8), (4, 3, 0.7)):
        ratio = (math.factorial(l - m) / math.factorial(l + m)) ** 2
        assert assoc_legendre_abs2(l, -m, x) == pytest.approx(
            ratio * assoc_legendre_abs2(l, m, x), rel=1e-12
        )


def test_assoc_legendre_errors():
    with pytest.raises(DomainError):
        assoc_legendre_abs2(1, 2, 0.5)
    with pytest.raises(UnsupportedOrderError):
        assoc_legendre_abs2(21, 0, 0.5)
