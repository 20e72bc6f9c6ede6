"""Uniform-field Green functions, currents and photodetachment closed forms."""

import cmath
import math

import numpy as np
import pytest

from ballisticwaves import airyq, ballistic
from ballisticwaves.airyq import QArgs, q
from ballisticwaves.ballistic import (
    ALPHA_THRESHOLD,
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    GREEN_L_MAX,
    DetectorGrid,
    PhysicalContext,
    SourceSuperposition,
    current_density,
    current_density_z_far,
    green_lm,
    green_lm_far,
    green_lm_grad,
    green_swave,
    photodetachment_profile,
    photodetachment_spectrum,
    polarization_to_source,
    scattering_wave,
    staircase_energies,
    total_current_asym,
    total_current_matrix,
)
from ballisticwaves.errors import (
    DomainError,
    RegimeError,
    SingularityError,
    UnsupportedOrderError,
)
from ballisticwaves.harmonics import MultipoleIndex, klm_eval
from ballisticwaves.specfun import airy, airy_ci, airy_prime_zero, airy_zero

import oracles

RNG = np.random.default_rng(42)

# Photodetachment-microscopy scale: electron in a 116 V/m static field.
CTX = PhysicalContext(ELECTRON_MASS, 116.0 * ELEMENTARY_CHARGE)
E0 = 60.8e-6 * ELEMENTARY_CHARGE


def _random_r(rng, scale):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * scale * rng.uniform(0.3, 1.5)


def test_context_scales():
    assert CTX.beta_f == pytest.approx(7.2468e6, rel=1e-3)
    assert CTX.eps(E0) == pytest.approx(-7.5967, rel=1e-4)
    with pytest.raises(DomainError):
        PhysicalContext(ELECTRON_MASS, 0.0)


def test_context_scales_are_computed_once_with_the_formula_floats():
    ctx = PhysicalContext(ELECTRON_MASS, 116.0 * ELEMENTARY_CHARGE)
    twin = PhysicalContext(ELECTRON_MASS, 116.0 * ELEMENTARY_CHARGE)
    assert twin == ctx and hash(twin) == hash(ctx)
    beta = (ctx.mass / (4.0 * ctx.hbar**2 * ctx.force**2)) ** (1.0 / 3.0)
    assert ctx.beta == beta and ctx.beta_f == beta * ctx.force
    assert ctx.eps(E0) == -2.0 * beta * E0
    assert ctx.beta is ctx.beta and ctx.beta_f is ctx.beta_f  # one float, kept
    # A context whose scales are computed equals and hashes as one whose are not.
    assert twin == ctx and hash(twin) == hash(ctx)
    assert ctx != PhysicalContext(ELECTRON_MASS, 117.0 * ELEMENTARY_CHARGE)
    with pytest.raises(AttributeError):
        ctx.force = 1.0


def test_green_swave_is_q1():
    r = (0.4e-7, -0.3e-7, 0.9e-7)
    a = CTX.qargs(r, E0)
    want = -4.0 * CTX.beta * CTX.beta_f**3 * q(1, a)
    assert green_swave(r, (0, 0, 0), E0, CTX) == pytest.approx(want, rel=1e-14)
    # G_00 carries the Y_00 normalization relative to the plain point source.
    assert green_lm(MultipoleIndex(0, 0), r, E0, CTX) == pytest.approx(
        want / math.sqrt(4.0 * math.pi), rel=1e-13
    )
    with pytest.raises(SingularityError):
        green_swave((0, 0, 0), (0, 0, 0), E0, CTX)


def test_translational_invariance():
    # G(r, r'; E) = G(r - r', 0; E + F z').
    r = np.array([2.1e-7, 0.5e-7, -1.0e-7])
    rp = np.array([-0.8e-7, 0.2e-7, 0.6e-7])
    lhs = green_swave(r, rp, E0, CTX)
    rhs = green_swave(r - rp, (0, 0, 0), E0 + CTX.force * rp[2], CTX)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_substitution_rule():
    # dG/dz' = -dG/dz + F dG/dE: shifting the source down the force axis is
    # an energy shift plus a field-point shift.
    r = np.array([1.3e-7, -0.4e-7, 0.8e-7])
    h = 1e-10
    d_zp = oracles.central_diff(
        lambda t: green_swave(r, (0, 0, t), E0, CTX), 0.0, h
    )
    d_z = oracles.central_diff(
        lambda t: green_swave((r[0], r[1], t), (0, 0, 0), E0, CTX), r[2], h
    )
    d_e = oracles.central_diff(
        lambda t: green_swave(r, (0, 0, 0), t, CTX), E0, CTX.force * h
    )
    want = -d_z + CTX.force * d_e
    assert abs(d_zp - want) <= 1e-5 * abs(want)


def test_schroedinger_residual():
    # Finite-difference Hamiltonian applied to G_lm off-source.
    for idx in (MultipoleIndex(0, 0), MultipoleIndex(1, 1), MultipoleIndex(2, 0)):
        r = _random_r(RNG, 2.0 / CTX.beta_f)
        res = oracles.hamiltonian_residual(
            lambda p: green_lm(idx, p, E0, CTX), r, E0, CTX
        )
        assert res <= 1e-3


def _pwave_explicit(m: int, r, E: float, ctx: PhysicalContext) -> complex:
    """Closed-form p-wave Green functions (m >= 0 lateral factor x + iy)."""
    x, y, z = r
    rn = math.sqrt(x * x + y * y + z * z)
    beta, F = ctx.beta, ctx.force
    a = ctx.qargs(r, E)
    am, ap = a.alpha_minus, a.alpha_plus
    v = airy(am)
    ci, cip = airy_ci(ap)
    if m == 0:
        return (
            math.sqrt(3.0 / math.pi)
            * beta**3
            * F**2
            / rn**3
            * (
                z * (ci * v.aip - cip * v.ai)
                + 2.0
                * beta
                * F
                * rn
                * (
                    beta * (z * (2.0 * E + F * z) - F * rn * rn) * ci * v.ai
                    + z * cip * v.aip
                )
            )
        )
    lat = complex(x, y) if m == 1 else complex(x, -y)
    return (
        math.sqrt(3.0 / (2.0 * math.pi))
        * beta**3
        * F**2
        * lat
        / rn**3
        * (
            (cip * v.ai - ci * v.aip)
            - 2.0 * beta * F * rn * (cip * v.aip + beta * (2.0 * E + F * z) * ci * v.ai)
        )
    )


def test_pwave_explicit_forms():
    # The general translation-theorem sum reproduces the explicit p-wave
    # closed forms; m = -1 matches up to the Condon-Shortley sign.
    for _ in range(50):
        r = _random_r(RNG, 1.5 / CTX.beta_f)
        for m, sign in ((0, 1.0), (1, 1.0), (-1, -1.0)):
            got = green_lm(MultipoleIndex(1, m), r, E0, CTX)
            want = sign * _pwave_explicit(m, r, E0, CTX)
            assert got == pytest.approx(want, rel=1e-9)


def test_near_source_asymptote():
    # G_lm -> -(M / 2 pi hbar^2) (2l-1)!! K_lm(r) / r^(2l+1) as r -> 0.
    rnorm = 1e-3 / CTX.beta_f
    direc = np.array([0.3, -0.5, 0.81])
    direc /= np.linalg.norm(direc)
    r = direc * rnorm
    for l in range(3):
        for m in range(-l, l + 1):
            idx = MultipoleIndex(l, m)
            df = 1.0
            for n in range(2 * l - 1, 0, -2):
                df *= n
            near = (
                -(CTX.mass / (2.0 * math.pi * CTX.hbar**2))
                * df
                * klm_eval(idx, r)
                / rnorm ** (2 * l + 1)
            )
            assert green_lm(idx, r, E0, CTX) == pytest.approx(near, rel=1e-2)


def test_green_lm_grad_matches_finite_differences():
    # (4, -2) and (6, 0) need orders below Q_-3 in the table.
    indices = (0, 0), (1, 0), (2, -1), (4, -2), (6, 0)
    for idx in (MultipoleIndex(*lm) for lm in indices):
        r = _random_r(RNG, 1.0 / CTX.beta_f)
        val, grad = green_lm_grad(idx, r, E0, CTX)
        assert val == pytest.approx(green_lm(idx, r, E0, CTX), rel=1e-13)
        h = 1e-4 / CTX.beta_f
        for d in range(3):
            def f(t, d=d):
                p = list(r)
                p[d] = t
                return green_lm(idx, p, E0, CTX)

            fd = oracles.central_diff(f, r[d], h)
            assert grad[d] == pytest.approx(fd, rel=1e-7, abs=abs(val) * CTX.beta_f * 1e-9)


# ------------------------------------------------------------------ far field


def _far_point(R: float, zeta: float, E: float, phi: float = 0.0):
    bf = CTX.beta_f
    z = zeta / bf
    return np.array([R * math.cos(phi), R * math.sin(phi), z])


def test_far_field_swave_closed_form():
    # G_00 ~ 4 i beta (beta F)^3 Ci(a+) Ai(a-) / sqrt(-4 pi a+)
    r = _far_point(2e-5, 3.7e6, E0)
    a = CTX.qargs(r, E0)
    from ballisticwaves.specfun import airy_unrestricted

    v = airy_unrestricted(a.alpha_plus)
    ci = complex(v.bi, v.ai)
    want = (
        4j
        * CTX.beta
        * CTX.beta_f**3
        * ci
        * airy_unrestricted(a.alpha_minus).ai
        / cmath.sqrt(-4.0 * math.pi * a.alpha_plus)
    )
    got = green_lm_far(MultipoleIndex(0, 0), r, E0, CTX)
    assert got == pytest.approx(want, rel=1e-10)


def test_far_field_error_scaling():
    # The saddle-point forms drop terms of relative order 1/sqrt(-alpha_+):
    # on-axis s-wave error halves each time zeta quadruples.
    errs = []
    for zeta in (200.0, 800.0, 3200.0, 12800.0):
        r = _far_point(1e-8, zeta, E0)
        exact = green_lm(MultipoleIndex(0, 0), r, E0, CTX)
        far = green_lm_far(MultipoleIndex(0, 0), r, E0, CTX)
        errs.append(abs(far / exact - 1.0))
    assert 0.07 < errs[0] < 0.13
    for a, b in zip(errs, errs[1:]):
        assert b == pytest.approx(a / 2.0, rel=0.2)
    assert errs[-1] < 0.02


def test_far_field_current_swave():
    # j_00 ~ -2 beta^6 F^5 Ai(a-)^2 / (pi^2 hbar alpha_+)
    r = _far_point(3e-5, 3.7e6, E0)
    _, want = oracles.far_swave_mp(*r, E0, CTX)
    got = current_density_z_far(MultipoleIndex(0, 0), MultipoleIndex(0, 0), r, E0, CTX)
    assert complex(got) == pytest.approx(want, rel=1e-10)


def test_far_field_scalar_alpha_minus_is_stable():
    # alpha_- = eps + bF (x^2 + y^2) / (r + z): r - z in floats would keep
    # about 8 digits at this detector distance (2.6e-9 relative in j_00).
    # G_00 is compared in modulus: the phase of Ci(alpha_+) at alpha_+ ~ -7.4e6
    # (about 1.3e10 rad) is rounded to about 1e-6 rad in float64.
    r = _far_point(3e-5, 3.7e6, E0)
    green_want, current_want = oracles.far_swave_mp(*r, E0, CTX)
    got = current_density_z_far(MultipoleIndex(0, 0), MultipoleIndex(0, 0), r, E0, CTX)
    assert complex(got) == pytest.approx(current_want, rel=1e-12)
    got = green_lm_far(MultipoleIndex(0, 0), r, E0, CTX)
    assert abs(got) == pytest.approx(abs(green_want), rel=1e-12)


def test_far_field_regime_error():
    r = _far_point(1e-8, 2.0, E0)
    with pytest.raises(RegimeError):
        green_lm_far(MultipoleIndex(0, 0), r, E0, CTX)
    with pytest.raises(RegimeError):
        current_density_z_far(MultipoleIndex(0, 0), MultipoleIndex(0, 0), r, E0, CTX)


# -------------------------------------------------------------- total currents


def test_total_current_closed_forms():
    eps = CTX.eps(E0)
    v = airy(eps)
    M, hb, bf = CTX.mass, CTX.hbar, CTX.beta_f
    want00 = M * bf / (2.0 * math.pi * hb**3) * (v.aip**2 - eps * v.ai**2)
    assert total_current_matrix(
        MultipoleIndex(0, 0), MultipoleIndex(0, 0), E0, CTX
    ) == pytest.approx(want00, rel=1e-12)
    want10 = (
        M
        * bf**3
        / (math.pi * hb**3)
        * (2.0 * eps**2 * v.ai**2 - 4.0 * v.ai * v.aip - 2.0 * eps * v.aip**2)
    )
    assert total_current_matrix(
        MultipoleIndex(1, 0), MultipoleIndex(1, 0), E0, CTX
    ) == pytest.approx(want10, rel=1e-12)
    want11 = (
        M
        * bf**3
        / (math.pi * hb**3)
        * (2.0 * eps**2 * v.ai**2 - v.ai * v.aip - 2.0 * eps * v.aip**2)
    )
    for m in (1, -1):
        assert total_current_matrix(
            MultipoleIndex(1, m), MultipoleIndex(1, m), E0, CTX
        ) == pytest.approx(want11, rel=1e-12)


def test_total_current_matrix_structure():
    idxs = [MultipoleIndex(l, m) for l in range(3) for m in range(-l, l + 1)]
    for a in idxs:
        for b in idxs:
            jab = total_current_matrix(a, b, E0, CTX)
            if a.m != b.m:
                assert jab == 0.0
            else:
                assert jab == pytest.approx(total_current_matrix(b, a, E0, CTX), rel=1e-12)
        assert total_current_matrix(a, a, E0, CTX) > 0.0
    with pytest.raises(UnsupportedOrderError):
        total_current_matrix(
            MultipoleIndex(GREEN_L_MAX + 1, 0), MultipoleIndex(0, 0), E0, CTX
        )


def test_tunneling_asymptote():
    E = -12.0 / (2.0 * CTX.beta)  # eps = +12
    for l in range(3):
        for m in range(0, l + 1):
            idx = MultipoleIndex(l, m)
            exact = total_current_matrix(idx, idx, E, CTX)
            asym = total_current_asym(idx, E, CTX, "tunneling")
            assert asym == pytest.approx(exact, rel=0.05)
    with pytest.raises(RegimeError):
        total_current_asym(MultipoleIndex(0, 0), abs(E), CTX, "tunneling")
    with pytest.raises(RegimeError):
        total_current_asym(MultipoleIndex(0, 0), -0.1 / CTX.beta, CTX, "tunneling")


def test_classical_asymptote():
    E = 25.0 / (2.0 * CTX.beta)  # eps = -25
    idx = MultipoleIndex(0, 0)
    exact = total_current_matrix(idx, idx, E, CTX)
    asym = total_current_asym(idx, E, CTX, "classical")
    assert asym == pytest.approx(exact, rel=5e-3)
    # Secular part alone is the free-space (Wigner) current.
    k = math.sqrt(2.0 * CTX.mass * E) / CTX.hbar
    wigner = CTX.mass * k / (4.0 * math.pi**2 * CTX.hbar**3)
    assert asym == pytest.approx(wigner, rel=0.05)
    with pytest.raises(DomainError):
        total_current_asym(idx, E, CTX, "bogus")


def test_staircase_energies_match_stationary_points():
    # dJ_10/dE is proportional to -Ai'(eps)^2, so the true stationary points
    # of J_10(E) sit exactly at the Airy-prime zeros, which is where the
    # returned energies are placed; the 2% check below starts at the second.
    energies = staircase_energies(1, 4, CTX)
    for nu, E_nu in enumerate(energies):
        eps_pred = CTX.eps(-E_nu)  # positive convention: eps at energy E
        true_eps = -airy_prime_zero(nu + 1)
        if nu >= 1:
            assert eps_pred == pytest.approx(true_eps, rel=0.02)
    # s-wave: stationary points at the Airy zeros, all four within 2%.
    for nu, E_nu in enumerate(staircase_energies(0, 4, CTX), start=1):
        eps_pred = CTX.eps(-E_nu)
        assert eps_pred == pytest.approx(-airy_zero(nu), rel=0.02)


def test_staircase_energies_are_stationary_by_finite_differences():
    # Independent of the Airy-zero tables: dJ_l0/dE of total_current_matrix
    # must vanish at each returned energy, relative to its size 0.3 away in eps.
    h = 1e-4 / (2.0 * CTX.beta)
    d_eps = 0.3 / (2.0 * CTX.beta)
    for l in (0, 1, 2):
        idx = MultipoleIndex(l, 0)

        def dJ(E):
            return oracles.central_diff(
                lambda e: total_current_matrix(idx, idx, e, CTX), E, h
            )

        energies = staircase_energies(l, 4, CTX)
        assert len(energies) == (4 if l == 0 else 5)
        for E_nu in energies:
            scale = min(abs(dJ(E_nu - d_eps)), abs(dJ(E_nu + d_eps)))
            assert abs(dJ(E_nu)) < 1e-5 * scale
    with pytest.raises(DomainError):
        staircase_energies(3, 4, CTX)


def test_j10_derivative_is_airy_prime_squared():
    # Direct check of the derivative identity behind the staircase.
    idx = MultipoleIndex(1, 0)
    E = 2.0 / (2.0 * CTX.beta)  # eps = -2
    dJ = oracles.central_diff(
        lambda e: total_current_matrix(idx, idx, e, CTX), E, 1e-4 / (2.0 * CTX.beta)
    )
    eps = CTX.eps(E)
    # dJ/dE = dJ/deps * (-2 beta)
    want = (
        -6.0
        * airy(eps).aip ** 2
        * CTX.mass
        * CTX.beta_f**3
        / (math.pi * CTX.hbar**3)
        * (-2.0 * CTX.beta)
    )
    assert dJ == pytest.approx(want, rel=1e-6)


# ------------------------------------------------------------ photodetachment


def test_polarization_presets():
    s = polarization_to_source("pi", 1.0, E0, CTX)
    assert s.amplitudes == {MultipoleIndex(1, 0): 1.0}
    s = polarization_to_source("sigma", 2.0, E0, CTX)
    assert s.amplitudes[MultipoleIndex(1, 1)] == pytest.approx(-2.0 / math.sqrt(2.0))
    assert s.amplitudes[MultipoleIndex(1, -1)] == pytest.approx(2.0 / math.sqrt(2.0))
    s = polarization_to_source("circular", 1.0, E0, CTX)
    assert s.amplitudes[MultipoleIndex(1, 0)] == pytest.approx(1.0 / math.sqrt(2.0))
    assert s.amplitudes[MultipoleIndex(1, 1)] == pytest.approx(-0.5j)
    assert s.amplitudes[MultipoleIndex(1, -1)] == pytest.approx(0.5j)
    s = polarization_to_source("tilt45", 1.0, E0, CTX)
    assert s.amplitudes[MultipoleIndex(1, 0)] == pytest.approx(1.0 / math.sqrt(2.0))
    assert s.amplitudes[MultipoleIndex(1, 1)] == pytest.approx(-0.5)
    with pytest.raises(DomainError):
        polarization_to_source("diagonal", 1.0, E0, CTX)
    with pytest.raises(DomainError):
        polarization_to_source((0.0, 0.0, 0.0), 1.0, E0, CTX)


def test_centered_grid_holds_no_image():
    # A bare plane allocates no pixels: at the 4096^2 cap a zero image was 134 MB.
    grid = DetectorGrid.centered(0.514, 1e-3, 1e-3, 4096, 4096)
    assert grid.values is None and grid.x.shape == grid.y.shape == (4096,)
    with pytest.raises(DomainError):
        DetectorGrid.centered(0.514, 1e-3, 1e-3, 4097, 4096)


def test_profile_presets_match_matrix_sum():
    # The far-field image (the plane branch of the far-field kernel) must equal,
    # pixel by pixel, the bilinear sum of conj(lambda_a) lambda_b times the
    # scalar far-field current matrix element (its point branch).
    for n in (5, 16):
        grid = DetectorGrid.centered(0.514, 1.2e-3, 1.2e-3, n, n)
        for pol in ("pi", "sigma", "circular", (0.3 + 0.1j, -0.5j, 0.8)):
            got = photodetachment_profile(pol, grid, E0, CTX).values
            amps = polarization_to_source(pol, 1.0, E0, CTX).amplitudes.items()
            want = np.array([[sum(
                np.conj(la) * lb * current_density_z_far(a, b, (x, y, grid.z), E0, CTX)
                for a, la in amps for b, lb in amps
            ).real for x in grid.x] for y in grid.y])
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_far_field_point_matches_pixel_beyond_airy_window():
    # At z = 5 cm, x = 2 mm, alpha_- = 282: Ai(282) ~ e^(-3158) underflows to 0.0.
    # The point and the image pixel take Ai, Ai' from the same unrestricted
    # kernel, so the point gives the pixel's 0.0 and raises no DomainError.
    grid = DetectorGrid(0.05, np.array([0.0, 1e-3, 2e-3]), np.array([0.0]))
    r = (2e-3, 0.0, grid.z)
    bf = CTX.beta_f
    alpha_minus = CTX.eps(E0) + bf * (math.hypot(*r) - grid.z)
    assert alpha_minus == pytest.approx(282.0, abs=1.0)
    image = photodetachment_profile("pi", grid, E0, CTX).values
    assert image[0, 2] == 0.0 and image[0, 0] > 0.0
    a, b = MultipoleIndex(1, 0), MultipoleIndex(1, 0)
    assert current_density_z_far(a, b, r, E0, CTX) == 0.0
    assert green_lm_far(MultipoleIndex(1, 1), r, E0, CTX) == 0.0


def test_tilt_profile_is_mean_of_pi_and_sigma():
    grid = DetectorGrid.centered(0.514, 1.2e-3, 1.2e-3, 16, 16)
    v_pi = photodetachment_profile("pi", grid, E0, CTX).values
    v_sig = photodetachment_profile("sigma", grid, E0, CTX).values
    v_tilt = photodetachment_profile("tilt45", grid, E0, CTX).values
    assert np.array_equal(v_tilt, (v_pi + v_sig) / 2.0)


def test_pi_profile_matches_mpmath_closed_form():
    # On the default detector plane r and z agree to about 8 digits; alpha_-
    # = eps + bF (r - z) must keep full precision all the same.  Pixels near
    # zeros of Ai'(alpha_-) are left out, where any argument error is
    # amplified without bound.
    grid = DetectorGrid.centered(0.514, 1.2e-3, 1.2e-3, 21, 21)
    got = photodetachment_profile("pi", grid, E0, CTX).values
    want = np.array(
        [[oracles.pi_profile_mp(x, y, grid.z, E0, CTX) for x in grid.x] for y in grid.y]
    )
    keep = want >= 1e-3 * want.max()
    assert keep.sum() > 300
    assert np.allclose(got[keep], want[keep], rtol=1e-11, atol=0.0)


def test_profile_matches_mpmath_pwave_form():
    # Every polarization, presets and a complex vector alike, against the
    # operator-free form |e_z Ai' + i (e_x X + e_y Y) Ai|^2 in mpmath.  For
    # tilt45 the cross term vanishes (Ai, Ai' and X are real), so the mean of
    # the pi and sigma images is this form too.
    grid = DetectorGrid.centered(0.514, 1.2e-3, 1.2e-3, 15, 15)
    s2 = 1.0 / math.sqrt(2.0)
    for pol, vec in (
        ("pi", (0.0, 0.0, 1.0)),
        ("sigma", (1.0, 0.0, 0.0)),
        ("circular", (1j * s2, 0.0, s2)),
        ("tilt45", (s2, 0.0, s2)),
        ((0.3 + 0.1j, -0.5j, 0.8), (0.3 + 0.1j, -0.5j, 0.8)),
    ):
        got = photodetachment_profile(pol, grid, E0, CTX).values
        want = np.array(
            [
                [oracles.pwave_profile_mp(vec, x, y, grid.z, E0, CTX) for x in grid.x]
                for y in grid.y
            ]
        )
        keep = want >= 1e-3 * want.max()
        assert keep.sum() > 50
        assert np.allclose(got[keep], want[keep], rtol=1e-11, atol=0.0), pol


def test_profile_exact_mode_far_agreement():
    # At the experimental geometry (zeta ~ 3.7e6) far-field and exact modes
    # agree to well below a percent.
    grid = DetectorGrid.centered(0.514, 8e-4, 8e-4, 5, 5)
    far = photodetachment_profile("pi", grid, E0, CTX, mode="far-field").values
    exact = photodetachment_profile("pi", grid, E0, CTX, mode="exact").values
    assert np.max(np.abs(far - exact)) <= 5e-3 * np.max(np.abs(exact))
    with pytest.raises(DomainError):
        photodetachment_profile("pi", grid, E0, CTX, mode="nearfield")


def test_profile_exact_mode_matches_pixel_loop():
    # The exact image is one current_density call over the plane, with one Q
    # table entry per distinct (rho, zeta) of its pixels (on a centred plane
    # up to 8 pixels share one); the per-pixel loop is its reference, on a
    # near-field plane that holds the on-axis pixel and on the detector plane.
    bf = CTX.beta_f
    for grid in (
        DetectorGrid.centered(1.5 / bf, 4.0 / bf, 4.0 / bf, 9, 9),
        DetectorGrid.centered(0.514, 1.2e-3, 1.2e-3, 32, 32),
    ):
        for pol in ("pi", "sigma", "circular", "tilt45", (0.3 + 0.1j, -0.5j, 0.8)):
            got = photodetachment_profile(pol, grid, E0, CTX, mode="exact").values
            src = polarization_to_source(pol, 1.0, E0, CTX)
            want = np.array(
                [[current_density(src, (x, y, grid.z), CTX)[2] for x in grid.x] for y in grid.y]
            )
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (pol, grid.z)
    on_source = DetectorGrid.centered(0.0, 4.0 / bf, 4.0 / bf, 9, 9)
    with pytest.raises(SingularityError):
        photodetachment_profile("pi", on_source, E0, CTX, mode="exact")


def test_spectrum_matches_closed_forms():
    energies = np.linspace(-20e-6, 80e-6, 7) * ELEMENTARY_CHARGE
    spec_pi = photodetachment_spectrum("pi", energies, CTX)
    spec_sig = photodetachment_spectrum("sigma", energies, CTX)
    for (Ea, Jpi), (Eb, Jsig) in zip(spec_pi, spec_sig):
        idx10 = MultipoleIndex(1, 0)
        idx11 = MultipoleIndex(1, 1)
        assert Jpi == pytest.approx(
            total_current_matrix(idx10, idx10, Ea, CTX), rel=1e-12
        )
        # sigma weights (1/2, 1/2) on m = +-1, which carry equal currents.
        assert Jsig == pytest.approx(
            total_current_matrix(idx11, idx11, Eb, CTX), rel=1e-12
        )


def _spectrum_per_energy(polarization, energies):
    """photodetachment_spectrum from one float total_current_matrix call per
    energy and same-m index pair."""
    items = list(polarization_to_source(polarization, 1.0, 0.0, CTX).amplitudes.items())
    out = []
    for E in energies:
        total = 0.0
        for idx_a, la in items:
            for idx_b, lb in items:
                if idx_a.m == idx_b.m:
                    J = total_current_matrix(idx_a, idx_b, float(E), CTX)
                    total += (np.conj(la) * lb).real * J
        out.append((float(E), total))
    return out


def test_spectrum_matches_per_energy_calls():
    # The staircase range reaches eps from about -18.7 to 3.7: both sides of
    # EPS0 = 1, where Qi_2 changes path, and of |eps| = 15, where the array's
    # Airy values change from scipy to the asymptotic series.
    energies = np.linspace(-30e-6, 150e-6, 181) * ELEMENTARY_CHARGE
    assert CTX.eps(energies).min() < -15.0 and CTX.eps(energies).max() > 1.0
    for pol in ("pi", "sigma", "circular", "tilt45"):
        got = photodetachment_spectrum(pol, energies, CTX)
        want = _spectrum_per_energy(pol, energies)
        assert [E for E, _ in got] == [E for E, _ in want]
        assert all(type(J) is float for _, J in got)
        np.testing.assert_allclose([J for _, J in got], [J for _, J in want], rtol=1e-12)
    assert photodetachment_spectrum("pi", [], CTX) == []
    idx10, idx11 = MultipoleIndex(1, 0), MultipoleIndex(1, 1)
    grid = energies[:6].reshape(2, 3)
    assert total_current_matrix(idx10, idx10, grid, CTX).shape == (2, 3)
    assert np.array_equal(total_current_matrix(idx10, idx11, grid, CTX), np.zeros((2, 3)))


def test_scattering_wave_and_current_density():
    src = SourceSuperposition({MultipoleIndex(0, 0): 1.0 + 0.0j}, E0)
    r = (0.2e-7, 0.1e-7, 1.1e-7)
    assert scattering_wave(src, r, CTX) == pytest.approx(
        green_lm(MultipoleIndex(0, 0), r, E0, CTX), rel=1e-13
    )
    j = current_density(src, r, CTX)
    assert j.shape == (3,)
    # Flux flows outward/downstream on axis below the source.
    jz = current_density(src, (1e-9, 0.0, -0.5e-7), CTX)
    assert jz[2] < 0.0
    # A superposition is the sum of its Green functions, and j = (hbar/M)
    # Im(psi* grad psi) over their gradients.
    amps = {MultipoleIndex(0, 0): 0.3 - 0.2j, MultipoleIndex(1, -1): -0.7 + 0.1j,
            MultipoleIndex(2, 1): 0.4 + 0.9j}
    src = SourceSuperposition(amps, E0, origin=(1e-8, -2e-8, 0.5e-8))
    d = np.asarray(r) - np.asarray(src.origin)
    e_eff = E0 + CTX.force * src.origin[2]
    psi = sum(lam * green_lm(idx, d, e_eff, CTX) for idx, lam in amps.items())
    grad = sum(lam * green_lm_grad(idx, d, e_eff, CTX)[1] for idx, lam in amps.items())
    assert scattering_wave(src, r, CTX) == pytest.approx(psi, rel=1e-13)
    want = (CTX.hbar / CTX.mass) * np.imag(np.conj(psi) * grad)
    got = current_density(src, r, CTX)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_one_q_table_per_field_point(monkeypatch):
    # One Q table takes two scaled Airy evaluations, at alpha_- and alpha_+.
    calls = []
    real = airyq.airy_scaled
    monkeypatch.setattr(airyq, "airy_scaled", lambda x: calls.append(x) or real(x))
    r = (0.2e-7, 0.1e-7, 1.1e-7)
    src = polarization_to_source("circular", 1.0, E0, CTX)
    assert len(src.amplitudes) == 3
    for call in (
        lambda: green_lm(MultipoleIndex(2, 1), r, E0, CTX),
        lambda: green_lm_grad(MultipoleIndex(2, 1), r, E0, CTX),
        lambda: scattering_wave(src, r, CTX),
        lambda: current_density(src, r, CTX),
    ):
        calls.clear()
        call()
        assert len(calls) == 2


def _close(got, want, tol):
    """got within tol of want, relative to want's largest component."""
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def test_plan_matches_the_per_term_reference(monkeypatch):
    # _wave sums the cached terms of _plan; oracles.wave_per_term is the
    # per-term assembly through the public harmonics API that it replaced.  At
    # random points (rho in [0.8, 3.5], alpha_- in [-4, 1]) with l <= 12 and
    # mixed superpositions of up to three (l, m), and on exact-mode planes, the
    # two agree to 1e-13 (relative, or of the peak for a plane).
    rng = np.random.default_rng(2601)
    bf = CTX.beta_f
    calls = []
    for _ in range(40):
        rho, v = rng.uniform(0.8, 3.5), rng.normal(size=3)
        r = rho / bf * v / np.linalg.norm(v)
        E = (rng.uniform(-4.0, 1.0) + bf * r[2] - rho) / (-2.0 * CTX.beta)
        l = int(rng.integers(0, GREEN_L_MAX + 1))
        idx = MultipoleIndex(l, int(rng.integers(-l, l + 1)))
        amps = {}
        for _ in range(int(rng.integers(1, 4))):
            lj = int(rng.integers(0, GREEN_L_MAX + 1))
            amps[MultipoleIndex(lj, int(rng.integers(-lj, lj + 1)))] = complex(
                *rng.uniform(-1.0, 1.0, 2))
        src = SourceSuperposition(amps, E, origin=tuple(rng.uniform(-1.0, 1.0, 3) / bf))
        calls += [
            lambda idx=idx, r=r, E=E: green_lm(idx, r, E, CTX),
            lambda idx=idx, r=r, E=E: green_lm_grad(idx, r, E, CTX)[0],
            lambda idx=idx, r=r, E=E: green_lm_grad(idx, r, E, CTX)[1],
            lambda src=src, r=r: scattering_wave(src, r + np.asarray(src.origin), CTX),
            lambda src=src, r=r: current_density(src, r + np.asarray(src.origin), CTX),
        ]
    planes = (DetectorGrid.centered(1.5 / bf, 4.0 / bf, 4.0 / bf, 9, 8),
              DetectorGrid.centered(0.514, 1.2e-3, 1.2e-3, 12, 12))
    calls += [
        lambda grid=grid, pol=pol: photodetachment_profile(pol, grid, E0, CTX, mode="exact").values
        for grid in planes for pol in ("pi", "sigma", "circular", (0.3 + 0.1j, -0.5j, 0.8))
    ]
    got = [call() for call in calls]
    monkeypatch.setattr(ballistic, "_wave", oracles.wave_per_term)
    for call, value in zip(calls, got):
        assert _close(value, call(), 1e-13)


def test_source_superposition_order_limit():
    with pytest.raises(UnsupportedOrderError):
        SourceSuperposition({MultipoleIndex(GREEN_L_MAX + 1, 0): 1.0}, E0)
    with pytest.raises(UnsupportedOrderError):
        green_lm(MultipoleIndex(GREEN_L_MAX + 1, 0), (0, 0, 1e-7), E0, CTX)
