"""Free-particle partial waves, Wigner currents and source strengths."""

import cmath
import math

import numpy as np
import pytest

from ballisticwaves.ballistic import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    HBAR,
    PhysicalContext,
    green_lm,
)
from ballisticwaves.errors import DomainError, SingularityError
from ballisticwaves.freespace import (
    RadialSourceProfile,
    _spherical_hankel_plus,
    extended_source_strength,
    free_total_current,
    green_free,
    green_free_lm,
    wigner_current,
)
from ballisticwaves.harmonics import MultipoleIndex, klm_eval

import oracles

M = ELECTRON_MASS
E1 = 1e-5 * ELEMENTARY_CHARGE


def _k(E):
    return math.sqrt(2.0 * M * E) / HBAR


def test_green_free_outgoing_wave():
    r = (3e-8, -1e-8, 2e-8)
    d = math.dist(r, (0, 0, 0))
    k = _k(E1)
    want = -M / (2.0 * math.pi * HBAR**2) * cmath.exp(1j * k * d) / d
    assert green_free(r, (0, 0, 0), E1, M) == pytest.approx(want, rel=1e-13)
    # Translation invariance.
    shift = (1e-8, 2e-8, -3e-8)
    r2 = tuple(a + b for a, b in zip(r, shift))
    assert green_free(r2, shift, E1, M) == pytest.approx(
        green_free(r, (0, 0, 0), E1, M), rel=1e-12
    )


def test_green_free_evanescent():
    r = (3e-8, 0.0, 0.0)
    g = green_free(r, (0, 0, 0), -E1, M)
    assert g.imag == 0.0
    assert g.real < 0.0
    kappa = _k(E1)
    want = -M / (2.0 * math.pi * HBAR**2) * math.exp(-kappa * 3e-8) / 3e-8
    assert g.real == pytest.approx(want, rel=1e-13)
    with pytest.raises(SingularityError):
        green_free((0, 0, 0), (0, 0, 0), E1, M)


def test_green_free_lm_swave_reduction():
    # (0,0) multipole = plain point source / sqrt(4 pi).
    r = (2e-8, 1e-8, -1.5e-8)
    g00 = green_free_lm(MultipoleIndex(0, 0), r, E1, M)
    g = green_free(r, (0, 0, 0), E1, M)
    assert g00 == pytest.approx(g / math.sqrt(4.0 * math.pi), rel=1e-12)
    with pytest.raises(DomainError):
        green_free_lm(MultipoleIndex(0, 0), r, -E1, M)
    with pytest.raises(SingularityError):
        green_free_lm(MultipoleIndex(0, 0), (0, 0, 0), E1, M)


def test_green_free_lm_asymptotic_phase():
    # h_l^(+)(u) -> (-i)^l e^{iu}/u for large u: successive l differ by -i.
    k = _k(E1)
    r = (0.0, 0.0, 400.0 / k)  # on-axis, u = 400
    g0 = green_free_lm(MultipoleIndex(0, 0), r, E1, M)
    g1 = green_free_lm(MultipoleIndex(1, 0), r, E1, M)
    # Strip normalization: Y_00 = 1/sqrt(4pi), Y_10(on-axis) = sqrt(3/4pi).
    ratio = (g1 / math.sqrt(3.0)) / (g0 * k)
    assert ratio == pytest.approx(-1j, rel=1e-2)


def test_spherical_hankel_matches_mpmath():
    # h_l^(+) = -y_l + i j_l on 121 log-spaced u in [1e-2, 1e3] for l <= 12,
    # both parts against 30-digit mpmath to 1e-13 relative, across the switch
    # from the series (u <= l) to the recurrence (u > l) for j_l.  Near a zero
    # of a part its relative error grows as 1/|part| (scipy's does the same);
    # the worst on this grid is 7.6e-14 (real part, l = 5, u = 14.7).
    for l in range(13):
        for u in np.geomspace(1e-2, 1e3, 121).tolist() + ([float(l), l + 1e-9] if l else []):
            got, want = _spherical_hankel_plus(l, u), oracles.spherical_hankel_mp(l, u)
            assert abs(got.real - want.real) <= 1e-13 * abs(want.real), (l, u)
            assert abs(got.imag - want.imag) <= 1e-13 * abs(want.imag), (l, u)


def test_green_free_lm_matches_mpmath_partial_wave():
    # -(M k^(l+1)/2 pi hbar^2) h_l^(+)(kR) Y_lm(R_hat) at random points with
    # kR in [0.05, 50], against the mpmath Hankel function and klm_eval.
    rng = np.random.default_rng(2603)
    k = _k(E1)
    for _ in range(40):
        l = int(rng.integers(0, 13))
        idx = MultipoleIndex(l, int(rng.integers(-l, l + 1)))
        v = rng.normal(size=3)
        R = v / np.linalg.norm(v) * rng.uniform(0.05, 50.0) / k
        dist = float(np.linalg.norm(R))
        want = (-M * k ** (l + 1) / (2.0 * math.pi * HBAR**2)
                * oracles.spherical_hankel_mp(l, k * dist) * klm_eval(idx, R / dist))
        assert green_free_lm(idx, R, E1, M) == pytest.approx(want, rel=1e-13)


def test_wigner_current_threshold_law():
    for l in range(4):
        idx = MultipoleIndex(l, 0)
        k = _k(E1)
        want = M * k ** (2 * l + 1) / (4.0 * math.pi**2 * HBAR**3)
        assert wigner_current(idx, E1, M) == pytest.approx(want, rel=1e-13)
        # Threshold scaling J ~ E^(l + 1/2).
        ratio = wigner_current(idx, 4.0 * E1, M) / wigner_current(idx, E1, M)
        assert ratio == pytest.approx(2.0 ** (2 * l + 1), rel=1e-12)
    assert wigner_current(MultipoleIndex(2, 0), 0.0, M) == 0.0
    with pytest.raises(DomainError):
        wigner_current(MultipoleIndex(0, 0), -E1, M)


def test_extended_source_narrow_shell():
    # A narrow Gaussian shell at radius R0 approximates a spherical-shell
    # source: lambda ~ (4 pi / k^l) R0^(l+2) j_l(k R0) * (integral of shell).
    import scipy.special as sc

    R0 = 5e-8
    width = 2e-10
    radii = np.linspace(R0 - 6 * width, R0 + 6 * width, 801)
    for l in (0, 1, 2):
        vals = np.exp(-((radii - R0) ** 2) / (2.0 * width**2)) / (
            width * math.sqrt(2.0 * math.pi)
        )
        prof = RadialSourceProfile(MultipoleIndex(l, 0), tuple(zip(radii, vals)))
        lam = extended_source_strength(prof, E1, M)
        k = _k(E1)
        want = 4.0 * math.pi / k**l * R0 ** (l + 2) * sc.spherical_jn(l, k * R0)
        assert lam == pytest.approx(want, rel=1e-3)


def test_extended_source_threshold_reduction():
    # E -> 0 continuously approaches the threshold coefficient formula
    # 4 pi gamma_lm / (2l+1)!! for kR0 << 1.
    R0 = 5e-8
    radii = np.linspace(0.0, 2.0 * R0, 401)
    tiny = (0.05 / R0) ** 2 * HBAR**2 / (2.0 * M)  # kR0 = 0.05
    for l in (0, 1, 2):
        vals = radii**2 * np.exp(-radii / R0)
        prof = RadialSourceProfile(MultipoleIndex(l, 0), tuple(zip(radii, vals)))
        lam0 = extended_source_strength(prof, 0.0, M)
        lam = extended_source_strength(prof, tiny, M)
        df = float(math.prod(range(2 * l + 1, 0, -2)))
        gamma = np.trapezoid(radii ** (2 * l + 2) * vals, radii)
        assert lam0 == pytest.approx(4.0 * math.pi * gamma / df, rel=1e-4)
        assert lam == pytest.approx(lam0, rel=1e-3)
    with pytest.raises(DomainError):
        extended_source_strength(prof, -E1, M)


def test_radial_profile_validation():
    with pytest.raises(DomainError):
        RadialSourceProfile(MultipoleIndex(0, 0), ((0.0, 1.0), (1e-8, 1.0)))
    with pytest.raises(DomainError):
        RadialSourceProfile(
            MultipoleIndex(0, 0), ((0.0, 1.0), (2e-8, 1.0), (1e-8, 1.0))
        )
    with pytest.raises(DomainError):
        RadialSourceProfile(
            MultipoleIndex(0, 0), ((-1e-8, 1.0), (1e-8, 1.0), (2e-8, 1.0))
        )


def test_free_total_current_weighted_sum():
    strengths = {
        MultipoleIndex(0, 0): 2.0,
        MultipoleIndex(1, 1): 1.0 + 1.0j,
        MultipoleIndex(1, -1): 0.5j,
    }
    want = (
        4.0 * wigner_current(MultipoleIndex(0, 0), E1, M)
        + 2.0 * wigner_current(MultipoleIndex(1, 1), E1, M)
        + 0.25 * wigner_current(MultipoleIndex(1, -1), E1, M)
    )
    assert free_total_current(strengths, E1, M) == pytest.approx(want, rel=1e-13)


def test_uniform_field_green_functions_reach_the_free_ones_as_the_force_vanishes():
    # With M = hbar = 1 and E = 0.5 (k = 1), |G_lm/G_free - 1| is O(F) at a
    # fixed point.  Where its O(F) term is one smooth term, the deviation per
    # unit force agrees to 1e-2 between F and F/10.  Two regions are left out:
    # - m = 0 with l <= 1: between F and F/10 the deviation per unit force
    #   moves by 10% to 5 times its size.  This fits a second classical path,
    #   which leaves the source nearly against the force, where only m = 0
    #   waves radiate, and adds an O(F) term whose phase turns fast with F;
    # - F = 1e-8, and F = 1e-7 for l >= 8: the float Airy phases
    #   (2/3)|alpha_+-|^(3/2), about 3e7 at F = 1e-8, cancel to k r, so G_lm
    #   keeps only about 8 digits there.
    r, energy = (0.7, -0.4, 1.3), 0.5
    forces = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    smooth = {(2, 1): 4, (4, 2): 4, (8, -3): 3, (12, 12): 3, (12, 0): 3}
    for lm in ((0, 0), (1, 0), (2, 1), (4, 2), (8, -3), (12, 12), (12, 0)):
        idx = MultipoleIndex(*lm)
        free = green_free_lm(idx, r, energy, 1.0, 1.0)
        dev = [green_lm(idx, r, energy, PhysicalContext(1.0, f, 1.0)) / free - 1.0 for f in forces]
        for d, f in zip(dev, forces):
            assert abs(d) <= 2.0 * f, (lm, f)  # falls as F
        slopes = [d / f for d, f in zip(dev, forces)][: smooth.get(lm, 0)]
        for s, s10 in zip(slopes, slopes[1:]):
            assert abs(s10 - s) <= 1e-2 * abs(s), (lm, s, s10)
