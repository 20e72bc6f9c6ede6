"""Gravity-outcoupled atom-laser beams from Gaussian and vortex sources."""

import cmath
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
import scipy.integrate
from scipy.special import gammaln, logsumexp

from ballisticwaves import atomlaser, ballistic
from ballisticwaves.airyq import QArgs, _q_table_scaled, q_scaled, q_table_scaled_grid
from ballisticwaves.atomlaser import (
    LATTICE_N_MAX,
    GaussianSource,
    VortexLattice,
    beam_density_grid,
    beam_psi_00,
    beam_psi_1m,
    beam_psi_perp,
    farfield_density,
    gaussian_multipole_current,
    lattice_beam,
    lattice_beam_grid,
    lattice_coeffs,
    lattice_norm,
    lattice_spectrum,
    perp_vortex_current,
    perp_vortex_source,
    rb87_context,
    scaled_vars,
    triangular_vortex_positions,
    virtual_strength,
    vortex_current_1m,
)
from ballisticwaves.ballistic import DetectorGrid, G_EARTH, RB87_MASS, green_lm
from ballisticwaves.errors import (
    DomainError,
    SingularityError,
    StabilityWarning,
    UnsupportedOrderError,
)
from ballisticwaves.harmonics import MultipoleIndex

import oracles

CTX = rb87_context()
N_ATOMS = 1e6
RABI = 2.0 * math.pi * 100.0
A2 = 2e-6  # condensate width used in the single-vortex scenarios


def _detuning_energy(dnu_hz: float) -> float:
    return 2.0 * math.pi * CTX.hbar * dnu_hz


def test_rb87_context_and_scaled_vars():
    assert CTX.mass == RB87_MASS
    assert CTX.force == pytest.approx(RB87_MASS * G_EARTH, rel=1e-15)
    sv = scaled_vars((1e-6, -2e-6, -1e-3), 0.0, CTX, A2)
    assert sv.alpha == pytest.approx(3.3245, rel=1e-3)
    bf = CTX.beta_f
    assert sv.xi == pytest.approx(bf * 1e-6, rel=1e-14)
    assert sv.upsilon == pytest.approx(bf * -2e-6, rel=1e-14)
    assert sv.zeta_t == pytest.approx(bf * -1e-3 + 2.0 * sv.alpha**4, rel=1e-12)
    assert sv.eps_t == pytest.approx(4.0 * sv.alpha**4, rel=1e-12)
    a5 = scaled_vars((0, 0, 0), 0.0, CTX, 5e-6).alpha
    assert a5 == pytest.approx(8.311, rel=1e-3)


def test_gaussian_source_validation():
    with pytest.raises(DomainError):
        GaussianSource(0.0, RABI, A2)
    with pytest.raises(DomainError):
        GaussianSource(N_ATOMS, RABI, -1.0)


def test_point_source_limit():
    # For alpha -> 0 the Gaussian source is a point multipole: the beam wave
    # function is proportional to the corresponding Green function, with a
    # position-independent ratio.
    a = 1e-3 / CTX.beta_f  # alpha = 1e-3
    E = _detuning_energy(200.0)
    pts = [(0.1e-4, 0.15e-4, 0.8e-3), (0.2e-4, -0.1e-4, 1.0e-3), (-0.3e-4, 0.2e-4, 1.3e-3)]
    cases = [
        (MultipoleIndex(0, 0), beam_psi_00),
        (MultipoleIndex(1, 0), beam_psi_1m),
        (MultipoleIndex(1, 1), beam_psi_1m),
        (MultipoleIndex(1, -1), beam_psi_1m),
    ]
    for idx, fn in cases:
        src = GaussianSource(N_ATOMS, RABI, a, idx)
        ratios = []
        for r in pts:
            psi = fn(src, r, E, CTX)
            g = green_lm(idx, r, E, CTX)
            ratios.append(psi / g)
        for rat in ratios[1:]:
            assert rat == pytest.approx(ratios[0], rel=1e-4)


def test_beam_psi_perp_is_weighted_sum():
    src = GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 1))
    w = perp_vortex_source(src)
    assert sum(v**2 for v in w.values()) == pytest.approx(1.0, rel=1e-14)
    E = _detuning_energy(1000.0)
    r = (3e-6, -2e-6, 1e-3)
    want = sum(
        v * beam_psi_1m(GaussianSource(N_ATOMS, RABI, A2, idx), r, E, CTX)
        for idx, v in w.items()
    )
    assert beam_psi_perp(src, r, E, CTX) == pytest.approx(want, rel=1e-13)
    with pytest.raises(DomainError):
        perp_vortex_source(GaussianSource(N_ATOMS, RABI, A2))


def test_stability_warning_inside_source():
    src = GaussianSource(N_ATOMS, RABI, A2)
    with pytest.warns(StabilityWarning):
        beam_psi_00(src, (0.0, 0.0, 2e-6), 0.0, CTX)


def test_sum_rule():
    # integral J dE = 2 pi N (hbar Omega)^2 / hbar, for the m = 0 and m = 1
    # circular sources (outcoupling conserves the atom number rate).
    alpha = CTX.beta_f * A2
    sigma_e = alpha / (math.sqrt(2.0) * CTX.beta)
    target = 2.0 * math.pi * N_ATOMS * (CTX.hbar * RABI) ** 2 / CTX.hbar
    for m in (0, 1):
        val, _ = scipy.integrate.quad(
            lambda E: gaussian_multipole_current(m, N_ATOMS, RABI, A2, E, CTX),
            -8.0 * sigma_e,
            8.0 * sigma_e,
            limit=200,
        )
        assert val == pytest.approx(target, rel=1e-2)


def test_slicing_matches_exact_current():
    for m, dnu in ((1, 0.0), (1, 3000.0), (0, 3000.0), (0, 5000.0)):
        src = GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, m))
        E = _detuning_energy(dnu)
        exact = vortex_current_1m(src, E, CTX, mode="exact")
        sliced = vortex_current_1m(src, E, CTX, mode="slicing")
        assert sliced == pytest.approx(exact, rel=0.03)
        assert vortex_current_1m(src, E, CTX, mode="large-alpha") == sliced
    with pytest.raises(DomainError):
        vortex_current_1m(src, 0.0, CTX, mode="bogus")
    with pytest.raises(DomainError):
        vortex_current_1m(GaussianSource(N_ATOMS, RABI, A2), 0.0, CTX)


def test_perp_vortex_current_is_mean():
    E = _detuning_energy(2000.0)
    src = GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 1))
    j11 = vortex_current_1m(src, E, CTX)
    j10 = vortex_current_1m(
        GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 0)), E, CTX
    )
    assert perp_vortex_current(src, E, CTX) == pytest.approx(
        0.5 * (j11 + j10), rel=1e-13
    )


def test_farfield_closed_form_vs_virtual_source():
    # The asymptotic Gaussian envelope forms agree with the squared virtual
    # point-source beam to within 1% of the image peak at z = -1 mm.
    grid = DetectorGrid.centered(1e-3, 40e-6, 40e-6, 33, 33)
    for orientation, dnu in (("parallel", 0.0), ("perpendicular", 4000.0)):
        src = GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 1))
        E = _detuning_energy(dnu)
        cf = farfield_density(src, grid, E, CTX, orientation, "closed-form").values
        vs = farfield_density(src, grid, E, CTX, orientation, "virtual-source").values
        peak = vs.max()
        assert np.max(np.abs(cf - vs)) <= 0.01 * peak
    with pytest.raises(DomainError):
        farfield_density(src, grid, 0.0, CTX, orientation="diagonal")
    for mode in ("bogus", "exact"):
        with pytest.raises(DomainError):
            farfield_density(src, grid, 0.0, CTX, mode=mode)


def test_beam_density_grid_matches_pointwise():
    grid = DetectorGrid.centered(1e-3, 30e-6, 30e-6, 5, 5)
    E = _detuning_energy(1000.0)
    cases = [
        (GaussianSource(N_ATOMS, RABI, A2), None, beam_psi_00),
        (GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 1)), None, beam_psi_1m),
        (GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 0)), None, beam_psi_1m),
        (
            GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 1)),
            "perpendicular",
            beam_psi_perp,
        ),
    ]
    for src, orientation, fn in cases:
        got = beam_density_grid(src, grid, E, CTX, orientation).values
        for iy in (0, 2, 4):
            for ix in (1, 3):
                r = (float(grid.x[ix]), float(grid.y[iy]), grid.z)
                want = abs(fn(src, r, E, CTX)) ** 2
                assert got[iy, ix] == pytest.approx(want, rel=1e-10)


def test_beam_density_grid_rejects_l2_source():
    grid = DetectorGrid.centered(1e-3, 30e-6, 30e-6, 5, 5)
    src = GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(2, 1))
    with pytest.raises(DomainError):
        beam_density_grid(src, grid, 0.0, CTX)


# ----------------------------------------------------------------- lattices


def _small_lattice(n_shells=1, spacing=10e-6, width=5e-6, rot=2.0 * math.pi * 250.0):
    return VortexLattice(
        positions=triangular_vortex_positions(n_shells, spacing),
        rot=rot,
        width=width,
        n_atoms=N_ATOMS,
        rabi=RABI,
    )


def test_triangular_positions():
    assert len(triangular_vortex_positions(1, 10e-6)) == 7
    assert len(triangular_vortex_positions(3, 10e-6)) == 37
    pts = triangular_vortex_positions(2, 10e-6)
    assert pts[0] == 0.0
    # Nearest-neighbor distance equals the spacing.
    dists = [abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1 :]]
    assert min(dists) == pytest.approx(10e-6, rel=1e-12)


def test_lattice_coeffs_monic_with_correct_roots():
    latt = _small_lattice()
    w = lattice_coeffs(latt)
    assert len(w) == latt.n + 1
    assert w[-1] == 1.0
    for v in latt.positions:
        val = sum(wk * v**k for k, wk in enumerate(w))
        scale = max(abs(wk) * abs(v) ** k for k, wk in enumerate(w) if wk != 0.0)
        assert abs(val) <= 1e-12 * max(scale, 1.0)


def test_lattice_norm():
    latt = _small_lattice()
    assert lattice_norm(latt) > 0.0
    assert lattice_norm(latt, a_z=latt.width) == lattice_norm(latt)
    with pytest.raises(UnsupportedOrderError):
        lattice_norm(latt, a_z=2.0 * latt.width)


def test_lattice_size_limit():
    too_many = tuple(complex(k, 0) for k in range(LATTICE_N_MAX + 1))
    with pytest.raises(UnsupportedOrderError):
        VortexLattice(too_many, 1.0, 5e-6, N_ATOMS, RABI)


def test_single_origin_vortex_reduces_to_circular_beam():
    # One vortex at the origin is the pure (1, 1) circular source; its m = 1
    # component outcouples at E + hbar Omega_rot.
    rot = 2.0 * math.pi * 250.0
    latt = VortexLattice((0.0 + 0.0j,), rot, A2, N_ATOMS, RABI)
    src = GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 1))
    E = _detuning_energy(1000.0)
    r = (4e-6, -3e-6, 1e-3)
    got = lattice_beam(latt, r, 0.0, E - CTX.hbar * rot, CTX)
    want = beam_psi_1m(src, r, E, CTX)
    assert abs(got / want) == pytest.approx(1.0, rel=1e-9)


def _lattice_spectrum_per_detuning(latt, detunings):
    """lattice_spectrum from one float gaussian_multipole_current call per
    detuning and component, summed in log space per detuning."""
    w = lattice_coeffs(latt)
    a = latt.width
    log_sum = latt._log_sum
    out = []
    for dnu in detunings:
        E = _detuning_energy(float(dnu))
        logs = []
        for m, wm in enumerate(w):
            if wm == 0.0:
                continue
            e_m = E + m * CTX.hbar * latt.rot
            j_mm = gaussian_multipole_current(m, latt.n_atoms, latt.rabi, a, e_m, CTX)
            if j_mm > 0.0:
                logs.append(gammaln(m + 1) + 2.0 * math.log(abs(wm)) + 2.0 * m * math.log(a)
                            - log_sum + math.log(j_mm))
        out.append((float(dnu), math.exp(logsumexp(logs)) if logs else 0.0))
    return out


def test_logsumexp_has_scipy_semantics():
    # A -inf term adds nothing, all -inf give -inf, a nan stays nan, and a list
    # of arrays is summed along axis 0.
    for terms in ([0.5, -3.0, 700.0], [-math.inf, 1.0], [-math.inf, -math.inf],
                  [math.nan, 1.0], [math.inf, 1.0], [-745.0, -746.0], [2.5]):
        np.testing.assert_allclose(atomlaser._logsumexp(terms), logsumexp(terms),
                                   rtol=1e-14, atol=1e-15)
    rows = [np.array([0.0, -math.inf, math.nan, 3.0]), np.array([1.0, -math.inf, 0.0, -math.inf])]
    np.testing.assert_allclose(atomlaser._logsumexp(rows), logsumexp(rows, axis=0),
                               rtol=1e-14, atol=1e-15)


def test_lattice_spectrum_matches_per_detuning_sum():
    # The 37-vortex lattice of criterion 10: eps_t ~ 1.9e4, components m = 0 ... 37.
    latt = _small_lattice(n_shells=3)
    assert latt.n == 37
    detunings = np.linspace(-75e3, 60e3, 61)
    got = lattice_spectrum(latt, detunings, CTX)
    want = _lattice_spectrum_per_detuning(latt, detunings)
    assert [d for d, _ in got] == [d for d, _ in want]
    js = np.array([j for _, j in got])
    np.testing.assert_allclose(js, [j for _, j in want], rtol=1e-12)
    # Outcoupling sum rule: integral J dE = 2 pi N (hbar Omega)^2 / hbar.
    target = 2.0 * math.pi * N_ATOMS * (CTX.hbar * RABI) ** 2 / CTX.hbar
    assert np.trapezoid(js, _detuning_energy(detunings)) == pytest.approx(target, rel=1e-6)
    assert lattice_spectrum(latt, [], CTX) == []


def test_empty_lattice_spectrum_is_swave():
    latt = VortexLattice((), 2.0 * math.pi * 250.0, A2, N_ATOMS, RABI)
    detunings = (-2000.0, 0.0, 1500.0)
    spec = lattice_spectrum(latt, detunings, CTX)
    for dnu, j in spec:
        want = gaussian_multipole_current(
            0, N_ATOMS, RABI, A2, _detuning_energy(dnu), CTX
        )
        assert j == pytest.approx(want, rel=1e-12)


def test_rotating_lattice_density_rotates_rigidly():
    # |psi(r, t)|^2 = |psi(R(-Omega t) r, 0)|^2.
    latt = _small_lattice()
    E = _detuning_energy(5000.0)
    t = 0.7e-3
    phi = latt.rot * t
    for r in ((8e-6, 3e-6, 177e-6), (-5e-6, 9e-6, 177e-6)):
        x, y, z = r
        xr = x * math.cos(phi) + y * math.sin(phi)
        yr = -x * math.sin(phi) + y * math.cos(phi)
        d_t = abs(lattice_beam(latt, r, t, E, CTX)) ** 2
        d_0 = abs(lattice_beam(latt, (xr, yr, z), 0.0, E, CTX)) ** 2
        assert d_t == pytest.approx(d_0, rel=1e-9)


def test_lattice_beam_grid_matches_pointwise():
    latt = _small_lattice()
    E = _detuning_energy(5000.0)
    grid = DetectorGrid.centered(177e-6, 60e-6, 60e-6, 5, 5)
    got = lattice_beam_grid(latt, grid, 0.0, E, CTX).values
    for iy in (0, 2, 4):
        for ix in (1, 3):
            r = (float(grid.x[ix]), float(grid.y[iy]), grid.z)
            want = abs(lattice_beam(latt, r, 0.0, E, CTX)) ** 2
            assert got[iy, ix] == pytest.approx(want, rel=1e-9)


def test_lattice_beam_grid_on_axis():
    # The centre pixel of an odd centered grid lies on the beam axis.  With a
    # vortex at the origin every component there is m > 0 and the axis is
    # dark; shifting the lattice leaves an m = 0 component and a bright axis.
    E = _detuning_energy(5000.0)
    grid = DetectorGrid.centered(177e-6, 60e-6, 60e-6, 5, 5)
    assert grid.x[2] == 0.0 and grid.y[2] == 0.0
    centred = _small_lattice()
    shifted = VortexLattice(
        tuple(v + (3e-6 + 2e-6j) for v in centred.positions),
        centred.rot, centred.width, N_ATOMS, RABI,
    )
    for latt in (centred, shifted):
        got = lattice_beam_grid(latt, grid, 0.0, E, CTX).values
        assert np.all(np.isfinite(got))
        for iy, ix in ((2, 2), (2, 3), (1, 2), (0, 4)):
            r = (float(grid.x[ix]), float(grid.y[iy]), grid.z)
            want = abs(lattice_beam(latt, r, 0.0, E, CTX)) ** 2
            assert got[iy, ix] == pytest.approx(want, rel=1e-9, abs=0.0)
    axis = (0.0, 0.0, grid.z)
    assert lattice_beam(centred, axis, 0.0, E, CTX) == 0.0
    assert abs(lattice_beam(shifted, axis, 0.0, E, CTX)) > 0.0


def _per_pixel_vars(grid, a):
    # The shifted variables of every pixel, rho_t kept per pixel (no np.unique).
    bf = CTX.beta_f
    alpha = bf * a
    xi = bf * grid.x[None, :] + np.zeros((len(grid.y), 1))
    ups = bf * grid.y[:, None] + np.zeros((1, len(grid.x)))
    zeta_t = bf * grid.z + 2.0 * alpha**4
    return alpha, xi, ups, zeta_t, np.sqrt(xi * xi + ups * ups + zeta_t * zeta_t)


def _equality_grids():
    centred = DetectorGrid.centered(177e-6, 60e-6, 60e-6, 65, 65)
    shifted = DetectorGrid(177e-6, np.linspace(-13e-6, 41e-6, 65), np.linspace(-7e-6, 29e-6, 40))
    return centred, shifted


def test_detector_grids_built_per_radius_equal_per_pixel_tables():
    # A beam plane is one _wave call at the virtual point, whose Q table holds
    # the distinct radii.  Against the closed-form Q brackets over tables built
    # on the full per-pixel rho_t it agrees to 1e-14 of the peak where the
    # bracket is one term, and to 1e-12 where the (1, 0) bracket cancels
    # (about 3 of 16 digits at these scales).
    E = _detuning_energy(4000.0)
    sources = [
        (GaussianSource(N_ATOMS, RABI, A2), None, {MultipoleIndex(0, 0): 1.0}, 1e-14),
        (GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 1)), None,
         {MultipoleIndex(1, 1): 1.0}, 1e-14),
        (GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, -1)), None,
         {MultipoleIndex(1, -1): 1.0}, 1e-14),
        (GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 0)), None,
         {MultipoleIndex(1, 0): 1.0}, 1e-12),
        (GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 1)), "perpendicular",
         perp_vortex_source(GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 1))), 1e-12),
    ]
    latt = _small_lattice(n_shells=2)
    for grid in _equality_grids():
        for src, orientation, weights, tol in sources:
            alpha, xi, ups, zeta_t, rho_t = _per_pixel_vars(grid, src.width)
            eps_t = CTX.eps(E) + 4.0 * alpha**4
            logl = atomlaser.log_virtual_strength(src.n_atoms, src.rabi, src.width, eps_t, CTX)
            table, logq = q_table_scaled_grid(2, rho_t, zeta_t, eps_t)
            mant = CTX.beta * CTX.beta_f**3 * oracles.beam_mantissa(
                weights, table, alpha, xi, ups, zeta_t
            )
            want = np.abs(mant) ** 2 * np.exp(2.0 * (logl + logq))
            got = beam_density_grid(src, grid, E, CTX, orientation).values
            assert np.max(np.abs(got - want)) <= tol * want.max()

        # The lattice weights per (|u|, rho_t) pair, in other blocks of radii
        # and pixels, must give every pixel exactly what lattice_beam, the
        # same kernel with that pixel as its own key, gives there.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(atomlaser, "_LATTICE_RADII", 100)
            mp.setattr(atomlaser, "_LATTICE_PIXELS", 333)
            got = lattice_beam_grid(latt, grid, 0.3e-3, E, CTX).values
        psi = np.array([
            [lattice_beam(latt, (x, y, grid.z), 0.3e-3, E, CTX) for x in grid.x.tolist()]
            for y in grid.y.tolist()
        ])
        want = np.abs(psi) ** 2  # as the plane forms its density
        oracles.assert_same_floats(got, want, 1e-11, want.max())


def test_beam_tables_see_the_shifted_variables_bit_for_bit(monkeypatch):
    # The virtual point reaches the Q tables as the floats of scaled_vars (a
    # point) and of the per-pixel rho_t (a plane), not as an SI point shifted
    # by 2 alpha^4 / bF: one ulp of zeta_t moves a beam pixel by about 2e-11.
    seen = []
    for name in ("_q_table_scaled", "q_table_scaled_grid"):
        real = getattr(ballistic, name)
        monkeypatch.setattr(ballistic, name, lambda *a, real=real: seen.append(a) or real(*a))
    E = _detuning_energy(2500.0)
    src = GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 0))
    r = (3e-6, -2e-6, 1e-3)
    beam_psi_1m(src, r, E, CTX)
    sv = scaled_vars(r, E, CTX, A2)
    assert seen.pop()[1] == QArgs(sv.rho_t, sv.zeta_t, sv.eps_t)
    _, grid = _equality_grids()
    beam_density_grid(src, grid, E, CTX)
    alpha, _, _, zeta_t, rho_t = _per_pixel_vars(grid, A2)
    _, rho, zeta, eps, _ = seen.pop()
    assert np.array_equal(rho, np.unique(rho_t))
    assert (zeta, eps) == (zeta_t, sv.eps_t)


def test_beams_are_virtual_point_multipole_waves():
    # With G_lm = -4 beta bF^(l+3) g_lm e^logscale at the virtual point
    # (zeta_t, eps_t), and mantissas in units of beta bF^3 Lambda e^logscale:
    #   psi_00   = 2 sqrt(pi) Lambda G_00,
    #   psi_1+-1 = -sqrt(8 pi/3) (alpha/bF) Lambda G_1+-1,
    #   psi_10   = -sqrt(8 pi/3) (alpha/bF) Lambda G_10 + 8 sqrt(2 pi) alpha^3 Lambda G_00,
    # the closed-form brackets against _wave's g_lm from a table on the same floats.
    rng = np.random.default_rng(2025)
    p1 = -math.sqrt(8.0 * math.pi / 3.0)
    for width in (0.5e-6, 1.2e-6, 2e-6, 3e-6):
        for dnu in (-1000.0, 1500.0, 4000.0):
            E = _detuning_energy(dnu)
            for x, y, z in zip(*rng.uniform(-20e-6, 20e-6, (2, 3)), rng.uniform(2e-4, 1.2e-3, 3)):
                sv = scaled_vars((x, y, z), E, CTX, width)
                a = sv.alpha
                table, logq = _q_table_scaled(2, QArgs(sv.rho_t, sv.zeta_t, sv.eps_t))

                def g(l, m):
                    val, _, logscale = ballistic._wave(
                        {MultipoleIndex(l, m): 1.0}, (sv.xi, sv.upsilon, sv.zeta_t), sv.eps_t
                    )
                    assert logscale == logq
                    return -4.0 * val

                def closed(l, m):
                    return oracles.beam_mantissa(
                        {MultipoleIndex(l, m): 1.0}, table, a, sv.xi, sv.upsilon, sv.zeta_t
                    )

                assert closed(0, 0) == pytest.approx(2.0 * math.sqrt(math.pi) * g(0, 0), rel=1e-14)
                for m in (1, -1):
                    assert closed(1, m) == pytest.approx(p1 * a * g(1, m), rel=1e-14)
                terms = (p1 * a * g(1, 0), 8.0 * math.sqrt(2.0 * math.pi) * a**3 * g(0, 0))
                # the bracket cancels: bound by its largest term
                assert abs(closed(1, 0) - sum(terms)) <= 5e-14 * max(map(abs, terms))


def test_point_beams_match_the_per_term_reference(monkeypatch):
    # The point beams through _wave's cached plan against the same beams with
    # oracles.wave_per_term, the per-term assembly the plan replaced, to 1e-13
    # relative; several weights at a point (perpendicular) are one amplitude
    # column each in both.
    rng = np.random.default_rng(2602)
    calls = []
    for width in (0.5e-6, 1.2e-6, 2e-6, 3e-6):
        for dnu in (-1000.0, 1500.0, 4000.0):
            E = _detuning_energy(dnu)
            for x, y, z in zip(*rng.uniform(-20e-6, 20e-6, (2, 2)), rng.uniform(2e-4, 1.2e-3, 2)):
                r = (x, y, z)
                calls.append(lambda r=r, E=E, w=width: beam_psi_00(
                    GaussianSource(N_ATOMS, RABI, w), r, E, CTX))
                for m in (1, 0, -1):
                    calls.append(lambda r=r, E=E, w=width, m=m: beam_psi_1m(
                        GaussianSource(N_ATOMS, RABI, w, MultipoleIndex(1, m)), r, E, CTX))
                calls.append(lambda r=r, E=E, w=width: beam_psi_perp(
                    GaussianSource(N_ATOMS, RABI, w, MultipoleIndex(1, 1)), r, E, CTX))
    got = [call() for call in calls]
    monkeypatch.setattr(atomlaser, "_wave", oracles.wave_per_term)
    for call, value in zip(calls, got):
        assert value == pytest.approx(call(), rel=1e-13)


def test_point_beam_is_its_one_pixel_plane_near_the_virtual_source():
    # Across the virtual source (z = -2 alpha^4 / bF = -0.147 mm for 2 um) a
    # point beam's |psi|^2 is what its one-pixel plane gives: 0 where the beam
    # underflows, inf where it overflows (the point raised a bare
    # OverflowError there), and the same value to 1e-10 elsewhere.
    E = _detuning_energy(3000.0)
    cases = [((0, 0), None, beam_psi_00), ((1, 1), None, beam_psi_1m),
             ((1, 0), None, beam_psi_1m), ((1, 1), "perpendicular", beam_psi_perp)]
    kinds = set()

    def outcome(call):
        try:
            with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", StabilityWarning)
                return float(np.ravel(call())[0])
        except Exception as exc:  # noqa: BLE001 - the error class is compared
            return type(exc)

    for z in [*np.linspace(-6e-4, 6e-4, 13).tolist(), -2e-4]:
        for idx, orientation, fn in cases:
            src = GaussianSource(1e5, 100.0, 2e-6, MultipoleIndex(*idx))
            grid = DetectorGrid(z, np.array([3e-6]), np.array([-2e-6]))
            point = outcome(lambda: np.abs(fn(src, (3e-6, -2e-6, z), E, CTX)) ** 2)
            pixel = outcome(lambda: beam_density_grid(src, grid, E, CTX, orientation).values)
            if isinstance(pixel, type) or not math.isfinite(pixel) or pixel == 0.0:
                assert point == pixel, (z, idx, orientation, point, pixel)
            else:
                assert point == pytest.approx(pixel, rel=1e-10)
            kinds.add("inf" if pixel == math.inf else "0" if pixel == 0.0 else "finite")
    assert kinds == {"0", "inf", "finite"}


def test_lattice_beam_grid_matches_scalar_everywhere():
    # Every pixel of a plane against its point, a one-pixel call of the same
    # kernel.  The bound needs each pixel to see the log terms of its own |u|:
    # at alpha_- ~ 1.9e4 one ulp of the log exponent (about 2.6e6) is 5e-10
    # of the density.
    latt = _small_lattice(n_shells=2)
    E = _detuning_energy(5000.0)
    grid = DetectorGrid.centered(177e-6, 60e-6, 60e-6, 33, 33)
    got = lattice_beam_grid(latt, grid, 0.2e-3, E, CTX).values
    want = np.array([
        [abs(lattice_beam(latt, (float(x), float(y), grid.z), 0.2e-3, E, CTX)) ** 2
         for x in grid.x]
        for y in grid.y
    ])
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-11 * want.max()


def _lattice_psi_streaming(latt, xi, ups, t, E, q_columns):
    """Lattice wave function at lateral (xi, upsilon), floats or arrays, summed
    one component at a time with a running elementwise maximum of the logs.

    q_columns(eps_t) gets the float array of every eps_tm, m = 0..n, and
    returns column(m), which gives (Q_{m+1} mantissa at eps_tm, logscale) at
    the points, called once per component with w_m != 0, in increasing m.
    """
    exp, maximum = (np.exp, np.maximum) if isinstance(xi, np.ndarray) else (math.exp, max)
    a = latt.width
    alpha = CTX.beta_f * a
    u = xi + 1j * ups
    absu = abs(u)
    on_axis = absu == 0.0
    phase_u = u / (absu + on_axis)  # 0 on the axis, so phase_u^m drops m > 0
    with np.errstate(divide="ignore"):
        log2au = np.log(2.0 * alpha * absu)  # -inf on the axis
    e = [E + m * CTX.hbar * latt.rot for m in range(latt.n + 1)]
    eps_t = [CTX.eps(e_m) + 4.0 * alpha**4 for e_m in e]
    column = q_columns(np.array(eps_t))
    lmax, acc = -sys.float_info.max, 0.0
    for m, wm in enumerate(lattice_coeffs(latt)):
        if wm == 0.0:
            continue
        qm, logq = column(m)
        logl = atomlaser.log_virtual_strength(latt.n_atoms, latt.rabi, a, eps_t[m], CTX)
        const = math.log(abs(wm)) + m * math.log(a) - 0.5 * latt._log_sum + logl
        lm = const + (m * log2au if m else 0.0) + logq
        cm = (wm / abs(wm)) * cmath.exp(-1j * e[m] * t / CTX.hbar) * phase_u**m * qm
        new_max = maximum(lmax, lm)
        acc = acc * exp(lmax - new_max) + cm * exp(lm - new_max)
        lmax = new_max
    return -4.0 * CTX.beta * CTX.beta_f**3 * acc * exp(lmax)


def _lattice_beam_per_component(latt, r, t, E):
    """lattice_beam from one float q_scaled table per (m, m) component: the
    scalar Airy values and the float recursion, no code shared with the
    lattice kernel's Q rows, summed by _lattice_psi_streaming."""
    sv = scaled_vars(r, E, CTX, latt.width)

    def q_columns(eps_t):
        return lambda m: q_scaled(m + 1, QArgs(sv.rho_t, sv.zeta_t, float(eps_t[m])))

    return complex(_lattice_psi_streaming(latt, sv.xi, sv.upsilon, t, E, q_columns))


def _lattice_plane_per_component(latt, grid, t, E):
    """lattice_beam_grid from float q_scaled tables per component and distinct
    radius, summed by _lattice_psi_streaming over the plane's arrays."""
    _, xi, ups, zeta_t, rho_t = _per_pixel_vars(grid, latt.width)
    rho_u, inv = np.unique(rho_t, return_inverse=True)

    def q_columns(eps_t):
        def column(m):
            cells = [q_scaled(m + 1, QArgs(r, zeta_t, float(eps_t[m]))) for r in rho_u.tolist()]
            return np.array([c[0] for c in cells])[inv], np.array([c[1] for c in cells])[inv]

        return column

    return np.abs(_lattice_psi_streaming(latt, xi, ups, t, E, q_columns)) ** 2


def test_lattice_beam_grid_matches_per_component_float_tables():
    centred = _small_lattice(n_shells=2)
    shifted = VortexLattice(
        tuple(v + (3e-6 + 2e-6j) for v in centred.positions),
        centred.rot, centred.width, N_ATOMS, RABI,
    )
    E = _detuning_energy(5000.0)
    grid = DetectorGrid.centered(177e-6, 60e-6, 60e-6, 33, 33)
    for latt in (centred, shifted):
        got = lattice_beam_grid(latt, grid, 0.2e-3, E, CTX).values
        want = _lattice_plane_per_component(latt, grid, 0.2e-3, E)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


def test_lattice_beam_matches_per_component_float_tables():
    # Random points of the criterion-10 plane and below it, at t != 0, and the
    # axis, where only m = 0 survives (zero for the centred lattice).
    centred = _small_lattice(n_shells=2)
    shifted = VortexLattice(
        tuple(v + (3e-6 + 2e-6j) for v in centred.positions),
        centred.rot, centred.width, N_ATOMS, RABI,
    )
    rng = np.random.default_rng(2211)
    points = [((0.0, 0.0, 177e-6), 0.4e-3, _detuning_energy(5000.0))]
    for _ in range(30):
        r = (*rng.uniform(-30e-6, 30e-6, 2), rng.uniform(150e-6, 400e-6))
        points.append((tuple(map(float, r)), float(rng.uniform(0.1e-3, 1e-3)),
                       _detuning_energy(rng.uniform(3e3, 7e3))))
    for latt in (centred, shifted, _small_lattice(n_shells=3)):
        for r, t, E in points:
            got = lattice_beam(latt, r, t, E, CTX)
            want = _lattice_beam_per_component(latt, r, t, E)
            assert abs(got - want) <= 1e-12 * abs(want), (r, t, E)
    assert lattice_beam(centred, points[0][0], 0.4e-3, points[0][2], CTX) == 0.0
    assert lattice_beam(shifted, points[0][0], 0.4e-3, points[0][2], CTX) != 0.0


def test_lattice_beam_raises_at_the_virtual_source():
    # rho_t = 0 on the axis at z = -2 alpha^4 / bF, where Q_k, k >= 1, diverges;
    # step z by ulps until zeta_t = bF z + 2 alpha^4 is exactly zero.
    latt = _small_lattice()
    E = _detuning_energy(5000.0)
    alpha = CTX.beta_f * latt.width
    z = -2.0 * alpha**4 / CTX.beta_f
    for _ in range(64):
        zeta_t = scaled_vars((0.0, 0.0, z), E, CTX, latt.width).zeta_t
        if zeta_t == 0.0:
            break
        z = math.nextafter(z, -math.inf if zeta_t > 0.0 else math.inf)
    assert scaled_vars((0.0, 0.0, z), E, CTX, latt.width).rho_t == 0.0
    with pytest.raises(SingularityError):
        lattice_beam(latt, (0.0, 0.0, z), 0.0, E, CTX)


def test_lattice_beam_is_the_one_pixel_plane():
    # The point is a one-pixel call of the plane's kernel: the same floats as a
    # one-pixel plane at random points (the point's rho_t rounds as a pixel's),
    # and, near the virtual source of the 7-vortex lattice (5 um, 5 kHz), where
    # the beam overflows, the plane's inf rather than an OverflowError.  Every
    # pixel of larger planes is compared in
    # test_detector_grids_built_per_radius_equal_per_pixel_tables.
    latt = _small_lattice()
    E = _detuning_energy(5000.0)

    def plane(x, y, z, t, n=1):
        grid = DetectorGrid(z, np.array([x] * n), np.array([y]))
        return lattice_beam_grid(latt, grid, t, E, CTX).values

    rng = np.random.default_rng(2301)
    for _ in range(10):
        x, y = rng.uniform(-30e-6, 30e-6, 2).tolist()
        z, t = float(rng.uniform(150e-6, 400e-6)), float(rng.uniform(0.0, 1e-3))
        point = np.abs(np.array([lattice_beam(latt, (x, y, z), t, E, CTX)])) ** 2
        assert np.array_equal(point, plane(x, y, z, t)[0])
    z = -2.0 * (CTX.beta_f * latt.width) ** 4 / CTX.beta_f
    with np.errstate(over="ignore", invalid="ignore"):
        point = lattice_beam(latt, (1e-6, 0.0, z), 0.0, E, CTX)
        values = plane(1e-6, 0.0, z, 0.0, n=2)
    assert values.tolist() == [[math.inf, math.inf]]
    assert abs(point) == math.inf


def test_log_virtual_strength_takes_every_component_energy_at_once():
    latt = _small_lattice(n_shells=3)
    alpha = CTX.beta_f * latt.width
    e = _detuning_energy(5000.0) + np.arange(latt.n + 1.0) * CTX.hbar * latt.rot
    eps_t = CTX.eps(e) + 4.0 * alpha**4
    got = atomlaser.log_virtual_strength(latt.n_atoms, latt.rabi, latt.width, eps_t, CTX)
    want = [atomlaser.log_virtual_strength(latt.n_atoms, latt.rabi, latt.width, v, CTX)
            for v in eps_t.tolist()]
    assert got.tolist() == want


def test_lattice_plane_memory_is_bounded(tmp_path):
    # A 513^2 plane of the 37-vortex lattice (criterion 10) in a child process
    # raises its peak RSS by less than 40 MB over the level after import.
    script = tmp_path / "plane.py"
    script.write_text(textwrap.dedent("""
        import math, resource
        from ballisticwaves import atomlaser as al
        from ballisticwaves.ballistic import DetectorGrid
        ctx = al.rb87_context()
        latt = al.VortexLattice(al.triangular_vortex_positions(3, 10e-6), 2.0 * math.pi * 250.0,
                                5e-6, 1e6, 2.0 * math.pi * 100.0)
        grid = DetectorGrid.centered(177e-6, 90e-6, 90e-6, 513, 513)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        al.lattice_beam_grid(latt, grid, 0.0, 2.0 * math.pi * ctx.hbar * 5000.0, ctx)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0)
    """))
    src = pathlib.Path(atomlaser.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert float(out.stdout) < 40.0


def test_j10_cancellation_warns():
    # The J_10 bracket Qi_2 + 8 alpha^4 Qi_1 - 4 alpha^2 Qi_0 + Qi_-1 / 2
    # cancels about 9 digits at zero detuning for a 2 um source, but only
    # about 2 for a 0.5 um source.
    src = GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 0))
    with pytest.warns(StabilityWarning, match="J_10"):
        vortex_current_1m(src, 0.0, CTX)
    with pytest.warns(StabilityWarning, match="J_10"):
        perp_vortex_current(GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 1)), 0.0, CTX)
    small = GaussianSource(N_ATOMS, RABI, 0.5e-6, MultipoleIndex(1, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", StabilityWarning)
        for dnu in np.linspace(-25e3, 25e3, 21):
            vortex_current_1m(small, _detuning_energy(dnu), CTX)


def test_currents_accept_energy_arrays():
    # One array call per quantity equals one float call per energy, within
    # the 1e-12 of the array Qi, in every mode; the shape is kept.
    E = _detuning_energy(np.linspace(-25e3, 25e3, 41))
    sources = [GaussianSource(N_ATOMS, RABI, 0.5e-6, MultipoleIndex(1, m)) for m in (1, 0)]
    calls = [
        lambda e: gaussian_multipole_current(0, N_ATOMS, RABI, A2, e, CTX),
        lambda e: gaussian_multipole_current(3, N_ATOMS, RABI, A2, e, CTX),
        lambda e: perp_vortex_current(sources[0], e, CTX),
    ] + [
        lambda e, src=src, mode=mode: vortex_current_1m(src, e, CTX, mode)
        for src in sources for mode in ("exact", "large-alpha", "slicing")
    ]
    for call in calls:
        got = call(E.reshape(1, -1))
        assert got.shape == (1, E.size)
        want = np.array([call(float(e)) for e in E])
        np.testing.assert_allclose(got[0], want, rtol=1e-12)
        assert call(E[:0]).shape == (0,)


def test_j10_warns_once_per_array_call():
    # The array call names the worst loss of the float calls and its eps_t:
    # about 9.6 digits at +30 Hz, 8.9 on resonance, none from about +-1 kHz on.
    src = GaussianSource(N_ATOMS, RABI, A2, MultipoleIndex(1, 0))
    E = _detuning_energy(np.linspace(-1200.0, 1200.0, 81))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always", StabilityWarning)
        for e in E:
            vortex_current_1m(src, float(e), CTX)
    losses = [str(w.message) for w in rec]
    assert 1 < len(losses) < E.size
    with pytest.warns(StabilityWarning, match="J_10") as rec:
        vortex_current_1m(src, E, CTX)
    assert len(rec) == 1
    digits = [float(msg.split("about ")[1].split(" ")[0]) for msg in losses]
    assert str(rec[0].message) == losses[int(np.argmax(digits))]


def test_virtual_strength_consistency():
    # Moderate alpha: finite strength, growing as the energy decreases.
    small = GaussianSource(N_ATOMS, RABI, 1.0 / CTX.beta_f)
    lam = virtual_strength(small, _detuning_energy(-3000.0), CTX)
    assert 0.0 < lam < math.inf
    assert virtual_strength(small, _detuning_energy(-4000.0), CTX) > lam
    # At experiment-scale widths the strength overflows; reported as inf
    # (the log-space interface is the production path).
    assert virtual_strength(GaussianSource(N_ATOMS, RABI, A2), 0.0, CTX) == math.inf
