"""The benchmark's four workloads: inputs from a seed, operations, checks.

A workload turns a round index into a fixed list of operations whose
arguments come from ``numpy.random.default_rng([seed, round, ...])``, so the
same seed gives the same inputs and no two operations in a run share
arguments (the one exception, the known-fault operations in ``pointwise``,
is fixed by design).  Checks run after the round, outside its timing, and
compare outputs with ``reference`` or with properties the method must have.
A check returns (label, passed, digits); digits is None for a property.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import pathlib

import mpmath as mp
import numpy as np

import reference as ref

# SI constants (CODATA 2018) and the scenario parameters of the paper.
HBAR = 1.054571817e-34
ELECTRON_MASS = 9.1093837015e-31
ELEMENTARY_CHARGE = 1.602176634e-19
RB87_MASS = 1.44316e-25
G_EARTH = 9.81
UEV = 1e-6 * ELEMENTARY_CHARGE
FIELD_VPM = 116.0
DETECTOR_Z = 0.514
N_ATOMS, RABI_HZ, WIDTH = 1e6, 100.0, 2e-6
LATTICE_WIDTH, LATTICE_ROT_HZ, LATTICE_SPACING = 5e-6, 250.0, 10e-6
#: Relative error above which a numeric check fails; the digits are reported apart.
TOL = 1e-6


class OpError(Exception):
    """A CLI command exited with a non-zero code."""


class Workload:
    """A workload: ops(r, span) gives round r's (kind, call) list, check(r,
    outputs) its checks.  Inputs of a round wait in self.inputs until checked."""

    name = ""

    def __init__(self, lib, seed: int, workdir: pathlib.Path):
        self.lib, self.seed, self.workdir = lib, seed, workdir
        self.inputs: dict[int, list] = {}

    def is_fault(self, kind: str) -> bool:
        """Operations kept on purpose although they fail (none by default)."""
        return False


class Scales:
    """beta and beta*F of a particle in a uniform force, from first principles."""

    def __init__(self, mass: float, force: float):
        self.mass, self.force = mass, force
        self.beta = (mass / (4.0 * HBAR**2 * force**2)) ** (1.0 / 3.0)
        self.bf = self.beta * force

    def eps(self, energy: float) -> float:
        return -2.0 * self.beta * energy


ELECTRON = Scales(ELECTRON_MASS, ELEMENTARY_CHARGE * FIELD_VPM)
RB87 = Scales(RB87_MASS, RB87_MASS * G_EARTH)


def detuning_energy(dnu_hz: float) -> float:
    return 2.0 * math.pi * HBAR * dnu_hz


def _rng(seed: int, r: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, r, tag])


def _prop(label: str, ok) -> tuple:
    return (label, bool(ok), None)


def _num(label: str, got, want, rel_unc: float = 0.0) -> tuple:
    """Numeric check: passes within TOL; reports digits capped by rel_unc."""
    err = ref.rel_error(got, want)
    return (label, bool(err <= TOL), ref.digits(got, want, rel_unc))


def triangular_sites(shells: int, spacing: float) -> list[complex]:
    """Sites i a1 + j a2 of the triangular lattice within a hexagonal shell."""
    a1, a2 = spacing, spacing * complex(0.5, math.sqrt(3.0) / 2.0)
    return [i * a1 + j * a2
            for i in range(-shells, shells + 1) for j in range(-shells, shells + 1)
            if max(abs(i), abs(j), abs(i + j)) <= shells]


def lattice_source(lib):
    al = lib.atomlaser
    pos = al.triangular_vortex_positions(3, LATTICE_SPACING)
    return al.VortexLattice(pos, 2.0 * math.pi * LATTICE_ROT_HZ, LATTICE_WIDTH,
                            N_ATOMS, 2.0 * math.pi * RABI_HZ)


def local_minima(vals: np.ndarray, xs: np.ndarray, ys: np.ndarray, radius: float):
    """Strict 3x3 local minima of an image within a lateral radius."""
    out = []
    for iy in range(1, vals.shape[0] - 1):
        for ix in range(1, vals.shape[1] - 1):
            if math.hypot(xs[ix], ys[iy]) > radius:
                continue
            c = vals[iy, ix]
            nb = vals[iy - 1:iy + 2, ix - 1:ix + 2]
            if (nb >= c).all() and (nb > c).sum() >= 7:
                out.append(complex(xs[ix], ys[iy]))
    return out


def sum_rule_error(detunings, rates) -> float:
    """Relative error of int J dE against 2 pi N (hbar Omega)^2 / hbar."""
    target = 2.0 * math.pi * N_ATOMS * (HBAR * 2.0 * math.pi * RABI_HZ) ** 2 / HBAR
    energies = np.array([detuning_energy(d) for d in detunings])
    return abs(float(np.trapezoid(np.asarray(rates, dtype=float), energies)) / target - 1.0)


def log_lambda(alpha: float, width: float, eps_t):
    """log of the virtual point-source strength of a Gaussian source (mpmath)."""
    return (mp.log(N_ATOMS) / 2 + mp.log(HBAR * 2 * mp.pi * RABI_HZ)
            + mp.mpf(1.5) * mp.log(2 * mp.sqrt(mp.pi) * width)
            + 2 * alpha**2 * (eps_t - 4 * mp.mpf(alpha) ** 4 / 3))


# ==========================================================================
# detector_images
# ==========================================================================


def read_csv(path):
    """(x, y, values) from a CLI grid CSV."""
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    x = np.array(lines[1][len("# x: "):].split(","), dtype=float)
    y = np.array(lines[2][len("# y: "):].split(","), dtype=float)
    vals = np.array([row.split(",") for row in lines[3:]], dtype=float)
    return x, y, vals


def read_pgm(path):
    data = pathlib.Path(path).read_bytes()
    magic, dims, maxval, rest = data.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    return magic, int(maxval), np.frombuffer(rest, dtype=">u2").reshape(h, w)


def dark_rings(img: np.ndarray) -> int:
    """Dark minima (below 1% of the peak) along the centre row, right half."""
    n = img.shape[0]
    half = img[n // 2, n // 2:]
    thr = 0.01 * half.max()
    return sum(1 for i in range(1, len(half) - 1)
               if half[i] < half[i - 1] and half[i] < half[i + 1] and half[i] < thr)


def mirror_asymmetry(img: np.ndarray) -> float:
    return float(np.abs(img - img[:, ::-1]).sum() / img.sum())


def farfield_photocurrent(pol: str, x: float, y: float, z: float, energy: float) -> float:
    """Paper's far-field j_z of the pi / sigma / circular p-wave source (mpmath)."""
    s = ELECTRON
    with mp.workdps(30):
        r = mp.sqrt(mp.mpf(x) ** 2 + mp.mpf(y) ** 2 + mp.mpf(z) ** 2)
        eps = mp.mpf(s.eps(energy))
        am = eps - s.bf * mp.mpf(z) + s.bf * r
        ap = eps - s.bf * mp.mpf(z) - s.bf * r
        ai, aip = mp.airyai(am), mp.airyai(am, 1)
        b, f = mp.mpf(s.beta), mp.mpf(s.force)
        if pol == "pi":
            val = 24 * b**8 * f**7 / (mp.pi**2 * HBAR * (-ap)) * aip**2
        elif pol == "sigma":
            val = 24 * b**10 * f**9 / (mp.pi**2 * HBAR * ap**2) * mp.mpf(x) ** 2 * ai**2
        else:
            val = (12 * b**8 * f**7 / (mp.pi**2 * HBAR * (-ap))
                   * (aip - s.bf * mp.mpf(x) * ai / mp.sqrt(-ap)) ** 2)
        return float(val)


def beam_density(source: str, x: float, y: float, z: float, energy: float) -> float:
    """Paper's atom-laser beam density |psi|^2 from closed-form Q_0..Q_2 (mpmath)."""
    s = RB87
    with mp.workdps(40):
        alpha = mp.mpf(s.bf) * WIDTH
        xi, ups = s.bf * mp.mpf(x), s.bf * mp.mpf(y)
        zeta_t = s.bf * mp.mpf(z) + 2 * alpha**4
        rho_t = mp.sqrt(xi**2 + ups**2 + zeta_t**2)
        eps_t = s.eps(energy) + 4 * alpha**4
        q0, q1, q2 = ref.q012_closed(rho_t, zeta_t, eps_t)
        lam = mp.exp(log_lambda(alpha, WIDTH, eps_t))
        p = s.beta * mp.mpf(s.bf) ** 3 * alpha * lam
        psi_p = -8 * p * (xi + 1j * ups) * q2
        if source == "parallel":
            psi = psi_p
        else:
            psi_m = 8 * p * (xi - 1j * ups) * q2
            psi10 = 4 * mp.sqrt(2) * p * (2 * zeta_t * q2 - 4 * alpha**2 * q1 + q0)
            psi = (psi_p + mp.sqrt(2) * psi10 + psi_m) / 2
        return float(abs(psi) ** 2)


class DetectorImages(Workload):
    """Photodetachment rings and atom-laser beams through the CLI image commands."""

    name = "detector_images"
    PD_N, AL_N = 256, 257
    PIXEL_CHECKS = 10  # per image, against the mpmath closed forms

    def ops(self, r: int, span):
        rng = _rng(self.seed, r, 1)
        out = self.workdir / f"round{r}"
        items = []
        for pol in ("pi", "sigma", "circular"):
            e_uev = float(rng.uniform(60.0, 62.4))
            r_cl = math.sqrt(4.0 * e_uev * UEV * DETECTOR_Z / ELECTRON.force)
            window = float(2.0 * r_cl * rng.uniform(1.04, 1.10))
            items.append(("photodetach_" + pol, [
                "photodetach-profile", "--polarization", pol, "--energy-uev", repr(e_uev),
                "--window-m", repr(window), "--grid-n", str(self.PD_N), "--out", str(out)],
                dict(pol=pol, energy=e_uev * UEV, window=window)))
        for source in ("parallel", "perpendicular"):
            det_khz = float(rng.uniform(-1.0, 5.0))
            z = float(rng.uniform(0.9e-3, 1.1e-3))
            window = float(rng.uniform(28e-6, 32e-6))
            items.append(("atomlaser_" + source, [
                "atomlaser-profile", "--source", source, "--detuning-khz", repr(det_khz),
                "--z-m", repr(z), "--window-m", repr(window), "--grid-n", str(self.AL_N),
                "--out", str(out)],
                # The CLI's own kHz-to-joule arithmetic, so the recomputed grid is
                # bit-identical to the one it wrote.
                dict(source=source, energy=2.0 * math.pi * HBAR * det_khz * 1e3, z=z,
                     window=window)))
        self.inputs[r] = [(stem, params) for stem, _, params in items]
        return [(stem, self._command(args, out, stem, span)) for stem, args, _ in items]

    def _command(self, args, out: pathlib.Path, stem: str, span):
        cli = self.lib.cli

        def run():
            with span("cli", "command") as rec:
                with contextlib.redirect_stdout(io.StringIO()):
                    try:
                        cli.main.main(args=args, standalone_mode=False)
                    except SystemExit as exc:
                        if exc.code:
                            raise OpError(f"{args[0]} exited with {exc.code}") from None
            rec[5] = sum(os.path.getsize(out / f"{stem}.{ext}") for ext in ("csv", "pgm", "json"))
            return out / stem
        return run

    def check(self, r: int, outputs) -> list:
        checks = []
        images, energies = {}, {}
        rng = _rng(self.seed, r, 2)
        for (stem, params), (kind, path) in zip(self.inputs.pop(r), outputs):
            x, y, vals = read_csv(f"{path}.csv")
            images[stem], energies[stem] = vals, params["energy"]
            magic, maxval, pgm = read_pgm(f"{path}.pgm")
            vmax = vals.max()
            want = np.round(vals / vmax * 65535.0).astype(np.uint16)
            checks.append(_prop(f"{stem} pgm", magic == b"P5" and maxval == 65535
                                and pgm.max() == 65535 and np.array_equal(pgm, want)))
            checks.append(_prop(f"{stem} finite", np.all(np.isfinite(vals)) and vals.min() >= 0.0))
            if r == 0:
                checks.append(_prop(f"{stem} csv parses back", np.array_equal(
                    vals, self._in_memory(params))))
            bright = np.argwhere(vals > 0.05 * vmax)
            for iy, ix in bright[rng.choice(len(bright), self.PIXEL_CHECKS, replace=False)]:
                if "pol" in params:
                    want_v = farfield_photocurrent(params["pol"], x[ix], y[iy],
                                                   DETECTOR_Z, params["energy"])
                else:
                    want_v = beam_density(params["source"], x[ix], y[iy],
                                          params["z"], params["energy"])
                checks.append(_num(f"{stem} pixel", float(vals[iy, ix]), want_v))
        eps_pi = ELECTRON.eps(energies["photodetach_pi"])
        eps_sig = ELECTRON.eps(energies["photodetach_sigma"])
        checks.append(_prop("pi rings = Ai' zeros above eps", dark_rings(images["photodetach_pi"])
                            == ref.airy_zeros_above(eps_pi, prime=True)))
        checks.append(_prop("sigma rings = Ai zeros above eps",
                            dark_rings(images["photodetach_sigma"])
                            == ref.airy_zeros_above(eps_sig, prime=False)))
        a_pi = mirror_asymmetry(images["photodetach_pi"])
        a_circ = mirror_asymmetry(images["photodetach_circular"])
        checks.append(_prop("circular less mirror-symmetric than pi",
                            a_circ > 10.0 * max(a_pi, 1e-3)))
        par = images["atomlaser_parallel"]
        c = par.shape[0] // 2
        checks.append(_prop("parallel vortex dark axis", par[c, c] <= 0.01 * par.max()))
        return checks

    def _in_memory(self, params):
        """The grid the CLI computed, recomputed through the library."""
        lib = self.lib
        b = lib.ballistic
        if "pol" in params:
            ctx = b.PhysicalContext(ELECTRON_MASS, ELEMENTARY_CHARGE * FIELD_VPM)
            w = params["window"]
            grid = b.DetectorGrid.centered(DETECTOR_Z, w, w, self.PD_N, self.PD_N)
            return b.photodetachment_profile(params["pol"], grid, params["energy"], ctx).values
        al = lib.atomlaser
        w = params["window"]
        grid = b.DetectorGrid.centered(params["z"], w, w, self.AL_N, self.AL_N)
        idx = lib.harmonics.MultipoleIndex(1, 1)
        src = al.GaussianSource(N_ATOMS, 2.0 * math.pi * RABI_HZ, WIDTH, idx)
        orient = "perpendicular" if params["source"] == "perpendicular" else None
        return al.beam_density_grid(src, grid, params["energy"], al.rb87_context(), orient).values


# ==========================================================================
# vortex_lattice
# ==========================================================================


class VortexLattice(Workload):
    """The 37-vortex rotating lattice beam at seeded (time, detuning) pairs."""

    name = "vortex_lattice"
    N, WINDOW, Z = 97, 90e-6, 177e-6
    #: A dark spot must lie this close to its (rotated) vortex.
    TRACK_TOL = 3e-6
    PIXEL_CHECKS = 20  # per image, of the rotation property

    def __init__(self, lib, seed: int, workdir: pathlib.Path):
        super().__init__(lib, seed, workdir)
        self.latt = lattice_source(lib)
        self.ctx = lib.atomlaser.rb87_context()
        self.sites = triangular_sites(3, LATTICE_SPACING)

    def ops(self, r: int, span):
        rng = _rng(self.seed, r, 1)
        t = float(rng.uniform(0.0, 1e-3))
        energy = detuning_energy(float(rng.uniform(3e3, 7e3)))
        grid = self.lib.ballistic.DetectorGrid.centered(self.Z, self.WINDOW, self.WINDOW,
                                                        self.N, self.N)
        self.inputs[r] = [(t, energy, grid)]
        al = self.lib.atomlaser
        return [("lattice_beam_grid",
                 lambda: al.lattice_beam_grid(self.latt, grid, t, energy, self.ctx))]

    def check(self, r: int, outputs) -> list:
        checks = []
        rng = _rng(self.seed, r, 2)
        al = self.lib.atomlaser
        for (t, energy, grid), (kind, img) in zip(self.inputs.pop(r), outputs):
            vals = img.values
            checks.append(_prop("lattice finite", np.all(np.isfinite(vals)) and vals.min() >= 0.0))
            phi = self.latt.rot * t
            turn = complex(math.cos(phi), math.sin(phi))
            minima = local_minima(vals, grid.x, grid.y, 40e-6)
            checks.append(_prop("lattice has 37 minima", len(minima) == len(self.sites)))
            track = max(min(abs(m - v * turn) for m in minima) for v in self.sites) \
                if minima else math.inf
            checks.append(_prop("each minimum at its rotated vortex", track <= self.TRACK_TOL))
            # Density at time t equals the t = 0 density rotated by Omega t.
            bright = np.argwhere(vals > 0.01 * vals.max())
            for iy, ix in bright[rng.choice(len(bright), self.PIXEL_CHECKS, replace=False)]:
                p = complex(grid.x[ix], grid.y[iy]) / turn
                d0 = abs(al.lattice_beam(self.latt, (p.real, p.imag, grid.z), 0.0,
                                         energy, self.ctx)) ** 2
                checks.append(_num("lattice rotation", float(vals[iy, ix]), d0))
        return checks


# ==========================================================================
# spectra
# ==========================================================================


def photocurrent_ref(pol: str, energy: float):
    """(J, relative error): J_10 = K (3 Qi_-1 + 6 Qi_2), J_11 = 6 K Qi_2."""
    s = ELECTRON
    eps = s.eps(energy)
    kpref = s.mass / (2.0 * math.pi * HBAR**3) * s.bf**3
    logscale = -(4.0 / 3.0) * max(eps, 0.0) ** 1.5
    q2, e2 = ref.qi_ref(2, eps)
    if pol == "sigma":
        return 6.0 * kpref * q2 * math.exp(logscale), e2
    qm1, em1 = ref.qi_ref(-1, eps)
    total = 3.0 * qm1 + 6.0 * q2
    err = (abs(3.0 * qm1) * em1 + abs(6.0 * q2) * e2) / abs(total)
    return kpref * total * math.exp(logscale), err


def outcoupling_ref(source: str, energy: float):
    """(J, relative error) of the s-wave or perpendicular-vortex Gaussian source.

    J_00 = (8/hbar) beta (bF)^3 Lambda^2 Qi_1(eps_t); the perpendicular
    vortex is (J_11 + J_10)/2 with J_11 = (8/hbar) beta (bF)^3 (2 alpha)^2
    Lambda^2 Qi_2 and J_10 = (32/hbar) beta (bF)^3 alpha^2 Lambda^2
    [Qi_2 + 8 alpha^4 Qi_1 - 4 alpha^2 Qi_0 + Qi_-1 / 2].
    """
    s = RB87
    alpha = s.bf * WIDTH
    eps_t = s.eps(energy) + 4.0 * alpha**4
    with mp.workdps(30):
        logscale = -mp.mpf(4) / 3 * mp.mpf(max(eps_t, 0.0)) ** 1.5
        base = mp.mpf(8) / HBAR * s.beta * mp.mpf(s.bf) ** 3 * mp.exp(
            2 * log_lambda(alpha, WIDTH, mp.mpf(eps_t)) + logscale)
        if source == "swave":
            q1, e1 = ref.qi_ref(1, eps_t)
            return float(base * q1), e1
        terms = [ref.qi_ref(k, eps_t) for k in (2, 1, 0, -1)]
        weights = (1.0, 8.0 * alpha**4, -4.0 * alpha**2, 0.5)
        bracket = sum(w * q for w, (q, _) in zip(weights, terms))
        err = sum(abs(w * q) * e for w, (q, e) in zip(weights, terms)) / abs(bracket)
        j11 = base * 4 * alpha**2 * terms[0][0]
        j10 = base * 4 * alpha**2 * bracket
        err = (abs(j11) * terms[0][1] + abs(j10) * err) / abs(j11 + j10)
        return float((j11 + j10) / 2), float(err)


class Spectra(Workload):
    """Photodetachment staircase and atom-laser outcoupling spectra."""

    name = "spectra"
    STAIR_N, OUT_N, LATT_N = 301, 101, 20
    SAMPLE_CHECKS = 8  # per spectrum, against Riemann-Liouville Qi

    def __init__(self, lib, seed: int, workdir: pathlib.Path):
        super().__init__(lib, seed, workdir)
        self.latt = lattice_source(lib)
        self.ectx = lib.ballistic.PhysicalContext(ELECTRON_MASS, ELEMENTARY_CHARGE * FIELD_VPM)
        self.actx = lib.atomlaser.rb87_context()

    def ops(self, r: int, span):
        rng = _rng(self.seed, r, 1)
        b, al, h = self.lib.ballistic, self.lib.atomlaser, self.lib.harmonics
        stair_step = 180.0 / (self.STAIR_N - 1)
        e_pi = (np.linspace(-30.0, 150.0, self.STAIR_N) + rng.uniform(0, stair_step)) * UEV
        e_sig = (np.linspace(-30.0, 150.0, self.STAIR_N) + rng.uniform(0, stair_step)) * UEV
        out_step = 50e3 / (self.OUT_N - 1)
        d_s = np.linspace(-25e3, 25e3, self.OUT_N) + rng.uniform(0, out_step)
        d_p = np.linspace(-25e3, 25e3, self.OUT_N) + rng.uniform(0, out_step)
        latt_step = 135e3 / (self.LATT_N - 1)
        d_l = np.linspace(-75e3, 60e3, self.LATT_N) + rng.uniform(0, latt_step)
        self.inputs[r] = [e_pi, e_sig, d_s, d_p, d_l]
        rabi = 2.0 * math.pi * RABI_HZ
        perp = al.GaussianSource(N_ATOMS, rabi, WIDTH, h.MultipoleIndex(1, 1))
        return [
            ("staircase_pi", lambda: b.photodetachment_spectrum("pi", e_pi, self.ectx)),
            ("staircase_sigma", lambda: b.photodetachment_spectrum("sigma", e_sig, self.ectx)),
            ("spectrum_swave", lambda: [
                al.gaussian_multipole_current(0, N_ATOMS, rabi, WIDTH, detuning_energy(d),
                                              self.actx)
                for d in d_s]),
            ("spectrum_perpendicular", lambda: [
                al.perp_vortex_current(perp, detuning_energy(d), self.actx) for d in d_p]),
            ("spectrum_lattice", lambda: al.lattice_spectrum(self.latt, d_l, self.actx)),
        ]

    def check(self, r: int, outputs) -> list:
        checks = []
        rng = _rng(self.seed, r, 2)
        e_pi, e_sig, d_s, d_p, d_l = self.inputs.pop(r)
        spectra = [o for _, o in outputs]
        for pol, energies, rows in (("pi", e_pi, spectra[0]), ("sigma", e_sig, spectra[1])):
            js = np.array([j for _, j in rows])
            checks.append(_prop(f"staircase {pol} positive",
                                np.all(np.isfinite(js)) and js.min() > 0))
            checks.append(_prop(f"staircase {pol} energies", np.array_equal(
                np.array([e for e, _ in rows]), energies)))
            for i in rng.choice(np.flatnonzero(js > 0.01 * js.max()), self.SAMPLE_CHECKS,
                                replace=False):
                want, err = photocurrent_ref(pol, float(energies[i]))
                checks.append(_num(f"staircase {pol}", float(js[i]), want, err))
        for source, dets, js in (("swave", d_s, spectra[2]), ("perpendicular", d_p, spectra[3])):
            js = np.array(js, dtype=float)
            checks.append(_prop(f"{source} positive", np.all(np.isfinite(js)) and js.min() >= 0))
            checks.append(_prop(f"{source} sum rule", sum_rule_error(dets, js) <= 1e-6))
            for i in rng.choice(np.flatnonzero(js > 0.01 * js.max()), self.SAMPLE_CHECKS,
                                replace=False):
                want, err = outcoupling_ref(source, detuning_energy(float(dets[i])))
                checks.append(_num(f"{source} rate", float(js[i]), want, err))
        rows = spectra[4]
        js = np.array([j for _, j in rows])
        checks.append(_prop("lattice positive", np.all(np.isfinite(js)) and js.min() >= 0))
        checks.append(_prop("lattice detunings",
                            np.array_equal(np.array([d for d, _ in rows]), d_l)))
        checks.append(_prop("lattice sum rule", sum_rule_error(d_l, js) <= 1e-6))
        return checks


# ==========================================================================
# pointwise
# ==========================================================================


def _direction(rng) -> np.ndarray:
    c = rng.uniform(-0.9, 0.9)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(1.0 - c * c)
    return np.array([s * math.cos(phi), s * math.sin(phi), c])


def _legendre_abs2(l: int, m: int, x):
    """|P_l^m(x)|^2 for real x, |x| > 1 included (mpmath)."""
    if abs(x) <= 1:
        return mp.legenp(l, m, x) ** 2
    return abs(mp.legenp(l, m, x, type=3)) ** 2


def semiclassical_ref(kind: str, l: int, m: int, R: float, z: float, E: float):
    """The two-path profile (E > 0) or its tunneling continuation (E < 0)."""
    s = ELECTRON
    with mp.workdps(30):
        M, hb = mp.mpf(s.mass), mp.mpf(HBAR)
        R, z, E = mp.mpf(R), mp.mpf(z), mp.mpf(E)
        m = abs(m)
        fac = mp.factorial(l - m) / mp.factorial(l + m)
        k = mp.sqrt(2 * M * abs(E)) / hb
        if kind == "semiclassical_profile":
            r_cl = mp.sqrt(4 * E * z / s.force)
            cos_th = mp.sqrt(1 - (R / r_cl) ** 2)
            phase = mp.mpf(2) / 3 * (2 * s.beta * E * cos_th**2) ** mp.mpf(1.5)
            sign = 1 if (l - m) % 2 == 0 else -1
            return float(M * k ** (2 * l + 1) / (4 * mp.pi**3 * hb**3) * (2 * l + 1)
                         / (r_cl * mp.sqrt(r_cl**2 - R**2)) * fac
                         * _legendre_abs2(l, m, cos_th) * mp.sin(phase + sign * mp.pi / 4) ** 2)
        r_tun = mp.sqrt(4 * abs(E) * z / s.force)
        arg = 1 + (R / r_tun) ** 2
        expo = -mp.mpf(4) / 3 * (2 * s.beta * abs(E) * arg) ** mp.mpf(1.5)
        return float(M * k ** (2 * l + 1) / (16 * mp.pi**3 * hb**3) * (2 * l + 1)
                     / (r_tun * mp.sqrt(r_tun**2 + R**2)) * fac
                     * _legendre_abs2(l, m, mp.sqrt(arg)) * mp.exp(expo))


def freespace_ref(kind: str, args):
    """Free outgoing waves and Wigner currents (mpmath)."""
    M = ELECTRON_MASS
    with mp.workdps(30):
        if kind == "green_free":
            r, r_src, E = args
            d = mp.sqrt(sum((mp.mpf(a) - mp.mpf(b)) ** 2 for a, b in zip(r, r_src)))
            pref = -mp.mpf(M) / (2 * mp.pi * HBAR**2)
            if E > 0:
                k = mp.sqrt(2 * M * mp.mpf(E)) / HBAR
                return complex(pref * mp.expj(k * d) / d)
            kappa = mp.sqrt(2 * M * mp.mpf(-E)) / HBAR
            return complex(pref * mp.exp(-kappa * d) / d)
        if kind == "wigner_current":
            (l, m), E = args
            k = mp.sqrt(2 * M * mp.mpf(E)) / HBAR
            return float(M * k ** (2 * l + 1) / (4 * mp.pi**2 * HBAR**3))
        (l, m), R, E = args
        k = mp.sqrt(2 * M * mp.mpf(E)) / HBAR
        d = mp.sqrt(sum(mp.mpf(c) ** 2 for c in R))
        u = k * d
        jl = mp.sqrt(mp.pi / (2 * u)) * mp.besselj(l + mp.mpf(0.5), u)
        yl = mp.sqrt(mp.pi / (2 * u)) * mp.bessely(l + mp.mpf(0.5), u)
        ylm, _ = ref.klm(l, m, [float(c / d) for c in R])
        return complex(-M * k ** (l + 1) / (2 * mp.pi * HBAR**2) * (-yl + 1j * jl)) * ylm


#: Polarization presets as effective unit vectors (ex, ey, ez).
POLARIZATIONS = {"pi": (0.0, 0.0, 1.0), "sigma": (1.0, 0.0, 0.0),
                 "circular": (1j / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))}


def pwave_amplitudes(pol: str) -> dict:
    """lambda_10 = ez, lambda_1+-1 = (-+ex + i ey)/sqrt(2) of a dipole transition."""
    ex, ey, ez = POLARIZATIONS[pol]
    amps = {(1, 0): ez, (1, 1): (-ex + 1j * ey) / math.sqrt(2.0),
            (1, -1): (ex + 1j * ey) / math.sqrt(2.0)}
    return {lm: a for lm, a in amps.items() if a != 0}


def current_ref(amps: dict, r, eps: float):
    """(j, relative error) of a point-multipole superposition at the origin."""
    s = ELECTRON
    cache: dict = {}
    psi, grad, rel = 0.0 + 0.0j, np.zeros(3, dtype=complex), 0.0
    for (l, m), lam in amps.items():
        g, gg, e = ref.green_lm_ref(l, m, r, s.beta, s.bf, eps, cache)
        psi += lam * g
        grad += lam * gg
        rel = max(rel, e)
    j = (HBAR / s.mass) * np.imag(np.conj(psi) * grad)
    scale = np.linalg.norm(j)
    unc = 2.0 * rel * abs(psi) * np.linalg.norm(grad) * HBAR / s.mass / scale if scale else 1.0
    return j, unc


class Pointwise(Workload):
    """Single-point evaluations across every layer, plus the known Im Q_k fault."""

    name = "pointwise"
    GREEN_INDICES = ((0, 0), (1, 0), (1, 1), (2, 0), (2, -1), (2, 2))
    #: Im Q_k at k = 12..20, rho = 1, zeta = 0.5, eps = 2: the forward
    #: five-point recursion loses every digit of the recessive imaginary part
    #: here without a StabilityWarning.  Fixed inputs, checked every round.
    FAULT_ORDERS = tuple(range(12, 21))
    FAULT_ARGS = (1.0, 0.5, 2.0)
    EXACT_N = 5

    def __init__(self, lib, seed: int, workdir: pathlib.Path):
        super().__init__(lib, seed, workdir)
        self.ectx = lib.ballistic.PhysicalContext(ELECTRON_MASS, ELEMENTARY_CHARGE * FIELD_VPM)
        self.actx = lib.atomlaser.rb87_context()
        self.latt = lattice_source(lib)
        self.fault_ref = {k: ref.im_q_series(k, *self.FAULT_ARGS) for k in self.FAULT_ORDERS}

    def is_fault(self, kind: str) -> bool:
        return kind == "im_q"

    def fault_wrong(self, value) -> bool:
        """A known-fault call returned Im Q_k off by more than TOL."""
        k, q = value
        want = self.fault_ref[k]
        return not abs(q.imag - want) <= TOL * abs(want)

    @staticmethod
    def _field_point(rng):
        """(r, E) with rho in [0.8, 3.5] and alpha_- = eps - zeta + rho in [-4, 1].

        Keeping alpha_- below 1 keeps Q_k away from its exponentially small
        tail, where the quadrature reference loses relative accuracy.
        """
        s = ELECTRON
        rho = rng.uniform(0.8, 3.5)
        rvec = rho / s.bf * _direction(rng)
        eps = rng.uniform(-4.0, 1.0) + s.bf * rvec[2] - rho
        return rvec, eps / (-2.0 * s.beta)

    def ops(self, r: int, span):
        rng = _rng(self.seed, r, 1)
        lib = self.lib
        b, aq, al, h = lib.ballistic, lib.airyq, lib.atomlaser, lib.harmonics
        fs, sc = lib.freespace, lib.semiclassical
        s = ELECTRON
        ops, inputs = [], []

        def add(kind, params, call):
            ops.append((kind, call))
            inputs.append((kind, params))

        def energy_for(eps):
            return eps / (-2.0 * s.beta)

        for l, m in self.GREEN_INDICES:
            rvec, E = self._field_point(rng)
            idx = h.MultipoleIndex(l, m)
            add("green_lm", (l, m, rvec, E),
                lambda idx=idx, rvec=rvec, E=E: b.green_lm(idx, rvec, E, self.ectx))
        for lms in (((1, 0),), ((1, 1), (1, -1)), ((2, 1), (0, 0))):
            amps = {lm: complex(*rng.uniform(-1.0, 1.0, 2)) for lm in lms}
            rvec, E = self._field_point(rng)
            src = b.SourceSuperposition({h.MultipoleIndex(*lm): a for lm, a in amps.items()}, E)
            add("current_density", (amps, rvec, E),
                lambda src=src, rvec=rvec: b.current_density(src, rvec, self.ectx))
        for _ in range(8):
            k = int(rng.integers(1, 7))
            rho, zeta = float(rng.uniform(1.0, 4.0)), float(rng.uniform(-2.0, 2.0))
            a = (rho, zeta, float(rng.uniform(-4.0, 1.0)) + zeta - rho)
            qa = aq.QArgs(*a)
            add("q", (k, a), lambda k=k, qa=qa: aq.q(k, qa))
        for _ in range(8):
            k, eps = int(rng.integers(0, 11)), float(rng.uniform(-6.0, 4.0))
            add("qi", (k, eps), lambda k=k, eps=eps: aq.qi(k, eps))
        for _ in range(2):
            rvec = (float(rng.uniform(-30e-6, 30e-6)), float(rng.uniform(-30e-6, 30e-6)), 177e-6)
            t, E = float(rng.uniform(0.0, 1e-3)), detuning_energy(rng.uniform(3e3, 7e3))
            add("lattice_beam", (rvec, t, E),
                lambda rvec=rvec, t=t, E=E: al.lattice_beam(self.latt, rvec, t, E, self.actx))
        for kind, sign in (("semiclassical_profile", 1.0), ("semiclassical_profile", 1.0),
                           ("tunneling_profile", -1.0), ("tunneling_profile", -1.0)):
            l = int(rng.integers(0, 3))
            m = int(rng.integers(-l, l + 1))
            E = sign * rng.uniform(50.0, 70.0) * UEV
            radius = math.sqrt(4.0 * abs(E) * DETECTOR_Z / s.force)
            R = radius * (rng.uniform(0.05, 0.9) if sign > 0 else rng.uniform(0.0, 2.0))
            pt = sc.ScreenPoint(R, rng.uniform(0.0, 2.0 * math.pi), DETECTOR_Z, E)
            idx = h.MultipoleIndex(l, m)
            fn = getattr(sc, kind)
            add(kind, (l, m, R, E),
                lambda fn=fn, idx=idx, pt=pt: fn(idx, pt, self.ectx))
        for _ in range(2):
            l = int(rng.integers(0, 3))
            m = int(rng.integers(-l, l + 1))
            R = rng.uniform(1e-8, 5e-8) * _direction(rng)
            E = rng.uniform(10.0, 100.0) * UEV
            idx = h.MultipoleIndex(l, m)
            add("green_free_lm", ((l, m), R, E),
                lambda idx=idx, R=R, E=E: fs.green_free_lm(idx, R, E, ELECTRON_MASS))
        l = int(rng.integers(0, 4))
        E = rng.uniform(10.0, 100.0) * UEV
        idx = h.MultipoleIndex(l, 0)
        add("wigner_current", ((l, 0), E),
            lambda idx=idx, E=E: fs.wigner_current(idx, E, ELECTRON_MASS))
        r1, r0 = rng.uniform(-5e-8, 5e-8, 3), rng.uniform(-5e-8, 5e-8, 3)
        E = rng.uniform(-100.0, 100.0) * UEV
        add("green_free", (r1, r0, E),
            lambda r1=r1, r0=r0, E=E: fs.green_free(r1, r0, E, ELECTRON_MASS))
        pol = str(rng.choice(list(POLARIZATIONS)))
        z = rng.uniform(1.0, 2.0) / s.bf
        width = 4.0 * rng.uniform(0.9, 1.1) / s.bf
        grid = b.DetectorGrid.centered(z, width, width, self.EXACT_N, self.EXACT_N)
        E = energy_for(rng.uniform(-2.0, 1.0))
        add("photodetach_exact", (pol, grid, E),
            lambda: b.photodetachment_profile(pol, grid, E, self.ectx, mode="exact"))
        qa = aq.QArgs(*self.FAULT_ARGS)
        for k in self.FAULT_ORDERS:
            add("im_q", None, lambda k=k: (k, aq.q(k, qa)))
        self.inputs[r] = inputs
        return ops

    def check(self, r: int, outputs) -> list:
        inputs = self.inputs.pop(r)
        if r & (r - 1):  # reference checks on rounds 0, 1, 2, 4, 8, ... only
            return []
        rng = _rng(self.seed, r, 2)
        s = ELECTRON
        checks = []
        al = self.lib.atomlaser
        for (kind, p), (_, got) in zip(inputs, outputs):
            if kind == "green_lm":
                l, m, rvec, E = p
                want, _, err = ref.green_lm_ref(l, m, rvec, s.beta, s.bf, s.eps(E))
                checks.append(_num(kind, got, want, err))
            elif kind == "current_density":
                amps, rvec, E = p
                want, err = current_ref(amps, rvec, s.eps(E))
                checks.append(_num(kind, got, want, err))
            elif kind == "q":
                k, (rho, zeta, eps) = p
                want, err = ref.q_ray(k, rho, zeta, eps)
                checks.append(_num(kind, got, want, err))
            elif kind == "qi":
                k, eps = p
                mant, err = ref.qi_ref(k, eps)
                want = mant * math.exp(-(4.0 / 3.0) * max(eps, 0.0) ** 1.5)
                checks.append(_num(kind, got, want, err))
            elif kind == "lattice_beam":
                rvec, t, E = p
                phi = self.latt.rot * t
                x, y, z = rvec
                back = (x * math.cos(phi) + y * math.sin(phi),
                        -x * math.sin(phi) + y * math.cos(phi), z)
                d0 = abs(al.lattice_beam(self.latt, back, 0.0, E, self.actx)) ** 2
                checks.append(_num("lattice rotation", abs(got) ** 2, d0))
            elif kind in ("semiclassical_profile", "tunneling_profile"):
                l, m, R, E = p
                checks.append(_num(kind, got, semiclassical_ref(kind, l, m, R, DETECTOR_Z, E)))
            elif kind in ("green_free_lm", "wigner_current", "green_free"):
                checks.append(_num(kind, got, freespace_ref(kind, p)))
            elif kind == "photodetach_exact":
                pol, grid, E = p
                vals = got.values
                bright = np.argwhere(np.abs(vals) > 0.01 * np.abs(vals).max())
                for iy, ix in bright[rng.choice(len(bright), 2, replace=False)]:
                    rvec = (grid.x[ix], grid.y[iy], grid.z)
                    want, err = current_ref(pwave_amplitudes(pol), rvec, s.eps(E))
                    checks.append(_num(kind, float(vals[iy, ix]), float(want[2]),
                                       err * np.linalg.norm(want) / abs(want[2])))
        return checks


WORKLOADS = {w.name: w for w in (DetectorImages, VortexLattice, Spectra, Pointwise)}
