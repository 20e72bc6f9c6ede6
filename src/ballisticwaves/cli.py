"""Command-line scenario runner producing reproducible flat-file figures.

Each subcommand evaluates a library scenario onto CSV, 16-bit PGM images
(normalized to the per-image maximum, which is recorded in the metadata),
and a JSON metadata file that holds every input needed to re-run the
scenario plus ``"timings": {"compute_s", "write_s"}`` (wall seconds of the
evaluation and of writing the CSV/PGM files).

CSV contract: every number is written as ``"%.16e"`` (17 significant
digits, so it parses back to the same float64 bit for bit), values are
joined by ``,`` and each row ends with ``\n``.  Grid CSVs start with a
``#`` description line and the ``# x:`` and ``# y:`` axis lines, then one
row per y; spectrum CSVs start with a column-name header.  A non-finite
value is never written: the command exits with code 4 instead.

Exit codes: 0 success, 2 configuration error, 3 regime error, 4 numerical
stability error.
"""

from __future__ import annotations

import functools
import json
import math
import pathlib
import sys
import time

import click
import numpy as np

from . import __version__
from .atomlaser import (
    GaussianSource,
    VortexLattice,
    beam_density_grid,
    lattice_beam_grid,
    lattice_spectrum,
    farfield_density,
    rb87_context,
    triangular_vortex_positions,
)
from .airyq import QArgs, q, qi
from .ballistic import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    HBAR,
    DetectorGrid,
    PhysicalContext,
    photodetachment_profile,
    photodetachment_spectrum,
    total_current_matrix,
    green_lm,
)
from .errors import (
    DomainError,
    RegimeError,
    SingularityError,
    StabilityError,
    UnsupportedOrderError,
)
from .harmonics import MultipoleIndex, translation_coeff_t
from .specfun import airy

_UEV = 1e-6 * ELEMENTARY_CHARGE  # 1 micro-electronvolt in joules


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def handle_errors(fn):
    """Map library exceptions onto the documented process exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DomainError, UnsupportedOrderError) as exc:
            _fail(2, str(exc))
        except RegimeError as exc:
            _fail(3, str(exc))
        except (StabilityError, SingularityError, FloatingPointError, OverflowError) as exc:
            _fail(4, str(exc))

    return wrapper


def _apply_config(ctx: click.Context, config: str | None, params: dict) -> dict:
    """Overlay values from a JSON config file onto unset CLI options, each
    converted and checked by its option's type as on the command line."""
    if config is None:
        return params
    try:
        with open(config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(2, f"cannot read config {config}: {exc}")
    if not isinstance(cfg, dict):
        _fail(2, f"config {config} must hold a JSON object")
    out = dict(params)
    options = {p.name: p for p in ctx.command.params}
    for key, value in cfg.items():
        name = key.replace("-", "_")
        if name not in out:
            _fail(2, f"unknown config key {key!r}")
        src = ctx.get_parameter_source(name)
        if src is None or src.name == "DEFAULT":
            option = options[name]
            # Every option takes one value; null only where that is the default.
            if isinstance(value, (list, dict)) or (value is None and option.default is not None):
                _fail(2, f"config key {key!r} needs one value, got {value!r}")
            try:
                out[name] = option.type_cast_value(ctx, value)
            except click.BadParameter as exc:
                _fail(2, f"config key {key!r}: {exc.format_message()}")
    return out


# --------------------------------------------------------------------------
# CSV numbers: "%.16e" for a whole array at once.
#
# A value |v| in [1e-280, 1e280] with decimal exponent e has the 17 digits
# round(|v| 10^(16-e)).  The product is formed in double-double: 10^(16-e)
# is a (hi, lo) pair exact to 2^-106, |v| hi is split exactly by Dekker's
# two-product, so the fractional part of the scaled value is known to about
# 1e-15 of the last digit and rounding half up is exact except near a tie.
# Zeros, cells outside that range and cells within 1e-6 of a tie (where
# "%.16e" rounds half to even on the exact binary value) take their digits
# from "%.16e" itself.  Both feed one byte layout.
# --------------------------------------------------------------------------

#: Cells encoded per block; bounds the working arrays to about 2 MB.
_BLOCK = 8192

#: Decimal exponents e the 10^(16-e) table covers: |v| in [1e-280, 1e280], one step beyond.
_E_MIN, _E_MAX = -281, 281

_SPLIT = 2.0**27 + 1.0  # Dekker's splitter for float64


@functools.cache
def _pow10_table():
    """10^(16-e) as hi + lo with Dekker halves of hi, and the 4-digit ASCII table."""
    hi, lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        k = 16 - e
        if k >= 0:
            h = float(10**k)
            hi.append(h)
            lo.append(float(10**k - int(h)))
        else:
            den10 = 10**-k
            h = 1 / den10
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * den10) / (den * den10))
    hi, lo = np.array(hi), np.array(lo)
    t = _SPLIT * hi
    hi_h = t - (t - hi)
    quads = np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), dtype=np.uint8)
    return hi, lo, hi_h, hi - hi_h, quads.reshape(10000, 4)


def _scaled(a: np.ndarray, i: np.ndarray):
    """Integer part and fraction of a 10^(16-e), e = i + _E_MIN."""
    hi, lo, hi_h, hi_l, _ = _pow10_table()
    p = a * hi[i]
    t = _SPLIT * a
    a_h = t - (t - a)
    a_l = a - a_h
    b_h, b_l = hi_h[i], hi_l[i]
    tail = (((a_h * b_h - p) + a_h * b_l + a_l * b_h) + a_l * b_l) + a * lo[i]
    floor = np.floor(tail)
    return p.astype(np.int64) + floor.astype(np.int64), tail - floor


def _csv_block(v: np.ndarray, ncols: int, start: int) -> bytes:
    """Cells v (flat indices start...) as "%.16e", each followed by , or a newline."""
    quads = _pow10_table()[4]
    a = np.abs(v)
    slow = ~((a >= 1e-280) & (a <= 1e280))
    a[slow] = 1.0
    i = np.floor(np.log10(a)).astype(np.int64) - _E_MIN
    n, frac = _scaled(a, i)
    # floor(log10) can miss by one next to a power of ten.
    off = (n >= 10**17).astype(np.int64) - (n < 10**16)
    redo = np.flatnonzero(off)
    if redo.size:
        i[redo] += off[redo]
        n[redo], frac[redo] = _scaled(a[redo], i[redo])
    digits = n + (frac >= 0.5)
    exp = i + _E_MIN
    slow |= (np.abs(frac - 0.5) <= 1e-6) | (digits < 10**16) | (digits >= 10**17)
    for j in np.flatnonzero(slow):
        s = "%.16e" % abs(v[j])
        digits[j], exp[j] = int(s[0] + s[2:18]), int(s[19:])
    # [sign] d . 16 digits e +- [hundreds] tens ones , -- 25 bytes, 23 kept at most.
    cells = np.empty((len(v), 25), dtype=np.uint8)
    cells[:, 0] = ord("-")
    cells[:, 1] = digits // 10**16 + ord("0")
    cells[:, 2] = ord(".")
    rest = digits % 10**16
    for col, group in ((3, rest // 10**12), (7, rest // 10**8 % 10**4),
                       (11, rest // 10**4 % 10**4), (15, rest % 10**4)):
        cells[:, col:col + 4] = quads[group]
    cells[:, 19] = ord("e")
    cells[:, 20] = np.where(exp < 0, ord("-"), ord("+"))
    aexp = np.abs(exp)
    cells[:, 21] = aexp // 100 + ord("0")
    cells[:, 22:24] = quads[aexp % 100, 2:]
    row_end = np.arange(start + 1, start + len(v) + 1) % ncols == 0
    cells[:, 24] = np.where(row_end, ord("\n"), ord(","))
    keep = np.ones(cells.shape, dtype=bool)
    keep[:, 0] = np.signbit(v)
    keep[:, 21] = aexp >= 100
    return cells[keep].tobytes()


def _csv_rows(values):
    """The rows of a 2-D float array as CSV bytes, in blocks of _BLOCK cells.

    Each value is written exactly as "%.16e" % v would write it.  Raises
    StabilityError, before yielding anything, if a value is not finite.
    """
    values = np.asarray(values, dtype=float)
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise StabilityError(f"refusing to write {bad} non-finite values")
    flat = values.ravel()
    ncols = values.shape[1]
    return (_csv_block(flat[s:s + _BLOCK], ncols, s) for s in range(0, flat.size, _BLOCK))


def _format(v: float) -> str:
    """One number in the CSV format."""
    return next(_csv_rows([[v]]))[:-1].decode()


def _write_csv(path: pathlib.Path, head: list[bytes], values) -> None:
    rows = _csv_rows(values)
    with open(path, "wb") as fh:
        fh.writelines(head)
        fh.writelines(rows)


def _write_meta(out: pathlib.Path, stem: str, meta: dict, files: list, t0: float,
                t_write: float) -> None:
    """The JSON metadata; the command started at t0 and began writing at t_write."""
    timings = {"compute_s": t_write - t0, "write_s": time.perf_counter() - t_write}
    meta = dict(meta, code_version=__version__, files=files, timings=timings)
    with open(out / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_grid_outputs(outdir: str, stem: str, grid: DetectorGrid, meta: dict, t0: float) -> None:
    t_write = time.perf_counter()
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    values = np.asarray(grid.values, dtype=float)
    csv_path = out / f"{stem}.csv"
    _write_csv(csv_path, [
        b"# row i: y = y[i]; column j: x = x[j]; value = per-pixel density\n",
        b"# x: " + b"".join(_csv_rows([grid.x])),
        b"# y: " + b"".join(_csv_rows([grid.y])),
    ], values)
    vmax = float(values.max())
    scaled = np.zeros_like(values) if vmax <= 0.0 else values / vmax
    img = np.round(scaled * 65535.0).astype(">u2")
    pgm_path = out / f"{stem}.pgm"
    with open(pgm_path, "wb") as fh:
        fh.write(f"P5\n{values.shape[1]} {values.shape[0]}\n65535\n".encode())
        fh.write(img.tobytes())
    meta = dict(meta, image_max_value=vmax)
    _write_meta(out, stem, meta, [csv_path.name, pgm_path.name], t0, t_write)


def _write_spectrum_outputs(
    outdir: str, stem: str, header: list[str], rows, meta: dict, t0: float
) -> None:
    t_write = time.perf_counter()
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}.csv"
    values = np.array(rows, dtype=float).reshape(len(rows), len(header))
    _write_csv(csv_path, [(",".join(header) + "\n").encode()], values)
    _write_meta(out, stem, meta, [csv_path.name], t0, t_write)


@click.group()
def main() -> None:
    """Ballistic matter-wave scenarios: profiles and spectra as flat files."""


@main.command("photodetach-profile")
@click.option("--config", type=click.Path(), default=None, help="JSON config file.")
@click.option("--energy-uev", type=float, default=60.8, show_default=True)
@click.option("--field-vpm", type=float, default=116.0, show_default=True)
@click.option("--z-m", type=float, default=0.514, show_default=True)
@click.option("--window-m", type=float, default=1.2e-3, show_default=True)
@click.option("--grid-n", type=int, default=512, show_default=True)
@click.option(
    "--mode",
    type=click.Choice(["far-field", "exact"]),
    default="far-field",
    show_default=True,
)
@click.option(
    "--polarization",
    type=click.Choice(["pi", "sigma", "circular", "tilt45"]),
    default="pi",
    show_default=True,
)
@click.option("--out", type=click.Path(), default=".", show_default=True)
@click.pass_context
@handle_errors
def photodetach_profile(ctx, config, **params):
    """Photocurrent density image of a p-wave source on a distant detector."""
    t0 = time.perf_counter()
    p = _apply_config(ctx, config, params)
    phys = PhysicalContext(
        mass=ELECTRON_MASS, force=ELEMENTARY_CHARGE * float(p["field_vpm"])
    )
    energy = float(p["energy_uev"]) * _UEV
    grid = DetectorGrid.centered(
        float(p["z_m"]), float(p["window_m"]), float(p["window_m"]),
        int(p["grid_n"]), int(p["grid_n"]),
    )
    result = photodetachment_profile(p["polarization"], grid, energy, phys, mode=p["mode"])
    meta = {
        "scenario": "photodetach-profile",
        "inputs": {k: p[k] for k in sorted(p) if k != "out"},
        "beta_per_joule": phys.beta,
        "eps": phys.eps(energy),
        "alpha_minus_center": phys.qargs((0.0, 0.0, grid.z), energy).alpha_minus,
    }
    _write_grid_outputs(p["out"], f"photodetach_{p['polarization']}", result, meta, t0)
    click.echo(f"wrote photodetach_{p['polarization']}.[csv,pgm,json] to {p['out']}")


@main.command("photodetach-spectrum")
@click.option("--config", type=click.Path(), default=None, help="JSON config file.")
@click.option("--field-vpm", type=float, default=116.0, show_default=True)
@click.option("--emin-uev", type=float, default=-30.0, show_default=True)
@click.option("--emax-uev", type=float, default=150.0, show_default=True)
@click.option("--n-points", type=int, default=601, show_default=True)
@click.option("--out", type=click.Path(), default=".", show_default=True)
@click.pass_context
@handle_errors
def photodetach_spectrum(ctx, config, **params):
    """Total p-wave photocurrent versus energy (staircase spectrum)."""
    t0 = time.perf_counter()
    p = _apply_config(ctx, config, params)
    phys = PhysicalContext(
        mass=ELECTRON_MASS, force=ELEMENTARY_CHARGE * float(p["field_vpm"])
    )
    energies = np.linspace(
        float(p["emin_uev"]) * _UEV, float(p["emax_uev"]) * _UEV, int(p["n_points"])
    )
    i10 = MultipoleIndex(1, 0)
    i11 = MultipoleIndex(1, 1)
    j10 = total_current_matrix(i10, i10, energies, phys)
    j11 = total_current_matrix(i11, i11, energies, phys)
    rows = np.column_stack(np.broadcast_arrays(energies / _UEV, j10, j11, 0.5 * (j10 + j11)))
    meta = {
        "scenario": "photodetach-spectrum",
        "inputs": {k: p[k] for k in sorted(p) if k != "out"},
        "beta_per_joule": phys.beta,
    }
    _write_spectrum_outputs(
        p["out"], "photodetach_spectrum",
        ["E_uev", "J_10_per_s", "J_1pm1_per_s", "J_avg_per_s"], rows, meta, t0,
    )
    click.echo(f"wrote photodetach_spectrum.[csv,json] to {p['out']}")


def _lattice_from(p) -> VortexLattice:
    if p["vortex_file"] is not None:
        try:
            rows = np.loadtxt(p["vortex_file"], delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read vortex file {p['vortex_file']}: {exc}")
        positions = tuple(complex(x, y) for x, y in rows)
    else:
        positions = triangular_vortex_positions(3, 10e-6)
    return VortexLattice(
        positions=positions,
        rot=2.0 * math.pi * float(p["rot_hz"]),
        width=float(p["width_um"]) * 1e-6,
        n_atoms=float(p["n_atoms"]),
        rabi=2.0 * math.pi * float(p["rabi_hz"]),
    )


_SOURCE_CHOICES = ["swave", "parallel", "m0", "perpendicular", "lattice"]


@main.command("atomlaser-profile")
@click.option("--config", type=click.Path(), default=None, help="JSON config file.")
@click.option("--source", type=click.Choice(_SOURCE_CHOICES), default="parallel", show_default=True)
@click.option("--detuning-khz", type=float, default=0.0, show_default=True)
@click.option("--z-m", type=float, default=1e-3, show_default=True)
@click.option("--window-m", type=float, default=30e-6, show_default=True)
@click.option("--grid-n", type=int, default=512, show_default=True)
@click.option("--width-um", type=float, default=2.0, show_default=True)
@click.option("--rabi-hz", type=float, default=100.0, show_default=True)
@click.option("--n-atoms", type=float, default=1e6, show_default=True)
@click.option("--rot-hz", type=float, default=250.0, show_default=True)
@click.option("--time-s", type=float, default=0.0, show_default=True)
@click.option("--vortex-file", type=click.Path(), default=None,
              help="CSV of x,y vortex positions (m); lattice source only.")
@click.option("--mode", type=click.Choice(["exact", "closed-form"]),
              default="exact", show_default=True,
              help="exact: the virtual-source beam (the lattice image for "
                   "--source lattice); closed-form: the asymptotic far-field "
                   "envelope, parallel and perpendicular sources only.")
@click.option("--out", type=click.Path(), default=".", show_default=True)
@click.pass_context
@handle_errors
def atomlaser_profile(ctx, config, **params):
    """Atom-laser beam density on a plane below the condensate."""
    t0 = time.perf_counter()
    p = _apply_config(ctx, config, params)
    source = p["source"]
    if p["mode"] == "closed-form" and source not in ("parallel", "perpendicular"):
        _fail(2, f"--mode closed-form supports --source parallel or perpendicular, got {source}")
    phys = rb87_context()
    energy = 2.0 * math.pi * HBAR * float(p["detuning_khz"]) * 1e3
    grid = DetectorGrid.centered(
        float(p["z_m"]), float(p["window_m"]), float(p["window_m"]),
        int(p["grid_n"]), int(p["grid_n"]),
    )
    width = float(p["width_um"]) * 1e-6
    rabi = 2.0 * math.pi * float(p["rabi_hz"])
    if source == "lattice":
        latt = _lattice_from(p)
        result = lattice_beam_grid(latt, grid, float(p["time_s"]), energy, phys)
    elif p["mode"] == "closed-form":
        src = GaussianSource(float(p["n_atoms"]), rabi, width, MultipoleIndex(1, 1))
        result = farfield_density(src, grid, energy, phys, source, "closed-form")
    else:
        idx = {
            "swave": MultipoleIndex(0, 0),
            "parallel": MultipoleIndex(1, 1),
            "m0": MultipoleIndex(1, 0),
            "perpendicular": MultipoleIndex(1, 1),
        }[source]
        src = GaussianSource(float(p["n_atoms"]), rabi, width, idx)
        orientation = "perpendicular" if source == "perpendicular" else None
        result = beam_density_grid(src, grid, energy, phys, orientation)
    meta = {
        "scenario": "atomlaser-profile",
        "inputs": {k: p[k] for k in sorted(p) if k != "out"},
        "beta_per_joule": phys.beta,
        "eps": phys.eps(energy),
        "alpha_minus_center": phys.qargs((0.0, 0.0, grid.z), energy).alpha_minus,
    }
    _write_grid_outputs(p["out"], f"atomlaser_{source}", result, meta, t0)
    click.echo(f"wrote atomlaser_{source}.[csv,pgm,json] to {p['out']}")


@main.command("atomlaser-spectrum")
@click.option("--config", type=click.Path(), default=None, help="JSON config file.")
@click.option("--source", type=click.Choice(_SOURCE_CHOICES), default="parallel", show_default=True)
@click.option("--dnu-min-khz", type=float, default=-10.0, show_default=True)
@click.option("--dnu-max-khz", type=float, default=10.0, show_default=True)
@click.option("--n-points", type=int, default=201, show_default=True)
@click.option("--width-um", type=float, default=2.0, show_default=True)
@click.option("--rabi-hz", type=float, default=100.0, show_default=True)
@click.option("--n-atoms", type=float, default=1e6, show_default=True)
@click.option("--rot-hz", type=float, default=250.0, show_default=True)
@click.option("--vortex-file", type=click.Path(), default=None,
              help="CSV of x,y vortex positions (m); lattice source only.")
@click.option("--out", type=click.Path(), default=".", show_default=True)
@click.pass_context
@handle_errors
def atomlaser_spectrum(ctx, config, **params):
    """Outcoupling rate versus rf detuning."""
    t0 = time.perf_counter()
    from .atomlaser import gaussian_multipole_current, perp_vortex_current, vortex_current_1m

    p = _apply_config(ctx, config, params)
    phys = rb87_context()
    detunings = np.linspace(
        float(p["dnu_min_khz"]) * 1e3, float(p["dnu_max_khz"]) * 1e3, int(p["n_points"])
    )
    source = p["source"]
    width = float(p["width_um"]) * 1e-6
    rabi = 2.0 * math.pi * float(p["rabi_hz"])
    n_atoms = float(p["n_atoms"])
    if source == "lattice":
        latt = _lattice_from(p)
        rows = lattice_spectrum(latt, detunings, phys)
    else:
        energies = 2.0 * math.pi * HBAR * detunings
        if source == "swave":
            j = gaussian_multipole_current(0, n_atoms, rabi, width, energies, phys)
        elif source == "perpendicular":
            j = perp_vortex_current(
                GaussianSource(n_atoms, rabi, width, MultipoleIndex(1, 1)),
                energies, phys,
            )
        else:
            m = 1 if source == "parallel" else 0
            j = vortex_current_1m(
                GaussianSource(n_atoms, rabi, width, MultipoleIndex(1, m)),
                energies, phys,
            )
        rows = np.column_stack((detunings, j))
    meta = {
        "scenario": "atomlaser-spectrum",
        "inputs": {k: p[k] for k in sorted(p) if k != "out"},
        "beta_per_joule": phys.beta,
    }
    _write_spectrum_outputs(
        p["out"], f"atomlaser_spectrum_{source}",
        ["detuning_hz", "J_per_s"], rows, meta, t0,
    )
    click.echo(f"wrote atomlaser_spectrum_{source}.[csv,json] to {p['out']}")


@main.command("eval")
@click.argument("function", type=click.Choice(["airy", "q", "qi", "tcoeff", "green-lm"]))
@click.option("--x", type=float, default=None, help="Argument for airy.")
@click.option("--k", type=int, default=None, help="Index for q / qi.")
@click.option("--rho", type=float, default=None)
@click.option("--zeta", type=float, default=None)
@click.option("--eps", type=float, default=None)
@click.option("--j", type=int, default=None, help="Index for tcoeff.")
@click.option("--l", type=int, default=None)
@click.option("--m", type=int, default=None)
@click.option("--x-m", type=float, default=None, help="Field point x (m) for green-lm.")
@click.option("--y-m", type=float, default=None)
@click.option("--z-m", type=float, default=None)
@click.option("--energy-uev", type=float, default=None)
@click.option("--field-vpm", type=float, default=116.0, show_default=True)
@handle_errors
def eval_function(function, x, k, rho, zeta, eps, j, l, m, x_m, y_m, z_m, energy_uev, field_vpm):
    """Evaluate a library function directly (scripting and debugging)."""

    def need(**kv):
        missing = [name for name, val in kv.items() if val is None]
        if missing:
            _fail(2, f"{function} requires --{', --'.join(missing)}")

    if function == "airy":
        need(x=x)
        v = airy(x)
        click.echo(f"airy x={_format(x)}")
        for name, val in [("ai", v.ai), ("aip", v.aip), ("bi", v.bi), ("bip", v.bip)]:
            click.echo(f"{name} = {_format(val)}")
    elif function == "q":
        need(k=k, rho=rho, zeta=zeta, eps=eps)
        val = q(k, QArgs(rho, zeta, eps))
        click.echo(f"q k={k} rho={_format(rho)} zeta={_format(zeta)} eps={_format(eps)}")
        click.echo(f"re = {_format(val.real)}")
        click.echo(f"im = {_format(val.imag)}")
    elif function == "qi":
        need(k=k, eps=eps)
        val = qi(k, eps)
        click.echo(f"qi k={k} eps={_format(eps)}")
        click.echo(f"value = {_format(val)}")
    elif function == "tcoeff":
        need(j=j, l=l, m=m)
        val = translation_coeff_t(j, l, m)
        click.echo(f"tcoeff j={j} l={l} m={m}")
        click.echo(f"value = {_format(val)}")
    else:  # green-lm
        need(l=l, m=m, x_m=x_m, y_m=y_m, z_m=z_m, energy_uev=energy_uev)
        phys = PhysicalContext(mass=ELECTRON_MASS, force=ELEMENTARY_CHARGE * field_vpm)
        val = green_lm(
            MultipoleIndex(l, m), (x_m, y_m, z_m), energy_uev * _UEV, phys
        )
        click.echo(
            f"green-lm l={l} m={m} r=({_format(x_m)},{_format(y_m)},{_format(z_m)}) "
            f"E_uev={_format(energy_uev)} field_vpm={_format(field_vpm)}"
        )
        click.echo(f"re = {_format(val.real)}")
        click.echo(f"im = {_format(val.imag)}")


if __name__ == "__main__":
    main()
