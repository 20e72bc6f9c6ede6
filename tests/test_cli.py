"""Command-line interface: outputs, config overlay and exit codes."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from ballisticwaves.airyq import QArgs, q, qi
from ballisticwaves.atomlaser import (
    GaussianSource,
    VortexLattice,
    lattice_spectrum,
    rb87_context,
    vortex_current_1m,
)
from ballisticwaves.ballistic import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    HBAR,
    DetectorGrid,
    PhysicalContext,
    photodetachment_profile,
    total_current_matrix,
)
from ballisticwaves.cli import _csv_rows, _format, main
from ballisticwaves.harmonics import MultipoleIndex, translation_coeff_t
from ballisticwaves.specfun import airy


def _run(args, **kw):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kw)


def _parse_values(output):
    out = {}
    for line in output.splitlines():
        if " = " in line:
            key, val = line.split(" = ")
            out[key.strip()] = float(val)
    return out


def _old_rows(values):
    """The per-value writer the CLI used before its array kernel."""
    return "".join(",".join(f"{v:.16e}" for v in row) + "\n" for row in values).encode()


# ---------------------------------------------------------------- CSV kernel


def _exact_ties(rng):
    # M / 2^j with M odd and M 5^j of 18 digits: the exact decimal ends in a
    # 5 right after the 17th digit, so "%.16e" rounds half to even.
    ties = [402406056145.171875]
    for j in range(2, 25):
        lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        for m in rng.integers(lo, hi, size=8):
            m = int(m) | 1
            if m < hi:
                ties.append(m / 2**j)
    return np.array(ties)


def test_csv_numbers_match_printf_on_random_bit_patterns():
    rng = np.random.default_rng(20260)
    bits = rng.integers(0, 2**64, size=1_002_000, dtype=np.uint64)
    vals = bits.view(np.float64)
    vals = vals[np.isfinite(vals)][: 1000 * 1000].reshape(1000, 1000)
    assert b"".join(_csv_rows(vals)) == _old_rows(vals)


def test_csv_numbers_match_printf_on_specials():
    specials = [
        0.0, 5e-324, 2.5e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, 1e23, 9.999999999999999e22, 1e-280, 1e280,
        0.1, 0.5, 1.0, 9.5, 99999999999999999.0, 123456789012345678.0,
    ]
    specials += [10.0**k for k in range(-307, 309)]
    specials += list(np.nextafter(np.array([10.0**k for k in range(-300, 301, 7)]), 0.0))
    vals = np.array(specials)
    vals = np.concatenate([vals, -vals]).reshape(2, -1)
    assert b"".join(_csv_rows(vals)) == _old_rows(vals)
    assert _format(-0.0) == "-0.0000000000000000e+00"
    assert _format(5e-324) == "4.9406564584124654e-324"


def test_csv_numbers_round_exact_ties_to_even():
    ties = _exact_ties(np.random.default_rng(7))
    vals = np.concatenate([ties, -ties]).reshape(2, -1)
    assert b"".join(_csv_rows(vals)) == _old_rows(vals)
    assert _format(402406056145.171875) == "4.0240605614517188e+11"


# ------------------------------------------------------------------- eval


def test_eval_airy():
    res = _run(["eval", "airy", "--x", "-1.5"])
    assert res.exit_code == 0
    vals = _parse_values(res.output)
    v = airy(-1.5)
    assert vals["ai"] == v.ai
    assert vals["aip"] == v.aip
    assert vals["bi"] == v.bi
    assert vals["bip"] == v.bip


def test_eval_q_and_qi():
    res = _run(["eval", "q", "--k", "2", "--rho", "0.8", "--zeta", "0.3", "--eps", "-1.0"])
    assert res.exit_code == 0
    vals = _parse_values(res.output)
    want = q(2, QArgs(0.8, 0.3, -1.0))
    assert vals["re"] == want.real
    assert vals["im"] == want.imag
    res = _run(["eval", "qi", "--k", "3", "--eps", "2.0"])
    assert res.exit_code == 0
    assert _parse_values(res.output)["value"] == qi(3, 2.0)


def test_eval_tcoeff_and_green_lm():
    res = _run(["eval", "tcoeff", "--j", "1", "--l", "2", "--m", "1"])
    assert res.exit_code == 0
    assert _parse_values(res.output)["value"] == translation_coeff_t(1, 2, 1)
    res = _run(
        ["eval", "green-lm", "--l", "1", "--m", "0", "--x-m", "1e-7",
         "--y-m", "0", "--z-m", "2e-7", "--energy-uev", "60.8"]
    )
    assert res.exit_code == 0
    vals = _parse_values(res.output)
    from ballisticwaves.ballistic import green_lm

    phys = PhysicalContext(ELECTRON_MASS, 116.0 * ELEMENTARY_CHARGE)
    want = green_lm(
        MultipoleIndex(1, 0), (1e-7, 0.0, 2e-7), 60.8e-6 * ELEMENTARY_CHARGE, phys
    )
    assert vals["re"] == want.real
    assert vals["im"] == want.imag


def test_eval_missing_options_exit_2():
    res = _run(["eval", "airy"])
    assert res.exit_code == 2
    res = _run(["eval", "q", "--k", "1"])
    assert res.exit_code == 2


def test_eval_domain_error_exit_2():
    res = _run(["eval", "airy", "--x", "500"])
    assert res.exit_code == 2


def test_eval_singularity_exit_4():
    res = _run(["eval", "q", "--k", "1", "--rho", "0", "--zeta", "0", "--eps", "0"])
    assert res.exit_code == 4


# ------------------------------------------------------- photodetach-profile


def _profile_args(tmp_path, extra=()):
    return [
        "photodetach-profile", "--grid-n", "32", "--out", str(tmp_path), *extra,
    ]


def _assert_timings(meta):
    assert set(meta["timings"]) == {"compute_s", "write_s"}
    for value in meta["timings"].values():
        assert isinstance(value, float) and value >= 0.0


def test_photodetach_profile_outputs(tmp_path):
    res = _run(_profile_args(tmp_path))
    assert res.exit_code == 0
    for ext in ("csv", "pgm", "json"):
        assert (tmp_path / f"photodetach_pi.{ext}").exists()
    # PGM header and payload size.
    blob = (tmp_path / "photodetach_pi.pgm").read_bytes()
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"32 32"
    maxval, payload = rest.split(b"\n", 1)
    assert maxval == b"65535"
    assert len(payload) == 32 * 32 * 2
    img = np.frombuffer(payload, dtype=">u2").reshape(32, 32)
    assert img.max() == 65535
    # Metadata round trip.
    meta = json.loads((tmp_path / "photodetach_pi.json").read_text())
    assert meta["scenario"] == "photodetach-profile"
    assert meta["inputs"]["polarization"] == "pi"
    assert meta["inputs"]["grid_n"] == 32
    assert "out" not in meta["inputs"]
    assert meta["image_max_value"] > 0.0
    assert set(meta["files"]) == {"photodetach_pi.csv", "photodetach_pi.pgm"}
    _assert_timings(meta)
    # CSV layout: two comment lines then 32 rows of 32 values.
    lines = (tmp_path / "photodetach_pi.csv").read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(data) == 32
    assert len(data[0].split(",")) == 32


def test_photodetach_profile_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        res = _run(_profile_args(d))
        assert res.exit_code == 0
    assert (d1 / "photodetach_pi.csv").read_bytes() == (
        d2 / "photodetach_pi.csv"
    ).read_bytes()
    assert (d1 / "photodetach_pi.pgm").read_bytes() == (
        d2 / "photodetach_pi.pgm"
    ).read_bytes()


@pytest.mark.parametrize("mode", ["far-field", "exact"])
def test_photodetach_profile_csv_is_byte_identical_to_per_value_writer(tmp_path, mode):
    res = _run(_profile_args(tmp_path, ("--mode", mode)))
    assert res.exit_code == 0
    phys = PhysicalContext(ELECTRON_MASS, ELEMENTARY_CHARGE * 116.0)
    grid = DetectorGrid.centered(0.514, 1.2e-3, 1.2e-3, 32, 32)
    energy = 60.8 * (1e-6 * ELEMENTARY_CHARGE)
    values = photodetachment_profile("pi", grid, energy, phys, mode=mode).values
    want = (
        b"# row i: y = y[i]; column j: x = x[j]; value = per-pixel density\n"
        + b"# x: " + _old_rows([grid.x]) + b"# y: " + _old_rows([grid.y]) + _old_rows(values)
    )
    assert (tmp_path / "photodetach_pi.csv").read_bytes() == want


def test_photodetach_profile_regime_exit_3(tmp_path):
    res = _run(_profile_args(tmp_path, ("--z-m", "1e-8", "--window-m", "1e-9")))
    assert res.exit_code == 3


def test_config_overlay(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid-n": 16, "polarization": "sigma"}))
    res = _run(["photodetach-profile", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 0
    meta = json.loads((tmp_path / "photodetach_sigma.json").read_text())
    assert meta["inputs"]["grid_n"] == 16
    # Explicit CLI flags beat config values.
    res = _run(
        ["photodetach-profile", "--config", str(cfg), "--polarization", "circular",
         "--grid-n", "8", "--out", str(tmp_path)]
    )
    assert res.exit_code == 0
    meta = json.loads((tmp_path / "photodetach_circular.json").read_text())
    assert meta["inputs"]["grid_n"] == 8


def test_config_unknown_key_exit_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"grdi-n": 16}))
    res = _run(["photodetach-profile", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 2
    cfg.write_text("not json")
    res = _run(["photodetach-profile", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "entries",
    [{"mode": "bogus", "grid-n": 8}, {"source": "bogus", "grid-n": 8}, {"grid-n": "many"},
     {"grid-n": None}, {"z-m": [1e-3, 2e-3], "grid-n": 8}],
)
def test_config_values_are_checked_like_options(tmp_path, entries):
    # A config value passes the option's type and choices, as on the command line.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entries))
    out = tmp_path / "out"
    out.mkdir()
    res = _run(["atomlaser-profile", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert list(out.iterdir()) == []


# ------------------------------------------------------ photodetach-spectrum


def test_photodetach_spectrum_columns(tmp_path):
    res = _run(
        ["photodetach-spectrum", "--emin-uev", "-10", "--emax-uev", "50",
         "--n-points", "7", "--out", str(tmp_path)]
    )
    assert res.exit_code == 0
    lines = (tmp_path / "photodetach_spectrum.csv").read_text().splitlines()
    assert lines[0] == "E_uev,J_10_per_s,J_1pm1_per_s,J_avg_per_s"
    assert len(lines) == 8
    phys = PhysicalContext(ELECTRON_MASS, 116.0 * ELEMENTARY_CHARGE)
    uev = 1e-6 * ELEMENTARY_CHARGE
    for line in lines[1:]:
        e_uev, j10, j11, javg = (float(v) for v in line.split(","))
        i10, i11 = MultipoleIndex(1, 0), MultipoleIndex(1, 1)
        assert j10 == pytest.approx(
            total_current_matrix(i10, i10, e_uev * uev, phys), rel=1e-12
        )
        assert j11 == pytest.approx(
            total_current_matrix(i11, i11, e_uev * uev, phys), rel=1e-12
        )
        assert javg == pytest.approx(0.5 * (j10 + j11), rel=1e-12)
    meta = json.loads((tmp_path / "photodetach_spectrum.json").read_text())
    assert meta["files"] == ["photodetach_spectrum.csv"]
    _assert_timings(meta)


def test_photodetach_spectrum_csv_is_byte_identical_to_per_value_writer(tmp_path):
    res = _run(["photodetach-spectrum", "--n-points", "41", "--out", str(tmp_path)])
    assert res.exit_code == 0
    phys = PhysicalContext(ELECTRON_MASS, ELEMENTARY_CHARGE * 116.0)
    uev = 1e-6 * ELEMENTARY_CHARGE
    i10, i11 = MultipoleIndex(1, 0), MultipoleIndex(1, 1)
    # The command makes one array call per index, as here; the array calls
    # match per-energy calls to 1e-12 (test_ballistic's spectrum tests).
    energies = np.linspace(-30.0 * uev, 150.0 * uev, 41)
    j10 = total_current_matrix(i10, i10, energies, phys)
    j11 = total_current_matrix(i11, i11, energies, phys)
    rows = zip(energies / uev, j10, j11, 0.5 * (j10 + j11))
    want = b"E_uev,J_10_per_s,J_1pm1_per_s,J_avg_per_s\n" + _old_rows(rows)
    assert (tmp_path / "photodetach_spectrum.csv").read_bytes() == want


def test_spectrum_non_finite_value_exit_4(tmp_path, monkeypatch):
    import ballisticwaves.cli as cli

    monkeypatch.setattr(cli, "total_current_matrix", lambda *args: math.nan)
    res = _run(["photodetach-spectrum", "--n-points", "3", "--out", str(tmp_path)])
    assert res.exit_code == 4
    assert "non-finite" in res.output
    assert not (tmp_path / "photodetach_spectrum.csv").exists()


# ------------------------------------------------------------- atom laser


def test_atomlaser_profile_swave(tmp_path):
    res = _run(
        ["atomlaser-profile", "--source", "swave", "--grid-n", "16",
         "--out", str(tmp_path)]
    )
    assert res.exit_code == 0
    for ext in ("csv", "pgm", "json"):
        assert (tmp_path / f"atomlaser_swave.{ext}").exists()
    meta = json.loads((tmp_path / "atomlaser_swave.json").read_text())
    assert meta["inputs"]["source"] == "swave"
    assert meta["image_max_value"] > 0.0



@pytest.mark.parametrize("source", ["swave", "m0", "lattice"])
def test_atomlaser_profile_closed_form_unsupported_source_exit_2(tmp_path, source):
    # closed-form covers only the parallel and perpendicular vortex; other
    # sources must not write an image labelled "closed-form".
    res = _run(
        ["atomlaser-profile", "--source", source, "--mode", "closed-form",
         "--grid-n", "8", "--out", str(tmp_path)]
    )
    assert res.exit_code == 2
    assert "parallel" in res.output and "perpendicular" in res.output
    assert not list(tmp_path.iterdir())

def test_atomlaser_spectrum_matches_library(tmp_path):
    res = _run(
        ["atomlaser-spectrum", "--source", "parallel", "--dnu-min-khz", "-2",
         "--dnu-max-khz", "2", "--n-points", "5", "--out", str(tmp_path)]
    )
    assert res.exit_code == 0
    lines = (tmp_path / "atomlaser_spectrum_parallel.csv").read_text().splitlines()
    assert lines[0] == "detuning_hz,J_per_s"
    ctx = rb87_context()
    src = GaussianSource(1e6, 2.0 * math.pi * 100.0, 2e-6, MultipoleIndex(1, 1))
    for line in lines[1:]:
        dnu, jval = (float(v) for v in line.split(","))
        want = vortex_current_1m(src, 2.0 * math.pi * HBAR * dnu, ctx)
        assert jval == pytest.approx(want, rel=1e-12)


def test_atomlaser_lattice_vortex_file(tmp_path):
    vf = tmp_path / "vortices.csv"
    pos = [(0.0, 0.0), (8e-6, 0.0), (-4e-6, 6e-6)]
    vf.write_text("\n".join(f"{x:.6e},{y:.6e}" for x, y in pos) + "\n")
    res = _run(
        ["atomlaser-spectrum", "--source", "lattice", "--vortex-file", str(vf),
         "--dnu-min-khz", "0", "--dnu-max-khz", "4", "--n-points", "3",
         "--width-um", "5", "--out", str(tmp_path)]
    )
    assert res.exit_code == 0
    lines = (tmp_path / "atomlaser_spectrum_lattice.csv").read_text().splitlines()
    ctx = rb87_context()
    latt = VortexLattice(
        tuple(complex(x, y) for x, y in pos),
        2.0 * math.pi * 250.0, 5.0 * 1e-6, 1e6, 2.0 * math.pi * 100.0,
    )
    want = dict(lattice_spectrum(latt, [0.0, 2000.0, 4000.0], ctx))
    for line in lines[1:]:
        dnu, jval = (float(v) for v in line.split(","))
        assert jval == pytest.approx(want[dnu], rel=1e-12)
    # Unreadable vortex file is a config error.
    res = _run(
        ["atomlaser-spectrum", "--source", "lattice",
         "--vortex-file", str(tmp_path / "missing.csv"), "--out", str(tmp_path)]
    )
    assert res.exit_code == 2
