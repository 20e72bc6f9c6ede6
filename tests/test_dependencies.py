"""Runtime dependencies: importing and first use pull in neither sympy, mpmath nor
scipy, and importing the package leaves the CLI and fractions unloaded."""

import os
import subprocess
import sys
from pathlib import Path

import ballisticwaves

# The first calls into the scalar Q, grid Q and Qi paths, as a fresh
# interpreter makes them.
FIRST_CALLS = """
import sys

import numpy as np

import ballisticwaves
from ballisticwaves import airyq

airyq.q(2, airyq.QArgs(1.0, 0.5, -1.0))
airyq.q_table_scaled_grid(1, np.array([1.0]), np.array([0.5]), -1.0)
for k in (0, -1, -2):
    airyq.qi(k, -1.0)
"""

# Prints whether sympy got imported along the first calls.
FIRST_USE = FIRST_CALLS + 'print("sympy" in sys.modules)\n'


# The first calls, the large-|x| scalar Airy paths, the far-field forms at one
# detector point, 16^2 far-field (pi, tilt45) and exact detector images, a
# current density and a free partial wave at one point, and the atom-laser
# beams of the virtual point source (16^2 parallel and perpendicular images, a
# perpendicular beam at one point); prints whether scipy got imported along
# the way.  Of the point evaluators only freespace.extended_source_strength
# (scipy's Simpson rule and spherical_jn) still imports scipy.
FIRST_USE_WITHOUT_SCIPY = FIRST_CALLS + """
from ballisticwaves import specfun
from ballisticwaves.ballistic import (
    ELECTRON_MASS, ELEMENTARY_CHARGE, DetectorGrid, PhysicalContext, SourceSuperposition,
    current_density, current_density_z_far, green_lm_far, photodetachment_profile,
)
from ballisticwaves.freespace import green_free_lm
from ballisticwaves.harmonics import MultipoleIndex

specfun.airy_scaled(2e4)
specfun.airy_unrestricted(-40.0)
ctx = PhysicalContext(mass=ELECTRON_MASS, force=ELEMENTARY_CHARGE * 116.0)
energy = 60.8e-6 * ELEMENTARY_CHARGE
point, p10, p11 = (2e-4, -1e-4, 0.514), MultipoleIndex(1, 0), MultipoleIndex(1, 1)
green_lm_far(p11, point, energy, ctx)
current_density_z_far(p10, p11, point, energy, ctx)
grid = DetectorGrid.centered(0.514, 1.2e-3, 1.2e-3, 16, 16)
photodetachment_profile("pi", grid, energy, ctx)
photodetachment_profile("tilt45", grid, energy, ctx)
photodetachment_profile("pi", grid, energy, ctx, mode="exact")
near = (2e-8, -1e-8, 3e-8)
current_density(SourceSuperposition({p10: 1.0, p11: 0.5j}, energy), near, ctx)
for l in (0, 2, 12):
    green_free_lm(MultipoleIndex(l, 1 if l else 0), near, energy, ELECTRON_MASS)

from ballisticwaves import atomlaser

actx = atomlaser.rb87_context()
beam = atomlaser.GaussianSource(1e6, 628.0, 2e-6, MultipoleIndex(1, 1))
beam_grid = DetectorGrid.centered(1e-3, 30e-6, 30e-6, 16, 16)
for orientation in (None, "perpendicular"):
    atomlaser.beam_density_grid(beam, beam_grid, 1e-30, actx, orientation)
atomlaser.beam_psi_perp(beam, (3e-6, -2e-6, 1e-3), 1e-30, actx)
print("scipy" in sys.modules)
"""


# Qi at eps > 0 on the orders that used to need extended precision, and
# half-integer Qi above EPS0; prints whether mpmath got imported.
QI_POSITIVE_EPS = """
import sys

from ballisticwaves import airyq

airyq.qi(10, 4.0)
airyq.qi(38, 1.9e4)
airyq.qi_half(1.5, 3.0)
print("mpmath" in sys.modules)
"""


# scipy.integrate (with scipy.optimize) serves only extended_source_strength.
IMPORT_ONLY = """
import sys

import ballisticwaves

print("scipy.integrate" in sys.modules)
"""


# The CLI and its CSV number tables load only with the command line.
IMPORT_LEAVES_CLI = """
import sys

import ballisticwaves

print("ballisticwaves.cli" in sys.modules, "fractions" in sys.modules)
"""


def _run_fresh(code: str) -> str:
    src = str(Path(ballisticwaves.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_first_use_does_not_import_sympy():
    assert _run_fresh(FIRST_USE) == "False"


def test_first_use_does_not_import_scipy():
    assert _run_fresh(FIRST_USE_WITHOUT_SCIPY) == "False"


def test_qi_at_positive_eps_does_not_import_mpmath():
    assert _run_fresh(QI_POSITIVE_EPS) == "False"


def test_import_does_not_load_scipy_integrate():
    assert _run_fresh(IMPORT_ONLY) == "False"


def test_import_does_not_load_the_cli():
    assert _run_fresh(IMPORT_LEAVES_CLI) == "False False"
