"""Runtime dependencies: importing and first use pull in no symbolic algebra."""

import os
import subprocess
import sys
from pathlib import Path

import ballisticwaves

# The first calls into the scalar Q, grid Q and Qi paths, as a fresh
# interpreter makes them; prints whether sympy got imported along the way.
FIRST_USE = """
import sys

import numpy as np

import ballisticwaves
from ballisticwaves import airyq

airyq.q(2, airyq.QArgs(1.0, 0.5, -1.0))
airyq.q_table_scaled_grid(1, np.array([1.0]), np.array([0.5]), -1.0)
for k in (0, -1, -2):
    airyq.qi(k, -1.0)
print("sympy" in sys.modules)
"""


def test_first_use_does_not_import_sympy():
    src = str(Path(ballisticwaves.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_USE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
