"""The package and its CLI import without scipy, and an oracle call in a
process that never configured logging does not load it."""

import os
import subprocess
import sys
from pathlib import Path

import spikevar


def test_import_loads_no_scipy():
    src = Path(spikevar.__file__).resolve().parents[1]
    code = ("import sys, spikevar, spikevar.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out.strip() == "[]"


def test_oracle_call_loads_no_logging():
    src = Path(spikevar.__file__).resolve().parents[1]
    code = ("import sys, spikevar; "
            "spikevar.shoot_eigenvalue(spikevar.PotentialSpec(a1=1.0), 0, tol=1e-4); "
            "print('logging' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out.strip() == "False"
