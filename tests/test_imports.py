"""The package and its CLI import without scipy."""

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
