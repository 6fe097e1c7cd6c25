"""The package and its CLI import without scipy, an oracle call in a
process that never configured logging does not load it, and every name a
module's __all__ lists exists."""

import importlib
import os
import pkgutil
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


def test_every_all_entry_resolves():
    for info in pkgutil.iter_modules(spikevar.__path__):
        module = importlib.import_module(f"spikevar.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"spikevar.{info.name}.__all__: {name}"
    for name in spikevar.__all__:
        assert hasattr(spikevar, name), f"spikevar.__all__: {name}"
