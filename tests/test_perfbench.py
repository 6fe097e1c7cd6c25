"""The benchmark harness still binds to the package.

`perfbench/selftest.py` wraps the bindings the traced run depends on (for
example `spikevar.oracle._sweep` and its length-`steps` third argument) and
runs every workload on tiny inputs, so a renamed or re-signatured binding
fails here rather than in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_harness_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
