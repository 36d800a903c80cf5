"""The benchmark's self-check runs against this checkout.

The tracer in ``perfbench/`` wraps package functions by module and name
and reads their arguments by name, so a refactor that renames one
breaks the benchmark without breaking any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
