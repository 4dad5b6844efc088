"""The benchmark's tracer pins hold: every wrapped name resolves and the
exact span counts of ridgebench/selftest.py still match what the cli does."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELFTEST = ROOT / "ridgebench" / "selftest.py"


@pytest.mark.skipif(not SELFTEST.exists(), reason="checkout has no ridgebench/")
def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
