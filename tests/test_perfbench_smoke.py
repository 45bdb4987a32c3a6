"""The benchmark's own smoke test, run against this checkout's library.

`perfbench/smoke.py` imports `eqsim` from `src/`, runs every workload at
a tiny size and exits 1 when a metric, a count or an output check does
not hold, so a library change that breaks the benchmark fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
