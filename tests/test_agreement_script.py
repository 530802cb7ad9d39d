"""A short run of ``scripts/agreement_experiment.py``: every phase (engine,
textual order, DISTINCT, reopened store, term-by-term parse) must agree with
the reference evaluator. The reopened-store phase reads matrix files and
fails unless it made one-row, one-column, wider masked S-O and O-S reads
and whole decodes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_agreement_script_exits_zero():
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "agreement_experiment.py"), "60", "1000"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
