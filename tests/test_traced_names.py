"""The benchmark's traced run wraps bitopt functions by module and name
(``SPANS`` and ``COUNTS`` in ``perfbench/tracing.py``) and stops when a name
is gone. This installs and removes those wrappers once, so a renamed or
moved function fails here, not only in the slow benchmark suite."""

import importlib
import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def test_every_traced_name_resolves():
    sys.path.insert(0, PERFBENCH)
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises AttributeError naming a missing function
    finally:
        tracer.uninstall()
