"""Import set-up shared by the bench's scripts.

bitopt is always imported from the ``src/`` directory of the checkout that
holds this benchmark, never from an installed copy, so the numbers belong to
the tree being measured. Without those sources the bench stops with exit
code 2 before printing any result.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "bitopt", "__init__.py")):
    sys.stderr.write(f"error: no bitopt sources under {SRC}; run from the root of a checkout\n")
    raise SystemExit(2)
if SRC not in sys.path:
    sys.path.insert(0, SRC)
