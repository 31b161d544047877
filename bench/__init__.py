"""Campaign benchmark: end-to-end cost and a per-layer profile ledger.

Run ``python -m bench --seed N`` from the repository root; see
``bench/README.md``.  The harness drives the program only through the
stable ``repro.api`` surface and imports it from this checkout's
``src/`` directory, never from an installed copy.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
