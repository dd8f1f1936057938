"""The serve-path benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python -m benchmarks.e2e --help`` (see README.md in this directory).
"""

import importlib.util
import sys
from pathlib import Path

# The benchmark measures the working tree it sits in: when ``repro`` is not
# already importable (no PYTHONPATH=src, no install), use ``<repo>/src``.
_SRC = Path(__file__).resolve().parents[2] / "src"
if importlib.util.find_spec("repro") is None and _SRC.is_dir():
    sys.path.insert(0, str(_SRC))
