"""Run with ``python -m pytest perfbench/tests`` from the repository root.

These tests stay out of tier-1 (``testpaths`` is ``tests``): they exercise
the benchmark, not the program.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
from perfbench.cli import REPRO_SWITCHES  # noqa: E402  (needs the path above)

for switch in REPRO_SWITCHES:
    os.environ.pop(switch, None)
