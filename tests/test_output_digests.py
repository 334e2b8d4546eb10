"""Byte identity of every output: ``scripts/output_digests.py`` must print
the listing committed in ``tests/data/output_digests.txt``.

The listing belongs to the numpy build its header names: numpy's SIMD
loops for sin, exp, log and power may round differently on another
version or CPU, so elsewhere the test skips and says what differs. A
change that moves an output byte regenerates the listing (keep the
header, replace the rest with the script's output) and declares the
moved lines.
"""

import difflib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parent.parent
LISTING = ROOT / "tests" / "data" / "output_digests.txt"


def _build() -> dict:
    """The header fields the running numpy gives, as in the listing."""
    return {"numpy": np.__version__,
            "simd found": " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f])}


def test_outputs_match_the_committed_digests():
    header, want = {}, []
    for line in LISTING.read_text().splitlines():
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            header[key] = value
        elif not line.startswith("#"):
            want.append(line)
    build = _build()
    differ = [f"{k} {header.get(k)!r} in the listing, {v!r} here"
              for k, v in build.items() if header.get(k) != v]
    if differ:
        pytest.skip("the listing is of another numpy build: " + "; ".join(differ))
    got = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_digests.py")],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    moved = list(difflib.unified_diff(want, got, "committed", "now", lineterm="", n=0))
    assert not moved, "outputs moved:\n" + "\n".join(moved)
