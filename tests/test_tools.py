"""Smoke test for tools/fingerprint.py, the byte-identity check that a
refactor of the solvers compares across two checkouts."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# two sha256 digests (iterates, work), the label, the prox-call total, a tail
LINE = re.compile(r"([0-9a-f]{64}) ([0-9a-f]{64})  (.+?)  prox (\d+)(.*)")


def _fingerprint(*filters):
    script = os.path.join(ROOT, "tools", "fingerprint.py")
    done = subprocess.run([sys.executable, script, ROOT, *filters], capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


def test_fingerprint_lines_are_well_formed_and_repeat():
    """Two filters keep two lines, in the tool's order. No hash is pinned:
    the hashes depend on the BLAS build; a rerun must print the same."""
    first = _fingerprint("export BK1", "kind Zero")
    matches = [LINE.fullmatch(line) for line in first.splitlines()]
    assert all(matches), first
    assert [match[3] for match in matches] == ["kind Zero", "export BK1"]
    assert [match[5] for match in matches] == ["  capped 0", ""]
    assert all(int(match[4]) > 0 for match in matches)
    assert _fingerprint("export BK1", "kind Zero") == first
