"""Each demo's stdout, pinned by sha256 like the CLI's ``--json`` bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# recorded before the demos called str in place of linalg.format_rational
DEMO_STDOUT_SHA256 = {
    "character_battery.py": "7d003a9eee88c9414ff3cd299788e4a84845b513d402a5cb158be32fe84be982",
    "klein_cover_tour.py": "fb50a9121867d20b8534e45f0b50fc9f365bd684fb14c3d3b33935f047039307",
    "moving_a_class.py": "c85ede2a38ed6aa7498194b45f89ac56c21782ca7910e74bdd83ab7395c57712",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name, digest", DEMO_STDOUT_SHA256.items(), ids=DEMO_STDOUT_SHA256.keys())
def test_demo_stdout_pinned(name, digest):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
