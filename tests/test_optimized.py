"""The algebra, equivariance, line-field, covering, surface, presentation,
command-line, acceptance and diagnostics suites also pass under
``python -O``.

``-O`` strips ``assert`` statements from the library, so a verdict or a
guard that rests on one would vanish there; the suites' own assertions
are rewritten by pytest and still run.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_algebra_and_equivariant_suites_pass_without_asserts():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "tests/test_algebra.py", "tests/test_equivariant.py",
            "tests/test_linefield.py", "tests/test_covering.py",
            "tests/test_surface.py", "tests/test_presentations.py",
            "tests/test_cli.py", "tests/test_acceptance.py", "tests/test_diagnostics.py",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout
