"""The benchmark's span tracer still finds the pottsim names it patches.

`perfbench/tracing.py` replaces names in pottsim's modules and reports a name
it cannot find on stderr, after which that name's metrics read 0.  Only the
three names below, which the tracer still lists but pottsim no longer has,
may be missing; any other missing name means a rename zeroed its metrics.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GONE = {"pottsim.solver.solve_once", "pottsim.solver.integrate",
        "pottsim.solver.detect_convergence"}
PATCHED = {"pottsim.dynamics.Checkpoint", "pottsim.dynamics.PhaseState",
           "pottsim.dynamics._rhs_core", "pottsim.solver._run_task",
           "pottsim.solver._detune_task"}

INSTALL = """
import sys
sys.path.insert(0, "perfbench")
import tracing
tracer = tracing.Tracer(sys.argv[1])
tracing.install(tracer)
for owner, attr, _ in tracer.installed:
    print(f"{owner.__name__}.{attr}")
"""


def test_tracer_finds_what_it_patches(tmp_path):
    proc = subprocess.run([sys.executable, "-c", INSTALL, str(tmp_path)], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, check=True)
    missing = set(re.findall(r"^trace: (\S+) not found", proc.stderr, re.M))
    assert missing <= GONE, f"the tracer no longer finds {sorted(missing - GONE)}"
    assert PATCHED <= set(proc.stdout.split())
