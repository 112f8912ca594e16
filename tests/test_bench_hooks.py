"""The benchmark under perfbench/ wraps chids functions by name and reads
the kernel backend into its metadata. This runs those hooks in a fresh
interpreter, so renaming or deleting a name they use fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HOOKS = """
import tracer, run
import chids.kernels
tracer.instrument(tracer.Recorder())
print(chids.kernels.backend_name())
"""


def test_benchmark_hooks_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", HOOKS], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "pure-python"
