"""The benchmark under perfbench/ wraps chids functions by name and reads
the kernel backend into its metadata, and its stream child wraps
`StreamEngine.process` and samples `state_size()`. This runs those hooks in
a fresh interpreter, so renaming or deleting a name they use fails here."""

import json
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

STREAM_HOOKS = """
import sys
import stream
events, result = sys.argv[1:3]
stream.generate(100, 3.0, 1, events)
sys.exit(stream.replay(events, result, trace=True))
"""


def run_hooks(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_benchmark_hooks_resolve():
    assert run_hooks(HOOKS).strip() == "pure-python"


def test_stream_child_traces_every_event(tmp_path):
    events, result = tmp_path / "d100.tsv", tmp_path / "d100.json"
    run_hooks(STREAM_HOOKS, str(events), str(result))
    res = json.loads(result.read_text())
    assert res["events"] > 0 and res["failed"] == 0
    assert res["trace"]["calls"]["anomaly.process"] == res["events"]
    assert res["peak_state"] > 0
