"""Every library name the benchmark's tracer wraps still exists.

`perfbench/tracing.py` wraps layer entry points by name.  When one is
missing it prints a `not found` line and goes on without that span, so a
library change that renamed or deleted a traced name would silently zero a
benchmark metric.  The recorder is installed in a fresh interpreter, so its
wrappers never reach this test session.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_tracer_finds_every_name_it_wraps():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import tracing; tracing.Recorder().install()")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    missing = [line for line in run.stderr.splitlines() if "not found" in line]
    assert missing == []
