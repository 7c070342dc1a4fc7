"""The benchmark's tracer finds every name it wraps.

`perfbench/tracer.py` wraps mtlab functions at the names their callers look
them up by. A renamed or deleted function, or one imported by a caller
under a stale binding, makes `install` fail; this test runs it in a fresh
process, since it patches the modules it touches.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_name_it_patches():
    code = "import tracer; tracer.install(tracer.Tracer())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
