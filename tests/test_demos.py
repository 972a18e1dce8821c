"""Every script in demos/ runs to completion and prints exactly its pinned stdout.

The demos are seeded, so each one's stdout is a fixed byte string; its
sha256 digest is pinned below.  A change that alters any printed digit of
any demo fails here.  `tests/test_readme.py` runs the README's library
example with this file's `run_demo`.
Re-record only in a change that deliberately moves a demo's output, and
say why in CHANGES.md:

    PYTHONPATH=src python tests/test_demos.py
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo file name -> sha256 of its stdout
STDOUT_SHA256 = {
    "channel_statistics.py":
        "b16c05033195ffb25d467a450463ab8dcc47a8b75e3ae0d61b5de15da3138402",
    "convergence_trace.py":
        "005a9aebfc0009a9618779b0020a2d70a2b8f0c2e6a1a4ec08aa414e3f9f9068",
    "fairness_comparison.py":
        "8c6150b3207d87e6d9c40ac365e9ce65bd376f8b479e5c52ba35b13c65c38c1b",
    "noise_sweep.py":
        "bdeb7814342aa2d80c86e4e7ff016636cf9a5f93e769e78d8a3effa8fe216e76",
    "oracle_gap.py":
        "7378841543aefec344e2805f2224d9b6b9242a93bb0de97ca33cee9a054e6946",
    "replicator_phase.py":
        "7a69658f784116a57879415ed2f08ebab63551cd4fb3b7b990dadfc57b122d60",
}


def run_demo(*argv) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          env=env, cwd=ROOT, timeout=120)


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [p.name for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script.name]


if __name__ == "__main__":
    for script in DEMOS:
        digest = hashlib.sha256(run_demo(script).stdout).hexdigest()
        print(f'    "{script.name}":\n        "{digest}",')
