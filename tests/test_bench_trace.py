"""The benchmark's traced pass runs and checks out on a small input.

That pass is the only benchmark code that calls `classify`, reads
`d.blocks` and `b.is_cycle`, and calls
`verify_strong_rainbow(..., geodetic_hint=True)` and
`cli.build_report(...).to_json_dict()`, so a change to any of them fails
here. Its trace file goes to the gitignored `.bench_out/`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_verify_run_is_correct():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", "verify",
         "--seed", "7", "--seconds", "0.05", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
