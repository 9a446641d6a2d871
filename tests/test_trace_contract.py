"""The benchmark's layer trace still sees the dense kernels.

``perfbench/spans.py`` times the ``backend.wht`` and ``backend.gemm`` spans
by wrapping ``ArrayBackend.wht_gemm``, ``ArrayBackend.real_gemm`` and
``NumpyBackend.matmul``.  A renamed kernel, or a kernel call that bypasses
``repro.backend.kernels``, would leave those spans empty without failing a
solve; this test runs two traced solves in a fresh interpreter (the wrappers
patch classes process-wide) and checks that both spans fire.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json
from collections import Counter

import spans
from repro import solve

rec = spans.Recorder()
spans.install(rec)
rec.enabled = True
counts = {}
for label, kwargs in (
    ("dense_x", dict(problem="maxcut", n=8, mixer="x", strategy="random", p=2, seed=1)),
    ("clique", dict(problem="densest_subgraph", n=6, problem_params={"k": 3},
                    mixer="clique", strategy="random", p=2, seed=1)),
):
    first = len(rec.spans)
    solve(**kwargs)
    counts[label] = Counter(span[0] for span in rec.spans[first:])
print(json.dumps(counts))
"""


def test_traced_solves_record_wht_and_gemm_spans():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "perfbench"), str(_ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        check=True, capture_output=True, text=True, env=env, timeout=300,
    )
    counts = json.loads(out.stdout.strip().splitlines()[-1])
    assert counts["dense_x"].get("backend.wht", 0) > 0, counts
    assert counts["dense_x"].get("backend.gemm", 0) > 0, counts
    assert counts["clique"].get("backend.gemm", 0) > 0, counts
