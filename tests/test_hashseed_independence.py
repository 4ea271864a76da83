"""Results must not depend on the interpreter's string hash seed.

The contact core iterates sets of URIs (contested metadata, differing
piece holdings) whose iteration order follows ``PYTHONHASHSEED``. Every
such loop must go through a canonical order, so the same run under two
hash seeds yields the same result. This runs DieselNet and NUS at
``fast`` scale (seed 3) in two fresh interpreters and compares the full
results, apart from the counter recording the seed itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

PROBE = """
import json
from repro.exec import TraceSpec, build_trace
from repro.experiments.workloads import (
    dieselnet_base_config, dieselnet_trace, nus_base_config, nus_trace,
)
from repro.sim.runner import Simulation

out = {}
for name, make_trace, make_config in (
    ("dieselnet", dieselnet_trace, dieselnet_base_config),
    ("nus", nus_trace, nus_base_config),
):
    trace = build_trace(TraceSpec.of(make_trace, "fast", 3))
    result = Simulation(trace, make_config(3)).run().to_dict()
    result["extra"].pop("detcheck.pythonhashseed")
    out[name] = result
print(json.dumps(out, sort_keys=True, default=repr))
"""


def _run(hash_seed: str) -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_DETCHECK", "REPRO_TRACE_CACHE", "REPRO_BENCH_JOBS")
    }
    env.update(PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def test_results_equal_under_two_hash_seeds():
    first = _run("0")
    second = _run("1")
    assert set(first) == {"dieselnet", "nus"}
    for name in first:
        assert first[name]["extra"]["contacts_processed"] > 0
        assert first[name] == second[name], name
