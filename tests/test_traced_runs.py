"""perfbench's traced runs end to end, as a subprocess: the per-layer
metrics divide spans' times by their work counts, so a probe path that
stops feeding one of those counts shows up here as a failed run."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["build-persist", "skewed-query"])
def test_traced_run_has_no_failure_and_finite_per_layer_metrics(tmp_path, workload):
    # run a copy of the sources, so that the run's records land under tmp_path
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0 and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = result["metrics"]
    assert {m["name"] for m in declared} <= metrics.keys()
    assert {name for name, m in metrics.items() if not math.isfinite(m["value"])} == set()
    # the reduce encodes and decodes with the traced codec
    assert metrics["sketch.to_bytes_s"]["value"] > 0 and metrics["sketch.from_bytes_s"]["value"] > 0
