"""Smoke test of the benchmark harness at the tiny size.

Run from the repository root:  python3 -m pytest -q knitbench/test_harness.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "setup_s": "s",
    "fit_s": "s",
    "fit_r2_post_min": "1",
    "grid_configs_per_s": "1/s",
    "grid_best_E": "1",
    "batch_rectify_s": "s",
    "stream_samples_per_s": "1/s",
    "stream_push_p50_us": "us",
    "stream_push_p99_us": "us",
    "error_rate": "ratio",
    "peak_rss_mib": "MiB",
}


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "knitbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_all_prints_the_named_metrics():
    proc = bench("--workload", "all", "--seconds", "0.5", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    printed = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            printed[parts[0]] = parts[2]
    assert printed == NAMED


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "knitbench", ignore=shutil.ignore_patterns("work", "traces", "__pycache__"))
    proc = bench("--workload", "fit_8min", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
