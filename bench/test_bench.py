"""Self-check of the benchmark: every workload in its tiny mode passes all
gates and emits exactly the metrics ``BENCHMARK.json`` names, and the
benchmark refuses to run without the library's sources."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, *extra: str):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_passes_gates_and_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    report = json.loads((ROOT / ".bench_out" / f"{workload}.trace{trace}.json").read_text())
    # The only failures allowed are the recorded CURVE_THROUGH_BRANCH exits,
    # and they must show on random_cli, whose inputs include single-arc
    # dissections.
    assert all(gate.startswith("defect:") for gate in report["failed_gates"])
    if workload == "random_cli":
        assert result["failed"] > 0
    else:
        assert result["failed"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
