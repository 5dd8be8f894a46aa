"""Smoke tests of the benchmark, at toy sizes, through the same code.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in MANIFEST[kind]}


@pytest.fixture(scope="module", params=sorted(run.SIZES))
def workload(request):
    return request.param


def test_manifest_names_every_workload():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.SIZES)


def test_end_to_end_metrics_print_with_units(workload):
    out = run.report(workload, 1, 0.1, False, run.TOY_SIZES)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out["notes"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared("end_to_end")
    for m in result["metrics"].values():
        assert math.isfinite(m["value"]) and m["value"] > 0


def test_traced_layers_add_up_to_the_traced_wall_time(workload):
    out = run.report(workload, 1, 0.1, True, run.TOY_SIZES)
    result = out["result"]
    assert result["correct"], out["notes"]["failures"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared("per_layer")
    for p in out["runs"]["traced"]:
        self_s = p["self_s"]
        assert min(self_s.values()) >= 0
        # nested spans must not be counted twice: the self times of all
        # layers add up to the outermost spans exactly
        assert math.isclose(sum(self_s.values()), p["root_s"], rel_tol=1e-9)
        # the stream is built during set-up; the rest is the timed region
        timed = p["root_s"] - self_s.get("adversaries.build", 0.0)
        assert 0.8 * p["wall_s"] <= timed <= p["wall_s"]


def test_output_checks_reject_a_wrong_result():
    import worker

    fm = worker.import_flipmatch()
    (unit,) = worker.chain_units(fm, 1, k=6, n=5, build=lambda fn, *a: fn(*a))
    report = unit.entry(*unit.args)
    assert unit.check(report) == []
    report.records[-1].alg_size -= 1
    assert unit.check(report) != []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *MANIFEST["command"][1:]]
    args = ["--workload", "chain", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd + args, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
