"""Shortened runs of every workload complete with every check passing.

Each run is a subprocess of ``perfbench/run.py`` exactly as the benchmark is
invoked, cut to one short measuring window.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from checks import CheckFailed
from workloads import WORKLOADS, Segment

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def invoke(*args, cwd=ROOT):
    cmd = [sys.executable, str(BENCH / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_failed_counts_the_segments_own_failures():
    segments = [Segment(ops=1000, graphs=1000, signature=None, result=None, failed=f) for f in (0, 3, 2)]
    result = run._result(True, segments, {}, {"setup_s": "s"})
    assert (result["attempted"], result["failed"]) == (3000, 5)


def test_a_failed_capacity_search_reports_incorrect_not_a_crash():
    class Stub:
        def check(self, segments):
            pass

        def sim_graphs_per_s(self, first):
            raise CheckFailed("p99 limit missed even at the lowest rate")

    assert run.verify(Stub(), [None], sim_rate=True) == (False, 0.0)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_shortened_run_passes_its_checks(workload):
    result = last_json(invoke("--workload", workload, "--seed", "5", "--seconds", "0.5"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_shortened_traced_run_reports_every_layer():
    result = last_json(invoke("--workload", "train-enzymes", "--seed", "5", "--seconds", "0.5",
                              "--trace", "1"))
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["host.dglx_s"]["value"] > 0 and metrics["host.compile_s"]["value"] > 0
    assert metrics["scipy.csr_matvecs_s"]["value"] > 0
    assert metrics["span.backward_ms"]["value"] > 0 and metrics["trace.slowdown"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    """Given only the benchmark's own files, a run fails without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-dd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
