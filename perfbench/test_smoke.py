"""Smoke tests of the benchmark, beside it: ``python3 -m pytest perfbench``.

The smoke mode runs every workload at tiny sizes, untraced and traced, with
every correctness check, in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts src/ on the path)
from layers import LAYER_METRICS  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_smoke_runs_every_workload_traced_and_untraced():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    results = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    bench = _benchmark()
    assert len(results) == 2 * len(bench["workloads"])
    end_to_end = [metric["name"] for metric in bench["end_to_end"]]
    assert tuple(end_to_end) == run.END_TO_END
    per_layer = {metric["name"] for metric in bench["per_layer"]}
    for untraced, traced in zip(results[0::2], results[1::2]):
        assert untraced["correct"] and traced["correct"]
        assert list(untraced["metrics"]) == end_to_end
        assert all(m["value"] > 0 for m in untraced["metrics"].values())
        assert set(traced["metrics"]) == per_layer


def test_benchmark_json_lists_the_layer_table():
    bench = _benchmark()
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS
    ]
    assert [w["name"] for w in bench["workloads"]] == ["ingest", "edit_page", "remote_stream"]


def test_lost_edits_fail_the_run(monkeypatch):
    """A program that drops the last edit of every batch fails the final-state check."""
    from repro.engine.local import LocalDocument

    apply_edits = LocalDocument.apply_edits
    monkeypatch.setattr(LocalDocument, "apply_edits", lambda self, edits: apply_edits(self, list(edits)[:-1]))
    result = run.run("edit_page", seed=3, seconds=0.5, trace=False, smoke=True)
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and not out.stdout.strip()
