"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from qpbench import harness, workloads  # noqa: E402
from qpbench.workloads import LineSink, Op, Workload  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_declared_metrics_match_the_harness():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(
        harness.per_layer_names()
    )


def corrupt(result):
    """The same kind of result with one detail wrong."""
    if isinstance(result, tuple):
        code, out, err = result
        if isinstance(out, LineSink):
            out.hashes.append(out.hashes[0])
            return result
        if code != 0:
            return code, out, "Other" + err
        if "true" in out:
            return code, out.replace("true", "false"), err
        i = next(k for k, c in enumerate(out) if c.isdigit())
        return code, out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1:], err
    return dataclasses.replace(result, count=result.count + 1)


@pytest.mark.parametrize("workload", NAMES)
def test_a_corrupted_output_counts_as_failed(workload, monkeypatch):
    make = workloads.WORKLOADS[workload]

    def corrupted(seed, tiny):
        wl = make(seed, tiny)
        first = wl.rounds[0][0]
        bad = Op(first.kind, lambda: corrupt(first.call()), first.check, first.items)
        return Workload([[bad] + wl.rounds[0][1:]], wl.warmup, wl.item)

    monkeypatch.setitem(harness.WORKLOADS, workload, corrupted)
    record = harness.run(workload, 7, 0.0, 0, 0.0, ROOT, tiny=True)
    assert record["failed"] == 1
    assert record["fail_frac"] == 1 / record["attempted"]


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                            "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
