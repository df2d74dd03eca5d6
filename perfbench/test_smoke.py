"""Smoke test of the benchmark.

Runs every workload of ``BENCHMARK.json`` untraced and traced, with a
short measuring window, and checks that each run is exact and reports every
declared metric with its unit::

    python -m pytest perfbench -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from run import same_scores  # noqa: E402


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """Run the benchmark; returns (result line, detail line)."""
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr[-4000:]
    lines = out.stdout.strip().splitlines()
    detail = next(json.loads(x)["detail"] for x in lines if x.startswith('{"detail"'))
    return json.loads(lines[-1]), detail


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_is_exact_and_reports_every_metric(workload, trace, kind):
    res, detail = bench(workload, trace)
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert detail["error_rate"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC[kind]}
    for m in SPEC[kind]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]


def test_exactness_check_rejects_a_wrong_answer():
    want = [(4, 0.5), (9, 0.25), (2, 0.25)]
    assert same_scores([(4, 0.5), (2, 0.25), (7, 0.25)], want)  # tie swapped
    assert not same_scores([(4, 0.5), (9, 0.25), (2, 0.2)], want)
    assert not same_scores(want[:2], want)
