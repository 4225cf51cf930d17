"""Smoke test: every workload at tiny size, untraced and traced.

    python3 -m pytest -q benchmarks/tests

A broken harness, workload or output check fails here in seconds rather
than after a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# layers each workload is chosen to skip, as "<layer>." name prefixes
SKIPPED = {
    "tgn_train": ("fgat.", "eval_metrics."),
    "fgat_recover": ("tgn.", "temporal_graph.batch_neighbors."),
}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_declared_metrics(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= (6 if trace else 2)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    calls = {name: m["value"] for name, m in result["metrics"].items() if name.endswith(".calls")}
    for prefix in SKIPPED.get(workload, ()):
        assert all(v == 0 for name, v in calls.items() if name.startswith(prefix))
    assert sum(calls.values()) > 0


def test_tracer_restores_every_wrapped_function():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import spans
    finally:
        del sys.path[:2]
    before = {(id(owner), attr): getattr(owner, attr) for _, owner, attr, _ in spans.WRAPPED}
    import tgtransfer.transfer as transfer

    evaluate = transfer.evaluate
    with spans.Tracer().installed():
        assert transfer.evaluate is not evaluate
    assert transfer.evaluate is evaluate
    assert {(id(owner), attr): getattr(owner, attr) for _, owner, attr, _ in spans.WRAPPED} == before
