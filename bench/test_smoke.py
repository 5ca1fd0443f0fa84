"""Smoke test: every workload runs at a tiny shape, untraced and traced,
and prints each metric it names, with a unit, plus a valid result line.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# end-to-end metrics each workload prints, whether BENCHMARK.json gates them or not
COMMON = ["setup_s", "persist_s", "events_per_s", "recommend_calls",
          "recommend_p50_ms", "recommend_p99_ms", "peak_rss_mb", "error_rate",
          "events_per_s.cip-i", "recommend_p50_ms.cip-i", "recommend_p99_ms.cip-i"]
EXPECTED = {
    "batch-1m": COMMON + [
        "events_per_s.fism", "events_per_s.popularity", "precision_at_10.cip-i",
        "precision_at_10.fism", "precision_at_10.popularity"],
    "replay-100k": COMMON + [
        "events_per_s.cip-u", "events_per_s.deepcip", "precision_at_10.cip-u",
        "precision_at_10.cip-i", "precision_at_10.deepcip"],
    "stream-100k": COMMON + ["events_per_s.cip-u", "events_per_s.deepcip",
                             "precision_at_10.cip-i"],
}
EXPECTED_TRACED = {
    "batch-1m": [
        "ingest.events", "fism.train_s", "fism.recommend_p99_ms",
        "popularity.train_s", "popularity.recommend_calls", "cip_i.short_list_rate",
        "analysis.item_graph_s", "analysis.item_graph_edges", "analysis.export_s",
        "analysis.eval_s", "analysis.eval_self_s", "persistence.save_s.fism",
        "persistence.load_s.popularity", "persistence.model_bytes.fism"],
    "replay-100k": [
        "ingest.partition_s", "cip_u.train_s", "cip_u.update_calls",
        "cip_u.update_p99_ms", "cip_u.recommend_p50_ms", "cip_u.short_list_rate",
        "deepcip.train_s", "deepcip.train_pairs", "deepcip.train_pairs_per_s",
        "deepcip.final_loss", "deepcip.vocab", "deepcip.recommend_s",
        "cip_i.update_s", "analysis.eval_s", "analysis.eval_self_s",
        "persistence.load_s.cip-u", "persistence.model_bytes.deepcip"],
    "stream-100k": [
        "cip_u.update_calls", "cip_u.update_s", "cip_u.update_p50_ms",
        "cip_i.update_p99_ms", "deepcip.update_calls", "deepcip.recommend_p99_ms"],
}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_workload_prints_every_metric(workload, trace):
    printed, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]][1] == m["unit"]
    names = list(EXPECTED[workload])
    if trace:
        names += EXPECTED_TRACED[workload]
    for name in names:
        assert name in printed, name
        assert printed[name][1], name
    assert printed["error_rate"][0] == 0.0


def test_fails_without_sources(tmp_path):
    """Without the package sources the benchmark refuses to run."""
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text(encoding="utf-8"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replay-100k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
