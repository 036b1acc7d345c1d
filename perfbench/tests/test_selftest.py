"""Self-test of the serving benchmark at a tiny size.

    python3 -m pytest perfbench/tests -q

Runs every workload on graphs a fiftieth of the size, for one second, and
checks that every metric named in BENCHMARK.json prints with its unit,
that the exact counts repeat across two runs with the same seed, and that
the answer oracle fails a run whose answer was corrupted on the wire.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SCALE = "0.02"

#: Per-layer metrics that are counts over the fixed count phase: they must
#: repeat exactly for a given seed.
EXACT = (
    "automata.edges_scanned",
    "automata.supersteps",
    "protocol.resp_bytes",
    "frozen.freezes_per_req",
    "wal.bytes_per_commit",
    "wal.fsyncs_per_commit",
    "automata.plan_cache_hit_rate",
    "governor.shed_share",
    "sqlbackend.answered_share",
)


def bench(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def assert_metrics(result: dict, declared: list) -> None:
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], float), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    result = bench(workload, trace=0)
    assert_metrics(result, BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_a_seed(workload):
    first, second = bench(workload, trace=1), bench(workload, trace=1)
    assert_metrics(first, BENCH["per_layer"])
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_oracle_fails_a_corrupted_answer(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    client = importlib.import_module("client")
    take_frame = client.Connection.take_frame
    corrupted = []

    def corrupting(self):
        payload = take_frame(self)
        if payload is not None and not corrupted:
            # append a digit to the first node id of a non-empty answer
            bad = re.sub(rb'"result":\[(\d+)', rb'"result":[\g<1>7', payload, count=1)
            if bad != payload:
                corrupted.append(bad)
                payload = bad
        return payload

    monkeypatch.setattr(client.Connection, "take_frame", corrupting)
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    out = run.run("lookup", 1, 0.5, False, float(SCALE))
    assert corrupted
    assert out["result"]["correct"] is False
    assert out["result"]["failed"] == 1
