"""Tiny-size checks of the benchmark itself.

Every workload runs at a small scale for a fraction of a second: each run
must print every metric of its mode with the right unit, a wrong oracle
answer must fail the command, and the (count) metrics must repeat for a
seed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a fraction-of-a-second run."""
    for name, params in workloads.WORKLOADS.items():
        small = dataclasses.replace(params, scale=0.05, pool=192)
        monkeypatch.setitem(workloads.WORKLOADS, name, small)


def _run(capsys, name: str, trace: int, seed: int = 3):
    code = run.main(
        ["--workload", name, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), json.loads(lines[-2])["diagnostics"]


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_printed_with_its_unit(tiny, capsys, name):
    for trace, table in ((0, bench.END_TO_END), (1, bench.PER_LAYER)):
        code, result, diagnostics = _run(capsys, name, trace)
        assert code == 0, diagnostics["failures"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        metrics = result["metrics"]
        assert {key: m["unit"] for key, m in metrics.items()} == dict(table)
        assert all(isinstance(m["value"], float) for m in metrics.values())
        assert len(diagnostics["host.calib_ms"]) == 3
        assert diagnostics["provenance"]["seed"] == 3
    assert metrics["host.calib_ms"]["value"] > 0
    assert metrics["hierarchy.k"]["value"] >= 2


def test_end_to_end_metrics_are_never_zero(tiny, capsys):
    for name in NAMES:
        code, result, _ = _run(capsys, name, 0)
        assert code == 0
        for key, metric in result["metrics"].items():
            assert metric["value"] > 0, (name, key)


@pytest.mark.parametrize("name", ["directed-csr", "cached-updates"])
def test_a_wrong_oracle_answer_fails_the_command(tiny, capsys, monkeypatch, name):
    real = workloads.build_stream

    def corrupted(*args, **kwargs):
        stream = real(*args, **kwargs)
        stream.expected[0] += 1
        return stream

    monkeypatch.setattr(workloads, "build_stream", corrupted)
    code, result, diagnostics = _run(capsys, name, 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert diagnostics["failures"]


@pytest.mark.parametrize("name", NAMES)
def test_count_metrics_repeat_for_a_seed(tiny, capsys, name):
    first = _run(capsys, name, 1, seed=5)[1]["metrics"]
    second = _run(capsys, name, 1, seed=5)[1]["metrics"]
    for key in bench.COUNT_METRICS:
        assert first[key]["value"] == second[key]["value"], key
    if name == "remote-fleet":
        # The server's counters see the client's frames alone: one per
        # point read and one per scheduler dispatch of a batch.
        params = workloads.WORKLOADS[name]
        frames = params.reads_per_round + first["scheduler.dispatch_per_batch"]["value"]
        assert first["server.requests"]["value"] == params.count_rounds * frames
        pairs = params.reads_per_round + workloads.BATCH
        assert first["server.queries"]["value"] == params.count_rounds * pairs


def test_point_percentiles_are_nearest_rank_over_slot_medians():
    values = [float(v) for v in range(100, 0, -1)]
    assert bench.percentile(values, 50) == 50.0
    assert bench.percentile(values, 99) == 99.0
    assert bench.percentile([0.7, 0.5, 0.9], 50) == 0.7
    assert bench.percentile([], 50) == 0.0
    # A stall on one read of slot 0 does not move that slot's latency.
    assert bench.slot_medians([10, 900, 10, 30, 30], [0, 0, 0, 1, 1]) == [10.0, 30.0]


def test_a_run_pins_itself_to_one_cpu_and_restores_its_affinity():
    before = os.sched_getaffinity(0)
    with bench.pinned_to_one_cpu() as cpu:
        assert os.sched_getaffinity(0) == {cpu}
        assert cpu in before
    assert os.sched_getaffinity(0) == before


def test_the_seed_drives_the_inputs():
    params = workloads.WORKLOADS["remote-fleet"]
    graph = workloads.dataset_builders()["web"](0.05)
    tiny = dataclasses.replace(params, pool=64)
    a = workloads.build_stream(tiny, "remote-fleet", 1, graph)
    b = workloads.build_stream(tiny, "remote-fleet", 1, graph)
    c = workloads.build_stream(tiny, "remote-fleet", 2, graph)
    assert a.pairs == b.pairs and a.expected == b.expected
    assert a.pairs != c.pairs


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.PER_LAYER


def test_without_library_source_it_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "directed-csr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
