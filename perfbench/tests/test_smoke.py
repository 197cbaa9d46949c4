"""Smoke tests of the benchmark harness at a tiny size, so that it cannot rot.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import feeds  # noqa: E402
import run  # noqa: E402
from tracer import Span, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == run.per_layer_metrics()
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace,
                "--scale", "0.05")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, done.stdout
    section = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for metric in section:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "denver-pipeline", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("city", sorted(feeds.WRITERS))
def test_feed_is_seeded_and_its_manifest_adds_up(tmp_path, city):
    first = feeds.generate(city, 2000, 5, tmp_path / "a")
    second = feeds.generate(city, 2000, 5, tmp_path / "b")
    assert first == second
    for name in ("crimes.csv", "demographics.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    planted = first["clean_rows"] + sum(first["dirty_rows"].values()) + first["current_layout_rows"]
    assert planted == first["rows"] == 2000
    assert first["clean_rows"] == first["clean_crime_rows"] + first["noncrime_rows"]
    other = feeds.generate(city, 2000, 6, tmp_path / "c")
    assert (tmp_path / "c" / "crimes.csv").read_bytes() != (tmp_path / "a" / "crimes.csv").read_bytes()
    assert other["rows"] == 2000


def test_self_time_subtracts_the_union_of_children_and_counted_calls():
    parent = Span(1, "parent", None, 1, "w", 0.0, 10.0, counted={"f": [3, 1.0]})
    spans = [parent,
             Span(2, "a", 1, 1, "w", 1.0, 4.0),
             Span(3, "b", 1, 2, "w", 3.0, 6.0),  # overlaps a, on another thread
             Span(4, "c", 2, 1, "w", 2.0, 3.0)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)
