"""Tests of the benchmark itself: span arithmetic, output checks, exit codes.

The end-to-end cases run ``perfbench/run.py`` at small scale (``--scale``)
in a temporary work directory, so they touch nothing the real benchmark
keeps between runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.layers import PER_LAYER, layer_metrics
from perfbench.tracer import Tracer, self_times, span_counts

ROOT = Path(__file__).resolve().parents[2]


def bench(tmp_path, *args):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--seed", "3",
           "--seconds", "0", "--workdir", str(tmp_path / "work"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_of_hand_built_span_tree():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["a", 11.0, 12.0, -1],
    ]
    assert self_times(spans) == {"a": 4.0, "b": 6.0, "c": 1.0}
    assert span_counts(spans) == {"a": 2, "b": 2, "c": 1}
    # 12 s of wall, 11 s inside spans: the 1 s gap is time no span saw.
    assert layer_metrics(spans, {}, 12.0)["other_s"] == pytest.approx(1.0)


def test_nested_span_of_the_same_layer_counts_once():
    spans = [["x", 0.0, 5.0, -1], ["x", 1.0, 2.0, 0]]
    assert self_times(spans) == {"x": 5.0}
    assert span_counts(spans) == {"x": 1}


def test_tracer_spans_each_resumption_of_a_generator():
    tracer = Tracer()
    inner = tracer.wrap(lambda: 1, "inner")

    def produce():
        yield inner()
        yield inner()

    gen = tracer.wrap(produce, "gen")
    outer = tracer.wrap(lambda: list(gen()), "outer")
    assert outer() == [1, 1]
    names = [s[0] for s in tracer.spans]
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    assert names.count("gen") == 4  # the call, two yields, the exhaustion
    assert parents == {"inner": "gen", "gen": "outer"}
    assert not tracer.stack


def test_counter_wrapper_counts_without_spans():
    tracer = Tracer()
    counted = tracer.counter(lambda x: x * 2, "calls")
    assert [counted(i) for i in range(3)] == [0, 2, 4]
    tracer.flush_counters()
    assert tracer.counts == {"calls": 3}
    assert tracer.spans == []


# -- the declared contract ------------------------------------------------------


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_fastest_stretches_take_each_stretch_at_its_best():
    assert run.stretches([[0.0, 0.0], [1.0, 0.5], [3.0, 2.0]]) == [[1.0, 0.5], [2.0, 1.5]]
    first = [[1.0, 0.9], [2.0, 1.8]]
    second = [[1.5, 1.4], [1.0, 0.9]]
    assert run.fastest_stretches([first, second]) == [2.0, 1.8]
    # Marks that do not line up: each sample counts as one stretch.
    assert run.fastest_stretches([first, [[2.5, 2.0]]]) == [2.5, 2.0]


def test_paper_output_leaves_timing_lines_out_of_the_digests(tmp_path):
    table = "Title\na  b\n-  -\n1  2\n"
    one = tmp_path / "one.out"
    two = tmp_path / "two.out"
    one.write_text(table + "\nfig: 0 cached, 3 computed [0 groups, 2 shards] in 1.23s\n")
    two.write_text(table + "\nfig: 3 cached, 0 computed in 0.01s\n")
    first, second = run.paper_output(str(one)), run.paper_output(str(two))
    assert first["tables"] == second["tables"]
    assert first["points"] == second["points"] == 3


# -- end to end, small scale ------------------------------------------------------


def test_capacity_plan_small_scale_matches_reference(tmp_path):
    proc, result = bench(tmp_path, "--workload", "capacity_plan", "--scale", "4")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_paper_cold_then_warm_small_scale_match_reference(tmp_path):
    proc, result = bench(tmp_path, "--workload", "paper_cold", "--scale", "8")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["attempted"] >= 289

    proc, result = bench(tmp_path, "--workload", "paper_warm", "--scale", "8", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(layers) == set(PER_LAYER)
    assert layers["runner.cache.hit_ratio"] == 1.0
    assert layers["runner.cache.bytes_written"] == 0
    assert layers["other_s"] <= 0.1 * layers["trace.wall_s"]
    assert (tmp_path / "work" / "traces" / "paper_warm-seed3.json").is_file()


def test_corrupted_row_fails_the_run(tmp_path):
    proc, result = bench(
        tmp_path, "--workload", "capacity_plan", "--scale", "4", "--corrupt-row"
    )
    assert proc.returncode != 0
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "failed_frac" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
