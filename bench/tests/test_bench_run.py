"""Tiny-size runs of bench/run.py: output checks, metric names and units, inputs."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import textgen  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


# a traced run also runs untraced passes, so it smoke-tests both kinds of pass
@pytest.mark.parametrize("name, trace, seed",
                         [("sweep_small", 0, 1)] + [(name, 1, 2) for name in workloads.NAMES])
def test_tiny_run_passes_checks_and_emits_every_metric(name, trace, seed):
    proc = run_bench("--workload", name, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for metric in listed:
        assert f"{metric['name']} " in proc.stdout  # printed by name in the table too


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "sweep_small", "--seed", "1", "--seconds", "1",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_text_inputs_follow_the_seed():
    first = textgen.generate_rows(5, classes=3, per_class=10, doc_len=12)
    assert first == textgen.generate_rows(5, classes=3, per_class=10, doc_len=12)
    assert first != textgen.generate_rows(6, classes=3, per_class=10, doc_len=12)
    assert [r["split"] for r in first[:10]] == ["train"] * 6 + ["val"] * 2 + ["test"] * 2
    assert {r["label"] for r in first} == {"topic0", "topic1", "topic2"}


def test_reference_kernel_does_fixed_work():
    assert reference.kernel() == reference.kernel()
    assert reference.measure() > 0
