"""Span bookkeeping, self time and wrapper install/uninstall of bench/tracer.py."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import tracer  # noqa: E402


def span(name, start, end, parent, run=0):
    return [name, start, end, parent, run]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        span("trainer.train", 0.0, 10.0, -1, 1),
        span("trainer.forward", 1.0, 4.0, 0, 1),
        span("encoder.encode", 2.0, 3.0, 1, 1),
        span("diffcore.backward", 5.0, 7.0, 0, 1),
        span("trainer.train", 11.0, 12.0, -1, 2),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 10.0, -1), span("b", 1.0, 5.0, 0), span("c", 3.0, 12.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_of_a_synthetic_pass():
    spans = [
        span("trainer.train", 0.0, 10.0, -1, 1),
        span("trainer.forward", 1.0, 4.0, 0, 1),
        span("diffcore.matmul", 2.0, 3.0, 1, 1),
        span("trainer.forward", 5.0, 6.0, 0, 1),
        span("diffcore.backward", 6.0, 8.0, 0, 1),
        span("trainer.train", 20.0, 30.0, -1, 2),
    ]
    trace = {"spans": spans,
             "counts": {"diffcore.tape_ops": 70, "trainer.epochs": 4, "trainer.best_epochs": 3},
             "maxima": {"metrics.silhouette_peak_bytes": 2 * tracer.MB}}
    m = tracer.layer_metrics([(trace, 1.0)])
    assert m["trainer.runs"] == 2
    assert m["trainer.steps"] == 2
    assert m["trainer.self_s"] == pytest.approx(4.0 + 10.0)
    assert m["trainer.forward_s"] == pytest.approx(4.0)
    assert m["diffcore.matmul_s"] == pytest.approx(1.0)
    assert m["diffcore.tape_ops_per_step"] == 35
    assert m["trainer.useful_epoch_share"] == pytest.approx(0.75)
    assert m["trainer.run_p50_ms"] == pytest.approx(10_000.0)
    assert m["metrics.silhouette_peak_mb"] == pytest.approx(2.0)
    scaled = tracer.layer_metrics([(trace, 0.5)])
    assert scaled["trainer.self_s"] == pytest.approx(7.0)
    assert scaled["diffcore.tape_ops"] == 70


def test_recorder_nests_spans_and_numbers_runs():
    rec = tracer.Recorder()
    outer = rec.begin("trainer.train", new_run=True)
    inner = rec.begin("trainer.forward")
    rec.end(inner)
    rec.end(outer)
    rec.end(rec.begin("cli.finish_run"))
    (_, _, _, p0, r0), (_, _, _, p1, r1), (_, _, _, p2, r2) = rec.spans
    assert (p0, p1, p2) == (-1, 0, -1)
    assert (r0, r1, r2) == (1, 1, 0)


def _bindings():
    modules = tracer._spc_modules()
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    snapshot[("spc.diffcore.Tape", "record")] = sys.modules["spc.diffcore"].Tape.record
    return snapshot


def test_traced_commands_see_wrappers_and_originals_come_back(tmp_path):
    from spc import cli

    before = _bindings()
    rec = tracer.Recorder()
    patches = tracer.install(rec)
    try:
        assert cli.train is not before[("spc.cli", "train")]
        assert sys.modules["spc.encoder"].matmul is not before[("spc.encoder", "matmul")]
        data = str(tmp_path / "mix.jsonl")
        out = str(tmp_path / "out")
        assert cli.main(["gen-data", "--out", out, "--classes", "2", "--dim", "4",
                         "--per-class", "20", "--output", data]) == 0
        assert cli.main(["train", "--out", out, "--data", data, "--seeds", "1",
                         "--epochs", "2", "--patience", "2"]) == 0
    finally:
        tracer.uninstall(patches)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = tracer.layer_metrics([(rec.to_dict(), 1.0)])
    assert metrics["trainer.runs"] == 1
    assert metrics["trainer.epochs"] == 2
    assert metrics["trainer.self_s"] > 0
    assert metrics["diffcore.tape_ops"] > 0 and metrics["diffcore.matmul_flops"] > 0
    assert metrics["data.save_bytes"] == os.path.getsize(data)
    assert metrics["encoder.ckpt_bytes"] > 0
