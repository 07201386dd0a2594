"""Spans around the public functions of each `spc` module, from outside the program.

`install` replaces each function in the table below with a wrapper that
records a span (name, start, end, parent, run id) into a `Recorder`, in
every `spc` module that holds a reference to it: `from .trainer import
train` in `spc.cli` gets the wrapper too. `uninstall` puts every original
back. Spans stay in memory and are written out once, when the process ends.
A span's run id numbers the `train` call it belongs to (0 outside training).
Spans are timed on the process's CPU clock, which leaves out time the
process was not running (for example, CPU taken by the hypervisor).

Run a traced `spc` command with:

    python3 bench/tracer.py TRACE.json <spc arguments...>

with `src` on PYTHONPATH. `layer_metrics` turns the traces of one pass into
the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from typing import Callable

MB = 1024 * 1024


class Recorder:
    """Spans, counters and maxima of one traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._runs = 0

    def begin(self, name: str, new_run: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        if new_run:
            self._runs += 1
            run = self._runs
        else:
            run = self.spans[parent][4] if parent >= 0 else 0
        self.spans.append([name, time.process_time(), None, parent, run])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.process_time()
        self._stack.pop()

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(value, self.maxima.get(name, value))

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "maxima": self.maxima}


def _file_bytes(i: int) -> Callable:
    return lambda args, result: os.path.getsize(args[i])


def _length(i: int) -> Callable:
    return lambda args, result: len(args[i])


def _matmul_flops(args, result) -> int:
    (m, k), n = args[0].values.shape, args[1].values.shape[1]
    return 2 * m * k * n


@dataclass(frozen=True)
class Target:
    """A function to wrap, the span name it records and the counters it feeds."""

    module: str
    attr: str
    span: str
    # (counter, f(args, result)) pairs, evaluated after the call, outside the span
    counts: tuple[tuple[str, Callable], ...] = ()
    new_run: bool = False              # the span starts a new run id
    # record tracemalloc's peak around the call; tracing every allocation
    # slows the call, so its traced time overstates the untraced one
    traced_memory: bool = False


TARGETS = (
    Target("spc.trainer", "train", "trainer.train",
           (("trainer.epochs", lambda args, result: result.epochs_ran),
            ("trainer.best_epochs", lambda args, result: result.best_epoch)), new_run=True),
    Target("spc.trainer", "batch_loss", "trainer.forward"),
    Target("spc.trainer", "adamax_step", "trainer.adamax"),
    Target("spc.trainer", "evaluate_split", "trainer.eval"),
    Target("spc.diffcore", "backward", "diffcore.backward"),
    Target("spc.diffcore", "matmul", "diffcore.matmul",
           (("diffcore.matmul_flops", _matmul_flops),)),
    Target("spc.encoder", "encode", "encoder.encode"),
    Target("spc.encoder", "save_checkpoint", "encoder.ckpt_save",
           (("encoder.ckpt_bytes", _file_bytes(0)),)),
    Target("spc.encoder", "load_checkpoint_payload", "encoder.ckpt_load"),
    Target("spc.objectives", "spc_loss", "objectives.spc_loss"),
    Target("spc.data", "load", "data.load", (("data.load_bytes", _file_bytes(0)),)),
    Target("spc.data", "save", "data.save", (("data.save_bytes", _file_bytes(1)),)),
    Target("spc.data", "hash_featurize", "data.hash_featurize",
           (("data.hash_featurize_docs", _length(0)),)),
    Target("spc.data", "inject_label_noise", "data.perturb"),
    Target("spc.data", "subsample_train", "data.perturb"),
    Target("spc.metrics", "kmeans", "metrics.kmeans"),
    Target("spc.metrics", "silhouette", "metrics.silhouette",
           (("metrics.silhouette_points", _length(0)),), traced_memory=True),
    Target("spc.cli", "finish_run", "cli.finish_run"),
    Target("spc.cli", "file_sha256", "cli.file_sha256", (("cli.hashed_bytes", _file_bytes(0)),)),
)


def _wrap(rec: Recorder, fn: Callable, target: Target) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if target.traced_memory:
            tracemalloc.start()
        index = rec.begin(target.span, target.new_run)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
            if target.traced_memory:
                rec.maximum(target.span + "_peak_bytes", tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        for counter, measure in target.counts:
            rec.counts[counter] += measure(args, result)
        return result
    return wrapper


def _spc_modules() -> list:
    import spc.cli  # noqa: F401  (imports every spc module)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "spc" or name.startswith("spc."))]


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every target in every spc module that binds it; returns the
    (owner, attribute, original) list that `uninstall` needs."""
    modules = _spc_modules()
    by_module = {m.__name__: m for m in modules}
    patches = []
    for target in TARGETS:
        original = getattr(by_module[target.module], target.attr)
        wrapper = _wrap(rec, original, target)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
    tape = by_module["spc.diffcore"].Tape
    record = tape.record

    @functools.wraps(record)
    def counted_record(self, *args, **kwargs):
        rec.counts["diffcore.tape_ops"] += 1
        return record(self, *args, **kwargs)

    patches.append((tape, "record", record))
    tape.record = counted_record
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for i, (name, start, end, parent, run) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def _p(values: list[float], q: int) -> float:
    """q-th percentile (inclusive interpolation); 0 without samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(traces: list[tuple[dict, float]]) -> dict[str, float]:
    """Per-layer metrics of one pass from (trace, time scale) pairs, one per
    command; each trace's times are multiplied by its scale."""
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    maxima: dict[str, float] = {}
    run_ms = []
    for trace, scale in traces:
        spans = trace["spans"]
        for (name, start, end, _, _), self_s in zip(spans, self_times(spans)):
            total[name] += (end - start) * scale
            own[name] += self_s * scale
            calls[name] += 1
            if name == "trainer.train":
                run_ms.append((end - start) * scale * 1e3)
        counts.update(trace["counts"])
        for name, value in trace["maxima"].items():
            maxima[name] = max(value, maxima.get(name, value))
    steps = calls["trainer.forward"]
    epochs = counts["trainer.epochs"]
    return {
        "trainer.runs": calls["trainer.train"],
        "trainer.run_p50_ms": _p(run_ms, 50),
        "trainer.run_p90_ms": _p(run_ms, 90),
        "trainer.steps": steps,
        "trainer.epochs": epochs,
        "trainer.best_epochs": counts["trainer.best_epochs"],
        "trainer.useful_epoch_share": counts["trainer.best_epochs"] / epochs if epochs else 0.0,
        "trainer.forward_s": total["trainer.forward"],
        "trainer.backward_s": total["diffcore.backward"],
        "trainer.adamax_s": total["trainer.adamax"],
        "trainer.eval_s": total["trainer.eval"],
        "trainer.eval_calls": calls["trainer.eval"],
        "trainer.self_s": own["trainer.train"],
        "diffcore.tape_ops": counts["diffcore.tape_ops"],
        "diffcore.tape_ops_per_step": counts["diffcore.tape_ops"] / steps if steps else 0.0,
        "diffcore.backward_s": own["diffcore.backward"],
        "diffcore.matmul_calls": calls["diffcore.matmul"],
        "diffcore.matmul_flops": counts["diffcore.matmul_flops"],
        "diffcore.matmul_s": total["diffcore.matmul"],
        "encoder.encode_s": total["encoder.encode"],
        "objectives.spc_loss_s": total["objectives.spc_loss"],
        "encoder.ckpt_save_s": total["encoder.ckpt_save"],
        "encoder.ckpt_bytes": counts["encoder.ckpt_bytes"],
        "encoder.ckpt_load_s": total["encoder.ckpt_load"],
        "data.load_s": total["data.load"],
        "data.load_bytes": counts["data.load_bytes"],
        "data.hash_featurize_s": total["data.hash_featurize"],
        "data.hash_featurize_docs": counts["data.hash_featurize_docs"],
        "data.save_s": total["data.save"],
        "data.save_bytes": counts["data.save_bytes"],
        "data.perturb_s": total["data.perturb"],
        "metrics.kmeans_s": total["metrics.kmeans"],
        "metrics.silhouette_s": total["metrics.silhouette"],
        "metrics.silhouette_points": counts["metrics.silhouette_points"],
        "metrics.silhouette_peak_mb": maxima.get("metrics.silhouette_peak_bytes", 0) / MB,
        "cli.finish_run_s": total["cli.finish_run"],
        "cli.hashed_bytes": counts["cli.hashed_bytes"],
    }


def main(argv: list[str]) -> int:
    trace_path, spc_args = argv[0], argv[1:]
    import spc.cli

    rec = Recorder()
    patches = install(rec)
    try:
        code = spc.cli.main(spc_args)
    finally:
        uninstall(patches)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(rec.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
