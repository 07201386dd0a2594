"""Benchmark of the `spc` command line, run the way a user runs it.

    python3 bench/run.py --workload sweep_small --seed 1 --seconds 30 --trace 0

One client runs each workload's commands one after another (a closed loop),
each `spc` command in its own child process with one BLAS thread, so no more
than two processes compute at once. The program comes from `src/` of the
checkout this file sits in; its inputs are generated here from `--seed`.

A run sets up the inputs several times (`setup_s` is the median), then runs
whole passes of the workload's commands until `--seconds` would be exceeded
(at least one). Every command's outputs are checked (see checks.py), and
every pass must reproduce the first pass's results digest.

Timings are reference-scaled CPU seconds: the CPU time (user + system, as
`wait4` reports it) of a command, times REF_SECONDS over the median CPU time
of a fixed kernel run before, between and after the commands of its pass (or
around the set-up; see reference.py). On the
shared virtual machine this benchmark was written on, the speed a process
gets changed by up to 2x between minutes; scaling by the kernel kept
identical work reading the same, where raw wall-clock and CPU times did
not. Raw wall-clock time (`wall_s`) and the kernel's own time (`ref_s`) are
reported as per-layer metrics, so raw CPU time is `value * ref_s /
REF_SECONDS`.

With `--trace 0` the run reports the end-to-end metrics (medians over
passes unless noted):
  setup_s      writing the workload's input files (median of the set-ups;
               in-process generation plus `spc gen-data`)
  pass_s       one pass, all commands
  train_s      the pass's training commands (train, sweep, noise-study)
  runs_per_s   training runs (cell x seed) per second of train_s
  peak_rss_mb  largest peak resident set of any command (maximum)
Command failures are the result's `failed` out of `attempted`.

With `--trace 1` it runs untraced passes for the first half of the time and
passes under bench/tracer.py for the second, and reports the per-layer
metrics: `wall_s` (a pass's commands, wall-clock), `ref_s`, the time of each
command kind `command.<kind>_s`, `trace_overhead_s` (traced minus untraced
`pass_s`), and from the spans of the traced passes (medians) the time inside
each wrapped function `<layer>.<name>_s` (children included, except
`trainer.self_s` and `diffcore.backward_s`, which are self time), counts and
byte totals per pass. Spans are timed on the process's CPU clock. The spans
of the last traced pass are kept in `.bench_work/trace-<workload>.json`.

Every metric is printed by name with its unit, together with the machine,
the seed and the workload sizes; the last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import checks
import reference
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACER = os.path.join(HERE, "tracer.py")
REFERENCE = os.path.join(HERE, "reference.py")

SETUP_REPS = (3, 7)  # at least 3 set-ups, more while they take under 1/5 of --seconds
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0  # children still running after this are killed

END_TO_END = ("setup_s", "pass_s", "train_s", "runs_per_s", "peak_rss_mb")
COMMAND_KINDS = ("sweep", "noise-study", "train", "eval", "repr-quality")


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_bytes", "bytes"), ("_share", "ratio"), ("_per_step", "ops/step"),
                         ("_flops", "flop_computed")):
        if name.endswith(suffix):
            return unit
    return "count"


def command_metric(kind: str) -> str:
    return "command." + kind.replace("-", "_") + "_s"


@dataclass
class Outcome:
    """One finished command: what ran, how long, how much memory, what it wrote."""

    kind: str
    runs: int
    out_root: str
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ref_s: float = reference.REF_SECONDS  # the kernel's CPU time around the pass
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)
    digest: str | None = None

    @property
    def scale(self) -> float:
        return reference.REF_SECONDS / self.ref_s

    @property
    def seconds(self) -> float:
        """Reference-scaled CPU seconds."""
        return self.cpu_s * self.scale


class Runner:
    """Runs one workload's commands as child processes under `work`.

    Every child is killed once the run's time limit `kill_at` (a
    `time.perf_counter` value) has passed, so a hung command cannot hold
    the run past it; the command then counts as failed.

    A child's peak resident set starts from this process's (Linux carries
    it across exec), so this process stays small: the reference kernel runs
    in a child too, and NumPy is never imported here before the last child.
    """

    def __init__(self, wl: workloads.Workload, seed: int, work: str, kill_at: float):
        self.wl, self.seed, self.work, self.kill_at = wl, seed, work, kill_at
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("SPC_OUT", None)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def spawn(self, argv: list[str], log_path: str) -> tuple[int, float, float, float]:
        """Run argv to completion; returns (exit code, wall seconds, CPU seconds,
        peak RSS in MB)."""
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(1.0, self.kill_at - start), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def reference(self) -> float:
        """CPU seconds of one run of the reference kernel, in a child process."""
        done = subprocess.run([sys.executable, REFERENCE], capture_output=True, text=True,
                              env=self.env, cwd=ROOT, check=True,
                              timeout=max(1.0, self.kill_at - time.perf_counter()))
        return float(done.stdout)

    def run_commands(self, commands: list[workloads.Command], base: str, traced: bool,
                     refs: list[float] | None = None) -> list[Outcome]:
        """Run commands back to back, each with its own output root under `base`.
        With a list `refs`, the reference kernel runs after each command and
        its times are appended there."""
        os.makedirs(base, exist_ok=True)
        outcomes: list[Outcome] = []
        for i, cmd in enumerate(commands):
            out_root = os.path.join(base, f"{i}-{cmd.kind}")
            argv = [cmd.kind, *cmd.args, "--out", out_root]
            if cmd.ckpt_from is not None:
                argv += ["--ckpt", _first_checkpoint(outcomes[cmd.ckpt_from].out_root)]
            trace_path = out_root + ".trace.json"
            prefix = [sys.executable, TRACER, trace_path] if traced else [
                sys.executable, "-m", "spc.cli"]
            out = Outcome(cmd.kind, cmd.runs, out_root,
                          *self.spawn(prefix + argv, out_root + ".log"))
            if refs is not None:
                refs.append(self.reference())
            if traced and os.path.isfile(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    out.trace = json.load(fh)
            outcomes.append(out)
        return outcomes

    def check(self, outcomes: list[Outcome], expected: list[Outcome] | None) -> None:
        """Check each command's outputs, and its digest against an earlier run."""
        for i, out in enumerate(outcomes):
            out.problems, out.digest = checks.check(out.kind, out.returncode, out.out_root,
                                                    self.wl.classes)
            if expected is not None and out.digest not in (None, expected[i].digest):
                out.problems.append(f"{out.kind}: results differ from the first run "
                                    "of this command")

    def setup(self, tag: str, traced: bool) -> "Setup":
        """Write the inputs into a fresh data directory; its CPU time is scaled
        by the mean of the kernel's times before and after."""
        data_dir = os.path.join(self.work, f"data-{tag}")
        os.makedirs(data_dir)
        ref_before = self.reference()
        cpu_start = time.process_time()
        commands = self.wl.setup(data_dir, self.seed)
        generated = time.process_time() - cpu_start
        outcomes = self.run_commands(commands, os.path.join(self.work, f"setup-{tag}"), traced)
        ref = (ref_before + self.reference()) / 2
        for out in outcomes:
            out.ref_s = ref
        cpu = generated + sum(o.cpu_s for o in outcomes)
        return Setup(cpu * reference.REF_SECONDS / ref, data_dir, outcomes)

    def passes(self, data_dir: str, traced: bool, deadline: float,
               expected: list[Outcome] | None) -> list["Pass"]:
        """Whole passes until the next one would end after `deadline`; at least one.

        The reference kernel runs before the first pass and after every
        command; each pass is scaled by the median of the kernel's times
        before, between and after its commands.
        """
        passes: list[Pass] = []
        refs, last = [self.reference()], 0.0
        while not passes or time.perf_counter() + last <= deadline:
            began = time.perf_counter()
            base = os.path.join(self.work, f"pass-{'t' if traced else 'u'}{len(passes)}")
            refs = refs[-1:]
            outcomes = self.run_commands(self.wl.commands(data_dir), base, traced, refs)
            for out in outcomes:
                out.ref_s = statistics.median(refs)
            self.check(outcomes, expected or (passes[0].outcomes if passes else None))
            passes.append(Pass(outcomes))
            shutil.rmtree(base, ignore_errors=True)
            last = time.perf_counter() - began
        return passes


def _first_checkpoint(out_root: str) -> str:
    run_dir = checks.find_run_dir(out_root)
    ckpt_dir = os.path.join(run_dir or out_root, "ckpt")
    names = sorted(os.listdir(ckpt_dir)) if os.path.isdir(ckpt_dir) else []
    return os.path.join(ckpt_dir, names[0] if names else "missing.json")


@dataclass
class Setup:
    seconds: float  # reference-scaled CPU seconds
    data_dir: str
    outcomes: list[Outcome]


@dataclass
class Pass:
    outcomes: list[Outcome]

    def seconds(self, kinds=None) -> float:
        """Reference-scaled CPU seconds of the commands of the given kinds (all)."""
        return sum(o.seconds for o in self.outcomes if kinds is None or o.kind in kinds)

    @property
    def runs(self) -> int:
        return sum(o.runs for o in self.outcomes)


def end_to_end(setups: list[Setup], passes: list[Pass]) -> dict[str, float]:
    train = [p.seconds(workloads.TRAINING_KINDS) for p in passes]
    return {
        "setup_s": statistics.median(s.seconds for s in setups),
        "pass_s": statistics.median(p.seconds() for p in passes),
        "train_s": statistics.median(train),
        "runs_per_s": statistics.median(p.runs / t for p, t in zip(passes, train)),
        "peak_rss_mb": max(o.peak_rss_mb for p in passes for o in p.outcomes),
    }


def breakdown(passes: list[Pass]) -> dict[str, float]:
    """Per-layer metrics of the untraced passes: wall-clock, kernel, command kinds."""
    metrics = {
        "wall_s": statistics.median(sum(o.wall_s for o in p.outcomes) for p in passes),
        "ref_s": statistics.median(o.ref_s for p in passes for o in p.outcomes),
    }
    for kind in COMMAND_KINDS:
        metrics[command_metric(kind)] = statistics.median(p.seconds((kind,)) for p in passes)
    return metrics


def per_layer(untraced: list[Pass], traced: list[Pass], setup: Setup) -> dict[str, float]:
    """Tracing overhead, and the median over traced passes of each span metric;
    the traced set-up's spans count towards every pass."""
    def traces(outcomes):
        return [(o.trace, o.scale) for o in outcomes if o.trace]

    layers = [tracer.layer_metrics(traces(setup.outcomes + p.outcomes)) for p in traced]
    metrics = {"trace_overhead_s": (statistics.median(p.seconds() for p in traced)
                                    - statistics.median(p.seconds() for p in untraced))}
    for name in layers[0]:
        metrics[name] = statistics.median(layer[name] for layer in layers)
    return metrics


def machine() -> dict:
    import numpy

    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": "unknown", "blas_threads": BLAS_THREADS}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    return info


def run(wl: workloads.Workload, seed: int, seconds: float, traced: bool, work: str,
        kill_at: float) -> dict:
    runner = Runner(wl, seed, work, kill_at)
    # compile the program's bytecode, warm the file cache and the kernel before timing
    runner.spawn([sys.executable, "-c", "import spc.cli"], os.path.join(work, "warmup.log"))
    runner.reference()

    setups: list[Setup] = []
    least, most = (1, 1) if traced else SETUP_REPS
    began = time.perf_counter()
    while len(setups) < least or (len(setups) < most
                                  and time.perf_counter() - began < seconds / 5):
        if setups:
            shutil.rmtree(setups[-1].data_dir)
        setups.append(runner.setup(str(len(setups)), traced=False))
    if traced:
        traced_setup = runner.setup("traced", traced=True)
        shutil.rmtree(traced_setup.data_dir)
    for s in setups + ([traced_setup] if traced else []):
        runner.check(s.outcomes, setups[0].outcomes)
    data_dir = setups[-1].data_dir

    start = time.perf_counter()
    untraced = runner.passes(data_dir, False, start + (seconds / 2 if traced else seconds), None)
    traced_passes = (runner.passes(data_dir, True, start + seconds, untraced[0].outcomes)
                     if traced else [])

    report = {
        "workload": wl.name, "seed": seed, "trace": int(traced), "sizes": wl.sizes,
        "machine": machine(),
        "results_digest": checks.combined_digest(o.digest for o in untraced[0].outcomes),
        "passes": [(p.seconds(), sum(o.wall_s for o in p.outcomes),
                    statistics.mean(o.ref_s for o in p.outcomes))
                   for p in untraced + traced_passes],
        "setups": len(setups),
        "passes_untraced": len(untraced), "passes_traced": len(traced_passes),
        "end_to_end": end_to_end(setups, untraced),
        "per_layer": breakdown(untraced),
    }
    checked = [o for s in setups for o in s.outcomes]
    checked += [o for p in untraced + traced_passes for o in p.outcomes]
    if traced:
        checked += traced_setup.outcomes
        report["per_layer"].update(per_layer(untraced, traced_passes, traced_setup))
        with open(os.path.join(WORK, f"trace-{wl.name}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": seed,
                       "commands": [{"kind": o.kind, "scale": o.scale, **o.trace}
                                    for o in traced_setup.outcomes + traced_passes[-1].outcomes
                                    if o.trace]}, fh)
    report.update({
        "attempted": len(checked), "failed": sum(1 for o in checked if o.problems),
        "problems": [problem for o in checked for problem in o.problems],
    })
    return report


def print_report(report: dict) -> None:
    print(f"# spc benchmark  workload={report['workload']}  seed={report['seed']}  "
          f"trace={report['trace']}")
    print(f"# machine  {json.dumps(report['machine'], sort_keys=True)}")
    print(f"# sizes    {json.dumps(report['sizes'], sort_keys=True)}")
    print(f"# passes   {report['setups']} set-ups, {report['passes_untraced']} untraced and "
          f"{report['passes_traced']} traced passes; "
          f"commands {report['attempted']} attempted, {report['failed']} failed "
          f"(fail_share {report['failed'] / report['attempted']:.4f})")
    for seconds, wall, ref in report["passes"]:
        print(f"# pass     {seconds:.3f} s scaled, {wall:.3f} s wall, kernel {ref:.4f} s")
    print(f"# results  digest {report['results_digest']}")
    for problem in report["problems"]:
        print(f"# FAILED   {problem}")
    for section in ("end_to_end", "per_layer"):
        for name, value in report[section].items():
            print(f"{name:<32} {value:>18.6f} {unit_of(name)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same commands on toy inputs (for tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spc", "cli.py")):
        print(f"error: the spc program is missing: {SRC}/spc/cli.py not found", file=sys.stderr)
        return 2

    kill_at = time.perf_counter() + RUN_LIMIT_S
    wl = workloads.get(args.workload, args.size)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
    try:
        report = run(wl, args.seed, args.seconds, bool(args.trace), work, kill_at)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_report(report)
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    if args.trace:
        print(f"# spans    {os.path.join(WORK, f'trace-{wl.name}.json')}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
