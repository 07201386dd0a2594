"""The benchmark's workloads: seeded inputs and the `spc` commands run on them.

A workload has a set-up, which writes its input files from the workload
seed, and a pass, a fixed list of `spc` commands that one client runs one
after another. Training seeds, grids and epoch counts are part of the
workload definition; only the data depends on the seed. Every training
command runs a fixed number of epochs (patience = epochs), so the work in a
pass does not depend on where early stopping would fall on the seeded data.

Each workload exists at two sizes: "full", which is what the benchmark
measures, and "tiny", a few-second version with the same commands that the
benchmark's own tests run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import textgen

# command kinds that train models; their time is `train_s`
TRAINING_KINDS = ("sweep", "noise-study", "train")


@dataclass(frozen=True)
class Command:
    """One `spc` invocation. `ckpt_from` names an earlier command of the
    same pass whose first checkpoint is passed as `--ckpt`."""

    kind: str
    args: tuple[str, ...] = ()
    runs: int = 0           # training runs (cell x seed) the command performs
    ckpt_from: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    sizes: dict
    # setup(data_dir, seed) writes what it can in-process and returns the
    # commands that write the rest; commands(data_dir) is one pass
    setup: Callable[[str, int], list[Command]]
    commands: Callable[[str], list[Command]]


def _sweep_small(size: str) -> Workload:
    per_class, epochs = {"full": (200, 10), "tiny": (40, 3)}[size]
    fixed = ("--epochs", str(epochs), "--patience", str(epochs))
    if size == "full":
        # the default grids: 5x5 beta/gamma x 5 seeds, and ce,spc x 3 noise ratios x 5 seeds
        sweep_args, sweep_runs, noise_args, noise_runs = fixed, 125, fixed, 30
    else:
        sweep_args, sweep_runs = ("--betas", "0.1,1", "--gammas", "0.1", "--seeds", "2") + fixed, 4
        noise_args, noise_runs = ("--ratios", "0.1", "--seeds", "1") + fixed, 2

    def setup(data_dir, seed):
        return [Command("gen-data", ("--classes", "4", "--dim", "32",
                                     "--per-class", str(per_class), "--seed", str(seed),
                                     "--output", os.path.join(data_dir, "mixture.jsonl")))]

    def commands(data_dir):
        data = ("--data", os.path.join(data_dir, "mixture.jsonl"))
        return [Command("sweep", data + sweep_args, sweep_runs),
                Command("noise-study", data + noise_args, noise_runs)]

    return Workload(
        name="sweep_small",
        classes=4,
        sizes={"data": f"4x32x{per_class}", "sweep_runs": sweep_runs,
               "noise_study_runs": noise_runs},
        setup=setup, commands=commands)


def _train_wide(size: str) -> Workload:
    classes, dim, per_class, hidden, seeds, epochs = {
        "full": (20, 256, 500, 256, 2, 4),
        "tiny": (5, 16, 40, 16, 1, 2),
    }[size]

    def setup(data_dir, seed):
        return [Command("gen-data", ("--classes", str(classes), "--dim", str(dim),
                                     "--per-class", str(per_class), "--seed", str(seed),
                                     "--output", os.path.join(data_dir, "wide.jsonl")))]

    def commands(data_dir):
        train = ("--data", os.path.join(data_dir, "wide.jsonl"), "--hidden-dim", str(hidden),
                 "--seeds", str(seeds), "--epochs", str(epochs), "--patience", str(epochs))
        return [Command("train", train + ("--objective", "spc"), seeds),
                Command("train", train + ("--objective", "vib"), seeds),
                Command("eval", ("--data", os.path.join(data_dir, "wide.jsonl")), ckpt_from=0)]

    return Workload(
        name="train_wide",
        classes=classes,
        sizes={"data": f"{classes}x{dim}x{per_class}", "hidden_dim": hidden,
               "seeds_per_train": seeds, "epochs": epochs},
        setup=setup, commands=commands)


def _text_repr(size: str) -> Workload:
    classes, per_class, doc_len, seeds, epochs = {
        "full": (8, 1000, 30, 3, 10),
        "tiny": (3, 60, 20, 1, 8),
    }[size]

    def setup(data_dir, seed):
        rows = textgen.generate_rows(seed, classes, per_class, doc_len)
        textgen.write_jsonl(os.path.join(data_dir, "text.jsonl"), rows)
        return []

    def commands(data_dir):
        data = ("--data", os.path.join(data_dir, "text.jsonl"))
        return [Command("train", data + ("--objective", "spc", "--seeds", str(seeds),
                                         "--epochs", str(epochs), "--patience", str(epochs)),
                        seeds),
                Command("repr-quality", data, ckpt_from=0),
                Command("eval", data, ckpt_from=0)]

    return Workload(
        name="text_repr",
        classes=classes,
        sizes={"docs": classes * per_class, "classes": classes, "tokens_per_doc": doc_len,
               "seeds": seeds, "epochs": epochs},
        setup=setup, commands=commands)


_FACTORIES = {"sweep_small": _sweep_small, "train_wide": _train_wide, "text_repr": _text_repr}
NAMES = tuple(_FACTORIES)


def get(name: str, size: str = "full") -> Workload:
    return _FACTORIES[name](size)
