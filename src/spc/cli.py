"""Command-line entry point for the full experimental protocol.

Commands: gen-data, train, eval, sweep, noise-study, ratio-study, ood,
repr-quality, report. Every command but report runs one sequence: its
handler computes a `Run`, and `main` hands it to `finish_run`, which names
the run by a hash of its inputs (`run_inputs`) and writes its files under
<out-root>/<run-id>/; `main` then prints `run <id>: <headline>` and sets
the exit code. Invocations that differ in any effective input get
different ids, and re-running one reproduces the same directory with
byte-identical result numbers. The output root comes from --out or a
non-empty SPC_OUT environment variable (default ./out). This module holds
flags, run directories and printing only: the training flags and --config
keys are the TrainConfig and ObjectiveConfig fields (see `train_defaults`),
and the protocols live in `spc.trainer`. A run's task is its objective's,
its checkpoint's for eval and repr-quality, and classification for ood.

Exit codes: 0 success, 2 bad flags, 3 data errors (an array too large
to allocate among them), 4 a diverged seed (after the run is written);
README's exit-code paragraphs list every case. Each flag check (every list
flag's in `parse_list`) fails before any read, in one `usage error:` line
naming its flag(s) (`flag_check`), as does a setting no objective reads.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import json
import os
import re
import sys
from collections.abc import Callable, Sequence

from . import data as dataio
from .data import DataError, Dataset, write_atomic
from .encoder import EncoderParams, load_checkpoint, save_checkpoint
from .objectives import CLASSIFICATION_KINDS, OBJECTIVES, WEIGHTS, ObjectiveConfig
from .trainer import (
    TrainConfig,
    evaluate_split,
    ood_run,
    perturbation_study,
    representation_quality,
    summarize,
    sweep,
    sweep_cells,
    timed,
    train,  # not called here; bench/tests/test_bench_tracer.py reads cli.train
    train_jobs,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

# config fields that are not training flags, and the flags named otherwise
# than the setting they give (a config field, or gen_mixture's separation)
NOT_FLAGS = ("objective", "zero_eps", "kind")
FLAG_NAMES = {"learning_rate": "lr", "separation": "sep"}
# the featurizer flags' settings, with data.load's defaults
FEATURIZER = {name: inspect.signature(dataio.load).parameters[name].default
              for name in ("hash_dim", "hash_seed")}
# a sweep's default --betas, and its --gammas for a kind with two weights
SWEEP_GRID = "0.001,0.01,0.1,1,10"


def out_root(args) -> str:
    return args.out or os.environ.get("SPC_OUT") or "out"


def check_out_root(args) -> None:
    """A UsageError unless the nearest existing ancestor of the output root
    (the root itself, if it exists) is a directory, so that the run
    directories can be made under it."""
    root = out_root(args)
    ancestor = os.path.abspath(root)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise UsageError(f"output root {root}: {ancestor} is not a directory")


def default_data_path(args) -> str:
    return os.path.join(out_root(args), "data", "mixture.jsonl")


def data_path(args) -> str:
    return args.data or default_data_path(args)


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class UsageError(ValueError):
    """A flag value that does not resolve into a run (exit 2)."""


def read_json_object(path: str, *keys: str) -> dict:
    """The json object in `path` (UTF-8, a leading byte-order mark dropped),
    holding `keys`; malformed json, bytes that are not UTF-8, another json
    value or a missing key is a DataError naming the file."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            value = json.load(fh)
        except ValueError as err:
            raise DataError(f"{path}: not a json file ({err})") from None
    if not isinstance(value, dict):
        raise DataError(f"{path}: expected a json object")
    missing = [key for key in keys if key not in value]
    if missing:
        raise DataError(f"{path}: missing keys {missing}")
    return value


@contextlib.contextmanager
def flag_check(*flags: str):
    """Turn a ValueError from checking `flags` (a DataError among them) into a
    UsageError naming those whose setting the message names as a word (--lr's
    is learning_rate), else all of them. A UsageError passes through."""
    try:
        yield
    except UsageError:
        raise
    except ValueError as err:
        words = {_flag(FLAG_NAMES.get(word, word)) for word in re.findall(r"\w+", str(err))}
        named = [flag for flag in flags if flag in words] or flags
        raise UsageError(f"{'/'.join(named)}: {err}") from None


def parse_list(text: str, flag: str, item: Callable = float, items: str = "numbers") -> list:
    """The comma-separated values given to a list `flag`, each read by `item`
    (blank items skipped): at least one, and no two equal as read, so 1 and
    1.0 repeat. Anything else is a UsageError naming `flag`."""
    with flag_check(flag):
        values = [item(v) for v in map(str.strip, text.split(",")) if v]
        if not values or len(set(values)) < len(values):
            raise ValueError(f"{text!r}: expected distinct {items}, at least one")
    return values


def parse_seeds(text: str) -> list[int]:
    """Either a count ("5" -> seeds 0..4) or a list ("3,7,11", see
    `parse_list`) of distinct non-negative seeds, of 1 to data.MAX_SIZE seeds."""
    seeds = parse_list(text, "--seeds", int, "and non-negative seeds")
    if "," not in text:  # a count, checked before its seeds are listed
        seeds = list(range(seeds[0])) if seeds[0] <= dataio.MAX_SIZE else []
    if not seeds or min(seeds) < 0 or len(seeds) > dataio.MAX_SIZE:
        raise UsageError(f"--seeds: {text[:40]!r}: expected 1 to {dataio.MAX_SIZE} seeds, "
                         f"a count or distinct and non-negative seeds")
    return seeds


def make_objective(kind: str, structured_from: str = "sample", **weights: float) -> ObjectiveConfig:
    """A config for `kind` with the `weights` it takes (an omitted one is 0),
    so one flag set (--beta/--gamma/--cp-weight) drives a study's objectives."""
    return ObjectiveConfig(kind=kind, structured_from=structured_from,
                           **{name: weights.get(name, 0.0) for name in OBJECTIVES[kind].weights})


# --- artifact plumbing ---

def run_inputs(args, files: dict[str, str], configs: Sequence[TrainConfig] = (),
               **extras) -> dict:
    """Everything a run id hashes besides the command.

    That is each resolved config with its objective, the path and content
    hash of each input file (a file named twice is read once), the
    featurizer settings, and the command's extras (seeds, grids, ratios). A
    featurizer setting other than its default is a UsageError where no
    dataset file is text, since none would read it."""
    unread = [f"{_flag(name)} {getattr(args, name)}" for name, default in FEATURIZER.items()
              if getattr(args, name) != default]
    datasets = list(dict.fromkeys(files[r] for r in ("data", "source", "target") if r in files))
    if unread and not any(map(dataio.is_text, datasets)):
        raise UsageError(f"{', '.join(unread)}: no text to featurize in {', '.join(datasets)}")
    digests = {path: file_sha256(path) for path in dict.fromkeys(files.values())}
    inputs = {"configs": [dataclasses.asdict(cfg) for cfg in configs],
              "hash_dim": args.hash_dim, "hash_seed": args.hash_seed, **extras}
    for role, path in files.items():
        inputs[role] = path
        inputs[f"{role}_sha256"] = digests[path]
    return inputs


@dataclasses.dataclass
class Run:
    """What a command computed, for `main` to name, write, print and exit:
    the inputs its run id hashes (see `run_inputs`), its results, the
    headline printed after the run id, the report.csv rows (none: no
    report.csv), its checkpoints by file name and how many seeds diverged."""

    inputs: dict
    results: dict
    headline: str
    rows: list[dict]
    checkpoints: dict[str, EncoderParams]
    diverged: int


def finish_run(args, run: Run, timing: dict) -> str:
    """Name `run` by a hash of its command and inputs and write it to
    <out-root>/<run-id>/: each checkpoint under ckpt/, report.json,
    report.csv (given rows) and a manifest.json that hashes exactly those
    files. Returns the run id. The directory is made by the first write, so
    a command that fails before this leaves nothing behind."""
    manifest = {"command": args.command, "inputs": run.inputs}
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    manifest["run_id"] = run_id = hashlib.sha256(payload).hexdigest()[:12]
    run_dir = os.path.join(out_root(args), run_id)
    names = [f"ckpt/{name}" for name in run.checkpoints] + ["report.json"]
    for name, model in run.checkpoints.items():
        save_checkpoint(os.path.join(run_dir, "ckpt", name), model)
    with write_atomic(os.path.join(run_dir, "report.json")) as fh:
        fh.write(json.dumps({"results": run.results, "timing": timing},
                            indent=2, sort_keys=True))
    if run.rows:
        dataio.write_csv(os.path.join(run_dir, "report.csv"), run.rows, list(run.rows[0]))
        names.append("report.csv")
    manifest["artifacts"] = {name: file_sha256(os.path.join(run_dir, name)) for name in names}
    with write_atomic(os.path.join(run_dir, "manifest.json")) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))
    return run_id


def _load_dataset(args, task: str, timing: dict, path: str | None = None,
                  splits: Sequence[str] | None = None) -> Dataset:
    """`path` (default --data) as a dataset of the objective's or checkpoint's
    `task`, holding the rows of `splits` (default all; see `data.load`); the
    seconds the load took are added to `timing["load_s"]`."""
    with timed(timing, "load_s"):
        return dataio.load(path or data_path(args), task=task, hash_dim=args.hash_dim,
                           hash_seed=args.hash_seed, splits=splits)


def _load_checkpoint(args, timing: dict, split: str) -> tuple[EncoderParams, Dataset]:
    """The --ckpt model, and the `split` rows of the --data dataset under its
    task (one output is regression, as classification needs 2 classes); their
    widths must agree."""
    model = load_checkpoint(args.ckpt)
    dataset = _load_dataset(args, "regression" if model.out_dim == 1 else "classification",
                            timing, splits=(split,))
    if model.input_dim != dataset.num_features:
        raise DataError(f"{args.ckpt}: checkpoint takes {model.input_dim} input features, "
                        f"the dataset has {dataset.num_features}")
    if model.out_dim != dataset.num_outputs:
        raise DataError(f"{args.ckpt}: checkpoint has {model.out_dim} outputs, "
                        f"the {dataset.task} dataset needs {dataset.num_outputs}")
    return model, dataset


def train_defaults() -> dict:
    """Each training flag (and --config key) with its default: the fields of
    TrainConfig and ObjectiveConfig, and seeds, which are not part of one
    run's config and default to "5" (seeds 0..4)."""
    defaults = {FLAG_NAMES.get(f.name, f.name): getattr(config, f.name)
                for config in (TrainConfig(), ObjectiveConfig())
                for f in dataclasses.fields(config) if f.name not in NOT_FLAGS}
    return {**defaults, "seeds": "5"}


def resolve_train_args(args) -> None:
    """Fill unset training flags from --config (json), else from
    `train_defaults`."""
    file_values: dict = {}
    defaults = train_defaults()
    if args.config:
        file_values = read_json_object(args.config)
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise DataError(f"{args.config}: unknown config keys {sorted(unknown)}")
    for key, value in file_values.items():
        # a value has its flag's type: seeds a string as on the command line,
        # a float field also an integer, and a bool only a bool
        expected = type(defaults[key])
        accepted = (int, float) if expected is float else expected
        if isinstance(value, bool) != (expected is bool) or not isinstance(value, accepted):
            raise UsageError(f"{args.config}: config key {key!r} must be "
                             f"{expected.__name__}, got {value!r}")
        if expected is float:  # as --lr 1 gives 1.0, so the run id agrees
            file_values[key] = float(value)
    for key, default in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, file_values.get(key, default))


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _train_configs(args, kinds: Sequence[str]) -> list[TrainConfig]:
    """One resolved TrainConfig per objective kind; a bad value, kinds of
    two tasks, or a setting that none of the kinds reads (a nonzero weight,
    a --structured-from other than sample, a --vib-latent-dim other than
    its default) is a UsageError. The run's data has the kinds' task.

    The kinds share the training flags, and each takes the weight flags it
    has (see `make_objective`).
    """
    defaults = train_defaults()
    settings = {f.name: getattr(args, FLAG_NAMES.get(f.name, f.name))
                for f in dataclasses.fields(TrainConfig) if f.name not in NOT_FLAGS}
    weights = {name: getattr(args, name) for name in WEIGHTS}
    with flag_check(*map(_flag, defaults)):
        configs = [TrainConfig(objective=make_objective(kind, structured_from=args.structured_from,
                                                        **weights), **settings)
                   for kind in kinds]
    if len({cfg.objective.task for cfg in configs}) > 1:
        raise UsageError(f"objectives {','.join(kinds)} mix classification and regression")
    # whether a kind reads each setting some kinds ignore: a weight, the batch
    # entropy's input (read with gamma) or the decoder's width
    specs = [OBJECTIVES[kind] for kind in kinds]
    read = {**{name: any(name in spec.weights for spec in specs) for name in WEIGHTS},
            "structured_from": any("gamma" in spec.weights for spec in specs),
            "vib_latent_dim": any(spec.decoder for spec in specs)}
    for name, is_read in read.items():
        value = getattr(args, name)
        if value != defaults[name] and not is_read:
            raise UsageError(f"{_flag(name)} {value} (flag or --config key): "
                             f"objective(s) {','.join(kinds)} do not read {name}")
    return configs


# each study's `data` perturbation (see data.RATIOS), default --ratios and help
STUDIES = {"noise-study": ("inject_label_noise", "0.1,0.2,0.3", "label-noise robustness table"),
           "ratio-study": ("subsample_train", "0.2,0.4,0.6,0.8,1.0", "limited-training-data table")}


# --- command handlers ---

def cmd_gen_data(args, timing: dict) -> Run:
    with flag_check("--classes", "--dim", "--per-class", "--sep", "--seed"):
        ds = dataio.gen_mixture(args.classes, args.dim, args.per_class, args.sep, args.seed)
    path = args.output or default_data_path(args)
    dataio.save(ds, path)
    inputs = {"classes": args.classes, "dim": args.dim, "per_class": args.per_class,
              "sep": args.sep, "seed": args.seed, "output": path}
    results = {"rows": ds.num_rows, "features": ds.num_features,
               "classes": ds.num_classes, "dataset_sha256": file_sha256(path)}
    return Run(inputs, results, f"wrote {ds.num_rows} rows to {path}", [], {}, 0)


def cmd_train(args, timing: dict) -> Run:
    [cfg] = _train_configs(args, [args.objective])
    dataset = _load_dataset(args, cfg.objective.task, timing)
    inputs = run_inputs(args, {"data": data_path(args)}, [cfg], seeds=args.seeds)
    with timed(timing, "wall_clock"):
        reports = train_jobs((dataset, cfg, seed) for seed in args.seeds)
    summary = summarize(reports)
    rows = [{"seed": r.seed, "best_epoch": r.best_epoch, "epochs_ran": r.epochs_ran,
             "diverged": r.diverged,
             **{f"test_{name}": value for name, value in r.test_metrics.items()
                if isinstance(value, float)}} for r in reports]
    return Run(inputs, {"summary": summary, "per_seed": [r.results_dict() for r in reports]},
               f"{summary['metric']} = {summary['mean']:.4f} +/- {summary['std']:.4f} "
               f"over seeds {args.seeds}",
               rows, {f"seed{r.seed}.npz": r.model for r in reports}, summary["diverged"])


def cmd_eval(args, timing: dict) -> Run:
    model, dataset = _load_checkpoint(args, timing, args.split)
    inputs = run_inputs(args, {"ckpt": args.ckpt, "data": data_path(args)},
                        split=args.split, task=dataset.task)
    dataset.require_rows(args.split)
    metrics = evaluate_split(model, dataset, args.split)
    return Run(inputs, {"metrics": metrics},
               "\n" + json.dumps(metrics, indent=2, sort_keys=True), [], {}, 0)


def cmd_sweep(args, timing: dict) -> Run:
    """Train each cell of the --betas x --gammas grid, which sets every weight
    (a nonzero --beta, --gamma or --cp-weight is a UsageError); --gammas is
    SWEEP_GRID for a kind with two weights and 0 for one with one by default.
    `trainer.sweep_cells` builds the cells, by its rule, before any read."""
    [cfg] = _train_configs(args, [args.objective])
    betas = parse_list(args.betas, "--betas")
    default_gammas = SWEEP_GRID if len(OBJECTIVES[args.objective].weights) > 1 else "0"
    gammas = parse_list(default_gammas if args.gammas is None else args.gammas, "--gammas")
    given = [_flag(name) for name in WEIGHTS if getattr(args, name)]  # the grid overrides them
    with flag_check(*given, "--betas", "--gammas"):
        cells = sweep_cells(cfg, betas, gammas)
    dataset = _load_dataset(args, cfg.objective.task, timing)
    inputs = run_inputs(args, {"data": data_path(args)}, [cfg],
                        betas=betas, gammas=gammas, seeds=args.seeds)
    results = sweep(dataset, cells, args.seeds)
    rows = results["rows"]
    # the best cell has the highest mean validation score (see trainer.sweep)
    return Run(inputs, results,
               f"best beta={results['best_beta']} gamma={results['best_gamma']} "
               f"(val {max(row['val_mean'] for row in rows):.4f})",
               rows, {}, sum(row["diverged"] for row in rows))


def cmd_study(args, timing: dict) -> Run:
    """noise-study and ratio-study: one table per perturbation in STUDIES."""
    perturb = STUDIES[args.command][0]
    kinds = parse_list(args.objectives, "--objectives", str, "objectives")
    with flag_check("--objectives"):  # an unknown kind, or one of a task the study lacks
        for kind in kinds:
            dataio.check_task(perturb, ObjectiveConfig(kind).task)
    configs = _train_configs(args, kinds)
    ratios = parse_list(args.ratios, "--ratios")
    with flag_check("--ratios"):
        for ratio in ratios:
            dataio.check_ratio(perturb, ratio)
    dataset = _load_dataset(args, configs[0].objective.task, timing)
    inputs = run_inputs(args, {"data": data_path(args)}, configs, ratios=ratios, seeds=args.seeds)
    rows = perturbation_study(dataset, configs, ratios, args.seeds, perturb)
    label, row_key = args.command.split("-")[0], dataio.RATIOS[perturb][0]
    headline = "".join(f"\n{row['objective']:>8} @ {label} {row[row_key]}: "
                       f"{row['mean']:.4f} +/- {row['std']:.4f}" for row in rows)
    return Run(inputs, {"rows": rows}, headline,
               [{k: v for k, v in row.items() if k != "values"} for row in rows], {},
               sum(row["diverged"] for row in rows))


def cmd_ood(args, timing: dict) -> Run:
    [cfg] = _train_configs(args, [args.objective])
    source = _load_dataset(args, "classification", timing, args.source)
    target = _load_dataset(args, "classification", timing, args.target, splits=("test",))
    mapping = dataio.read_label_mapping(args.mapping)
    files = {"source": args.source, "target": args.target, "mapping": args.mapping}
    inputs = run_inputs(args, files, [cfg], seeds=args.seeds)
    results = ood_run(source, target, mapping, cfg, args.seeds)
    return Run(inputs, results,
               f"target macro_f1 = {results['mean']:.4f} +/- {results['std']:.4f} "
               f"({results['evaluated_rows']} rows evaluated, "
               f"{results['excluded_rows']} excluded)",
               [], {}, sum(r["diverged"] for r in results["per_seed"]))


def cmd_repr_quality(args, timing: dict) -> Run:
    model, dataset = _load_checkpoint(args, timing, "test")
    inputs = run_inputs(args, {"ckpt": args.ckpt, "data": data_path(args)}, kmeans_seeds=args.seeds)
    try:
        results = representation_quality(model, dataset, args.seeds, timing)
    except DataError as err:  # what it rejects is this checkpoint on these rows
        raise DataError(f"{args.ckpt}: {err}") from None
    return Run(inputs, results, f"silhouette median {results['silhouette_median']:.4f}, "
                                f"ari median {results['ari_median']:.4f}", [], {}, 0)


def cmd_report(args, timing: dict) -> None:
    root = out_root(args)
    rows = []
    for name in sorted(os.listdir(root)) if os.path.isdir(root) else []:
        manifest_path = os.path.join(root, name, "manifest.json")
        report_path = os.path.join(root, name, "report.json")
        if not (os.path.isfile(manifest_path) and os.path.isfile(report_path)):
            continue
        manifest = read_json_object(manifest_path, "run_id", "command")
        results = read_json_object(report_path, "results")["results"]
        summary = results.get("summary", {}) if isinstance(results, dict) else None
        if not isinstance(summary, dict):
            raise DataError(f"{report_path}: results and their summary must be json objects")
        rows.append({"run_id": manifest["run_id"], "command": manifest["command"],
                     **{key: summary.get(key, "") for key in ("metric", "mean", "std")}})
    if not rows:
        print(f"no runs found under {root}")
        return
    path = os.path.join(root, "summary.csv")
    dataio.write_csv(path, rows, list(rows[0]))
    for row in rows:
        print(f"{row['run_id']}  {row['command']:<12} {row['metric']} {row['mean']}")
    print(f"wrote {path}")


def _add_common(parser: argparse.ArgumentParser, with_data: bool = True) -> None:
    parser.add_argument("--out", default=None, help="output root (default $SPC_OUT or ./out)")
    if with_data:
        parser.add_argument("--data", default=None, help="dataset file (jsonl or csv)")
        _add_featurizer(parser)


def _add_featurizer(parser: argparse.ArgumentParser) -> None:
    for name, default in FEATURIZER.items():
        parser.add_argument(_flag(name), type=int, default=default)


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    """--config and one flag per `train_defaults` key, its default in its
    help. The parsed defaults are None so that a --config file can fill the
    gaps; see resolve_train_args."""
    parser.add_argument("--config", default=None,
                        help="json file of training keys; explicit flags win")
    for key, default in train_defaults().items():
        kwargs = {"help": f"default: {default}"}
        if key == "seeds":
            kwargs["help"] = f"count ('5' -> 0..4) or explicit list ('0,1,2'); default: {default}"
        elif isinstance(default, bool):
            kwargs["action"] = argparse.BooleanOptionalAction
        else:
            kwargs["type"] = type(default)
        parser.add_argument(_flag(key), default=None, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spc",
        description="Stochastic label-space coding experiments: train, sweep, "
                    "perturbation studies, and representation-quality reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a Gaussian-mixture dataset")
    _add_common(p, with_data=False)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--per-class", type=int, default=200, dest="per_class")
    p.add_argument("--sep", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="dataset file to write")
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("train", help="train one objective over several seeds")
    _add_common(p)
    _add_train_flags(p)
    p.add_argument("--objective", default=ObjectiveConfig().kind, choices=list(OBJECTIVES))
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", default="test", choices=dataio.SPLITS)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("sweep", help="grid-search beta/gamma (or the ce_cp penalty weight)")
    _add_common(p)
    _add_train_flags(p)
    p.add_argument("--objective", default=ObjectiveConfig().kind,
                   choices=[kind for kind, spec in OBJECTIVES.items() if spec.weights])
    p.add_argument("--betas", default=SWEEP_GRID, help=f"default: {SWEEP_GRID}")
    p.add_argument("--gammas", default=None,
                   help=f"default: {SWEEP_GRID} for a kind with two weights (spc), "
                        f"0 for a kind with one")
    p.set_defaults(handler=cmd_sweep)

    for name, (_, ratios, help_text) in STUDIES.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        _add_train_flags(p)
        p.add_argument("--ratios", default=ratios)
        p.add_argument("--objectives", default="ce,spc")
        p.set_defaults(handler=cmd_study)

    p = sub.add_parser("ood", help="train on a source domain, test on a mapped target")
    _add_common(p, with_data=False)
    _add_train_flags(p)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--mapping", required=True,
                   help="csv with header source_label,target_label")
    p.add_argument("--objective", default=ObjectiveConfig().kind,
                   choices=list(CLASSIFICATION_KINDS))
    _add_featurizer(p)
    p.set_defaults(handler=cmd_ood)

    p = sub.add_parser("repr-quality", help="cluster test-split codes; report SC/ARI")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--seeds", default="5", help="k-means seeds (count or list)")
    p.set_defaults(handler=cmd_repr_quality)

    p = sub.add_parser("report", help="summarize all runs under the output root")
    _add_common(p, with_data=False)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_out_root(args)
        if hasattr(args, "hash_dim"):  # before any dataset is read
            with flag_check("--hash-dim", "--hash-seed"):
                dataio.check_featurizer(args.hash_dim, args.hash_seed)
        if hasattr(args, "epochs"):
            resolve_train_args(args)
        if hasattr(args, "seeds"):
            args.seeds = parse_seeds(args.seeds)
        timing: dict = {}
        run = args.handler(args, timing)
        if run is None:  # report prints its own table
            return EXIT_OK
        run_id = finish_run(args, run, timing)
        # eval's metrics and a study's rows start on the line below the run id
        sep = "" if run.headline.startswith("\n") else " "
        print(f"run {run_id}:{sep}{run.headline}")
        if run.diverged:
            print("warning: at least one seed diverged", file=sys.stderr)
            return EXIT_DIVERGED
        return EXIT_OK
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as err:  # OSError: a missing or unreadable file
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as err:  # an array the flags size past what can be allocated
        print(f"data error: out of memory: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
