"""A seeded mutation fuzzer of the exit-code contract of `spc.cli.main`.

A command exits 0 on success, 2 on a bad flag, 3 on bad data and 4 on a
diverged seed, and every failure prints exactly one stderr line (see the
`cli` docstring). Each case starts from small valid inputs: a feature and
a text dataset, each as jsonl and as csv (3 classes x 4 dims x 20 rows), a
checkpoint and a --config object. It mutates one of them, or sets one
integer flag to 0, -1, 2**63 or 2**70, and runs one command on them
in-process, with one epoch of one seed. An exit 2 that the flags alone
decide (a flag or a --config key) comes before any `data.load`; the one
exception is a featurizer flag on a feature dataset, which the dataset's
first row decides. A bad dataset or checkpoint is an exit 3, never 2, and
no exit 2 or 3 comes once a model has been built for training.

The seed and the case count are fixed here; changing either changes what
the test covers.
"""

from __future__ import annotations

import csv
import json
import random

import numpy as np
import pytest

from checkpoint_files import format_1_payload, format_2_parts, write_format_1, write_format_2
from spc import cli, trainer
from spc import data as dataio
from spc.data import gen_mixture
from spc.encoder import init_encoder, save_checkpoint

SEED = 32
CASES = 60  # per family

# values a JSON key may hold where another is expected
WEIRD = [None, True, False, [[1.0]], [], {}, 2 ** 70, 1e400, float("nan"), -1, 0, "", "x",
         "2.5", "é"]
INTEGER_VALUES = ["0", "-1", str(2 ** 63), str(2 ** 70)]
FEATURIZER_FLAGS = ("--hash-dim", "--hash-seed")
TEXT_DIM = 16  # the --hash-dim of every text case
# one epoch of one seed on a small model
RUN = ("--epochs", "1", "--patience", "1", "--seeds", "1", "--hidden-dim", "4",
       "--batch-size", "16")
CONFIG = {"epochs": 1, "patience": 1, "seeds": "1", "hidden_dim": 4, "batch_size": 16}


def _rows(kind: str) -> list[dict]:
    """The rows of the valid dataset of `kind` ("features" or "text")."""
    ds = gen_mixture(3, 4, 20, 3.0, seed=0)
    words = (["apple", "pear", "plum"], ["rock", "stone", "sand"], ["cat", "dog", "cow"])
    rng = random.Random(0)
    rows = []
    for i in range(ds.num_rows):
        label = int(ds.targets[i])
        row = ({"features": ds.features[i].tolist()} if kind == "features"
               else {"text": " ".join(rng.choice(words[label] + ["the", "a"]) for _ in range(5))})
        rows.append({**row, "label": str(label), "split": str(ds.split[i])})
    return rows


def _write_jsonl(path, rows) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _csv_table(rows: list[dict]) -> list[list[str]]:
    """The header and the cells of `rows` as a csv file holds them."""
    if "text" in rows[0]:
        return [["text", "label", "split"]] + [[r["text"], r["label"], r["split"]] for r in rows]
    dim = len(rows[0]["features"])
    return ([[f"f{j}" for j in range(dim)] + ["label", "split"]]
            + [[repr(v) for v in r["features"]] + [r["label"], r["split"]] for r in rows])


def _write_csv(path, table) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(table)


def _damage_bytes(rng: random.Random, path) -> str:
    """Truncate the file, put a stray byte in it, or put a byte-order mark
    at its start (which is valid) or inside it."""
    data = path.read_bytes()
    at = rng.randrange(len(data))
    how = rng.choice(["truncate", "stray byte", "leading bom", "inner bom"])
    if how == "truncate":
        data = data[:at]
    elif how == "stray byte":
        data = data[:at] + bytes([rng.randrange(256)]) + data[at:]
    elif how == "leading bom":
        data = b"\xef\xbb\xbf" + data
    else:
        data = data[:at] + b"\xef\xbb\xbf" + data[at:]
    path.write_bytes(data)
    return f"{how} at {at}"


TRAINING = ("train", "sweep", "noise-study", "ratio-study", "ood")


def _command(rng: random.Random, tmp_path, data, kind: str, commands=TRAINING + ("train",
             "eval", "repr-quality"), run=RUN) -> list[str]:
    """The argv of one of `commands`, drawn at random, on the dataset `data`
    of `kind`: a training command with the flags `run`, or one that scores
    a valid checkpoint."""
    command = rng.choice(commands)
    text = ("--hash-dim", str(TEXT_DIM)) if kind == "text" else ()
    if command in ("eval", "repr-quality"):
        ckpt = tmp_path / "model.npz"
        save_checkpoint(str(ckpt), init_encoder(TEXT_DIM if text else 4, 4, 3, rng=0))
        seeds = ("--seeds", "1") if command == "repr-quality" else ()
        return [command, "--data", str(data), "--ckpt", str(ckpt), *seeds, *text]
    if command == "ood":
        mapping = tmp_path / "map.csv"
        mapping.write_text("source_label,target_label\n0,0\n1,1\n2,2\n")
        return ["ood", "--source", str(data), "--target", str(data), "--mapping", str(mapping),
                *run, *text]
    extra = {"sweep": ("--objective", "spc", "--betas", "0.1", "--gammas", "0.1"),
             "noise-study": ("--objectives", "ce", "--ratios", "0.2"),
             "ratio-study": ("--objectives", "spc", "--ratios", "0.5")}.get(command, ())
    return [command, "--data", str(data), *run, *extra, *text]


def jsonl_case(rng: random.Random, tmp_path):
    kind = rng.choice(["features", "text"])
    rows = _rows(kind)
    path = tmp_path / "data.jsonl"
    how = rng.choice(["weird value", "weird feature", "dropped key", "dropped split", "bytes"])
    i = rng.randrange(len(rows))
    what = ""
    if how == "weird value":
        key = rng.choice(["features", "text", "label", "split", "extra"])
        rows[i][key] = rng.choice(WEIRD)
        what = f"row {i} {key}={rows[i][key]!r}"
    elif how == "weird feature" and kind == "features":
        j = rng.randrange(len(rows[i]["features"]))
        rows[i]["features"][j] = rng.choice(WEIRD)
        what = f"row {i} feature {j}={rows[i]['features'][j]!r}"
    elif how == "dropped key":
        key = rng.choice(list(rows[i]))
        del rows[i][key]
        what = f"row {i} without {key}"
    elif how == "dropped split":
        split = rng.choice(dataio.SPLITS)
        rows = [row for row in rows if row["split"] != split]
        what = f"no {split} rows"
    _write_jsonl(path, rows)
    if how == "bytes":
        what = _damage_bytes(rng, path)
    return _command(rng, tmp_path, path, kind), f"{kind} jsonl: {how}: {what}"


def csv_case(rng: random.Random, tmp_path):
    kind = rng.choice(["features", "text"])
    table = _csv_table(_rows(kind))
    path = tmp_path / "data.csv"
    how = rng.choice(["weird cell", "dropped cell", "extra cell", "broken header", "bytes"])
    i = rng.randrange(1, len(table))
    what = f"row {i}"
    if how == "weird cell":
        j = rng.randrange(len(table[i]))
        table[i][j] = rng.choice(["", "x", "nan", "inf", "-1e400", "true", "None", "1,5"])
        what = f"row {i} cell {j}={table[i][j]!r}"
    elif how == "dropped cell":
        del table[i][rng.randrange(len(table[i]))]
    elif how == "extra cell":
        table[i].append("7")
    elif how == "broken header":
        j = rng.randrange(len(table[0]))
        table[0][j] = rng.choice(["", "f9", "label", "text", "split", "F0", " f0"])
        what = f"column {j} named {table[0][j]!r}"
    _write_csv(path, table)
    if how == "bytes":
        what = _damage_bytes(rng, path)
    return _command(rng, tmp_path, path, kind), f"{kind} csv: {how}: {what}"


def config_case(rng: random.Random, tmp_path):
    path = tmp_path / "config.json"
    config = dict(CONFIG)
    how = rng.choice(["weird value", "weird value", "unknown key", "not an object", "bytes"])
    what = ""
    if how == "weird value":
        key = rng.choice(list(cli.train_defaults()))
        config[key] = rng.choice(WEIRD + [2 ** 63, 1, 0.5, "0", "3,3", "1,2"])
        what = f"{key}={config[key]!r}"
    elif how == "unknown key":
        config["hidden-dim"] = 4
    elif how == "not an object":
        config = rng.choice([[1], 1, "x", None])
        what = repr(config)
    path.write_text(json.dumps(config), encoding="utf-8")
    if how == "bytes":
        what = _damage_bytes(rng, path)
    data = tmp_path / "data.jsonl"
    _write_jsonl(data, _rows("features"))
    argv = _command(rng, tmp_path, data, "features", TRAINING, run=())
    return [*argv, "--config", str(path)], f"config: {how}: {what}"


def checkpoint_case(rng: random.Random, tmp_path):
    path = tmp_path / "ckpt.npz"
    model = init_encoder(4, 4, 3, rng=0)
    header, members = format_2_parts(model)
    how = rng.choice(["dropped member", "recast", "reshaped", "non-finite", "header key",
                      "arch value", "format 1", "bytes"])
    name = rng.choice(list(members))
    what = name
    if how == "dropped member":
        del members[name]
    elif how == "recast":
        dtype = rng.choice([np.float32, np.int64, np.bool_, np.complex128, np.float16, "U3"])
        members[name] = members[name].astype(dtype)
        what = f"{name} as {np.dtype(dtype)}"
    elif how == "reshaped":
        members[name] = members[name].reshape(-1)
    elif how == "non-finite":
        members[name].flat[rng.randrange(members[name].size)] = rng.choice([np.nan, np.inf])
    elif how == "header key":
        key = rng.choice(list(header))
        header[key] = rng.choice(WEIRD)
        what = f"{key}={header[key]!r}"
    elif how == "arch value":
        key = rng.choice(list(header["arch"]))
        header["arch"][key] = rng.choice(WEIRD + [2 ** 63])
        what = f"arch {key}={header['arch'][key]!r}"
    if how == "format 1":  # valid as written; one value of a tensor made weird, or none
        payload = format_1_payload(model)
        if rng.random() < 0.5:
            values = payload["tensors"][name]["values"]
            values[rng.randrange(len(values))] = rng.choice(WEIRD)
            what = f"{name} holds {values!r}"
        write_format_1(path, payload)
    else:
        write_format_2(path, header, members)
    if how == "bytes":
        what = _damage_bytes(rng, path)
    data = tmp_path / "data.jsonl"
    _write_jsonl(data, _rows("features"))
    command = rng.choice(["eval", "repr-quality"])
    seeds = ("--seeds", "1") if command == "repr-quality" else ()
    return ([command, "--data", str(data), "--ckpt", str(path), *seeds],
            f"{command} checkpoint: {how}: {what}")


# the integer flags of each command
INTEGER_FLAGS = {
    "train": ["--epochs", "--patience", "--batch-size", "--hidden-dim", "--vib-latent-dim",
              "--seeds", "--hash-dim", "--hash-seed"],
    "gen-data": ["--classes", "--dim", "--per-class", "--seed"],
    "repr-quality": ["--seeds", "--hash-dim", "--hash-seed"],
    "eval": ["--hash-dim", "--hash-seed"],
}


def flag_case(rng: random.Random, tmp_path):
    command = rng.choice(list(INTEGER_FLAGS))
    flag, value = rng.choice(INTEGER_FLAGS[command]), rng.choice(INTEGER_VALUES)
    kind = rng.choice(["features", "text"])
    data = tmp_path / "data.jsonl"
    _write_jsonl(data, _rows(kind))
    if command == "gen-data":
        argv = ["gen-data", "--classes", "3", "--dim", "4", "--per-class", "20",
                "--output", str(tmp_path / "mix.jsonl")]
    else:
        argv = _command(rng, tmp_path, data, kind, (command,))
    if flag == "--vib-latent-dim":
        argv += ["--objective", "vib"]
    # the mutated flag, placed last, overrides a value given before it
    return [*argv, flag, value], f"{command} {kind}: {flag} {value}"


FAMILIES = {"jsonl": jsonl_case, "csv": csv_case, "config": config_case,
            "checkpoint": checkpoint_case, "flag": flag_case}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_exit_is_a_documented_code_in_one_line(tmp_path, monkeypatch, capsys, family):
    loads = []
    load = dataio.load

    def recorded_load(*args, **kwargs):
        loads.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(dataio, "load", recorded_load)
    builds = []
    build_model = trainer.build_model

    def recorded_build_model(*args, **kwargs):
        builds.append(args)
        return build_model(*args, **kwargs)

    monkeypatch.setattr(trainer, "build_model", recorded_build_model)
    rng = random.Random(f"{SEED}-{family}")
    faults, codes = [], []
    for i in range(CASES):
        case_dir = tmp_path / f"case{i}"
        case_dir.mkdir()
        argv, what = FAMILIES[family](rng, case_dir)
        loads.clear()
        builds.clear()
        try:
            code = cli.main([*argv, "--out", str(case_dir / "out")])
        except (Exception, SystemExit) as err:  # nothing may escape
            faults.append(f"{what}: {type(err).__name__}: {err}")
            continue
        err = capsys.readouterr().err
        codes.append(code)
        if code not in (0, 2, 3, 4):
            faults.append(f"{what}: exit {code}")
        elif code != 0 and err.count("\n") != 1:
            faults.append(f"{what}: exit {code} with {err.count(chr(10))} stderr lines: {err!r}")
        elif code == 2 and family in ("jsonl", "csv", "checkpoint"):
            faults.append(f"{what}: a data fault exits 2: {err!r}")
        elif code == 2 and loads and argv[-2] not in FEATURIZER_FLAGS:
            faults.append(f"{what}: exit 2 after data.load: {err!r}")
        elif code in (2, 3) and builds:
            faults.append(f"{what}: exit {code} after training started: {err!r}")
    assert faults == []
    assert 0 in codes and len(set(codes)) > 1  # valid inputs run, and mutations fail
