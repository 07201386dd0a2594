import argparse
import ast
import builtins
import csv
import dataclasses
import functools
import json
import hashlib
import math
import os
import pathlib
import random
import struct
import subprocess
import sys
import warnings
import zipfile

import numpy as np
import pytest

from checkpoint_files import format_1_payload, format_2_parts, write_format_1, write_format_2
from spc import cli
from spc import data as dataio
from spc import trainer
from spc.data import gen_mixture, save
from spc.objectives import OBJECTIVES, ObjectiveConfig
from spc.encoder import (encode, init_encoder, init_vib, load_checkpoint, save_checkpoint,
                         tensor_shapes)
from spc.metrics import adjusted_rand_index, kmeans, silhouette
from spc.trainer import TrainConfig, train


def run_cli(*argv) -> int:
    return cli.main(list(argv))


# NumPy picks its float64 exp and log kernels by CPU feature at import: the
# AVX512F ones where its X86_V4 dispatch target is active, else the AVX2
# ones (as under NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"),
# and the two differ in the last bits of some values. So a digest of
# training that takes exp or log is pinned once for each of the two classes.
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
X86_V4 = bool(__cpu_features__.get("X86_V4"))
# the NumPy every pinned digest of this file was taken on
PINNED_NUMPY = "2.4.6"


def pinned_on(table: str) -> str:
    """A pinned digest's failure message: the table it read, and the NumPy
    that ran beside the one the tables were pinned on."""
    return f"{table} table, NumPy {np.__version__} (pinned on NumPy {PINNED_NUMPY})"


# the table of this machine's class
CLASS_TABLE = "AVX512F" if X86_V4 else "AVX2"


@pytest.fixture()
def out(tmp_path):
    return str(tmp_path / "out")


@pytest.fixture()
def data_file(tmp_path):
    path = str(tmp_path / "mix.jsonl")
    save(gen_mixture(2, 8, 50, 4.0, seed=200), path)
    return path


def regression_file(tmp_path):
    """A 3-feature regression jsonl on which --lr 1e200 diverges."""
    rng = np.random.default_rng(204)
    lines = []
    for i in range(30):
        split = "train" if i < 15 else ("val" if i < 22 else "test")
        lines.append(json.dumps({"features": rng.normal(size=3).tolist(),
                                 "label": float(rng.normal()), "split": split}))
    path = tmp_path / "reg.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_report(out_root, run_id):
    with open(os.path.join(out_root, run_id, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def command_of(out_root, run_id):
    with open(os.path.join(out_root, run_id, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)["command"]


def run_ids(out_root):
    return [d for d in os.listdir(out_root)
            if os.path.isdir(os.path.join(out_root, d))
            and os.path.isfile(os.path.join(out_root, d, "manifest.json"))]


class TestPipeline:
    def test_gen_data_then_train(self, out):
        assert run_cli("gen-data", "--out", out, "--classes", "4", "--dim", "32",
                       "--per-class", "50", "--sep", "3", "--seed", "1") == 0
        assert run_cli("train", "--out", out, "--objective", "spc",
                       "--beta", "0.1", "--gamma", "0.1",
                       "--epochs", "3", "--patience", "3", "--batch-size", "32",
                       "--hidden-dim", "16", "--seeds", "2") == 0
        train_runs = [r for r in run_ids(out) if command_of(out, r) == "train"]
        assert len(train_runs) == 1
        report = read_report(out, train_runs[0])
        assert report["results"]["summary"]["metric"] == "macro_f1"
        assert 0.0 <= report["results"]["summary"]["mean"] <= 1.0
        ckpts = os.listdir(os.path.join(out, train_runs[0], "ckpt"))
        assert sorted(ckpts) == ["seed0.npz", "seed1.npz"]

    def test_train_twice_identical_results(self, out, data_file):
        argv = ("train", "--out", out, "--data", data_file, "--objective", "spc",
                "--beta", "0.1", "--gamma", "0.1", "--epochs", "3", "--patience", "3",
                "--batch-size", "16", "--hidden-dim", "16", "--seeds", "2")
        assert run_cli(*argv) == 0
        run_id = run_ids(out)[0]
        first = read_report(out, run_id)["results"]
        assert run_cli(*argv) == 0
        second = read_report(out, run_id)["results"]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_gen_data_csv_trains_as_its_jsonl(self, out, tmp_path):
        results = {}
        for fmt in ("jsonl", "csv"):
            path = str(tmp_path / f"mix.{fmt}")
            assert run_cli("gen-data", "--out", out, "--classes", "3", "--dim", "4",
                           "--per-class", "20", "--seed", "3", "--output", path) == 0
            root = f"{out}_{fmt}"
            assert run_cli("train", "--out", root, "--data", path, "--objective", "spc",
                           "--beta", "0.1", "--gamma", "0.1", "--epochs", "3", "--patience", "3",
                           "--batch-size", "16", "--hidden-dim", "8", "--seeds", "2") == 0
            [run_id] = run_ids(root)
            results[fmt] = read_report(root, run_id)["results"]
        with open(tmp_path / "mix.csv", newline="") as fh:
            assert next(csv.reader(fh)) == ["f0", "f1", "f2", "f3", "label", "split"]
        want, got = (dataio.load(str(tmp_path / f"mix.{fmt}")) for fmt in ("jsonl", "csv"))
        assert got.features.tobytes() == want.features.tobytes()
        assert got.targets.tobytes() == want.targets.tobytes()
        assert got.split.tolist() == want.split.tolist()
        assert got.label_names == want.label_names
        assert json.dumps(results["csv"], sort_keys=True) == json.dumps(results["jsonl"],
                                                                        sort_keys=True)

    def test_input_dataset_never_mutated(self, out, data_file):
        before = pathlib.Path(data_file).read_bytes()
        run_cli("train", "--out", out, "--data", data_file, "--objective", "ce",
                "--epochs", "2", "--patience", "2", "--batch-size", "16",
                "--hidden-dim", "8", "--seeds", "1")
        assert pathlib.Path(data_file).read_bytes() == before


class TestEvalAndReprQuality:
    def test_eval_checkpoint(self, out, data_file):
        run_cli("train", "--out", out, "--data", data_file, "--objective", "ce",
                "--epochs", "2", "--patience", "2", "--batch-size", "16",
                "--hidden-dim", "8", "--seeds", "1")
        run_id = run_ids(out)[0]
        ckpt = os.path.join(out, run_id, "ckpt", "seed0.npz")
        assert run_cli("eval", "--out", out, "--data", data_file,
                       "--ckpt", ckpt, "--split", "test") == 0
        eval_runs = [r for r in run_ids(out) if command_of(out, r) == "eval"]
        metrics = read_report(out, eval_runs[0])["results"]["metrics"]
        assert "macro_f1" in metrics

    def test_repr_quality(self, out, data_file):
        run_cli("train", "--out", out, "--data", data_file, "--objective", "spc",
                "--beta", "0.1", "--gamma", "0.1", "--epochs", "2", "--patience", "2",
                "--batch-size", "16", "--hidden-dim", "8", "--seeds", "1")
        run_id = run_ids(out)[0]
        ckpt = os.path.join(out, run_id, "ckpt", "seed0.npz")
        assert run_cli("repr-quality", "--out", out, "--data", data_file,
                       "--ckpt", ckpt, "--seeds", "3") == 0
        rq = [r for r in run_ids(out) if command_of(out, r) == "repr-quality"]
        report = read_report(out, rq[0])
        results = report["results"]
        assert -1.0 <= results["silhouette_median"] <= 1.0
        assert -1.0 <= results["ari_median"] <= 1.0
        assert len(results["per_seed"]) == 3
        # timing sits beside the results; the results are those of scoring
        # one k-means seed at a time
        assert sorted(report["timing"]) == ["kmeans_s", "load_s", "silhouette_s"]
        assert all(v >= 0.0 for v in report["timing"].values())
        dataset = dataio.load(data_file)
        rows = dataset.indices("test")
        reps = encode(load_checkpoint(ckpt), dataset.features[rows])
        gold = dataset.targets[rows]
        assigns = [kmeans(reps, dataset.num_classes, seed=seed) for seed in range(3)]
        assert results["per_seed"] == [
            {"seed": seed, "silhouette": silhouette(reps, assign),
             "ari": adjusted_rand_index(assign, gold)} for seed, assign in enumerate(assigns)]


class TestStudies:
    def test_noise_study_layout(self, out, data_file):
        assert run_cli("noise-study", "--out", out, "--data", data_file,
                       "--ratios", "0.1,0.2,0.3", "--objectives", "ce,spc",
                       "--beta", "0.1", "--gamma", "0.1", "--epochs", "2",
                       "--patience", "2", "--batch-size", "16", "--hidden-dim", "8",
                       "--seeds", "2") == 0
        run_id = run_ids(out)[0]
        rows = read_report(out, run_id)["results"]["rows"]
        assert len(rows) == 6  # 2 objectives x 3 ratios
        cells = {(r["objective"], r["noise_ratio"]) for r in rows}
        assert cells == {(o, r) for o in ("ce", "spc") for r in (0.1, 0.2, 0.3)}
        for row in rows:
            assert "mean" in row and "std" in row
        csv_path = os.path.join(out, run_id, "report.csv")
        with open(csv_path, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 6

    def test_ratio_study_rows(self, out, data_file):
        assert run_cli("ratio-study", "--out", out, "--data", data_file,
                       "--ratios", "0.5,1.0", "--objectives", "ce",
                       "--epochs", "2", "--patience", "2", "--batch-size", "16",
                       "--hidden-dim", "8", "--seeds", "2") == 0
        rows = read_report(out, run_ids(out)[0])["results"]["rows"]
        assert [r["train_ratio"] for r in rows] == [0.5, 1.0]

    @pytest.mark.parametrize("command, perturbation, ratios", [
        ("noise-study", "inject_label_noise", (0.1, 0.3)),
        ("ratio-study", "subsample_train", (0.5, 1.0)),
    ])
    def test_one_perturbation_call_per_ratio_and_seed(self, out, data_file, monkeypatch,
                                                      command, perturbation, ratios):
        # the benchmark tracer times `data.perturb` by wrapping these module
        # attributes, so the studies must call them through the module
        calls = []
        original = getattr(dataio, perturbation)

        def counted(ds, ratio, seed):
            calls.append((ratio, seed))
            return original(ds, ratio, seed)

        monkeypatch.setattr(dataio, perturbation, counted)
        assert run_cli(command, "--out", out, "--data", data_file,
                       "--ratios", ",".join(map(str, ratios)), "--objectives", "ce",
                       "--epochs", "1", "--patience", "1", "--batch-size", "16",
                       "--hidden-dim", "4", "--seeds", "3,5") == 0
        assert sorted(calls) == [(r, s) for r in ratios for s in (3, 5)]

    def test_sweep_command(self, out, data_file):
        assert run_cli("sweep", "--out", out, "--data", data_file,
                       "--objective", "spc", "--betas", "0.01,0.1",
                       "--gammas", "0.1", "--epochs", "2", "--patience", "2",
                       "--batch-size", "16", "--hidden-dim", "8", "--seeds", "1") == 0
        results = read_report(out, run_ids(out)[0])["results"]
        assert len(results["rows"]) == 2
        assert results["best_beta"] in (0.01, 0.1)

    def test_report_command(self, out, data_file, capsys):
        run_cli("train", "--out", out, "--data", data_file, "--objective", "ce",
                "--epochs", "2", "--patience", "2", "--batch-size", "16",
                "--hidden-dim", "8", "--seeds", "1")
        assert run_cli("report", "--out", out) == 0
        assert os.path.isfile(os.path.join(out, "summary.csv"))


class TestOod:
    def _files(self, tmp_path):
        source = gen_mixture(2, 8, 40, 4.0, seed=201)
        target = gen_mixture(4, 8, 40, 4.0, seed=202)
        sp = str(tmp_path / "source.jsonl")
        tp = str(tmp_path / "target.jsonl")
        save(source, sp)
        save(target, tp)
        return sp, tp

    def test_identity_ood_equals_plain_eval(self, out, tmp_path, data_file):
        mapping = tmp_path / "identity.csv"
        mapping.write_text("source_label,target_label\n0,0\n1,1\n")
        assert run_cli("ood", "--out", out, "--source", data_file,
                       "--target", data_file, "--mapping", str(mapping),
                       "--objective", "ce", "--epochs", "2", "--patience", "2",
                       "--batch-size", "16", "--hidden-dim", "8", "--seeds", "1") == 0
        results = read_report(out, run_ids(out)[0])["results"]
        assert results["excluded_rows"] == 0

        from spc.data import load
        ds = load(data_file)
        cfg = TrainConfig(objective=ObjectiveConfig(kind="ce"), epochs=2, patience=2,
                          batch_size=16, hidden_dim=8)
        plain = train(ds, cfg, seed=0)
        assert results["per_seed"][0]["macro_f1"] == pytest.approx(
            plain.test_metrics["macro_f1"], abs=1e-15)

    def test_coarse_to_fine_restricts_rows(self, out, tmp_path):
        sp, tp = self._files(tmp_path)
        mapping = tmp_path / "coarse2fine.csv"
        mapping.write_text("source_label,target_label\n0,0\n0,1\n1,2\n")
        assert run_cli("ood", "--out", out, "--source", sp, "--target", tp,
                       "--mapping", str(mapping), "--objective", "ce",
                       "--epochs", "2", "--patience", "2", "--batch-size", "16",
                       "--hidden-dim", "8", "--seeds", "1") == 0
        results = read_report(out, run_ids(out)[0])["results"]
        # target has 4 classes with 8 test rows each; label "3" is unmapped
        assert results["excluded_rows"] == 8
        assert results["evaluated_rows"] == 24

    def test_mapping_with_unknown_source_label(self, out, tmp_path):
        sp, tp = self._files(tmp_path)
        mapping = tmp_path / "bad.csv"
        mapping.write_text("source_label,target_label\nnope,0\n")
        assert run_cli("ood", "--out", out, "--source", sp, "--target", tp,
                       "--mapping", str(mapping), "--objective", "ce",
                       "--epochs", "2", "--patience", "2", "--batch-size", "16",
                       "--hidden-dim", "8", "--seeds", "1") == cli.EXIT_DATA


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("train", "--seeds", "0"),
        ("train", "--seeds", ","),
        ("noise-study", "--objectives", ","),
        ("train", "--seeds", "abc"),
        ("train", "--beta", "-1"),
        ("train", "--batch-size", "1"),
        ("train", "--epochs", "3"),
        ("train", "--seeds=-1,3"),
        ("train", "--seeds", "3,3"),
        ("noise-study", "--ratios", "0.1,1.5"),
        ("ratio-study", "--ratios", "0"),
        ("train", "--lr", "-1"),
        ("train", "--weight-decay", "-5"),
        ("train", "--hidden-dim", "0"),
        ("train", "--objective", "vib", "--vib-latent-dim", "0"),
        ("train", "--lr", "inf"),
        ("train", "--beta", "nan"),
        ("train", "--objective", "ce_cp", "--cp-weight", "inf"),
        ("noise-study", "--objectives", "ce,mse"),
        ("noise-study", "--objectives", "mse"),  # label noise needs classification
        ("train", "--structured-from", "logits"),
        ("train", "--hash-dim", "1"),
        ("train", "--hash-seed", "-1"),
        ("train", "--hash-seed", str(2**64)),
        ("sweep", "--hash-dim", "0"),
        ("ratio-study", "--hash-seed", str(2**64)),
        ("ood", "--hash-seed", "-1"),
        ("ood", "--hash-dim", "1"),
        ("eval", "--hash-dim", "1"),
        ("eval", "--hash-seed", str(2**64 + 5)),
        ("repr-quality", "--hash-seed", "-3"),
        # every sweep cell's weights are checked before any cell trains
        ("sweep", "--betas", "0.1,-1"),
        ("sweep", "--betas", "nan"),
        ("sweep", "--gammas", "1e999"),
        ("sweep", "--objective", "ce_cp", "--betas", "-0.5"),
    ])
    def test_bad_flag_value_exits_2_before_training(self, out, data_file, argv, monkeypatch,
                                                     capsys):
        def no_load(*args, **kwargs):
            raise AssertionError("a dataset was read")

        monkeypatch.setattr(cli, "_load_dataset", no_load)
        monkeypatch.setattr(cli, "load_checkpoint", no_load)
        # the case's own flags come last, so they win over the fixed ones
        command, *flags = argv
        fixed = {"ood": ("--source", data_file, "--target", data_file,
                         "--mapping", data_file, "--hidden-dim", "4"),
                 "eval": ("--data", data_file, "--ckpt", data_file),
                 "repr-quality": ("--data", data_file, "--ckpt", data_file),
                 }.get(command, ("--data", data_file, "--hidden-dim", "4"))
        assert run_cli(command, "--out", out, *fixed, *flags) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error:")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key, value", [
        ("seeds", 2), ("epochs", "2"), ("epochs", 2.0), ("epochs", True),
        ("lr", "0.1"), ("layer_norm", 1), ("structured_from", None),
    ])
    def test_config_value_of_wrong_type_exits_2(self, out, data_file, tmp_path, key, value,
                                                capsys):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({key: value}))
        assert run_cli("train", "--out", out, "--data", data_file,
                       "--config", str(config)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error:") and repr(key) in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags", [
        ("--per-class", "-1"), ("--per-class", "0"), ("--per-class", "1"), ("--per-class", "2"),
        ("--per-class", "3"), ("--classes", "1"),
        ("--classes", "4", "--dim", "3"), ("--sep", "-1"), ("--seed", "-1"),
    ])
    def test_bad_gen_data_flag_exits_2_before_writing(self, out, tmp_path, flags, capsys):
        output = tmp_path / "mix.jsonl"
        assert run_cli("gen-data", "--out", out, "--output", str(output), *flags) \
            == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error:")
        assert not output.exists() and not os.path.exists(out)

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--no-such-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["train", "eval", "sweep", "noise-study", "ratio-study",
                                         "ood", "repr-quality"])
    def test_no_command_takes_a_task_flag(self, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--task", "regression"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["train", "eval", "gen-data", "report"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_output_root_that_cannot_be_a_directory_exits_2_first(
            self, tmp_path, data_file, monkeypatch, command, below, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "train_jobs", never)
        monkeypatch.setattr(cli, "_load_dataset", never)
        monkeypatch.setattr(cli, "load_checkpoint", never)
        monkeypatch.setattr(dataio, "gen_mixture", never)
        afile = tmp_path / "afile"
        afile.write_text("")
        root = afile / "runs" if below else afile
        flags = {"train": ("--data", data_file, "--seeds", "1"),
                 "eval": ("--data", data_file, "--ckpt", data_file)}.get(command, ())
        assert run_cli(command, "--out", str(root), *flags) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: output root {root}: {afile} is not a directory\n"

    @pytest.mark.parametrize("name, text", [
        pytest.param("report.json", "{bad", id="report-not-json"),
        pytest.param("manifest.json", "{bad", id="manifest-not-json"),
        pytest.param("report.json", "[1]", id="report-not-an-object"),
        pytest.param("report.json", '{"timing": {}}', id="report-without-results"),
        pytest.param("report.json", '{"results": [1]}', id="results-not-an-object"),
        pytest.param("report.json", '{"results": {"summary": 5}}', id="summary-not-an-object"),
        pytest.param("manifest.json", '{"command": "gen-data"}', id="manifest-without-run-id"),
    ])
    def test_report_on_a_damaged_run_exits_3_naming_the_file(self, out, tmp_path, name, text,
                                                             capsys):
        assert run_cli("gen-data", "--out", out, "--classes", "2", "--dim", "2",
                       "--per-class", "5", "--output", str(tmp_path / "d.jsonl")) == 0
        [run_id] = run_ids(out)
        path = os.path.join(out, run_id, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        capsys.readouterr()
        assert run_cli("report", "--out", out) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"data error: {path}: ")

    def test_a_dataset_that_grows_while_read_exits_3(self, out, data_file, monkeypatch, capsys):
        monkeypatch.setattr(dataio, "_line_count", lambda _: 5)  # the count of an older file
        assert run_cli("train", "--out", out, "--data", data_file, "--objective", "ce",
                       "--epochs", "1", "--patience", "1", "--seeds", "1") == cli.EXIT_DATA
        assert capsys.readouterr().err == (f"data error: {data_file}: "
                                           f"the file grew while it was read\n")

    @pytest.mark.parametrize("split", ["val", "test"])
    @pytest.mark.parametrize("command", [("train", "--objective", "mse"),
                                         ("sweep", "--objective", "mse_pc", "--betas", "0.1")])
    def test_constant_regression_targets_exit_3_before_training(self, out, tmp_path, monkeypatch,
                                                                capsys, split, command):
        """A regression val or test split whose targets are all equal has no
        defined correlation: a data error, not a divergence, before any model."""
        rng = np.random.default_rng(39)
        tags = ["train"] * 40 + ["val"] * 10 + ["test"] * 10
        path = tmp_path / "flat.jsonl"
        path.write_text("".join(json.dumps({"features": rng.normal(size=3).tolist(),
                                            "label": 0.5 if tag == split else float(rng.normal()),
                                            "split": tag}) + "\n" for tag in tags))
        monkeypatch.setattr(trainer, "build_model", None)  # no model may be built
        assert run_cli(*command, "--out", out, "--data", str(path), "--epochs", "1",
                       "--patience", "1", "--seeds", "1") == cli.EXIT_DATA
        assert capsys.readouterr().err == (f"data error: every {split!r} target is 0.5; "
                                           f"a correlation needs two distinct values\n")

    def test_missing_data_exits_3(self, out):
        assert run_cli("train", "--out", out, "--data", "/does/not/exist.jsonl",
                       "--objective", "ce") == cli.EXIT_DATA

    def test_divergence_exits_4(self, out, tmp_path):
        with np.errstate(all="ignore"):
            code = run_cli("train", "--out", out, "--data", regression_file(tmp_path),
                           "--objective", "mse", "--lr", "1e200", "--epochs", "3",
                           "--patience", "3", "--batch-size", "8", "--hidden-dim", "8",
                           "--seeds", "1")
        assert code == cli.EXIT_DIVERGED
        assert read_report(out, run_ids(out)[0])["results"]["summary"]["diverged"] == 1

    @pytest.mark.parametrize("argv", [
        ("sweep", "--objective", "mse_pc", "--betas", "0.1,1"),
        ("ratio-study", "--objectives", "mse", "--ratios", "0.5,1"),
        # a constant prediction leaves the validation correlation undefined (NaN)
        ("ratio-study", "--objectives", "mse_vib", "--ratios", "0.5,1"),
    ])
    def test_diverged_seeds_counted_per_row_and_exit_4(self, out, tmp_path, argv, capsys):
        with np.errstate(all="ignore"):
            code = run_cli(*argv, "--out", out, "--data", regression_file(tmp_path),
                           "--lr", "1e200", "--epochs", "3", "--patience", "3",
                           "--batch-size", "8", "--hidden-dim", "8", "--seeds", "2")
        assert code == cli.EXIT_DIVERGED
        assert "warning: at least one seed diverged" in capsys.readouterr().err
        run_id = run_ids(out)[0]
        assert [row["diverged"] for row in read_report(out, run_id)["results"]["rows"]] == [2, 2]
        with open(os.path.join(out, run_id, "report.csv"), newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[-1] == "diverged" and [row[-1] for row in rows] == ["2", "2"]


class TestTaskFromObjectiveOrCheckpoint:
    """The objective's task, or the checkpoint's (one output is regression),
    says how the dataset's labels are read."""

    RUN_FLAGS = ("--epochs", "2", "--patience", "2", "--batch-size", "8", "--hidden-dim", "4",
                 "--seeds", "1")

    @pytest.mark.parametrize("argv", [
        ("train", "--objective", "mse"),
        ("sweep", "--objective", "mse_pc", "--betas", "0.01,0.1"),
    ])
    def test_regression_objective_reads_regression_labels(self, out, tmp_path, monkeypatch,
                                                          argv):
        tasks = []
        original = trainer.train

        def recorded(dataset, cfg, seed):
            tasks.append(dataset.task)
            return original(dataset, cfg, seed)

        monkeypatch.setattr(trainer, "train", recorded)
        assert run_cli(*argv, "--out", out, "--data", regression_file(tmp_path),
                       *self.RUN_FLAGS) == 0
        assert tasks and set(tasks) == {"regression"}

    def test_eval_of_a_regression_checkpoint(self, out, tmp_path):
        path = regression_file(tmp_path)
        assert run_cli("train", "--out", out, "--data", path, "--objective", "mse",
                       *self.RUN_FLAGS) == 0
        ckpt = os.path.join(out, _single_run_id(out), "ckpt", "seed0.npz")
        eval_out = str(tmp_path / "eval_out")
        assert run_cli("eval", "--out", eval_out, "--data", path, "--ckpt", ckpt) == 0
        run_id = _single_run_id(eval_out)
        assert set(read_report(eval_out, run_id)["results"]["metrics"]) == {"pearson", "spearman"}
        with open(os.path.join(eval_out, run_id, "manifest.json"), encoding="utf-8") as fh:
            assert json.load(fh)["inputs"]["task"] == "regression"

    def test_repr_quality_of_a_regression_checkpoint_exits_3(self, out, tmp_path, capsys):
        ckpt = str(tmp_path / "regressor.json")
        save_checkpoint(ckpt, init_encoder(3, 4, 1, rng=0))
        assert run_cli("repr-quality", "--out", out, "--data", regression_file(tmp_path),
                       "--ckpt", ckpt) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("data error:")
        assert "defined for classification" in err
        assert not os.path.exists(out)


def diverge_second_run(monkeypatch):
    """Make the second training run of a command diverge at its first step."""
    original = trainer.adamax_step
    runs = []

    def step(values, grad, state, **kwargs):
        if state.t == 0:  # a fresh optimizer: a new run begins
            runs.append(state)
        if len(runs) == 2:
            return False
        return original(values, grad, state, **kwargs)

    monkeypatch.setattr(trainer, "adamax_step", step)


class TestDivergedSeeds:
    def test_noise_study_counts_the_diverged_seed(self, out, data_file, monkeypatch):
        diverge_second_run(monkeypatch)
        assert run_cli("noise-study", "--out", out, "--data", data_file,
                       "--objectives", "ce", "--ratios", "0.1,0.2", "--epochs", "1",
                       "--patience", "1", "--batch-size", "16", "--hidden-dim", "4",
                       "--seeds", "2") == cli.EXIT_DIVERGED
        rows = read_report(out, run_ids(out)[0])["results"]["rows"]
        assert [row["diverged"] for row in rows] == [1, 0]

    def test_ood_flags_the_diverged_seed(self, out, tmp_path, data_file, monkeypatch):
        diverge_second_run(monkeypatch)
        mapping = tmp_path / "identity.csv"
        mapping.write_text("source_label,target_label\n0,0\n1,1\n")
        assert run_cli("ood", "--out", out, "--source", data_file, "--target", data_file,
                       "--mapping", str(mapping), "--objective", "ce", "--epochs", "1",
                       "--patience", "1", "--batch-size", "16", "--hidden-dim", "4",
                       "--seeds", "3") == cli.EXIT_DIVERGED
        per_seed = read_report(out, run_ids(out)[0])["results"]["per_seed"]
        assert [r["diverged"] for r in per_seed] == [False, True, False]

    @pytest.mark.parametrize("objective, weights", [("mse_vib", ("--beta", "1")), ("mse", ())])
    def test_a_diverging_run_prints_one_stderr_line(self, out, tmp_path, capsys, objective,
                                                     weights):
        # the overflows of a diverging run are the divergence it reports,
        # not numpy RuntimeWarnings of their own
        rng = np.random.default_rng(0)
        features = rng.normal(size=(60, 4))
        path = tmp_path / "sum.jsonl"
        path.write_text("".join(
            json.dumps({"features": x.tolist(), "label": float(x.sum()),
                        "split": "train" if i < 36 else ("val" if i < 48 else "test")}) + "\n"
            for i, x in enumerate(features)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("train", "--out", out, "--data", str(path), "--objective", objective,
                           *weights, "--lr", "1e200", "--epochs", "3", "--patience", "3",
                           "--seeds", "1", "--batch-size", "8", "--hidden-dim", "8")
        assert code == cli.EXIT_DIVERGED
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == "warning: at least one seed diverged\n"


class TestOneTrainCallPerRun:
    """Each multi-run command trains each (cell, seed) once, in cell order;
    the benchmark tracer counts runs by wrapping `spc.trainer.train`."""

    RUN_FLAGS = ("--epochs", "1", "--patience", "1", "--batch-size", "16",
                 "--hidden-dim", "4", "--seeds", "3,5")

    @staticmethod
    def train_split(dataset):
        """The bytes of the train split's features and targets."""
        rows = dataset.indices("train")
        return dataset.features[rows].tobytes(), dataset.targets[rows].tobytes()

    @pytest.mark.parametrize("argv, cells", [
        (("train", "--objective", "ce"), [("ce", 0.0, 0.0, None, None)]),
        (("sweep", "--objective", "spc", "--betas", "0.01,0.1", "--gammas", "0.1,1"),
         [("spc", b, g, None, None) for b in (0.01, 0.1) for g in (0.1, 1.0)]),
        (("noise-study", "--objectives", "ce,spc", "--beta", "0.1", "--gamma", "0.2",
          "--ratios", "0.1,0.3"),
         [(k, b, g, "inject_label_noise", r) for k, b, g in (("ce", 0.0, 0.0),
                                                               ("spc", 0.1, 0.2))
          for r in (0.1, 0.3)]),
        (("ratio-study", "--objectives", "ce", "--ratios", "0.5,1"),
         [("ce", 0.0, 0.0, "subsample_train", r) for r in (0.5, 1.0)]),
        (("ood", "--objective", "ce"), [("ce", 0.0, 0.0, None, None)]),
    ])
    def test_one_call_per_cell_and_seed(self, out, tmp_path, data_file, monkeypatch,
                                        argv, cells):
        calls = []
        original = trainer.train

        def counted(dataset, cfg, seed):
            calls.append((cfg.objective.kind, cfg.objective.beta, cfg.objective.gamma, seed,
                          self.train_split(dataset)))
            return original(dataset, cfg, seed)

        monkeypatch.setattr(trainer, "train", counted)
        if argv[0] == "ood":
            mapping = tmp_path / "identity.csv"
            mapping.write_text("source_label,target_label\n0,0\n1,1\n")
            files = ("--source", data_file, "--target", data_file, "--mapping", str(mapping))
        else:
            files = ("--data", data_file)
        assert run_cli(*argv, *files, "--out", out, *self.RUN_FLAGS) == 0
        ds = dataio.load(data_file)
        expected = [(kind, beta, gamma, seed,
                     self.train_split(getattr(dataio, perturb)(ds, ratio, seed) if perturb else ds))
                    for kind, beta, gamma, perturb, ratio in cells for seed in (3, 5)]
        assert calls == expected


class TestConfigFile:
    def test_config_file_fills_defaults(self, out, data_file, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"epochs": 2, "patience": 2, "batch_size": 16,
                                      "hidden_dim": 8, "seeds": "1", "beta": 0.1,
                                      "gamma": 0.1}))
        assert run_cli("train", "--out", out, "--data", data_file,
                       "--objective", "spc", "--config", str(config)) == 0
        report = read_report(out, run_ids(out)[0])
        cfg = report["results"]["per_seed"][0]["config"]
        assert cfg["epochs"] == 2 and cfg["hidden_dim"] == 8
        assert cfg["objective"]["beta"] == 0.1

    def test_float_keys_accept_integers(self, out, data_file, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"epochs": 1, "patience": 1, "batch_size": 16,
                                      "hidden_dim": 4, "seeds": "1", "lr": 1,
                                      "weight_decay": 0, "layer_norm": True}))
        assert run_cli("train", "--out", out, "--data", data_file,
                       "--objective", "ce", "--config", str(config)) == 0

    def test_integer_for_a_float_key_gives_the_flag_run_id(self, tmp_path, data_file):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"lr": 1}))
        ids = []
        for i, extra in enumerate((("--config", str(config)), ("--lr", "1"))):
            out = str(tmp_path / f"out{i}")
            assert run_cli("train", "--out", out, "--data", data_file, "--objective", "ce",
                           "--epochs", "1", "--patience", "1", "--batch-size", "16",
                           "--hidden-dim", "4", "--seeds", "1", *extra) == 0
            ids.append(_single_run_id(out))
        assert ids[0] == ids[1]

    def test_explicit_flag_beats_config_file(self, out, data_file, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"epochs": 2, "patience": 2, "batch_size": 16,
                                      "hidden_dim": 8, "seeds": "1"}))
        assert run_cli("train", "--out", out, "--data", data_file,
                       "--objective", "ce", "--config", str(config),
                       "--hidden-dim", "4") == 0
        report = read_report(out, run_ids(out)[0])
        assert report["results"]["per_seed"][0]["config"]["hidden_dim"] == 4

    def test_a_byte_order_mark_is_dropped(self, out, data_file, tmp_path):
        config = tmp_path / "train.json"
        config.write_text("\ufeff" + json.dumps({"epochs": 1, "patience": 1, "batch_size": 16,
                                                  "hidden_dim": 4, "seeds": "1"}),
                          encoding="utf-8")
        assert run_cli("train", "--out", out, "--data", data_file,
                       "--objective", "ce", "--config", str(config)) == 0
        report = read_report(out, run_ids(out)[0])
        assert report["results"]["per_seed"][0]["config"]["hidden_dim"] == 4

    def test_help_names_each_default(self, capsys):
        with pytest.raises(SystemExit) as exited:
            run_cli("train", "--help")
        assert exited.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for flag, default in (("--epochs EPOCHS", "20"), ("--lr LR", "0.01")):
            assert f"{flag} default: {default}" in text
        assert "explicit list ('0,1,2'); default: 5" in text

    def test_unknown_config_key_is_data_error(self, out, data_file, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"learning_rate": 0.1}))  # key is "lr"
        assert run_cli("train", "--out", out, "--data", data_file,
                       "--objective", "ce", "--config", str(config)) == cli.EXIT_DATA


class TestOutputRoot:
    def test_env_var_respected(self, tmp_path, monkeypatch, data_file):
        root = str(tmp_path / "envout")
        monkeypatch.setenv("SPC_OUT", root)
        assert run_cli("train", "--data", data_file, "--objective", "ce",
                       "--epochs", "2", "--patience", "2", "--batch-size", "16",
                       "--hidden-dim", "8", "--seeds", "1") == 0
        assert run_ids(root)

    def test_flag_overrides_env(self, tmp_path, monkeypatch, data_file):
        monkeypatch.setenv("SPC_OUT", str(tmp_path / "ignored"))
        explicit = str(tmp_path / "explicit")
        assert run_cli("train", "--out", explicit, "--data", data_file,
                       "--objective", "ce", "--epochs", "2", "--patience", "2",
                       "--batch-size", "16", "--hidden-dim", "8", "--seeds", "1") == 0
        assert run_ids(explicit)
        assert not os.path.isdir(str(tmp_path / "ignored"))

    def test_an_empty_env_var_means_unset(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SPC_OUT", "")
        assert run_cli("gen-data", "--classes", "2", "--dim", "2", "--per-class", "5") == 0
        assert os.listdir(tmp_path) == ["out"]
        assert len(run_ids("out")) == 1 and os.path.isfile("out/data/mixture.jsonl")


class _FailingFile:
    """A text or binary file whose first write puts half its data on disk,
    then fails; its other methods are the file's."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestAtomicWrites:
    """Every file a command writes replaces its path only once complete."""

    @pytest.mark.parametrize("command, name", [("gen-data", "d.jsonl"),
                                               ("gen-data", "report.json"),
                                               ("train", "seed0.npz")],
                             ids=["dataset", "report-json", "checkpoint"])
    def test_a_failed_write_leaves_the_earlier_file_and_no_tmp(
            self, out, tmp_path, data_file, monkeypatch, command, name, capsys):
        flags = {"gen-data": ("--classes", "2", "--dim", "2", "--per-class", "5",
                              "--output", str(tmp_path / "d.jsonl")),
                 "train": ("--data", data_file, "--objective", "ce", "--epochs", "1",
                           "--patience", "1", "--hidden-dim", "4", "--seeds", "1")}[command]
        assert run_cli(command, "--out", out, *flags) == 0
        [path] = [os.path.join(d, name) for d, _, files in os.walk(tmp_path) if name in files]
        before = pathlib.Path(path).read_bytes()
        real_open = builtins.open

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            written = any(flag in mode for flag in "wax+")
            return _FailingFile(fh) if written and os.path.basename(file).startswith(name) else fh

        monkeypatch.setattr(builtins, "open", failing_open)
        assert run_cli(command, "--out", out, *flags) == cli.EXIT_DATA
        monkeypatch.undo()
        assert "No space left on device" in capsys.readouterr().err
        assert pathlib.Path(path).read_bytes() == before
        assert [f for _, _, files in os.walk(tmp_path) for f in files if f.endswith(".tmp")] == []

    def test_two_writers_of_one_path_each_move_a_whole_file(self, tmp_path):
        path = str(tmp_path / "f.txt")
        with dataio.write_atomic(path) as first:
            first.write("AAAA")
            with dataio.write_atomic(path) as second:
                second.write("BBBBBB")
            assert pathlib.Path(path).read_text() == "BBBBBB"
            first.write("AAAAAA")
        assert pathlib.Path(path).read_text() == "AAAAAAAAAA"
        assert os.listdir(tmp_path) == ["f.txt"]

    def test_the_next_write_removes_a_killed_writers_temporary_file(self, tmp_path):
        path = str(tmp_path / "f.txt")
        code = ("import os, sys\n"
                "from spc import data\n"
                "with data.write_atomic(sys.argv[1]) as fh:\n"
                "    fh.write('partial')\n"
                "    fh.flush()\n"
                "    os._exit(9)\n")
        src = os.path.dirname(os.path.dirname(dataio.__file__))
        killed = subprocess.run([sys.executable, "-c", code, path], timeout=60,
                                env={**os.environ, "PYTHONPATH": src})
        assert killed.returncode == 9
        [stale] = os.listdir(tmp_path)
        assert stale.startswith("f.txt.") and stale.endswith(".tmp")
        with dataio.write_atomic(path) as fh:
            fh.write("whole")
        assert os.listdir(tmp_path) == ["f.txt"]
        assert pathlib.Path(path).read_text() == "whole"

    def test_gen_data_makes_the_output_directory(self, out, tmp_path):
        output = tmp_path / "new" / "deeper" / "mix.jsonl"
        assert run_cli("gen-data", "--out", out, "--classes", "2", "--dim", "2",
                       "--per-class", "5", "--output", str(output)) == 0
        assert dataio.load(str(output)).num_rows == 10


def _write_mode_open(call: ast.Call) -> bool:
    """A call of `open` (or an `.open` method) whose mode writes, or is not a literal."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    position = 1 if isinstance(func, ast.Name) or ast.unparse(func) == "io.open" else 0
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[position:position + 1]
    if not modes:  # the default mode reads
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not any(flag in mode.value for flag in "wax+"))


def test_files_are_written_and_phases_timed_in_one_place():
    """In `spc`, `os.replace` and a write-mode `open` occur only in
    `data.write_atomic`, and `time.perf_counter` only in `trainer.timed`."""
    package = pathlib.Path(cli.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module in ("os", "time"):
                    found += [f"{owner}: from {node.module} import {alias.name}"
                              for alias in node.names
                              if alias.name in ("replace", "rename", "perf_counter")]
                elif isinstance(node, ast.Attribute) and ast.unparse(node) in (
                        "os.replace", "os.rename", "time.perf_counter"):
                    found.append(f"{owner}: {ast.unparse(node)}")
                elif isinstance(node, ast.Call) and _write_mode_open(node):
                    found.append(f"{owner}: open for writing")
    assert found == ["data.write_atomic: open for writing", "data.write_atomic: os.replace",
                     "trainer.timed: time.perf_counter", "trainer.timed: time.perf_counter"]


SEQUENCE_FLAGS = ("--epochs", "1", "--patience", "1", "--batch-size", "16",
                  "--hidden-dim", "4", "--seeds", "2")

# every command that writes a run, and the files its run directory holds
# besides manifest.json
SEQUENCE_CASES = {
    "gen-data": (("gen-data", "--classes", "2", "--dim", "2", "--per-class", "5",
                  "--output", "d.jsonl"), ["report.json"]),
    "train": (("train", "--data", "mix.jsonl", "--objective", "ce", *SEQUENCE_FLAGS),
              ["ckpt/seed0.npz", "ckpt/seed1.npz", "report.csv", "report.json"]),
    "eval": (("eval", "--data", "mix.jsonl", "--ckpt", "ckpt.json"), ["report.json"]),
    "sweep": (("sweep", "--data", "mix.jsonl", "--betas", "0.1", "--gammas", "0.1",
               *SEQUENCE_FLAGS), ["report.csv", "report.json"]),
    "noise-study": (("noise-study", "--data", "mix.jsonl", "--objectives", "ce",
                     "--ratios", "0.1,0.2", *SEQUENCE_FLAGS), ["report.csv", "report.json"]),
    "ratio-study": (("ratio-study", "--data", "mix.jsonl", "--objectives", "ce",
                     "--ratios", "0.5", *SEQUENCE_FLAGS), ["report.csv", "report.json"]),
    "ood": (("ood", "--source", "mix.jsonl", "--target", "mix.jsonl", "--mapping", "map.csv",
             "--objective", "ce", *SEQUENCE_FLAGS), ["report.json"]),
    "repr-quality": (("repr-quality", "--data", "mix.jsonl", "--ckpt", "ckpt.json",
                      "--seeds", "1"), ["report.json"]),
}


class TestRunSequence:
    """Every command that writes a run prints `run <id>:` first, names the one
    directory it wrote, and its manifest lists exactly the files it wrote."""

    @pytest.fixture(autouse=True)
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save(gen_mixture(2, 8, 50, 4.0, seed=200), "mix.jsonl")
        (tmp_path / "map.csv").write_text("source_label,target_label\n0,0\n1,1\n")
        save_checkpoint("ckpt.json", init_encoder(8, 4, 2, rng=0))

    @staticmethod
    def artifacts(run_dir):
        with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
            return sorted(json.load(fh)["artifacts"])

    @pytest.mark.parametrize("command", list(SEQUENCE_CASES))
    def test_run_line_directory_and_manifest(self, command, capsys):
        argv, files = SEQUENCE_CASES[command]
        assert run_cli(*argv, "--out", "out") == 0
        lines = capsys.readouterr().out.splitlines()
        [run_id] = os.listdir("out")
        assert lines[0] == f"run {run_id}:" or lines[0].startswith(f"run {run_id}: ")
        run_dir = os.path.join("out", run_id)
        written = sorted(os.path.relpath(os.path.join(d, f), run_dir)
                         for d, _, names in os.walk(run_dir) for f in names)
        assert written == sorted(files + ["manifest.json"])
        assert self.artifacts(run_dir) == files
        if command == "eval":  # the metrics follow the run line as json
            metrics = read_report("out", run_id)["results"]["metrics"]
            assert json.loads("\n".join(lines[1:])) == metrics
        # a stray file in ckpt/ is not an artifact of the rerun
        stray = os.path.join(run_dir, "ckpt", "seed0.npz.0.tmp")
        os.makedirs(os.path.dirname(stray), exist_ok=True)
        open(stray, "w").close()
        assert run_cli(*argv, "--out", "out") == 0
        assert capsys.readouterr().out.splitlines()[0].startswith(f"run {run_id}:")
        assert self.artifacts(run_dir) == files

    def test_a_study_prints_each_row_on_its_own_line(self, capsys):
        argv, _ = SEQUENCE_CASES["noise-study"]
        assert run_cli(*argv, "--out", "out") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"run {_single_run_id('out')}:"
        assert [line.split(":")[0] for line in lines[1:]] == [
            "      ce @ noise 0.1", "      ce @ noise 0.2"]


def test_only_main_finishes_and_prints_a_run():
    """No command handler but report's prints, writes a checkpoint or
    finishes a run; `main` does, once."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    calls = {top.name: [ast.unparse(node.func) for node in ast.walk(top)
                        if isinstance(node, ast.Call)]
             for top in tree.body if isinstance(top, ast.FunctionDef)}
    once = ("finish_run", "save_checkpoint", "print")
    assert [name for name, called in calls.items()
            if name.startswith("cmd_") and set(once) & set(called)] == ["cmd_report"]
    assert [name for name, called in calls.items() if "finish_run" in called] == ["main"]
    assert [name for name, called in calls.items() if "save_checkpoint" in called] == \
        ["finish_run"]


class TestObjectiveChoices:
    def test_choice_lists(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))

        def choices(command):
            return next(a.choices for a in sub.choices[command]._actions
                        if a.dest == "objective")

        assert choices("train") == ["spc", "pc", "ce", "ce_cp", "vib", "mse", "mse_pc", "mse_vib"]
        assert choices("sweep") == ["spc", "pc", "ce_cp", "vib", "mse_pc", "mse_vib"]
        assert choices("ood") == ["spc", "pc", "ce", "ce_cp", "vib"]


# The parser's surface, pinned: each command's help and each of its actions
# as (option strings, dest, default, type, choices, required, help). A change
# to how the parser is built must move no flag, default or help text; the
# order in which a command's flags are listed is not part of the surface.
_HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, None, False,
         "show this help message and exit")
_OUT = (("--out",), "out", None, None, None, False, "output root (default $SPC_OUT or ./out)")
_FEATURIZER = [(("--hash-dim",), "hash_dim", 256, "int", None, False, None),
               (("--hash-seed",), "hash_seed", 0, "int", None, False, None)]
_DATA = [(("--data",), "data", None, None, None, False, "dataset file (jsonl or csv)"),
         *_FEATURIZER]
_TRAIN = [
    (("--config",), "config", None, None, None, False,
     "json file of training keys; explicit flags win"),
    (("--epochs",), "epochs", None, "int", None, False, "default: 20"),
    (("--batch-size",), "batch_size", None, "int", None, False, "default: 128"),
    (("--lr",), "lr", None, "float", None, False, "default: 0.01"),
    (("--weight-decay",), "weight_decay", None, "float", None, False, "default: 0.0"),
    (("--patience",), "patience", None, "int", None, False, "default: 5"),
    (("--hidden-dim",), "hidden_dim", None, "int", None, False, "default: 64"),
    (("--vib-latent-dim",), "vib_latent_dim", None, "int", None, False, "default: 16"),
    (("--dropout",), "dropout", None, "float", None, False, "default: 0.0"),
    (("--layer-norm", "--no-layer-norm"), "layer_norm", None, None, None, False,
     "default: False"),
    (("--beta",), "beta", None, "float", None, False, "default: 0.0"),
    (("--gamma",), "gamma", None, "float", None, False, "default: 0.0"),
    (("--cp-weight",), "cp_weight", None, "float", None, False, "default: 0.0"),
    (("--structured-from",), "structured_from", None, "str", None, False, "default: sample"),
    (("--seeds",), "seeds", None, None, None, False,
     "count ('5' -> 0..4) or explicit list ('0,1,2'); default: 5"),
]
_ALL_KINDS = ["spc", "pc", "ce", "ce_cp", "vib", "mse", "mse_pc", "mse_vib"]
_GRID = "0.001,0.01,0.1,1,10"
PARSER_SURFACE = {
    "gen-data": ("generate a Gaussian-mixture dataset", [
        _HELP, _OUT,
        (("--classes",), "classes", 4, "int", None, False, None),
        (("--dim",), "dim", 32, "int", None, False, None),
        (("--per-class",), "per_class", 200, "int", None, False, None),
        (("--sep",), "sep", 3.0, "float", None, False, None),
        (("--seed",), "seed", 0, "int", None, False, None),
        (("--output",), "output", None, None, None, False, "dataset file to write")]),
    "train": ("train one objective over several seeds", [
        _HELP, _OUT, *_DATA, *_TRAIN,
        (("--objective",), "objective", "spc", None, _ALL_KINDS, False, None)]),
    "eval": ("evaluate a checkpoint on a dataset split", [
        _HELP, _OUT, *_DATA,
        (("--ckpt",), "ckpt", None, None, None, True, None),
        (("--split",), "split", "test", None, ["train", "val", "test"], False, None)]),
    "sweep": ("grid-search beta/gamma (or the ce_cp penalty weight)", [
        _HELP, _OUT, *_DATA, *_TRAIN,
        (("--objective",), "objective", "spc", None,
         ["spc", "pc", "ce_cp", "vib", "mse_pc", "mse_vib"], False, None),
        (("--betas",), "betas", _GRID, None, None, False, f"default: {_GRID}"),
        (("--gammas",), "gammas", None, None, None, False,
         f"default: {_GRID} for a kind with two weights (spc), 0 for a kind with one")]),
    "noise-study": ("label-noise robustness table", [
        _HELP, _OUT, *_DATA, *_TRAIN,
        (("--ratios",), "ratios", "0.1,0.2,0.3", None, None, False, None),
        (("--objectives",), "objectives", "ce,spc", None, None, False, None)]),
    "ratio-study": ("limited-training-data table", [
        _HELP, _OUT, *_DATA, *_TRAIN,
        (("--ratios",), "ratios", "0.2,0.4,0.6,0.8,1.0", None, None, False, None),
        (("--objectives",), "objectives", "ce,spc", None, None, False, None)]),
    "ood": ("train on a source domain, test on a mapped target", [
        _HELP, _OUT, *_FEATURIZER, *_TRAIN,
        (("--source",), "source", None, None, None, True, None),
        (("--target",), "target", None, None, None, True, None),
        (("--mapping",), "mapping", None, None, None, True,
         "csv with header source_label,target_label"),
        (("--objective",), "objective", "spc", None, ["spc", "pc", "ce", "ce_cp", "vib"],
         False, None)]),
    "repr-quality": ("cluster test-split codes; report SC/ARI", [
        _HELP, _OUT, *_DATA,
        (("--ckpt",), "ckpt", None, None, None, True, None),
        (("--seeds",), "seeds", "5", None, None, False, "k-means seeds (count or list)")]),
    "report": ("summarize all runs under the output root", [_HELP, _OUT]),
}


@pytest.mark.parametrize("command", list(PARSER_SURFACE))
def test_the_parser_surface_is_pinned(command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(PARSER_SURFACE)
    help_text = next(a.help for a in sub._choices_actions if a.dest == command)
    actions = {a.dest: (tuple(a.option_strings), a.dest, a.default,
                        getattr(a.type, "__name__", a.type),
                        None if a.choices is None else list(a.choices), a.required, a.help)
               for a in sub.choices[command]._actions}
    expected_help, expected = PARSER_SURFACE[command]
    assert (help_text, actions) == (expected_help, {record[1]: record for record in expected})
    assert len(sub.choices[command]._actions) == len(expected)


class TestSeedParsing:
    def test_count_form(self):
        assert cli.parse_seeds("5") == [0, 1, 2, 3, 4]

    def test_list_form(self):
        assert cli.parse_seeds("3,7,11") == [3, 7, 11]

    @pytest.mark.parametrize("text", ["-1,3", "3,3"])
    def test_negative_or_repeated_seeds_rejected(self, text):
        with pytest.raises(cli.UsageError, match="distinct and non-negative"):
            cli.parse_seeds(text)

    def test_make_objective_drops_unused_weights(self):
        obj = cli.make_objective("ce", beta=0.5, gamma=0.5)
        assert obj.beta == 0.0 and obj.gamma == 0.0
        obj = cli.make_objective("pc", beta=0.5, gamma=0.5)
        assert obj.beta == 0.5 and obj.gamma == 0.0


@pytest.fixture()
def no_read(monkeypatch):
    @functools.wraps(dataio.load)  # the parser reads load's featurizer defaults
    def no_load(*args, **kwargs):
        raise AssertionError("a dataset was read")

    monkeypatch.setattr(dataio, "load", no_load)


class TestWeightsHaveOneSource:
    """A sweep's --betas/--gammas grid is the only source of its cells'
    weights, and a weight or setting that no objective of a command reads is
    a bad flag: each such input exits 2 in one line, before any dataset is
    read."""

    def _exits_2(self, out, capsys, command, files, *flags, names=()):
        assert run_cli(command, "--out", out, *files, *flags) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error:")
        for name in names:
            assert name in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags", [
        ("--beta", "5"),
        ("--gamma", "7"),
        ("--cp-weight", "1"),
        ("--objective", "ce_cp", "--cp-weight", "1"),
        ("--objective", "pc", "--gammas", "0.5"),
        ("--objective", "vib", "--gammas", "0,0.5"),
    ])
    def test_a_sweep_weight_off_the_grid_exits_2(self, out, data_file, no_read, capsys, flags):
        self._exits_2(out, capsys, "sweep", ("--data", data_file), *flags)

    @pytest.mark.parametrize("command, flags, names", [
        ("train", ("--objective", "pc", "--beta", "0.1", "--gamma", "0.1"), ("--gamma", "pc")),
        ("train", ("--objective", "ce", "--beta", "0.1"), ("--beta", "ce")),
        ("train", ("--objective", "mse_pc", "--gamma", "0.1"), ("--gamma", "mse_pc")),
        ("ood", ("--objective", "ce", "--cp-weight", "0.5"), ("--cp-weight", "ce")),
        ("noise-study", ("--objectives", "ce,pc", "--gamma", "0.1"), ("--gamma", "ce,pc")),
        ("ratio-study", ("--objectives", "ce,spc", "--cp-weight", "0.1"),
         ("--cp-weight", "ce,spc")),
    ])
    def test_a_weight_no_objective_takes_exits_2(self, out, data_file, no_read, capsys,
                                                  command, flags, names):
        files = (("--source", data_file, "--target", data_file, "--mapping", data_file)
                 if command == "ood" else ("--data", data_file))
        self._exits_2(out, capsys, command, files, *flags, names=names)

    @pytest.mark.parametrize("command, kind", [("sweep", "spc"), ("train", "ce")])
    def test_a_config_weight_counts_as_its_flag(self, out, data_file, tmp_path, no_read,
                                                capsys, command, kind):
        config = tmp_path / "weights.json"
        config.write_text(json.dumps({"beta": 0.5}))
        self._exits_2(out, capsys, command, ("--data", data_file), "--objective", kind,
                      "--config", str(config), names=("--beta",))

    def test_a_study_weight_reaches_each_objective_that_takes_it(self):
        args = cli.build_parser().parse_args(["noise-study", "--beta", "0.1", "--gamma", "0.2"])
        cli.resolve_train_args(args)
        weights = [(cfg.objective.beta, cfg.objective.gamma)
                   for cfg in cli._train_configs(args, ["ce", "pc", "spc"])]
        assert weights == [(0.0, 0.0), (0.1, 0.0), (0.1, 0.2)]

    def test_zero_weights_and_gammas_0_name_the_same_sweep(self, tmp_path, data_file):
        config = tmp_path / "zero.json"
        config.write_text(json.dumps({"beta": 0, "gamma": 0.0}))
        ids = []
        for i, extra in enumerate(((), ("--gammas", "0"), ("--config", str(config)),
                                   ("--beta", "0", "--gamma", "0", "--cp-weight", "0"))):
            out = str(tmp_path / f"out{i}")
            assert run_cli("sweep", "--out", out, "--data", data_file, "--objective", "pc",
                           "--betas", "0.1", "--seeds", "1", "--epochs", "1", "--patience", "1",
                           "--batch-size", "16", "--hidden-dim", "4", *extra) == 0
            ids.append(_single_run_id(out))
        assert len(set(ids)) == 1

    def test_gammas_default_by_the_kinds_weight_count(self, out, tmp_path, data_file,
                                                      monkeypatch):
        grids = []

        def one_cell(dataset, cells, seeds):
            grids.append(list(dict.fromkeys(gamma for _, gamma, _ in cells)))
            beta, gamma, _ = cells[0]
            return {"rows": [{"beta": beta, "gamma": gamma, "val_mean": 0.0, "diverged": 0}],
                    "best_beta": beta, "best_gamma": gamma}

        monkeypatch.setattr(cli, "sweep", one_cell)
        for kind in ("spc", "pc", "ce_cp", "mse_vib"):
            data = data_file if kind != "mse_vib" else regression_file(tmp_path)
            assert run_cli("sweep", "--out", out, "--data", data, "--objective", kind) == 0
        assert grids == [[0.001, 0.01, 0.1, 1.0, 10.0], [0.0], [0.0], [0.0]]

    @pytest.mark.parametrize("command, flags, names", [
        ("train", ("--objective", "pc", "--structured-from", "mu"), ("--structured-from", "pc")),
        ("train", ("--objective", "ce", "--structured-from", "mu"), ("--structured-from", "ce")),
        ("sweep", ("--objective", "vib", "--structured-from", "mu"),
         ("--structured-from", "vib")),
        ("noise-study", ("--objectives", "ce,pc", "--structured-from", "mu"),
         ("--structured-from", "ce,pc")),
        ("train", ("--objective", "spc", "--vib-latent-dim", "3"), ("--vib-latent-dim", "spc")),
        ("ood", ("--objective", "pc", "--vib-latent-dim", "3"), ("--vib-latent-dim", "pc")),
        ("ratio-study", ("--objectives", "ce,spc", "--vib-latent-dim", "3"),
         ("--vib-latent-dim", "ce,spc")),
    ])
    def test_a_setting_no_objective_reads_exits_2(self, out, data_file, no_read, capsys,
                                                   command, flags, names):
        files = (("--source", data_file, "--target", data_file, "--mapping", data_file)
                 if command == "ood" else ("--data", data_file))
        self._exits_2(out, capsys, command, files, *flags, names=names)

    @pytest.mark.parametrize("key, value, kind", [
        ("structured_from", "mu", "pc"), ("vib_latent_dim", 3, "spc"),
    ])
    def test_a_config_setting_counts_as_its_flag(self, out, data_file, tmp_path, no_read,
                                                 capsys, key, value, kind):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({key: value}))
        self._exits_2(out, capsys, "train", ("--data", data_file), "--objective", kind,
                      "--config", str(config), names=(cli._flag(key), kind))

    def test_a_study_setting_reaches_each_objective(self):
        args = cli.build_parser().parse_args(["noise-study", "--structured-from", "mu",
                                              "--vib-latent-dim", "3"])
        cli.resolve_train_args(args)
        configs = cli._train_configs(args, ["ce", "spc", "vib"])
        assert [cfg.objective.structured_from for cfg in configs] == ["mu"] * 3
        assert [cfg.vib_latent_dim for cfg in configs] == [3] * 3


class TestListFlags:
    """Every comma-separated flag is read by one parser under one rule: at
    least one value, none repeated (as read, so 1 and 1.0 repeat), blank
    items skipped. Each failed flag check exits 2 in one line that names
    the flag, before any dataset is read."""

    def _exits_2(self, tmp_path, capsys, command, *flags, names):
        out = str(tmp_path / "out")
        data = str(tmp_path / "unread.jsonl")
        fixed = ("--ckpt", data) if command == "repr-quality" else ()
        assert run_cli(command, "--out", out, "--data", data, *fixed, *flags) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error:")
        for name in names:
            assert name in err
        assert not os.path.exists(out)

    LIST_FLAGS = [("train", "--seeds"), ("repr-quality", "--seeds"), ("sweep", "--betas"),
                  ("sweep", "--gammas"), ("noise-study", "--ratios"),
                  ("ratio-study", "--ratios"), ("noise-study", "--objectives")]

    @pytest.mark.parametrize("command, flag", LIST_FLAGS)
    @pytest.mark.parametrize("text", ["repeated", ","])
    def test_a_repeated_or_empty_list_exits_2(self, tmp_path, no_read, capsys, command, flag,
                                              text):
        if text == "repeated":
            text = {"--seeds": "3,3", "--objectives": "ce, ce"}.get(flag, "0.1,0.1")
        self._exits_2(tmp_path, capsys, command, flag, text, names=(flag,))

    @pytest.mark.parametrize("command, flag", [("sweep", "--betas"), ("sweep", "--gammas"),
                                               ("ratio-study", "--ratios")])
    def test_numbers_repeat_as_read(self, tmp_path, no_read, capsys, command, flag):
        self._exits_2(tmp_path, capsys, command, flag, "1,1.0", names=(flag,))

    def test_blank_items_are_skipped(self):
        assert cli.parse_list(" 0.5, ,1e-3,", "--betas") == [0.5, 0.001]
        assert cli.parse_list("ce , spc", "--objectives", str, "objectives") == ["ce", "spc"]
        assert cli.parse_seeds("3, 7,") == [3, 7]

    @pytest.mark.parametrize("command, flags, names", [
        ("train", ("--seeds", "abc"), ("--seeds",)),
        ("sweep", ("--betas", "0.1,x"), ("--betas",)),
        ("train", ("--lr", "-1"), ("--lr",)),
        ("train", ("--patience", "30"), ("--patience", "--epochs")),
        ("train", ("--hidden-dim", "0"), ("--hidden-dim",)),
        # a bad grid value is named by its grid alone; ce_cp's --betas set its cp_weight
        ("sweep", ("--betas", "0.1,-1"), ("usage error: --betas: beta ",)),
        ("sweep", ("--betas", "nan"), ("usage error: --betas: beta ",)),
        ("sweep", ("--gammas", "inf"), ("usage error: --gammas: gamma ",)),
        ("sweep", ("--objective", "ce_cp", "--betas", "inf"),
         ("usage error: --betas: cp_weight ",)),
        ("sweep", ("--objective", "ce_cp", "--gammas", "nan"), ("usage error: --gammas: ",)),
        ("noise-study", ("--objectives", "mse"), ("--objectives",)),
        ("noise-study", ("--objectives", "ce,nope"), ("--objectives", "'nope'")),
        ("ratio-study", ("--ratios", "0"), ("--ratios",)),
        ("train", ("--hash-dim", "1"), ("--hash-dim",)),
        ("repr-quality", ("--hash-seed", "-1"), ("--hash-seed",)),
    ])
    def test_each_failed_check_names_its_flag(self, tmp_path, no_read, capsys, command, flags,
                                              names):
        self._exits_2(tmp_path, capsys, command, *flags, names=names)

    def test_a_config_value_out_of_range_names_its_flag(self, tmp_path, no_read, capsys):
        config = tmp_path / "lr.json"
        config.write_text(json.dumps({"lr": -1}))
        self._exits_2(tmp_path, capsys, "train", "--config", str(config), names=("--lr",))

    @pytest.mark.parametrize("flags, name", [
        (("--classes", "1"), "--classes"), (("--classes", "4", "--dim", "3"), "--dim"),
        (("--per-class", "2"), "--per-class"), (("--seed", "-1"), "--seed"),
        (("--sep", "-1"), "--sep"),
    ])
    def test_a_bad_gen_data_flag_is_named(self, tmp_path, capsys, flags, name):
        output = tmp_path / "mix.jsonl"
        assert run_cli("gen-data", "--out", str(tmp_path / "out"), "--output", str(output),
                       *flags) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error:") and name in err

    @pytest.mark.parametrize("flags, name", [
        (("--classes", "1"), "--classes"), (("--classes", "4", "--dim", "3"), "--dim"),
        (("--per-class", "2"), "--per-class"), (("--seed", "-1"), "--seed"),
        (("--sep", "-1"), "--sep"), (("--classes", str(2 ** 70)), "--classes"),
        (("--dim", str(2 ** 70)), "--dim"), (("--per-class", str(2 ** 70)), "--per-class"),
        # a non-finite separation is refused before any row is drawn
        (("--sep", "nan"), "--sep"), (("--sep", "inf"), "--sep"),
    ])
    def test_a_gen_data_check_names_only_its_flag(self, tmp_path, capsys, flags, name):
        output = tmp_path / "mix.jsonl"
        assert run_cli("gen-data", "--out", str(tmp_path / "out"), "--output", str(output),
                       *flags) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"usage error: {name}: ")
        assert not output.exists()


class TestSizeBounds:
    """An integer setting that sizes an array or a loop is at most
    data.MAX_SIZE: past it, as a flag or a --config key, the command exits 2
    in one line naming the flag, before any dataset is read or array built."""

    HUGE = str(2 ** 70)

    @pytest.mark.parametrize("command, flags, name", [
        ("train", ("--hidden-dim", HUGE), "--hidden-dim"),
        ("ood", ("--hidden-dim", str(dataio.MAX_SIZE + 1)), "--hidden-dim"),
        ("train", ("--objective", "vib", "--vib-latent-dim", HUGE), "--vib-latent-dim"),
        ("noise-study", ("--objectives", "ce,vib", "--vib-latent-dim", HUGE),
         "--vib-latent-dim"),
        ("train", ("--seeds", "1180591620717411303424"), "--seeds"),
        ("sweep", ("--seeds", str(dataio.MAX_SIZE + 1)), "--seeds"),
        ("repr-quality", ("--seeds", HUGE), "--seeds"),
        ("train", ("--hash-dim", HUGE), "--hash-dim"),
        ("eval", ("--hash-dim", str(dataio.MAX_SIZE + 1)), "--hash-dim"),
        # with patience equal to epochs, early stopping never fires
        ("train", ("--epochs", HUGE, "--patience", HUGE), "--epochs"),
        ("sweep", ("--epochs", str(dataio.MAX_SIZE + 1)), "--epochs"),
    ])
    def test_a_flag_past_the_bound_exits_2(self, tmp_path, no_read, capsys, command, flags,
                                           name):
        out = str(tmp_path / "out")
        files = {"ood": ("--source", "a.jsonl", "--target", "a.jsonl", "--mapping", "m.csv"),
                 "eval": ("--ckpt", "c.npz"), "repr-quality": ("--ckpt", "c.npz")}
        assert run_cli(command, "--out", out, *files.get(command, ()), *flags) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"usage error: {name}: ")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key, kind", [("hidden_dim", "ce"), ("vib_latent_dim", "vib")])
    def test_a_config_key_past_the_bound_names_its_flag(self, tmp_path, no_read, capsys,
                                                        key, kind):
        config = tmp_path / "size.json"
        config.write_text(json.dumps({key: 2 ** 70}))
        out = str(tmp_path / "out")
        assert run_cli("train", "--out", out, "--objective", kind,
                       "--config", str(config)) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"usage error: {cli._flag(key)}: ")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("values, name", [
        ({"epochs": 2 ** 70, "patience": 2 ** 70}, "--epochs"),
        ({"seeds": ",".join(map(str, range(dataio.MAX_SIZE + 1)))}, "--seeds"),
    ], ids=["epochs", "seed-list"])
    def test_epochs_and_a_seed_list_from_config_are_bounded(self, tmp_path, no_read, capsys,
                                                            values, name):
        config = tmp_path / "loop.json"
        config.write_text(json.dumps(values))
        out = str(tmp_path / "out")
        assert run_cli("train", "--out", out, "--config", str(config)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"usage error: {name}: ")
        assert len(err) < 200 and not os.path.exists(out)

    def test_the_bound_itself_is_valid(self):
        bound = dataio.MAX_SIZE
        cfg = TrainConfig(hidden_dim=bound, vib_latent_dim=bound)
        assert (cfg.hidden_dim, cfg.vib_latent_dim) == (bound, bound)
        dataio.check_featurizer(bound, 0)
        for name in ("hidden_dim", "vib_latent_dim"):
            with pytest.raises(ValueError, match=f"{name} must be in \\[1, {bound}\\]"):
                TrainConfig(**{name: bound + 1})


class TestFeaturizerFlagsNeedText:
    """--hash-dim and --hash-seed are read only where an input dataset is
    text: where every one holds features, a value other than the default
    exits 2 in one line naming the flag, before any model trains or is
    scored, so one run has one id."""

    @pytest.fixture(autouse=True)
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save(gen_mixture(2, 8, 20, 4.0, seed=200), "mix.jsonl")
        (tmp_path / "text.jsonl").write_text(_text_rows())
        (tmp_path / "map.csv").write_text("source_label,target_label\n0,0\n1,1\n")
        save_checkpoint("ckpt.npz", init_encoder(8, 4, 2, rng=0))

    COMMANDS = {
        "train": ("--data", "mix.jsonl"), "sweep": ("--data", "mix.jsonl"),
        "noise-study": ("--data", "mix.jsonl"), "ratio-study": ("--data", "mix.jsonl"),
        "ood": ("--source", "mix.jsonl", "--target", "mix.jsonl", "--mapping", "map.csv"),
        "eval": ("--data", "mix.jsonl", "--ckpt", "ckpt.npz"),
        "repr-quality": ("--data", "mix.jsonl", "--ckpt", "ckpt.npz"),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("flag, value", [("--hash-dim", "128"), ("--hash-seed", "7")])
    def test_on_feature_data_alone_exits_2(self, monkeypatch, capsys, command, flag, value):
        def not_reached(*args, **kwargs):
            raise AssertionError("a model was trained or scored")

        monkeypatch.setattr(trainer, "train", not_reached)
        for name in ("evaluate_split", "representation_quality"):
            monkeypatch.setattr(cli, name, not_reached)
        assert run_cli(command, "--out", "out", *self.COMMANDS[command],
                       flag, value) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"usage error: {flag} {value}: ")
        assert not os.path.exists("out")

    def test_the_defaults_spelled_out_name_the_same_run(self):
        ids = []
        for i, extra in enumerate(((), ("--hash-dim", "256", "--hash-seed", "0"))):
            assert run_cli("train", "--out", f"out{i}", "--data", "mix.jsonl", "--objective", "ce",
                           "--epochs", "1", "--patience", "1", "--batch-size", "8",
                           "--hidden-dim", "4", "--seeds", "1", *extra) == 0
            ids.append(_single_run_id(f"out{i}"))
        assert ids[0] == ids[1]

    def test_one_text_file_of_two_reads_them(self):
        args = cli.build_parser().parse_args([
            "ood", "--source", "mix.jsonl", "--target", "text.jsonl", "--mapping", "map.csv",
            "--hash-dim", "8"])
        files = {"source": "mix.jsonl", "target": "text.jsonl", "mapping": "map.csv"}
        assert cli.run_inputs(args, files)["hash_dim"] == 8


def _single_run_id(out_root):
    ids = run_ids(out_root)
    assert len(ids) == 1
    return ids[0]


def _study_argv(command, data_file, tmp_path):
    return (command, "--data", data_file, "--ratios", "0.5", "--seeds", "1")


def _sweep_argv(command, data_file, tmp_path):
    return ("sweep", "--data", data_file, "--objective", "spc", "--betas", "0.1",
            "--gammas", "0.1", "--seeds", "1")


def _ood_argv(command, data_file, tmp_path):
    mapping = tmp_path / "identity.csv"
    mapping.write_text("source_label,target_label\n0,0\n1,1\n")
    return ("ood", "--source", data_file, "--target", data_file,
            "--mapping", str(mapping), "--objective", "ce", "--seeds", "1")


class TestRunIdentity:
    """Two invocations that differ in one effective input must not share a run."""

    @pytest.mark.parametrize("command, base, first, second", [
        ("sweep", _sweep_argv, ("--structured-from", "mu"), ("--structured-from", "sample")),
        ("noise-study", _study_argv, ("--objectives", "ce_cp", "--cp-weight", "0.1"),
         ("--objectives", "ce_cp", "--cp-weight", "1.0")),
        ("ratio-study", _study_argv, ("--objectives", "spc", "--structured-from", "mu"),
         ("--objectives", "spc", "--structured-from", "sample")),
        ("ood", _ood_argv, ("--hidden-dim", "8"), ("--hidden-dim", "16")),
        ("ood", _ood_argv, ("--patience", "1"), ("--patience", "2")),
    ])
    def test_distinct_inputs_distinct_run_ids(self, tmp_path, data_file,
                                              command, base, first, second):
        # a flag given twice takes its last value, so `first`/`second` win
        fixed = ("--epochs", "2", "--patience", "2", "--batch-size", "16", "--hidden-dim", "4")
        ids = []
        for i, extra in enumerate((first, second)):
            out = str(tmp_path / f"out{i}")
            assert run_cli(*base(command, data_file, tmp_path), "--out", out,
                           *fixed, *extra) == 0
            ids.append(_single_run_id(out))
        assert ids[0] != ids[1]

    def test_train_reports_the_seeds_it_ran(self, out, data_file):
        assert run_cli("train", "--out", out, "--data", data_file, "--objective", "ce",
                       "--epochs", "1", "--patience", "1", "--batch-size", "16",
                       "--hidden-dim", "4", "--seeds", "3,7") == 0
        results = read_report(out, _single_run_id(out))["results"]
        assert results["summary"]["seeds"] == [3, 7]
        assert [r["seed"] for r in results["per_seed"]] == [3, 7]
        for r in results["per_seed"]:
            assert set(r["config"].get("seeds", [])) <= {3, 7}

    def test_unset_train_flags_take_the_dataclass_defaults(self, monkeypatch, tmp_path):
        # a default changed in the dataclass must reach the command line
        @dataclasses.dataclass
        class Shifted(TrainConfig):
            epochs: int = 7
            learning_rate: float = 0.5
            warmup: int = 3

        monkeypatch.setattr(cli, "TrainConfig", Shifted)
        args = cli.build_parser().parse_args(["train"])
        cli.resolve_train_args(args)
        cfg, objective = Shifted(), ObjectiveConfig()
        resolved = {key: getattr(args, key) for key in (
            "epochs", "batch_size", "lr", "weight_decay", "patience", "hidden_dim",
            "vib_latent_dim", "dropout", "layer_norm", "beta", "gamma", "cp_weight",
            "structured_from", "seeds")}
        assert resolved == {
            "epochs": 7, "batch_size": cfg.batch_size, "lr": 0.5,
            "weight_decay": cfg.weight_decay, "patience": cfg.patience,
            "hidden_dim": cfg.hidden_dim, "vib_latent_dim": cfg.vib_latent_dim,
            "dropout": cfg.dropout, "layer_norm": cfg.layer_norm,
            "beta": objective.beta, "gamma": objective.gamma,
            "cp_weight": objective.cp_weight, "structured_from": objective.structured_from,
            "seeds": "5",
        }
        # a field added to the dataclass is a flag and a --config key too
        assert args.warmup == 3
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"warmup": 4}))
        for argv, expected in ((["--config", str(config)], 4),
                               (["--config", str(config), "--warmup", "5"], 5)):
            args = cli.build_parser().parse_args(["train", *argv])
            cli.resolve_train_args(args)
            assert args.warmup == expected
            assert cli._train_configs(args, ["spc"])[0].warmup == expected


class TestBadInputs:
    """Bad checkpoints and empty splits exit 3 with one line, before any training.
    A checkpoint edited as JSON text is format 1; each such case has a twin
    that edits a format-2 archive's header or members."""

    @pytest.fixture()
    def ckpt(self, tmp_path):
        path = str(tmp_path / "seed0.npz")
        save_checkpoint(path, init_encoder(8, 4, 2, rng=0))
        return path

    @staticmethod
    def _format_1(tmp_path, params, edit) -> str:
        """A format-1 checkpoint of `params`, its payload changed by `edit`."""
        path = str(tmp_path / f"{params.kind}.json")
        payload = format_1_payload(params)
        edit(payload)
        write_format_1(path, payload)
        return path

    @staticmethod
    def _format_2(tmp_path, params, edit) -> str:
        """A format-2 checkpoint of `params`, its header and members changed
        by `edit(header, members)`."""
        path = str(tmp_path / f"{params.kind}.npz")
        header, members = format_2_parts(params)
        edit(header, members)
        write_format_2(path, header, members)
        return path

    def _one_line_error(self, capsys, *names):
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("data error:")
        for name in names:
            assert name in err

    def _rejected(self, capsys, out, data_file, ckpt, *names, command="eval"):
        assert run_cli(command, "--out", out, "--data", data_file,
                       "--ckpt", ckpt) == cli.EXIT_DATA
        self._one_line_error(capsys, ckpt, *names)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["eval", "repr-quality"])
    def test_checkpoint_of_wrong_input_width(self, out, tmp_path, ckpt, command, capsys):
        narrow = str(tmp_path / "narrow.jsonl")
        save(gen_mixture(2, 5, 20, 4.0, seed=205), narrow)
        self._rejected(capsys, out, narrow, ckpt, command=command)

    @pytest.mark.parametrize("command", ["eval", "repr-quality"])
    def test_checkpoint_of_wrong_output_width(self, out, data_file, tmp_path, command, capsys):
        wide = str(tmp_path / "four_class.npz")
        save_checkpoint(wide, init_encoder(8, 4, 4, rng=0))  # the dataset has 2 classes
        self._rejected(capsys, out, data_file, wide, "4 outputs", command=command)

    def test_checkpoint_missing_a_tensor(self, out, data_file, tmp_path, capsys):
        ckpt = self._format_1(tmp_path, init_encoder(8, 4, 2, rng=0),
                              lambda payload: payload["tensors"].pop("w_lv"))
        self._rejected(capsys, out, data_file, ckpt, "w_lv")

    def test_format_2_checkpoint_missing_a_tensor(self, out, data_file, tmp_path, capsys):
        ckpt = self._format_2(tmp_path, init_encoder(8, 4, 2, rng=0),
                              lambda header, members: members.pop("w_lv"))
        self._rejected(capsys, out, data_file, ckpt, "w_lv")

    @staticmethod
    def _model(model):
        return init_encoder(8, 4, 2, rng=0) if model == "encoder" else init_vib(8, 4, 3, 2, rng=0)

    @pytest.mark.parametrize("model", ["encoder", "vib"])
    def test_checkpoint_tensor_of_wrong_shape(self, out, data_file, tmp_path, model, capsys):
        def edit(payload):
            w_mu = payload["tensors"]["w_mu"]  # one hidden row short, values to match
            w_mu["shape"][0] -= 1
            w_mu["values"] = w_mu["values"][:w_mu["shape"][0] * w_mu["shape"][1]]

        ckpt = self._format_1(tmp_path, self._model(model), edit)
        self._rejected(capsys, out, data_file, ckpt, "w_mu")

    @pytest.mark.parametrize("model", ["encoder", "vib"])
    def test_format_2_checkpoint_tensor_of_wrong_shape(self, out, data_file, tmp_path, model,
                                                       capsys):
        def edit(header, members):
            members["w_mu"] = members["w_mu"][:-1]  # one hidden row short

        ckpt = self._format_2(tmp_path, self._model(model), edit)
        self._rejected(capsys, out, data_file, ckpt, "w_mu")

    @pytest.mark.parametrize("command", ["eval", "repr-quality"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_checkpoint_with_a_non_finite_value(self, out, data_file, tmp_path, command, value,
                                                capsys):
        def edit(payload):
            payload["tensors"]["w_in"]["values"][5] = value  # written as NaN, Infinity, -Infinity

        ckpt = self._format_1(tmp_path, init_encoder(8, 4, 2, rng=0), edit)
        self._rejected(capsys, out, data_file, ckpt, "w_in", "non-finite", command=command)

    @pytest.mark.parametrize("command", ["eval", "repr-quality"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_format_2_checkpoint_with_a_non_finite_value(self, out, data_file, tmp_path,
                                                         command, value, capsys):
        def edit(header, members):
            members["w_in"].flat[5] = value

        ckpt = self._format_2(tmp_path, init_encoder(8, 4, 2, rng=0), edit)
        self._rejected(capsys, out, data_file, ckpt, "w_in", "non-finite", command=command)

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_checkpoint_layer_norm_flag_not_a_boolean(self, out, data_file, tmp_path, value,
                                                      capsys):
        ckpt = self._format_1(tmp_path, init_encoder(8, 4, 2, rng=0),
                              lambda payload: payload["arch"].update(use_layer_norm=value))
        self._rejected(capsys, out, data_file, ckpt, "use_layer_norm")

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_format_2_checkpoint_layer_norm_flag_not_a_boolean(self, out, data_file, tmp_path,
                                                               value, capsys):
        ckpt = self._format_2(tmp_path, init_encoder(8, 4, 2, rng=0),
                              lambda header, members: header["arch"].update(use_layer_norm=value))
        self._rejected(capsys, out, data_file, ckpt, "use_layer_norm")

    # a -1 or 0 would pass as a tensor shape (reshape infers a -1, and a
    # zero-width tensor holds no values), so the tensors are made to agree
    @pytest.mark.parametrize("model, key", [
        ("encoder", "input_dim"), ("encoder", "hidden_dim"), ("encoder", "out_dim"),
        ("vib", "latent_dim"), ("vib", "decoder_hidden"),
    ])
    @pytest.mark.parametrize("value", [-1, 0, True, 2.0, "4", None])
    def test_checkpoint_dimension_not_an_integer_of_at_least_1(self, out, data_file, tmp_path,
                                                               model, key, value, capsys):
        def edit(payload):
            payload["arch"][key] = value
            if isinstance(value, int):
                for name, shape in tensor_shapes(payload["arch"]).items():
                    payload["tensors"][name]["shape"] = list(shape)
                    if 0 in shape:
                        payload["tensors"][name]["values"] = []

        ckpt = self._format_1(tmp_path, self._model(model), edit)
        self._rejected(capsys, out, data_file, ckpt,
                       f"arch {key} must be an integer >= 1, got {value!r}")

    # an array cannot have a -1 dimension; the other integers get tensors that agree
    @pytest.mark.parametrize("model, key", [
        ("encoder", "input_dim"), ("encoder", "hidden_dim"), ("encoder", "out_dim"),
        ("vib", "latent_dim"), ("vib", "decoder_hidden"),
    ])
    @pytest.mark.parametrize("value", [-1, 0, True, 2.0, "4", None])
    def test_format_2_checkpoint_dimension_not_an_integer_of_at_least_1(
            self, out, data_file, tmp_path, model, key, value, capsys):
        def edit(header, members):
            header["arch"][key] = value
            if isinstance(value, int) and value >= 0:
                members.update({name: np.zeros([int(n) for n in shape])
                                for name, shape in tensor_shapes(header["arch"]).items()})

        ckpt = self._format_2(tmp_path, self._model(model), edit)
        self._rejected(capsys, out, data_file, ckpt,
                       f"arch {key} must be an integer >= 1, got {value!r}")

    @pytest.mark.parametrize("field, value", [("format_version", 99), ("kind", "mystery")])
    def test_checkpoint_of_unknown_format(self, out, data_file, tmp_path, field, value, capsys):
        ckpt = self._format_1(tmp_path, init_encoder(8, 4, 2, rng=0),
                              lambda payload: payload.update({field: value}))
        self._rejected(capsys, out, data_file, ckpt, str(value))

    @pytest.mark.parametrize("field, value", [("format_version", 99), ("kind", "mystery")])
    def test_format_2_checkpoint_of_unknown_format(self, out, data_file, tmp_path, field, value,
                                                   capsys):
        ckpt = self._format_2(tmp_path, init_encoder(8, 4, 2, rng=0),
                              lambda header, members: header.update({field: value}))
        self._rejected(capsys, out, data_file, ckpt, str(value))

    # format 2 never casts: each member is read as stored, or refused
    @pytest.mark.parametrize("name, member, words", [
        ("w_in", np.zeros((8, 4), dtype=np.float32), ["w_in", "float32"]),
        ("b_mu", np.zeros((1, 2), dtype=np.int64), ["b_mu", "int64"]),
        ("w_lv", np.full((4, 2), 0.5, dtype=object), ["w_lv", "allow_pickle=False"]),
        ("header", np.array("{format_version: 2"), ["header is not a JSON object"]),
        ("header", np.array(2.0), ["header is not a JSON object"]),
        ("header", None, ["KeyError", "header"]),
    ], ids=["float32", "int64", "object", "header-text-not-json", "header-a-number",
            "no-header"])
    def test_format_2_member_that_is_not_read_as_stored(self, out, data_file, tmp_path, name,
                                                        member, words, capsys):
        path = str(tmp_path / "seed0.npz")
        header, members = format_2_parts(init_encoder(8, 4, 2, rng=0))
        if name == "header":
            header = member
        else:
            members[name] = member
        write_format_2(path, header, members)
        self._rejected(capsys, out, data_file, path, *words)

    @pytest.mark.parametrize("key, value, message", [
        ("split", 0, ":1: unknown split tag '0'"),
        ("features", [], ":1: row has no features"),
    ])
    def test_a_bad_first_row_fails_before_training(self, out, data_file, tmp_path, key, value,
                                                  message, capsys):
        lines = pathlib.Path(data_file).read_text().splitlines()
        first = json.loads(lines[0])
        first[key] = value
        path = str(tmp_path / "bad_first_row.jsonl")
        with open(path, "w") as fh:
            fh.write("\n".join([json.dumps(first), *lines[1:]]) + "\n")
        assert run_cli("train", "--out", out, "--data", path, "--epochs", "1",
                       "--patience", "1", "--seeds", "1") == cli.EXIT_DATA
        self._one_line_error(capsys, path + message)
        assert not os.path.exists(out)

    # an allocation is never attempted for real: where the kernel overcommits,
    # a huge np.empty succeeds and only filling it would exhaust the machine
    @pytest.mark.parametrize("command, module, name", [
        ("train", dataio, "_line_count"),  # sizes the feature array: a huge --hash-dim
        ("train", trainer, "build_model"),  # a huge --hidden-dim
        ("gen-data", dataio, "gen_mixture"),  # a huge --per-class
    ])
    def test_out_of_memory_is_one_line_exit_3(self, out, data_file, tmp_path, command, module,
                                              name, monkeypatch, capsys):
        def unallocatable(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.6 TiB for an array")

        monkeypatch.setattr(module, name, unallocatable)
        flags = (("--data", data_file, "--epochs", "1", "--patience", "1", "--seeds", "1")
                 if command == "train" else ("--output", str(tmp_path / "gen.jsonl")))
        assert run_cli(command, "--out", out, *flags) == cli.EXIT_DATA
        self._one_line_error(capsys, "data error: out of memory: Unable to allocate 14.6 TiB")

    @staticmethod
    def _with_rows(tmp_path, task, split, keep):
        """A dataset file whose `split` keeps only its first `keep` rows
        (the rest move to train)."""
        if task == "classification":
            ds = gen_mixture(2, 8, 50, 4.0, seed=200)
        else:
            ds = dataio.load(regression_file(tmp_path), task="regression")
        splits = ds.split.copy()
        splits[np.flatnonzero(ds.split == split)[keep:]] = "train"
        path = str(tmp_path / f"{task}_{keep}_{split}.jsonl")
        save(dataclasses.replace(ds, split=splits), path)
        return path

    # a regression split of one row leaves its correlation undefined
    @pytest.mark.parametrize("task, missing, keep", [
        pytest.param("classification", "val", 0, id="val"),
        pytest.param("classification", "test", 0, id="test"),
        pytest.param("regression", "val", 1, id="regression-one-val"),
        pytest.param("regression", "test", 1, id="regression-one-test"),
    ])
    def test_empty_split_fails_before_training(self, out, tmp_path, task, missing, keep,
                                               capsys):
        path = self._with_rows(tmp_path, task, missing, keep)
        objective = "ce" if task == "classification" else "mse"
        assert run_cli("train", "--out", out, "--data", path, "--objective", objective,
                       "--epochs", "1", "--patience", "1", "--batch-size", "16",
                       "--hidden-dim", "4", "--seeds", "1") == cli.EXIT_DATA
        self._one_line_error(capsys, missing)
        assert not os.path.exists(out) or os.listdir(out) == []

    def test_eval_on_one_row_regression_split(self, out, tmp_path, capsys):
        path = self._with_rows(tmp_path, "regression", "test", 1)
        ckpt = str(tmp_path / "regressor.json")
        save_checkpoint(ckpt, init_encoder(3, 4, 1, rng=0))
        assert run_cli("eval", "--out", out, "--data", path, "--ckpt", ckpt,
                       "--split", "test") == cli.EXIT_DATA
        self._one_line_error(capsys, "'test'", "at least 2")
        assert not os.path.exists(out)

    # 0.001 of 30 train rows a class keeps none; 0.05 of 15 regression rows keeps one
    @pytest.mark.parametrize("task, ratio", [("classification", "0.001"),
                                             ("regression", "0.05")])
    def test_study_ratio_that_empties_a_class_fails_before_training(
            self, out, tmp_path, data_file, monkeypatch, task, ratio, capsys):
        calls = []
        original = trainer.train

        def counted(dataset, cfg, seed):
            calls.append(seed)
            return original(dataset, cfg, seed)

        monkeypatch.setattr(trainer, "train", counted)
        path, objective = ((data_file, "ce") if task == "classification"
                           else (regression_file(tmp_path), "mse"))
        assert run_cli("ratio-study", "--out", out, "--data", path, "--objectives", objective,
                       "--ratios", f"0.5,{ratio}", "--epochs", "1", "--patience", "1",
                       "--batch-size", "4", "--hidden-dim", "4", "--seeds", "1") == cli.EXIT_DATA
        self._one_line_error(capsys, f"train_ratio {ratio}")
        assert calls == []
        assert not os.path.exists(out)

    def test_repr_quality_with_fewer_test_rows_than_classes(self, out, tmp_path, capsys):
        ds = gen_mixture(4, 8, 10, 4.0, seed=206)
        test_rows = np.flatnonzero(ds.split == "test")
        split = ds.split.copy()
        split[test_rows[2:]] = "val"  # two test rows for four classes
        path = str(tmp_path / "two_test_rows.jsonl")
        save(dataclasses.replace(ds, split=split), path)
        ckpt = str(tmp_path / "four_class.json")
        save_checkpoint(ckpt, init_encoder(8, 4, 4, rng=0))
        assert run_cli("repr-quality", "--out", out, "--data", path,
                       "--ckpt", ckpt) == cli.EXIT_DATA
        self._one_line_error(capsys, "2 rows", "4 clusters")
        assert not os.path.exists(out)

    def test_repr_quality_of_codes_that_coincide(self, out, tmp_path):
        # eight test rows of two distinct feature vectors for four clusters:
        # a point whose own and nearest clusters sit on it (a = b = 0) scores
        # 0, where 0/0 made the median NaN (with a RuntimeWarning) and exit 0
        ds = gen_mixture(4, 8, 10, 4.0, seed=206)
        test_rows = np.flatnonzero(ds.split == "test")
        features = ds.features.copy()
        features[test_rows] = features[test_rows[np.arange(test_rows.size) % 2]]
        path = str(tmp_path / "two_points.jsonl")
        save(dataclasses.replace(ds, features=features), path)
        ckpt = str(tmp_path / "four_class.json")
        save_checkpoint(ckpt, init_encoder(8, 4, 4, rng=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("repr-quality", "--out", out, "--data", path, "--ckpt", ckpt) == 0
        results = read_report(out, run_ids(out)[0])["results"]
        assert all(-1.0 <= r["silhouette"] <= 1.0 for r in results["per_seed"])
        assert -1.0 <= results["silhouette_median"] <= 1.0

    def test_repr_quality_of_codes_too_large_to_cluster(self, out, tmp_path, capsys):
        # --lr 1e300 leaves finite weights near 1e300 and a perfect score;
        # the squared distances of their codes overflow k-means++
        data = str(tmp_path / "mix3.jsonl")
        train_out = str(tmp_path / "train_out")
        assert run_cli("gen-data", "--out", train_out, "--classes", "3", "--dim", "8",
                       "--per-class", "30", "--output", data) == 0
        assert run_cli("train", "--out", train_out, "--data", data, "--objective", "ce",
                       "--lr", "1e300", "--seeds", "1", "--epochs", "3", "--patience", "3",
                       "--batch-size", "8", "--hidden-dim", "8") == 0
        [run_id] = [r for r in run_ids(train_out)
                    if os.path.isdir(os.path.join(train_out, r, "ckpt"))]
        ckpt = os.path.join(train_out, run_id, "ckpt", "seed0.npz")
        capsys.readouterr()
        assert run_cli("repr-quality", "--out", out, "--data", data,
                       "--ckpt", ckpt) == cli.EXIT_DATA
        self._one_line_error(capsys, ckpt, "too large to cluster")
        assert not os.path.exists(out)

    def test_eval_on_empty_split(self, out, tmp_path, ckpt, capsys):
        ds = gen_mixture(2, 8, 50, 4.0, seed=200)
        path = str(tmp_path / "no_test.jsonl")
        save(dataclasses.replace(ds, split=np.where(ds.split == "test", "train", ds.split)),
             path)
        assert run_cli("eval", "--out", out, "--data", path, "--ckpt", ckpt,
                       "--split", "test") == cli.EXIT_DATA
        self._one_line_error(capsys, "test")

    @pytest.mark.parametrize("command", ["eval", "repr-quality", "ood"])
    def test_fault_in_a_split_not_read_exits_3_naming_the_line(self, out, tmp_path, data_file,
                                                               command, capsys):
        path = tmp_path / "rows.jsonl"
        with open(data_file, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[2] = '{"features": [1.0], "label": "0", "split": "train"}'  # 1 feature of 8
        path.write_text("\n".join(lines) + "\n")
        ckpt = str(tmp_path / "seed0.json")
        save_checkpoint(ckpt, init_encoder(8, 4, 2, rng=0))
        files = {"eval": ("--data", str(path), "--ckpt", ckpt, "--split", "test"),
                 "repr-quality": ("--data", str(path), "--ckpt", ckpt),
                 "ood": ("--source", data_file, "--target", str(path), "--mapping",
                         str(tmp_path / "map.csv"), "--objective", "ce", "--seeds", "1")}
        (tmp_path / "map.csv").write_text("source_label,target_label\n0,0\n1,1\n")
        assert run_cli(command, "--out", out, *files[command]) == cli.EXIT_DATA
        self._one_line_error(capsys, f"{path}:3: row has 1 features, expected 8")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("kind", ["features", "text"])
    def test_eval_of_a_split_the_file_lacks(self, out, tmp_path, kind, capsys):
        path = tmp_path / "no_val.jsonl"
        if kind == "text":
            path.write_text(_text_rows().replace('"val"', '"train"'))
            ckpt_width, flags = 16, ("--hash-dim", "16")
        else:
            ds = gen_mixture(2, 8, 50, 4.0, seed=200)
            save(dataclasses.replace(ds, split=np.where(ds.split == "val", "test", ds.split)),
                 str(path))
            ckpt_width, flags = 8, ()
        ckpt = str(tmp_path / "seed0.json")
        save_checkpoint(ckpt, init_encoder(ckpt_width, 4, 2, rng=0))
        assert run_cli("eval", "--out", out, "--data", str(path), "--ckpt", ckpt,
                       "--split", "val", *flags) == cli.EXIT_DATA
        assert capsys.readouterr().err == ("data error: dataset has no 'val' rows; "
                                           "classification needs at least 1\n")
        assert not os.path.exists(out)

    # each case: the file's name and text, and the line at fault
    @pytest.mark.parametrize("name, text, line", [
        pytest.param("rows.jsonl", '{"features": 5, "label": "a"}\n', 1, id="features-number"),
        pytest.param("rows.jsonl", '{"features": [1.0], "label": "a"}\n'
                     '{"features": null, "label": "b"}\n', 2, id="features-null"),
        pytest.param("rows.jsonl", '{"features": [1.0], "label": "a"}\n\n5\n', 3,
                     id="row-not-an-object"),
        pytest.param("rows.csv", "f0,f1,label\n1,2,a\n\n1,2\n", 4, id="csv-record-short"),
        pytest.param("rows.csv", "f0,f1,label\n1,2,a,b\n", 2, id="csv-record-long"),
        pytest.param("map.csv", "source_label,target_label\n0,0\n\n1\n", 4,
                     id="mapping-row-of-one-field"),
        pytest.param("map.csv", "source_label,target_label\n1,1\n0,0,9\n", 3,
                     id="mapping-row-of-three-fields"),
        # rows are named by their line in the file, blank lines included
        pytest.param("rows.jsonl", '\n\n{"features": [1.0, 2.0], "label": "a"}\n\n'
                     '{"features": [1.0], "label": "b"}\n', 5, id="feature-count-after-blanks"),
        pytest.param("rows.jsonl", '\n{"features": [1.0], "label": "a"}\n\n'
                     '{"text": "x", "label": "b"}\n', 4, id="mixed-schema-after-blanks"),
        pytest.param("rows.jsonl", '{"features": [1.0], "label": "a"}\n\n{"features": [2.0]}\n',
                     3, id="missing-label-after-blank"),
        pytest.param("rows.jsonl", '{"features": [1.0], "label": "a"}\n'
                     '{"features": [2.0], "label": null}\n', 2, id="null-label"),
        pytest.param("rows.csv", "f0,f1,label\n1,2,a\n\nx,2,b\n", 4,
                     id="csv-non-numeric-after-blank"),
        pytest.param("rows.jsonl", '{"features": [1.0], "label": "a"}\n\n'
                     '{"features": [2.0], "label": "b", "split": "tset"}\n', 3,
                     id="unknown-split-tag"),
        # a feature must read as a finite float64
        pytest.param("rows.jsonl", '{"features": [1.0], "label": "a"}\n'
                     '{"features": [1e999], "label": "b"}\n', 2, id="jsonl-feature-1e999"),
        pytest.param("rows.jsonl", '{"features": [1.0], "label": "a"}\n\n'
                     '{"features": [NaN], "label": "b"}\n', 3, id="jsonl-feature-NaN"),
        pytest.param("rows.csv", "f0,f1,label\n1,2,a\n1,nan,b\n", 3, id="csv-feature-nan"),
        pytest.param("rows.jsonl", '{"features": [1.0], "label": "a"}\n'
                     '{"features": [1' + "0" * 400 + '], "label": "b"}\n', 2,
                     id="jsonl-feature-int-beyond-float"),
        # json.loads refuses an integer of more than 4300 digits
        pytest.param("rows.jsonl", '{"features": [1.0], "label": "a"}\n'
                     '{"features": [1' + "0" * 5000 + '], "label": "b"}\n', 2,
                     id="jsonl-feature-int-beyond-digit-limit"),
        # the first fault in the file is the one named
        pytest.param("rows.jsonl", '{"features": [1.0], "label": "a"}\n'
                     '{"features": ["x"], "label": "b"}\n\n{"features": [\n', 2,
                     id="first-fault-in-file-order"),
        pytest.param("rows.jsonl", '{"features": [1.0], "label": "a"}\n'
                     '{"features": [Infinity], "label": "b"}\n{"features": [\n', 2,
                     id="non-finite-before-invalid-json"),
    ])
    def test_malformed_input_exits_3_naming_the_line(self, out, tmp_path, data_file,
                                                     monkeypatch, name, text, line, capsys):
        calls = []
        monkeypatch.setattr(trainer, "train", lambda *args: calls.append(args))
        path = tmp_path / name
        path.write_text(text)
        if name == "map.csv":
            files = ("ood", "--source", data_file, "--target", data_file, "--mapping", str(path))
        else:
            files = ("train", "--data", str(path))
        assert run_cli(*files, "--out", out, "--objective", "ce",
                       "--seeds", "1") == cli.EXIT_DATA
        self._one_line_error(capsys, f"{path}:{line}:")
        assert calls == []
        assert not os.path.exists(out)

    def test_non_numeric_regression_label_exits_3_naming_the_line(self, out, tmp_path,
                                                                  monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(trainer, "train", lambda *args: calls.append(args))
        path = tmp_path / "reg.jsonl"
        path.write_text('{"features": [1.0], "label": 0.5}\n\n{"features": [2.0], "label": "a"}\n')
        assert run_cli("train", "--data", str(path), "--out", out, "--objective", "mse",
                       "--seeds", "1") == cli.EXIT_DATA
        self._one_line_error(capsys, f"{path}:3:", "regression labels must be numeric")
        assert calls == []
        assert not os.path.exists(out)

    @pytest.mark.parametrize("label", ['"nan"', '"inf"', "1e999"], ids=["nan", "inf", "1e999"])
    def test_non_finite_regression_label_exits_3_before_training(self, out, tmp_path,
                                                                 monkeypatch, capsys, label):
        calls = []
        original = trainer.train

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(trainer, "train", counted)
        path = regression_file(tmp_path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        row = json.loads(lines[4])
        lines[4] = f'{{"features": {json.dumps(row["features"])}, "label": {label}}}'
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert run_cli("train", "--data", path, "--out", out, "--objective", "mse",
                       "--seeds", "1") == cli.EXIT_DATA
        self._one_line_error(capsys, f"{path}:5:", "regression labels must be finite numbers")
        assert calls == []
        assert not os.path.exists(out)

    @pytest.mark.parametrize("text", ["{bad", '["epochs"]'], ids=["malformed-json", "json-list"])
    def test_config_file_that_is_not_a_json_object_exits_3(self, out, data_file, tmp_path,
                                                           text, capsys):
        config = tmp_path / "train.json"
        config.write_text(text)
        assert run_cli("train", "--out", out, "--data", data_file,
                       "--config", str(config)) == cli.EXIT_DATA
        self._one_line_error(capsys, str(config))
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag", ["--data", "--ckpt"])
    def test_directory_as_input_exits_3_naming_it(self, out, data_file, ckpt, tmp_path, flag,
                                                  capsys):
        files = {"--data": data_file, "--ckpt": ckpt, flag: str(tmp_path)}
        assert run_cli("eval", "--out", out, *(v for item in files.items() for v in item)) \
            == cli.EXIT_DATA
        self._one_line_error(capsys, str(tmp_path))
        assert not os.path.exists(out)

    @pytest.mark.parametrize("name, text", [
        pytest.param("rows.jsonl", b'{"features": [1.0], "label": "a"}\n\xff\n', id="jsonl"),
        pytest.param("map.csv", b"source_label,target_label\n0,\xff\n", id="mapping-csv"),
    ])
    def test_byte_that_is_not_utf8_exits_3_naming_the_file(self, out, data_file, tmp_path,
                                                           name, text, capsys):
        path = tmp_path / name
        path.write_bytes(text)
        if name == "map.csv":
            files = ("ood", "--source", data_file, "--target", data_file, "--mapping", str(path))
        else:
            files = ("train", "--data", str(path))
        assert run_cli(*files, "--out", out, "--objective", "ce",
                       "--seeds", "1") == cli.EXIT_DATA
        self._one_line_error(capsys, str(path), "0xff")
        assert not os.path.exists(out)


CLASSIFICATION_ROWS = """\
{"features": [1.0, 0.0], "label": "a", "split": "train"}
{"features": [0.9, 0.2], "label": "a", "split": "train"}
{"features": [0.0, 1.0], "label": "b", "split": "train"}
{"features": [0.1, 0.8], "label": "b", "split": "train"}
{"features": [0.8, 0.1], "label": "a", "split": "val"}
{"features": [0.2, 0.9], "label": "b", "split": "val"}
{"features": [1.1, 0.1], "label": "a", "split": "test"}
{"features": [0.1, 1.1], "label": "b", "split": "test"}
"""

REGRESSION_ROWS = """\
{"features": [1.0, 0.0], "label": 1.0, "split": "train"}
{"features": [0.5, 0.5], "label": 0.5, "split": "train"}
{"features": [0.0, 1.0], "label": -1.0, "split": "train"}
{"features": [0.2, 0.3], "label": 0.1, "split": "train"}
{"features": [0.9, 0.1], "label": 0.8, "split": "val"}
{"features": [0.1, 0.9], "label": -0.7, "split": "val"}
{"features": [0.7, 0.2], "label": 0.6, "split": "test"}
{"features": [0.3, 0.6], "label": -0.2, "split": "test"}
"""

GOLDEN_FLAGS = ("--epochs", "1", "--patience", "1", "--batch-size", "2", "--hidden-dim", "4",
                "--seeds", "1")


class TestUnreadableInputs:
    """JSON nested past the parser's recursion limit, a csv cell over
    csv.field_size_limit() and a damaged compressed checkpoint member are
    data errors: exit 3 in one line naming the file (`file:line` for a row)."""

    DEEP = "[" * 10_000 + "]" * 10_000

    def _exits_3(self, capsys, argv, *names):
        assert run_cli(*argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("data error:")
        for name in names:
            assert name in err

    def test_a_deep_dataset_row(self, out, data_file, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        first = pathlib.Path(data_file).read_text().splitlines()[0]
        path.write_text(f"{first}\n{self.DEEP}\n")
        self._exits_3(capsys, ["train", "--out", out, "--data", str(path)], f"{path}:2")

    def test_a_deep_config_file(self, out, data_file, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text(self.DEEP)
        self._exits_3(capsys, ["train", "--out", out, "--data", data_file,
                               "--config", str(config)], str(config))

    def test_a_deep_format_1_checkpoint(self, out, data_file, tmp_path, capsys):
        ckpt = tmp_path / "deep.json"
        ckpt.write_text(self.DEEP)
        self._exits_3(capsys, ["eval", "--out", out, "--data", data_file, "--ckpt", str(ckpt)],
                      str(ckpt))

    def test_a_deep_format_2_header(self, out, data_file, tmp_path, capsys):
        ckpt = str(tmp_path / "deep.npz")
        write_format_2(ckpt, np.array(self.DEEP), format_2_parts(init_encoder(8, 4, 2, rng=0))[1])
        self._exits_3(capsys, ["eval", "--out", out, "--data", data_file, "--ckpt", ckpt], ckpt)

    def test_a_deep_report(self, tmp_path, capsys):
        run_dir = tmp_path / "out" / "abc"
        run_dir.mkdir(parents=True)
        (run_dir / "manifest.json").write_text(json.dumps({"run_id": "abc", "command": "train"}))
        (run_dir / "report.json").write_text(self.DEEP)
        self._exits_3(capsys, ["report", "--out", str(tmp_path / "out")],
                      str(run_dir / "report.json"))

    def test_a_csv_cell_over_the_limit(self, out, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("text,label\nshort doc,a\n" + "x" * (csv.field_size_limit() + 1) + ",b\n")
        self._exits_3(capsys, ["train", "--out", out, "--data", str(path)], f"{path}:3")

    def test_a_mapping_cell_over_the_limit(self, out, data_file, tmp_path, capsys):
        mapping = tmp_path / "map.csv"
        mapping.write_text("source_label,target_label\n0,0\n1," + "x" * 200_000 + "\n")
        self._exits_3(capsys, ["ood", "--out", out, "--source", data_file, "--target", data_file,
                               "--mapping", str(mapping)], f"{mapping}:3")

    def test_a_damaged_compressed_member(self, out, data_file, tmp_path, capsys):
        """A first deflate byte of 0xff starts a block of the reserved type."""
        ckpt = str(tmp_path / "compressed.npz")
        header, members = format_2_parts(init_encoder(8, 4, 2, rng=0))
        np.savez_compressed(ckpt, **members, header=json.dumps(header))
        with zipfile.ZipFile(ckpt) as archive:
            offset = archive.getinfo("w_in.npy").header_offset
        blob = bytearray(pathlib.Path(ckpt).read_bytes())
        name_len, extra_len = struct.unpack("<HH", blob[offset + 26:offset + 30])
        blob[offset + 30 + name_len + extra_len] = 0xFF
        pathlib.Path(ckpt).write_bytes(blob)
        self._exits_3(capsys, ["eval", "--out", out, "--data", data_file, "--ckpt", ckpt], ckpt)


class TestGoldenRunIds:
    """Run ids of fixed invocations on literal files, given by relative
    paths (a run id hashes the paths as given). A run id depends on the
    command's inputs only, never on training arithmetic; a change to one of
    these values changes the identity of every stored run."""

    @pytest.fixture(autouse=True)
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cls.jsonl").write_text(CLASSIFICATION_ROWS)
        (tmp_path / "reg.jsonl").write_text(REGRESSION_ROWS)
        # format 1, as the JSON writer wrote them, then format 2
        write_format_1("cls_ckpt.json", format_1_payload(init_encoder(2, 4, 2, rng=0)))
        write_format_1("reg_ckpt.json", format_1_payload(init_encoder(2, 4, 1, rng=0)))
        save_checkpoint("cls_ckpt.npz", init_encoder(2, 4, 2, rng=0))
        save_checkpoint("reg_ckpt.npz", init_encoder(2, 4, 1, rng=0))

    @pytest.mark.parametrize("argv, run_id", [
        pytest.param(("train", "--data", "cls.jsonl", "--objective", "spc", *GOLDEN_FLAGS),
                     "6bfe1897589c", id="train-spc"),
        pytest.param(("train", "--data", "reg.jsonl", "--objective", "mse", *GOLDEN_FLAGS),
                     "63895f748b66", id="train-mse"),
        pytest.param(("ratio-study", "--data", "reg.jsonl", "--objectives", "mse",
                      "--ratios", "1", *GOLDEN_FLAGS), "7d1114e0c00c", id="ratio-study-mse"),
        pytest.param(("eval", "--data", "cls.jsonl", "--ckpt", "cls_ckpt.json"),
                     "2a441ceb69ba", id="eval-classification"),
        pytest.param(("eval", "--data", "reg.jsonl", "--ckpt", "reg_ckpt.json"),
                     "fafe24e27f47", id="eval-regression"),
        pytest.param(("repr-quality", "--data", "cls.jsonl", "--ckpt", "cls_ckpt.json",
                      "--seeds", "1"), "8eafc92e1e04", id="repr-quality"),
    ])
    def test_run_id(self, argv, run_id):
        assert run_cli(*argv, "--out", "out") == 0
        assert _single_run_id("out") == run_id

    # a checkpoint's bytes enter the run id of eval and repr-quality, so
    # these pin format 2's bytes too
    @pytest.mark.parametrize("argv, run_id", [
        pytest.param(("eval", "--data", "cls.jsonl", "--ckpt", "cls_ckpt.npz"),
                     "38ae6e1d7f51", id="eval-classification"),
        pytest.param(("eval", "--data", "reg.jsonl", "--ckpt", "reg_ckpt.npz"),
                     "4634f2560298", id="eval-regression"),
        pytest.param(("repr-quality", "--data", "cls.jsonl", "--ckpt", "cls_ckpt.npz",
                      "--seeds", "1"), "f6c5a53678c1", id="repr-quality"),
    ])
    def test_run_id_on_format_2(self, argv, run_id):
        assert run_cli(*argv, "--out", "out") == 0
        assert _single_run_id("out") == run_id


def _text_rows() -> str:
    """Two topics of short documents, 12 rows each: 6 train, 3 val, 3 test."""
    rng = random.Random(16)
    topics = (["apple", "pear", "plum", "fig"], ["rock", "stone", "sand", "clay"])
    shared = ["the", "a", "of", "and", "Fresh", "old"]
    lines = []
    for label, words in enumerate(topics):
        for k in range(12):
            text = " ".join(rng.choice(words + shared) for _ in range(rng.randint(3, 9)))
            split = "train" if k < 6 else "val" if k < 9 else "test"
            lines.append(json.dumps({"text": text, "label": f"t{label}", "split": split}))
    return "\n".join(lines) + "\n"


TEXT_FLAGS = ("--hash-dim", "16", "--hash-seed", "5", "--epochs", "2", "--patience", "2",
              "--batch-size", "4", "--hidden-dim", "4", "--seeds", "1")

# every command that loads a dataset, on the text file above, and the sha256
# of its report's results, captured before load_s was timed
TEXT_COMMANDS = {
    "train": (("train", "--data", "text.jsonl", "--objective", "spc", "--beta", "0.1",
               "--gamma", "0.1", *TEXT_FLAGS),
              "9df2e05227076fa37b26fc1ebf14d851945683cec7f53aa453a5922b89811e28"),
    "eval": (("eval", "--data", "text.jsonl", "--ckpt", "ckpt.json", "--hash-dim", "16",
              "--hash-seed", "5"),
             "50681fe3a2928caff4d9f2926e827dbb35d9665701c9a91b2db29521b9cab735"),
    "sweep": (("sweep", "--data", "text.jsonl", "--betas", "0.1", "--gammas", "0.1",
               *TEXT_FLAGS),
              "35004c77bd47ec1d848f3859a4b50a1a80c0bfda895b50a13e24a19654efc131"),
    "noise-study": (("noise-study", "--data", "text.jsonl", "--objectives", "ce",
                     "--ratios", "0.2", *TEXT_FLAGS),
                    "52e133d15a3911df79e01bb7764e0c5d624dcfdcc863fd124b5fc74bab580e31"),
    "ratio-study": (("ratio-study", "--data", "text.jsonl", "--objectives", "ce",
                     "--ratios", "0.5", *TEXT_FLAGS),
                    "43a8c20582f8d8553675eec17e946a7fc847ac38a329fb739de0fc7da0c5d9c9"),
    "ood": (("ood", "--source", "text.jsonl", "--target", "text.jsonl", "--mapping", "map.csv",
             "--objective", "ce", *TEXT_FLAGS),
            "7291f4547336ad4ec765b9c9c37f458213608163daf47b604cdbd558319f7622"),
    "repr-quality": (("repr-quality", "--data", "text.jsonl", "--ckpt", "ckpt.json",
                      "--hash-dim", "16", "--hash-seed", "5", "--seeds", "2"),
                     "664afd1386c88963632e193b9d147a322394d3d3e64b8472389dbb2e1c9249ae"),
}

# the results sha256 of TEXT_COMMANDS where NumPy's X86_V4 target is off,
# for each command whose results differ there
TEXT_RESULTS_AVX2 = {
    "train": "d12140cc8324c8a0b81f217486d4e4e5f0835444094a89c5a723499e476d38f9",
}


class TestLoadTiming:
    """Each command that loads a dataset reports the load's seconds in
    `timing`, which stays outside the results."""

    @pytest.fixture(autouse=True)
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "text.jsonl").write_text(_text_rows())
        (tmp_path / "map.csv").write_text("source_label,target_label\nt0,t0\nt1,t1\n")
        save_checkpoint("ckpt.json", init_encoder(16, 4, 2, rng=0))

    @pytest.mark.parametrize("command", list(TEXT_COMMANDS))
    def test_load_s_is_timed_and_the_results_hold(self, command):
        argv, results_sha256 = TEXT_COMMANDS[command]
        if not X86_V4:
            results_sha256 = TEXT_RESULTS_AVX2.get(command, results_sha256)
        assert run_cli(*argv, "--out", "out") == 0
        report = read_report("out", _single_run_id("out"))
        keys = {"train": ["load_s", "wall_clock"],
                "repr-quality": ["kmeans_s", "load_s", "silhouette_s"]}.get(command, ["load_s"])
        assert sorted(report["timing"]) == keys
        assert all(value >= 0.0 for value in report["timing"].values())
        payload = json.dumps(report["results"], sort_keys=True).encode("utf-8")
        assert hashlib.sha256(payload).hexdigest() == results_sha256, pinned_on(CLASS_TABLE)


SCOPED_FLAGS = ("--epochs", "2", "--patience", "2", "--batch-size", "4", "--hidden-dim", "4",
                "--seeds", "1")


def _scoped_cases() -> dict:
    """Each command that reads one split, with the run id and the sha256 of
    the results it gave when it loaded every row of the file, and the rows
    each of its loads holds: a 60-row mixture (36/12/12), a 30-row
    regression file (15/7/8) and the 24-row text file (12/6/6)."""
    cases = {}
    for split, mix_rows, reg_rows, text_rows in (("train", 36, 15, 12), ("val", 12, 7, 6),
                                                 ("test", 12, 8, 6)):
        cases[f"eval-mixture-{split}"] = (
            ("eval", "--data", "mix.jsonl", "--ckpt", "mix_ckpt.json", "--split", split),
            [mix_rows])
        cases[f"eval-regression-{split}"] = (
            ("eval", "--data", "reg.jsonl", "--ckpt", "reg_ckpt.json", "--split", split),
            [reg_rows])
        cases[f"eval-text-{split}"] = (
            ("eval", "--data", "text.jsonl", "--ckpt", "text_ckpt.json", "--split", split,
             "--hash-dim", "16", "--hash-seed", "5"), [text_rows])
    cases["repr-quality-mixture"] = (
        ("repr-quality", "--data", "mix.jsonl", "--ckpt", "mix_ckpt.json", "--seeds", "2"), [12])
    cases["repr-quality-text"] = (
        ("repr-quality", "--data", "text.jsonl", "--ckpt", "text_ckpt.json", "--seeds", "2",
         "--hash-dim", "16", "--hash-seed", "5"), [6])
    # the source loads every split; label 2 has no mapping, so its rows are excluded
    cases["ood-mixture"] = (
        ("ood", "--source", "mix.jsonl", "--target", "mix.jsonl", "--mapping", "mix_map.csv",
         "--objective", "ce", *SCOPED_FLAGS), [60, 12])
    cases["ood-text"] = (
        ("ood", "--source", "text.jsonl", "--target", "text.jsonl", "--mapping", "text_map.csv",
         "--objective", "ce", "--hash-dim", "16", "--hash-seed", "5", *SCOPED_FLAGS), [24, 6])
    return cases


SCOPED_CASES = _scoped_cases()

# run id and results sha256 of each case, captured with a load of every row
SCOPED_GOLDEN = {
    "eval-mixture-train": ("3b924e03da67",
                          "a6667e1a7b3d697c7994c562ea3ff14fda9bc2005938b141cbbabe1341d6c88d"),
    "eval-regression-train": ("bd38ce80df6f",
                             "607555131ea8d5eb85c7738805f00978d9e316de76e9e7c9dee67a4f8d894bf8"),
    "eval-text-train": ("9856468ee7bc",
                       "25c2ac07c132fd582551028315018153ddd3da7f13f0d785e613b8a969ccd882"),
    "eval-mixture-val": ("4ec63e7fe1b3",
                        "371c0c6c47c6c767d0d475c39f40e08831c757081719e45dd6bb7209e33432f1"),
    "eval-regression-val": ("f4fc788f3844",
                           "afcd4ab0999317ec27d37f20ad947bd5777b958ba69828caed0ffa68f1142d36"),
    "eval-text-val": ("071daf7260bd",
                     "743db96d0a7b4edfc2503f33252160f8e88b2ff9286fcf7161ff2ddea3301fff"),
    "eval-mixture-test": ("23bd3d2aac3e",
                         "5470c3e3db81779277ce224614df8a73a2777a0754c55da2a6d65d702809d526"),
    "eval-regression-test": ("130ebcaf0697",
                            "9e67c7ac0c693e808008d465f7f6688de2f38935d7a4f96334860c4f50df55f5"),
    "eval-text-test": ("a3d44d6647b5",
                      "50681fe3a2928caff4d9f2926e827dbb35d9665701c9a91b2db29521b9cab735"),
    "repr-quality-mixture": ("f9f4c32c9058",
                            "f8b1a485a3c0f6a644db5852a4c192755c2eb8d882e2c87637b5b9d3d633feed"),
    "repr-quality-text": ("ca5781a77bc4",
                         "664afd1386c88963632e193b9d147a322394d3d3e64b8472389dbb2e1c9249ae"),
    "ood-mixture": ("3fa83103324e",
                   "f0666ab5c3678ce61a001a7562b667c007382f04b49f63cbc2178d4208cf06bc"),
    "ood-text": ("a45d49f9a646",
                "7291f4547336ad4ec765b9c9c37f458213608163daf47b604cdbd558319f7622"),
}


class TestSplitScopedCommands:
    """eval, repr-quality and ood's target load only the split they read,
    and give the run ids and results of a load of the whole file."""

    @pytest.fixture(autouse=True)
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save(gen_mixture(3, 4, 20, 1.0, seed=17), "mix.jsonl")
        regression_file(tmp_path)  # reg.jsonl
        (tmp_path / "text.jsonl").write_text(_text_rows())
        (tmp_path / "mix_map.csv").write_text("source_label,target_label\n0,0\n1,1\n")
        (tmp_path / "text_map.csv").write_text("source_label,target_label\nt0,t0\nt1,t1\n")
        # format 1, as the JSON writer wrote them when the goldens were taken
        for name, params in (("mix", init_encoder(4, 4, 3, rng=0)),
                             ("reg", init_encoder(3, 4, 1, rng=0)),
                             ("text", init_encoder(16, 4, 2, rng=0))):
            write_format_1(f"{name}_ckpt.json", format_1_payload(params))
        self.held = []
        original = dataio.load

        @functools.wraps(original)  # the parser reads load's featurizer defaults
        def recorded(*args, **kwargs):
            dataset = original(*args, **kwargs)
            self.held.append(dataset.num_rows)
            return dataset

        monkeypatch.setattr(dataio, "load", recorded)

    @pytest.mark.parametrize("case", list(SCOPED_CASES))
    def test_results_of_a_full_load_from_the_split_alone(self, case):
        argv, held = SCOPED_CASES[case]
        assert run_cli(*argv, "--out", "out") == 0
        run_id = _single_run_id("out")
        payload = json.dumps(read_report("out", run_id)["results"], sort_keys=True)
        assert (run_id, hashlib.sha256(payload.encode("utf-8")).hexdigest()) == \
            SCOPED_GOLDEN[case], pinned_on("the one (AVX512F and AVX2)")
        assert self.held == held


def _golden_datasets() -> dict:
    """A 3-class mixture, and the same rows scored by a fixed linear function."""
    mixture = gen_mixture(3, 6, 20, 2.0, seed=300)
    scores = mixture.features[:, 0] - 0.5 * mixture.features[:, 1]
    return {"classification": mixture,
            "regression": dataclasses.replace(mixture, targets=scores, task="regression",
                                              num_classes=0, label_names=[])}


# every kind takes the weights it accepts, nonzero, so each loss term is in the trajectory
GOLDEN_WEIGHTS = {"beta": 0.05, "gamma": 0.5, "cp_weight": 0.3}
GOLDEN_SETTINGS = {
    "plain": {},
    "dropout-layer-norm-decay": {"dropout": 0.25, "layer_norm": True, "weight_decay": 0.05},
    # patience 1 stops training after a worse epoch, so the best epoch is restored
    "zero-eps-early-stop": {"zero_eps": True, "epochs": 12, "patience": 1},
    # the batch entropy of softmax(mu): mu gets gradients from three loss terms
    "entropy-of-mu": {"structured_from": "mu"},
}


def golden_run(kind: str, setting: str) -> trainer.RunReport:
    spec = OBJECTIVES[kind]
    settings = dict(GOLDEN_SETTINGS[setting])
    objective = ObjectiveConfig(kind=kind, **{name: GOLDEN_WEIGHTS[name] for name in spec.weights},
                                structured_from=settings.pop("structured_from", "sample"))
    cfg = TrainConfig(objective=objective, epochs=6, patience=6, batch_size=8,
                      learning_rate=0.05, hidden_dim=5, vib_latent_dim=3)
    cfg = dataclasses.replace(cfg, **settings)
    return train(_golden_datasets()[spec.task], cfg, seed=7)


def params_digest(report: trainer.RunReport) -> str:
    return hashlib.sha256(b"".join(p.values.tobytes()
                                   for p in report.model.parameters())).hexdigest()[:16]


# (kind, setting) -> the first 16 hex digits of `run_hash()` and of `params_digest`
GOLDEN_RESULTS = {
    ("spc", "plain"): ("4fcdf959950c542b", "7ccf41bfa92d9227"),
    ("spc", "dropout-layer-norm-decay"): ("b29bc25df6d31223", "403c324e3de07b4f"),
    ("spc", "zero-eps-early-stop"): ("c0203ad201443214", "c343c58196f1a2b7"),
    ("spc", "entropy-of-mu"): ("fdc62b358eeb99cf", "2357cbcf01bfeb0d"),
    ("pc", "plain"): ("04033a0eb27dcc65", "682c54db348448d7"),
    ("pc", "dropout-layer-norm-decay"): ("bd222781adf3180b", "f91bb5a58d761bb9"),
    ("pc", "zero-eps-early-stop"): ("cef29fb4d313503c", "b0c43f964c9c3494"),
    ("ce", "plain"): ("4cb8f539979c62d6", "e16561f7d9164c9c"),
    ("ce", "dropout-layer-norm-decay"): ("3154e833a89947a1", "2a3b95296420b94a"),
    ("ce", "zero-eps-early-stop"): ("9ffb25f546a4bc3b", "e16561f7d9164c9c"),
    ("ce_cp", "plain"): ("7a1d1a90b5372a9c", "8565969f3007c0ea"),
    ("ce_cp", "dropout-layer-norm-decay"): ("190a9a28eea59a6f", "c4325eebaeaa9a0d"),
    ("ce_cp", "zero-eps-early-stop"): ("ff3f53139ddfb394", "8565969f3007c0ea"),
    ("vib", "plain"): ("5a27b79d950ad5f4", "d381535354f85adc"),
    ("vib", "dropout-layer-norm-decay"): ("1e471b1b7b8242f1", "0c8a44cd9bf28605"),
    ("vib", "zero-eps-early-stop"): ("393cf80d50bbacea", "0d56e04d12d90d90"),
    ("mse", "plain"): ("08d8d232750ab1ed", "287f4bdf9fd8a83e"),
    ("mse", "dropout-layer-norm-decay"): ("fdbbd122e5836ada", "8e3fa44ae8d85cd2"),
    ("mse", "zero-eps-early-stop"): ("0aa6682fa4b1d616", "287f4bdf9fd8a83e"),
    ("mse_pc", "plain"): ("82da65f878598877", "bdbdf000731924f9"),
    ("mse_pc", "dropout-layer-norm-decay"): ("934fb2e25fa07d20", "c9349c7a31944a20"),
    ("mse_pc", "zero-eps-early-stop"): ("5d0016a0b4f3c4e8", "2cf103ca5091ba32"),
    ("mse_vib", "plain"): ("81e598ca3342e1c1", "ca52190c7ee8c7a7"),
    ("mse_vib", "dropout-layer-norm-decay"): ("f0c3a3b73d50cd42", "d9a77eb6259ef038"),
    ("mse_vib", "zero-eps-early-stop"): ("4570f345c4ae3d44", "c68b99d5c7c9bd2e"),
}

# GOLDEN_RESULTS where NumPy's X86_V4 target is off (its AVX2 exp and log)
GOLDEN_RESULTS_AVX2 = {
    ("spc", "plain"): ("e18e277a19728ac4", "1957e1dc731f1f78"),
    ("spc", "dropout-layer-norm-decay"): ("91dc5cf2463b288c", "561b4a0558d3e4c4"),
    ("spc", "zero-eps-early-stop"): ("ec94b2deef2419e8", "420b90645a931aef"),
    ("spc", "entropy-of-mu"): ("53bd72592e108277", "4c77b5d23983ce8e"),
    ("pc", "plain"): ("46017b29c64601c1", "5d5c9965add007ed"),
    ("pc", "dropout-layer-norm-decay"): ("f8fd6cde35b2f0de", "4753fc2c2ffeb64e"),
    ("pc", "zero-eps-early-stop"): ("48264e0e4e0fd66b", "211cde831328f244"),
    ("ce", "plain"): ("1b934b0975916934", "385d53a170fc3e8d"),
    ("ce", "dropout-layer-norm-decay"): ("87be724abf70835b", "5686700db0c04f3e"),
    ("ce", "zero-eps-early-stop"): ("ce2419d85397c51c", "385d53a170fc3e8d"),
    ("ce_cp", "plain"): ("9d0e80100b28cee5", "30c3f97e4bb92fed"),
    ("ce_cp", "dropout-layer-norm-decay"): ("bb7a51f3e401cb82", "f49ee5ad11cb77de"),
    ("ce_cp", "zero-eps-early-stop"): ("b1088c1574085ae5", "30c3f97e4bb92fed"),
    ("vib", "plain"): ("0904b64b50db510c", "17172b30bfb0cc41"),
    ("vib", "dropout-layer-norm-decay"): ("604573383dba712c", "a8695085effe6afc"),
    ("vib", "zero-eps-early-stop"): ("a476bd351e386125", "30732455398efe6c"),
    ("mse", "plain"): ("08d8d232750ab1ed", "287f4bdf9fd8a83e"),
    ("mse", "dropout-layer-norm-decay"): ("fdbbd122e5836ada", "8e3fa44ae8d85cd2"),
    ("mse", "zero-eps-early-stop"): ("0aa6682fa4b1d616", "287f4bdf9fd8a83e"),
    ("mse_pc", "plain"): ("828a0213add39b9e", "1eb07e91b89c61e0"),
    ("mse_pc", "dropout-layer-norm-decay"): ("4a394e9139d7cc5a", "13e52848c668bdf6"),
    ("mse_pc", "zero-eps-early-stop"): ("593e14a9b1700ebc", "2cf103ca5091ba32"),
    ("mse_vib", "plain"): ("ac5b0d06764f77bc", "e4ac385ea73f45a3"),
    ("mse_vib", "dropout-layer-norm-decay"): ("7fa4b4b7504559db", "847823d4ad5300e2"),
    ("mse_vib", "zero-eps-early-stop"): ("4de79f93bace93ee", "0fde9707a458199a"),
}


class TestGoldenResults:
    """Results and final parameters of tiny `train` runs, bit for bit: every
    objective kind under plain training, under dropout with layer norm and
    weight decay, and under zero noise with an early stop; and spc with the
    batch entropy taken of softmax(mu). A change to one of these values
    changes the arithmetic of training."""

    @pytest.mark.parametrize("kind, setting", [pytest.param(*key, id="-".join(key))
                                               for key in GOLDEN_RESULTS])
    def test_run_hash_and_parameters(self, kind, setting):
        report = golden_run(kind, setting)
        pinned = GOLDEN_RESULTS if X86_V4 else GOLDEN_RESULTS_AVX2
        assert (report.run_hash()[:16], params_digest(report)) == pinned[kind, setting], \
            pinned_on(CLASS_TABLE)
        assert not report.diverged
        if setting == "zero-eps-early-stop":
            assert report.best_epoch < report.epochs_ran < report.config["epochs"]
