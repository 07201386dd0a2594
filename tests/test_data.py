import csv
import hashlib
import itertools
import json
import random
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from spc import data as dataio
from spc.data import (
    DataError,
    Dataset,
    gen_mixture,
    hash_featurize,
    inject_label_noise,
    load,
    save,
    subsample_train,
)

# sha256 of hash_featurize(seeded_corpus(), 256, seed=3) in TestHashFeaturize
PINNED_CORPUS_SHA256 = "73ff27674259e71f800542239fbc8a907fa464fb30e3ea812e93fc9b9d172dbb"


class TestLoad:
    def test_small_csv(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("f0,f1,label,split\n"
                        "0.5,1.0,a,train\n"
                        "1.5,-2.0,b,train\n"
                        "0.25,0.125,a,test\n")
        ds = load(str(path))
        assert ds.num_rows == 3
        assert ds.num_features == 2
        assert ds.num_classes == 2
        assert ds.label_names == ["a", "b"]
        assert np.array_equal(ds.targets, [0, 1, 0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load(str(path))

    def test_missing_file(self):
        with pytest.raises(DataError):
            load("/nonexistent/nowhere.jsonl")

    def test_round_trip_identity(self, tmp_path):
        ds = gen_mixture(3, 4, 30, 2.0, seed=1)
        path = tmp_path / "rt.jsonl"
        save(ds, str(path))
        back = load(str(path))
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.targets, back.targets)
        assert np.array_equal(ds.split, back.split)
        assert ds.label_names == back.label_names

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_csv_save_loads_as_its_jsonl(self, tmp_path, task):
        ds = gen_mixture(3, 4, 30, 2.0, seed=1)
        if task == "regression":
            ds = Dataset(features=ds.features, split=ds.split, task="regression",
                         targets=np.random.default_rng(1).normal(size=ds.num_rows))
        save(ds, str(tmp_path / "rt.jsonl"))
        save(ds, str(tmp_path / "rt.csv"))
        assert (tmp_path / "rt.csv").read_text().splitlines()[0] == "f0,f1,f2,f3,label,split"
        want, got = (load(str(tmp_path / name), task=task) for name in ("rt.jsonl", "rt.csv"))
        assert got.features.tobytes() == want.features.tobytes() == ds.features.tobytes()
        assert got.targets.tobytes() == want.targets.tobytes()
        assert got.split.tolist() == want.split.tolist() == ds.split.tolist()
        assert got.label_names == want.label_names

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\nnotanumber,a\n0.3,b\n")
        with pytest.raises(DataError, match="non-numeric"):
            load(str(path))

    @pytest.mark.parametrize("feature", ["true", '"2.5"', "null", "[1.0]"])
    def test_a_jsonl_feature_must_be_a_json_number(self, tmp_path, feature):
        # a bool or a numeric string is not read as a number (json true is 1.0 to float())
        path = tmp_path / "bad.jsonl"
        path.write_text('{"features": [0.0, 1.0], "label": "x"}\n'
                        f'{{"features": [{feature}, 2.5], "label": "y"}}\n')
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: "
                                            f"row has a non-numeric feature$"):
            load(str(path))

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_an_empty_csv_label_cell_is_a_missing_label(self, tmp_path, task):
        # csv cannot write null: an empty cell is no label, not a class named ''
        path = tmp_path / "blank.csv"
        path.write_text("f0,f1,label,split\n0.5,1.0,1,train\n1.5,-2.0,,train\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: "
                                            f"row is missing 'label' or has a null one$"):
            load(str(path), task=task)

    @pytest.mark.parametrize("label", ["[1]", '{"k": 2}'])
    def test_a_jsonl_label_must_not_be_an_array_or_an_object(self, tmp_path, label):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"features": [0.0], "label": "a"}\n'
                        f'{{"features": [1.0], "label": {label}}}\n')
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: "
                                            f"a label must be a string, a number or a bool$"):
            load(str(path))

    def test_a_jsonl_label_is_named_by_its_str(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text("".join(f'{{"features": [0.0], "label": {label}}}\n'
                                for label in ('"a"', "1", "1.5", "true")))
        assert load(str(path)).label_names == ["1", "1.5", "True", "a"]

    def test_val_only_label_reported_not_fatal(self, tmp_path):
        path = tmp_path / "ood.jsonl"
        path.write_text('{"features": [0.0], "label": "a", "split": "train"}\n'
                        '{"features": [1.0], "label": "a", "split": "train"}\n'
                        '{"features": [2.0], "label": "b", "split": "test"}\n')
        ds = load(str(path))
        assert ds.num_classes == 2
        assert ds.label_names == ["a", "b"]
        assert np.array_equal(ds.targets, [0, 0, 1])

    def test_text_rows_are_featurized(self, tmp_path):
        path = tmp_path / "text.jsonl"
        path.write_text('{"text": "good movie", "label": "pos", "split": "train"}\n'
                        '{"text": "bad movie", "label": "neg", "split": "train"}\n')
        ds = load(str(path), hash_dim=32, hash_seed=7)
        assert ds.features.shape == (2, 32)
        assert not np.array_equal(ds.features[0], ds.features[1])

    def test_regression_labels(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_text('{"features": [0.0], "label": 1.5, "split": "train"}\n'
                        '{"features": [1.0], "label": 2.5, "split": "val"}\n')
        ds = load(str(path), task="regression")
        assert ds.task == "regression"
        assert np.allclose(ds.targets, [1.5, 2.5])

    @pytest.mark.parametrize("split", ["0", "false", '""'])
    def test_a_falsy_jsonl_split_is_an_unknown_tag(self, tmp_path, split):
        path = tmp_path / "falsy.jsonl"
        path.write_text('{"features": [0.0], "label": "a"}\n'
                        f'{{"features": [1.0], "label": "b", "split": {split}}}\n')
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: unknown split tag"):
            load(str(path))

    def test_a_missing_or_null_jsonl_split_is_train(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text('{"features": [0.0], "label": "a"}\n'
                        '{"features": [1.0], "label": "b", "split": null}\n')
        assert load(str(path)).split.tolist() == ["train", "train"]

    def test_an_empty_csv_split_cell_is_train(self, tmp_path):
        path = tmp_path / "empty_cell.csv"
        path.write_text("f0,label,split\n0.5,a,\n1.5,b,test\n")
        assert load(str(path)).split.tolist() == ["train", "test"]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_rows_without_features_are_rejected(self, tmp_path, fmt):
        path = tmp_path / f"empty_rows.{fmt}"
        if fmt == "jsonl":
            path.write_text('{"features": [], "label": "a"}\n{"features": [], "label": "b"}\n')
            message = ":1: row has no features"
        else:  # a csv needs a feature or text column in its header
            path.write_text("label,split\na,train\n")
            message = ": need f0..fK feature columns"
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}{message}"):
            load(str(path))


BOM = "\ufeff"


class TestInputFiles:
    """Every input text file may start with a UTF-8 byte-order mark, and a
    csv header names each column once, its feature columns f0..f{D-1}."""

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_a_byte_order_mark_is_dropped(self, tmp_path, fmt):
        ds = gen_mixture(3, 4, 10, 2.0, seed=2)
        plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
        if fmt == "jsonl":
            save(ds, str(plain))
        else:
            plain.write_text("f0,f1,f2,f3,label,split\n" + "".join(
                ",".join([*map(repr, row), str(label), tag]) + "\n"
                for row, label, tag in zip(ds.features.tolist(), ds.targets, ds.split)))
        marked.write_text(BOM + plain.read_text(encoding="utf-8"), encoding="utf-8")
        want, got = load(str(plain)), load(str(marked))
        assert got.num_features == 4
        assert got.features.tobytes() == want.features.tobytes()
        assert np.array_equal(got.targets, want.targets)
        assert got.split.tolist() == want.split.tolist()

    def test_a_label_mapping_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "mapping.csv"
        path.write_text(BOM + "source_label,target_label\na,x\n", encoding="utf-8")
        assert dataio.read_label_mapping(str(path)) == {"x": "a"}

    @pytest.mark.parametrize("header", ["source_label,target_label,note", "source_label"])
    def test_a_label_mapping_header_of_other_columns(self, tmp_path, header):
        path = tmp_path / "map.csv"
        path.write_text(header + "\n0,0,x\n")
        with pytest.raises(DataError) as err:
            dataio.read_label_mapping(str(path))
        assert str(err.value) == (f"{path}: expected the header 'source_label,target_label', "
                                  f"got {header!r}")

    @pytest.mark.parametrize("header, message", [
        ("f0,f0,label,split", r"the header names \['f0'\] more than once"),
        ("f0,f1,label,label", r"the header names \['label'\] more than once"),
        ("f0,f2,label,split", r"feature columns must be f0..f1, got \['f0', 'f2'\]"),
        ("f0,f01,label,split", r"feature columns must be f0..f1, got \['f0', 'f01'\]"),
        ("text,f0,label,split", r"the header holds both a 'text' column and feature columns"),
    ])
    def test_a_bad_csv_header_is_a_data_error(self, tmp_path, header, message):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n" + ",".join(["1"] * (header.count(",") - 1) + ["a", "train"])
                        + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
            load(str(path))

    @pytest.mark.parametrize("header", ["f1,f0,label,split", "label,f0,split,f1", "split,label,f1,f0"])
    def test_feature_columns_in_any_order_load_as_f0_to_fk(self, tmp_path, header):
        cells = {"f0": ["0.5", "1.5"], "f1": ["-1", "2"], "label": ["a", "b"],
                 "split": ["train", "test"]}
        names = header.split(",")
        path = tmp_path / "shuffled.csv"
        path.write_text(header + "\n" + "".join(",".join(cells[c][i] for c in names) + "\n"
                                                for i in range(2)))
        ds = load(str(path))
        assert ds.features.tolist() == [[0.5, -1.0], [1.5, 2.0]]
        assert ds.split.tolist() == ["train", "test"]


class TestReadsCloseTheirFiles:
    """A read of a dataset or a label mapping has closed every file it opened
    by the time its DataError reaches the caller: the error's traceback, kept
    as pytest.raises keeps it, holds no open file, so none is left for the
    cyclic collector to close (and warn about) during a later test."""

    # files whose second row is malformed: the error raised by the reader, by
    # `load`'s row checks, or by the UTF-8 decoder
    SECOND_ROW_BAD = [
        ("bad.jsonl", b'{"features": [1, 2], "label": "a"}\n{"features": [1,\n', ":2: invalid json"),
        ("short.jsonl", b'{"features": [1, 2], "label": "a"}\n{"features": [1], "label": "b"}\n',
         ":2: row has 1 features, expected 2"),
        ("bytes.jsonl", b'{"features": [1, 2], "label": "a"}\n{"label": "\xff"}\n',
         ": byte 0xff is not UTF-8"),
        ("fields.csv", b"f0,f1,label\n1,2,a\n1,2\n", ":3: expected 3 fields, as in the header"),
        ("cell.csv", b"f0,f1,label\n1,2,a\n1,x,b\n", ":3: row has a non-numeric feature"),
    ]

    @pytest.fixture
    def opened(self, monkeypatch):
        """Each file `spc.data` opens, recorded as it is opened."""
        files = []

        def recording_open(*args, **kwargs):
            files.append(open(*args, **kwargs))
            return files[-1]

        monkeypatch.setattr(dataio, "open", recording_open, raising=False)
        return files

    @pytest.mark.parametrize("name, content, message", SECOND_ROW_BAD)
    def test_a_load_error_leaves_no_file_open(self, tmp_path, opened, name, content, message):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(DataError) as err:
            load(str(path))
        assert str(err.value) == f"{path}{message}"
        assert err.tb is not None  # the traceback is alive as the files are checked
        assert opened and all(fh.closed for fh in opened)

    @pytest.mark.parametrize("name, content, message", SECOND_ROW_BAD)
    def test_is_text_leaves_no_file_open(self, tmp_path, opened, name, content, message):
        path = tmp_path / name
        path.write_bytes(content)
        if "UTF-8" in message:  # the decoder reads past the first row
            with pytest.raises(DataError, match=re.escape(f"{path}{message}")):
                dataio.is_text(str(path))
        else:
            assert dataio.is_text(str(path)) is False
        assert opened and all(fh.closed for fh in opened)

    def test_a_label_mapping_error_leaves_no_file_open(self, tmp_path, opened):
        path = tmp_path / "map.csv"
        path.write_text("source_label,target_label\na,x\nb\n")
        with pytest.raises(DataError) as err:
            dataio.read_label_mapping(str(path))
        assert str(err.value) == f"{path}:3: expected two fields, source_label,target_label"
        assert err.tb is not None
        assert opened and all(fh.closed for fh in opened)


class TestStreamingLoad:
    """`load` writes each row into one preallocated array: its memory is
    bounded by that array, and every format and layout gives the same bits."""

    def test_peak_memory_is_bounded(self, tmp_path):
        ds = gen_mixture(4, 64, 1000, 2.0, seed=11)
        path = str(tmp_path / "wide.jsonl")
        save(ds, path)
        tracemalloc.start()
        try:
            load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a list of rows of Python floats alone is about 6x the array
        assert peak < 2 * ds.features.nbytes + 2**20

    @staticmethod
    def _write(path, lines, newline, blank_every):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for i, line in enumerate(lines, start=1):
                fh.write(line + newline)
                if blank_every and i % blank_every == 0:
                    fh.write(newline)  # a blank line, so capacity exceeds the rows

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("blank_every", [0, 1, 3], ids=["no-blanks", "blanks", "some-blanks"])
    def test_jsonl_and_csv_give_equal_bits(self, tmp_path, newline, blank_every):
        ds = gen_mixture(3, 5, 20, 1.0, seed=12)
        labels = [ds.label_names[t] for t in ds.targets]
        rows = zip(ds.features.tolist(), labels, ds.split.tolist())
        jsonl_lines = [json.dumps({"features": f, "label": label, "split": tag})
                       for f, label, tag in rows]
        csv_lines = ["f0,f1,f2,f3,f4,label,split"] + [
            ",".join([*map(repr, f), label, tag]) for f, label, tag in
            zip(ds.features.tolist(), labels, ds.split.tolist())]
        self._write(tmp_path / "d.jsonl", jsonl_lines, newline, blank_every)
        self._write(tmp_path / "d.csv", csv_lines, newline, blank_every)
        for path in ("d.jsonl", "d.csv"):
            back = load(str(tmp_path / path))
            assert back.features.tobytes() == ds.features.tobytes()
            assert np.array_equal(back.targets, ds.targets)
            assert np.array_equal(back.split, ds.split)
            assert back.label_names == ds.label_names

    def test_crlf_across_the_count_chunk_boundary(self, tmp_path):
        # `_line_count` reads 1 MB chunks; the CRLF that ends one row here is
        # split between the first and second chunk, and counts twice
        chunk = 1 << 20
        row = '{"features": [0.5], "label": "a", "split": "train"}'
        lines, size = [], 0
        while size + len(row) + 2 < chunk - 200:
            lines.append(row)
            size += len(row) + 2
        pad = chunk - 1 - size - len(row)  # the padded row's CR is the chunk's last byte
        lines.append(row.replace(", ", "," + " " * (pad + 1), 1))
        lines += [row.replace('"a", "split": "train"', '"b", "split": "test"')] * 3
        path = tmp_path / "d.jsonl"
        path.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
        assert path.read_bytes()[chunk - 1:chunk + 1] == b"\r\n"
        assert dataio._line_count(str(path)) == len(lines) + 2
        back = load(str(path))
        assert back.num_rows == len(lines)
        assert back.split.tolist() == ["train"] * (len(lines) - 3) + ["test"] * 3

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "mixed"])
    def test_line_count_is_one_past_the_lines(self, tmp_path, newline):
        ends = ["\n", "\r\n", "\r"] * 4 if newline == "mixed" else [newline] * 12
        path = tmp_path / "d.txt"
        path.write_bytes("".join(f"row {i}{end}" for i, end in enumerate(ends)).encode())
        with open(path, encoding="utf-8") as fh:
            assert len(fh.readlines()) == 12
        assert dataio._line_count(str(path)) == 13


class TestBlockedTextLoad:
    """`load` featurizes text rows a block of TEXT_BLOCK_DOCS kept texts at a
    time, straight into their rows: every block size gives the bits of one
    `hash_featurize` call, and the texts held stay one block long."""

    @staticmethod
    def _write(path, fmt, newline, texts, tags):
        """`texts` with their tags as jsonl or csv rows, lines ended by
        `newline`, with a blank line after every fifth row."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if fmt == "csv":
                writer = csv.writer(fh, lineterminator=newline)
                writer.writerow(["text", "label", "split"])
            for i, (text, tag) in enumerate(zip(texts, tags)):
                label = "ab"[len(text) % 2]
                if fmt == "csv":
                    writer.writerow([text, label, tag])
                else:
                    fh.write(json.dumps({"text": text, "label": label, "split": tag}) + newline)
                if i % 5 == 4:
                    fh.write(newline)

    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_every_block_size_gives_the_bits_of_one_call(self, tmp_path, monkeypatch,
                                                          block, fmt, newline):
        # the corpus has commas, newlines and empty documents in its texts
        texts = TestHashFeaturize.seeded_corpus(n_docs=50, seed=23)
        tags = [("train", "val", "test", "train")[i % 4] for i in range(len(texts))]
        path = str(tmp_path / f"t.{fmt}")
        self._write(path, fmt, newline, texts, tags)
        monkeypatch.setattr(dataio, "TEXT_BLOCK_DOCS", block)
        for splits in [None, ("train",), ("val",), ("test",), ("val", "test"), ("train", "test")]:
            kept = set(splits or dataio.SPLITS)
            ds = load(path, hash_dim=64, hash_seed=5, splits=splits)
            expected = hash_featurize([t for t, tag in zip(texts, tags) if tag in kept], 64, seed=5)
            assert ds.features.tobytes() == expected.tobytes()
            assert ds.split.tolist() == [tag for tag in tags if tag in kept]

    @pytest.mark.parametrize("block", [1, 3, dataio.TEXT_BLOCK_DOCS])
    def test_the_featurized_documents_are_the_kept_rows(self, tmp_path, monkeypatch, block):
        texts = TestHashFeaturize.seeded_corpus(n_docs=40, seed=24)
        tags = [("train", "val", "test")[i % 3] for i in range(len(texts))]
        path = str(tmp_path / "t.jsonl")
        self._write(path, "jsonl", "\n", texts, tags)
        monkeypatch.setattr(dataio, "TEXT_BLOCK_DOCS", block)
        calls = []
        real = dataio.hash_featurize

        def counted(texts, *args, **kwargs):
            calls.append(len(texts))
            return real(texts, *args, **kwargs)

        monkeypatch.setattr(dataio, "hash_featurize", counted)
        for splits in [None, ("test",), ("train", "val")]:
            calls.clear()
            ds = load(path, hash_dim=16, splits=splits)
            assert sum(calls) == ds.num_rows == sum(tag in (splits or dataio.SPLITS) for tag in tags)
            assert max(calls) <= block

    def test_peak_memory_is_one_array_and_one_block(self, tmp_path):
        texts = TestHashFeaturize.seeded_corpus(n_docs=6 * dataio.TEXT_BLOCK_DOCS, seed=25)
        path = tmp_path / "long.jsonl"  # no blank lines: capacity is the rows and one
        path.write_text("".join(json.dumps({"text": text, "label": "ab"[i % 2]}) + "\n"
                                for i, text in enumerate(texts)))
        tracemalloc.start()
        try:
            ds = load(str(path), hash_dim=256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (len(texts), 256)
        # featurizing every text in one call peaks near 1.6x the array here
        assert peak < 1.25 * ds.features.nbytes + 2**21

    @pytest.mark.parametrize("hash_dim", [1, 0, -1])
    def test_a_hash_dim_below_two_is_a_data_error(self, tmp_path, hash_dim):
        path = str(tmp_path / "t.jsonl")
        self._write(path, "jsonl", "\n", ["a b", "c"], ["train", "test"])
        with pytest.raises(DataError, match=f"hash_dim must be >= 2, got {hash_dim}"):
            load(path, hash_dim=hash_dim)

    @pytest.mark.parametrize("block", [1, dataio.TEXT_BLOCK_DOCS])
    def test_a_load_that_keeps_no_row_has_no_feature_rows(self, tmp_path, monkeypatch, block):
        path = str(tmp_path / "t.jsonl")
        self._write(path, "jsonl", "\n", ["a b", "cd", "d e f"], ["train", "test", "train"])
        monkeypatch.setattr(dataio, "TEXT_BLOCK_DOCS", block)
        ds = load(path, hash_dim=32, splits=("val",))
        assert ds.features.shape == (0, 32) and ds.features.dtype == np.float64


def _split_rows(kind: str, task: str) -> list[dict]:
    """40 rows of each schema and task over the three splits; for
    classification, label "z" is only in train and "y" only in test."""
    rng = random.Random(17)
    rows = []
    for i in range(40):
        row = {"split": ("train", "val", "test")[i % 3]}
        if kind == "text":
            row["text"] = " ".join(rng.choice("ab cd ef gh ij kl".split())
                                   for _ in range(rng.randint(0, 8)))
        else:
            row["features"] = [rng.uniform(-2, 2) for _ in range(5)]
        if task == "regression":
            row["label"] = rng.uniform(-1, 1)
        else:
            row["label"] = {"train": "z", "val": "x", "test": "y"}[row["split"]] \
                if i % 4 == 0 else rng.choice("xw")
        rows.append(row)
    return rows


class TestSplitScopedLoad:
    """`load(..., splits=...)` keeps the rows of those splits, bit-equal to
    the same rows of a full load, and checks every row of the file."""

    @staticmethod
    def _write(tmp_path, rows, fmt):
        path = tmp_path / f"rows.{fmt}"
        if fmt == "jsonl":
            path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        else:
            cols = ["text"] if "text" in rows[0] else [f"f{j}" for j in range(5)]
            lines = [",".join([*cols, "label", "split"])]
            for row in rows:
                values = [row["text"]] if "text" in row else [repr(v) for v in row["features"]]
                lines.append(",".join([*values, str(row["label"]), row["split"]]))
            path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("kind, fmt", [("features", "jsonl"), ("features", "csv"),
                                           ("text", "jsonl"), ("text", "csv")])
    def test_rows_equal_those_of_a_full_load(self, tmp_path, kind, fmt, task):
        path = self._write(tmp_path, _split_rows(kind, task), fmt)
        full = load(path, task=task, hash_dim=16, hash_seed=3)
        for splits in [("train",), ("val",), ("test",), ("val", "test")]:
            part = load(path, task=task, hash_dim=16, hash_seed=3, splits=splits)
            rows = np.flatnonzero(np.isin(full.split, splits))
            assert part.features.tobytes() == full.features[rows].tobytes()
            assert part.targets.tobytes() == full.targets[rows].tobytes()
            assert part.split.tolist() == full.split[rows].tolist()
            assert (part.label_names, part.num_classes) == (full.label_names, full.num_classes)
            assert part.features.shape[1] == full.num_features

    def test_a_label_outside_the_kept_split_keeps_its_index(self, tmp_path):
        path = self._write(tmp_path, _split_rows("features", "classification"), "jsonl")
        ds = load(path, splits=("test",))
        assert ds.label_names == ["w", "x", "y", "z"]
        assert ds.num_classes == 4
        assert set(ds.targets.tolist()) <= {0, 1, 2}  # "z" is only in train
        assert 2 in ds.targets

    @pytest.mark.parametrize("bad, message", [
        ('{"features": [1.0], "label": "x", "split": "train"}', "2: row has 1 features"),
        ('{"features": [1.0, 2.0], "label": null, "split": "val"}', "2: row is missing"),
        ('{"features": [1.0, 2.0], "label": "x", "split": "tset"}', "2: unknown split tag"),
        ('{"features": [1.0, "a"], "label": "x"}', "2: row has a non-numeric feature"),
        ('{"features": [1.0, NaN], "label": "x"}', "2: row has a non-finite feature"),
        ('{"text": "a b", "label": "x"}', "2: row mixes text and feature schemas"),
        ("{bad", "2: invalid json"),
        # a float token is read only where it might not be finite
        ('{"features": [1.0, 1e999], "label": "x"}', "2: row has a non-finite feature"),
        ('{"features": [-1e999, 1.0], "label": "x"}', "2: row has a non-finite feature"),
        ('{"features": [1.0, %s.5], "label": "x"}' % ("9" * 400),
         "2: row has a non-finite feature"),
        ('{"features": [1.0, Infinity], "label": "x"}', "2: row has a non-finite feature"),
        ('{"features": [-Infinity, 1.0], "label": "x"}', "2: row has a non-finite feature"),
        ('{"features": [1.0, %s], "label": "x"}' % ("9" * 400),
         "2: row has a feature too large for a float"),
        ('{"features": [1.0, true], "label": "x"}', "2: row has a non-numeric feature"),
        ('{"features": [null, 1.0], "label": "x"}', "2: row has a non-numeric feature"),
        ('{"features": [1.0, "1.5"], "label": "x"}', "2: row has a non-numeric feature"),
        ('{"features": [1.0, 2.0], "label": "x", "split": 1.50}', "2: unknown split tag '1.5'"),
        ('{"features": [1.0, 2.0], "label": "x", "split": [1.50]}',
         r"2: unknown split tag '\[1.5\]'"),
        ('{"features": [1.0, 2.0], "label": [1.5]}',
         "2: a label must be a string, a number or a bool"),
    ])
    def test_a_fault_in_a_split_left_out_is_still_reported(self, tmp_path, bad, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"features": [0.0, 1.0], "label": "x", "split": "test"}\n'
                        f"{bad}\n"
                        '{"features": [1.0, 0.0], "label": "y", "split": "test"}\n')
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{message}"):
            load(str(path), splits=("test",))

    def test_a_non_numeric_regression_label_left_out_is_still_reported(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_text('{"features": [0.0], "label": 1.0, "split": "test"}\n'
                        '{"features": [1.0], "label": "a", "split": "train"}\n')
        with pytest.raises(DataError, match=":2: regression labels must be numeric"):
            load(str(path), task="regression", splits=("test",))

    def test_an_infinite_regression_label_left_out_is_still_reported(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_text('{"features": [0.0], "label": 1.0, "split": "test"}\n'
                        '{"features": [1.0], "label": 1e400, "split": "train"}\n')
        with pytest.raises(DataError, match=":2: regression labels must be finite numbers"):
            load(str(path), task="regression", splits=("test",))

    @pytest.mark.parametrize("kind", ["features", "text"])
    def test_no_row_kept_gives_an_empty_dataset_of_str_tags(self, tmp_path, kind):
        rows = [row for row in _split_rows(kind, "classification") if row["split"] != "val"]
        path = self._write(tmp_path, rows, "jsonl")
        ds = load(path, hash_dim=16, splits=("val",))
        assert ds.split.dtype.kind == "U" and ds.split.shape == (0,)
        assert ds.features.shape == (0, 5 if kind == "features" else 16)
        assert ds.targets.dtype == np.int64 and ds.targets.shape == (0,)
        assert ds.label_names == ["w", "x", "y", "z"]
        with pytest.raises(DataError, match="^dataset has no 'val' rows; "
                                            "classification needs at least 1$"):
            ds.require_rows("val")

    def test_unknown_split_name(self, tmp_path):
        path = self._write(tmp_path, _split_rows("features", "classification"), "jsonl")
        with pytest.raises(DataError, match="unknown splits"):
            load(path, splits=("test", "dev"))

    # float tokens at the edges of float64, and the exponent forms json allows
    EDGE_TOKENS = ["-0.0", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
                   "1E+2", "12e-3"]
    # (the field it replaces, its JSON text): each makes a full load fail, or
    # reads a value in a form only a full decode gives
    FAULTS = [("feature", "1e999"), ("feature", "-1e999"), ("feature", "9" * 400 + ".5"),
              ("feature", "Infinity"), ("feature", "-Infinity"), ("feature", "9" * 400),
              ("feature", "true"), ("feature", "null"), ("feature", '"1.5"'),
              ("split", "1.50"), ("split", "[1.50]"), ("label", "[1.5]"), ("label", "1e400")]
    SUBSETS = [splits for n in range(len(dataio.SPLITS) + 1)
               for splits in itertools.combinations(dataio.SPLITS, n)]

    @staticmethod
    def _random_file(rng: random.Random, fault) -> str:
        """Lines of 3 JSON-text features, a label and a split (or none), with
        `fault` (None, or a FAULTS entry) in one random row."""
        def number():
            pick = rng.random()
            if pick < 0.5:
                return repr(rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 308))
            if pick < 0.75:
                return rng.choice(TestSplitScopedLoad.EDGE_TOKENS)
            return str(rng.randint(-2**70, 2**70))

        rows = []
        for _ in range(rng.randint(2, 9)):
            row = {"features": [number() for _ in range(3)],
                   "label": rng.choice(["1.50", "2", "1E+2", "-0.0", "12e-3", "5e-324"]),
                   "split": rng.choice(['"train"', '"val"', '"test"', "null", None])}
            rows.append(row)
        if fault is not None:
            field, text = fault
            row = rng.choice(rows)
            if field == "feature":
                row["features"][rng.randrange(3)] = text
            else:
                row[field] = text
        lines = [f'{{"features": [{", ".join(row["features"])}], "label": {row["label"]}'
                 + ("" if row["split"] is None else f', "split": {row["split"]}') + "}"
                 for row in rows]
        return "".join(line + "\n" for line in lines)

    @staticmethod
    def _outcome(path, task, splits):
        """The dataset a load gives, or the message of its DataError."""
        try:
            return load(path, task=task, splits=splits)
        except DataError as err:
            return str(err)

    def test_a_scoped_load_gives_the_full_load_bits_or_its_message(self, tmp_path):
        rng = random.Random(38)
        path = str(tmp_path / "d.jsonl")
        failed = loaded = 0
        for case in range(240):
            fault = None if case % 2 == 0 else rng.choice(self.FAULTS)
            with open(path, "w") as fh:
                fh.write(self._random_file(rng, fault))
            for task in ("classification", "regression"):
                full = self._outcome(path, task, None)
                failed += isinstance(full, str)
                loaded += not isinstance(full, str)
                for splits in self.SUBSETS:
                    part = self._outcome(path, task, splits)
                    if isinstance(full, str):
                        assert part == full, (case, task, splits)
                        continue
                    rows = np.flatnonzero(np.isin(full.split, splits))
                    assert part.features.tobytes() == full.features[rows].tobytes()
                    assert part.targets.tobytes() == full.targets[rows].tobytes()
                    assert part.split.tolist() == full.split[rows].tolist()
                    assert part.label_names == full.label_names
        assert failed > 100 and loaded > 100  # both outcomes are compared often

    def test_a_left_out_row_is_converted_only_when_it_might_not_be_finite(self, tmp_path,
                                                                         monkeypatch):
        plain = ["0.5", "-12.25", "0." + "0" * 305 + "1"]  # the last is 308 characters
        odd = [["1E+2", "0.5", "0.5"],
               ["0." + "0" * 306 + "1", "0.5", "0.5"],  # 309 characters
               ["0.5", "0." + "0" * 303 + "1e-5", "0.5"]]  # 309, with a negative exponent
        small = ["0.5", "12e-3", "0.5"]  # a negative exponent under 309 characters
        lines = [(plain, "test")] * 3 + [(plain, "train")] * 4 + [(plain, "val"), (small, "val")] \
            + [(vec, "train") for vec in odd]
        path = tmp_path / "d.jsonl"
        path.write_text("".join(f'{{"features": [{", ".join(vec)}], "label": "{"ab"[i % 2]}", '
                                f'"split": "{tag}"}}\n' for i, (vec, tag) in enumerate(lines)))
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("f0,f1,f2,label,split\n" + "".join(
            f"{','.join(vec)},{'ab'[i % 2]},{tag}\n" for i, (vec, tag) in enumerate(lines)))
        real_row = dataio._feature_row
        converted, decoded = [], []

        def counted_row(values, dim, where):
            converted.append(where)
            return real_row(values, dim, where)

        class CountedDecoder(json.JSONDecoder):
            def decode(self, line):
                decoded.append(line)
                return super().decode(line)

        monkeypatch.setattr(dataio, "_feature_row", counted_row)
        monkeypatch.setattr(dataio, "_TOKENS", CountedDecoder(parse_float=str.encode))
        ds = load(str(path), splits=("test",))
        assert ds.num_rows == 3
        assert len(converted) == 3 + len(odd)  # k kept rows and u with an odd token
        assert len(decoded) == len(lines)
        for source, splits in [(path, None), (csv_path, None), (csv_path, ("test",))]:
            converted.clear()
            decoded.clear()
            assert load(str(source), splits=splits).num_rows == (3 if splits else len(lines))
            assert len(converted) == len(lines)
            assert decoded == []


@pytest.mark.parametrize("splits", [None, ("test",)], ids=["full", "test-only"])
@pytest.mark.parametrize("kind, fmt", [("features", "jsonl"), ("features", "csv"),
                                       ("text", "jsonl"), ("text", "csv")])
def test_a_file_that_grows_while_read_is_a_data_error(tmp_path, monkeypatch, kind, fmt, splits):
    """`load` sizes its array by `_line_count` before it parses: a file that
    gains lines in between (a count that falls short of the kept rows) is a
    DataError naming the file, raised before a kept row would pass the array."""
    path = TestSplitScopedLoad._write(tmp_path, _split_rows(kind, "classification"), fmt)
    want = load(path, hash_dim=16, splits=splits)
    monkeypatch.setattr(dataio, "_line_count", lambda _: want.num_rows)
    assert load(path, hash_dim=16, splits=splits).features.tobytes() == want.features.tobytes()
    monkeypatch.setattr(dataio, "_line_count", lambda _: want.num_rows - 1)
    with pytest.raises(DataError, match=rf"^{re.escape(path)}: the file grew while it was read$"):
        load(path, hash_dim=16, splits=splits)


class TestHashFeaturize:
    def test_deterministic(self):
        a = hash_featurize(["The quick brown fox"], 64, seed=3)
        b = hash_featurize(["The quick brown fox"], 64, seed=3)
        assert np.array_equal(a, b)

    def test_empty_string_zero_row(self):
        row = hash_featurize([""], 16, seed=0)
        assert np.array_equal(row, np.zeros((1, 16)))

    def test_rows_unit_norm(self):
        rows = hash_featurize(["alpha beta", "gamma delta epsilon"], 32, seed=1)
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)

    def test_independent_reimplementation(self):
        # scripted re-derivation of the documented recipe, code path separate
        # from the library's
        sentence = "Dogs bark; cats, naturally, purr!"
        dim, seed = 16, 0

        tokens = re.findall(r"[a-z0-9]+", sentence.lower())
        grams = tokens + [tokens[i] + " " + tokens[i + 1] for i in range(len(tokens) - 1)]
        expected = np.zeros(dim)
        for gram in grams:
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8,
                                     key=(0).to_bytes(8, "little")).digest()
            h = int.from_bytes(digest, "little")
            expected[h % dim] += 1.0 if (h >> 63) & 1 == 0 else -1.0
        expected /= np.linalg.norm(expected)

        produced = hash_featurize([sentence], dim, seed=seed)[0]
        assert np.allclose(produced, expected, atol=1e-15)

    @staticmethod
    def recipe_featurize(texts, dim, seed):
        # the documented recipe, one hash per n-gram occurrence
        out = np.zeros((len(texts), dim))
        for i, text in enumerate(texts):
            tokens = re.findall(r"[a-z0-9]+", text.lower())
            grams = tokens + [tokens[k] + " " + tokens[k + 1] for k in range(len(tokens) - 1)]
            for gram in grams:
                digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8,
                                         key=seed.to_bytes(8, "little")).digest()
                h = int.from_bytes(digest, "little")
                out[i, h % dim] += 1.0 if (h >> 63) & 1 == 0 else -1.0
            norm = np.linalg.norm(out[i])
            if norm > 0:
                out[i] /= norm
        return out

    # the texts hold 53 distinct n-grams, so 64 buckets exceed them
    @pytest.mark.parametrize("dim, seed", [(2, 0), (16, 5), (256, 0), (64, 2**64 - 1)])
    def test_matches_per_ngram_recipe_exactly(self, dim, seed):
        texts = [
            "",                                      # leading empty documents
            "?!",
            "the cat sat on the mat, the cat sat",   # repeats within a document
            "",                                      # no tokens: a zero row
            "The CAT sat; on the mat!",              # the same n-grams again
            "?!, ...",                               # separators only: a zero row
            "red fish",                              # at dim 2, bucket 0 cancels (+1, -1)
            "blue green",                            # at dim 2, bucket 1 cancels
            "a b c d e f g h i j k l m n o p a b c",
            "zebra",                                 # one token between two documents
            "fish red",                              # ends as the next one starts
            "red fish",                              # so "red red" must not appear
            "İstanbul É",                            # lowercases to "i̇stanbul": "i", "stanbul"
            "",                                      # trailing empty documents
            " ",
        ]
        produced = hash_featurize(texts, dim, seed=seed)
        assert produced.dtype == np.float64
        assert np.array_equal(produced, self.recipe_featurize(texts, dim, seed))
        if (dim, seed) == (2, 0):
            # a document has an odd number of +-1 n-grams, so it never cancels
            # to a zero row, but a single bucket can cancel to an exact zero
            assert np.array_equal(np.abs(produced[6:8]), [[0.0, 1.0], [1.0, 0.0]])

    @staticmethod
    def seeded_corpus(n_docs=2000, seed=15):
        """Documents of 0-40 tokens over 400 words (digits, mixed case and
        non-ASCII letters among them), joined by assorted separators."""
        rng = random.Random(seed)
        letters = "abcdefghijklmnopqrstuvwxyz0123456789ÉİßAB"
        words = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 7)))
                 for _ in range(400)]
        return ["".join(rng.choice(words) + rng.choice([" ", " ", ", ", "-", "!\n"])
                        for _ in range(rng.randint(0, 40)))
                for _ in range(n_docs)]

    def test_seeded_corpus_digest_is_pinned(self):
        # captured from the per-n-gram featurizer that preceded the array passes
        produced = hash_featurize(self.seeded_corpus(), 256, seed=3)
        assert produced.shape == (2000, 256)
        assert hashlib.sha256(produced.tobytes()).hexdigest() == PINNED_CORPUS_SHA256

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_key_range(self, seed):
        with pytest.raises(DataError, match="seed"):
            hash_featurize(["a b"], 8, seed=seed)

    def test_no_documents(self):
        produced = hash_featurize([], 8, seed=0)
        assert produced.shape == (0, 8) and produced.dtype == np.float64

    def test_seed_changes_embedding(self):
        a = hash_featurize(["same text"], 32, seed=0)
        b = hash_featurize(["same text"], 32, seed=1)
        assert not np.array_equal(a, b)


class TestGenMixture:
    def test_split_counts_per_class(self):
        ds = gen_mixture(3, 5, 50, 2.0, seed=2)
        for c in range(3):
            for split, expected in (("train", 30), ("val", 10), ("test", 10)):
                idx = ds.indices(split)
                assert int((ds.targets[idx] == c).sum()) == expected

    def test_zero_separation_near_chance(self):
        # indistinguishable classes: a trained model stays near 1/C
        from spc.objectives import ObjectiveConfig
        from spc.trainer import TrainConfig, train
        ds = gen_mixture(2, 6, 500, 0.0, seed=3)
        cfg = TrainConfig(objective=ObjectiveConfig(kind="ce"), epochs=8,
                          batch_size=32, learning_rate=5e-3)
        report = train(ds, cfg, seed=0)
        assert abs(report.test_metrics["accuracy"] - 0.5) <= 0.05

    def test_high_separation_separable(self):
        from spc.objectives import ObjectiveConfig
        from spc.trainer import TrainConfig, train
        ds = gen_mixture(2, 4, 100, 10.0, seed=4)
        cfg = TrainConfig(objective=ObjectiveConfig(kind="ce"), epochs=10, batch_size=32)
        report = train(ds, cfg, seed=0)
        assert report.test_metrics["accuracy"] > 0.99

    def test_dim_check(self):
        with pytest.raises(DataError):
            gen_mixture(5, 4, 10, 1.0, seed=0)

    # 60/20/20 of 1, 2 or 3 rows leaves a split of each class empty
    @pytest.mark.parametrize("per_class", [1, 2, 3])
    def test_too_few_rows_for_every_split(self, per_class):
        with pytest.raises(DataError, match="per_class must be >= 4"):
            gen_mixture(2, 2, per_class, 1.0, seed=0)

    def test_four_rows_fill_every_split(self):
        ds = gen_mixture(2, 2, 4, 1.0, seed=0)
        for split, per_class in (("train", 2), ("val", 1), ("test", 1)):
            assert np.bincount(ds.targets[ds.indices(split)]).tolist() == [per_class] * 2


class TestInjectLabelNoise:
    def test_zero_ratio_identity(self):
        ds = gen_mixture(3, 4, 30, 2.0, seed=5)
        noisy = inject_label_noise(ds, 0.0, seed=0)
        assert np.array_equal(ds.targets, noisy.targets)

    def test_full_ratio_two_classes_flips_everything(self):
        ds = gen_mixture(2, 4, 30, 2.0, seed=6)
        noisy = inject_label_noise(ds, 1.0, seed=1)
        train_idx = ds.indices("train")
        assert np.all(noisy.targets[train_idx] == 1 - ds.targets[train_idx])
        for split in ("val", "test"):
            idx = ds.indices(split)
            assert np.array_equal(noisy.targets[idx], ds.targets[idx])

    def test_exact_flip_count(self):
        ds = gen_mixture(4, 6, 42, 2.0, seed=7)  # 25 train rows per class -> 100
        assert ds.indices("train").size == 100
        noisy = inject_label_noise(ds, 0.2, seed=2)
        changed = noisy.targets != ds.targets
        assert int(changed.sum()) == 20
        assert set(np.flatnonzero(changed)) <= set(ds.indices("train"))

    def test_flip_distribution_uniform(self):
        # chi-squared over the flipped-to class counts
        ds = gen_mixture(4, 6, 1000, 0.0, seed=8)
        noisy = inject_label_noise(ds, 1.0, seed=3)
        train_idx = ds.indices("train")
        counts = np.zeros((4, 4))
        for i in train_idx:
            counts[int(ds.targets[i]), int(noisy.targets[i])] += 1
        p_values = []
        for c in range(4):
            observed = np.delete(counts[c], c)
            assert counts[c, c] == 0  # a flipped label never keeps its value
            p_values.append(stats.chisquare(observed).pvalue)
        assert min(p_values) > 0.01

    def test_val_test_untouched_fingerprints(self):
        ds = gen_mixture(3, 4, 50, 2.0, seed=10)
        noisy = inject_label_noise(ds, 0.5, seed=5)
        for split in ("val", "test"):
            rows, kept = ds.indices(split), noisy.indices(split)
            assert np.array_equal(ds.features[rows], noisy.features[kept])
            assert np.array_equal(ds.targets[rows], noisy.targets[kept])

    def test_regression_unsupported(self):
        ds = gen_mixture(2, 4, 20, 1.0, seed=11)
        reg = Dataset(features=ds.features, targets=ds.targets.astype(float),
                      split=ds.split, task="regression")
        with pytest.raises(DataError):
            inject_label_noise(reg, 0.1, seed=0)

    @pytest.mark.parametrize("ratio", [-0.1, 1.5])
    def test_ratio_out_of_range(self, ratio):
        ds = gen_mixture(2, 4, 20, 1.0, seed=11)
        with pytest.raises(DataError, match="noise_ratio must be in"):
            inject_label_noise(ds, ratio, seed=0)

    def test_draws_follow_the_documented_recipe(self):
        ds = gen_mixture(5, 6, 40, 2.0, seed=13)
        rng = np.random.default_rng(7)
        train_idx = ds.indices("train")
        expected = ds.targets.copy()
        for i in rng.choice(train_idx, size=round(0.4 * train_idx.size), replace=False):
            draw = int(rng.integers(0, 4))
            expected[i] = draw + 1 if draw >= expected[i] else draw
        assert np.array_equal(inject_label_noise(ds, 0.4, seed=7).targets, expected)

    def test_seeded_purity(self):
        ds = gen_mixture(3, 4, 60, 2.0, seed=12)
        a = inject_label_noise(ds, 0.3, seed=6)
        b = inject_label_noise(ds, 0.3, seed=6)
        assert np.array_equal(a.targets, b.targets)


class TestSubsampleTrain:
    def test_ratio_one_identity(self):
        ds = gen_mixture(2, 4, 40, 2.0, seed=13)
        assert subsample_train(ds, 1.0, seed=0) is ds

    def test_half_ratio_counts(self):
        ds = gen_mixture(2, 4, 40, 2.0, seed=14)  # 24 train per class
        half = subsample_train(ds, 0.5, seed=1)
        train_idx = half.indices("train")
        for c in range(2):
            assert int((half.targets[train_idx] == c).sum()) == 12

    def test_val_test_untouched(self):
        ds = gen_mixture(2, 4, 40, 2.0, seed=15)
        sub = subsample_train(ds, 0.25, seed=2)
        for split in ("val", "test"):
            rows, kept = ds.indices(split), sub.indices(split)
            assert np.array_equal(ds.features[rows], sub.features[kept])
            assert np.array_equal(ds.targets[rows], sub.targets[kept])

    def test_different_seeds_different_subsets(self):
        ds = gen_mixture(2, 4, 200, 2.0, seed=16)
        a = subsample_train(ds, 0.5, seed=3)
        b = subsample_train(ds, 0.5, seed=4)
        assert not np.array_equal(a.features[a.indices("train")],
                                  b.features[b.indices("train")])

    def test_too_small_ratio_errors(self):
        ds = gen_mixture(2, 4, 10, 2.0, seed=17)  # 6 train per class
        with pytest.raises(DataError):
            subsample_train(ds, 0.01, seed=0)
