"""Dataset ingestion, featurization, synthetic generation, and perturbations.

File formats
------------
jsonl: one object per line with either "features": [JSON numbers] (at
  least one) or "text": str (not both), plus a non-null "label" and an optional "split"
  (train|val|test; only a missing or null split means train). csv: a
  header row that names each column once: feature columns f0..f{D-1}, in
  any order, or a single "text" column (not both), a "label" column, and
  an optional "split" column (an empty cell means train). A leading UTF-8
  byte-order mark of any input file is dropped. A malformed row is a
  DataError naming its `file:line`, blank lines counted; every feature,
  and every regression label, must read as a finite float64 (not NaN, an
  infinity, or a number beyond the float64 range). Rows are checked as
  they are read, so the first fault in the file is the one reported. A
  load holds one N x D float64 array, and may keep only some splits; a
  jsonl row of a split left out has its numbers checked by the JSON
  scanner but converted only when they might not be finite (see `load`).
  A file that gains lines while it is read is a DataError naming it.

Labels are remapped to dense indices 0..C-1 by sorting the distinct label
strings; the mapping is persisted on the dataset (`label_names`) and in
saved files the original names are written back.

Randomized operations (generation, noise injection, subsampling) are pure
functions of their inputs and an explicit seed; they return new datasets
and never touch the val/test splits. Every file the package writes goes
through `write_atomic`, so a failed write leaves any earlier file at its
path as it was.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import re
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

SPLITS = ("train", "val", "test")

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# kept texts `load` holds before it featurizes them into their rows
TEXT_BLOCK_DOCS = 1024

# the largest integer setting that sizes an array or a loop: an array two of
# them size stays addressable, so one too large to hold is a MemoryError
MAX_SIZE = 1 << 20


class DataError(ValueError):
    """Malformed dataset files or invalid perturbation requests."""


@dataclass
class Dataset:
    """Feature matrix + targets + aligned split tags. Treat as immutable."""

    features: np.ndarray            # (N, D) float64
    targets: np.ndarray             # (N,) int64 class indices or float64 scores
    split: np.ndarray               # (N,) strings from SPLITS
    task: str                       # "classification" | "regression"
    num_classes: int = 0
    label_names: list[str] = field(default_factory=list)  # index -> original label

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {self.features.shape}")
        n = self.features.shape[0]
        if self.targets.shape != (n,) or self.split.shape != (n,):
            raise DataError("features, targets and split must have matching length")
        if not np.all(np.isfinite(self.features)):
            raise DataError("feature rows must be finite")
        if self.task == "classification":
            if self.num_classes < 2:
                raise DataError("classification dataset needs num_classes >= 2")
            if np.any((self.targets < 0) | (self.targets >= self.num_classes)):
                raise DataError("class index out of range")
        unknown = set(self.split.tolist()) - set(SPLITS)
        if unknown:
            raise DataError(f"unknown split tags: {sorted(unknown)}")

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_outputs(self) -> int:
        """Width of a model's output: the class count, or 1 for regression."""
        return self.num_classes if self.task == "classification" else 1

    def indices(self, split: str) -> np.ndarray:
        if split not in SPLITS:
            raise DataError(f"unknown split {split!r}")
        return np.flatnonzero(self.split == split)

    @property
    def min_rows(self) -> int:
        """Rows a split needs: one, or two for regression (a correlation needs two)."""
        return 1 if self.task == "classification" else 2

    def require_rows(self, *splits: str) -> None:
        """Raise DataError unless each of `splits` has at least `min_rows` rows."""
        for split in splits:
            n = self.indices(split).size
            if n < self.min_rows:
                raise DataError(f"dataset has {n or 'no'} {split!r} rows; "
                                f"{self.task} needs at least {self.min_rows}")

    def require_distinct_targets(self, *splits: str) -> None:
        """Raise DataError if a regression split of `splits` (each of at least
        `min_rows` rows) has all its targets equal: its correlations are undefined."""
        for split in splits if self.task == "regression" else ():
            targets = self.targets[self.indices(split)]
            if targets.min() == targets.max():
                raise DataError(f"every {split!r} target is {targets[0]:g}; a correlation "
                                f"needs two distinct values")


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric runs; everything else is a separator."""
    return _TOKEN_RE.findall(text.lower())


def check_featurizer(dim: int, seed: int) -> None:
    """The featurizer's ranges: 2 to MAX_SIZE buckets, and a seed that fits its
    8-byte blake2b key (0 <= seed < 2**64); a value outside is a DataError."""
    if dim < 2:
        raise DataError(f"hash_dim must be >= 2, got {dim}")
    if dim > MAX_SIZE:
        raise DataError(f"hash_dim must be at most {MAX_SIZE}, got {dim}")
    if not 0 <= seed < 1 << 64:
        raise DataError(f"hash_seed must be in [0, 2**64), got {seed}")


def hash_featurize(texts, dim: int, seed: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Signed hashing of unigram+bigram counts into `dim` buckets, L2-normalized.

    Exact recipe (stable across runs and platforms): tokens are lowercased
    alphanumeric runs; n-grams are each token plus each adjacent pair joined
    by a single space; each n-gram is hashed with blake2b (digest_size=8,
    key=seed as 8 little-endian bytes; see `check_featurizer`); the digest
    read as a little-endian unsigned integer h gives bucket h % dim and sign
    +1 if bit 63 of h is 0 else -1; signed counts are accumulated and each
    row is L2-normalized (all-zero rows stay zero).

    The rows are written into `out` (a C-contiguous float64 array of shape
    (len(texts), dim), such as a slice of rows of a larger array) if given,
    else into a new array, and that array is returned. Each distinct n-gram
    is hashed once per call (see `_ngram_counts`). A row depends only on its
    own n-grams: the counts are small integers, so their sums and squared
    norms are exact in any order, and texts featurized in several calls give
    the bits of one call.
    """
    check_featurizer(dim, seed)
    if out is None:
        out = np.empty((len(texts), dim))
    elif out.shape != (len(texts), dim) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape "
                         f"({len(texts)}, {dim}), got {out.dtype} {out.shape}")
    _ngram_counts(texts, dim, seed, out)
    norm = np.sqrt(np.einsum("ij,ij->i", out, out))[:, None]
    np.divide(out, norm, out=out, where=norm > 0)
    return out


class _Vocabulary(dict):
    """token -> id, where a new token gets the next id."""

    def __missing__(self, token: str) -> int:
        self[token] = new_id = len(self)
        return new_id


def _ngram_counts(texts, dim: int, seed: int, out: np.ndarray) -> None:
    """Zero `out`, a C-contiguous (len(texts), dim) float64 array, and count
    the signed n-grams of `texts` into it, in a few array passes.

    Tokens stream into one int64 array of vocabulary ids. A bigram is a pair
    of neighbouring ids in the same document, coded as id_a * V + id_b; one
    sort finds the distinct ones, so only those get a string. Each
    distinct token, then each distinct bigram, is hashed once by a copy of
    one keyed blake2b state into a uint64 array, which gives the bucket and
    sign of every occurrence. The token counts are added before the bigrams
    are found, so few occurrence-sized arrays are alive at once.
    """
    vocab = _Vocabulary()
    lengths = np.empty(len(texts), dtype=np.int64)

    def token_ids():
        for i, text in enumerate(texts):
            tokens = tokenize(text)
            lengths[i] = len(tokens)
            yield from map(vocab.__getitem__, tokens)

    keyed = hashlib.blake2b(digest_size=8, key=int(seed).to_bytes(8, "little"))

    def digest(ngram: str) -> bytes:
        h = keyed.copy()
        h.update(ngram.encode("utf-8"))
        return h.digest()

    out.fill(0.0)
    row_starts = np.arange(len(texts), dtype=np.int64) * dim

    def add(ngrams, occurrences: np.ndarray, per_doc: np.ndarray) -> None:
        """Count each occurrence (an index into `ngrams`, in document order,
        `per_doc` of them in each document) at its row and hashed bucket."""
        h = np.fromiter(map(digest, ngrams), dtype="S8").view("<u8")
        cells = np.repeat(row_starts, per_doc)
        cells += (h % np.uint64(dim)).astype(np.int64)[occurrences]
        np.add.at(out.reshape(-1), cells, np.where(h >> np.uint64(63), -1.0, 1.0)[occurrences])

    ids = np.fromiter(token_ids(), dtype=np.int64)
    words = list(vocab)
    add(words, ids, lengths)
    inner = np.ones(ids.size, dtype=bool)  # token k is followed by one of its document
    inner[np.cumsum(lengths)[lengths > 0] - 1] = False
    pair_codes = ids[:-1][inner[:-1]] * len(words)
    pair_codes += ids[1:][inner[:-1]]
    del ids, inner
    # distinct codes (all >= 0) by one sort: on 232k int64 codes, NumPy 2.4's
    # np.unique took 0.19 s and 9 MB of heap, the sort 5 ms and 2 MB
    pairs = np.sort(pair_codes)
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    bigrams = (f"{words[a]} {words[b]}"
               for a, b in zip((pairs // len(words)).tolist(), (pairs % len(words)).tolist()))
    add(bigrams, np.searchsorted(pairs, pair_codes), np.maximum(lengths - 1, 0))


def gen_mixture(num_classes: int, dim: int, per_class: int, separation: float,
                seed: int) -> Dataset:
    """Gaussian blobs: class c has unit covariance around separation * e_c.

    All class means are mutually separation*sqrt(2) apart (requires
    dim >= num_classes). Rows are split 60/20/20 per class, so each split
    is exactly class-balanced up to rounding. Each count is at most MAX_SIZE.
    """
    for name, value in (("classes", num_classes), ("dim", dim), ("per_class", per_class)):
        if value > MAX_SIZE:
            raise DataError(f"gen_mixture: {name} must be at most {MAX_SIZE}, got {value}")
    if num_classes < 2:
        raise DataError("gen_mixture: need at least 2 classes")
    if dim < num_classes:
        raise DataError(f"gen_mixture: dim must be >= num_classes ({num_classes})")
    if not (np.isfinite(separation) and separation >= 0):
        raise DataError(f"gen_mixture: separation must be finite and non-negative, got {separation}")
    if seed < 0:
        raise DataError(f"gen_mixture: seed must be non-negative, got {seed}")
    n_train = int(round(0.6 * per_class))
    n_val = int(round(0.2 * per_class))
    n_test = per_class - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise DataError(f"gen_mixture: per_class must be >= 4, so that every split of a class "
                        f"gets a row, got {per_class}")
    rng = np.random.default_rng(seed)
    features, targets, split = [], [], []
    for c in range(num_classes):
        mean = np.zeros(dim)
        mean[c] = separation
        features.append(rng.standard_normal((per_class, dim)) + mean)
        targets.append(np.full(per_class, c, dtype=np.int64))
        split.extend(["train"] * n_train + ["val"] * n_val + ["test"] * n_test)
    return Dataset(features=np.concatenate(features), targets=np.concatenate(targets),
                   split=np.array(split), task="classification", num_classes=num_classes,
                   label_names=[str(c) for c in range(num_classes)])


def _line_count(path: str) -> int:
    """An upper bound on the lines of `path` as a text-mode read splits them
    (at LF, CRLF or CR), from one binary pass. CR and CRLF are counted only
    in a chunk that holds a CR. A CRLF that spans two chunks counts twice,
    which keeps the bound."""
    count = 1  # a last line without a newline
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            # NumPy compares a chunk's bytes in about half the time bytes.count takes
            octets = np.frombuffer(chunk, np.uint8)
            count += np.count_nonzero(octets == 10)
            if b"\r" in chunk:
                count += np.count_nonzero(octets == 13) - chunk.count(b"\r\n")
    return count


@contextlib.contextmanager
def _lines(path: str, newline: str | None = None):
    """A UTF-8 text file open for a block, a leading byte-order mark dropped; a
    byte read in the block that does not decode is a DataError naming the file."""
    with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: byte 0x{err.object[err.start]:02x} is not UTF-8") from None


def _is_csv(path: str) -> bool:
    """Whether `load` reads and `save` writes `path` as csv (its name ends in
    .csv) rather than as jsonl."""
    return path.endswith(".csv")


# decodes a line as json.loads does, except that each JSON float stays the
# ASCII bytes of its token, its grammar checked by the C scanner but its value
# not yet converted; float() of a token gives the bits json.loads gives, as
# both run PyFloat_FromString
_TOKENS = json.JSONDecoder(parse_float=str.encode)


def _decode_tokens(line: str):
    """`line` as `_TOKENS` decodes it, with a float label or split converted
    by float(); a line whose label or split is an array or an object is
    decoded by json.loads instead, so a message shows it as a full load does."""
    obj = _TOKENS.decode(line)
    if isinstance(obj, dict):
        for key in ("label", "split"):
            value = obj.get(key)
            if type(value) is bytes:
                obj[key] = float(value)
            elif isinstance(value, (list, dict)):
                return json.loads(line)
    return obj


def _jsonl_rows(fh, path: str, decode=json.loads):
    """(line, label, split, text, features) of each non-blank line of `fh`, an
    open jsonl file, each line decoded by `decode` (json.loads, or
    `_decode_tokens`); text is None for a feature row, features None for a
    text row."""
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = decode(line)
        except json.JSONDecodeError as err:
            raise DataError(f"{path}:{lineno}: invalid json") from err
        except ValueError as err:  # an integer past Python's digit limit
            raise DataError(f"{path}:{lineno}: a number has too many digits to read") from err
        except RecursionError:
            raise DataError(f"{path}:{lineno}: json nested too deeply to read") from None
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{lineno}: expected a json object")
        if "text" in obj and "features" in obj:  # as a csv header may not hold both
            raise DataError(f"{path}:{lineno}: the row holds both a 'text' and a 'features' key")
        if not (isinstance(obj["text"], str) if "text" in obj
                else isinstance(obj.get("features"), list)):
            raise DataError(f"{path}:{lineno}: need a 'features' list or a 'text' string")
        if isinstance(obj.get("label"), (list, dict)):  # a class is named by its label's str
            raise DataError(f"{path}:{lineno}: a label must be a string, a number or a bool")
        yield lineno, obj.get("label"), obj.get("split"), obj.get("text"), obj.get("features")


def _csv_rows(fh, path: str):
    """The rows of `fh`, the open csv file `path`, as `_jsonl_rows` gives them."""
    reader = csv.DictReader(fh)
    try:
        header = reader.fieldnames
        if header is None:
            raise DataError(f"{path}: empty dataset")
        repeated = sorted(name for name, count in Counter(header).items() if count > 1)
        if repeated:
            raise DataError(f"{path}: the header names {repeated} more than once")
        feature_cols = sorted((c for c in header if re.fullmatch(r"f\d+", c)),
                              key=lambda c: int(c[1:]))
        has_text = "text" in header
        if not feature_cols and not has_text:
            raise DataError(f"{path}: need f0..fK feature columns or a 'text' column")
        if feature_cols and has_text:
            raise DataError(f"{path}: the header holds both a 'text' column and feature columns")
        if feature_cols != [f"f{i}" for i in range(len(feature_cols))]:
            raise DataError(f"{path}: feature columns must be f0..f{len(feature_cols) - 1}, "
                            f"got {feature_cols}")
        if "label" not in header:
            raise DataError(f"{path}: missing 'label' column")
        for record in reader:
            if None in record or None in record.values():
                raise DataError(f"{path}:{reader.line_num}: expected "
                                f"{len(header)} fields, as in the header")
            # csv cannot write null: an empty label cell is a missing label, and
            # an empty split cell means train, as a missing one
            yield (reader.line_num, record["label"] or None, record.get("split") or None,
                   record["text"] if has_text else None,
                   None if has_text else [record[c] for c in feature_cols])
    except csv.Error as err:  # such as a cell over csv.field_size_limit()
        raise DataError(f"{path}:{reader.reader.line_num}: {err}") from None


def _joined_tokens(values) -> bytes | None:
    """The elements of `values` end to end if each is a float token (bytes)
    from `_decode_tokens`, else None."""
    try:
        return b"".join(values)
    except TypeError:  # an int, a float or any other JSON value among them
        return None


_POSITIVE_EXPONENT = re.compile(rb"[eE][+0-9]")


def _might_overflow(tokens: list[bytes], joined: bytes) -> bool:
    """Whether a float token of `tokens` (`joined` holds them end to end) has a
    positive exponent or 309 characters or more. Any other token reads as a
    finite float64: it has at most 307 digits before its point, so it is
    below 1e307 before a negative exponent shrinks it (float64 reaches about
    1.8e308). The pattern is searched only in a row with an `e` or `E`: a
    byte test is about 70 times faster than the search."""
    return (max(map(len, tokens)) >= 309 or (b"e" in joined or b"E" in joined)
            and _POSITIVE_EXPONENT.search(joined) is not None)


def _feature_row(values, dim: int, where: str) -> np.ndarray:
    """The `dim` float64 values of the iterable `values`; a value that does not
    read as a finite float64 is a DataError naming `where`."""
    try:
        row = np.fromiter(values, np.float64, count=dim)
    except (TypeError, ValueError) as err:
        raise DataError(f"{where}: row has a non-numeric feature") from err
    except OverflowError as err:  # a json integer beyond the float64 range
        raise DataError(f"{where}: row has a feature too large for a float") from err
    if not np.isfinite(row).all():
        raise DataError(f"{where}: row has a non-finite feature")
    return row


def is_text(path: str) -> bool:
    """Whether `load` featurizes the dataset file `path`: its first row's schema."""
    is_csv = _is_csv(path)
    with _lines(path, newline="" if is_csv else None) as fh:
        rows = _csv_rows(fh, path) if is_csv else _jsonl_rows(fh, path)
        return next(rows, (None,) * 5)[3] is not None


def load(path: str, task: str = "classification", hash_dim: int = 256,
         hash_seed: int = 0, splits: Sequence[str] | None = None) -> Dataset:
    """Read a jsonl or csv dataset file (csv if the name ends in .csv).

    Each row is checked as it is read, and its features are written straight
    into one (capacity, D) float64 array, sized by `_line_count` before the
    parse (a file that has gained lines since, so that a kept row would pass
    the array, is a DataError); besides that array, only a label and a split
    tag of each row are kept. Text rows are hashed into D = `hash_dim` columns (after
    `check_featurizer`): their texts are held until TEXT_BLOCK_DOCS of them
    are kept, then one `hash_featurize` call writes the block into its rows
    and the texts are dropped; the last, partial block is featurized the
    same way after the parse.

    `splits` (default: all of SPLITS) names the splits whose rows the
    dataset holds. Every row is still parsed and checked in file order,
    and every label still gets its class code; a row of another split only
    skips its write into the array (or, for text, its featurizing), its
    target and its tag. A hashed row depends on its own n-grams alone, so
    each kept row is bit-equal to the same row of a full load, whatever
    the blocks.

    A jsonl load that leaves a split out decodes its lines with `_TOKENS`,
    which keeps each float as its token: the JSON scanner checks every
    number's grammar, but a left-out row converts its features only when
    they might not be finite (a token with a positive exponent or of 309
    characters or more, or any element that is not a float token; a row of
    float tokens only skips the census of its element types). A kept row, and a
    float label or split, is converted by float(), which gives json.loads's
    bits; every message is a full load's. Converting floats is most of the
    time json.loads takes, but when every row is kept json.loads does it
    faster than float() of each token, so a full load decodes with
    json.loads; a csv load converts every cell."""
    if not os.path.exists(path):
        raise DataError(f"dataset file not found: {path}")
    if task not in ("classification", "regression"):
        raise DataError(f"unknown task {task!r}")
    wanted = set(SPLITS if splits is None else splits)
    if not wanted <= set(SPLITS):
        raise DataError(f"unknown splits {sorted(wanted - set(SPLITS))}")
    kept = tuple(tag for tag in SPLITS if tag in wanted)  # a tuple: a row's tag may not hash

    is_csv = _is_csv(path)
    as_tokens = not is_csv and kept != SPLITS  # jsonl floats stay tokens (`_decode_tokens`)
    with _lines(path, newline="" if is_csv else None) as fh:
        rows = (_csv_rows(fh, path) if is_csv else
                _jsonl_rows(fh, path, _decode_tokens if as_tokens else json.loads))
        first = next(rows, None)
        if first is None:
            raise DataError(f"{path}: empty dataset")
        has_text = first[3] is not None  # the first row's schema is the file's
        if has_text:
            check_featurizer(hash_dim, hash_seed)
        dim = hash_dim if has_text else len(first[4])
        if dim == 0:
            raise DataError(f"{path}:{first[0]}: row has no features")
        features = np.empty((_line_count(path), dim))
        texts: list[str] = []  # the kept texts not yet featurized
        tags: list[str] = []  # the split tag of each kept row
        targets: list = []  # float scores, or class codes in first-seen order
        codes: dict[str, int] = {}  # label -> its class code
        for lineno, label, split, text, vec in itertools.chain([first], rows):
            where = f"{path}:{lineno}"
            if (text is not None) != has_text:
                raise DataError(f"{where}: row mixes text and feature schemas")
            if label is None:
                raise DataError(f"{where}: row is missing 'label' or has a null one")
            tag = "train" if split is None else split
            if not has_text:
                if len(vec) != dim:
                    raise DataError(f"{where}: row has {len(vec)} features, expected {dim}")
                # a row of float tokens only needs no census of its types
                joined = _joined_tokens(vec) if as_tokens else None
                if joined is None:
                    types = set(map(type, vec))
                    # a csv cell is text; a jsonl feature is a JSON number (not a bool
                    # or a string): an int or a float, or a float's token (bytes) from
                    # _decode_tokens; np.fromiter reads a number as float() would
                    if not (is_csv or types <= {int, float, bytes}):
                        raise DataError(f"{where}: row has a non-numeric feature")
                # a row left out is converted only where it might fail the check
                if tag in kept or joined is None or _might_overflow(vec, joined):
                    row = _feature_row(vec if joined is None and types <= {int, float}
                                       else map(float, vec), dim, where)
            if tag not in SPLITS:
                raise DataError(f"{where}: unknown split tag {str(tag)!r}")
            if task == "regression":
                try:
                    target = float(str(label))
                except ValueError as err:
                    raise DataError(f"{where}: regression labels must be numeric") from err
                if not math.isfinite(target):
                    raise DataError(f"{where}: regression labels must be finite numbers")
            else:
                target = codes.setdefault(str(label), len(codes))
            if tag in kept:
                if len(tags) == len(features):  # more lines than `_line_count` found
                    raise DataError(f"{path}: the file grew while it was read")
                if has_text:
                    texts.append(text)
                else:
                    features[len(tags)] = row
                tags.append(SPLITS[SPLITS.index(tag)])  # one shared str per tag
                targets.append(target)
                if len(texts) == TEXT_BLOCK_DOCS:
                    hash_featurize(texts, dim, hash_seed,
                                   out=features[len(tags) - len(texts):len(tags)])
                    texts.clear()
    if has_text:
        hash_featurize(texts, dim, hash_seed, out=features[len(tags) - len(texts):len(tags)])
    features = features[:len(tags)]
    split = np.array(tags, dtype=str)  # a str array also when no row is kept
    label_names: list[str] = []
    if task == "classification":
        # every label gets an index, also one seen only in val/test or in a
        # split left out: the out-of-domain protocol evaluates against a mapping
        label_names = sorted(codes)
        rank = {name: i for i, name in enumerate(label_names)}
        code_to_index = np.array([rank[name] for name in codes], dtype=np.int64)
        targets = code_to_index[np.array(targets, dtype=np.int64)]
    try:
        return Dataset(features=features, targets=np.asarray(targets), split=split, task=task,
                       num_classes=len(label_names), label_names=label_names)
    except DataError as err:  # Dataset's own check: a classification file of one label
        raise DataError(f"{path}: {err}") from None


@contextlib.contextmanager
def write_atomic(path: str, binary: bool = False):
    """A UTF-8 text file (newline=""), or a `binary` one, on a temporary name
    of its own beside `path` (`<path>.<pid>.<n>.tmp`: the writer's pid and the
    first n no other writer holds), in a parent made if missing, moved onto `path` when the
    block ends; on any failure it is removed instead, so an earlier file at
    `path` stays as it was, and two writers of one path each move one whole
    file onto it. A writer killed inside the block leaves its temporary file;
    the next write of `path` removes it once no process has that pid (as
    this process sees pids), and never the file of a live writer."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    _remove_stale_temporaries(path)
    text = {} if binary else {"encoding": "utf-8", "newline": ""}
    for n in itertools.count():
        tmp = f"{path}.{os.getpid()}.{n}.tmp"
        with contextlib.suppress(FileExistsError):
            fh = open(tmp, "xb" if binary else "x", **text)
            break
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _remove_stale_temporaries(path: str) -> None:
    """Remove each `write_atomic` temporary file of `path` whose writer's pid
    no process has; one that cannot be removed is left."""
    if os.name != "posix":  # elsewhere os.kill(pid, 0) is not a probe
        return
    directory, name = os.path.split(os.path.abspath(path))
    # pids stay below 2**31, which 9 digits keep to; os.kill rejects larger ones
    pattern = re.compile(re.escape(name) + r"\.(\d{1,9})\.\d+\.tmp")
    for entry in os.listdir(directory):
        match = pattern.fullmatch(entry)
        if match is None:
            continue
        try:
            os.kill(int(match[1]), 0)
        except ProcessLookupError:  # no process has the pid
            with contextlib.suppress(OSError):  # such as another writer removing it first
                os.remove(os.path.join(directory, entry))
        except PermissionError:  # a live process of another user
            pass


def write_csv(path: str, rows: Iterable[dict], header: Sequence[str]) -> None:
    """`rows` under `header` (a key missing from a row is an empty cell),
    through one csv writer, atomically."""
    with write_atomic(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)


def save(ds: Dataset, path: str) -> None:
    """Write csv (header f0..f{D-1},label,split) if `path` ends in .csv, else
    jsonl, that `load` reads back to identical values, atomically."""
    labels = (ds.label_names[int(t)] if ds.task == "classification" else float(t)
              for t in ds.targets)
    if _is_csv(path):
        header = [f"f{j}" for j in range(ds.num_features)] + ["label", "split"]
        write_csv(path, (dict(zip(header, [*ds.features[i].tolist(), label, str(ds.split[i])]))
                         for i, label in enumerate(labels)), header)
        return
    with write_atomic(path) as fh:
        for i, label in enumerate(labels):
            fh.write(json.dumps({
                "features": ds.features[i].tolist(),
                "label": label,
                "split": str(ds.split[i]),
            }) + "\n")


def read_label_mapping(path: str) -> dict[str, str]:
    """Two-column csv (source_label, target_label) -> {target: source}."""
    mapping: dict[str, str] = {}
    with _lines(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != ["source_label", "target_label"]:
                raise DataError(f"{path}: expected the header 'source_label,target_label', "
                                f"got {','.join(header or [])!r}")
            for row in reader:
                if not row:  # a blank line
                    continue
                if len(row) != 2:
                    raise DataError(f"{path}:{reader.line_num}: expected two fields, "
                                    f"source_label,target_label")
                source, target = row[0].strip(), row[1].strip()
                if target in mapping and mapping[target] != source:
                    raise DataError(f"{path}: target label {target!r} mapped twice")
                mapping[target] = source
        except csv.Error as err:  # such as a cell over csv.field_size_limit()
            raise DataError(f"{path}:{reader.line_num}: {err}") from None
    if not mapping:
        raise DataError(f"{path}: empty mapping")
    return mapping


# each perturbation's ratio: its name (the study's column) and whether 0 is allowed
RATIOS = {"inject_label_noise": ("noise_ratio", True), "subsample_train": ("train_ratio", False)}


def check_ratio(perturbation: str, ratio: float) -> None:
    """The range of a perturbation's ratio: [0, 1] where RATIOS allows 0,
    else (0, 1]; a value outside it is a DataError."""
    name, zero_ok = RATIOS[perturbation]
    if not (0.0 <= ratio if zero_ok else 0.0 < ratio) or not ratio <= 1.0:
        raise DataError(f"{name} must be in {'[' if zero_ok else '('}0, 1], got {ratio}")


def check_task(perturbation: str, task: str) -> None:
    """Label noise is defined for classification alone: a DataError for a
    regression `task`."""
    if perturbation == "inject_label_noise" and task != "classification":
        raise DataError("label noise is only defined for classification datasets")


def check_perturbation(perturbation: str, ds: Dataset, ratio: float) -> None:
    """Raise DataError unless `perturbation` can apply `ratio` to `ds`: the
    ratio is in range, the task is one it is defined for (`check_task`), and
    a subsample keeps round(ratio * n) >= ds.min_rows of the n train rows of
    every class (of the whole train split, for regression)."""
    check_ratio(perturbation, ratio)
    check_task(perturbation, ds.task)
    if perturbation == "subsample_train" and ratio < 1.0:
        for rows in _train_strata(ds):
            if round(ratio * rows.size) < ds.min_rows:
                raise DataError(f"train_ratio {ratio} keeps {round(ratio * rows.size)} of "
                                f"{rows.size} train rows of a {ds.task} stratum; "
                                f"it needs {ds.min_rows}")


def _train_strata(ds: Dataset) -> list[np.ndarray]:
    """The train rows of each class, or all of them as one stratum for regression."""
    train_idx = ds.indices("train")
    if ds.task == "classification":
        return [train_idx[ds.targets[train_idx] == c] for c in range(ds.num_classes)]
    return [train_idx]


def inject_label_noise(ds: Dataset, noise_ratio: float, seed: int) -> Dataset:
    """Flip an exact fraction of train labels, uniformly at random.

    Picks round(noise_ratio * n_train) train rows without replacement; each
    picked label is redrawn uniformly over the other C-1 classes, so a
    flipped label never keeps its old value. Val/test rows are untouched.
    """
    check_perturbation("inject_label_noise", ds, noise_ratio)
    train_idx = ds.indices("train")
    n_flip = int(round(noise_ratio * train_idx.size))
    rng = np.random.default_rng(seed)
    targets = ds.targets.copy()
    for i in rng.choice(train_idx, size=n_flip, replace=False):
        draw = int(rng.integers(0, ds.num_classes - 1))
        if draw >= targets[i]:
            draw += 1
        targets[i] = draw
    return replace(ds, targets=targets)


def subsample_train(ds: Dataset, train_ratio: float, seed: int) -> Dataset:
    """Keep a class-stratified fraction of the train split; val/test untouched.

    Per class, round(ratio * n_c) rows are kept (see `check_perturbation`
    for the ratios that are errors). Unselected train rows are dropped.
    """
    check_perturbation("subsample_train", ds, train_ratio)
    if train_ratio == 1.0:
        return ds
    rng = np.random.default_rng(seed)
    keep = [rng.choice(rows, size=round(train_ratio * rows.size), replace=False)
            for rows in _train_strata(ds)]
    mask = np.ones(ds.num_rows, dtype=bool)
    mask[ds.indices("train")] = False
    mask[np.concatenate(keep)] = True
    return replace(ds, features=ds.features[mask], targets=ds.targets[mask],
                   split=ds.split[mask])
