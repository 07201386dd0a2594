"""Seeded synthetic text dataset: class-conditioned word draws, as jsonl.

Each class owns a small set of topic words. A document draws each token
from its class's topic words with probability `topic_share`, otherwise from
a background vocabulary shared by all classes with Zipf-like weights, so
the classes are separable through hashed unigram/bigram counts but share
most of their tokens. Rows are split 60/20/20 per class, like `spc gen-data`.
The same arguments always give the same file.
"""

from __future__ import annotations

import itertools
import json
import random


def _word(i: int) -> str:
    # letters only: the featurizer's tokenizer keeps [a-z0-9] runs
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = ""
    i += 26 * 26  # at least three letters
    while i:
        i, r = divmod(i, 26)
        out += letters[r]
    return out


def generate_rows(seed: int, classes: int, per_class: int, doc_len: int,
                  vocab: int = 2000, topic_words: int = 40,
                  topic_share: float = 0.3) -> list[dict]:
    """Return `classes * per_class` rows with "text", "label" and "split"."""
    rng = random.Random(seed)
    background = [_word(i) for i in range(vocab)]
    cum_weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(vocab)))
    topics = [[_word(vocab + c * topic_words + j) for j in range(topic_words)]
              for c in range(classes)]
    n_train = round(0.6 * per_class)
    n_val = round(0.2 * per_class)
    rows = []
    for c in range(classes):
        for k in range(per_class):
            n_topic = sum(rng.random() < topic_share for _ in range(doc_len))
            tokens = rng.choices(background, cum_weights=cum_weights, k=doc_len - n_topic)
            tokens += rng.choices(topics[c], k=n_topic)
            rng.shuffle(tokens)
            split = "train" if k < n_train else "val" if k < n_train + n_val else "test"
            rows.append({"text": " ".join(tokens), "label": f"topic{c}", "split": split})
    return rows


def write_jsonl(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
