"""Evaluation metrics: macro-F1/recall, correlations, clustering scores.

Zero-division convention: per-class precision, recall and F1 are 0 whenever
their denominator is 0, and macro averages always run over all C classes
(a class absent from both gold and predictions contributes 0). This is
stated prominently because it shifts macro scores on sparse label sets.
"""

from __future__ import annotations

import numpy as np


class MetricError(ValueError):
    """Undefined metric value (e.g. correlation of a constant sequence)."""


def confusion_matrix(gold, pred, num_classes: int) -> np.ndarray:
    """C x C counts; rows index gold labels, columns predicted labels."""
    gold = np.asarray(gold, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if gold.shape != pred.shape or gold.ndim != 1:
        raise MetricError("gold and pred must be equal-length 1-D arrays")
    if gold.size == 0:
        raise MetricError("empty input")
    if np.any((gold < 0) | (gold >= num_classes) | (pred < 0) | (pred >= num_classes)):
        raise MetricError(f"labels out of range [0, {num_classes})")
    cells = np.bincount(gold * num_classes + pred, minlength=num_classes * num_classes)
    return cells.reshape(num_classes, num_classes)


def _per_class_stats(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tp = np.diag(cm).astype(np.float64)
    gold_count = cm.sum(axis=1).astype(np.float64)
    pred_count = cm.sum(axis=0).astype(np.float64)
    precision = np.divide(tp, pred_count, out=np.zeros_like(tp), where=pred_count > 0)
    recall = np.divide(tp, gold_count, out=np.zeros_like(tp), where=gold_count > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros_like(tp), where=pr > 0)
    return precision, recall, f1


def pearson(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise MetricError("pearson needs two equal-length 1-D arrays of size >= 2")
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0.0:
        raise MetricError("correlation undefined for constant input")
    return float((da * db).sum() / denom)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Fractional ranks starting at 1; ties share the mean of their positions."""
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    # a tie group is a run of equal sorted values, positions i..j
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    ends = np.r_[starts[1:], x.size] - 1
    group = np.repeat(np.arange(starts.size), ends - starts + 1)
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = (0.5 * (starts + ends) + 1.0)[group]
    return ranks


def spearman(a, b) -> float:
    """Pearson correlation of average-tie fractional ranks."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise MetricError("spearman needs two equal-length 1-D arrays of size >= 2")
    return pearson(_average_ranks(a), _average_ranks(b))


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    np.multiply(diff, diff, out=diff)
    return diff.sum(axis=2)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total == 0.0:
            centers[c] = points[rng.integers(n)]
        else:
            centers[c] = points[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def kmeans(points, k: int, seed: int = 0, iters: int = 100) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; deterministic given seed.
    Stops after `iters` iterations, or at the first iteration after the
    first that leaves every assignment unchanged."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise MetricError(f"points must be 2-D, got shape {points.shape}")
    if not 1 <= k <= points.shape[0]:
        raise MetricError(f"k must be in [1, {points.shape[0]}], got {k}")
    centers = _kmeans_pp_init(points, k, np.random.default_rng(seed))
    assign = np.zeros(points.shape[0], dtype=np.int64)
    for it in range(iters):
        dists = _pairwise_sq_dists(points, centers)
        new_assign = dists.argmin(axis=1)
        for c in range(k):
            members = points[new_assign == c]
            if members.size == 0:
                # revive on the point farthest from its assigned center
                farthest = dists[np.arange(points.shape[0]), new_assign].argmax()
                centers[c] = points[farthest]
                new_assign[farthest] = c
            else:
                centers[c] = members.mean(axis=0)
        if it > 0 and np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign


# Largest rows x n x d difference tensor silhouette builds at once (8 MB of
# float64); its peak memory is a small multiple of this, whatever n is.
SILHOUETTE_BLOCK_ELEMENTS = 1 << 20


def silhouette(points, assignments) -> float | np.ndarray:
    """Mean over points of (b - a) / max(a, b) with Euclidean distances.

    a is the mean distance to the point's own cluster (excluding itself),
    b the smallest mean distance to any other cluster. A point alone in its
    cluster contributes 0, and so does one with a = b = 0 (its own and its
    nearest other cluster sit on it), as Rousseeuw defines it. Rows are
    processed in blocks of at most SILHOUETTE_BLOCK_ELEMENTS difference entries.

    `assignments` is one partition of the n points (the score is a float)
    or an (S, n) stack of partitions (an array of S scores). Each distance
    block is computed once and scored for every partition of the stack, and
    each score has the bits of scoring its partition alone.
    """
    points = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments, dtype=np.int64)
    n = points.shape[0]
    if assignments.ndim not in (1, 2) or assignments.shape[-1] != n:
        raise MetricError(f"assignments of shape {assignments.shape} do not "
                          f"partition {n} points")
    partitions = []
    for row in np.atleast_2d(assignments):
        labels, cluster, sizes = np.unique(row, return_inverse=True, return_counts=True)
        if labels.size < 2:
            raise MetricError("silhouette needs at least 2 clusters")
        members = [np.flatnonzero(cluster == c) for c in range(labels.size)]
        partitions.append((cluster, sizes, members))
    rows_per_block = max(1, SILHOUETTE_BLOCK_ELEMENTS // max(1, n * points.shape[1]))
    scores = np.zeros((len(partitions), n))
    for lo in range(0, n, rows_per_block):
        block = slice(lo, min(lo + rows_per_block, n))
        dists = np.sqrt(np.maximum(_pairwise_sq_dists(points[block], points), 0.0))
        for (cluster, sizes, members), score in zip(partitions, scores):
            # np.take keeps each row contiguous, so each row's sum adds in the
            # same (pairwise) order as the 1-D sum over the full matrix's row
            sums = np.stack([np.take(dists, m, axis=1).sum(axis=1) for m in members], axis=1)
            own = cluster[block]
            at_own = (np.arange(own.size), own)
            means = sums / sizes
            means[at_own] = np.inf
            b = means.min(axis=1)
            multi = sizes[own] > 1  # a singleton contributes 0
            a = sums[at_own][multi] / (sizes[own][multi] - 1)
            scale = np.maximum(a, b[multi])
            score[block][multi] = np.divide(b[multi] - a, scale, out=np.zeros_like(scale),
                                            where=scale > 0)
    if assignments.ndim == 1:
        return float(scores[0].mean())
    return np.array([score.mean() for score in scores])


def adjusted_rand_index(assign_a, assign_b) -> float:
    """Chance-corrected pair-counting agreement between two partitions."""
    a = np.asarray(assign_a, dtype=np.int64)
    b = np.asarray(assign_b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise MetricError("partitions must be equal-length 1-D arrays")
    n = a.size
    _, a_ids = np.unique(a, return_inverse=True)
    _, b_ids = np.unique(b, return_inverse=True)
    # square; the extra zero rows or columns add nothing to any comb2 sum
    contingency = confusion_matrix(a_ids, b_ids, max(a_ids.max(), b_ids.max()) + 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    index = comb2(contingency).sum()
    sum_a = comb2(contingency.sum(axis=1)).sum()
    sum_b = comb2(contingency.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0  # both partitions trivial in the same way => identical
    return float((index - expected) / (max_index - expected))
