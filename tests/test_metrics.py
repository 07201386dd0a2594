import itertools
import math
import warnings
import tracemalloc

import numpy as np
import pytest

from spc import metrics
from spc.metrics import (
    MetricError,
    _average_ranks,
    _pairwise_sq_dists,
    _per_class_stats,
    adjusted_rand_index,
    confusion_matrix,
    kmeans,
    pearson,
    silhouette,
    spearman,
)


def class_scores(gold, pred, num_classes):
    """Per-class (precision, recall, F1) arrays, scored as
    `trainer.evaluate_split` scores a classification split."""
    return _per_class_stats(confusion_matrix(gold, pred, num_classes))


# --- definition-level oracles, deliberately naive ---

def brute_f1(gold, pred, cls):
    tp = sum(1 for g, p in zip(gold, pred) if g == cls and p == cls)
    fp = sum(1 for g, p in zip(gold, pred) if g != cls and p == cls)
    fn = sum(1 for g, p in zip(gold, pred) if g == cls and p != cls)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def brute_macro_f1(gold, pred, num_classes):
    return sum(brute_f1(gold, pred, c) for c in range(num_classes)) / num_classes


def brute_macro_recall(gold, pred, num_classes):
    total = 0.0
    for c in range(num_classes):
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        n_gold = sum(1 for g in gold if g == c)
        total += tp / n_gold if n_gold else 0.0
    return total / num_classes


def brute_pearson(a, b):
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    return cov / math.sqrt(va * vb)


def brute_ranks(x):
    ranks = [0.0] * len(x)
    for i, v in enumerate(x):
        smaller = sum(1 for u in x if u < v)
        equal = sum(1 for u in x if u == v)
        ranks[i] = smaller + (equal + 1) / 2.0
    return ranks


def brute_spearman(a, b):
    return brute_pearson(brute_ranks(list(a)), brute_ranks(list(b)))


def brute_silhouette(points, assign):
    n = len(points)
    scores = []
    for i in range(n):
        own = [j for j in range(n) if assign[j] == assign[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = sum(math.dist(points[i], points[j]) for j in own) / len(own)
        b = math.inf
        for c in set(assign):
            if c == assign[i]:
                continue
            members = [j for j in range(n) if assign[j] == c]
            b = min(b, sum(math.dist(points[i], points[j]) for j in members) / len(members))
        scores.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return sum(scores) / n


def loop_silhouette(points, assignments):
    """The former per-point silhouette over the full n x n distance matrix;
    the blocked version must reproduce it bit for bit."""
    points = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments, dtype=np.int64)
    labels = np.unique(assignments)
    dists = np.sqrt(np.maximum(_pairwise_sq_dists(points, points), 0.0))
    scores = np.zeros(points.shape[0])
    members = {c: np.flatnonzero(assignments == c) for c in labels}
    for i in range(points.shape[0]):
        own = members[assignments[i]]
        if own.size == 1:
            continue
        a = dists[i, own].sum() / (own.size - 1)
        b = min(dists[i, members[c]].mean() for c in labels if c != assignments[i])
        scores[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(scores.mean())


def loop_average_ranks(x):
    """The former while-loop fractional ranks; the vectorized version must
    reproduce them bit for bit."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    sorted_x = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def brute_ari(a, b):
    n = len(a)
    pairs = list(itertools.combinations(range(n), 2))
    n11 = sum(1 for i, j in pairs if a[i] == a[j] and b[i] == b[j])
    n00 = sum(1 for i, j in pairs if a[i] != a[j] and b[i] != b[j])
    index = n11
    sum_a = sum(1 for i, j in pairs if a[i] == a[j])
    sum_b = sum(1 for i, j in pairs if b[i] == b[j])
    expected = sum_a * sum_b / len(pairs)
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return (index - expected) / (max_index - expected)


class TestMacroF1:
    def test_perfect(self):
        assert class_scores([0, 1, 2], [0, 1, 2], 3)[2].mean() == 1.0

    def test_crossed_case(self):
        # per-class F1 is 0.5 and 0.5
        assert class_scores([0, 0, 1, 1], [0, 1, 0, 1], 2)[2].mean() == pytest.approx(0.5)

    def test_all_one_class_predictor(self):
        # balanced 2-class data, everything predicted as class 0:
        # F1(class 0) = 2/3, F1(class 1) = 0 -> macro 1/3
        value = class_scores([0, 0, 1, 1], [0, 0, 0, 0], 2)[2].mean()
        assert value == pytest.approx(1.0 / 3.0)

    def test_empty_input(self):
        with pytest.raises(MetricError):
            class_scores([], [], 2)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(60)
        gold = rng.integers(0, 3, size=30)
        pred = rng.integers(0, 3, size=30)
        relabel = np.array([2, 0, 1])
        assert class_scores(gold, pred, 3)[2].mean() == pytest.approx(
            class_scores(relabel[gold], relabel[pred], 3)[2].mean())


class TestF1OfClass:
    def test_perfect(self):
        assert class_scores([0, 1, 0], [0, 1, 0], 2)[2][1] == 1.0

    def test_absent_class_zero(self):
        assert class_scores([0, 0], [0, 0], 2)[2][1] == 0.0

    def test_precision_one_recall_half(self):
        # gold has two positives, prediction marks exactly one of them
        assert class_scores([1, 1, 0], [1, 0, 0], 2)[2][1] == pytest.approx(2.0 / 3.0)


class TestMacroRecall:
    def test_perfect(self):
        assert class_scores([0, 1], [0, 1], 2)[1].mean() == 1.0

    def test_uniform_random_predictor(self):
        rng = np.random.default_rng(61)
        gold = np.repeat(np.arange(4), 2500)
        pred = rng.integers(0, 4, size=gold.size)
        assert class_scores(gold, pred, 4)[1].mean() == pytest.approx(0.25, abs=0.02)

    def test_empty_gold_class_convention(self):
        # class 1 never appears in gold: contributes recall 0, not excluded
        assert class_scores([0, 0], [0, 0], 2)[1].mean() == pytest.approx(0.5)


class TestCorrelations:
    def test_identity(self):
        a = [1.0, 2.0, 5.0, 3.0]
        assert pearson(a, a) == pytest.approx(1.0)
        assert spearman(a, a) == pytest.approx(1.0)

    def test_negation(self):
        a = [1.0, 2.0, 5.0, 3.0]
        b = [-x for x in a]
        assert pearson(a, b) == pytest.approx(-1.0)
        assert spearman(a, b) == pytest.approx(-1.0)

    def test_monotone_nonlinear(self):
        a = [1.0, 2.0, 3.0]
        b = [1.0, 4.0, 9.0]
        assert spearman(a, b) == pytest.approx(1.0)
        # closed form: 24 / sqrt(588)
        assert pearson(a, b) == pytest.approx(24.0 / math.sqrt(588.0), abs=1e-12)
        assert pearson(a, b) == pytest.approx(0.9897, abs=1e-4)

    def test_constant_input_error(self):
        with pytest.raises(MetricError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(MetricError):
            spearman([2.0, 2.0], [1.0, 3.0])

    def test_spearman_monotone_invariance(self):
        rng = np.random.default_rng(62)
        a = rng.normal(size=25)
        b = rng.normal(size=25)
        base = spearman(a, b)
        assert spearman(np.exp(a), b) == pytest.approx(base, abs=1e-12)
        assert spearman(a, b ** 3) == pytest.approx(base, abs=1e-12)

    def test_spearman_ties_average_rank(self):
        a = [1.0, 1.0, 2.0]
        b = [1.0, 2.0, 3.0]
        assert spearman(a, b) == pytest.approx(brute_spearman(a, b), abs=1e-12)

    @pytest.mark.parametrize("size, distinct", [(1, 1), (2, 1), (50, 3), (5000, 7), (20000, 900)])
    def test_average_ranks_equal_the_loop(self, size, distinct):
        rng = np.random.default_rng(size)
        x = rng.integers(0, distinct, size=size).astype(np.float64)
        x[::11] = -0.0  # ties with 0.0
        assert np.array_equal(_average_ranks(x), loop_average_ranks(x))


class TestKmeans:
    def test_separated_pairs_coassigned(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
        assign = kmeans(points, 2, seed=0)
        assert assign[0] == assign[1]
        assert assign[2] == assign[3]
        assert assign[0] != assign[2]

    @staticmethod
    def within_cluster_ss(points, k, seed, iters):
        """Sum of squared distances of the points to their cluster's mean."""
        assign = kmeans(points, k, seed=seed, iters=iters)
        return assign, sum(float(((points[assign == c] - points[assign == c].mean(axis=0))
                                  ** 2).sum()) for c in np.unique(assign))

    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(63)
        points = rng.normal(size=(6, 3))
        assign, inertia = self.within_cluster_ss(points, 6, 0, 50)
        assert sorted(assign.tolist()) == list(range(6))
        assert inertia == pytest.approx(0.0, abs=1e-20)

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(64)
        points = rng.normal(size=(60, 4))
        history = [self.within_cluster_ss(points, 4, 1, iters)[1] for iters in range(1, 51)]
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-10

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(65)
        points = rng.normal(size=(40, 3))
        assert np.array_equal(kmeans(points, 3, seed=7), kmeans(points, 3, seed=7))

    def test_k_bigger_than_n(self):
        with pytest.raises(MetricError):
            kmeans(np.zeros((3, 2)), 4)

    def test_empty_cluster_revived(self):
        # only two distinct locations but k = 3: some center must go empty
        # at least once and be re-seeded on the farthest point
        points = np.array([[0.0, 0.0]] * 6 + [[5.0, 5.0]] * 6)
        assign = kmeans(points, 3, seed=0)
        assert set(assign.tolist()) == {0, 1, 2}


class TestSilhouette:
    def test_tight_far_clusters(self):
        rng = np.random.default_rng(66)
        a = rng.normal(size=(20, 2)) * 0.01
        b = rng.normal(size=(20, 2)) * 0.01 + 100.0
        points = np.vstack([a, b])
        assign = np.array([0] * 20 + [1] * 20)
        assert silhouette(points, assign) > 0.9

    def test_random_assignment_near_zero(self):
        rng = np.random.default_rng(67)
        points = rng.normal(size=(100, 3))
        assign = rng.integers(0, 2, size=100)
        assert abs(silhouette(points, assign)) < 0.1

    def test_label_swap_invariance(self):
        rng = np.random.default_rng(68)
        points = rng.normal(size=(15, 2))
        assign = rng.integers(0, 2, size=15)
        assert silhouette(points, assign) == pytest.approx(silhouette(points, 1 - assign))

    def test_a_point_on_its_own_and_nearest_cluster_scores_0(self):
        # rows 0-2 coincide, and so do rows 3-4: with clusters {0, 1}, {2}, {3, 4},
        # points 0 and 1 have a = b = 0, which scores 0, not 0/0
        points = np.array([[1.0, 2.0]] * 3 + [[5.0, -1.0]] * 2)
        assign = np.array([0, 0, 1, 2, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            score = silhouette(points, assign)
        assert score == (0.0 + 0.0 + 0.0 + 1.0 + 1.0) / 5
        assert score == loop_silhouette(points, assign)
        assert score == pytest.approx(brute_silhouette(points.tolist(), assign.tolist()),
                                      abs=1e-12)

    def test_single_cluster_error(self):
        with pytest.raises(MetricError):
            silhouette(np.zeros((4, 2)), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("shape", [(), (3,), (2, 5), (1, 2, 4)])
    def test_assignments_must_partition_the_points(self, shape):
        with pytest.raises(MetricError, match="do not partition 4 points"):
            silhouette(np.zeros((4, 2)), np.zeros(shape, dtype=int))

    @pytest.mark.parametrize("n, d, labels", [
        (60, 3, [0, 1]),
        (97, 5, [0, 3, 7]),          # non-contiguous labels
        (400, 8, [2, 5, 6, 11]),     # 400 * 400 * 8 entries: more than one block
        (1600, 16, list(range(8))),  # the size of a text repr-quality run
    ])
    def test_blocked_equals_per_point_loop(self, n, d, labels):
        rng = np.random.default_rng(n)
        points = rng.normal(size=(n, d)) + rng.integers(0, 3, size=(n, 1))
        # uneven clusters: label probabilities 1, 2, 3, ... and a singleton
        weights = np.arange(1, len(labels) + 1, dtype=np.float64)
        assign = rng.choice(labels, size=n, p=weights / weights.sum())
        assign[n // 2] = 99
        assert silhouette(points, assign) == loop_silhouette(points, assign)

    # budget: SILHOUETTE_BLOCK_ELEMENTS (a row is 53 * 4 = 212 entries, so
    # 1 and 40 give one row per block, 1000 four); stack: the partitions
    # scored by one call after the first (None: the first alone, 1-D)
    @pytest.mark.parametrize("budget, stack", [
        pytest.param(1, None, id="1"),
        pytest.param(40, None, id="40"),
        pytest.param(1000, None, id="1000"),
        pytest.param(40, "mixed", id="40-stack"),
        pytest.param(1000, "mixed", id="1000-stack"),
        pytest.param(1 << 20, "mixed", id="one-block-stack"),
        pytest.param(1000, "one-cluster", id="1000-stack-with-one-cluster"),
    ])
    def test_any_block_size_gives_the_same_bits(self, monkeypatch, budget, stack):
        rng = np.random.default_rng(69)
        points = rng.normal(size=(53, 4))
        assign = rng.choice([0, 3, 7], size=53)
        assign[:2] = [1, 1]  # a cluster of two
        assign[2] = 9        # a singleton
        expected = loop_silhouette(points, assign)
        monkeypatch.setattr(metrics, "SILHOUETTE_BLOCK_ELEMENTS", budget)
        if stack is None:
            assert silhouette(points, assign) == expected
        elif stack == "mixed":
            # a relabelled copy, one with a singleton moved, a 2-cluster one
            moved = rng.permutation(assign)
            partitions = np.array([assign, 10 - assign, moved, rng.integers(0, 2, size=53)])
            scores = silhouette(points, partitions)
            assert scores.shape == (4,) and scores[0] == expected
            assert scores.tolist() == [silhouette(points, p) for p in partitions]
            assert scores.tolist() == [loop_silhouette(points, p) for p in partitions]
        else:
            with pytest.raises(MetricError, match="at least 2 clusters"):
                silhouette(points, np.array([assign, np.zeros(53, dtype=np.int64)]))

    def test_peak_memory_is_bounded(self):
        rng = np.random.default_rng(70)
        points = rng.normal(size=(1500, 8))
        assign = rng.integers(0, 6, size=1500)
        tracemalloc.start()
        try:
            silhouette(points, assign)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20  # the full n x n x d tensor alone is 144 MB


class TestAri:
    def test_identical(self):
        assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_constant_partition_zero(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(0.0)

    def test_one_swap_matches_brute_force(self):
        a = [0, 0, 1, 1]
        b = [0, 0, 1, 0]  # contingency [[2,0],[1,1]]: one element moved
        assert adjusted_rand_index(a, b) == pytest.approx(brute_ari(a, b), abs=1e-12)


class TestBruteForceAgreement:
    """Each metric against its definition-level oracle on random instances."""

    def test_classification_metrics(self):
        rng = np.random.default_rng(69)
        for _ in range(100):
            n = int(rng.integers(2, 31))
            c = int(rng.integers(2, 6))
            gold = rng.integers(0, c, size=n)
            pred = rng.integers(0, c, size=n)
            assert class_scores(gold, pred, c)[2].mean() == pytest.approx(
                brute_macro_f1(gold.tolist(), pred.tolist(), c), abs=1e-10)
            assert class_scores(gold, pred, c)[1].mean() == pytest.approx(
                brute_macro_recall(gold.tolist(), pred.tolist(), c), abs=1e-10)
            cls = int(rng.integers(0, c))
            assert class_scores(gold, pred, c)[2][cls] == pytest.approx(
                brute_f1(gold.tolist(), pred.tolist(), cls), abs=1e-10)

    def test_correlations(self):
        rng = np.random.default_rng(70)
        for _ in range(100):
            n = int(rng.integers(3, 31))
            a = rng.normal(size=n)
            b = rng.normal(size=n) + 0.5 * a
            assert pearson(a, b) == pytest.approx(brute_pearson(a.tolist(), b.tolist()), abs=1e-10)
            assert spearman(a, b) == pytest.approx(brute_spearman(a.tolist(), b.tolist()), abs=1e-10)

    def test_clustering_scores(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            n = int(rng.integers(4, 31))
            points = rng.normal(size=(n, 2))
            assign = rng.integers(0, 3, size=n)
            other = rng.integers(0, 3, size=n)
            if len(set(assign.tolist())) >= 2:
                assert silhouette(points, assign) == pytest.approx(
                    brute_silhouette(points.tolist(), assign.tolist()), abs=1e-10)
            assert adjusted_rand_index(assign, other) == pytest.approx(
                brute_ari(assign.tolist(), other.tolist()), abs=1e-10)

    def test_ranges(self):
        rng = np.random.default_rng(72)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            c = int(rng.integers(2, 5))
            gold = rng.integers(0, c, size=n)
            pred = rng.integers(0, c, size=n)
            assert 0.0 <= class_scores(gold, pred, c)[2].mean() <= 1.0
            assert 0.0 <= class_scores(gold, pred, c)[1].mean() <= 1.0
            a, b = rng.normal(size=n), rng.normal(size=n)
            assert -1.0 <= pearson(a, b) <= 1.0
            assert -1.0 <= spearman(a, b) <= 1.0
            assert -1.0 <= adjusted_rand_index(gold, pred) <= 1.0


class TestConfusionMatrix:
    def test_counts(self):
        cm = confusion_matrix([0, 0, 1, 2], [0, 1, 1, 2], 3)
        assert cm.sum() == 4
        assert cm[0, 0] == 1 and cm[0, 1] == 1 and cm[1, 1] == 1 and cm[2, 2] == 1

    def test_out_of_range(self):
        with pytest.raises(MetricError):
            confusion_matrix([0, 3], [0, 1], 3)

    def test_counts_equal_those_of_add_at(self):
        rng = np.random.default_rng(41)
        for num_classes in (2, 5, 9):
            present = rng.choice(num_classes, size=max(1, num_classes - 2), replace=False)
            gold = rng.choice(present, size=300)
            pred = rng.choice(present, size=300)  # some classes in neither
            expected = np.zeros((num_classes, num_classes), dtype=np.int64)
            np.add.at(expected, (gold, pred), 1)
            cm = confusion_matrix(gold, pred, num_classes)
            assert cm.dtype == np.int64 and cm.shape == (num_classes, num_classes)
            assert np.array_equal(cm, expected)
