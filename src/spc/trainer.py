"""Deterministic minibatch training: Adamax, early stopping, and the protocols
that train many runs (seeds, sweeps, perturbation studies, out-of-domain).

Randomness discipline: one `numpy` Generator per run, seeded from the run
seed, consumed in a fixed documented order — model init, then per epoch one
shuffle permutation, then per batch one noise draw followed by one dropout
mask (if dropout is on). Deterministic objectives consume the noise draw
too and ignore it, so runs that differ only in objective kind see identical
shuffles and can be compared trajectory-for-trajectory.

Every readout of a split (each epoch's validation, the final scores,
`evaluate_split` and the codes of `representation_quality`) runs the
training step's `encoder.forward` without noise or dropout, in row blocks of
bounded memory (`readout`). Its layers are `diffcore.matmul`, the model's
affine layer, kept while `bench/tracer.py` counts its flops.
"""

from __future__ import annotations

import dataclasses
import hashlib
import contextlib
import itertools
import json
import math
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import data as dataio
from .data import DataError, Dataset
from .diffcore import Tape, Tensor, backward, emit
from .encoder import EncoderParams, encode, forward, init_encoder, init_vib
from .metrics import (MetricError, _per_class_stats, adjusted_rand_index, confusion_matrix,
                      kmeans, pearson, silhouette, spearman)
from .objectives import OBJECTIVES, WEIGHTS, LossTerms, ObjectiveConfig, spc_loss


@dataclass
class TrainConfig:
    """Hyperparameters of one training run (the seed is passed to `train`).

    These field defaults, with those of `ObjectiveConfig`, are the defaults
    of the command-line training flags too. The default learning rate
    targets the desk-scale MLP; transformer-style fine-tuning rates (5e-5)
    remain available through the field.
    """

    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    epochs: int = 20
    batch_size: int = 128
    learning_rate: float = 1e-2
    weight_decay: float = 0.0
    patience: int = 5
    hidden_dim: int = 64
    vib_latent_dim: int = 16
    dropout: float = 0.0
    layer_norm: bool = False
    zero_eps: bool = False  # replace every noise draw with zeros (draws still consumed)

    def __post_init__(self):
        # epochs bounds patience too, and so the loop: with patience equal to
        # epochs, early stopping never fires
        for name in ("epochs", "hidden_dim", "vib_latent_dim"):
            if not 1 <= getattr(self, name) <= dataio.MAX_SIZE:
                raise ValueError(f"{name} must be in [1, {dataio.MAX_SIZE}], "
                                 f"got {getattr(self, name)}")
        if not 1 <= self.patience <= self.epochs:
            raise ValueError(f"patience must be in [1, epochs={self.epochs}], got {self.patience}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2 (batch entropy needs a real batch), "
                             f"got {self.batch_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        for name, value in (("learning_rate", self.learning_rate),
                            ("weight_decay", self.weight_decay)):
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    def headline_metric(self) -> str:
        return "macro_f1" if self.objective.task == "classification" else "spearman"


@dataclass
class AdamaxState:
    """Adamax moments of one parameter vector, the count of steps taken, and
    two scratch vectors of the same shape that each step computes into."""

    m: np.ndarray
    u: np.ndarray
    t: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))


def adamax_step(values: np.ndarray, grad: np.ndarray, state: AdamaxState,
                lr: float, weight_decay: float = 0.0) -> bool:
    """One Adamax update of the float64 array `values`, in place.

    m <- beta1*m + (1-beta1)*g;  u <- max(beta2*u, |g|);
    p <- p - (lr / (1 - beta1^t)) * m / (u + epsilon),
    with beta1 = 0.9, beta2 = 0.999, epsilon = 1e-8. Weight decay is
    decoupled: p is shrunk by lr*wd before the update. A non-finite entry in
    `grad` changes neither `values` nor `state`'s m, u and t, and returns
    False; a step taken returns True. Every intermediate, the finiteness check's
    too, goes into `state.scratch`: a step allocates no parameter-sized vector.
    """
    beta1, beta2, epsilon = 0.9, 0.999, 1e-8
    a, b = state.scratch
    # the largest |g| is inf or nan exactly when some entry of g is (0 for no entry)
    if not math.isfinite(np.maximum.reduce(np.abs(grad, out=b), axis=None, initial=0.0)):
        return False
    state.t += 1
    correction = 1.0 - beta1 ** state.t
    if weight_decay != 0.0:
        values *= 1.0 - lr * weight_decay
    state.m *= beta1
    state.m += np.multiply(grad, 1.0 - beta1, out=a)
    state.u *= beta2
    np.maximum(state.u, b, out=state.u)
    np.multiply(state.m, lr / correction, out=a)
    values -= np.divide(a, np.add(state.u, epsilon, out=b), out=a)
    return True


@dataclass
class RunReport:
    """Everything one run produced; hashable for byte-exact reproducibility."""

    config: dict
    seed: int
    dataset_info: dict = field(default_factory=dict)
    best_epoch: int = 0
    epochs_ran: int = 0
    step_logs: list[dict] = field(default_factory=list)
    epoch_logs: list[dict] = field(default_factory=list)
    val_metrics: dict = field(default_factory=dict)
    test_metrics: dict = field(default_factory=dict)
    headline_metric: str = ""
    diverged: bool = False
    model: EncoderParams | None = field(default=None, repr=False, compare=False)

    @property
    def headline_value(self) -> float:
        return self.test_metrics[self.headline_metric]

    def results_dict(self) -> dict:
        """The fields that compare: reported numbers, stable across reruns."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.compare}

    def run_hash(self) -> str:
        payload = json.dumps(self.results_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_model(dataset: Dataset, cfg: TrainConfig,
                rng: np.random.Generator | int) -> EncoderParams:
    if OBJECTIVES[cfg.objective.kind].decoder:
        return init_vib(dataset.num_features, cfg.hidden_dim, cfg.vib_latent_dim,
                        dataset.num_outputs, rng, use_layer_norm=cfg.layer_norm)
    return init_encoder(dataset.num_features, cfg.hidden_dim, dataset.num_outputs, rng,
                        use_layer_norm=cfg.layer_norm)


def batch_loss(model: EncoderParams, x: np.ndarray, y, objective: ObjectiveConfig,
               eps: np.ndarray, dropout_mask: np.ndarray | None = None) -> LossTerms:
    """One minibatch, plain arrays, through the configured objective as one
    taped op: t is a sample (kinds that take beta) or mu, decoded and scored.
    A kind that does not sample takes no KL term either, so its log-variance
    head is skipped. The op has one pair per model tensor; the first that
    `backward` calls runs the hand-written backward (`spc_loss`'s, then
    `encoder.forward`'s) for all of them."""
    mu, log_var, out, backprop = forward(model, x, eps if objective.samples else None,
                                         dropout_mask)
    terms, loss_grads = spc_loss(out, mu, log_var, y, objective)
    grads = {}

    def grad_of(name):
        def local_grad(g):
            if not grads:
                grads.update(backprop(*loss_grads(g)))
            return grads[name]
        return local_grad

    terms.total = emit(np.asarray(terms.total_value),
                       *((t, grad_of(name)) for name, t in model.tensors.items()))
    return terms


# Largest rows x width activation a readout builds at once (512 KB of
# float64), the width being the model's widest layer, input included.
EVAL_BLOCK_ELEMENTS = 1 << 16


def readout(model: EncoderParams, dataset: Dataset, rows: np.ndarray,
            fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """`fn` of the feature rows `rows`, stacked: the one readout path.

    Rows go through `fn` in blocks of at most EVAL_BLOCK_ELEMENTS // (widest
    layer) rows, each gathered from `dataset.features` by index, so memory
    stays bounded whatever the split's size. `rows` that fit in one block
    give `fn(dataset.features[rows])` itself, uncopied. A row's output does not
    depend on the other rows, but a matmul split into row blocks may differ
    from the single call in the last bits (BLAS picks its kernel by shape).
    """
    step = max(1, EVAL_BLOCK_ELEMENTS // max(max(t.values.shape) for t in model.parameters()))
    if rows.size <= step:  # an empty `rows` too
        return fn(dataset.features[rows])
    return np.concatenate([fn(dataset.features[rows[lo:lo + step]])
                           for lo in range(0, rows.size, step)])


def evaluate_split(model: EncoderParams, dataset: Dataset, split: str) -> dict:
    """The task's scores of `model` on one split, read out in row blocks."""
    rows = dataset.indices(split)
    targets = dataset.targets[rows]
    outputs = readout(model, dataset, rows, lambda features: forward(model, features, None)[2])
    if dataset.task == "classification":
        pred = outputs.argmax(axis=1)
        _, recall, f1 = _per_class_stats(confusion_matrix(targets, pred, dataset.num_classes))
        return {  # each mean a sum over its count, as .mean() computes it
            "macro_f1": float(np.add.reduce(f1) / f1.size),
            "macro_recall": float(np.add.reduce(recall) / recall.size),
            "accuracy": float(np.count_nonzero(pred == targets) / targets.size),
            "per_class_f1": [float(v) for v in f1],
        }
    scores = {}
    for name, correlation in (("pearson", pearson), ("spearman", spearman)):
        try:
            scores[name] = correlation(outputs.ravel(), targets)
        except MetricError:  # undefined: a constant prediction or target, or one row
            scores[name] = float("nan")
    return scores


@contextlib.contextmanager
def timed(timing: dict, key: str):
    """Add the seconds the block takes (`time.perf_counter`) to `timing[key]`:
    the one timer of every phase a report's `timing` records."""
    started = time.perf_counter()
    yield
    timing[key] = timing.get(key, 0.0) + time.perf_counter() - started


def representation_quality(model: EncoderParams, dataset: Dataset,
                           kmeans_seeds: list[int], timing: dict) -> dict:
    """Cluster the mean codes of the test split and score SC / ARI.

    Representations are mu(x) (the latent mean for the bottleneck model),
    clustered by k-means with k equal to the class count; the median over
    the k-means seeds is reported for both scores. Every seed's partition is
    scored by one `silhouette` call, which computes the distances once.
    The k-means and silhouette seconds go to `timing` (`kmeans_s`, `silhouette_s`).
    Codes so large (or non-finite) that their squared distances, or
    k-means++'s sum of them, would overflow are a DataError.
    """
    if dataset.task != "classification":
        raise DataError("representation quality is defined for classification")
    dataset.require_rows("test")
    rows = dataset.indices("test")
    gold = dataset.targets[rows]
    if gold.size < dataset.num_classes:
        raise DataError(f"the test split has {gold.size} rows, fewer than the "
                        f"{dataset.num_classes} clusters of k-means")
    reps = readout(model, dataset, rows, lambda features: encode(model, features))
    # a squared distance of two codes is at most 4 * d * max|code|^2, and
    # k-means++ sums n of them: both must be finite to cluster
    peak, limit = np.abs(reps).max(), np.sqrt(np.finfo(np.float64).max / (4.0 * reps.size))
    if not peak <= limit:
        raise DataError(f"test codes reach {peak:.3g} in magnitude, past the {limit:.3g} "
                        f"whose squared distances stay finite: too large to cluster")
    with timed(timing, "kmeans_s"):
        assigns = np.array([kmeans(reps, dataset.num_classes, seed=seed) for seed in kmeans_seeds])
    with timed(timing, "silhouette_s"):
        scores = silhouette(reps, assigns)
    per_seed = [{"seed": seed, "silhouette": float(score), "ari": adjusted_rand_index(assign, gold)}
                for seed, assign, score in zip(kmeans_seeds, assigns, scores)]
    return {
        "silhouette_median": float(np.median([r["silhouette"] for r in per_seed])),
        "ari_median": float(np.median([r["ari"] for r in per_seed])),
        "per_seed": per_seed,
    }


def _flatten(params: list[Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """Move `params` into one contiguous vector. Returns it, and a zeroed
    gradient vector of the same layout; each parameter's `.values` and
    `.grad` become reshaped views of the two."""
    flat = np.concatenate([p.values.ravel() for p in params])
    grad = np.zeros_like(flat)
    start = 0
    for p in params:
        end, shape = start + p.values.size, p.values.shape
        p.values = flat[start:end].reshape(shape)
        p.grad = grad[start:end].reshape(shape)
        start = end
    return flat, grad


# every non-finite value of a run is a divergence that the loop detects and
# reports, so numpy's floating-point warnings would only repeat it on stderr
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(dataset: Dataset, cfg: TrainConfig, seed: int) -> RunReport:
    """Train one model; returns a report reproducible byte-for-byte from
    (dataset, cfg, seed).

    Validation is scored every epoch with the task's headline metric; the
    best parameters are kept and training stops once `patience` epochs pass
    without improvement. On divergence (a non-finite loss, gradient or
    validation score) the best checkpoint so far is restored and the report
    is flagged. The reported validation scores are the kept epoch's, not
    computed again; a run that kept no epoch is scored at its initial
    parameters. An empty train, val or test split, a regression val or test
    split whose targets are all equal (its correlations are undefined), or
    a dataset whose task is not the objective's, is a DataError, raised
    before any work.

    The model's tensors and their gradients are views of two flat vectors
    (see `_flatten`): a step zeroes the gradient vector once, and one
    `adamax_step` updates the whole vector, or returns False on a non-finite
    gradient, which ends the run as diverged. The returned model's tensors
    stay views of the flat vector, with no gradient.
    """
    dataset.require_rows("train", "val", "test")
    if dataset.task != cfg.objective.task:
        raise DataError(f"a {dataset.task} dataset cannot train the "
                        f"{cfg.objective.kind} objective, a {cfg.objective.task} one")
    for split in ("val", "test") if dataset.task == "regression" else ():
        targets = dataset.targets[dataset.indices(split)]
        if targets.min() == targets.max():
            raise DataError(f"every {split!r} target is {targets[0]:g}; a correlation "
                            f"needs two distinct values")
    rng = np.random.default_rng(seed)
    model = build_model(dataset, cfg, rng)
    params = model.parameters()
    flat, flat_grad = _flatten(params)
    state = AdamaxState(m=np.zeros_like(flat), u=np.zeros_like(flat))
    metric_name = cfg.headline_metric()

    train_rows = dataset.indices("train")

    dataset_info = {"task": dataset.task, "num_classes": dataset.num_classes,
                    "num_features": dataset.num_features, "label_names": list(dataset.label_names)}
    report = RunReport(config=dataclasses.asdict(cfg), seed=seed, dataset_info=dataset_info,
                       headline_metric=metric_name)
    best_value = -np.inf
    best_state = flat.copy()
    best_epoch = 0
    best_val = None
    step = 0

    for epoch in range(1, cfg.epochs + 1):
        report.epochs_ran = epoch
        perm = rng.permutation(train_rows.size)
        epoch_totals = []
        for start in range(0, train_rows.size, cfg.batch_size):
            idx = train_rows[perm[start:start + cfg.batch_size]]
            draw = rng.standard_normal((idx.size, model.latent_dim))
            eps = np.zeros_like(draw) if cfg.zero_eps else draw
            mask = None
            if cfg.dropout > 0.0:
                keep = rng.random((idx.size, cfg.hidden_dim)) >= cfg.dropout
                mask = keep / (1.0 - cfg.dropout)
            with Tape() as tape:
                terms = batch_loss(model, dataset.features[idx], dataset.targets[idx],
                                   cfg.objective, eps, mask)
            total = terms.total_value
            step += 1
            report.step_logs.append({
                "step": step, "epoch": epoch, "nll": terms.nll, "kl": terms.kl,
                "batch_entropy": terms.batch_entropy, "penalty": terms.penalty,
                "total": total,
            })
            if not math.isfinite(total):
                report.diverged = True
                break
            flat_grad.fill(0.0)
            backward(terms.total, tape)
            if not adamax_step(flat, flat_grad, state,
                               lr=cfg.learning_rate, weight_decay=cfg.weight_decay):
                report.diverged = True
                break
            epoch_totals.append(total)
        if report.diverged:
            break
        val = evaluate_split(model, dataset, "val")
        value = val[metric_name]
        report.epoch_logs.append({"epoch": epoch, "train_total": float(np.mean(epoch_totals)),
                                  "val_metric": value})
        if not np.isfinite(value):
            report.diverged = True
            break
        if value > best_value:
            best_value = value
            best_state = flat.copy()
            best_epoch = epoch
            best_val = val
        if epoch - best_epoch >= cfg.patience:
            break

    flat[:] = best_state
    for p in params:  # the returned model holds no views of the gradient buffer
        p.grad = None
    report.best_epoch = best_epoch
    # the restored parameters are the kept epoch's, so its val scores stand
    if best_val is None:
        best_val = evaluate_split(model, dataset, "val")
    report.val_metrics = best_val
    report.test_metrics = evaluate_split(model, dataset, "test")
    report.model = model
    return report


def train_jobs(jobs: Iterable[tuple[Dataset, TrainConfig, int]]) -> list[RunReport]:
    """`train(dataset, cfg, seed)` of each job, in order: the one loop over runs.
    A job is dropped once trained, so a generator of jobs holds one dataset."""
    return list(itertools.starmap(train, jobs))


def mean_std(prefix: str, values: list[float]) -> dict:
    return {f"{prefix}mean": float(np.mean(values)), f"{prefix}std": float(np.std(values))}


def summarize(reports: list[RunReport]) -> dict:
    values = [r.headline_value for r in reports]
    return {
        "metric": reports[0].headline_metric,
        **mean_std("", values),
        "values": [float(v) for v in values],
        "seeds": [r.seed for r in reports],
        "diverged": sum(r.diverged for r in reports),
    }


def sweep_cells(cfg: TrainConfig, betas: Sequence[float],
                gammas: Sequence[float]) -> list[tuple[float, float, TrainConfig]]:
    """(beta, gamma, config) of each cell of the betas x gammas grid, in order:
    `cfg` with beta as its kind's first weight in OBJECTIVES and gamma as its
    second (so "ce_cp" sweeps cp_weight over the betas). The grid sets every
    weight: a nonzero weight of `cfg` is a ValueError, as is a grid value the
    kind does not take (one weight takes gammas [0]) or no weight can have."""
    objective = cfg.objective
    names = OBJECTIVES[objective.kind].weights
    given = [f"{name}={getattr(objective, name)}" for name in WEIGHTS if getattr(objective, name)]
    if given:
        raise ValueError(f"a sweep's grid sets every weight, got {', '.join(given)} outside it")
    grids = (("betas", betas), ("gammas", gammas))
    untaken = [grid for grid, values in grids[len(names):] if any(values)]
    if untaken:
        raise ValueError(f"kind {objective.kind!r} takes {len(names)} swept weight(s), "
                         f"so its {' and '.join(untaken)} must be 0")
    for (grid, values), name in zip(grids, names):  # a bad value is named by its grid
        for value in values:
            try:
                dataclasses.replace(objective, **{name: value})
            except ValueError as err:
                raise ValueError(f"{err} in the {grid}") from None
    return [(beta, gamma, dataclasses.replace(cfg, objective=dataclasses.replace(
                objective, **dict(zip(names, (beta, gamma))))))
            for beta in betas for gamma in gammas]


def sweep(dataset: Dataset, cells: Iterable[tuple[float, float, TrainConfig]],
          seeds: Sequence[int]) -> dict:
    """Train each (beta, gamma, config) cell (see `sweep_cells`) over the seeds.
    Returns {"rows", "best_beta", "best_gamma"}: a row per cell with its mean
    validation and test metric and its count of diverged seeds; the best cell
    maximizes the mean validation metric, ties going to the lexicographically
    smaller (beta, gamma)."""
    rows = []
    for beta, gamma, cfg in cells:
        reports = train_jobs((dataset, cfg, seed) for seed in seeds)
        rows.append({
            "beta": beta, "gamma": gamma,
            **mean_std("val_", [r.val_metrics[r.headline_metric] for r in reports]),
            **mean_std("test_", [r.headline_value for r in reports]),
            "diverged": sum(r.diverged for r in reports),
        })
    best = min(rows, key=lambda r: (-r["val_mean"], r["beta"], r["gamma"]))
    return {"rows": rows, "best_beta": best["beta"], "best_gamma": best["gamma"]}


def perturbation_study(dataset: Dataset, configs: Sequence[TrainConfig], ratios: list[float],
                       seeds: Sequence[int], perturb: str) -> list[dict]:
    """config x ratio table (a row names its config's objective kind) under
    the `data` function named `perturb` (dataset, ratio, seed) -> Dataset,
    the ratio in its `data.RATIOS` column. Each cell averages over the seeds;
    the perturbation seed is the run seed, so each seed sees its own
    perturbed train split, and val/test stay intact."""
    row_key = dataio.RATIOS[perturb][0]
    for ratio in ratios:  # a ratio the dataset cannot take fails before any training
        dataio.check_perturbation(perturb, dataset, ratio)
    rows = []
    for cfg in configs:
        for ratio in ratios:
            # looked up here, not at import, so a wrapper installed on the module is used
            perturbed = getattr(dataio, perturb)
            reports = train_jobs((perturbed(dataset, ratio, seed), cfg, seed) for seed in seeds)
            values = [r.headline_value for r in reports]
            rows.append({"objective": cfg.objective.kind, row_key: ratio, **mean_std("", values),
                         "values": [float(v) for v in values],
                         "diverged": sum(r.diverged for r in reports)})
    return rows


def ood_run(source_ds: Dataset, target_ds: Dataset, mapping: dict[str, str],
            cfg: TrainConfig, seeds: Sequence[int]) -> dict:
    """Train on the source domain, evaluate on the mapped target test split.

    Target test rows whose label has no mapping into the source label set
    are excluded from evaluation (their count is reported). Model selection
    happens on the source validation split, exactly as in a plain run.
    """
    if source_ds.task != "classification" or target_ds.task != "classification":
        raise DataError("out-of-domain evaluation is defined for classification")
    if source_ds.num_features != target_ds.num_features:
        raise DataError("source and target feature dimensions differ")
    unknown_sources = sorted(set(mapping.values()) - set(source_ds.label_names))
    if unknown_sources:
        raise DataError(f"mapping uses labels absent from the source dataset: {unknown_sources}")

    test_idx = target_ds.indices("test")
    gold_names = [target_ds.label_names[int(target_ds.targets[i])] for i in test_idx]
    keep = [j for j, name in enumerate(gold_names) if name in mapping]
    if not keep:
        raise DataError("no target test rows are covered by the label mapping")
    source_index = {name: i for i, name in enumerate(source_ds.label_names)}
    mapped = Dataset(features=target_ds.features[test_idx[keep]],
                     targets=np.array([source_index[mapping[gold_names[j]]] for j in keep],
                                      dtype=np.int64),
                     split=np.full(len(keep), "test"), task="classification",
                     num_classes=source_ds.num_classes, label_names=source_ds.label_names)
    per_seed = [{"seed": r.seed,
                 "macro_f1": evaluate_split(r.model, mapped, "test")["macro_f1"],
                 "source_test_macro_f1": r.test_metrics["macro_f1"], "diverged": r.diverged}
                for r in train_jobs((source_ds, cfg, seed) for seed in seeds)]
    return {"metric": "macro_f1", **mean_std("", [r["macro_f1"] for r in per_seed]),
            "per_seed": per_seed, "evaluated_rows": len(keep),
            "excluded_rows": len(gold_names) - len(keep), "mapped_labels": sorted(mapping)}
