"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Protocol criteria (7, 8) use a 4-class, 32-dim
Gaussian mixture with 200 points per class at separation 2.2, which puts
the clean cross-entropy baseline in the required macro-F1 band.
"""

import itertools
import json
import math
import os
import pathlib
from contextlib import contextmanager

import numpy as np

from gradcheck import max_grad_rel_err
from test_metrics import (
    brute_ari,
    brute_f1,
    brute_macro_f1,
    brute_macro_recall,
    brute_pearson,
    brute_silhouette,
    brute_spearman,
)

from spc import cli
from spc.data import gen_mixture, inject_label_noise, save
from fused import _batch_entropy, _confidence_penalty
from primitives import (add, clip, exp, layer_norm, log, log_softmax, matmul, mul, reduce_mean,
                        reduce_sum, relu, scale, sub, tanh, xlogx)
from spc.diffcore import Tensor, param
from spc.encoder import forward, init_encoder, init_vib
from spc.metrics import (
    _per_class_stats,
    adjusted_rand_index,
    confusion_matrix,
    pearson,
    silhouette,
    spearman,
)
from spc.objectives import OBJECTIVES, ObjectiveConfig, spc_loss
from spc.trainer import TrainConfig, batch_loss, perturbation_study, train

GRID = [0.001, 0.01, 0.1, 1.0, 10.0]
SEEDS = (0, 1, 2, 3, 4)
MIXTURE_SEPARATION = 2.2


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    print(f"[PASS] criterion {num}: {name}")


def _mixture():
    return gen_mixture(4, 32, 200, MIXTURE_SEPARATION, seed=0)


# --- criterion 1: gradient correctness -------------------------------------

def _op_cases(rng):
    """One random instance per primitive op, reduced to a scalar loss."""
    b, c = 3, 4
    w = Tensor(rng.normal(size=(b, c)))

    def weighted(fn, values):
        x = param(values)
        return lambda: reduce_sum(mul(fn(x), w)), [x]

    away_from = lambda lo, hi, gap: (
        rng.uniform(lo, hi, size=(b, c))
        if gap == 0.0 else np.sign(rng.normal(size=(b, c))) * rng.uniform(gap, 2.0, size=(b, c)))

    cases = {}
    a_m = param(rng.normal(size=(3, 5)))
    b_m = param(rng.normal(size=(5, 4)))
    w_m = Tensor(rng.normal(size=(3, 4)))
    cases["matmul"] = (lambda: reduce_sum(mul(matmul(a_m, b_m), w_m)), [a_m, b_m])

    x1, x2 = param(rng.normal(size=(b, c))), param(rng.normal(size=(b, c)))
    cases["add"] = (lambda: reduce_sum(mul(add(x1, x2), w)), [x1, x2])
    x3, bias = param(rng.normal(size=(b, c))), param(rng.normal(size=(1, c)))
    cases["add_row_bias"] = (lambda: reduce_sum(mul(add(x3, bias), w)), [x3, bias])
    x4, x5 = param(rng.normal(size=(b, c))), param(rng.normal(size=(b, c)))
    cases["sub"] = (lambda: reduce_sum(mul(sub(x4, x5), w)), [x4, x5])
    x6, x7 = param(rng.normal(size=(b, c))), param(rng.normal(size=(b, c)))
    cases["mul"] = (lambda: reduce_sum(mul(mul(x6, x7), w)), [x6, x7])
    x8 = param(rng.normal(size=(b, c)))
    cases["scale"] = (lambda: reduce_sum(mul(scale(x8, -1.7), w)), [x8])

    cases["exp"] = weighted(exp, rng.normal(size=(b, c)))
    cases["log"] = weighted(log, rng.uniform(0.2, 3.0, size=(b, c)))
    cases["tanh"] = weighted(tanh, rng.normal(size=(b, c)))
    cases["relu"] = weighted(relu, away_from(0, 0, 0.05))
    cases["xlogx"] = weighted(xlogx, rng.uniform(0.05, 2.0, size=(b, c)))
    cases["clip"] = weighted(
        lambda t: clip(t, -1.5, 1.5),
        np.where(rng.random((b, c)) < 0.5,
                 rng.uniform(-1.4, 1.4, size=(b, c)),
                 rng.uniform(1.6, 3.0, size=(b, c)) * np.sign(rng.normal(size=(b, c)))))
    cases["log_softmax"] = weighted(log_softmax, rng.normal(size=(b, c)) * 2)
    cases["layer_norm"] = weighted(layer_norm, rng.normal(size=(b, c)))

    x9 = param(rng.normal(size=(b, c)))
    axis = [None, 0, 1][int(rng.integers(3))]
    if axis is None:
        cases["reduce_sum"] = (lambda: reduce_sum(x9), [x9])
    else:
        w_r = Tensor(rng.normal(size=(1, c) if axis == 0 else (b, 1)))
        cases["reduce_sum"] = (lambda: reduce_sum(mul(reduce_sum(x9, axis=axis), w_r)), [x9])
    x10 = param(rng.normal(size=(b, c)))
    w_col = Tensor(rng.normal(size=(b, 1)))
    cases["reduce_mean"] = (lambda: reduce_sum(mul(reduce_mean(x10, axis=1), w_col)), [x10])
    return cases


def _objective_case(kind, rng):
    """Random tiny model + batch for one objective kind, through the training step."""
    d_in, hidden, classes, batch, latent = 5, 6, 4, 3, 3
    out_dim = classes if OBJECTIVES[kind].task == "classification" else 1
    x = rng.normal(size=(batch, d_in))
    if OBJECTIVES[kind].decoder:
        model = init_vib(d_in, hidden, latent, out_dim, rng=rng)
        y = (rng.integers(0, classes, size=batch) if out_dim == classes
             else rng.normal(size=batch))
        eps = rng.standard_normal((batch, latent))
        cfg = ObjectiveConfig(kind=kind, beta=0.2)
        return lambda: batch_loss(model, x, y, cfg, eps).total, model.parameters()
    model = init_encoder(d_in, hidden, out_dim, rng=rng)
    no_eps = np.zeros((batch, out_dim))  # deterministic kinds ignore eps; nothing is drawn
    if kind == "ce":
        y = rng.integers(0, classes, size=batch)
        cfg = ObjectiveConfig(kind="ce")
        return lambda: batch_loss(model, x, y, cfg, no_eps).total, model.parameters()
    if kind == "ce_cp":
        y = rng.integers(0, classes, size=batch)
        cfg = ObjectiveConfig(kind="ce_cp", cp_weight=0.5)
        return lambda: batch_loss(model, x, y, cfg, no_eps).total, model.parameters()
    if kind == "mse":
        y = rng.normal(size=batch)
        cfg = ObjectiveConfig(kind="mse")
        return lambda: batch_loss(model, x, y, cfg, no_eps).total, model.parameters()
    # spc / pc / mse_pc
    y = rng.integers(0, classes, size=batch) if out_dim == classes else rng.normal(size=batch)
    eps = rng.standard_normal((batch, out_dim))
    cfg = (ObjectiveConfig(kind="spc", beta=0.2, gamma=0.3) if kind == "spc"
           else ObjectiveConfig(kind=kind, beta=0.2))
    return lambda: batch_loss(model, x, y, cfg, eps).total, model.parameters()


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness (ops + composite objectives, rel err < 1e-4)"):
        rng = np.random.default_rng(1000)
        n_instances = 100
        worst = {}
        for i in range(n_instances):
            for name, (loss_fn, params) in _op_cases(rng).items():
                err = max_grad_rel_err(loss_fn, params)
                worst[name] = max(worst.get(name, 0.0), err)
        for name, err in worst.items():
            assert err < 1e-4, f"op {name}: rel err {err:.3e}"
        # the first six in their former order, so they see the same instances
        for kind in ("spc", "pc", "ce", "ce_cp", "vib", "mse", "mse_pc", "mse_vib"):
            worst_obj = 0.0
            for i in range(n_instances):
                loss_fn, params = _objective_case(kind, rng)
                worst_obj = max(worst_obj, max_grad_rel_err(loss_fn, params))
            assert worst_obj < 1e-4, f"objective {kind}: rel err {worst_obj:.3e}"


# --- criterion 2: KL closed form vs Monte Carlo ----------------------------

def test_criterion_2_kl_monte_carlo_oracle():
    with criterion(2, "closed-form KL within 1% of 1e6-sample Monte Carlo (20 codes)"):
        rng = np.random.default_rng(2000)
        n = 1_000_000
        for _ in range(20):
            batch, dim = 2, 3
            mu = rng.uniform(0.8, 2.2, size=(batch, dim)) * np.sign(rng.normal(size=(batch, dim)))
            log_var = rng.uniform(-1.5, 1.5, size=(batch, dim))
            # the KL that `spc_loss` reports; the NLL of out = mu is not read
            closed = spc_loss(mu, mu, log_var, np.zeros(batch, dtype=int),
                              ObjectiveConfig(kind="pc", beta=1.0))[0].kl

            total = 0.0
            sigma = np.exp(0.5 * log_var)
            for i in range(batch):
                z = mu[i] + sigma[i] * rng.standard_normal((n, dim))
                log_p = -0.5 * (((z - mu[i]) / sigma[i]) ** 2
                                + log_var[i] + math.log(2 * math.pi)).sum(axis=1)
                log_r = -0.5 * (z ** 2 + math.log(2 * math.pi)).sum(axis=1)
                total += float((log_p - log_r).mean())
            estimate = total / batch
            assert abs(estimate - closed) / abs(closed) < 0.01, \
                f"KL mismatch: closed {closed:.6f} vs MC {estimate:.6f}"


# --- criterion 3: Jensen bound ---------------------------------------------

def test_criterion_3_jensen_bound():
    with criterion(3, "mean row entropy <= batch entropy; equality iff rows identical"):
        rng = np.random.default_rng(3000)
        for i in range(1000):
            b = int(rng.integers(2, 9))
            c = int(rng.integers(2, 7))
            if i % 4 == 0:
                row = rng.uniform(0.01, 1.0, size=(1, c))
                probs = np.repeat(row / row.sum(), b, axis=0).reshape(b, c)
                identical = True
            else:
                raw = rng.uniform(0.01, 1.0, size=(b, c))
                probs = raw / raw.sum(axis=1, keepdims=True)
                identical = bool(np.all(probs == probs[0]))
            lb = float(_batch_entropy(Tensor(probs)).values)
            mean_row = -float(_confidence_penalty(Tensor(probs)).values)
            gap = lb - mean_row
            assert gap >= -1e-12
            if identical:
                assert abs(gap) <= 1e-12
            else:
                assert gap > 1e-12


# --- criterion 4: reparameterization moments -------------------------------

def test_criterion_4_reparameterization_moments():
    with criterion(4, "1e6 reparameterized draws match (mu=1, var=4) within (0.01, 0.05)"):
        n = 1_000_000
        rng = np.random.default_rng(4000)
        # the training forward's draws from a model whose code is (1, log 4) for every x
        model = init_encoder(1, 1, 1, rng=0)
        for t in model.parameters():
            t.values[:] = 0.0
        model.tensors["b_mu"].values[:] = 1.0
        model.tensors["b_lv"].values[:] = math.log(4.0)
        draws = forward(model, np.zeros((n, 1)), rng.standard_normal((n, 1)))[2].ravel()
        assert abs(draws.mean() - 1.0) < 0.01, f"mean {draws.mean():.5f}"
        assert abs(draws.var() - 4.0) < 0.05, f"var {draws.var():.5f}"


# --- criterion 5: ablation identities --------------------------------------

def test_criterion_5_ablation_identities():
    with criterion(5, "SPC(beta=0,gamma=0,eps=0) == CE bitwise; SPC(gamma=0) == PC per step"):
        ds = gen_mixture(3, 8, 60, 2.0, seed=50)
        base = dict(epochs=6, batch_size=16, hidden_dim=16, patience=5)
        ce_rep = train(ds, TrainConfig(objective=ObjectiveConfig(kind="ce"), **base), seed=0)
        spc0_rep = train(ds, TrainConfig(objective=ObjectiveConfig(kind="spc"),
                                         zero_eps=True, **base), seed=0)
        for p_ce, p_spc in zip(ce_rep.model.parameters(), spc0_rep.model.parameters()):
            assert np.array_equal(p_ce.values, p_spc.values), "trajectories diverged"
        assert [e["total"] for e in ce_rep.step_logs] == \
               [e["total"] for e in spc0_rep.step_logs]
        assert ce_rep.test_metrics == spc0_rep.test_metrics

        pc_rep = train(ds, TrainConfig(objective=ObjectiveConfig(kind="pc", beta=0.1),
                                       **base), seed=0)
        spcg0_rep = train(ds, TrainConfig(objective=ObjectiveConfig(kind="spc", beta=0.1,
                                                                    gamma=0.0), **base), seed=0)
        pc_steps = [e["total"] for e in pc_rep.step_logs]
        spc_steps = [e["total"] for e in spcg0_rep.step_logs]
        assert len(pc_steps) == len(spc_steps)
        for a, b in zip(pc_steps, spc_steps):
            assert abs(a - b) <= 1e-12


# --- criterion 6: metric oracles -------------------------------------------

def test_criterion_6_metric_oracles():
    with criterion(6, "all metrics match brute-force implementations to 1e-10 (100 instances)"):
        rng = np.random.default_rng(6000)
        for _ in range(100):
            n = int(rng.integers(4, 31))
            c = int(rng.integers(2, 6))
            gold = rng.integers(0, c, size=n)
            pred = rng.integers(0, c, size=n)
            # the scores `trainer.evaluate_split` reports, by its path
            _, recall, f1 = _per_class_stats(confusion_matrix(gold, pred, c))
            assert abs(f1.mean() - brute_macro_f1(gold.tolist(), pred.tolist(), c)) < 1e-10
            assert abs(recall.mean() - brute_macro_recall(gold.tolist(), pred.tolist(), c)) < 1e-10
            cls = int(rng.integers(0, c))
            assert abs(f1[cls] - brute_f1(gold.tolist(), pred.tolist(), cls)) < 1e-10

            a = rng.normal(size=n)
            b = rng.normal(size=n) + 0.3 * a
            assert abs(pearson(a, b) - brute_pearson(a.tolist(), b.tolist())) < 1e-10
            assert abs(spearman(a, b) - brute_spearman(a.tolist(), b.tolist())) < 1e-10

            points = rng.normal(size=(n, 2))
            assign = rng.integers(0, 3, size=n)
            other = rng.integers(0, 3, size=n)
            if len(set(assign.tolist())) >= 2:
                assert abs(silhouette(points, assign)
                           - brute_silhouette(points.tolist(), assign.tolist())) < 1e-10
            assert abs(adjusted_rand_index(assign, other)
                       - brute_ari(assign.tolist(), other.tolist())) < 1e-10


# --- criterion 7: directional noise robustness ------------------------------

def test_criterion_7_noise_robustness():
    with criterion(7, "at 20% label noise, grid-tuned SPC macro-F1 >= CE - 0.005"):
        ds = _mixture()
        cfg_ce = TrainConfig(objective=ObjectiveConfig(kind="ce"))

        clean_ce = [train(ds, cfg_ce, seed=s).test_metrics["macro_f1"] for s in SEEDS]
        clean_mean = float(np.mean(clean_ce))
        assert 0.75 <= clean_mean <= 0.90, \
            f"separation miscalibrated: clean CE macro-F1 {clean_mean:.4f}"

        def noisy(seed):
            return inject_label_noise(ds, 0.2, seed=seed)

        ce_scores = [train(noisy(s), cfg_ce, seed=s).test_metrics["macro_f1"]
                     for s in SEEDS]
        ce_mean = float(np.mean(ce_scores))

        cells = []
        for beta, gamma in itertools.product(GRID, GRID):
            cfg = TrainConfig(objective=ObjectiveConfig(kind="spc", beta=beta, gamma=gamma))
            reports = [train(noisy(s), cfg, seed=s) for s in SEEDS]
            val = float(np.mean([r.val_metrics["macro_f1"] for r in reports]))
            test = float(np.mean([r.test_metrics["macro_f1"] for r in reports]))
            cells.append((val, beta, gamma, test))
        cells.sort(key=lambda r: (-r[0], r[1], r[2]))
        best_val, best_beta, best_gamma, spc_mean = cells[0]
        print(f"  noisy CE {ce_mean:.4f}; best SPC (beta={best_beta}, gamma={best_gamma}) "
              f"{spc_mean:.4f}")
        assert spc_mean >= ce_mean - 0.005


# --- criterion 8: limited-data trend ----------------------------------------

def test_criterion_8_limited_data_trend():
    with criterion(8, "ratio-study means increase with training size (spearman > 0.8)"):
        ds = _mixture()
        ratios = [0.2, 0.4, 0.6, 0.8, 1.0]
        objectives = [
            cli.make_objective("ce"),
            cli.make_objective("pc", beta=0.01),
            cli.make_objective("spc", beta=0.01, gamma=0.1),
            cli.make_objective("vib", beta=0.01),
        ]
        configs = [TrainConfig(objective=objective) for objective in objectives]
        rows = perturbation_study(ds, configs, ratios, list(SEEDS), "subsample_train")
        for objective in objectives:
            means = [r["mean"] for r in rows if r["objective"] == objective.kind]
            rho = spearman(ratios, means)
            print(f"  {objective.kind}: means {[round(m, 4) for m in means]} "
                  f"spearman {rho:.3f}")
            assert rho > 0.8, f"{objective.kind} not monotone on average"


# --- criterion 9: determinism ------------------------------------------------

def test_criterion_9_manifest_determinism(tmp_path):
    with criterion(9, "re-running a manifest reproduces every number bit-exactly"):
        out = str(tmp_path / "out")
        data_path = str(tmp_path / "mix.jsonl")
        save(gen_mixture(3, 8, 40, 3.0, seed=60), data_path)
        argv = ["train", "--out", out, "--data", data_path, "--objective", "spc",
                "--beta", "0.1", "--gamma", "0.1", "--epochs", "3", "--patience", "3",
                "--batch-size", "16", "--hidden-dim", "16", "--seeds", "2"]
        assert cli.main(list(argv)) == 0
        run_id = [d for d in os.listdir(out)
                  if os.path.isfile(os.path.join(out, d, "manifest.json"))][0]

        def results_bytes():
            with open(os.path.join(out, run_id, "report.json"), encoding="utf-8") as fh:
                return json.dumps(json.load(fh)["results"], sort_keys=True)

        with open(os.path.join(out, run_id, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        first = results_bytes()
        first_ckpts = {
            name: pathlib.Path(out, run_id, "ckpt", name).read_bytes()
            for name in os.listdir(os.path.join(out, run_id, "ckpt"))
        }

        # re-execute the run described by the manifest
        assert manifest["command"] == "train"
        assert cli.main(list(argv)) == 0
        assert results_bytes() == first
        for name, blob in first_ckpts.items():
            assert pathlib.Path(out, run_id, "ckpt", name).read_bytes() == blob
