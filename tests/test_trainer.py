import dataclasses
import tracemalloc

import numpy as np
import pytest

from spc import metrics, trainer
from spc.data import SPLITS, DataError, Dataset, gen_mixture
from spc.diffcore import Tape
from spc.encoder import encode, forward, init_encoder, init_vib, load_checkpoint, save_checkpoint
from spc.objectives import OBJECTIVES, WEIGHTS, ObjectiveConfig, spc_loss
from spc.trainer import (
    AdamaxState,
    TrainConfig,
    adamax_step,
    batch_loss,
    build_model,
    evaluate_split,
    readout,
    representation_quality,
    summarize,
    sweep,
    sweep_cells,
    train,
    train_jobs,
)


@pytest.fixture(scope="module")
def mixture():
    return gen_mixture(2, 8, 60, 3.0, seed=100)


def small_cfg(objective: ObjectiveConfig, **kw) -> TrainConfig:
    defaults = dict(epochs=8, batch_size=16, learning_rate=1e-2, hidden_dim=16)
    defaults.update(kw)
    defaults.setdefault("patience", min(5, defaults["epochs"]))
    return TrainConfig(objective=objective, **defaults)


def fresh_state(values: np.ndarray) -> AdamaxState:
    return AdamaxState(m=np.zeros_like(values), u=np.zeros_like(values))


class TestAdamax:
    def test_zero_gradient_no_change(self):
        p = np.array([[1.0, -2.0]])
        assert adamax_step(p, np.zeros((1, 2)), fresh_state(p), lr=0.1)
        assert np.array_equal(p, [[1.0, -2.0]])

    def test_first_step_is_signed_lr(self):
        p = np.array([[1.0, -2.0, 0.5]])
        g = np.array([[0.3, -0.7, 2.0]])
        before = p.copy()
        adamax_step(p, g, fresh_state(p), lr=0.05)
        # m/(u+eps) ~= sign(g) on the first step
        assert np.allclose(before - p, 0.05 * np.sign(g), rtol=1e-6)

    def test_quadratic_convergence(self):
        # matches a direct simulation (and torch.optim.Adamax) from p0 = 1
        p = np.array(1.0)
        state = fresh_state(p)
        for _ in range(200):
            adamax_step(p, 2.0 * p, state, lr=0.05)
        assert abs(float(p)) < 1e-3

    def test_non_finite_gradient_aborts(self):
        # the step returns False and leaves the values and all of the state as they were
        rng = np.random.default_rng(4)
        p = rng.standard_normal(3)
        state = fresh_state(p)
        assert adamax_step(p, rng.standard_normal(3), state, lr=0.1, weight_decay=0.1)
        before = [a.tobytes() for a in (p, state.m, state.u)]
        for bad in (np.nan, np.inf, -np.inf):
            assert adamax_step(p, np.array([0.5, bad, -0.5]), state,
                               lr=0.1, weight_decay=0.1) is False
            assert [a.tobytes() for a in (p, state.m, state.u)] == before
            assert state.t == 1

    def test_a_zero_length_vector_takes_the_step(self):
        p = np.zeros(0)
        state = fresh_state(p)
        assert adamax_step(p, np.zeros(0), state, lr=0.1, weight_decay=0.1) is True
        assert state.t == 1 and p.shape == (0,)

    def test_decoupled_decay_shrinks_before_update(self):
        p = np.array([10.0])
        adamax_step(p, np.zeros(1), fresh_state(p), lr=0.1, weight_decay=0.01)
        assert np.allclose(p, 10.0 * (1 - 0.1 * 0.01))

    def test_flat_step_equals_per_tensor_steps(self):
        # a matrix, a 1xH bias and a scalar, updated apart and as one flat vector
        rng = np.random.default_rng(3)
        shapes = [(4, 3), (1, 3), ()]
        apart = [rng.standard_normal(shape) for shape in shapes]
        flat = np.concatenate([p.ravel() for p in apart])
        apart_states, flat_state = [fresh_state(p) for p in apart], fresh_state(flat)
        for _ in range(5):
            grads = [rng.standard_normal(shape) for shape in shapes]
            grads[1][0, 0] = 0.0  # a zero gradient entry keeps its u
            for p, g, state in zip(apart, grads, apart_states):
                assert adamax_step(p, g, state, lr=0.05, weight_decay=0.1)
            assert adamax_step(flat, np.concatenate([g.ravel() for g in grads]), flat_state,
                               lr=0.05, weight_decay=0.1)
        joined = np.concatenate([p.ravel() for p in apart])
        assert joined.tobytes() == flat.tobytes()
        for name in ("m", "u"):
            assert (np.concatenate([getattr(s, name).ravel() for s in apart_states]).tobytes()
                    == getattr(flat_state, name).tobytes())

    @staticmethod
    def step_with_temporaries(values, grad, state, lr, weight_decay):
        """The update as one expression per line, each building its temporaries."""
        state.t += 1
        if weight_decay != 0.0:
            values *= 1.0 - lr * weight_decay
        state.m *= 0.9
        state.m += (1.0 - 0.9) * grad
        np.maximum(0.999 * state.u, np.abs(grad), out=state.u)
        values -= (lr / (1.0 - 0.9 ** state.t)) * state.m / (state.u + 1e-8)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_bits_equal_the_update_with_temporaries(self, weight_decay):
        rng = np.random.default_rng(17)
        values = rng.standard_normal(1000)
        expected = values.copy()
        state, expected_state = fresh_state(values), fresh_state(values)
        for step in range(60):
            grad = rng.standard_normal(1000) * 10.0 ** (step % 9 - 6)
            grad[::7] = 0.0
            assert adamax_step(values, grad, state, lr=0.01, weight_decay=weight_decay)
            self.step_with_temporaries(expected, grad, expected_state, 0.01, weight_decay)
        for got, want in ((values, expected), (state.m, expected_state.m),
                          (state.u, expected_state.u)):
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def one_step_peak(bad_entry=None) -> tuple[bool, int]:
        """What one step on 100,000 parameters returns, and tracemalloc's peak
        over it; `bad_entry` replaces one gradient entry."""
        rng = np.random.default_rng(18)
        values = rng.standard_normal(100_000)
        state = fresh_state(values)
        grad = rng.standard_normal(values.size)
        if bad_entry is not None:
            grad[54_321] = bad_entry
        tracemalloc.start()
        try:
            taken = adamax_step(values, grad, state, lr=0.01, weight_decay=0.1)
            return taken, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_step_allocates_no_parameter_sized_vector(self):
        # the finiteness check writes into state.scratch too, so a step peaks
        # below even one bool per parameter
        taken, peak = self.one_step_peak()
        assert taken and peak < 100_000

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_a_refused_step_allocates_no_vector(self, bad):
        taken, peak = self.one_step_peak(bad)
        assert taken is False and peak < 100_000


def one_batch(kind: str, weights: dict[str, float], hidden: int):
    """A model, batch and objective of `kind`, taking the `weights` it accepts."""
    spec = OBJECTIVES[kind]
    objective = ObjectiveConfig(kind=kind, **{name: value for name, value in weights.items()
                                              if name in spec.weights})
    rng = np.random.default_rng(60)
    out_dim = 3 if spec.task == "classification" else 1
    model = (init_vib(4, hidden, 2, out_dim, rng=rng) if spec.decoder
             else init_encoder(4, hidden, out_dim, rng=rng))
    x = rng.normal(size=(5, 4))
    y = rng.integers(0, 3, size=5) if spec.task == "classification" else rng.normal(size=5)
    return model, x, y, objective, rng.standard_normal((5, model.latent_dim))


class TestBatchLoss:
    @pytest.mark.parametrize("kind", list(OBJECTIVES))
    def test_terms_recompose_the_total(self, kind):
        # every weight the kind takes is nonzero, so each of its terms is computed
        model, x, y, objective, eps = one_batch(
            kind, {"beta": 0.3, "gamma": 0.7, "cp_weight": 0.5}, hidden=6)
        terms = batch_loss(model, x, y, objective, eps)
        recomposed = (terms.nll + objective.beta * terms.kl
                      - objective.gamma * terms.batch_entropy
                      + objective.cp_weight * terms.penalty)
        assert abs(terms.total_value - recomposed) < 1e-12
        computed = {"beta": terms.kl, "gamma": terms.batch_entropy, "cp_weight": terms.penalty}
        for name, value in computed.items():
            assert (value != 0.0) == (name in OBJECTIVES[kind].weights), name

    # a step is one taped op whatever the kind: its backward is hand-written
    # (`spc_loss`'s grads and `encoder.forward`'s backprop), and a change to
    # this count has to be deliberate
    @pytest.mark.parametrize("kind", list(OBJECTIVES))
    def test_taped_ops_per_step(self, kind):
        model, x, y, objective, eps = one_batch(kind, dict.fromkeys(WEIGHTS, 0.1), hidden=8)
        with Tape() as tape:
            batch_loss(model, x, y, objective, eps)
        assert len(tape) == 1


class TestTrainLoop:
    def test_separable_reaches_high_f1(self, mixture):
        sep = gen_mixture(2, 8, 80, 10.0, seed=101)
        report = train(sep, small_cfg(ObjectiveConfig(kind="ce"), epochs=20), seed=0)
        assert report.test_metrics["macro_f1"] > 0.99

    def test_patience_stops_constant_validation(self, mixture):
        # lr = 0 freezes the model, so the validation metric never improves
        cfg = small_cfg(ObjectiveConfig(kind="ce"), epochs=20, learning_rate=0.0,
                        patience=5)
        report = train(mixture, cfg, seed=0)
        assert report.best_epoch == 1
        assert report.epochs_ran == 6  # patience + 1

    def test_determinism_same_seed_same_hash(self, mixture):
        cfg = small_cfg(ObjectiveConfig(kind="spc", beta=0.1, gamma=0.1))
        a = train(mixture, cfg, seed=3)
        b = train(mixture, cfg, seed=3)
        assert a.run_hash() == b.run_hash()
        # the model object is not a result: changing it keeps the hash
        other = dataclasses.replace(a, model=b.model)
        assert other.model is not a.model and other.run_hash() == a.run_hash()

    def test_different_seeds_differ(self, mixture):
        cfg = small_cfg(ObjectiveConfig(kind="spc", beta=0.1, gamma=0.1))
        assert train(mixture, cfg, seed=0).run_hash() != train(mixture, cfg, seed=1).run_hash()

    def test_loss_term_identity_every_step(self, mixture):
        beta, gamma = 0.05, 0.8
        cfg = small_cfg(ObjectiveConfig(kind="spc", beta=beta, gamma=gamma))
        report = train(mixture, cfg, seed=2)
        assert report.step_logs
        for entry in report.step_logs:
            recomposed = (entry["nll"] + beta * entry["kl"]
                          - gamma * entry["batch_entropy"])
            assert abs(entry["total"] - recomposed) < 1e-12

    def test_requires_train_and_val(self, mixture):
        broken = dataclasses.replace(
            mixture, split=np.array(["train"] * mixture.num_rows))
        with pytest.raises(ValueError):
            train(broken, small_cfg(ObjectiveConfig(kind="ce")), seed=0)

    @pytest.mark.parametrize("task, empty", [
        *(pytest.param("classification", split, id=split) for split in SPLITS),
        # a regression split needs two rows: a correlation of one is undefined
        *(pytest.param("regression", split, id=f"regression-one-{split}") for split in SPLITS),
    ])
    def test_empty_split_is_a_data_error(self, mixture, task, empty):
        other = "val" if empty == "train" else "train"
        split = mixture.split.copy()
        split[np.flatnonzero(split == empty)[0 if task == "classification" else 1:]] = other
        if task == "classification":
            broken, kind = dataclasses.replace(mixture, split=split), "ce"
        else:
            broken = Dataset(features=mixture.features, split=split, task="regression",
                             targets=mixture.targets.astype(np.float64))
            kind = "mse"
        with pytest.raises(DataError, match=empty):
            train(broken, small_cfg(ObjectiveConfig(kind=kind)), seed=0)

    @pytest.mark.parametrize("task, kind", [("regression", "spc"), ("classification", "mse")])
    def test_a_dataset_of_the_other_task_is_a_data_error(self, mixture, task, kind, monkeypatch):
        ds = mixture if task == "classification" else dataclasses.replace(
            mixture, task="regression", targets=mixture.targets.astype(np.float64))
        monkeypatch.setattr(trainer, "build_model", lambda *args: pytest.fail("a model was built"))
        other = ObjectiveConfig(kind=kind).task
        with pytest.raises(DataError, match=f"^a {task} dataset cannot train the {kind} "
                                            f"objective, a {other} one$"):
            train(ds, small_cfg(ObjectiveConfig(kind=kind)), seed=0)

    def test_divergence_aborts_with_checkpoint(self):
        # Adamax steps are magnitude-bounded by lr, so overflow needs an
        # absurd rate plus a squared loss
        rng = np.random.default_rng(103)
        ds = Dataset(features=rng.normal(size=(40, 3)), targets=rng.normal(size=40),
                     split=np.array(["train"] * 20 + ["val"] * 10 + ["test"] * 10),
                     task="regression")
        cfg = small_cfg(ObjectiveConfig(kind="mse"),
                        learning_rate=1e200, epochs=5)
        with np.errstate(all="ignore"):
            report = train(ds, cfg, seed=0)
        assert report.diverged
        assert np.all(np.isfinite(
            np.concatenate([p.values.ravel() for p in report.model.parameters()])))

    def test_best_epoch_is_argmax_of_val(self, mixture):
        cfg = small_cfg(ObjectiveConfig(kind="spc", beta=0.1, gamma=0.1), epochs=10)
        report = train(mixture, cfg, seed=5)
        values = [e["val_metric"] for e in report.epoch_logs]
        first_best = 1 + int(np.argmax(values))
        assert report.best_epoch == first_best

    def test_val_metrics_are_the_kept_epochs(self, mixture, monkeypatch):
        # one val readout per epoch and one test readout, none after training
        calls = []

        def counted(model, dataset, split):
            calls.append(split)
            return evaluate_split(model, dataset, split)

        monkeypatch.setattr(trainer, "evaluate_split", counted)
        report = train(mixture, small_cfg(ObjectiveConfig(kind="spc", beta=0.1, gamma=0.1),
                                          epochs=6), seed=2)
        assert calls == ["val"] * report.epochs_ran + ["test"]
        assert report.val_metrics == evaluate_split(report.model, mixture, "val")
        best = report.epoch_logs[report.best_epoch - 1]["val_metric"]
        assert report.val_metrics["macro_f1"] == best

    def test_a_run_that_kept_no_epoch_is_scored_at_its_start(self, mixture, monkeypatch):
        monkeypatch.setattr(trainer, "adamax_step", lambda *args, **kw: False)
        cfg = small_cfg(ObjectiveConfig(kind="spc", beta=0.1, gamma=0.1))
        report = train(mixture, cfg, seed=2)
        assert report.diverged and report.best_epoch == 0 and not report.epoch_logs
        start = build_model(mixture, cfg, np.random.default_rng(2))
        assert report.val_metrics == evaluate_split(start, mixture, "val")
        assert report.test_metrics == evaluate_split(start, mixture, "test")


def readout_case(kind: str, layer_norm: bool = False):
    """A model of `kind` (built as training builds it) and a dataset of its
    task, with 45 test rows."""
    task = OBJECTIVES[kind].task
    rng = np.random.default_rng(21)
    features = rng.standard_normal((90, 6))
    targets = (rng.integers(0, 3, 90) if task == "classification"
               else features @ rng.standard_normal(6))
    dataset = Dataset(features=features, targets=targets, task=task,
                      split=np.array(["train", "test"] * 45),
                      num_classes=3 if task == "classification" else 0)
    cfg = TrainConfig(objective=ObjectiveConfig(kind=kind), hidden_dim=12, vib_latent_dim=5,
                      layer_norm=layer_norm)
    return build_model(dataset, cfg, rng), dataset


def mean_codes(model):
    return lambda features: encode(model, features)


def logits(model):
    """The readout `evaluate_split` scores: the decoded mean codes."""
    return lambda features: forward(model, features, None)[2]


READOUT_CASES = [pytest.param(kind, layer_norm, id=f"{kind}{'-layer-norm' * layer_norm}")
                 for kind in OBJECTIVES for layer_norm in (False, True)]


class TestReadout:
    """Every split readout runs in row blocks of EVAL_BLOCK_ELEMENTS // (widest
    layer) rows, each gathered by index."""

    @pytest.mark.parametrize("kind, layer_norm", READOUT_CASES)
    def test_one_block_is_one_call_on_the_whole_split(self, kind, layer_norm):
        model, dataset = readout_case(kind, layer_norm)
        rows = dataset.indices("test")
        whole = dataset.features[rows]
        for fn in (logits(model), mean_codes(model)):
            seen = []

            def recorded(features, fn=fn):
                seen.append(features)
                return fn(features)

            out = readout(model, dataset, rows, recorded)
            assert len(seen) == 1 and seen[0].tobytes() == whole.tobytes()
            assert out.tobytes() == fn(whole).tobytes()

    @pytest.mark.parametrize("kind, layer_norm", READOUT_CASES)
    def test_the_step_scores_the_readout(self, kind, layer_norm):
        # with eps = 0 and no dropout, a training step's sampled forward gives
        # the readout's output byte for byte, so a step scores what a readout reads
        model, dataset = readout_case(kind, layer_norm)
        rows = dataset.indices("test")
        features, targets = dataset.features[rows], dataset.targets[rows]
        eps = np.zeros((rows.size, model.latent_dim))
        readout_out = logits(model)(features)
        assert forward(model, features, eps)[2].tobytes() == readout_out.tobytes()
        step = batch_loss(model, features, targets, ObjectiveConfig(kind=kind), eps)
        plain = ObjectiveConfig(kind="ce" if dataset.task == "classification" else "mse")
        readout_terms, _ = spc_loss(readout_out, None, None, targets, plain)
        assert step.nll == readout_terms.nll

    @pytest.mark.parametrize("kind, layer_norm", READOUT_CASES)
    def test_many_blocks_agree_with_one_call(self, kind, layer_norm, monkeypatch):
        model, dataset = readout_case(kind, layer_norm)
        rows = dataset.indices("test")
        single = evaluate_split(model, dataset, "test")
        whole = [fn(dataset.features[rows]) for fn in
                 (logits(model), mean_codes(model))]
        widest = max(max(t.values.shape) for t in model.parameters())
        monkeypatch.setattr(trainer, "EVAL_BLOCK_ELEMENTS", 7 * widest)  # 7 rows a block
        sizes = []

        def recorded(fn):
            def block(features):
                sizes.append(len(features))
                return fn(features)
            return block

        outs = [readout(model, dataset, rows, recorded(fn)) for fn in
                (logits(model), mean_codes(model))]
        assert sizes == 2 * ([7] * 6 + [3])  # 45 rows, twice
        for out, want in zip(outs, whole):
            np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
            assert np.array_equal(out.argmax(axis=1), want.argmax(axis=1))
        blocked = evaluate_split(model, dataset, "test")
        if dataset.task == "classification":
            assert blocked == single
        else:
            assert blocked == pytest.approx(single, rel=0, abs=1e-12)

    @staticmethod
    def peak_bytes(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("vib", [False, True], ids=["encoder", "vib"])
    def test_memory_does_not_grow_with_the_split(self, vib, monkeypatch):
        # 8000 rows at hidden 128: one call builds several 8000 x 128 float64
        # activations (8 MB each); a block of 512 rows builds 512 KB ones. The
        # one-call control reads 16000 rows, so that its peak stays above
        # twice the bound however few activations a call keeps alive at once
        rng = np.random.default_rng(22)

        def split_of(n):
            return Dataset(features=rng.standard_normal((n, 16)), targets=rng.integers(0, 4, n),
                           split=np.full(n, "test"), task="classification", num_classes=4)

        dataset, control = split_of(8000), split_of(16000)
        model = (init_vib(16, 128, 8, 4, rng=1, use_layer_norm=True) if vib
                 else init_encoder(16, 128, 4, rng=1))
        # silhouette bounds its own memory (test_metrics); stubbed here, the
        # readout sets the peak
        monkeypatch.setattr(trainer, "silhouette", lambda points, assigns: np.zeros(len(assigns)))
        bound = 6 * 2**20
        for readout_fn in (lambda split: evaluate_split(model, split, "test"),
                           lambda split: representation_quality(model, split, [0], {})):
            assert self.peak_bytes(lambda: readout_fn(dataset)) < bound
            with monkeypatch.context() as one_call:
                one_call.setattr(trainer, "EVAL_BLOCK_ELEMENTS", 1 << 40)
                assert self.peak_bytes(lambda: readout_fn(control)) > 2 * bound


class TestAblationIdentities:
    def test_spc_all_zero_matches_ce_bitwise(self, mixture):
        ce_cfg = small_cfg(ObjectiveConfig(kind="ce"))
        spc_cfg = small_cfg(ObjectiveConfig(kind="spc", beta=0.0, gamma=0.0),
                            zero_eps=True)
        ce_report = train(mixture, ce_cfg, seed=7)
        spc_report = train(mixture, spc_cfg, seed=7)
        for p_ce, p_spc in zip(ce_report.model.parameters(), spc_report.model.parameters()):
            assert np.array_equal(p_ce.values, p_spc.values)
        ce_steps = [e["total"] for e in ce_report.step_logs]
        spc_steps = [e["total"] for e in spc_report.step_logs]
        assert ce_steps == spc_steps
        assert ce_report.test_metrics == spc_report.test_metrics

    def test_gamma_zero_matches_pc_exactly(self, mixture):
        pc_cfg = small_cfg(ObjectiveConfig(kind="pc", beta=0.1))
        spc_cfg = small_cfg(ObjectiveConfig(kind="spc", beta=0.1, gamma=0.0))
        pc_report = train(mixture, pc_cfg, seed=8)
        spc_report = train(mixture, spc_cfg, seed=8)
        pc_steps = [e["total"] for e in pc_report.step_logs]
        spc_steps = [e["total"] for e in spc_report.step_logs]
        assert pc_steps == spc_steps


class TestConfigValidation:
    def test_patience_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(objective=ObjectiveConfig(kind="ce"), epochs=3, patience=5)

    def test_batch_size_minimum(self):
        with pytest.raises(ValueError):
            TrainConfig(objective=ObjectiveConfig(kind="ce"), batch_size=1)

    def test_headline_metric_auto(self):
        clf = TrainConfig(objective=ObjectiveConfig(kind="ce"))
        reg = TrainConfig(objective=ObjectiveConfig(kind="mse"))
        assert clf.headline_metric() == "macro_f1"
        assert reg.headline_metric() == "spearman"


class TestRegressionTraining:
    def test_mse_pc_learns_linear_target(self):
        rng = np.random.default_rng(102)
        n = 300
        features = rng.normal(size=(n, 4))
        w = np.array([1.0, -2.0, 0.5, 0.0])
        targets = features @ w + 0.05 * rng.normal(size=n)
        split = np.array(["train"] * 180 + ["val"] * 60 + ["test"] * 60)
        ds = Dataset(features=features, targets=targets, split=split, task="regression")
        cfg = small_cfg(ObjectiveConfig(kind="mse_pc", beta=0.001),
                        epochs=30, learning_rate=2e-2)
        report = train(ds, cfg, seed=0)
        assert report.test_metrics["spearman"] > 0.9
        assert report.test_metrics["pearson"] > 0.9


class TestSweep:
    def test_single_cell_equals_train(self, mixture):
        cfg = small_cfg(ObjectiveConfig(kind="spc", beta=0.1, gamma=0.1))
        result = sweep(mixture, [(0.1, 0.1, cfg)], seeds=(0, 1))
        assert len(result["rows"]) == 1
        reports = train_jobs((mixture, cfg, seed) for seed in (0, 1))
        expected = float(np.mean([r.headline_value for r in reports]))
        assert result["rows"][0]["test_mean"] == pytest.approx(expected, abs=1e-15)

    def test_a_cell_the_kind_cannot_take_fails_before_any_run(self, mixture, monkeypatch):
        def no_train(*args):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(trainer, "train", no_train)
        with pytest.raises(ValueError, match="kind 'pc' takes 1 swept weight"):
            sweep(mixture, sweep_cells(small_cfg(ObjectiveConfig(kind="pc")), betas=[0.1, 0.2],
                                       gammas=[0.0, 0.5]), seeds=[0, 1])

    @pytest.mark.parametrize("weights", [{"beta": 0.5}, {"gamma": 0.5}])
    def test_a_nonzero_base_weight_is_refused(self, mixture, monkeypatch, weights):
        # the grid sets every weight: a base weight would be replaced unread
        def no_train(*args):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(trainer, "train", no_train)
        name, value = next(iter(weights.items()))
        with pytest.raises(ValueError, match=f"grid sets every weight, got {name}={value}"):
            sweep(mixture, sweep_cells(small_cfg(ObjectiveConfig(kind="spc", **weights)),
                                       betas=[0.1], gammas=[0.1]), seeds=[0])

    @pytest.mark.parametrize("betas, gammas, name", [([0.1, -1.0], [0.0], "beta"),
                                                     ([0.1], [np.inf], "gamma")])
    def test_a_grid_value_out_of_range_is_refused(self, betas, gammas, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
            sweep_cells(small_cfg(ObjectiveConfig(kind="spc")), betas, gammas)

    def test_cells_follow_the_grid_order(self):
        cells = sweep_cells(small_cfg(ObjectiveConfig(kind="spc")), [0.1, 1.0], [0.0, 0.5])
        assert [(beta, gamma) for beta, gamma, _ in cells] == [
            (0.1, 0.0), (0.1, 0.5), (1.0, 0.0), (1.0, 0.5)]
        assert [(cfg.objective.beta, cfg.objective.gamma) for _, _, cfg in cells] == [
            (0.1, 0.0), (0.1, 0.5), (1.0, 0.0), (1.0, 0.5)]

    def test_grid_cardinality(self, mixture):
        cfg = small_cfg(ObjectiveConfig(kind="spc"), epochs=2)
        result = sweep(mixture, sweep_cells(cfg, betas=[0.01, 0.1], gammas=[0.0, 0.1, 1.0]),
                       seeds=(0,))
        assert len(result["rows"]) == 6

    def test_full_grid_emits_25_rows(self, mixture):
        grid = [0.001, 0.01, 0.1, 1.0, 10.0]
        cfg = small_cfg(ObjectiveConfig(kind="spc"), epochs=1, patience=1)
        result = sweep(mixture, sweep_cells(cfg, betas=grid, gammas=grid), seeds=(0,))
        assert len(result["rows"]) == 25
        assert result["best_beta"] in grid and result["best_gamma"] in grid

    def test_ce_cp_sweeps_penalty_weight(self, mixture):
        cfg = small_cfg(ObjectiveConfig(kind="ce_cp"), epochs=2)
        result = sweep(mixture, sweep_cells(cfg, betas=[0.01, 0.1], gammas=[0.0]), seeds=(0,))
        assert len(result["rows"]) == 2
        # weights land in cp_weight, so the two cells genuinely differ
        reports = [train(mixture, small_cfg(ObjectiveConfig(kind="ce_cp", cp_weight=w),
                                            epochs=2), seed=0) for w in (0.01, 0.1)]
        assert result["rows"][0]["val_mean"] == pytest.approx(
            reports[0].val_metrics["macro_f1"], abs=1e-15)

    def test_best_matches_table_recomputation(self, mixture):
        cfg = small_cfg(ObjectiveConfig(kind="spc"), epochs=3)
        result = sweep(mixture, sweep_cells(cfg, betas=[0.01, 0.1], gammas=[0.01, 0.1]),
                       seeds=(0, 1))
        best_val = max(r["val_mean"] for r in result["rows"])
        candidates = sorted((r["beta"], r["gamma"]) for r in result["rows"]
                            if r["val_mean"] == best_val)
        assert (result["best_beta"], result["best_gamma"]) == candidates[0]


class TestModelIO:
    def test_save_load_round_trip(self, mixture, tmp_path):
        cfg = small_cfg(ObjectiveConfig(kind="spc", beta=0.1, gamma=0.1), epochs=2)
        report = train(mixture, cfg, seed=0)
        path = str(tmp_path / "model.json")
        save_checkpoint(path, report.model)
        restored = load_checkpoint(path)
        for a, b in zip(report.model.parameters(), restored.parameters()):
            assert np.array_equal(a.values, b.values)

    def test_vib_build_and_save(self, mixture, tmp_path):
        cfg = small_cfg(ObjectiveConfig(kind="vib", beta=0.01), epochs=2)
        report = train(mixture, cfg, seed=0)
        path = str(tmp_path / "vib.json")
        save_checkpoint(path, report.model)
        restored = load_checkpoint(path)
        assert restored.latent_dim == cfg.vib_latent_dim

    def test_summarize(self, mixture):
        cfg = small_cfg(ObjectiveConfig(kind="ce"), epochs=2)
        reports = train_jobs((mixture, cfg, seed) for seed in (0, 1, 2))
        summary = summarize(reports)
        assert summary["metric"] == "macro_f1"
        assert len(summary["values"]) == 3
        assert summary["mean"] == pytest.approx(np.mean(summary["values"]))


class TestRepresentationQuality:
    def test_one_silhouette_call_scores_every_seed(self, monkeypatch):
        dataset = gen_mixture(3, 6, 40, 2.0, seed=101)
        model = init_encoder(6, 8, 3, rng=5)
        seeds = [0, 1, 2, 7, 11]
        rows = dataset.indices("test")
        reps = encode(model, dataset.features[rows])
        gold = dataset.targets[rows]
        per_seed_loop = []
        for seed in seeds:
            assign = metrics.kmeans(reps, 3, seed=seed)
            per_seed_loop.append({"seed": seed, "silhouette": metrics.silhouette(reps, assign),
                                  "ari": metrics.adjusted_rand_index(assign, gold)})
        shapes = []

        def counted(points, assignments):
            shapes.append(np.shape(assignments))
            return metrics.silhouette(points, assignments)

        monkeypatch.setattr(trainer, "silhouette", counted)
        timing = {}
        results = representation_quality(model, dataset, seeds, timing)
        assert shapes == [(5, gold.size)]
        assert results["per_seed"] == per_seed_loop
        assert results["silhouette_median"] == np.median([r["silhouette"] for r in per_seed_loop])
        assert sorted(timing) == ["kmeans_s", "silhouette_s"]
