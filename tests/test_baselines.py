import math

import numpy as np
import pytest

from gradcheck import max_grad_rel_err
from spc.diffcore import Tensor
from spc.encoder import (
    decode,
    encode,
    init_encoder,
    init_vib,
    load_checkpoint,
    sample,
    save_checkpoint,
)
from spc.objectives import ObjectiveConfig, _task_nll, kl_to_std_normal, spc_loss
from spc.trainer import batch_loss

CE = ObjectiveConfig(kind="ce")


def ce_cp(weight: float) -> ObjectiveConfig:
    return ObjectiveConfig(kind="ce_cp", cp_weight=weight)


def no_eps(batch: int, width: int) -> np.ndarray:
    """The eps of a deterministic kind: ignored, so zeros rather than a draw."""
    return np.zeros((batch, width))


class TestCeForward:
    def test_equals_spc_with_zero_everything(self):
        rng = np.random.default_rng(40)
        params = init_encoder(5, 8, 3, rng=rng)
        x = Tensor(rng.normal(size=(6, 5)))
        y = rng.integers(0, 3, size=6)
        ce = batch_loss(params, x, y, CE, no_eps(6, 3))
        code = encode(params, x)
        t = sample(code, np.zeros((6, 3)))
        reduced = spc_loss(code, t, y, ObjectiveConfig(kind="spc", beta=0.0, gamma=0.0))
        assert ce.total_value == reduced.total_value

    def test_uniform_logits_give_log_c(self):
        params = init_encoder(4, 6, 5, rng=41)
        for p in params.parameters():
            p.values[:] = 0.0
        x = Tensor(np.random.default_rng(41).normal(size=(7, 4)))
        y = np.random.default_rng(42).integers(0, 5, size=7)
        assert abs(batch_loss(params, x, y, CE, no_eps(7, 5)).total_value - math.log(5)) < 1e-15

    def test_gradcheck(self):
        rng = np.random.default_rng(43)
        params = init_encoder(4, 5, 3, rng=rng)
        x = Tensor(rng.normal(size=(5, 4)))
        y = rng.integers(0, 3, size=5)
        err = max_grad_rel_err(lambda: batch_loss(params, x, y, CE, no_eps(5, 3)).total,
                               params.parameters())
        assert err < 1e-4


class TestCeCpForward:
    def test_zero_weight_equals_ce(self):
        rng = np.random.default_rng(44)
        params = init_encoder(4, 5, 3, rng=rng)
        x = Tensor(rng.normal(size=(5, 4)))
        y = rng.integers(0, 3, size=5)
        eps = no_eps(5, 3)
        assert (batch_loss(params, x, y, ce_cp(0.0), eps).total_value
                == batch_loss(params, x, y, CE, eps).total_value)

    def test_confident_network_penalty_vanishes(self):
        params = init_encoder(3, 4, 2, rng=45)
        for p in params.parameters():
            p.values[:] = 0.0
        params.tensors["b_mu"].values[:] = np.array([[40.0, -40.0]])  # softmax ~ one-hot
        x = Tensor(np.zeros((4, 3)))
        terms = batch_loss(params, x, np.zeros(4, dtype=int), ce_cp(1.0), no_eps(4, 2))
        assert abs(terms.penalty) < 1e-12

    def test_external_recomputation(self):
        rng = np.random.default_rng(46)
        params = init_encoder(4, 5, 3, rng=rng)
        x = Tensor(rng.normal(size=(6, 4)))
        y = rng.integers(0, 3, size=6)
        w = 0.8
        terms = batch_loss(params, x, y, ce_cp(w), no_eps(6, 3))

        logits = encode(params, x).mu.values
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        nll = -log_probs[np.arange(6), y].mean()
        probs = np.exp(log_probs)
        penalty = (probs * log_probs).sum(axis=1).mean()
        assert abs(terms.total_value - (nll + w * penalty)) < 1e-12

    def test_gradcheck(self):
        rng = np.random.default_rng(47)
        params = init_encoder(4, 5, 3, rng=rng)
        x = Tensor(rng.normal(size=(5, 4)))
        y = rng.integers(0, 3, size=5)
        err = max_grad_rel_err(lambda: batch_loss(params, x, y, ce_cp(0.5), no_eps(5, 3)).total,
                               params.parameters())
        assert err < 1e-4

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ce_cp(-1.0)


class TestVib:
    def _setup(self, seed=49, batch=5, input_dim=4, latent=3, classes=3):
        rng = np.random.default_rng(seed)
        params = init_vib(input_dim, 6, latent, classes, rng=rng)
        x = Tensor(rng.normal(size=(batch, input_dim)))
        y = rng.integers(0, classes, size=batch)
        eps = rng.standard_normal((batch, latent))
        return params, x, y, eps

    def test_beta_zero_eps_zero_is_deterministic_ce(self):
        params, x, y, _ = self._setup()
        terms = batch_loss(params, x, y, ObjectiveConfig(kind="vib"), np.zeros((5, 3)))
        code = encode(params, x)
        logits = decode(params, code.mu)
        assert terms.total_value == float(_task_nll(logits, y).values)

    def test_kl_matches_closed_form(self):
        params, x, y, eps = self._setup(seed=50)
        terms = batch_loss(params, x, y, ObjectiveConfig(kind="vib", beta=1.0), eps)
        code = encode(params, x)
        assert abs(terms.kl - float(kl_to_std_normal(code).values)) < 1e-15

    def test_gradcheck(self):
        params, x, y, eps = self._setup(seed=51)
        vib = ObjectiveConfig(kind="vib", beta=0.3)
        err = max_grad_rel_err(lambda: batch_loss(params, x, y, vib, eps).total,
                               params.parameters())
        assert err < 1e-4

    def test_latent_dim_independent_of_classes(self):
        params, _, _, _ = self._setup(latent=7, classes=3)
        assert params.latent_dim == 7
        assert params.out_dim == 3

    def test_regression_variant(self):
        rng = np.random.default_rng(52)
        params = init_vib(4, 6, 3, 1, rng=rng)
        x = Tensor(rng.normal(size=(5, 4)))
        y = rng.normal(size=5)
        eps = rng.standard_normal((5, 3))
        terms = batch_loss(params, x, y,
                           ObjectiveConfig(kind="mse_vib", beta=0.2), eps)
        assert abs(terms.total_value - (terms.nll + 0.2 * terms.kl)) < 1e-12

    def test_checkpoint_round_trip(self, tmp_path):
        params, _, _, _ = self._setup(seed=53)
        path = str(tmp_path / "vib.json")
        save_checkpoint(path, params)
        restored = load_checkpoint(path)
        for name, tensor in params.tensors.items():
            assert np.array_equal(tensor.values, restored.tensors[name].values)


class TestStructuralContrast:
    def test_prediction_path_param_counts(self):
        enc = init_encoder(4, 8, 3, rng=54)
        vib = init_vib(4, 8, 16, 3, rng=55)
        # the stochastic-coding head predicts from t itself; VIB runs t through a decoder
        decoder = {"w_dec1", "b_dec1", "w_dec2", "b_dec2"}
        assert not decoder & set(enc.tensors)
        assert decoder <= set(vib.tensors)
        assert sum(vib.tensors[name].values.size for name in decoder) >= 1

    def test_mse_forward_baseline(self):
        rng = np.random.default_rng(56)
        params = init_encoder(4, 5, 1, rng=rng)
        x = Tensor(rng.normal(size=(5, 4)))
        y = rng.normal(size=5)
        terms = batch_loss(params, x, y, ObjectiveConfig(kind="mse"),
                           no_eps(5, 1))
        pred = encode(params, x).mu.values
        assert abs(terms.total_value - ((pred.ravel() - y) ** 2).mean()) < 1e-12
