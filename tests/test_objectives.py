import math

import numpy as np
import pytest

from fused import (
    GaussianCode,
    _batch_entropy,
    _confidence_penalty,
    _task_nll,
    kl_to_std_normal,
    mse,
    sample,
    softmax_probs,
)
from gradcheck import finite_diff_grad, max_grad_rel_err, rel_err
from spc.diffcore import Tape, Tensor, backward, param
from spc.objectives import OBJECTIVES, LossTerms, ObjectiveConfig, spc_loss


def loss(code: GaussianCode, t: Tensor, y, cfg: ObjectiveConfig) -> LossTerms:
    """`spc_loss` of the arrays of a code and its sample t."""
    return spc_loss(t.values, code.mu.values, code.log_var.values, y, cfg)[0]


def make_code(mu: np.ndarray, log_var: np.ndarray) -> GaussianCode:
    return GaussianCode(mu=param(mu.astype(float)), log_var=param(log_var.astype(float)))


def mc_kl_estimate(mu: np.ndarray, log_var: np.ndarray, n: int, seed: int) -> float:
    """Monte-Carlo E[log p(t) - log r(t)] under p, averaged over the batch."""
    rng = np.random.default_rng(seed)
    sigma = np.exp(0.5 * log_var)
    total = 0.0
    for i in range(mu.shape[0]):
        z = mu[i] + sigma[i] * rng.standard_normal((n, mu.shape[1]))
        log_p = -0.5 * (((z - mu[i]) / sigma[i]) ** 2 + log_var[i] + math.log(2 * math.pi)).sum(axis=1)
        log_r = -0.5 * (z ** 2 + math.log(2 * math.pi)).sum(axis=1)
        total += float((log_p - log_r).mean())
    return total / mu.shape[0]


class TestTaskNll:
    def test_uniform_logits(self):
        value = float(_task_nll(Tensor([[0.0, 0.0]]), [0]).values)
        assert abs(value - math.log(2)) < 1e-15

    def test_confident_correct(self):
        # -log sigmoid(20) computed independently
        expected = math.log1p(math.exp(-20.0))
        value = float(_task_nll(Tensor([[10.0, -10.0]]), [0]).values)
        assert value == pytest.approx(expected, rel=1e-6)
        assert value == pytest.approx(2.06e-9, rel=1e-2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(20)
        t = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        base = float(_task_nll(Tensor(t), y).values)
        perm = rng.permutation(6)
        assert abs(float(_task_nll(Tensor(t[perm]), y[perm]).values) - base) < 1e-15


class TestMse:
    def test_zero_at_target(self):
        assert float(mse(Tensor([[1.0], [2.0]]), [1.0, 2.0]).values) == 0.0

    def test_simple_value(self):
        assert float(mse(Tensor([[0.0]]), [2.0]).values) == 4.0

    def test_gradcheck(self):
        rng = np.random.default_rng(21)
        t = param(rng.normal(size=(5, 1)))
        y = rng.normal(size=5)
        assert max_grad_rel_err(lambda: mse(t, y), [t]) < 1e-6
        # analytic gradient is 2(t - y)/B
        t.grad = None
        with Tape() as tape:
            loss = mse(t, y)
        backward(loss, tape)
        assert np.allclose(t.grad, 2 * (t.values - y.reshape(-1, 1)) / 5, atol=1e-15)


class TestKl:
    def test_standard_normal_is_zero(self):
        code = make_code(np.zeros((3, 4)), np.zeros((3, 4)))
        assert float(kl_to_std_normal(code).values) == 0.0

    def test_unit_mean_single_dim(self):
        code = make_code(np.array([[1.0]]), np.array([[0.0]]))
        assert abs(float(kl_to_std_normal(code).values) - 0.5) < 1e-15

    def test_non_negative_and_zero_iff(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            code = make_code(rng.normal(size=(2, 3)), rng.uniform(-2, 2, size=(2, 3)))
            assert float(kl_to_std_normal(code).values) >= 0.0
        near = make_code(np.full((1, 1), 1e-6), np.zeros((1, 1)))
        assert 0 < float(kl_to_std_normal(near).values) < 1e-11

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(23)
        mu = rng.uniform(-2, 2, size=(3, 4))
        log_var = rng.uniform(-1.5, 1.5, size=(3, 4))
        closed = float(kl_to_std_normal(make_code(mu, log_var)).values)
        estimate = mc_kl_estimate(mu, log_var, n=1_000_000, seed=0)
        assert abs(estimate - closed) / closed < 0.01

    def test_gradcheck(self):
        rng = np.random.default_rng(24)
        mu = param(rng.normal(size=(3, 4)))
        log_var = param(rng.uniform(-1, 1, size=(3, 4)))
        err = max_grad_rel_err(lambda: kl_to_std_normal(GaussianCode(mu, log_var)),
                               [mu, log_var])
        assert err < 1e-4


class TestBatchEntropy:
    def test_uniform_rows(self):
        probs = Tensor(np.full((5, 4), 0.25))
        assert abs(float(_batch_entropy(probs).values) - math.log(4)) < 1e-15

    def test_shared_one_hot(self):
        probs = Tensor(np.tile([[1.0, 0.0, 0.0]], (4, 1)))
        assert float(_batch_entropy(probs).values) == 0.0

    def test_jensen_gap_witness(self):
        probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert abs(float(_batch_entropy(probs).values) - math.log(2)) < 1e-15
        assert float(_confidence_penalty(probs).values) == 0.0  # mean row entropy is 0

    def test_jensen_inequality_random(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            raw = rng.uniform(0.01, 1.0, size=(6, 5))
            probs = raw / raw.sum(axis=1, keepdims=True)
            lb = float(_batch_entropy(Tensor(probs)).values)
            mean_row_entropy = -float(_confidence_penalty(Tensor(probs)).values)
            assert mean_row_entropy <= lb + 1e-12
            assert 0.0 <= lb <= math.log(5) + 1e-12

    def test_gradient_ascent_does_not_decrease(self):
        # one small ascent step on the marginal entropy from a skewed start
        rng = np.random.default_rng(26)
        logits = param(rng.normal(size=(6, 4)) + np.array([3.0, 0.0, -1.0, -2.0]))
        with Tape() as tape:
            lb = _batch_entropy(softmax_probs(logits))
        before = float(lb.values)
        backward(lb, tape)
        logits.values += 0.01 * logits.grad
        after = float(_batch_entropy(softmax_probs(logits)).values)
        assert after >= before


class TestConfidencePenalty:
    def test_uniform_rows(self):
        probs = Tensor(np.full((3, 4), 0.25))
        assert abs(float(_confidence_penalty(probs).values) + math.log(4)) < 1e-15

    def test_one_hot_rows(self):
        probs = Tensor(np.eye(4))
        assert float(_confidence_penalty(probs).values) == 0.0

    def test_jensen_vs_batch_entropy(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            raw = rng.uniform(0.01, 1.0, size=(4, 3))
            probs = raw / raw.sum(axis=1, keepdims=True)
            mean_row_entropy = -float(_confidence_penalty(Tensor(probs)).values)
            assert mean_row_entropy <= float(_batch_entropy(Tensor(probs)).values) + 1e-12


class TestSpcLoss:
    def _setup(self, seed=28, batch=2, classes=2):
        rng = np.random.default_rng(seed)
        mu = param(rng.normal(size=(batch, classes)))
        log_var = param(rng.uniform(-1, 1, size=(batch, classes)))
        code = GaussianCode(mu, log_var)
        eps = rng.standard_normal((batch, classes))
        t = sample(code, eps)
        y = rng.integers(0, classes, size=batch)
        return code, t, y

    def test_zero_weights_reduce_to_nll(self):
        code, t, y = self._setup()
        cfg = ObjectiveConfig(kind="spc", beta=0.0, gamma=0.0)
        terms = loss(code, t, y, cfg)
        assert terms.total_value == float(_task_nll(t, y).values)
        assert terms.kl == 0.0 and terms.batch_entropy == 0.0

    def test_gamma_zero_equals_pc(self):
        code, t, y = self._setup()
        spc_terms = loss(code, t, y, ObjectiveConfig(kind="spc", beta=0.3, gamma=0.0))
        pc_terms = loss(code, t, y, ObjectiveConfig(kind="pc", beta=0.3))
        assert spc_terms.total_value == pc_terms.total_value

    def test_hand_built_breakdown(self):
        # recompute every term with plain numpy, outside the graph
        code, t, y = self._setup(seed=29)
        beta, gamma = 0.7, 0.3
        terms = loss(code, t, y, ObjectiveConfig(kind="spc", beta=beta, gamma=gamma))

        logits = t.values
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        nll = -log_probs[np.arange(len(y)), y].mean()
        mu, lv = code.mu.values, code.log_var.values
        kl = 0.5 * (mu ** 2 + np.exp(lv) - 1.0 - lv).sum(axis=1).mean()
        probs = np.exp(log_probs)
        marginal = probs.mean(axis=0)
        lb = -(marginal * np.log(marginal)).sum()
        expected = nll + beta * kl - gamma * lb
        assert abs(terms.total_value - expected) < 1e-12
        assert abs(terms.nll - nll) < 1e-12
        assert abs(terms.kl - kl) < 1e-12
        assert abs(terms.batch_entropy - lb) < 1e-12

    def test_breakdown_sums_to_total(self):
        code, t, y = self._setup(seed=30, batch=5, classes=3)
        cfg = ObjectiveConfig(kind="spc", beta=0.05, gamma=2.0)
        terms = loss(code, t, y, cfg)
        recomposed = terms.nll + cfg.beta * terms.kl - cfg.gamma * terms.batch_entropy
        assert abs(terms.total_value - recomposed) < 1e-12

    def test_structured_from_mu(self):
        code, t, y = self._setup(seed=31)
        by_sample = loss(code, t, y, ObjectiveConfig(kind="spc", beta=0.1, gamma=0.5))
        by_mu = loss(code, t, y, ObjectiveConfig(kind="spc", beta=0.1, gamma=0.5,
                                                     structured_from="mu"))
        mu_probs = softmax_probs(code.mu)
        assert abs(by_mu.batch_entropy - float(_batch_entropy(mu_probs).values)) < 1e-15
        assert by_sample.batch_entropy != by_mu.batch_entropy

    @staticmethod
    def grads_match_finite_differences(cfg):
        # the gradients `grads` gives out, mu and log_var, each taken as an
        # independent input, against finite differences of the total
        rng = np.random.default_rng(32)
        mu = rng.normal(size=(3, 4))
        log_var = rng.uniform(-1, 1, size=(3, 4))
        out = mu + np.exp(0.5 * log_var) * rng.standard_normal((3, 4))
        y = rng.integers(0, 4, size=3)
        arrays = (out, mu, log_var)
        analytic = spc_loss(*arrays, y, cfg)[1](1.0)

        def value():
            return spc_loss(*arrays, y, cfg)[0].total_value

        for array, grad in zip(arrays, analytic):
            grad = np.zeros_like(array) if grad is None else grad
            assert rel_err(finite_diff_grad(value, array), grad) < 1e-4

    def test_gradcheck_full_objective(self):
        self.grads_match_finite_differences(ObjectiveConfig(kind="spc", beta=0.2, gamma=0.4))

    @pytest.mark.parametrize("cfg", [
        ObjectiveConfig(kind="spc", beta=0.2, gamma=0.4, structured_from="mu"),
        ObjectiveConfig(kind="ce_cp", cp_weight=0.5),
    ], ids=["spc-mu", "ce_cp"])
    def test_gradcheck_other_routes(self, cfg):
        self.grads_match_finite_differences(cfg)


class TestRegressionObjective:
    def test_mse_pc_breakdown(self):
        rng = np.random.default_rng(33)
        mu = param(rng.normal(size=(4, 1)))
        log_var = param(rng.uniform(-1, 1, size=(4, 1)))
        code = GaussianCode(mu, log_var)
        t = sample(code, rng.standard_normal((4, 1)))
        y = rng.normal(size=4)
        cfg = ObjectiveConfig(kind="mse_pc", beta=0.25)
        terms = loss(code, t, y, cfg)
        assert abs(terms.total_value - (terms.nll + 0.25 * terms.kl)) < 1e-12

    def test_regression_rejects_gamma(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(kind="mse_pc", beta=0.1, gamma=0.1)


class TestObjectiveConfigValidation:
    def test_task_is_the_kinds(self):
        for kind, spec in OBJECTIVES.items():
            assert ObjectiveConfig(kind=kind).task == spec.task

    def test_pc_rejects_gamma(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(kind="pc", gamma=0.5)

    def test_ce_rejects_beta(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(kind="ce", beta=1.0)

    def test_negative_weights(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(kind="spc", beta=-0.1)
        with pytest.raises(ValueError):
            ObjectiveConfig(kind="ce_cp", cp_weight=-1.0)
