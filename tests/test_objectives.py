import math

import numpy as np
import pytest

from gradcheck import max_grad_rel_err
from spc.diffcore import Tape, Tensor, backward, param, zero_grads
from spc.encoder import GaussianCode
from spc.objectives import (
    OBJECTIVES,
    DomainError,
    ObjectiveConfig,
    batch_entropy,
    confidence_penalty,
    kl_to_std_normal,
    mse,
    softmax_probs,
    spc_loss,
    task_nll,
)


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
        value = task_nll(Tensor([[0.0, 0.0]]), [0]).item()
        assert abs(value - math.log(2)) < 1e-15

    def test_confident_correct(self):
        # -log sigmoid(20) computed independently
        expected = math.log1p(math.exp(-20.0))
        value = task_nll(Tensor([[10.0, -10.0]]), [0]).item()
        assert value == pytest.approx(expected, rel=1e-6)
        assert value == pytest.approx(2.06e-9, rel=1e-2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(20)
        t = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        base = task_nll(Tensor(t), y).item()
        perm = rng.permutation(6)
        assert abs(task_nll(Tensor(t[perm]), y[perm]).item() - base) < 1e-15

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            task_nll(Tensor([[0.0, 0.0]]), [2])


class TestMse:
    def test_zero_at_target(self):
        assert mse(Tensor([[1.0], [2.0]]), [1.0, 2.0]).item() == 0.0

    def test_simple_value(self):
        assert mse(Tensor([[0.0]]), [2.0]).item() == 4.0

    def test_gradcheck(self):
        rng = np.random.default_rng(21)
        t = param(rng.normal(size=(5, 1)))
        y = rng.normal(size=5)
        assert max_grad_rel_err(lambda: mse(t, y), [t]) < 1e-6
        # analytic gradient is 2(t - y)/B
        zero_grads([t])
        with Tape() as tape:
            loss = mse(t, y)
        backward(loss, tape)
        assert np.allclose(t.grad, 2 * (t.values - y.reshape(-1, 1)) / 5, atol=1e-15)


class TestKl:
    def test_standard_normal_is_zero(self):
        code = make_code(np.zeros((3, 4)), np.zeros((3, 4)))
        assert kl_to_std_normal(code).item() == 0.0

    def test_unit_mean_single_dim(self):
        code = make_code(np.array([[1.0]]), np.array([[0.0]]))
        assert abs(kl_to_std_normal(code).item() - 0.5) < 1e-15

    def test_non_negative_and_zero_iff(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            code = make_code(rng.normal(size=(2, 3)), rng.uniform(-2, 2, size=(2, 3)))
            assert kl_to_std_normal(code).item() >= 0.0
        near = make_code(np.full((1, 1), 1e-6), np.zeros((1, 1)))
        assert 0 < kl_to_std_normal(near).item() < 1e-11

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(23)
        mu = rng.uniform(-2, 2, size=(3, 4))
        log_var = rng.uniform(-1.5, 1.5, size=(3, 4))
        closed = kl_to_std_normal(make_code(mu, log_var)).item()
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
        assert abs(batch_entropy(probs).item() - math.log(4)) < 1e-15

    def test_shared_one_hot(self):
        probs = Tensor(np.tile([[1.0, 0.0, 0.0]], (4, 1)))
        assert batch_entropy(probs).item() == 0.0

    def test_jensen_gap_witness(self):
        probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert abs(batch_entropy(probs).item() - math.log(2)) < 1e-15
        assert confidence_penalty(probs).item() == 0.0  # mean row entropy is 0

    def test_rows_must_normalize(self):
        with pytest.raises(DomainError):
            batch_entropy(Tensor([[0.5, 0.6]]))

    def test_jensen_inequality_random(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            raw = rng.uniform(0.01, 1.0, size=(6, 5))
            probs = raw / raw.sum(axis=1, keepdims=True)
            lb = batch_entropy(Tensor(probs)).item()
            mean_row_entropy = -confidence_penalty(Tensor(probs)).item()
            assert mean_row_entropy <= lb + 1e-12
            assert 0.0 <= lb <= math.log(5) + 1e-12

    def test_gradient_ascent_does_not_decrease(self):
        # one small ascent step on the marginal entropy from a skewed start
        rng = np.random.default_rng(26)
        logits = param(rng.normal(size=(6, 4)) + np.array([3.0, 0.0, -1.0, -2.0]))
        with Tape() as tape:
            lb = batch_entropy(softmax_probs(logits))
        before = lb.item()
        backward(lb, tape)
        logits.values += 0.01 * logits.grad
        after = batch_entropy(softmax_probs(logits)).item()
        assert after >= before


class TestConfidencePenalty:
    def test_uniform_rows(self):
        probs = Tensor(np.full((3, 4), 0.25))
        assert abs(confidence_penalty(probs).item() + math.log(4)) < 1e-15

    def test_one_hot_rows(self):
        probs = Tensor(np.eye(4))
        assert confidence_penalty(probs).item() == 0.0

    def test_jensen_vs_batch_entropy(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            raw = rng.uniform(0.01, 1.0, size=(4, 3))
            probs = raw / raw.sum(axis=1, keepdims=True)
            assert -confidence_penalty(Tensor(probs)).item() <= batch_entropy(Tensor(probs)).item() + 1e-12


class TestSpcLoss:
    def _setup(self, seed=28, batch=2, classes=2):
        rng = np.random.default_rng(seed)
        mu = param(rng.normal(size=(batch, classes)))
        log_var = param(rng.uniform(-1, 1, size=(batch, classes)))
        code = GaussianCode(mu, log_var)
        eps = rng.standard_normal((batch, classes))
        from spc.encoder import sample
        t = sample(code, eps)
        y = rng.integers(0, classes, size=batch)
        return code, t, y

    def test_zero_weights_reduce_to_nll(self):
        code, t, y = self._setup()
        cfg = ObjectiveConfig(kind="spc", beta=0.0, gamma=0.0)
        terms = spc_loss(code, t, y, cfg)
        assert terms.total_value == task_nll(t, y).item()
        assert terms.kl == 0.0 and terms.batch_entropy == 0.0

    def test_gamma_zero_equals_pc(self):
        code, t, y = self._setup()
        spc_terms = spc_loss(code, t, y, ObjectiveConfig(kind="spc", beta=0.3, gamma=0.0))
        pc_terms = spc_loss(code, t, y, ObjectiveConfig(kind="pc", beta=0.3))
        assert spc_terms.total_value == pc_terms.total_value

    def test_hand_built_breakdown(self):
        # recompute every term with plain numpy, outside the graph
        code, t, y = self._setup(seed=29)
        beta, gamma = 0.7, 0.3
        terms = spc_loss(code, t, y, ObjectiveConfig(kind="spc", beta=beta, gamma=gamma))

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
        terms = spc_loss(code, t, y, cfg)
        recomposed = terms.nll + cfg.beta * terms.kl - cfg.gamma * terms.batch_entropy
        assert abs(terms.total_value - recomposed) < 1e-12

    def test_structured_from_mu(self):
        code, t, y = self._setup(seed=31)
        by_sample = spc_loss(code, t, y, ObjectiveConfig(kind="spc", beta=0.1, gamma=0.5))
        by_mu = spc_loss(code, t, y, ObjectiveConfig(kind="spc", beta=0.1, gamma=0.5,
                                                     structured_from="mu"))
        mu_probs = softmax_probs(code.mu)
        assert abs(by_mu.batch_entropy - batch_entropy(mu_probs).item()) < 1e-15
        assert by_sample.batch_entropy != by_mu.batch_entropy

    def test_gradcheck_full_objective(self):
        rng = np.random.default_rng(32)
        mu = param(rng.normal(size=(3, 4)))
        log_var = param(rng.uniform(-1, 1, size=(3, 4)))
        eps = rng.standard_normal((3, 4))
        y = rng.integers(0, 4, size=3)
        cfg = ObjectiveConfig(kind="spc", beta=0.2, gamma=0.4)

        def loss_fn():
            from spc.encoder import sample
            code = GaussianCode(mu, log_var)
            t = sample(code, eps)
            return spc_loss(code, t, y, cfg).total

        assert max_grad_rel_err(loss_fn, [mu, log_var]) < 1e-4


class TestRegressionObjective:
    def test_mse_pc_breakdown(self):
        rng = np.random.default_rng(33)
        mu = param(rng.normal(size=(4, 1)))
        log_var = param(rng.uniform(-1, 1, size=(4, 1)))
        code = GaussianCode(mu, log_var)
        from spc.encoder import sample
        t = sample(code, rng.standard_normal((4, 1)))
        y = rng.normal(size=4)
        cfg = ObjectiveConfig(kind="mse_pc", beta=0.25)
        terms = spc_loss(code, t, y, cfg)
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
