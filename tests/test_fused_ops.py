"""Each fused op against the chain of primitive ops it replaced, byte for byte.

A layer or a loss term is one taped op (see the `diffcore` docstring). The
`chain_*` functions below rebuild those terms from primitive ops, the way
they were written before they were fused. Each fused op must give the
chain's value and, for every input, the chain's gradient bytes: into a
fresh gradient and added onto one the input already holds. A whole
training step of every objective kind is checked the same way, and each
fused op's gradient against finite differences.
"""

import numpy as np
import pytest

from gradcheck import max_grad_rel_err
from primitives import add, exp, log_softmax, reduce_mean, reduce_sum, scale, sub, xlogx
from spc.diffcore import Tape, Tensor, backward, clip, layer_norm, matmul, mul, param, tanh
from spc.encoder import LOG_VAR_MAX, LOG_VAR_MIN, GaussianCode, init_encoder, init_vib, sample
from spc.objectives import (
    OBJECTIVES,
    ObjectiveConfig,
    _batch_entropy,
    _confidence_penalty,
    _task_nll,
    _weighted_total,
    kl_to_std_normal,
    mse,
    softmax_probs,
)
from spc.trainer import batch_loss

B, D, H, C = 6, 5, 3, 4


def chain_matmul(a, b, bias):
    return add(matmul(a, b), bias)


def chain_sample(code, eps):
    return add(code.mu, mul(exp(scale(code.log_var, 0.5)), Tensor(eps)))


def chain_nll(t, y):
    batch, classes = t.values.shape
    onehot = np.zeros((batch, classes))
    onehot[np.arange(batch), y] = 1.0
    return scale(reduce_sum(mul(log_softmax(t), Tensor(onehot))), -1.0 / batch)


def chain_kl(code):
    term = sub(sub(add(mul(code.mu, code.mu), exp(code.log_var)), code.log_var), Tensor(1.0))
    return scale(reduce_sum(term), 0.5 / code.mu.values.shape[0])


def chain_softmax(logits):
    return exp(log_softmax(logits))


def chain_batch_entropy(probs):
    return scale(reduce_sum(xlogx(reduce_mean(probs, axis=0))), -1.0)


def chain_confidence_penalty(probs):
    return scale(reduce_sum(xlogx(probs)), 1.0 / probs.values.shape[0])


def chain_mse(t, y):
    diff = sub(t, Tensor(np.asarray(y, dtype=np.float64).reshape(-1, 1)))
    return reduce_mean(mul(diff, diff))


def chain_batch_loss(model, x, y, objective, eps, mask=None):
    """`trainer.batch_loss` as primitive ops: encode, sample, decode, score."""
    w = model.tensors
    pre = add(matmul(x, w["w_in"]), w["b_in"])
    if model.arch["use_layer_norm"]:
        pre = layer_norm(pre)
    h = tanh(pre)
    if mask is not None:
        h = mul(h, Tensor(mask))
    code = GaussianCode(add(matmul(h, w["w_mu"]), w["b_mu"]),
                        clip(add(matmul(h, w["w_lv"]), w["b_lv"]), LOG_VAR_MIN, LOG_VAR_MAX))
    out = chain_sample(code, eps) if objective.samples else code.mu
    if "w_dec1" in w:
        out = add(matmul(tanh(add(matmul(out, w["w_dec1"]), w["b_dec1"])), w["w_dec2"]),
                  w["b_dec2"])
    total = chain_nll(out, y) if objective.task == "classification" else chain_mse(out, y)
    if objective.beta != 0.0:
        total = add(total, scale(chain_kl(code), objective.beta))
    if objective.gamma != 0.0:
        source = out if objective.structured_from == "sample" else code.mu
        total = sub(total, scale(chain_batch_entropy(chain_softmax(source)), objective.gamma))
    if objective.cp_weight != 0.0:
        total = add(total, scale(chain_confidence_penalty(chain_softmax(out)),
                                objective.cp_weight))
    return total


def chain_weighted_total(nll, kl, lb, penalty):
    return add(sub(add(nll, scale(kl, 0.3)), scale(lb, 0.7)), scale(penalty, 0.5))


def fused_weighted_total(nll, kl, lb, penalty):
    return _weighted_total(nll, [(kl, 0.3), (lb, -0.7), (penalty, 0.5)])


def normalized(values):
    return values / values.sum(axis=1, keepdims=True)


def make_cases():
    """name -> (fused op, its chain, input arrays, output weight). Every op
    takes its differentiable inputs as tensors, in the listed order."""
    rng = np.random.default_rng(70)
    log_var = rng.uniform(-3.0, 3.0, size=(B, C))
    log_var[0, 0], log_var[1, 2] = LOG_VAR_MAX, LOG_VAR_MIN  # at the clamp
    eps = rng.standard_normal((B, C))
    y = rng.integers(0, C, size=B)
    y_reg = rng.normal(size=B)
    # class 2 has probability exactly 0 in every row, so its marginal is 0
    probs = normalized(rng.uniform(0.1, 1.0, size=(B, C)) * [1.0, 1.0, 0.0, 1.0])
    logits = rng.normal(size=(B, C)) * 2.0
    logits[:, 2] = -1e4  # exp underflows: a softmax column of exact zeros
    matrix = rng.normal(size=(B, H))
    scalar = np.array(0.37)
    return {
        "matmul_row_bias": (matmul, chain_matmul, [rng.normal(size=(B, D)),
                            rng.normal(size=(D, H)), rng.normal(size=(1, H))], matrix),
        "matmul_full_bias": (matmul, chain_matmul, [rng.normal(size=(B, D)),
                             rng.normal(size=(D, H)), rng.normal(size=(B, H))], matrix),
        "sample": (lambda mu, lv: sample(GaussianCode(mu, lv), eps),
                   lambda mu, lv: chain_sample(GaussianCode(mu, lv), eps),
                   [rng.normal(size=(B, C)), log_var], rng.normal(size=(B, C))),
        "task_nll": (lambda t: _task_nll(t, y), lambda t: chain_nll(t, y),
                     [rng.normal(size=(B, C)) * 2.0], scalar),
        "kl": (lambda mu, lv: kl_to_std_normal(GaussianCode(mu, lv)),
               lambda mu, lv: chain_kl(GaussianCode(mu, lv)),
               [rng.normal(size=(B, C)), log_var], scalar),
        "softmax": (softmax_probs, chain_softmax, [logits], rng.normal(size=(B, C))),
        "batch_entropy": (_batch_entropy, chain_batch_entropy, [probs], scalar),
        "confidence_penalty": (_confidence_penalty, chain_confidence_penalty, [probs], scalar),
        "mse": (lambda t: mse(t, y_reg), lambda t: chain_mse(t, y_reg),
                [rng.normal(size=(B, 1))], scalar),
        "weighted_total": (fused_weighted_total, chain_weighted_total,
                           [rng.normal(size=()) for _ in range(4)], scalar),
    }


CASES = make_cases()


def value_and_grads(op, arrays, weight, priors):
    """The bytes of op's output and of each input's gradient after one
    backward of sum(weight * op(inputs)); input i's gradient starts as
    priors[i] (None: no gradient yet)."""
    inputs = [param(values.copy()) for values in arrays]
    for tensor, prior in zip(inputs, priors):
        tensor.grad = None if prior is None else prior.copy()
    with Tape() as tape:
        out = op(*inputs)
        loss = reduce_sum(mul(out, Tensor(weight)))
    backward(loss, tape)
    return [out.values.tobytes()] + [tensor.grad.tobytes() for tensor in inputs]


@pytest.mark.parametrize("prior", ["fresh", "held"])
@pytest.mark.parametrize("name", list(CASES))
def test_fused_op_has_the_chains_bytes(name, prior):
    fused, chain, arrays, weight = CASES[name]
    rng = np.random.default_rng(71)
    priors = [None if prior == "fresh" else rng.normal(size=a.shape) for a in arrays]
    assert value_and_grads(fused, arrays, weight, priors) == \
        value_and_grads(chain, arrays, weight, priors)


def test_cases_reach_the_clamp_and_a_zero_marginal():
    _, _, (_, log_var), _ = CASES["kl"]
    assert log_var.max() == LOG_VAR_MAX and log_var.min() == LOG_VAR_MIN
    _, _, (probs,), _ = CASES["batch_entropy"]
    assert probs.mean(axis=0)[2] == 0.0
    _, _, (logits,), _ = CASES["softmax"]
    assert np.all(softmax_probs(Tensor(logits)).values[:, 2] == 0.0)


@pytest.mark.parametrize("name", list(CASES))
def test_fused_op_gradcheck(name):
    # interior inputs: finite differences cannot probe p = 0 or the clamp
    fused, _, arrays, weight = CASES[name]
    rng = np.random.default_rng(72)
    if name in ("batch_entropy", "confidence_penalty"):
        arrays = [normalized(rng.uniform(0.1, 1.0, size=(B, C)))]
    else:
        arrays = [rng.uniform(-1.5, 1.5, size=a.shape) for a in arrays]
    inputs = [param(a) for a in arrays]
    assert max_grad_rel_err(lambda: reduce_sum(mul(fused(*inputs), Tensor(weight))),
                            inputs) < 1e-6


def step_cases():
    for kind, spec in OBJECTIVES.items():
        for structured_from in (("sample", "mu") if "gamma" in spec.weights else ("sample",)):
            for variant in ("plain", "clamped", "dropout-layer-norm"):
                yield pytest.param(kind, structured_from, variant,
                                   id=f"{kind}-{structured_from}-{variant}")


@pytest.mark.parametrize("kind, structured_from, variant", step_cases())
def test_training_step_has_the_chains_bytes(kind, structured_from, variant):
    """One step of batch_loss and backward, into zeroed gradient buffers as
    `train` does, against the same step built from primitive ops."""
    spec = OBJECTIVES[kind]
    weights = {"beta": 0.3, "gamma": 0.7, "cp_weight": 0.5}
    objective = ObjectiveConfig(kind=kind, structured_from=structured_from,
                                **{n: v for n, v in weights.items() if n in spec.weights})
    rng = np.random.default_rng(73)
    out_dim = C if spec.task == "classification" else 1
    layer_norm_on = variant == "dropout-layer-norm"
    model = (init_vib(D, 8, 3, out_dim, rng, use_layer_norm=layer_norm_on) if spec.decoder
             else init_encoder(D, 8, out_dim, rng, use_layer_norm=layer_norm_on))
    if variant == "clamped":
        model.tensors["w_lv"].values *= 40.0  # drive log_var past both ends of the clamp
    x = Tensor(rng.normal(size=(B, D)))
    y = rng.integers(0, C, size=B) if spec.task == "classification" else rng.normal(size=B)
    eps = rng.standard_normal((B, model.latent_dim))
    mask = (rng.random((B, 8)) >= 0.3) / 0.7 if layer_norm_on else None

    def step(loss_fn):
        for p in model.parameters():
            p.grad = np.zeros_like(p.values)
        with Tape() as tape:
            total = loss_fn()
        backward(total, tape)
        return [total.values.tobytes()] + [p.grad.tobytes() for p in model.parameters()]

    fused = step(lambda: batch_loss(model, x, y, objective, eps, mask).total)
    assert fused == step(lambda: chain_batch_loss(model, x, y, objective, eps, mask))
    if variant == "clamped":
        w = {name: t.values for name, t in model.tensors.items()}
        hidden = np.tanh(x.values @ w["w_in"] + w["b_in"])
        log_var = hidden @ w["w_lv"] + w["b_lv"]
        assert log_var.max() > LOG_VAR_MAX and log_var.min() < LOG_VAR_MIN
