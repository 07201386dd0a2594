"""The taped ops that `spc` trained through before a training step became
one op (`trainer.batch_loss`): the reparameterized sample and each loss
term as one fused op, and their weighted total, built on
`spc.diffcore.emit`. `test_fused_ops.py` checks each against the chain of
primitive ops it replaced, byte for byte (the bit contract is in the
`primitives` docstring), and the other tests check their values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spc.diffcore import ShapeError, Tensor, emit
from spc.objectives import log_softmax_grad, log_softmax_values, xlogx_values


@dataclass
class GaussianCode:
    """Per-sample posterior parameters (mu, log sigma^2) in the output space."""

    mu: Tensor
    log_var: Tensor


def sample(code: GaussianCode, eps: Tensor | np.ndarray) -> Tensor:
    """Reparameterized draw t = mu + exp(log_var / 2) * eps, as one op.

    `eps` is treated as a constant: it must be drawn from N(0, I) by the
    caller, and no gradient flows into it. The local gradients are g for
    mu and g * eps * sigma * 0.5 for log_var.
    """
    eps = (eps if isinstance(eps, Tensor) else Tensor(eps)).values
    if eps.shape != code.mu.values.shape:
        raise ShapeError(
            f"sample: eps shape {eps.shape} != code shape {code.mu.values.shape}")
    sigma = np.exp(code.log_var.values * 0.5)
    return emit(code.mu.values + sigma * eps,
                (code.mu, lambda g: g), (code.log_var, lambda g: g * eps * sigma * 0.5))
def softmax_probs(logits: Tensor) -> Tensor:
    """Differentiable row-wise softmax: exp(log_softmax), as one op."""
    probs = np.exp(log_softmax_values(logits.values))
    return emit(probs, (logits, lambda g: log_softmax_grad(g * probs, probs)))


def _task_nll(t: Tensor, y: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(t)[i, y[i]], as one op, for B
    labels already known to lie in [0, C)."""
    log_probs = log_softmax_values(t.values)
    batch = log_probs.shape[0]
    onehot = np.zeros(log_probs.shape)
    onehot[np.arange(batch), y] = 1.0
    c = -1.0 / batch
    return emit((log_probs * onehot).sum() * c,
                (t, lambda g: log_softmax_grad(np.full(onehot.shape, g * c) * onehot,
                                               np.exp(log_probs))))


def mse(t: Tensor, y) -> Tensor:
    """Mean of (t_i - y_i)^2 over the batch, as one op."""
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if t.values.shape != y.shape:
        raise ValueError(f"mse: prediction shape {t.values.shape} != target shape {y.shape}")
    diff = t.values - y

    def d_t(g):
        spread = np.full(diff.shape, g / diff.size)
        return spread * diff + spread * diff

    return emit((diff * diff).mean(), (t, d_t))


def kl_to_std_normal(code: GaussianCode) -> Tensor:
    """Closed-form KL(N(mu, diag sigma^2) || N(0, I)), averaged over the batch.

    Per sample: 0.5 * sum_d (mu_d^2 + sigma_d^2 - 1 - log sigma_d^2).
    Non-negative, zero exactly when mu = 0 and log_var = 0. One op: mu gets
    G*mu twice and log_var gets -G, then G*sigma^2, where G is the output
    gradient times 0.5/B, spread over the batch.
    """
    mu, log_var = code.mu.values, code.log_var.values
    var = np.exp(log_var)
    c = 0.5 / mu.shape[0]

    def spread(g):
        return np.full(mu.shape, g * c)

    # one pair per use, as backward added them to the chain's inputs: a mu
    # that already holds a gradient (structured_from="mu") then gets G*mu
    # added twice, not 2*G*mu once, which rounds differently
    return emit((mu * mu + var - log_var - 1.0).sum() * c,
                (code.log_var, lambda g: -spread(g)), (code.log_var, lambda g: spread(g) * var),
                (code.mu, lambda g: spread(g) * mu), (code.mu, lambda g: spread(g) * mu))


def _batch_entropy(probs: Tensor) -> Tensor:
    """Entropy of the column-mean of a row-stochastic matrix (natural log),
    as one op, for rows known to be non-negative and to sum to 1.

    By Jensen this upper-bounds the mean per-row entropy; it is maximal
    (log C) when the batch-averaged class marginal is uniform and 0 when
    every row concentrates on one shared class.
    """
    batch = probs.values.shape[0]
    entropy_terms, slope = xlogx_values(probs.values.mean(axis=0, keepdims=True))
    return emit(-entropy_terms.sum(),
                (probs, lambda g: np.repeat(np.full(slope.shape, -g) * slope / batch,
                                            batch, axis=0)))


def _confidence_penalty(probs: Tensor) -> Tensor:
    """Negative mean per-row entropy, -(1/B) sum_i H(p_i), in [-log C, 0],
    as one op, for rows known to be a distribution."""
    c = 1.0 / probs.values.shape[0]
    entropy_terms, slope = xlogx_values(probs.values)
    return emit(entropy_terms.sum() * c, (probs, lambda g: np.full(slope.shape, g * c) * slope))


def _weighted_total(nll: Tensor, weighted: list[tuple[Tensor, float]]) -> Tensor:
    """nll + term * w for each (term, w) in order, as one op; adding
    H * -gamma has the bits of subtracting H * gamma."""
    total = nll.values
    for term, w in weighted:
        total = total + term.values * w
    return emit(total, (nll, lambda g: g),
                *((term, lambda g, w=w: g * w) for term, w in weighted))
