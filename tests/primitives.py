"""The primitive ops that the fused ops of `spc` replaced, built on
`spc.diffcore.emit`: the reference chains of `test_fused_ops.py`, and ops
whose gradients `test_diffcore.py` and acceptance criterion 1 check."""

from __future__ import annotations

import numpy as np

from spc.diffcore import ShapeError, Tensor, _check_broadcast, emit
from spc.objectives import DomainError, log_softmax_grad, log_softmax_values, xlogx_values


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.values.shape, b.values.shape, "add", allow_row=True)
    return emit(a.values + b.values, (a, lambda g: g), (b, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.values.shape, b.values.shape, "sub", allow_row=True)
    return emit(a.values - b.values, (a, lambda g: g), (b, lambda g: -g))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return emit(a.values * c, (a, lambda g: g * c))


def exp(a: Tensor) -> Tensor:
    out_values = np.exp(a.values)
    return emit(out_values, (a, lambda g: g * out_values))


def log(a: Tensor) -> Tensor:
    if np.any(a.values <= 0.0):
        raise DomainError("log: all values must be positive")
    return emit(np.log(a.values), (a, lambda g: g / a.values))


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0.0
    return emit(np.where(mask, a.values, 0.0), (a, lambda g: g * mask))


def xlogx(a: Tensor) -> Tensor:
    """Elementwise p*log(p) with the entropy convention 0*log(0) = 0.

    The derivative log(p)+1 is reported as 0 at p = 0 to keep gradients
    finite; callers that differentiate through this op should stay in the
    open interval.
    """
    if np.any(a.values < 0.0):
        raise DomainError("xlogx: values must be non-negative")
    out_values, slope = xlogx_values(a.values)
    return emit(out_values, (a, lambda g: g * slope))


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log-probabilities, stabilized by max subtraction."""
    out_values = log_softmax_values(a.values)
    # the softmax is only materialized if the backward pass reaches this op
    return emit(out_values, (a, lambda g: log_softmax_grad(g, np.exp(out_values))))


def _check_axis(a: Tensor, axis: int | None) -> None:
    if axis is None:
        return
    if not isinstance(axis, int) or axis < 0 or axis >= a.values.ndim:
        raise ShapeError(f"reduce: axis {axis} invalid for shape {a.values.shape}")


def _spread(g: np.ndarray, shape: tuple[int, ...], axis: int | None) -> np.ndarray:
    """A reduction's output gradient `g` copied back over the reduced `axis`
    (all axes if None): the values of `np.broadcast_to(g, shape)`, in a new
    array made without broadcast_to's Python-level cost."""
    if axis is None:
        return np.full(shape, g)
    return np.repeat(g, shape[axis], axis=axis)


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum over all elements (axis=None, scalar result) or one axis (keepdims)."""
    _check_axis(a, axis)
    out_values = a.values.sum() if axis is None else a.values.sum(axis=axis, keepdims=True)
    return emit(out_values, (a, lambda g: _spread(g, a.values.shape, axis)))


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    _check_axis(a, axis)
    n = a.values.size if axis is None else a.values.shape[axis]
    out_values = a.values.mean() if axis is None else a.values.mean(axis=axis, keepdims=True)
    return emit(out_values, (a, lambda g: _spread(g / n, a.values.shape, axis)))
