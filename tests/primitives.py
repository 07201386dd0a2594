"""The primitive ops that the fused ops of `spc` replaced, built on
`spc.diffcore.emit`: the reference chains of `test_fused_ops.py`, and ops
whose gradients `test_diffcore.py` and acceptance criterion 1 check.
`matmul`, `tanh` and `layer_norm` are the differentiable forms of the
layers of `spc.encoder.forward`, which tapes nothing; `mul` and `clip`
were the encoder's dropout mask and log-variance clamp.

Broadcasting has three cases: a scalar against a tensor (`add`, `sub`,
`mul`, the bias of `matmul`), and a 1xH row against a BxH matrix (`add`,
`sub`, the bias of `matmul`). `spc.diffcore.backward` takes each local
gradient at its input's shape, so these ops sum a broadcast operand's
gradient back to its shape (`_sum_back`), as `backward` did when they
were the package's ops.

Fused ops. A fused op (`tests/fused.py`, `trainer.batch_loss`) computes
the NumPy expressions of the chain of these ops that it replaced, in the
same order, and adds each contribution to a gradient in the order
`backward` reached it in that chain, so no bit moves. Only a zero inside
a fused op's gradient may keep a -0.0 sign, which a leaf's fresh or
+0.0-zeroed gradient turns into +0.0.
"""

from __future__ import annotations

import numpy as np

from spc.diffcore import ShapeError, Tensor, emit
from spc.encoder import layer_norm_grad, layer_norm_values
from spc.objectives import log_softmax_grad, log_softmax_values, xlogx_values


class DomainError(ValueError):
    """Operand values outside an op's domain: `log` of a non-positive value,
    `xlogx` of a negative one."""


def _check_broadcast(shape_a: tuple[int, ...], shape_b: tuple[int, ...], op: str,
                     allow_row: bool) -> None:
    """Raise unless the shapes agree, one is a scalar's, or (with
    `allow_row`) b is a 1xH row against a BxH a."""
    if shape_a == shape_b or not shape_a or not shape_b:
        return
    if allow_row and len(shape_a) == 2 and shape_b == (1, shape_a[1]):
        return
    raise ShapeError(f"{op}: incompatible shapes {shape_a} and {shape_b}")


def _sum_back(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The output gradient `g` summed back to an operand of `shape`: a
    scalar's, a 1xH row's or g's own."""
    if g.shape == shape:
        return g
    if not shape:
        return g.sum()
    return g.sum(axis=0, keepdims=True)  # a 1xH row


def _pair(t: Tensor, grad_fn) -> tuple:
    """`t` with the local gradient `grad_fn(g)` summed back to t's shape."""
    return t, lambda g: _sum_back(grad_fn(g), t.values.shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.values.shape, b.values.shape, "add", allow_row=True)
    return emit(a.values + b.values, _pair(a, lambda g: g), _pair(b, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.values.shape, b.values.shape, "sub", allow_row=True)
    return emit(a.values - b.values, _pair(a, lambda g: g), _pair(b, lambda g: -g))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return emit(a.values * c, (a, lambda g: g * c))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; same shape or scalar-vs-tensor only."""
    _check_broadcast(a.values.shape, b.values.shape, "mul", allow_row=False)
    return emit(a.values * b.values,
                _pair(a, lambda g: g * b.values), _pair(b, lambda g: g * a.values))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product plus an optional bias (a 1xH row, a scalar or a full
    matrix), `a @ b + bias`; gradients dL/da = g @ b.T, dL/db = a.T @ g,
    dL/dbias = g summed back to the bias's shape."""
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(f"matmul: expected 2-D operands, got {a.values.shape} and {b.values.shape}")
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.values.shape} vs {b.values.shape}")
    product = a.values @ b.values
    pairs = (a, lambda g: g @ b.values.T), (b, lambda g: a.values.T @ g)
    if bias is None:
        return emit(product, *pairs)
    if bias.values.shape not in (product.shape, (), (1, product.shape[1])):
        raise ShapeError(f"matmul: incompatible shapes {product.shape} and {bias.values.shape}")
    return emit(product + bias.values, *pairs, _pair(bias, lambda g: g))


def tanh(a: Tensor) -> Tensor:
    out_values = np.tanh(a.values)
    return emit(out_values, (a, lambda g: g * (1.0 - out_values * out_values)))


def layer_norm(a: Tensor) -> Tensor:
    """Row-wise standardization (no affine parameters)."""
    if a.values.ndim != 2:
        raise ShapeError(f"layer_norm: expected 2-D input, got {a.values.shape}")
    y, inv_std = layer_norm_values(a.values)
    return emit(y, (a, lambda g: layer_norm_grad(g, y, inv_std)))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Hard clamp; gradient passes only where lo <= value <= hi."""
    mask = (a.values >= lo) & (a.values <= hi)
    return emit(np.clip(a.values, lo, hi), (a, lambda g: g * mask))


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
