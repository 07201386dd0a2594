"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything is deliberately small: 2-D (or scalar) arrays, a handful of ops,
and one explicit `Tape` per forward pass. All storage is 64-bit so that
analytic gradients can be checked against central finite differences to
tight tolerances.

Broadcasting is restricted to two cases: scalar-vs-tensor, and adding a
1xH row vector (a bias) to a BxH matrix. Nothing else is implicit.
`matmul(a, b, bias)` takes such a row as its optional third operand and
computes `a @ b + bias` as one op; the bias's local gradient is the output
gradient, which `backward` sums back to 1xH.

Op contract: an op computes its output values and hands `emit` one
(input, local-gradient function) pair per input; the function maps the
output gradient `g` to that input's local gradient (`exp`: `g * out`;
`matmul`: `g @ b.T` and `a.T @ g`; `sub`'s right operand: `-g`). The
shared rules live in two places only. `emit` keeps the pairs whose input
requires a gradient, and tapes the output (which then requires one) iff
any pair is kept. `backward` sums each local gradient back over a
broadcast operand's shape and accumulates it into that input's `.grad`.

Fused ops. A layer or a loss term (`encoder.sample`, the terms in
`objectives`) is one op built on `emit`. It computes the same NumPy
expressions, in the same order, as the chain of primitive ops it
replaces, and hands `emit` one pair per use of an input in that chain, in
the order `backward` reached them, so every input gets the same additions
in the same order and no bit moves. What fusing drops is the copy
`np.add(g, 0.0)` that made each intermediate's first gradient, which
turned a -0.0 into +0.0. A zero inside a fused op's gradient may therefore
keep a -0.0 sign. That cannot reach a parameter: a leaf's gradient is
either a fresh `np.add(g, 0.0)` or, in training, a view of one flat vector
zeroed to +0.0, and +0.0 + -0.0 is +0.0.

Gradient buffers belong to the caller. A tensor whose `.grad` is None
gets a fresh array on its first gradient, equal to `zeros + g` bit for
bit; a `.grad` that is already an array (for example a view of one flat
gradient vector, see `trainer.train`) is added into in place, and the
caller zeroes it between passes. A tensor the loss does not reach keeps
the `.grad` it had, so a caller that needs a zero gradient there sets
`p.grad = np.zeros_like(p.values)` before the pass.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class DomainError(ValueError):
    """Operand values outside an op's domain (e.g. log of non-positive)."""


class GraphError(RuntimeError):
    """Misuse of the tape/backward machinery."""


# active tapes, innermost last; it records new ops. One stack per process:
# recording forward passes must not run in concurrent threads.
_tape_stack: list["Tape"] = []


# maps an op's output gradient to one input's local gradient
GradFn = Callable[[np.ndarray], np.ndarray]


class Tensor:
    """A dense float64 array plus a lazily allocated gradient buffer."""

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a fresh array equal to zeros + g bit for bit (-0.0 becomes +0.0)
            self.grad = np.add(g, 0.0)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    # operator sugar for the two ops written infix; all graph building goes
    # through the module-level ops
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)


def param(values) -> Tensor:
    """A leaf tensor that receives gradients."""
    return Tensor(values, requires_grad=True)


class Tape:
    """Ordered record of the ops of one forward pass.

    Ops are appended in construction order, so the list is already a valid
    topological order; the backward pass replays it once, in reverse. A tape
    can be backwarded exactly once; a second pass needs a fresh tape.
    """

    def __init__(self):
        self._ops: list[tuple[Tensor, list[tuple[Tensor, GradFn]]]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not _tape_stack or _tape_stack[-1] is not self:
            raise GraphError("tape stack corrupted: exiting a tape that is not active")
        _tape_stack.pop()

    def record(self, output: Tensor, pairs: list[tuple[Tensor, GradFn]]) -> None:
        self._ops.append((output, pairs))

    def __len__(self) -> int:
        return len(self._ops)


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` for everything on the tape.

    `loss` must be a scalar produced under `tape`. Re-invoking backward on a
    consumed tape raises; a second pass means a fresh forward under a new
    tape. A `.grad` that is already an array is added into in place; a
    tensor the loss does not reach keeps the `.grad` it had.
    """
    if loss.values.ndim != 0:
        raise GraphError(f"loss must be scalar, got shape {loss.values.shape}")
    if tape._consumed:
        raise GraphError("backward() already ran on this tape; build a fresh tape")
    tape._consumed = True
    loss.accumulate_grad(np.ones_like(loss.values))
    for out, pairs in reversed(tape._ops):
        if out.grad is None:
            continue  # not on any path to the loss
        for t, grad_fn in pairs:
            t.accumulate_grad(_unbroadcast(grad_fn(out.grad), t.values.shape))


def emit(values: np.ndarray, *pairs: tuple[Tensor, GradFn]) -> Tensor:
    """The op output `values`, taped with the (input, local gradient) pairs
    whose input requires a gradient; it requires one iff any pair is kept.
    An input may appear in several pairs; `backward` adds them in order."""
    kept = [pair for pair in pairs if pair[0].requires_grad]
    out = Tensor(values, requires_grad=bool(kept))
    if kept and _tape_stack:
        _tape_stack[-1].record(out, kept)
    return out


def _check_broadcast(shape_a: tuple[int, ...], shape_b: tuple[int, ...], op: str,
                     allow_row: bool) -> None:
    """Raise unless the shapes agree, one is a scalar's, or (with
    `allow_row`) b is a 1xH row against a BxH a."""
    if shape_a == shape_b or not shape_a or not shape_b:
        return
    if allow_row and len(shape_a) == 2 and shape_b == (1, shape_a[1]):
        return
    raise ShapeError(f"{op}: incompatible shapes {shape_a} and {shape_b}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The output gradient `g` summed back to an operand of `shape`."""
    if g.shape == shape:
        return g
    if not shape:
        return g.sum()
    return g.sum(axis=0, keepdims=True)  # a 1xH row


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.values.shape, b.values.shape, "add", allow_row=True)
    return emit(a.values + b.values, (a, lambda g: g), (b, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.values.shape, b.values.shape, "sub", allow_row=True)
    return emit(a.values - b.values, (a, lambda g: g), (b, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; same shape or scalar-vs-tensor only."""
    _check_broadcast(a.values.shape, b.values.shape, "mul", allow_row=False)
    return emit(a.values * b.values,
                (a, lambda g: g * b.values), (b, lambda g: g * a.values))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return emit(a.values * c, (a, lambda g: g * c))


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
    _check_broadcast(product.shape, bias.values.shape, "matmul", allow_row=True)
    return emit(product + bias.values, *pairs, (bias, lambda g: g))


def exp(a: Tensor) -> Tensor:
    out_values = np.exp(a.values)
    return emit(out_values, (a, lambda g: g * out_values))


def log(a: Tensor) -> Tensor:
    if np.any(a.values <= 0.0):
        raise DomainError("log: all values must be positive")
    return emit(np.log(a.values), (a, lambda g: g / a.values))


def tanh(a: Tensor) -> Tensor:
    out_values = np.tanh(a.values)
    return emit(out_values, (a, lambda g: g * (1.0 - out_values * out_values)))


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


def xlogx_values(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p*log(p) and its derivative log(p)+1, both 0 where p = 0; p must be
    non-negative (not checked)."""
    positive = p > 0.0
    log_p = np.log(np.where(positive, p, 1.0))
    return np.where(positive, p * log_p, 0.0), np.where(positive, log_p + 1.0, 0.0)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Hard clamp; gradient passes only where lo <= value <= hi."""
    mask = (a.values >= lo) & (a.values <= hi)
    return emit(np.clip(a.values, lo, hi), (a, lambda g: g * mask))


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log-probabilities, stabilized by max subtraction."""
    out_values = log_softmax_values(a.values)
    # the softmax is only materialized if the backward pass reaches this op
    return emit(out_values, (a, lambda g: log_softmax_grad(g, np.exp(out_values))))


def log_softmax_values(x: np.ndarray) -> np.ndarray:
    """The values of `log_softmax` for a BxC array, C >= 2."""
    if x.ndim != 2:
        raise ShapeError(f"log_softmax: expected BxC input, got {x.shape}")
    if x.shape[1] < 2:
        raise ShapeError("log_softmax: need at least 2 columns")
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def log_softmax_grad(g: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """log_softmax's local gradient, given its output gradient `g` and
    `probs`, the exp of its output."""
    return g - probs * g.sum(axis=1, keepdims=True)


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


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise standardization (no affine parameters)."""
    if a.values.ndim != 2:
        raise ShapeError(f"layer_norm: expected 2-D input, got {a.values.shape}")
    mean = a.values.mean(axis=1, keepdims=True)
    var = a.values.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    y = (a.values - mean) * inv_std
    return emit(y, (a, lambda g: inv_std * (g - g.mean(axis=1, keepdims=True)
                                            - y * (g * y).mean(axis=1, keepdims=True))))


def zero_grads(tensors) -> None:
    for t in tensors:
        t.zero_grad()
