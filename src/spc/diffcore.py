"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything is deliberately small: 2-D (or scalar) arrays, a handful of ops,
and one explicit `Tape` per forward pass. All storage is 64-bit so that
analytic gradients can be checked against central finite differences to
tight tolerances.

Broadcasting is restricted to two cases: scalar-vs-tensor, and adding a
1xH row vector (a bias) to a BxH matrix. Nothing else is implicit.
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


def active_tape() -> "Tape | None":
    return _tape_stack[-1] if _tape_stack else None


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
            self.grad = np.zeros_like(self.values)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all graph building goes through the module-level ops
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
        self._ops: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not _tape_stack or _tape_stack[-1] is not self:
            raise GraphError("tape stack corrupted: exiting a tape that is not active")
        _tape_stack.pop()

    def record(self, output: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        self._ops.append((output, backward_fn))

    def __len__(self) -> int:
        return len(self._ops)


def backward(loss: Tensor, tape: Tape, params: list[Tensor] | None = None) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` for everything on the tape.

    `loss` must be a scalar produced under `tape`. Re-invoking backward on a
    consumed tape raises; a second pass means a fresh forward under a new
    tape. Parameters in `params` that the loss does not reach get an
    explicit zero gradient.
    """
    if loss.values.ndim != 0:
        raise GraphError(f"loss must be scalar, got shape {loss.values.shape}")
    if tape._consumed:
        raise GraphError("backward() already ran on this tape; build a fresh tape")
    tape._consumed = True
    loss.accumulate_grad(np.ones_like(loss.values))
    for out, backward_fn in reversed(tape._ops):
        if out.grad is None:
            continue  # not on any path to the loss
        backward_fn(out.grad)
    if params is not None:
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.values)


def _emit(values: np.ndarray, inputs: tuple[Tensor, ...],
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(values, requires_grad=any(t.requires_grad for t in inputs))
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(out, backward_fn)
    return out


def _check_broadcast(a: Tensor, b: Tensor, op: str, allow_row: bool) -> None:
    """Raise unless a and b share a shape, one is a scalar, or (with
    `allow_row`) b is a 1xH row against a BxH a."""
    shape_a, shape_b = a.values.shape, b.values.shape
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
    _check_broadcast(a, b, "add", allow_row=True)
    out_values = a.values + b.values

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.values.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.values.shape))

    return _emit(out_values, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub", allow_row=True)
    out_values = a.values - b.values

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.values.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.values.shape))

    return _emit(out_values, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; same shape or scalar-vs-tensor only."""
    _check_broadcast(a, b, "mul", allow_row=False)
    out_values = a.values * b.values

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.values, a.values.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.values, b.values.shape))

    return _emit(out_values, (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return _emit(a.values * c, (a,), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; gradients dL/da = g @ b.T, dL/db = a.T @ g."""
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(f"matmul: expected 2-D operands, got {a.values.shape} and {b.values.shape}")
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.values.shape} vs {b.values.shape}")
    out_values = a.values @ b.values

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.values.T)
        if b.requires_grad:
            b.accumulate_grad(a.values.T @ g)

    return _emit(out_values, (a, b), backward_fn)


def exp(a: Tensor) -> Tensor:
    out_values = np.exp(a.values)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g * out_values)

    return _emit(out_values, (a,), backward_fn)


def log(a: Tensor) -> Tensor:
    if np.any(a.values <= 0.0):
        raise DomainError("log: all values must be positive")
    out_values = np.log(a.values)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g / a.values)

    return _emit(out_values, (a,), backward_fn)


def tanh(a: Tensor) -> Tensor:
    out_values = np.tanh(a.values)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g * (1.0 - out_values * out_values))

    return _emit(out_values, (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0.0
    out_values = np.where(mask, a.values, 0.0)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g * mask)

    return _emit(out_values, (a,), backward_fn)


def xlogx(a: Tensor) -> Tensor:
    """Elementwise p*log(p) with the entropy convention 0*log(0) = 0.

    The derivative log(p)+1 is reported as 0 at p = 0 to keep gradients
    finite; callers that differentiate through this op should stay in the
    open interval.
    """
    if np.any(a.values < 0.0):
        raise DomainError("xlogx: values must be non-negative")
    positive = a.values > 0.0
    safe = np.where(positive, a.values, 1.0)
    out_values = np.where(positive, a.values * np.log(safe), 0.0)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g * np.where(positive, np.log(safe) + 1.0, 0.0))

    return _emit(out_values, (a,), backward_fn)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Hard clamp; gradient passes only where lo <= value <= hi."""
    mask = (a.values >= lo) & (a.values <= hi)
    out_values = np.clip(a.values, lo, hi)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g * mask)

    return _emit(out_values, (a,), backward_fn)


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log-probabilities, stabilized by max subtraction."""
    if a.values.ndim != 2:
        raise ShapeError(f"log_softmax: expected BxC input, got {a.values.shape}")
    if a.values.shape[1] < 2:
        raise ShapeError("log_softmax: need at least 2 columns")
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    out_values = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def backward_fn(g):
        if a.requires_grad:
            softmax = np.exp(out_values)
            a.accumulate_grad(g - softmax * g.sum(axis=1, keepdims=True))

    return _emit(out_values, (a,), backward_fn)


def _check_axis(a: Tensor, axis: int | None) -> None:
    if axis is None:
        return
    if not isinstance(axis, int) or axis < 0 or axis >= a.values.ndim:
        raise ShapeError(f"reduce: axis {axis} invalid for shape {a.values.shape}")


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum over all elements (axis=None, scalar result) or one axis (keepdims)."""
    _check_axis(a, axis)
    if axis is None:
        out_values = a.values.sum()
    else:
        out_values = a.values.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(np.broadcast_to(g, a.values.shape).copy())

    return _emit(out_values, (a,), backward_fn)


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    _check_axis(a, axis)
    if axis is None:
        n = a.values.size
        out_values = a.values.mean()
    else:
        n = a.values.shape[axis]
        out_values = a.values.mean(axis=axis, keepdims=True)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(np.broadcast_to(g, a.values.shape) / n)

    return _emit(out_values, (a,), backward_fn)


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise standardization (no affine parameters)."""
    if a.values.ndim != 2:
        raise ShapeError(f"layer_norm: expected 2-D input, got {a.values.shape}")
    mean = a.values.mean(axis=1, keepdims=True)
    var = a.values.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    out_values = (a.values - mean) * inv_std

    def backward_fn(g):
        if a.requires_grad:
            g_mean = g.mean(axis=1, keepdims=True)
            gy_mean = (g * out_values).mean(axis=1, keepdims=True)
            a.accumulate_grad(inv_std * (g - g_mean - out_values * gy_mean))

    return _emit(out_values, (a,), backward_fn)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.zero_grad()
