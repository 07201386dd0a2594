"""Dense float64 tensors with tape-based reverse-mode differentiation.

The core holds what training tapes: `Tensor`, one explicit `Tape` per
forward pass, `emit`, `backward`, and the five ops the encoder calls
(`matmul`, `mul`, `tanh`, `clip`, `layer_norm`). Each loss term, and their
weighted total, is an op built on `emit` in `objectives`. Storage is
64-bit, so analytic gradients can be checked against central finite
differences to tight tolerances.

Broadcasting has two cases, nothing else is implicit: `mul` of a scalar
and a tensor, and the optional bias of `matmul(a, b, bias)`, which
computes `a @ b + bias` as one op for a 1xH row, a scalar or a full
matrix bias.

Op contract: an op computes its output values and hands `emit` one
(input, local-gradient function) pair per input; the function maps the
output gradient `g` to that input's local gradient (`tanh`:
`g * (1 - out**2)`; `matmul`: `g @ b.T` and `a.T @ g`; `mul`'s right
operand: `g * a`). `emit` keeps the pairs whose input requires a
gradient, and tapes the output (which then requires one) iff any pair is
kept. `backward` sums each local gradient back over a broadcast operand's
shape and accumulates it into that input's `.grad`.

Fused ops. A layer or a loss term computes the NumPy expressions of the
primitive chain it replaced (kept in `tests/primitives.py`) in the same
order, and hands `emit` one pair per use of an input in that chain, in
the order `backward` reached them, so no bit moves. Only a zero inside a
fused op's gradient may keep a -0.0 sign, which a leaf's fresh or
+0.0-zeroed gradient turns into +0.0.

Gradient buffers belong to the caller. A `.grad` of None becomes a fresh
array equal to `zeros + g` bit for bit; an array `.grad` (for example a
view of one flat gradient vector, see `trainer.train`) is added into in
place, and the caller zeroes it between passes. A tensor the loss does
not reach keeps the `.grad` it had.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


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

    def item(self) -> float:
        return float(self.values)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a fresh array equal to zeros + g bit for bit (-0.0 becomes +0.0)
            self.grad = np.add(g, 0.0)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; same shape or scalar-vs-tensor only."""
    _check_broadcast(a.values.shape, b.values.shape, "mul", allow_row=False)
    return emit(a.values * b.values,
                (a, lambda g: g * b.values), (b, lambda g: g * a.values))


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


def tanh(a: Tensor) -> Tensor:
    out_values = np.tanh(a.values)
    return emit(out_values, (a, lambda g: g * (1.0 - out_values * out_values)))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Hard clamp; gradient passes only where lo <= value <= hi."""
    mask = (a.values >= lo) & (a.values <= hi)
    return emit(np.clip(a.values, lo, hi), (a, lambda g: g * mask))


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
        t.grad = None
