"""Dense float64 tensors with tape-based reverse-mode differentiation.

The module is the tape: `Tensor`, one explicit `Tape` per forward pass,
`emit` and `backward`. A training step is one op (`trainer.batch_loss`),
with a hand-written backward. Storage is 64-bit, so analytic gradients
can be checked against central finite differences to tight tolerances.
`matmul`, the model's affine layer, tapes nothing and returns an array; a
`Tensor` is built only in `param`, in `emit` and for `matmul`'s operands,
which `bench/tracer.py` reads while it counts the flops (ROADMAP item 4).

Op contract: an op computes its output values and hands `emit` one
(input, local-gradient function) pair per input; the function maps the
output gradient `g` to that input's local gradient, of the input's shape.
`emit` keeps the pairs whose input requires a gradient, and tapes the
output (which then requires one) iff any pair is kept. `backward`
accumulates each local gradient into that input's `.grad`; one of another
shape is a `GraphError`, as nothing is summed back over a broadcast. The
training step's one op hands `emit` one pair per model tensor; the first
pair `backward` calls runs the whole hand-written backward, and each pair
returns its tensor's gradient.

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
            g = grad_fn(out.grad)
            if np.shape(g) != t.values.shape:
                raise GraphError(f"a local gradient of shape {np.shape(g)} "
                                 f"for an input of shape {t.values.shape}")
            t.accumulate_grad(g)


def emit(values: np.ndarray, *pairs: tuple[Tensor, GradFn]) -> Tensor:
    """The op output `values`, taped with the (input, local gradient) pairs
    whose input requires a gradient; it requires one iff any pair is kept.
    An input may appear in several pairs; `backward` adds them in order."""
    kept = [pair for pair in pairs if pair[0].requires_grad]
    out = Tensor(values, requires_grad=bool(kept))
    if kept and _tape_stack:
        _tape_stack[-1].record(out, kept)
    return out


def matmul(a: Tensor, b: Tensor, bias: Tensor) -> np.ndarray:
    """The layer `a @ b + bias`, for a 1xH `bias` row (added in place)."""
    out = a.values @ b.values
    out += bias.values
    return out
