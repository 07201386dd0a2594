"""Shared finite-difference oracle for gradient tests.

Central differences with step h on 64-bit values; the comparison is the
max elementwise deviation scaled by the larger gradient magnitude.
"""

import numpy as np

from spc.diffcore import Tape, backward


def finite_diff_grad(value_fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """d(value_fn)/dx by central differences, perturbing x in place."""
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        f_plus = value_fn()
        flat_x[i] = orig - h
        f_minus = value_fn()
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    num = float(np.max(np.abs(a - b))) if a.size else 0.0
    den = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    if den == 0.0:
        return num
    return num / den


def max_grad_rel_err(loss_fn, params, h: float = 1e-5) -> float:
    """Worst relative error between backward() and finite differences.

    `loss_fn` must rebuild the loss from the current parameter values on
    every call (it is invoked under a tape once, then repeatedly without
    one for the numeric probe).
    """
    for p in params:  # caller-owned buffers: a parameter the loss misses keeps 0
        p.grad = np.zeros_like(p.values)
    with Tape() as tape:
        loss = loss_fn()
    backward(loss, tape)
    analytic = [p.grad.copy() for p in params]
    for p in params:
        p.grad = None

    def value():
        return float(loss_fn().values)

    worst = 0.0
    for p, g in zip(params, analytic):
        numeric = finite_diff_grad(value, p.values, h=h)
        worst = max(worst, rel_err(numeric, g))
    return worst
