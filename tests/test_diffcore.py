import ast
import math
import pathlib

import numpy as np
import pytest

from gradcheck import finite_diff_grad, max_grad_rel_err, rel_err
from primitives import add, exp, log, log_softmax, reduce_mean, reduce_sum, relu, scale, sub, xlogx
import spc.diffcore
from spc.diffcore import (
    GraphError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    clip,
    layer_norm,
    matmul,
    mul,
    param,
    tanh,
)
from spc.objectives import DomainError


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).values, [[1.0, 2.0], [3.0, 4.0]])

    def test_zeros_annihilate(self):
        out = matmul(Tensor(np.zeros((2, 3))), Tensor(np.random.default_rng(0).normal(size=(3, 4))))
        assert np.array_equal(out.values, np.zeros((2, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_identity_gradcheck_tight(self):
        a = param(np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = param(np.array([[0.7, -1.2], [0.3, 2.1]]))
        err = max_grad_rel_err(lambda: reduce_sum(mul(matmul(a, b), matmul(a, b))), [a, b])
        assert err < 1e-6

    def test_random_gradcheck(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = param(rng.normal(size=(3, 4)))
            b = param(rng.normal(size=(4, 2)))
            w = Tensor(rng.normal(size=(3, 2)))
            assert max_grad_rel_err(lambda: reduce_sum(mul(matmul(a, b), w)), [a, b]) < 1e-4


class TestElementwise:
    def test_exp_zero(self):
        assert exp(Tensor(0.0)).item() == 1.0

    def test_tanh_grad_at_zero(self):
        x = param(np.array([[0.0]]))
        with Tape() as tape:
            y = reduce_sum(tanh(x))
        backward(y, tape)
        numeric = finite_diff_grad(lambda: float(np.tanh(x.values).sum()), x.values)
        assert abs(x.grad[0, 0] - 1.0) < 1e-12
        assert rel_err(numeric, x.grad) < 1e-9

    def test_relu_negative(self):
        x = param(np.array([[-3.0]]))
        with Tape() as tape:
            y = reduce_sum(relu(x))
        assert y.item() == 0.0
        backward(y, tape)
        assert x.grad[0, 0] == 0.0

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            log(Tensor([[1.0, 0.0]]))

    def test_xlogx_zero_convention(self):
        out = xlogx(Tensor([[0.0, 0.5, 1.0]]))
        assert out.values[0, 0] == 0.0
        assert abs(out.values[0, 1] - 0.5 * math.log(0.5)) < 1e-15
        assert out.values[0, 2] == 0.0

    def test_scalar_broadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(add(a, Tensor(1.0)).values, [[2.0, 3.0], [4.0, 5.0]])
        assert np.array_equal(mul(a, Tensor(2.0)).values, [[2.0, 4.0], [6.0, 8.0]])

    @pytest.mark.parametrize("op, operand, expected", [
        pytest.param(add, [[10.0, 20.0]], [[2.0, 2.0]], id="row-add"),
        pytest.param(sub, [[10.0, 20.0]], [[-2.0, -2.0]], id="row-sub"),
        pytest.param(add, 10.0, 4.0, id="scalar-add"),
        pytest.param(mul, 10.0, 10.0, id="scalar-mul"),  # the sum of x
    ])
    def test_row_bias_broadcast_grad(self, op, operand, expected):
        x = param(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = param(np.array(operand))
        with Tape() as tape:
            y = reduce_sum(op(x, b))
        backward(y, tape)
        assert b.grad.shape == b.values.shape
        assert np.array_equal(b.grad, expected)

    def test_disallowed_broadcast(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 1))))
        with pytest.raises(ShapeError):
            mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3))))

    @pytest.mark.parametrize("op,make", [
        ("exp", lambda rng: (exp, rng.normal(size=(3, 3)))),
        ("log", lambda rng: (log, rng.uniform(0.2, 3.0, size=(3, 3)))),
        ("tanh", lambda rng: (tanh, rng.normal(size=(3, 3)))),
        ("relu", lambda rng: (relu, np.sign(rng.normal(size=(3, 3))) * rng.uniform(0.1, 2.0, size=(3, 3)))),
        ("xlogx", lambda rng: (xlogx, rng.uniform(0.05, 1.0, size=(3, 3)))),
    ])
    def test_unary_gradcheck(self, op, make):
        rng = np.random.default_rng(hash(op) % 2**32)
        for _ in range(10):
            fn, values = make(rng)
            x = param(values)
            w = Tensor(rng.normal(size=values.shape))
            assert max_grad_rel_err(lambda: reduce_sum(mul(fn(x), w)), [x]) < 1e-4


class TestLogSoftmax:
    def test_symmetric(self):
        out = log_softmax(Tensor([[0.0, 0.0]]))
        assert np.allclose(out.values, math.log(0.5), atol=1e-15)

    def test_stability(self):
        out = log_softmax(Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.values))
        assert abs(np.exp(out.values).sum() - 1.0) <= 1e-12

    def test_rows_sum_to_one_large_magnitudes(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            logits = rng.uniform(-1e4, 1e4, size=(4, 6))
            out = log_softmax(Tensor(logits))
            sums = np.exp(out.values).sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        x = param(rng.normal(size=(4, 5)))
        w = Tensor(rng.normal(size=(4, 5)))
        assert max_grad_rel_err(lambda: reduce_sum(mul(log_softmax(x), w)), [x]) < 1e-5

    def test_needs_two_columns(self):
        with pytest.raises(ShapeError):
            log_softmax(Tensor([[1.0]]))


class TestReduce:
    def test_mean(self):
        assert reduce_mean(Tensor([1.0, 2.0, 3.0])).item() == 2.0

    def test_sum_grad_all_ones(self):
        x = param(np.arange(6.0).reshape(2, 3))
        with Tape() as tape:
            y = reduce_sum(x)
        backward(y, tape)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_mean_axis0(self):
        out = reduce_mean(Tensor([[1.0, 3.0], [3.0, 5.0]]), axis=0)
        assert np.array_equal(out.values, [[2.0, 4.0]])

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            reduce_sum(Tensor([[1.0]]), axis=2)


class TestClipAndLayerNorm:
    def test_clip_values_and_grad(self):
        x = param(np.array([[-9.0, 0.0, 9.0]]))
        with Tape() as tape:
            y = reduce_sum(clip(x, -8.0, 8.0))
        assert np.array_equal(y.values, -8.0 + 0.0 + 8.0)
        backward(y, tape)
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])

    def test_layer_norm_rows_standardized(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(5, 8)) * 3 + 1)
        out = layer_norm(x).values
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-4)

    def test_layer_norm_gradcheck(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = param(rng.normal(size=(3, 6)))
            w = Tensor(rng.normal(size=(3, 6)))
            assert max_grad_rel_err(lambda: reduce_sum(mul(layer_norm(x), w)), [x]) < 1e-4


class TestBackward:
    def test_sum_of_param_grad_ones(self):
        p = param(np.zeros((3, 2)))
        with Tape() as tape:
            loss = reduce_sum(p)
        backward(loss, tape)
        assert np.array_equal(p.grad, np.ones((3, 2)))

    def test_composite_end_to_end(self):
        rng = np.random.default_rng(6)
        w1 = param(rng.normal(size=(4, 5)))
        w2 = param(rng.normal(size=(5, 3)))
        b = param(rng.normal(size=(1, 3)))
        x = Tensor(rng.normal(size=(2, 4)))

        def loss_fn():
            h = tanh(matmul(x, w1))
            logits = add(matmul(h, w2), b)
            return scale(reduce_sum(mul(log_softmax(logits), log_softmax(logits))), 0.5)

        assert max_grad_rel_err(loss_fn, [w1, w2, b]) < 1e-4

    def test_double_backward_errors(self):
        p = param(np.ones((2, 2)))
        with Tape() as tape:
            loss = reduce_sum(p)
        backward(loss, tape)
        with pytest.raises(GraphError):
            backward(loss, tape)

    def test_shared_subexpression_accumulates(self):
        x = param(np.array(3.0))
        with Tape() as tape:
            y = add(x, x)
        backward(y, tape)
        assert x.grad == 2.0

    @pytest.mark.parametrize("own_grad", [False, True], ids=["fresh", "zeroed-view"])
    def test_negative_zero_first_gradient_lands_as_positive_zero(self, own_grad):
        g = np.array([[-0.0, 1.5, -2.0]])
        p = param(np.ones((1, 3)))
        if own_grad:  # a view of a zeroed flat buffer, as `trainer.train` gives
            buffer = np.zeros(5)
            p.grad = buffer[1:4].reshape(1, 3)
        p.accumulate_grad(g)
        assert p.grad.tobytes() == (np.zeros((1, 3)) + g).tobytes()
        assert not np.signbit(p.grad[0, 0])

    def test_backward_adds_into_a_caller_owned_grad(self):
        buffer = np.zeros(6)
        p = param(np.ones((2, 2)))
        q = param(np.ones((1, 2)))
        p.grad, q.grad = buffer[:4].reshape(2, 2), buffer[4:].reshape(1, 2)
        view = p.grad
        with Tape() as tape:
            loss = reduce_sum(add(scale(p, 3.0), q))
        backward(loss, tape)
        assert p.grad is view
        assert np.array_equal(buffer, [3.0, 3.0, 3.0, 3.0, 2.0, 2.0])

    def test_op_on_constants_is_not_taped(self):
        with Tape() as tape:
            out = mul(exp(Tensor([[1.0, 2.0]])), Tensor(3.0))
        assert len(tape) == 0
        assert not out.requires_grad

    def test_constant_operand_gets_no_grad(self):
        p = param(np.array([[1.0, 2.0]]))
        c = Tensor(np.array([[3.0, 4.0]]))
        with Tape() as tape:
            loss = reduce_sum(matmul(mul(p, c), Tensor(np.ones((2, 1)))))
        assert len(tape) == 3
        backward(loss, tape)
        assert np.array_equal(p.grad, [[3.0, 4.0]])
        assert c.grad is None

    def test_non_scalar_loss_rejected(self):
        p = param(np.ones((2, 2)))
        with Tape() as tape:
            out = add(p, p)
        with pytest.raises(GraphError):
            backward(out, tape)


def test_every_public_diffcore_function_is_called_from_spc():
    """The core holds only what the package runs: a public function of
    `spc.diffcore` is called from another `spc` module, not only from tests.
    Test-only ops belong in `tests/primitives.py`."""
    package = pathlib.Path(spc.diffcore.__file__).parent
    defined = {node.name for node in ast.parse((package / "diffcore.py").read_text()).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for path in package.glob("*.py"):
        if path.name == "diffcore.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "diffcore"
                    for alias in node.names}
        called |= {imported[node.func.id] for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in imported}
    assert defined and sorted(defined - called) == []
