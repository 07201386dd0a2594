import ast
import collections
import math
import pathlib

import numpy as np
import pytest

from gradcheck import finite_diff_grad, max_grad_rel_err, rel_err
from primitives import (DomainError, add, clip, exp, layer_norm, log, log_softmax, matmul, mul,
                        reduce_mean, reduce_sum, relu, scale, sub, tanh, xlogx)
import spc.data
from spc import diffcore
from spc.diffcore import GraphError, ShapeError, Tape, Tensor, backward, emit, param
from spc.encoder import forward, init_encoder, init_vib
from spc.objectives import ObjectiveConfig, spc_loss
from spc.trainer import batch_loss


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
        assert float(exp(Tensor(0.0)).values) == 1.0

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
        assert float(y.values) == 0.0
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
        assert float(reduce_mean(Tensor([1.0, 2.0, 3.0])).values) == 2.0

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

    def test_local_gradient_of_another_shape_is_rejected(self):
        # nothing is summed back over a broadcast: an op hands each input
        # its gradient at the input's shape
        p = param(np.ones((1, 2)))
        with Tape() as tape:
            loss = emit(np.array(2.0), (p, lambda g: np.full((3, 2), g)))
        with pytest.raises(GraphError, match=r"shape \(3, 2\).*shape \(1, 2\)"):
            backward(loss, tape)


class TestReadoutOps:
    """A readout, `encoder.forward` with no noise on plain arrays, gives the
    values of the differentiable reference chain, bit for bit, and tapes
    nothing."""

    @pytest.mark.parametrize("kind, use_layer_norm",
                             [("encoder", False), ("encoder", True), ("vib", False)])
    def test_values_are_the_reference_ops_and_nothing_is_taped(self, kind, use_layer_norm):
        if kind == "vib":
            model = init_vib(5, 6, 4, 3, rng=9, use_layer_norm=use_layer_norm)
        else:
            model = init_encoder(5, 6, 3, rng=9, use_layer_norm=use_layer_norm)
        w = model.tensors
        x = param(np.random.default_rng(9).normal(size=(4, 5)))
        with Tape() as tape:
            mu, _, readout, _ = forward(model, x.values, None)
        assert len(tape) == 0 and type(readout) is np.ndarray
        with Tape() as tape:
            pre = matmul(x, w["w_in"], w["b_in"])
            reference = matmul(tanh(layer_norm(pre) if use_layer_norm else pre),
                               w["w_mu"], w["b_mu"])
            assert mu.tobytes() == reference.values.tobytes()
            if kind == "vib":
                reference = matmul(tanh(matmul(reference, w["w_dec1"], w["b_dec1"])),
                                   w["w_dec2"], w["b_dec2"])
        assert len(tape) == 3 + use_layer_norm + 3 * (kind == "vib")
        assert readout.tobytes() == reference.values.tobytes()


def test_diffcore_is_the_tape_and_matmul():
    """`spc.diffcore` defines the tape and the model's affine layer `matmul`,
    nothing more."""
    tree = ast.parse(pathlib.Path(diffcore.__file__).read_text())
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined == {"Tensor", "param", "Tape", "backward", "emit", "matmul", "ShapeError",
                       "GraphError"}


def _callers(name: str) -> list[str]:
    """The `module.top_level_name` around each call of `name` in `spc`, once per call."""
    package = pathlib.Path(spc.data.__file__).parent
    callers = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            calls = [node for node in ast.walk(top) if isinstance(node, ast.Call)
                     and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]
            callers += [f"{path.stem}.{getattr(top, 'name', '<module>')}"] * len(calls)
    return callers


def test_only_the_training_step_emits():
    """A training step is the one taped op of `spc`: `emit` is called in
    `trainer.batch_loss` alone, and the readout ops tape nothing."""
    assert _callers("emit") == ["trainer.batch_loss"]
    assert not hasattr(diffcore, "_unbroadcast")


def test_only_the_tape_and_the_affine_operands_build_tensors():
    """A `Tensor` is built only where the tape or `bench/tracer.py` reads
    `.values`: a parameter (`param`), an op's output (`emit`) and the affine
    layer's operands (`encoder.forward`)."""
    assert set(_callers("Tensor")) == {"diffcore.param", "diffcore.emit", "encoder.forward"}


def test_the_affine_layer_and_the_loss_hand_back_plain_values():
    """`matmul` returns the array it computes, and `spc_loss` a total of plain
    floats; `trainer.batch_loss` emits the step's one taped scalar from it."""
    rng = np.random.default_rng(39)
    layer = diffcore.matmul(Tensor(rng.normal(size=(4, 3))), param(rng.normal(size=(3, 2))),
                            param(rng.normal(size=(1, 2))))
    assert type(layer) is np.ndarray
    objective = ObjectiveConfig(kind="spc", beta=0.1, gamma=0.2)
    terms, _ = spc_loss(layer, layer, layer, [0, 1, 1, 0], objective)
    assert terms.total is None and type(terms.total_value) is float
    model = init_encoder(3, 5, 2, rng=39)
    with Tape() as tape:
        step = batch_loss(model, rng.normal(size=(4, 3)), [0, 1, 1, 0], objective,
                          rng.normal(size=(4, 2)))
    assert len(tape) == 1 and step.total.values.ndim == 0
    assert step.total.values.tobytes() == np.float64(step.total_value).tobytes()


def test_only_the_forward_runs_the_layers():
    """`encoder.forward` is the one place the model's layers are computed,
    for training and readouts alike: `matmul` is called in it alone."""
    callers = _callers("matmul")
    assert callers and set(callers) == {"encoder.forward"}


# used outside the package only: README's Library usage block calls it
README_ONLY = {"RunReport.run_hash"}


def _uses(tree: ast.AST) -> tuple[collections.Counter, collections.Counter]:
    """Function and class uses in `tree`, by name (an import alias read as
    the name it binds, `module.name` for a module imported from the
    package), and attribute reads, by attribute name."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for alias in node.names}
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}
    names, attrs = collections.Counter(), collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[aliases.get(node.id, node.id)] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                names[node.attr] += 1
    return names, attrs


def test_every_name_in_spc_is_used_in_spc():
    """The package holds only what it runs: each top-level function or class
    of an `spc` module, and each method, private or public (dunders aside),
    is used somewhere in `spc` outside its own definition, so a helper left
    behind by a deletion fails here. A re-export in `spc/__init__` is not a
    use, and a dataclass field of the same name (`LossTerms.penalty`) is not
    a use of a function. Test-only code belongs in `tests/`."""
    package = pathlib.Path(spc.data.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"}
    names, attrs = collections.Counter(), collections.Counter()
    for tree in trees.values():
        tree_names, tree_attrs = _uses(tree)
        names += tree_names
        attrs += tree_attrs
    # `trainer.perturbation_study` looks each perturbation up by its name
    names.update(spc.data.RATIOS.keys())

    def defined(body):
        return [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))]

    unused = []
    for module, tree in trees.items():
        for node in defined(tree.body):
            if names[node.name] == _uses(node)[0][node.name]:
                unused.append(f"{module}.{node.name}")
            for method in defined(node.body) if isinstance(node, ast.ClassDef) else []:
                qualified = f"{node.name}.{method.name}"
                if (attrs[method.name] == _uses(method)[1][method.name]
                        and qualified not in README_ONLY):
                    unused.append(f"{module}.{qualified}")
    assert trees.keys() >= {"cli", "data", "diffcore", "encoder", "metrics", "objectives", "trainer"}
    assert unused == []


def _own_nodes(function: ast.AST):
    """The nodes of `function`'s own body, not those of a function, lambda or
    class defined in it."""
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_no_generator_in_spc_opens_a_file():
    """A generator that opens a file leaves it open until the generator is
    closed or collected, which its caller must know to do: a reader takes an
    open file instead, and only a `contextlib.contextmanager` opens one for a
    block (`data._lines`, `data.write_atomic`)."""
    package = pathlib.Path(spc.data.__file__).parent
    owners, managers = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = list(_own_nodes(node))
            opens = any(isinstance(call, ast.Call) and (
                getattr(call.func, "id", None) == "open" or getattr(call.func, "attr", None) == "open")
                for call in own)
            if not (opens and any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own)):
                continue
            if any(ast.unparse(d) == "contextlib.contextmanager" for d in node.decorator_list):
                managers.append(f"{path.stem}.{node.name}")
            else:
                owners.append(f"{path.stem}.{node.name}")
    assert owners == []
    assert managers == ["data._lines", "data.write_atomic"]


def test_readme_library_usage_runs(tmp_path, monkeypatch, capsys):
    """README's Library usage block runs as written and calls each name
    that the guard above keeps for it alone."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library usage", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert all(f".{name.split('.')[1]}(" in block for name in README_ONLY)
    monkeypatch.chdir(tmp_path)  # anything it writes lands here
    exec(compile(block, "README.md", "exec"), {})
    macro_f1, run_hash = capsys.readouterr().out.split()
    assert 0.0 <= float(macro_f1) <= 1.0 and len(run_hash) == 64
