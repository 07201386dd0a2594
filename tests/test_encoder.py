import hashlib

import numpy as np
import pytest

from gradcheck import max_grad_rel_err
from primitives import reduce_mean
from spc.diffcore import ShapeError, Tape, Tensor, backward, param
from spc.encoder import (
    EncoderParams,
    encode,
    init_encoder,
    init_vib,
    load_checkpoint,
    load_checkpoint_payload,
    sample,
    save_checkpoint,
)
from spc.trainer import model_outputs


def zero_encoder(input_dim=3, hidden_dim=4, out_dim=2) -> EncoderParams:
    return EncoderParams(
        w_in=param(np.zeros((input_dim, hidden_dim))),
        b_in=param(np.zeros((1, hidden_dim))),
        w_mu=param(np.zeros((hidden_dim, out_dim))),
        b_mu=param(np.zeros((1, out_dim))),
        w_lv=param(np.zeros((hidden_dim, out_dim))),
        b_lv=param(np.zeros((1, out_dim))),
    )


class TestEncode:
    def test_zero_network(self):
        code = encode(zero_encoder(), Tensor(np.ones((5, 3))))
        assert np.array_equal(code.mu.values, np.zeros((5, 2)))
        assert np.array_equal(code.log_var.values, np.zeros((5, 2)))

    def test_output_shape(self):
        params = init_encoder(7, 16, 4, rng=0)
        code = encode(params, Tensor(np.random.default_rng(0).normal(size=(9, 7))))
        assert code.mu.values.shape == (9, 4)
        assert code.log_var.values.shape == (9, 4)

    def test_dimension_mismatch(self):
        params = init_encoder(7, 16, 4, rng=0)
        with pytest.raises(ShapeError):
            encode(params, Tensor(np.zeros((2, 5))))

    def test_log_var_clamped(self):
        params = zero_encoder()
        params.b_lv.values[:] = 50.0
        code = encode(params, Tensor(np.zeros((3, 3))))
        assert np.all(code.log_var.values == 8.0)

    def test_trunk_gradcheck(self):
        rng = np.random.default_rng(7)
        params = init_encoder(5, 6, 3, rng=rng)
        x = Tensor(rng.normal(size=(4, 5)))
        err = max_grad_rel_err(lambda: reduce_mean(encode(params, x).mu),
                               params.parameters())
        assert err < 1e-4

    def test_layer_norm_trunk_gradcheck(self):
        rng = np.random.default_rng(8)
        params = init_encoder(5, 6, 3, rng=rng, use_layer_norm=True)
        x = Tensor(rng.normal(size=(4, 5)))
        err = max_grad_rel_err(lambda: reduce_mean(encode(params, x).mu),
                               params.parameters())
        assert err < 1e-4


class TestSample:
    def test_zero_eps_returns_mu(self):
        rng = np.random.default_rng(9)
        params = init_encoder(3, 4, 2, rng=rng)
        code = encode(params, Tensor(rng.normal(size=(6, 3))))
        t = sample(code, np.zeros((6, 2)))
        assert np.array_equal(t.values, code.mu.values)

    def test_unit_variance_unit_eps(self):
        code_mu = np.array([[1.0, -2.0]])
        code = encode(zero_encoder(), Tensor(np.zeros((1, 3))))
        code.mu.values = code_mu.copy()
        t = sample(code, np.ones((1, 2)))
        assert np.allclose(t.values, code_mu + 1.0)

    def test_shape_mismatch(self):
        code = encode(zero_encoder(), Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeError):
            sample(code, np.zeros((3, 2)))

    def test_identical_eps_bit_identical(self):
        rng = np.random.default_rng(10)
        params = init_encoder(3, 4, 2, rng=rng)
        x = Tensor(rng.normal(size=(8, 3)))
        eps = np.random.default_rng(42).standard_normal((8, 2))
        a = sample(encode(params, x), eps.copy()).values
        b = sample(encode(params, x), eps.copy()).values
        assert np.array_equal(a, b)

    def test_no_gradient_into_eps(self):
        params = init_encoder(3, 4, 2, rng=11)
        x = Tensor(np.random.default_rng(11).normal(size=(4, 3)))
        eps = param(np.random.default_rng(12).standard_normal((4, 2)))
        with Tape() as tape:
            loss = reduce_mean(sample(encode(params, x), eps))
        backward(loss, tape)
        assert eps.grad is None

    def test_moments_smallscale(self):
        # the acceptance suite runs the full million-draw version
        rng = np.random.default_rng(13)
        mu, log_var = 1.0, np.log(4.0)
        code = encode(zero_encoder(1, 2, 2), Tensor(np.zeros((1, 1))))
        code.mu.values = np.full((1, 2), mu)
        code.log_var.values = np.full((1, 2), log_var)
        draws = np.array([
            sample(code, rng.standard_normal((1, 2))).values for _ in range(20000)
        ]).ravel()
        assert abs(draws.mean() - mu) < 0.05
        assert abs(draws.var() - 4.0) < 0.2


class TestPredict:
    """The readout every command runs: `trainer.model_outputs`."""

    def test_uniform(self):
        probs = model_outputs(zero_encoder(out_dim=3, hidden_dim=4, input_dim=3),
                              np.zeros((2, 3)), "classification")
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(14)
        params = init_encoder(3, 4, 5, rng=rng)
        features = rng.normal(size=(6, 3))
        base = model_outputs(params, features, "classification").argmax(axis=1)
        params.b_mu.values = params.b_mu.values + 123.45
        shifted = model_outputs(params, features, "classification").argmax(axis=1)
        assert np.array_equal(base, shifted)

    def test_regression_identity(self):
        params = zero_encoder(out_dim=1)
        params.b_mu.values = np.array([[2.5]])
        assert model_outputs(params, np.zeros((1, 3)), "regression")[0, 0] == 2.5

    def test_no_randomness(self):
        rng = np.random.default_rng(15)
        params = init_encoder(3, 4, 2, rng=rng)
        features = rng.normal(size=(4, 3))
        state = np.random.get_state()
        a = model_outputs(params, features, "classification")
        b = model_outputs(params, features, "classification")
        assert np.array_equal(a, b)
        after = np.random.get_state()
        assert state[1].tolist() == after[1].tolist()


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        params = init_encoder(6, 8, 3, rng=16, use_layer_norm=True)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, params)
        restored = load_checkpoint(path)
        for name, tensor in params.named_parameters().items():
            assert np.array_equal(tensor.values, restored.named_parameters()[name].values)
        assert restored.use_layer_norm

    # a checkpoint's bytes are part of every run's artifacts, so the
    # serialization of fixed parameters is pinned
    @pytest.mark.parametrize("params, sha256", [
        pytest.param(init_encoder(3, 4, 2, rng=0),
                     "78bdb4df1bbe4f72ab73d30273f7e53f0ad17bc0815b4c6cd9277f479e77cc2b",
                     id="encoder"),
        pytest.param(init_vib(3, 4, 2, 2, rng=0),
                     "a072182294bdc83b1659879b5eb9ff36c10c1bededcc7f763045bc4ed2018041",
                     id="vib"),
    ])
    def test_saved_bytes_are_pinned(self, tmp_path, params, sha256):
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), params)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_wrong_version_rejected(self, tmp_path):
        import json
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "kind": "encoder"}))
        with pytest.raises(ValueError):
            load_checkpoint_payload(str(path))
