import hashlib
import json
import os
import tracemalloc
import types

import numpy as np
import pytest

from gradcheck import max_grad_rel_err
from primitives import reduce_mean
from spc import encoder
from spc.data import Dataset
from spc.diffcore import ShapeError, Tape, Tensor, backward, param
from spc.encoder import (
    EncoderParams,
    decode,
    encode,
    init_encoder,
    init_vib,
    load_checkpoint,
    load_checkpoint_payload,
    sample,
    save_checkpoint,
    tensor_shapes,
)
from spc.trainer import evaluate_split


def zero_encoder(input_dim=3, hidden_dim=4, out_dim=2) -> EncoderParams:
    arch = {"input_dim": input_dim, "hidden_dim": hidden_dim, "out_dim": out_dim,
            "use_layer_norm": False}
    return EncoderParams(arch, {name: param(np.zeros(shape))
                                for name, shape in tensor_shapes(arch).items()})


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
        params.tensors["b_lv"].values[:] = 50.0
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


def logits(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    """The readout `trainer.evaluate_split` scores: the decoded code means."""
    return decode(params, encode(params, Tensor(features), with_log_var=False).mu).values


class TestPredict:
    """The readout every command runs: the logits, whose argmax is the class."""

    def test_evaluate_split_predicts_the_argmax_of_the_logits(self):
        rng = np.random.default_rng(13)
        params = init_encoder(3, 4, 3, rng=rng)
        features = rng.normal(size=(40, 3))
        targets = rng.integers(0, 3, size=40)
        dataset = Dataset(features=features, targets=targets, split=np.full(40, "test"),
                          task="classification", num_classes=3)
        pred = logits(params, features).argmax(axis=1)
        scores = evaluate_split(params, dataset, "test")
        assert scores["accuracy"] == float((pred == targets).mean())

    def test_shift_invariance(self):
        rng = np.random.default_rng(14)
        params = init_encoder(3, 4, 5, rng=rng)
        features = rng.normal(size=(6, 3))
        base = logits(params, features).argmax(axis=1)
        params.tensors["b_mu"].values = params.tensors["b_mu"].values + 123.45
        shifted = logits(params, features).argmax(axis=1)
        assert np.array_equal(base, shifted)

    def test_regression_identity(self):
        params = zero_encoder(out_dim=1)
        params.tensors["b_mu"].values = np.array([[2.5]])
        assert logits(params, np.zeros((1, 3)))[0, 0] == 2.5

    def test_no_randomness(self):
        rng = np.random.default_rng(15)
        params = init_encoder(3, 4, 2, rng=rng)
        features = rng.normal(size=(4, 3))
        state = np.random.get_state()
        a = logits(params, features)
        b = logits(params, features)
        assert np.array_equal(a, b)
        after = np.random.get_state()
        assert state[1].tolist() == after[1].tolist()


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        params = init_encoder(6, 8, 3, rng=16, use_layer_norm=True)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, params)
        restored = load_checkpoint(path)
        for name, tensor in params.tensors.items():
            assert np.array_equal(tensor.values, restored.tensors[name].values)
        assert restored.arch["use_layer_norm"]

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

    @pytest.mark.parametrize("dims", [(3, 0, 2), (3, -1, 2), (3, True, 2), (3, 4.0, 2)])
    def test_init_rejects_a_dimension_not_an_integer_of_at_least_1(self, dims):
        with pytest.raises(ValueError, match="arch hidden_dim must be an integer >= 1"):
            init_encoder(*dims, rng=0)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "kind": "encoder"}))
        with pytest.raises(ValueError):
            load_checkpoint_payload(str(path))


def whole_payload_text(params: EncoderParams) -> str:
    """`json.dumps` of the checkpoint payload built whole, as the format
    defines it: the text a streamed write must equal byte for byte."""
    return json.dumps({
        "format_version": 1, "kind": params.kind, "arch": params.arch,
        "tensors": {name: {"shape": list(t.values.shape), "values": t.values.ravel().tolist()}
                    for name, t in params.tensors.items()},
    })


def with_special_values() -> EncoderParams:
    params = init_encoder(3, 4, 2, rng=7)
    params.tensors["w_in"].values[0, 0] = np.nan
    params.tensors["b_mu"].values[0, 1] = -np.inf
    params.tensors["w_lv"].values[2, 0] = 1e-310  # subnormal
    return params


class TestStreamedCheckpoint:
    """`save_checkpoint` writes a chunk of values at a time; the bytes are
    those of one `json.dumps` of the whole payload."""

    @pytest.mark.parametrize("params", [
        pytest.param(init_encoder(3, 4, 2, rng=0), id="encoder"),
        pytest.param(init_vib(5, 6, 3, 2, rng=1), id="vib"),
        pytest.param(init_encoder(4, 5, 3, rng=2, use_layer_norm=True), id="layer-norm"),
        pytest.param(init_vib(4, 5, 2, 3, rng=3, use_layer_norm=True), id="vib-layer-norm"),
        pytest.param(init_encoder(9, 1, 2, rng=4), id="hidden-1"),
        pytest.param(init_vib(3, 1, 1, 1, rng=5), id="vib-widths-1"),
        pytest.param(init_encoder(64, 64, 2, rng=6), id="chunk-multiple"),  # w_in: 4096 values
        pytest.param(init_encoder(100, 50, 3, rng=8), id="chunk-and-a-tail"),  # w_in: 5000
        pytest.param(with_special_values(), id="nan-inf-subnormal"),
    ])
    def test_bytes_equal_one_dumps(self, tmp_path, params):
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), params)
        assert path.read_bytes() == whole_payload_text(params).encode("utf-8")
        assert os.listdir(tmp_path) == ["ckpt.json"]

    def test_memory_is_a_chunk_not_the_payload(self, tmp_path):
        params = init_encoder(2000, 64, 4, rng=9)  # 128k values in w_in
        peaks = []
        for write in (lambda: save_checkpoint(str(tmp_path / "ckpt.json"), params),
                      lambda: whole_payload_text(params)):
            tracemalloc.start()
            try:
                write()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        streamed, whole = peaks
        # the whole payload holds every value as a Python float and as text
        assert whole > 4 * 2**20 > streamed

    @pytest.mark.parametrize("earlier", [True, False], ids=["over-a-file", "new-path"])
    def test_a_write_failing_mid_tensor_leaves_the_path_as_it_was(self, tmp_path, monkeypatch,
                                                                  earlier):
        path = tmp_path / "ckpt.json"
        if earlier:
            save_checkpoint(str(path), init_encoder(3, 4, 2, rng=0))
            before = path.read_bytes()

        def failing_dumps(obj):
            # w_in's 5000 values go out as 4096 and then 904: fail at the 904
            if isinstance(obj, list) and len(obj) == 5000 - encoder.CHECKPOINT_CHUNK_VALUES:
                raise OSError("no space left on device")
            return json.dumps(obj)

        monkeypatch.setattr(encoder, "json", types.SimpleNamespace(dumps=failing_dumps))
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(str(path), init_encoder(100, 50, 3, rng=8))
        if earlier:
            assert path.read_bytes() == before
            assert os.listdir(tmp_path) == ["ckpt.json"]
        else:
            assert os.listdir(tmp_path) == []
