import hashlib
import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from checkpoint_files import format_1_payload, format_2_parts, write_format_1, write_format_2
from gradcheck import max_grad_rel_err
from spc import encoder
from spc.data import DataError, Dataset
from spc.diffcore import ShapeError, Tape, param
from spc.encoder import (
    EncoderParams,
    encode,
    forward,
    init_encoder,
    init_vib,
    load_checkpoint,
    load_checkpoint_payload,
    save_checkpoint,
    tensor_shapes,
)
from spc.objectives import ObjectiveConfig
from spc.trainer import batch_loss, evaluate_split


def zero_encoder(input_dim=3, hidden_dim=4, out_dim=2) -> EncoderParams:
    arch = {"input_dim": input_dim, "hidden_dim": hidden_dim, "out_dim": out_dim,
            "use_layer_norm": False}
    return EncoderParams(arch, {name: param(np.zeros(shape))
                                for name, shape in tensor_shapes(arch).items()})


class TestEncode:
    def test_zero_network(self):
        params = zero_encoder()
        assert np.array_equal(encode(params, np.ones((5, 3))), np.zeros((5, 2)))
        _, log_var, _, _ = forward(params, np.ones((5, 3)), np.zeros((5, 2)))
        assert np.array_equal(log_var, np.zeros((5, 2)))

    def test_output_shape(self):
        params = init_encoder(7, 16, 4, rng=0)
        x = np.random.default_rng(0).normal(size=(9, 7))
        assert encode(params, x).shape == (9, 4)
        _, log_var, _, _ = forward(params, x, np.zeros((9, 4)))
        assert log_var.shape == (9, 4)

    def test_dimension_mismatch(self):
        params = init_encoder(7, 16, 4, rng=0)
        with pytest.raises(ShapeError, match=r"forward: expected input of shape \(B, 7\)"):
            forward(params, np.zeros((2, 5)), None)

    def test_log_var_clamped(self):
        params = zero_encoder()
        params.tensors["b_lv"].values[:] = 50.0
        _, log_var, _, _ = forward(params, np.zeros((3, 3)), np.zeros((3, 2)))
        assert np.all(log_var == 8.0)

    @staticmethod
    def step_grad_err(seed, use_layer_norm):
        """The training step's worst gradient error: the trunk is checked
        through `batch_loss`, the one taped op."""
        rng = np.random.default_rng(seed)
        params = init_encoder(5, 6, 3, rng=rng, use_layer_norm=use_layer_norm)
        x = rng.normal(size=(4, 5))
        y = rng.integers(0, 3, size=4)
        eps = rng.standard_normal((4, 3))
        objective = ObjectiveConfig(kind="spc", beta=0.2, gamma=0.3)
        return max_grad_rel_err(lambda: batch_loss(params, x, y, objective, eps).total,
                                params.parameters())

    def test_trunk_gradcheck(self):
        assert self.step_grad_err(7, use_layer_norm=False) < 1e-4

    def test_layer_norm_trunk_gradcheck(self):
        assert self.step_grad_err(8, use_layer_norm=True) < 1e-4

    def test_encode_is_a_readout(self):
        params = init_encoder(5, 6, 3, rng=9, use_layer_norm=True)
        with Tape() as tape:
            mu = encode(params, np.ones((2, 5)))
        assert len(tape) == 0 and type(mu) is np.ndarray
        assert mu.tobytes() == forward(params, np.ones((2, 5)), None)[0].tobytes()


class TestSample:
    """The training forward's reparameterized draw t = mu + exp(log_var / 2) * eps."""

    def test_zero_eps_returns_mu(self):
        rng = np.random.default_rng(9)
        params = init_encoder(3, 4, 2, rng=rng)
        mu, _, t, _ = forward(params, rng.normal(size=(6, 3)), np.zeros((6, 2)))
        assert np.array_equal(t, mu)

    def test_unit_variance_unit_eps(self):
        params = zero_encoder()
        params.tensors["b_mu"].values[:] = [[1.0, -2.0]]
        _, _, t, _ = forward(params, np.zeros((1, 3)), np.ones((1, 2)))
        assert np.allclose(t, [[1.0 + 1.0, -2.0 + 1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            forward(zero_encoder(), np.zeros((2, 3)), np.zeros((3, 2)))

    def test_identical_eps_bit_identical(self):
        rng = np.random.default_rng(10)
        params = init_encoder(3, 4, 2, rng=rng)
        x = rng.normal(size=(8, 3))
        eps = np.random.default_rng(42).standard_normal((8, 2))
        a = forward(params, x, eps.copy())[2]
        b = forward(params, x, eps.copy())[2]
        assert np.array_equal(a, b)

    def test_no_gradient_into_eps(self):
        # the backward returns a gradient for each model tensor, and nothing else
        params = init_encoder(3, 4, 2, rng=11)
        x = np.random.default_rng(11).normal(size=(4, 3))
        eps = np.random.default_rng(12).standard_normal((4, 2))
        _, _, t, backprop = forward(params, x, eps.copy())
        grads = backprop(np.ones_like(t), None, None)
        assert list(grads) != [] and set(grads) == set(params.tensors)
        assert all(grads[name].shape == tensor.values.shape
                   for name, tensor in params.tensors.items())

    def test_moments_smallscale(self):
        # the acceptance suite runs the full million-draw version
        rng = np.random.default_rng(13)
        mu, log_var = 1.0, np.log(4.0)
        params = zero_encoder(1, 2, 2)
        params.tensors["b_mu"].values[:] = mu
        params.tensors["b_lv"].values[:] = log_var
        _, _, draws, _ = forward(params, np.zeros((20000, 1)), rng.standard_normal((20000, 2)))
        assert abs(draws.mean() - mu) < 0.05
        assert abs(draws.var() - 4.0) < 0.2


def logits(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    """The readout `trainer.evaluate_split` scores: the decoded code means."""
    return forward(params, features, None)[2]


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

    @pytest.mark.parametrize("vib", [False, True], ids=["encoder", "vib"])
    def test_a_readout_block_keeps_few_activations_alive(self, vib):
        # a 256 x 256 block at hidden 256: each activation is 512 KB, and the
        # layers write their tanh in place, so a VIB block holds no more than
        # about two at once, as the encoder kind does
        rng = np.random.default_rng(16)
        params = (init_vib(256, 256, 16, 20, rng=rng) if vib
                  else init_encoder(256, 256, 20, rng=rng))
        features = rng.normal(size=(256, 256))
        tracemalloc.start()
        try:
            forward(params, features, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        params = init_encoder(6, 8, 3, rng=16, use_layer_norm=True)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, params)
        restored = load_checkpoint(path)
        for name, tensor in params.tensors.items():
            assert np.array_equal(tensor.values, restored.tensors[name].values)
        assert restored.arch["use_layer_norm"]

    # a checkpoint's bytes are part of every run's artifacts, so the
    # serialization of fixed parameters is pinned
    @pytest.mark.parametrize("params, sha256", [
        pytest.param(init_encoder(3, 4, 2, rng=0),
                     "4d2f9612628e77c085aeeee075c9555140d1dc0f596ccdc67bd7625358a0ad5e",
                     id="encoder"),
        pytest.param(init_vib(3, 4, 2, 2, rng=0),
                     "3b607e77508ca2cfa6d2950e0635b34b7cee79a8f53c589b0c449bbf18a32210",
                     id="vib"),
    ])
    def test_saved_bytes_are_pinned(self, tmp_path, params, sha256):
        path = tmp_path / "ckpt.npz"
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

    @pytest.mark.parametrize("version", [1, 2])
    def test_each_format_has_its_own_container(self, tmp_path, version):
        """JSON text is format 1 and an archive format 2, whatever the
        header's format_version says."""
        params = init_encoder(3, 4, 2, rng=0)
        path = tmp_path / "ckpt"
        if version == 1:  # a format-2 header in JSON text
            write_format_1(path, {**format_1_payload(params), "format_version": 2})
        else:  # a format-1 header in an archive
            header, members = format_2_parts(params)
            write_format_2(path, {**header, "format_version": 1}, members)
        with pytest.raises(DataError, match=f"unsupported checkpoint format_version: {3 - version}"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("params", [
        pytest.param(init_encoder(3, 4, 2, rng=0), id="encoder"),
        pytest.param(init_vib(4, 5, 2, 3, rng=3, use_layer_norm=True), id="vib-layer-norm"),
    ])
    def test_format_1_is_still_read_bit_for_bit(self, tmp_path, params):
        path = tmp_path / "seed0.json"
        write_format_1(path, format_1_payload(params))
        restored = load_checkpoint(str(path))
        assert restored.arch == params.arch
        for name, tensor in params.tensors.items():
            assert restored.tensors[name].values.tobytes() == tensor.values.tobytes()


def with_special_values() -> EncoderParams:
    params = init_encoder(3, 4, 2, rng=7)
    params.tensors["w_in"].values[0, 0] = np.nan
    params.tensors["b_mu"].values[0, 1] = -np.inf
    params.tensors["w_lv"].values[2, 0] = 1e-310  # subnormal
    params.tensors["b_lv"].values[0, 0] = -0.0
    return params


class TestCheckpointFormat2:
    """`save_checkpoint` writes one uncompressed `np.savez` archive."""

    @pytest.mark.parametrize("params", [
        pytest.param(init_encoder(3, 4, 2, rng=0), id="encoder"),
        pytest.param(init_vib(5, 6, 3, 2, rng=1), id="vib"),
        pytest.param(init_encoder(4, 5, 3, rng=2, use_layer_norm=True), id="layer-norm"),
        pytest.param(init_vib(4, 5, 2, 3, rng=3, use_layer_norm=True), id="vib-layer-norm"),
        pytest.param(init_encoder(9, 1, 2, rng=4), id="hidden-1"),
        pytest.param(init_vib(3, 1, 1, 1, rng=5), id="vib-widths-1"),
        pytest.param(init_encoder(64, 64, 2, rng=6), id="wide-64x64"),
        pytest.param(init_encoder(100, 50, 3, rng=8), id="wide-100x50"),
        pytest.param(with_special_values(), id="nan-inf-subnormal"),
    ])
    def test_round_trip_is_bit_for_bit(self, tmp_path, params):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(str(path), params)
        assert os.listdir(tmp_path) == ["ckpt.npz"]
        payload = load_checkpoint_payload(str(path))
        assert (payload["format_version"], payload["kind"], payload["arch"]) == \
            (2, params.kind, params.arch)
        assert list(payload["tensors"]) == list(tensor_shapes(params.arch))
        for name, tensor in params.tensors.items():
            values = payload["tensors"][name]["values"]
            assert values.dtype == np.float64 and values.shape == tensor.values.shape
            assert values.tobytes() == tensor.values.tobytes()
        if all(np.isfinite(t.values).all() for t in params.parameters()):
            restored = load_checkpoint(str(path))
            assert all(restored.tensors[name].values.tobytes() == t.values.tobytes()
                       for name, t in params.tensors.items())

    def test_two_saves_are_byte_identical_and_one_savez(self, tmp_path, monkeypatch):
        """Zip members carry a fixed timestamp, so reruns compare equal."""
        params = init_vib(5, 6, 3, 2, rng=1)
        save_checkpoint(str(tmp_path / "a.npz"), params)
        monkeypatch.setattr(time, "time", lambda: 1.9e9)  # a save in 2030
        save_checkpoint(str(tmp_path / "b.npz"), params)
        monkeypatch.undo()
        write_format_2(tmp_path / "c.npz", *format_2_parts(params))
        blob = (tmp_path / "a.npz").read_bytes()
        assert blob[:4] == b"PK\x03\x04"
        assert (tmp_path / "b.npz").read_bytes() == blob == (tmp_path / "c.npz").read_bytes()

    def test_memory_is_a_small_multiple_of_the_largest_tensor(self, tmp_path):
        params = init_encoder(2000, 64, 4, rng=9)  # 128k values (1 MB) in w_in
        largest = max(t.values.nbytes for t in params.parameters())
        tracemalloc.start()
        try:
            save_checkpoint(str(tmp_path / "ckpt.npz"), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * largest

    @pytest.mark.parametrize("earlier", [True, False], ids=["over-a-file", "new-path"])
    def test_a_failure_inside_savez_leaves_the_path_as_it_was(self, tmp_path, monkeypatch,
                                                             earlier):
        path = tmp_path / "ckpt.npz"
        if earlier:
            save_checkpoint(str(path), init_encoder(3, 4, 2, rng=0))
            before = path.read_bytes()
        real_savez = np.savez

        def failing_savez(fh, **members):
            real_savez(fh, **members)  # a whole archive is on the temporary file
            raise OSError("no space left on device")

        monkeypatch.setattr(encoder.np, "savez", failing_savez)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(str(path), init_encoder(100, 50, 3, rng=8))
        monkeypatch.undo()
        if earlier:
            assert path.read_bytes() == before
            assert os.listdir(tmp_path) == ["ckpt.npz"]
        else:
            assert os.listdir(tmp_path) == []
