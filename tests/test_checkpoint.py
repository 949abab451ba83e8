"""Bit-exact checkpoint round trips for every model kind, the
``named_params`` view they are written in, and malformed files."""

import hashlib
import os
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from infmix import baselines
from infmix.baselines import DeepEnsemble, DropoutMlp
from infmix.checkpoint import (KIND_DETERMINISTIC, KIND_DROPOUT,
                               CheckpointError, load_model, save_model)
from infmix.cli import main
from infmix.data import Dataset
from infmix.harness import ExperimentConfig, train_model_for_trial
from infmix.network import StochasticMlp
from infmix.tensor import Rng

from conftest import one_worker_per_cpu, synthetic_arrays


def random_weights(seed, topology=(6, 4, 4, 3)):
    rng = Rng(seed)
    return [rng.standard_normal(n_in + 1, n_out)
            for n_in, n_out in zip(topology[:-1], topology[1:])]


@pytest.fixture()
def ckpt(tmp_path):
    return os.path.join(tmp_path, "model.ckpt")


class TestRoundTrips:
    def test_stochastic_bit_exact(self, ckpt):
        net = StochasticMlp.create(Rng(3), topology=(6, 4, 4, 3))
        save_model(net, ckpt)
        loaded = load_model(ckpt)
        assert isinstance(loaded, StochasticMlp)
        for la, lb in zip(net.layers, loaded.layers):
            assert np.array_equal(la.mean, lb.mean)
            assert np.array_equal(la.row_scale_raw, lb.row_scale_raw)
            assert np.array_equal(la.col_scale_raw, lb.col_scale_raw)

    def test_save_load_save_identical_bytes(self, ckpt, tmp_path):
        net = StochasticMlp.create(Rng(1), topology=(6, 4, 4, 3))
        save_model(net, ckpt)
        second = os.path.join(tmp_path, "again.ckpt")
        save_model(load_model(ckpt), second)
        assert Path(ckpt).read_bytes() == Path(second).read_bytes()

    def test_deterministic(self, ckpt):
        # The point-estimate net, dropout at p_drop = 0, is written as kind 1.
        model = DropoutMlp(weights=random_weights(0), p_drop=0.0)
        save_model(model, ckpt)
        assert struct.unpack_from("<I", Path(ckpt).read_bytes(), 8) == (
            KIND_DETERMINISTIC,)
        loaded = load_model(ckpt)
        assert isinstance(loaded, DropoutMlp) and loaded.p_drop == 0.0
        for wa, wb in zip(model.weights, loaded.weights):
            assert np.array_equal(wa, wb)

    def test_dropout_file_at_zero_probability_is_the_point_net(self, ckpt):
        # Kind 2 with a stored p_drop of 0 loads as kind 1 does.
        x = Rng(0).uniform(0, 1, (8, 6))
        summaries = []
        for kind, header in ((KIND_DETERMINISTIC, b""),
                             (KIND_DROPOUT, struct.pack("<d", 0.0))):
            Path(ckpt).write_bytes(checkpoint_bytes(
                kind, header, [net_body(((7, 4), (5, 4), (5, 3)))]))
            model = load_model(ckpt)
            assert type(model) is DropoutMlp and model.p_drop == 0.0
            summaries.append(model.predict(x, 5, Rng(1)))
        for s in summaries:
            assert s.n_samples == 1 and np.all(s.class_variance == 0.0)
        assert np.array_equal(summaries[0].mean_probs, summaries[1].mean_probs)

    def test_dropout_keeps_probability(self, ckpt):
        model = DropoutMlp(weights=random_weights(1), p_drop=0.5)
        save_model(model, ckpt)
        loaded = load_model(ckpt)
        assert isinstance(loaded, DropoutMlp)
        assert loaded.p_drop == 0.5

    def test_ensemble(self, ckpt):
        ens = DeepEnsemble(members=[
            DropoutMlp(weights=random_weights(s), p_drop=0.0) for s in range(3)])
        save_model(ens, ckpt)
        loaded = load_model(ckpt)
        assert isinstance(loaded, DeepEnsemble)
        assert loaded.k == 3
        for ma, mb in zip(ens.members, loaded.members):
            assert type(mb) is DropoutMlp and mb.p_drop == 0.0
            for wa, wb in zip(ma.weights, mb.weights):
                assert np.array_equal(wa, wb)

    def test_predictions_survive_reload(self, ckpt):
        net = StochasticMlp.create(Rng(5), topology=(6, 4, 4, 3))
        save_model(net, ckpt)
        loaded = load_model(ckpt)
        x = Rng(0).uniform(0, 1, (8, 6))
        a = net.predict(x, n_samples=6, rng=Rng(9))
        b = loaded.predict(x, n_samples=6, rng=Rng(9))
        assert np.array_equal(a.mean_probs, b.mean_probs)


class TestErrors:
    def test_bad_magic(self, ckpt):
        with open(ckpt, "wb") as f:
            f.write(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_model(ckpt)

    def test_truncated(self, ckpt):
        net = StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
        save_model(net, ckpt)
        blob = Path(ckpt).read_bytes()
        with open(ckpt, "wb") as f:
            f.write(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_model(ckpt)

    def test_atomic_write_leaves_no_temp(self, ckpt, tmp_path):
        save_model(StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3)), ckpt)
        assert os.listdir(tmp_path) == [os.path.basename(ckpt)]

    def test_unsupported_type_leaves_no_temp(self, ckpt, tmp_path):
        with pytest.raises(CheckpointError, match="cannot checkpoint"):
            save_model(object(), ckpt)
        assert os.listdir(tmp_path) == []


def net_body(dims=((7, 4), (5, 3)), n_floats=None):
    """n_layers, the layer dims, then the f64 values 0, 1, ..., by default
    as many as the weight matrices hold."""
    if n_floats is None:
        n_floats = sum(r * c for r, c in dims)
    return (struct.pack(f"<{1 + 2 * len(dims)}I", len(dims),
                        *[n for d in dims for n in d])
            + np.arange(n_floats, dtype="<f8").tobytes())


def checkpoint_bytes(kind, header=b"", bodies=(net_body(),)):
    return b"IMIX" + struct.pack("<2I", 1, kind) + header + b"".join(bodies)


MALFORMED = {
    "huge_dims": (checkpoint_bytes(
        1, bodies=[net_body(((0xFFFFFFFF, 0xFFFFFFFF),), n_floats=0)]),
        "truncated"),
    "zero_layers": (checkpoint_bytes(1, bodies=[net_body(())]), "no layers"),
    "empty_layer": (checkpoint_bytes(1, bodies=[net_body(((7, 0),))]),
                    "shape 7x0"),
    "broken_chain": (checkpoint_bytes(1, bodies=[net_body(((7, 4), (6, 3)))]),
                     "layer 1"),
    "zero_members": (checkpoint_bytes(3, struct.pack("<I", 0), bodies=[]),
                     "no members"),
    "members_differ": (checkpoint_bytes(3, struct.pack("<I", 2), bodies=[
        net_body(), net_body(((6, 4), (5, 3)))]), "differ in shape"),
    "p_drop_one": (checkpoint_bytes(2, struct.pack("<d", 1.0)), "p_drop"),
    "p_drop_negative": (checkpoint_bytes(2, struct.pack("<d", -0.1)), "p_drop"),
    "p_drop_nan": (checkpoint_bytes(2, struct.pack("<d", float("nan"))),
                   "p_drop"),
    "trailing_bytes": (checkpoint_bytes(1) + b"\x00", "trailing"),
}


class TestMalformed:
    """Every malformed file ends in CheckpointError, which the CLI reports
    as one ``config error:`` line and exit code 1."""

    def test_well_formed_bytes_load(self, ckpt):
        with open(ckpt, "wb") as f:
            f.write(checkpoint_bytes(2, struct.pack("<d", 0.25)))
        model = load_model(ckpt)
        assert isinstance(model, DropoutMlp) and model.p_drop == 0.25
        assert [w.shape for w in model.weights] == [(7, 4), (5, 3)]
        # The payload counts 0, 1, ... over 7*4 + 5*3 values.
        assert model.weights[1][-1, -1] == 7 * 4 + 5 * 3 - 1

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_load_model_rejects(self, ckpt, case):
        blob, message = MALFORMED[case]
        with open(ckpt, "wb") as f:
            f.write(blob)
        with pytest.raises(CheckpointError, match=message):
            load_model(ckpt)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_cli_reports_one_line(self, synthetic_data_dir, tmp_path, ckpt,
                                  capsys, case):
        blob, message = MALFORMED[case]
        with open(ckpt, "wb") as f:
            f.write(blob)
        code = main(["--data-dir", synthetic_data_dir, "--out-dir",
                     str(tmp_path / "out"), "ood", "--checkpoint", ckpt])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1
        assert message in err


def every_kind():
    stochastic = StochasticMlp.create(Rng(3), topology=(6, 4, 4, 3))
    return {
        "stochastic": stochastic,
        "deterministic": DropoutMlp(weights=random_weights(0), p_drop=0.0),
        "dropout": DropoutMlp(weights=random_weights(1), p_drop=0.5),
        "ensemble": DeepEnsemble(members=[
            DropoutMlp(weights=random_weights(s), p_drop=0.0) for s in (2, 3)]),
    }


class TestNamedParams:
    """``named_params`` is the one order that training, gradcheck and
    checkpoints share."""

    BLOCKS = ("mean", "row_scale_raw", "col_scale_raw")

    def test_names_and_order(self):
        models = every_kind()
        layers = [f"layer{l}" for l in range(3)]
        assert [n for n, _ in models["stochastic"].named_params()] == [
            f"{l}.{b}" for l in layers for b in self.BLOCKS]
        for kind in ("deterministic", "dropout"):
            assert [n for n, _ in models[kind].named_params()] == [
                f"{l}.weights" for l in layers]
        assert [n for n, _ in models["ensemble"].named_params()] == [
            f"member{k}.{l}.weights" for k in range(2) for l in layers]

    def test_arrays_are_the_models_own(self):
        models = every_kind()
        net, ens = models["stochastic"], models["ensemble"]
        assert [id(a) for _, a in net.named_params()] == [
            id(getattr(layer, b)) for layer in net.layers for b in self.BLOCKS]
        assert [id(a) for _, a in ens.named_params()] == [
            id(w) for m in ens.members for w in m.weights]

    @pytest.mark.parametrize("kind", ["stochastic", "deterministic", "dropout",
                                      "ensemble"])
    def test_writing_through_an_array_changes_predictions(self, kind):
        model = every_kind()[kind]
        x = Rng(0).uniform(0, 1, (8, 6))
        before = model.predict(x, n_samples=4, rng=Rng(9)).mean_probs
        _, first = model.named_params()[0]
        first[...] = Rng(99).standard_normal(*first.shape)
        after = model.predict(x, n_samples=4, rng=Rng(9)).mean_probs
        assert not np.array_equal(before, after)

    @pytest.mark.parametrize("kind", ["stochastic", "deterministic", "dropout",
                                      "ensemble"])
    def test_payload_is_named_params_bytes(self, ckpt, kind):
        model = every_kind()[kind]
        save_model(model, ckpt)
        blob = Path(ckpt).read_bytes()
        pos = 12 + {"dropout": 8, "ensemble": 4}.get(kind, 0)
        for net in model.members if kind == "ensemble" else [model]:
            n_layers = struct.unpack_from("<I", blob, pos)[0]
            pos += 4 + 8 * n_layers
            payload = b"".join(a.astype("<f8").tobytes()
                               for _, a in net.named_params())
            assert blob[pos:pos + len(payload)] == payload
            pos += len(payload)
        assert pos == len(blob)


# SHA-256 of the checkpoint that ``harness.train_model_for_trial`` writes for
# each model kind: five iterations on a 60-image toy set at seed 7.  Taken
# before checkpoints were written through ``named_params``, they pin the
# VERSION 1 bytes and the numbers that come out of ``fit``.  At batches of 4
# with 2 draws they are the same under OPENBLAS_NUM_THREADS=1, 2 and 4; at
# batch 20 they differ between 1 and 2 threads.  ml and vi were taken again
# when training came to sample layer 0 locally, the same on 1, 2 and 3 CPUs.
# Another numpy or BLAS build may still need them taken again.
PINNED_DIGESTS = {
    "ml": "386ad72dfb1c4fcba58d3e0b09df06d7450ca8a850333f74fa21139c4dbf7084",
    "vi": "2e5db8a32e6a9a9c742772907956d32cf4fc935b4085800fe6eaba06517c8da6",
    "deterministic":
        "88164bb5a1ec15532d1bfe735711a9dcac608d32fc224a3d9c280ad7ecbf39c1",
    "dropout":
        "ffa55241e33070fdb8d962ff1f28c3a871117492c5c0f410eaa8c11c3580410e",
    "ensemble":
        "7f10408c7818561ef0a515a64999339cd6eb5e3a7d514f95377d3d2a0e0f03a9",
}


def pinned_model_digest(ckpt, model):
    images, labels = synthetic_arrays(60, 5)
    data = Dataset(images=images.reshape(60, -1) / 255.0,
                   labels=labels.astype(np.int64))
    cfg = ExperimentConfig(model=model, iterations=5, batch_size=4,
                           n_train_samples=2, ensemble_size=2)
    net, _ = train_model_for_trial(cfg, data, seed=7)
    save_model(net, ckpt)
    return hashlib.sha256(Path(ckpt).read_bytes()).hexdigest()


@pytest.mark.parametrize("model", sorted(PINNED_DIGESTS))
def test_trained_checkpoint_bytes_are_pinned(ckpt, model):
    assert pinned_model_digest(ckpt, model) == PINNED_DIGESTS[model]


@pytest.mark.parametrize("cpus", [1, 2])
def test_ensemble_members_train_at_once_to_the_pinned_bytes(ckpt, cpus,
                                                             monkeypatch):
    # On two CPUs both members train at once, or the barrier breaks.
    one_worker_per_cpu(monkeypatch, cpus)
    barrier = threading.Barrier(cpus, timeout=10.0)
    real = baselines.train_dropout

    def member(*args, **kwargs):
        barrier.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(baselines, "train_dropout", member)
    assert pinned_model_digest(ckpt, "ensemble") == PINNED_DIGESTS["ensemble"]
