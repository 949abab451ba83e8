"""IDX round trips, normalization, prefixes, and batch determinism."""

import gzip
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import synthetic_arrays
from infmix.attacks import AttackResult, write_attack_artifacts
from infmix.checkpoint import save_model
from infmix.data import (BatchIterator, DataConsistencyError, Dataset,
                         IDX_FLOAT64, IdxFormatError, load_idx, read_idx,
                         save_idx, take_prefix, write_idx)
from infmix.harness import write_json_atomic
from infmix.network import StochasticMlp
from infmix.tensor import Rng


def write_pair(tmp_path, images, labels, stem="d"):
    img = os.path.join(tmp_path, f"{stem}-images")
    lab = os.path.join(tmp_path, f"{stem}-labels")
    write_idx(img, images)
    write_idx(lab, labels)
    return img, lab


class TestIdxIO:
    def test_all_255_normalizes_to_one(self, tmp_path):
        images = np.full((2, 28, 28), 255, dtype=np.uint8)
        labels = np.array([3, 7], dtype=np.uint8)
        d = load_idx(*write_pair(tmp_path, images, labels))
        assert d.images.shape == (2, 784)
        assert np.all(d.images == 1.0)
        assert list(d.labels) == [3, 7]

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (5, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, 5).astype(np.uint8)
        img, lab = write_pair(tmp_path, images, labels)
        d = load_idx(img, lab)
        img2 = os.path.join(tmp_path, "again-images")
        lab2 = os.path.join(tmp_path, "again-labels")
        save_idx(d, img2, lab2)
        assert Path(img).read_bytes() == Path(img2).read_bytes()
        assert Path(lab).read_bytes() == Path(lab2).read_bytes()

    def test_float64_idx_round_trips_exactly(self, tmp_path):
        images = np.random.default_rng(1).uniform(0, 1, (3, 784))
        d = Dataset(images=images, labels=np.array([0, 1, 2]))
        img = os.path.join(tmp_path, "f-images")
        lab = os.path.join(tmp_path, "f-labels")
        save_idx(d, img, lab, type_code=IDX_FLOAT64)
        d2 = load_idx(img, lab)
        assert np.array_equal(d2.images, images)

    def test_side_comes_from_the_pixel_count(self, tmp_path):
        img = os.path.join(tmp_path, "s-images")
        lab = os.path.join(tmp_path, "s-labels")
        images = np.arange(50, dtype=np.uint8).reshape(2, 5, 5)
        save_idx(Dataset(images=images.reshape(2, 25) / 255.0,
                         labels=np.array([0, 1])), img, lab)
        assert np.array_equal(read_idx(img), images)
        with pytest.raises(ValueError, match="cannot reshape 24 pixels"):
            save_idx(Dataset(images=np.zeros((2, 24)), labels=np.array([0, 1])),
                     img, lab)

    def test_gzip_transparent(self, tmp_path):
        images = np.full((2, 28, 28), 128, dtype=np.uint8)
        img, lab = write_pair(tmp_path, images, np.array([1, 2], dtype=np.uint8))
        for path in (img, lab):
            with open(path, "rb") as f, gzip.open(path + ".gz", "wb") as g:
                g.write(f.read())
        d = load_idx(img + ".gz", lab + ".gz")
        assert np.allclose(d.images, 128.0 / 255.0)

    def test_gzip_chosen_from_the_final_path(self, tmp_path):
        path = os.path.join(tmp_path, "g-images.gz")
        labels = np.array([4, 2], dtype=np.uint8)
        write_idx(path, labels)
        with open(path, "rb") as f:
            assert f.read(2) == b"\x1f\x8b"
        assert np.array_equal(read_idx(path), labels)
        assert os.listdir(tmp_path) == ["g-images.gz"]

    def test_failed_payload_write_keeps_the_earlier_file(self, tmp_path):
        img, _ = write_pair(tmp_path, np.zeros((2, 28, 28), dtype=np.uint8),
                            np.array([1, 2], dtype=np.uint8))
        before = Path(img).read_bytes()
        with pytest.raises(ValueError):
            write_idx(img, np.array([["not a pixel"]], dtype=object))
        assert Path(img).read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["d-images", "d-labels"]

    def test_bad_magic_is_format_error(self, tmp_path):
        path = os.path.join(tmp_path, "bad")
        with open(path, "wb") as f:
            f.write(b"\x12\x34\x08\x03" + b"\x00" * 12)
        with pytest.raises(IdxFormatError, match="magic"):
            read_idx(path)

    def test_header_with_no_dims_is_format_error(self, tmp_path):
        path = os.path.join(tmp_path, "nodims")
        with open(path, "wb") as f:
            f.write(bytes([0, 0, 8, 0]))
        with pytest.raises(IdxFormatError, match="no dims"):
            read_idx(path)

    def test_no_images_is_consistency_error(self, tmp_path):
        img, lab = write_pair(tmp_path, np.zeros((0, 28, 28), dtype=np.uint8),
                              np.zeros(0, dtype=np.uint8))
        with pytest.raises(DataConsistencyError, match="no images"):
            load_idx(img, lab)

    def test_count_mismatch_is_consistency_error(self, tmp_path):
        images = np.zeros((3, 28, 28), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        img, lab = write_pair(tmp_path, images, labels)
        with pytest.raises(DataConsistencyError, match="3.*2"):
            load_idx(img, lab)

    def test_truncated_is_io_error(self, tmp_path):
        images = np.zeros((3, 28, 28), dtype=np.uint8)
        img, _ = write_pair(tmp_path, images, np.zeros(3, dtype=np.uint8))
        blob = Path(img).read_bytes()
        path = os.path.join(tmp_path, "trunc")
        with open(path, "wb") as f:
            f.write(blob[:-100])
        with pytest.raises(OSError, match="truncated"):
            read_idx(path)

    # The first half of a gzip file, and a gzip file whose first deflate
    # block has the reserved block type 3 (bits 1-2 of the byte after the
    # 10-byte header that ``gzip.compress`` writes).
    @pytest.mark.parametrize("damage", [
        lambda blob: blob[:len(blob) // 2],
        lambda blob: blob[:10] + bytes([blob[10] | 0x06]) + blob[11:]],
        ids=["half", "bad block type"])
    def test_cut_or_corrupt_gzip_is_io_error(self, tmp_path, damage):
        img, _ = write_pair(tmp_path, np.zeros((3, 28, 28), dtype=np.uint8),
                            np.zeros(3, dtype=np.uint8))
        path = img + ".gz"
        Path(path).write_bytes(damage(gzip.compress(Path(img).read_bytes())))
        with pytest.raises(OSError, match="corrupt gzip IDX file"):
            read_idx(path)

    # The first claims 60000 x 65535 x 65535 bytes; the second's item count,
    # 2**64, wraps to 0 in 64-bit integers.
    @pytest.mark.parametrize("dims", [(60000, 65535, 65535),
                                      (2 ** 31, 2 ** 31, 4)])
    @pytest.mark.parametrize("suffix", ["", ".gz"])
    def test_header_past_the_payload_is_io_error(self, tmp_path, dims,
                                                  suffix):
        path = os.path.join(tmp_path, "claims" + suffix)
        blob = bytes([0, 0, 8, 3]) + b"".join(
            d.to_bytes(4, "big") for d in dims) + bytes(1000)
        with (gzip.open if suffix else open)(path, "wb") as f:
            f.write(blob)
        with pytest.raises(OSError, match="truncated IDX file \\(payload\\)"):
            read_idx(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        images = np.zeros((1, 28, 28), dtype=np.uint8)
        img, lab = write_pair(tmp_path, images, np.array([11], dtype=np.uint8))
        with pytest.raises(DataConsistencyError, match="0..9"):
            load_idx(img, lab)

    @pytest.mark.parametrize("pixel", [5.0, -0.25, np.nan, np.inf])
    def test_float_pixel_outside_the_unit_interval_rejected(self, tmp_path,
                                                             pixel):
        images = np.full((2, 4, 4), 0.5)
        images[1, 2, 3] = pixel
        img, lab = write_pair(tmp_path, np.zeros((2, 4, 4), np.uint8),
                              np.array([1, 2], np.uint8))
        write_idx(img, images, IDX_FLOAT64)
        with pytest.raises(DataConsistencyError,
                           match=r"^float pixels outside \[0, 1\] in "):
            load_idx(img, lab)

    @pytest.mark.parametrize("label", [0.5, 9.9, -1.0, 10.0, np.nan])
    def test_float_label_that_is_not_a_class_rejected(self, tmp_path, label):
        img, lab = write_pair(tmp_path, np.zeros((2, 4, 4), np.uint8),
                              np.array([1, 2], np.uint8))
        write_idx(lab, np.array([3.0, label]), IDX_FLOAT64)
        with pytest.raises(DataConsistencyError,
                           match="^float labels that are not integers 0..9 in "):
            load_idx(img, lab)

    def test_float_pixels_and_labels_at_their_bounds_load(self, tmp_path):
        images = np.array([[[0.0, 1.0], [0.25, 1.0]], [[1.0, 0.0], [0.0, 0.5]]])
        img, lab = os.path.join(tmp_path, "f-images"), os.path.join(tmp_path, "f-labels")
        write_idx(img, images, IDX_FLOAT64)
        write_idx(lab, np.array([0.0, 9.0]), IDX_FLOAT64)
        d = load_idx(img, lab)
        assert np.array_equal(d.images, images.reshape(2, 4))
        assert d.labels.tolist() == [0, 9]

    def test_attack_artifacts_load_back(self, tmp_path):
        result = attack_result()
        result.adversarial[0, :2] = 0.0, 1.0
        paths = write_attack_artifacts(result, [1, 2, 3], tmp_path, "adv")
        d = load_idx(paths["images"], paths["labels"])
        assert np.array_equal(d.images, result.adversarial)
        assert np.array_equal(d.labels, result.true_labels)


def small_net(bad_layer=None):
    """A small stochastic net; ``bad_layer``'s mean cannot be written."""
    net = StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
    if bad_layer is not None:
        layer = net.layers[bad_layer]
        layer.mean = np.full(layer.mean.shape, "x", dtype=object)
    return net


def attack_result(n=3):
    return AttackResult(adversarial=np.full((n, 4), 0.5),
                        true_labels=np.arange(n), pred_after=np.zeros(n, int),
                        success=np.ones(n, bool), robust_accuracy=0.0,
                        summary_after=None)


# (file name, a good write, a write that raises after its first bytes).
FAILING_WRITES = {
    "result_json": ("r.json", lambda p: write_json_atomic(p, {"a": 1}),
                    lambda p: write_json_atomic(p, {"a": 2, "b": object()})),
    "attack_csv": ("adv.csv",
                   lambda p: write_attack_artifacts(
                       attack_result(), [1, 2, 3], os.path.dirname(p), "adv"),
                   # pred_before is one short: its last row raises.
                   lambda p: write_attack_artifacts(
                       attack_result(), [4, 5], os.path.dirname(p), "adv")),
    "idx": ("x-labels.gz", lambda p: write_idx(p, np.array([1, 2], np.uint8)),
            lambda p: write_idx(p, np.array([["x"]], dtype=object))),
    "checkpoint": ("m.ckpt", lambda p: save_model(small_net(), p),
                   lambda p: save_model(small_net(bad_layer=1), p)),
}


@pytest.mark.parametrize("writer", sorted(FAILING_WRITES))
def test_failed_write_keeps_the_earlier_file_and_no_temp(tmp_path, writer):
    name, write, fail = FAILING_WRITES[writer]
    path = os.path.join(tmp_path, name)
    write(path)
    before = Path(path).read_bytes()
    with pytest.raises((TypeError, ValueError, IndexError)):
        fail(path)
    assert Path(path).read_bytes() == before
    assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]


class TestTakePrefix:
    @pytest.fixture()
    def dataset(self):
        images = np.linspace(0, 1, 20 * 784).reshape(20, 784)
        return Dataset(images=images, labels=np.arange(20) % 10)

    def test_prefix_preserves_file_order(self, dataset):
        d = take_prefix(dataset, 7)
        assert d.n == 7
        assert np.array_equal(d.images, dataset.images[:7])
        assert np.array_equal(d.labels, dataset.labels[:7])

    def test_full_prefix_unchanged(self, dataset):
        d = take_prefix(dataset, dataset.n)
        assert np.array_equal(d.images, dataset.images)

    def test_empty_prefix(self, dataset):
        assert take_prefix(dataset, 0).n == 0

    def test_over_length_is_range_error(self, dataset):
        with pytest.raises(ValueError):
            take_prefix(dataset, 21)


def index_dataset(n):
    """Dataset whose first pixel encodes the sample index."""
    images = np.zeros((n, 784))
    images[:, 0] = np.arange(n) / n
    return Dataset(images=images, labels=np.zeros(n, dtype=np.int64))


def served_indices(batch, n):
    return set(np.rint(batch[:, 0] * n).astype(int))


class TestBatchIterator:
    def test_epoch_covers_every_index_once(self):
        n, batch_size = 600, 200
        data = index_dataset(n)
        it = BatchIterator(data, batch_size, seed=0)
        seen = set()
        for _ in range(n // batch_size):
            images, _ = it.next_batch()
            idx = served_indices(images, n)
            assert len(idx) == batch_size
            assert not (seen & idx)
            seen |= idx
        assert seen == set(range(n))

    def test_iteration_count_matches_epochs(self):
        # 600 samples, batch 200 -> 3 batches/epoch; 30 iterations = 10 epochs.
        data = index_dataset(600)
        it = BatchIterator(data, 200, seed=1)
        for _ in range(30):
            it.next_batch()
        assert it.epoch == 9  # epoch counter advances at each boundary crossed

    def test_final_batch_smaller_when_not_divisible(self):
        data = index_dataset(250)
        it = BatchIterator(data, 100, seed=0)
        sizes = [it.next_batch()[0].shape[0] for _ in range(3)]
        assert sizes == [100, 100, 50]
        seen = set()
        it2 = BatchIterator(data, 100, seed=0)
        for _ in range(3):
            seen |= served_indices(it2.next_batch()[0], 250)
        assert seen == set(range(250))

    def test_same_seed_identical_sequences(self):
        data = index_dataset(300)
        a = BatchIterator(data, 64, seed=9)
        b = BatchIterator(data, 64, seed=9)
        for _ in range(12):
            xa, _ = a.next_batch()
            xb, _ = b.next_batch()
            assert np.array_equal(xa, xb)

    @given(st.integers(1, 50), st.integers(1, 60), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_no_duplicate_within_epoch(self, batch_size, n, seed):
        data = index_dataset(n)
        it = BatchIterator(data, batch_size, seed=seed)
        seen = []
        while len(seen) < n:
            images, _ = it.next_batch()
            seen.extend(served_indices(images, n))
        assert sorted(seen) == list(range(n))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            BatchIterator(index_dataset(0), 10, seed=0)


# SHA-256 of the images and then the labels of ``synthetic_arrays(n, seed,
# style=style)``, keyed by (n, seed, style).  Another numpy build may need
# them taken again.
SYNTHETIC_DIGESTS = {
    (1, 0, 0): "04126aa94ad893f6ab09e1260f6e5a8d5c6a4b27b3abd8911f6142fffe5929f2",
    (50, 0, 0): "f951d7f2b1e1f8163558353fdae731cdf7c83f89dc51eca2a89b33889544b5b5",
    (37, 1, 0): "79974ef992b3edf0805342edcbc6b3582095c777a171b1db1204836a68ebd0c5",
    (40, 2, 2): "d341f21da88933f4db9a55908636c6e630d0867926150543e5576efe1f46f139",
    (25, 7, 1): "76c8495348f539f48689ac2e6ddcb549c00c3f6b520f1b1995647de499b33a7d",
}


@pytest.mark.parametrize("key", SYNTHETIC_DIGESTS)
def test_synthetic_arrays_keep_their_bytes(key):
    n, seed, style = key
    images, labels = synthetic_arrays(n, seed, style=style)
    assert (images.shape, images.dtype, labels.shape, labels.dtype) == (
        (n, 28, 28), np.uint8, (n,), np.uint8)
    digest = hashlib.sha256(images.tobytes())
    digest.update(labels.tobytes())
    assert digest.hexdigest() == SYNTHETIC_DIGESTS[key]


@pytest.mark.slow
class TestRealData:
    def test_canonical_split_sizes(self):
        from infmix.data import load_split
        from conftest import require_real_data
        data_dir = require_real_data("mnist")
        train = load_split(data_dir, "train")
        test = load_split(data_dir, "test")
        assert train.n == 60_000 and train.images.shape[1] == 784
        assert test.n == 10_000
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0
