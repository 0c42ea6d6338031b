import struct
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from euatlab import data, nn, presets, training
from oracles import blob_bayes_error, blob_noise_for_bayes_error, reference_dataset


class TestGenerators:
    @pytest.mark.parametrize("kind", data.DATASET_KINDS)
    def test_deterministic_and_in_unit_box(self, kind):
        a = data.generate_dataset(kind, 200, 0.05, seed=3)
        b = data.generate_dataset(kind, 200, 0.05, seed=3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        assert a.inputs.min() >= 0.0 and a.inputs.max() <= 1.0

    def test_splits_are_disjoint_and_sized(self):
        ds = data.generate_dataset("gaussian_blobs", 1000, 0.1, seed=0)
        all_ids = np.concatenate([ds.splits[k] for k in ("train", "validation", "test")])
        assert len(np.unique(all_ids)) == 1000
        assert len(ds.splits["validation"]) == 100
        assert len(ds.splits["test"]) == 200

    def test_too_few_rows_rejected(self):
        with pytest.raises(data.DataError):
            data.generate_dataset("gaussian_blobs", 2, 0.1, seed=0, class_count=3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(data.DataError):
            data.generate_dataset("spirals", 100, 0.1, seed=0)

    def test_moons_must_be_binary(self):
        with pytest.raises(data.DataError):
            data.generate_dataset("two_moons", 100, 0.1, seed=0, class_count=3)

    def test_noiseless_blobs_linearly_separable(self):
        ds = data.generate_dataset("gaussian_blobs", 120, 0.0, seed=1, class_count=3)
        centers = data._blob_centers(3)
        model = nn.MlpModel(
            [nn.DenseLayer(2.0 * centers, -np.sum(centers**2, axis=1), "identity")],
            0.0,
        )
        preds = training.predict_labels(model, ds.inputs)
        assert np.array_equal(preds, ds.labels)

    def test_blob_noise_bayes_error_round_trip(self):
        noise = blob_noise_for_bayes_error(0.15)
        assert blob_bayes_error(noise) == pytest.approx(0.15, abs=1e-12)

    @pytest.mark.parametrize("noise", [1e-3, 0.01, 0.05, 0.08, 0.1, 0.3, 1.0, 10.0])
    def test_blob_bayes_error_equals_the_scipy_stats_formula(self, noise):
        expected = float(norm.cdf(-data.BLOB_CENTER_RADIUS / noise))
        assert blob_bayes_error(noise) == expected

    @pytest.mark.parametrize("target", [1e-6, 0.01, 0.05, 0.1, 0.15, 0.25, 0.4, 0.499])
    def test_blob_noise_equals_the_scipy_stats_formula(self, target):
        expected = float(data.BLOB_CENTER_RADIUS / -norm.ppf(target))
        assert blob_noise_for_bayes_error(target) == expected

    def test_gaussian_trend_noise_is_the_15_percent_blob_noise(self):
        from scipy.special import ndtri

        noise = presets.GAUSSIAN_TREND_NOISE
        assert noise == float(data.BLOB_CENTER_RADIUS / -ndtri(0.15))
        assert blob_bayes_error(noise) == pytest.approx(0.15, abs=1e-12)
        config = presets.gaussian_trend_config()
        assert config.dataset.noise == noise

    def test_overlapping_blobs_nearest_neighbor_error(self):
        # Monte-Carlo check of the overlap level: 1-NN on 10^4 points from
        # the ~15% Bayes-error geometry lands in a [12%, 22%] window
        from scipy.spatial import cKDTree

        noise = blob_noise_for_bayes_error(0.15)
        train = data.generate_dataset("gaussian_blobs", 10_000, noise, seed=11)
        test = data.generate_dataset("gaussian_blobs", 10_000, noise, seed=12)
        tree = cKDTree(train.inputs)
        _, nearest = tree.query(test.inputs, k=1)
        err = float(np.mean(train.labels[nearest] != test.labels))
        assert 0.12 <= err <= 0.22

    def test_rings_radii_separate_classes(self):
        ds = data.generate_dataset("rings", 400, 0.01, seed=2)
        radius = np.hypot(ds.inputs[:, 0] - 0.5, ds.inputs[:, 1] - 0.5)
        inner = radius[ds.labels == 0]
        outer = radius[ds.labels == 1]
        assert inner.max() < outer.min()


def write_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    ipath = tmp_path / "images.idx"
    lpath = tmp_path / "labels.idx"
    ipath.write_bytes(
        struct.pack(">IIII", data.IDX_IMAGE_MAGIC, n, rows, cols) + images.tobytes()
    )
    lpath.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, len(labels)) + labels.tobytes())
    return ipath, lpath


class TestIdxLoader:
    def test_single_image_round_trips(self, tmp_path):
        image = np.array([[[0, 51, 102], [153, 204, 255]]], dtype=np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, image, [7])
        ds = data.load_idx(ipath, lpath, val_fraction=0.0, test_fraction=0.0)
        assert ds.inputs.shape == (1, 6)
        assert np.allclose(ds.inputs[0], image.reshape(-1) / 255.0)
        assert ds.labels[0] == 7

    def test_count_mismatch(self, tmp_path):
        image = np.zeros((2, 2, 2), dtype=np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, image, [1, 2, 3])
        with pytest.raises(data.DataError) as exc:
            data.load_idx(ipath, lpath)
        assert exc.value.code == "count_mismatch"

    def test_truncated_header(self, tmp_path):
        ipath = tmp_path / "images.idx"
        ipath.write_bytes(struct.pack(">II", data.IDX_IMAGE_MAGIC, 5))
        lpath = tmp_path / "labels.idx"
        lpath.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, 0))
        with pytest.raises(data.DataError) as exc:
            data.load_idx(ipath, lpath)
        assert exc.value.code == "truncated"

    def test_truncated_pixels(self, tmp_path):
        ipath = tmp_path / "images.idx"
        ipath.write_bytes(struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 2, 2, 2) + b"\x00" * 7)
        lpath = tmp_path / "labels.idx"
        lpath.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, 2) + b"\x00\x01")
        with pytest.raises(data.DataError) as exc:
            data.load_idx(ipath, lpath)
        assert exc.value.code == "truncated"

    def test_trailing_image_bytes(self, tmp_path):
        ipath, lpath = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        ipath.write_bytes(ipath.read_bytes() + b"\x00" * 11)
        with pytest.raises(data.DataError) as exc:
            data.load_idx(ipath, lpath)
        assert exc.value.code == "trailing_bytes"

    def test_trailing_label_bytes(self, tmp_path):
        ipath, lpath = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        lpath.write_bytes(lpath.read_bytes() + b"\x00" * 4)
        with pytest.raises(data.DataError) as exc:
            data.load_idx(ipath, lpath)
        assert exc.value.code == "trailing_bytes"

    def test_truncated_labels(self, tmp_path):
        ipath, lpath = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        lpath.write_bytes(lpath.read_bytes()[:-1])
        with pytest.raises(data.DataError) as exc:
            data.load_idx(ipath, lpath)
        assert exc.value.code == "truncated"

    def test_forged_huge_header_fails_before_reading(self, tmp_path):
        # 2^32 - 1 images of 65535 x 65535 pixels, backed by one byte
        ipath = tmp_path / "images.idx"
        ipath.write_bytes(
            struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 2**32 - 1, 65535, 65535)
            + b"\x00"
        )
        lpath = tmp_path / "labels.idx"
        lpath.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, 1) + b"\x00")
        with pytest.raises(data.DataError) as exc:
            data.load_idx(ipath, lpath)
        assert exc.value.code == "truncated"

    def test_bad_magic(self, tmp_path):
        ipath = tmp_path / "images.idx"
        ipath.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 1, 1) + b"\x00")
        lpath = tmp_path / "labels.idx"
        lpath.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, 1) + b"\x00")
        with pytest.raises(data.DataError) as exc:
            data.load_idx(ipath, lpath)
        assert exc.value.code == "bad_magic"

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
    def test_empty_images_rejected(self, tmp_path, rows, cols):
        ipath, lpath = write_idx_pair(tmp_path, np.zeros((60, rows, cols)), [0, 1] * 30)
        with pytest.raises(data.DataError) as exc:
            data.load_idx(ipath, lpath)
        assert exc.value.code == "empty_image"

    @pytest.mark.parametrize("missing", ["images", "labels", "directory"])
    def test_unopenable_file_is_a_data_error(self, tmp_path, missing):
        # each once raised the OSError (exit 1 from the command line)
        ipath, lpath = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        if missing == "images":
            ipath = tmp_path / "absent.idx"
        elif missing == "labels":
            lpath = tmp_path / "absent.idx"
        else:
            ipath = tmp_path
        with pytest.raises(data.DataError) as exc:
            data.load_idx(ipath, lpath)
        assert exc.value.code == "unreadable"
        assert str(ipath if missing != "labels" else lpath) in str(exc.value)


class TestBinaryTask:
    def balanced_ten_class(self):
        n = 500
        labels = np.arange(n) % 10
        inputs = np.random.default_rng(0).random((n, 3))
        return data.Dataset(inputs, labels, data.split_indices(n, 0))

    def test_ten_class_balance(self):
        binary = data.make_binary_task(self.balanced_ten_class(), positive_class=4)
        assert np.bincount(binary.labels).tolist() == [450, 50]
        assert set(np.unique(binary.labels)) == {0, 1}

    def test_idempotent_with_positive_one(self):
        once = data.make_binary_task(self.balanced_ten_class(), positive_class=1)
        twice = data.make_binary_task(once, positive_class=1)
        assert np.array_equal(once.labels, twice.labels)

    def test_mapping_matches_oracle(self):
        ds = self.balanced_ten_class()
        binary = data.make_binary_task(ds, positive_class=3)
        for orig, mapped in zip(ds.labels, binary.labels):
            assert mapped == (1 if orig == 3 else 0)

    def test_absent_class_rejected(self):
        with pytest.raises(data.DataError):
            data.make_binary_task(self.balanced_ten_class(), positive_class=77)

    def test_shares_the_source_arrays(self):
        # an image-scale task (2,000 x 784 here) must not be held twice
        n = 2000
        ds = data.Dataset(np.random.default_rng(1).random((n, 784)), np.arange(n) % 10,
                          data.split_indices(n, 0))
        tracemalloc.start()
        try:
            binary = data.make_binary_task(ds, positive_class=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * ds.inputs.nbytes
        assert binary.inputs is ds.inputs
        for name, ids in ds.splits.items():
            assert binary.splits[name] is ids
        assert np.array_equal(binary.labels, (ds.labels == 3).astype(np.int64))


class TestDiskFormat:
    def test_overlapping_splits_rejected(self):
        with pytest.raises(data.DataError, match="disjoint"):
            data.Dataset(
                np.zeros((4, 2)),
                np.zeros(4, dtype=int),
                {"train": np.array([0, 1]), "test": np.array([1, 2])},
            )


def assert_read_only_views(ds):
    for name in ds.splits:
        x, y = ds.split(name)
        assert np.shares_memory(x, ds.inputs) and np.shares_memory(y, ds.labels)
        assert not x.flags.writeable and not y.flags.writeable
        if len(y):
            with pytest.raises(ValueError, match="read-only"):
                x[0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                y[0] = 1


class TestSplitViews:
    @pytest.mark.parametrize("kind, dim, class_count", [
        ("gaussian_blobs", 2, 2), ("gaussian_blobs", 5, 3), ("gaussian_blobs", 37, 10),
        ("two_moons", 2, 2), ("rings", 2, 2), ("rings", 2, 4),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_split_rows_equal_the_former_generator(self, kind, dim, class_count, seed):
        noise = 0.3 if kind == "gaussian_blobs" else 0.05  # blobs reach the clip
        ds = data.generate_dataset(kind, 301, noise, seed, class_count, 0.15, 0.25, dim)
        inputs, labels, splits = reference_dataset(
            kind, 301, noise, seed, class_count, 0.15, 0.25, dim
        )
        assert list(ds.splits) == ["validation", "test", "train"]
        start = 0
        for name, ids in splits.items():
            x, y = ds.split(name)
            assert np.array_equal(x, inputs[ids]) and np.array_equal(y, labels[ids])
            assert np.array_equal(ds.splits[name], np.arange(start, start + len(ids)))
            start += len(ids)
        assert_read_only_views(ds)

    def test_idx_splits_equal_the_scaled_pixels(self, tmp_path):
        gen = np.random.default_rng(5)
        images = gen.integers(0, 256, size=(40, 3, 4), dtype=np.uint8)
        labels = gen.integers(0, 10, size=40)
        ds = data.load_idx(*write_idx_pair(tmp_path, images, labels), seed=9)
        pixels = images.reshape(40, -1).astype(np.float64) / 255.0
        for name, ids in data.split_indices(40, 9).items():
            x, y = ds.split(name)
            assert np.array_equal(x, pixels[ids]) and np.array_equal(y, labels[ids])
        assert_read_only_views(ds)

    def test_idx_loading_keeps_one_float_copy(self, tmp_path):
        n = 3000
        images = np.random.default_rng(6).integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        paths = write_idx_pair(tmp_path, images, np.arange(n) % 10)
        tracemalloc.start()
        try:
            ds = data.load_idx(*paths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * ds.inputs.nbytes

    def test_binary_task_views_its_source(self):
        ds = data.generate_dataset("gaussian_blobs", 200, 0.1, seed=4, class_count=4)
        binary = data.make_binary_task(ds, positive_class=2)
        for name in ds.splits:
            assert np.shares_memory(binary.split(name)[0], ds.inputs)
        assert_read_only_views(binary)

    def test_hand_built_dataset_is_grouped_once(self):
        gen = np.random.default_rng(8)
        inputs, labels = gen.random((12, 3)), gen.integers(0, 3, size=12)
        # unsorted ids, splits out of order, and rows 4 and 9 in no split
        splits = {"train": np.array([7, 0, 11, 2]), "test": np.array([10, 3]),
                  "validation": np.array([5, 8, 1, 6])}
        ds = data.Dataset(inputs, labels, splits)
        assert {k: v.tolist() for k, v in ds.splits.items()} == {
            "train": [0, 1, 2, 3], "test": [4, 5], "validation": [6, 7, 8, 9]}
        for name, ids in splits.items():
            x, y = ds.split(name)
            assert np.array_equal(x, inputs[ids]) and np.array_equal(y, labels[ids])
        assert np.array_equal(ds.inputs[10:], inputs[[4, 9]])
        assert np.array_equal(ds.labels[10:], labels[[4, 9]])
        assert_read_only_views(ds)
        # the caller's arrays are left as they were
        assert inputs.flags.writeable and np.array_equal(inputs[0], ds.split("train")[0][1])

    def test_grouped_dataset_keeps_its_arrays(self):
        ds = data.generate_dataset("rings", 100, 0.05, seed=1)
        again = data.Dataset(ds.inputs, ds.labels, ds.splits)
        assert again.inputs is ds.inputs and again.labels is ds.labels
        assert all(again.splits[k] is v for k, v in ds.splits.items())

    def test_split_allocates_no_rows(self):
        ds = data.generate_dataset("gaussian_blobs", 2000, 0.1, seed=0, dim=64)
        tracemalloc.start()
        try:
            x, y = ds.split("train")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024
        assert x.shape == (1400, 64) and len(y) == 1400

    def test_blobs_are_built_in_their_normal_draw(self):
        tracemalloc.start()
        try:
            points, _ = data._gen_blobs(4000, 0.01, 3, 10, 784)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert points.shape == (4000, 784)
        assert peak < 1.1 * points.nbytes
