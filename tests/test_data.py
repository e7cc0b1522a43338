"""Synthetic data generation, label corruption, and the tabular format."""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from uqtrain.data import (
    LabeledDataset,
    NoiseSpec,
    corrupt_labels,
    load_dataset,
    make_blobs,
    save_dataset,
    split_dataset,
)
from uqtrain.errors import ContractError, DataFormatError


def test_same_seed_gives_bitwise_identical_datasets():
    a = make_blobs(4, 10, 200, 1.0, seed=3)
    b = make_blobs(4, 10, 200, 1.0, seed=3)
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = make_blobs(4, 10, 200, 1.0, seed=4)
    assert not np.array_equal(a.features, c.features)


def test_zero_spread_gives_point_clusters():
    ds = make_blobs(2, 5, 20, 0.0, seed=0)
    for k in (0, 1):
        rows = ds.features[ds.labels == k]
        assert np.ptp(rows, axis=0).max() == 0.0
    assert not np.array_equal(ds.features[ds.labels == 0][0],
                              ds.features[ds.labels == 1][0])


def test_labels_balanced_and_in_range():
    ds = make_blobs(4, 10, 200, 1.0, seed=1)
    counts = np.bincount(ds.labels, minlength=4)
    assert counts.tolist() == [50, 50, 50, 50]
    assert ds.num_classes == 4


def test_blob_centers_respect_separation():
    ds = make_blobs(4, 10, 400, 1.0, seed=2)
    centers = np.stack([ds.features[ds.labels == k].mean(axis=0)
                        for k in range(4)])
    for i in range(4):
        for j in range(i + 1, 4):
            # empirical centers sit near the true ones; the true minimum
            # separation is 2 * spread
            assert np.linalg.norm(centers[i] - centers[j]) > 1.5


def test_make_blobs_contract_errors():
    with pytest.raises(ContractError):
        make_blobs(1, 5, 20, 1.0, seed=0)
    with pytest.raises(ContractError):
        make_blobs(3, 5, 4, 1.0, seed=0)


def test_corrupt_zero_ratio_is_identity():
    ds = make_blobs(3, 4, 60, 1.0, seed=5)
    out = corrupt_labels(ds, NoiseSpec(ratio=0.0, seed=1))
    assert np.array_equal(out.labels, ds.labels)
    assert np.array_equal(out.clean_labels, ds.labels)


def test_corrupt_full_ratio_two_classes_flips_everything():
    ds = make_blobs(2, 4, 40, 1.0, seed=6)
    out = corrupt_labels(ds, NoiseSpec(ratio=1.0, seed=1))
    assert np.array_equal(out.labels, 1 - ds.labels)


def test_corruption_count_is_exact():
    ds = make_blobs(4, 6, 1000, 1.0, seed=7)
    out = corrupt_labels(ds, NoiseSpec(ratio=0.3, seed=2))
    assert int((out.labels != out.clean_labels).sum()) == 300
    assert np.array_equal(out.clean_labels, ds.labels)


def test_corruption_never_maps_to_self():
    ds = make_blobs(5, 4, 500, 1.0, seed=8)
    out = corrupt_labels(ds, NoiseSpec(ratio=1.0, seed=3))
    assert np.all(out.labels != out.clean_labels)
    assert out.labels.min() >= 0 and out.labels.max() < 5


def test_corrupt_rejects_bad_spec():
    ds = make_blobs(3, 4, 30, 1.0, seed=9)
    with pytest.raises(ContractError):
        corrupt_labels(ds, NoiseSpec(ratio=1.5, seed=0))


def test_corruption_is_seed_deterministic():
    ds = make_blobs(4, 6, 200, 1.0, seed=10)
    a = corrupt_labels(ds, NoiseSpec(ratio=0.2, seed=4))
    b = corrupt_labels(ds, NoiseSpec(ratio=0.2, seed=4))
    assert np.array_equal(a.labels, b.labels)
    c = corrupt_labels(ds, NoiseSpec(ratio=0.2, seed=5))
    assert not np.array_equal(a.labels, c.labels)


def test_split_is_disjoint_prefix_suffix():
    ds = make_blobs(4, 6, 100, 1.0, seed=13)
    train, test = split_dataset(ds, 60)
    assert len(train) == 60 and len(test) == 40
    assert np.array_equal(train.features, ds.features[:60])
    assert np.array_equal(test.features, ds.features[60:])
    with pytest.raises(ContractError):
        split_dataset(ds, 100)


def test_dataset_file_round_trip(tmp_path):
    ds = make_blobs(3, 5, 30, 1.0, seed=14)
    path = os.path.join(tmp_path, "ds.csv")
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(back.labels, ds.labels)


def test_dataset_file_is_headerless_csv(tmp_path):
    ds = make_blobs(2, 3, 4, 1.0, seed=15)
    path = os.path.join(tmp_path, "ds.csv")
    save_dataset(ds, path)
    with open(path) as f:
        lines = f.read().strip().split("\n")
    assert len(lines) == 4
    first = lines[0].split(",")
    assert len(first) == 4            # 3 features + 1 label
    float(first[0])                   # decimal-dot parse must succeed
    assert first[3] == str(ds.labels[0])


def test_failed_dataset_write_keeps_previous_file(tmp_path):
    """A save_dataset that dies after writing some rows leaves the old
    file's bytes and no temp file."""
    ds = make_blobs(3, 5, 30, 1.0, seed=14)
    path = os.path.join(tmp_path, "ds.csv")
    save_dataset(ds, path)
    with open(path, "rb") as fh:
        before = fh.read()

    class Unwritable:
        def __int__(self):
            raise OSError("disk full")

    # five rows are written before the sixth label raises
    broken = SimpleNamespace(features=ds.features[::-1],
                             labels=[*ds.labels[:5], Unwritable()])
    with pytest.raises(OSError, match="disk full"):
        save_dataset(broken, path)
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["ds.csv"]


def test_load_rejects_malformed_rows(tmp_path):
    path = os.path.join(tmp_path, "bad.csv")
    with open(path, "w") as f:
        f.write("1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(DataFormatError):
        load_dataset(path)
    path2 = os.path.join(tmp_path, "ragged.csv")
    with open(path2, "w") as f:
        f.write("1.0,2.0,0\n1.0,1\n")
    with pytest.raises(DataFormatError):
        load_dataset(path2)


def test_dataset_validation():
    with pytest.raises(ContractError):
        LabeledDataset(features=np.zeros((4, 2)),
                       labels=np.array([0, 1, 0]))
    with pytest.raises(ContractError):
        LabeledDataset(features=np.zeros(4), labels=np.zeros(4, dtype=int))
