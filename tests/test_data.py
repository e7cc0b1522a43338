"""Synthetic data generation, label corruption, and the tabular format."""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from uqtrain.data import (
    LabeledDataset,
    NoiseSpec,
    _parse_lines,
    _parse_table,
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


# cell spellings the two parses must agree on: accepted by both with the
# same bits, or sent by the table parse to the line parse
SPELLINGS = [
    "1.5", "nan", "NaN", "-nan", "inf", "-inf", "iNf", "infinity",
    "+Infinity", "-iNfInItY", "+.5e-3", "-.5E+3", "05", "007", "-0", "+0",
    "-0.0", "0.1", "1e400", "-1e400", "1e-400", "4.9e-324",
    "2.2250738585072014e-308", "1.7976931348623157e308",
    "9007199254740993", "9223372036854775807", "-9223372036854775808",
    "9223372036854775808", "-9223372036854775809", "99999999999999999999",
    " 1.5", "1.5 ", "\t1.5\t", "\x0b1.5", "\x0c1.5", "1.5\x0c",
    "\x1c1.5", "1.5\x1d", "1\x1e", "\x1f2", "1_0", "1__0", "_1", "3.0",
    "0x10", "0x1p3", "1e", "e5", ".", "", "1.5f", "1d5", "+-1", "nan(1)",
    "1 5", "\x00", "1\x00", "'1'", '"1"', "#1", "1#",
]


@pytest.mark.parametrize("template", ["{},2.5,1", "1.5,{},1", "1.5,2.5,{}"],
                         ids=["first-feature", "mid-feature", "label"])
def test_table_parse_accepts_only_what_the_line_parse_accepts(tmp_path,
                                                              template):
    """Where np.loadtxt accepts a spelling, float()/int() accept it with
    the same bits; load_dataset returns the line parse's dataset or
    raises its error."""
    path = os.path.join(tmp_path, "cells.csv")
    for cell in SPELLINGS:
        text = template.format(cell) + "\n1,2,3\n"
        try:
            want = _parse_lines(path, text)
        except DataFormatError as e:
            want = e
        got = _parse_table(text)
        if got is not None:
            assert not isinstance(want, Exception), repr(cell)
            assert got[0].tobytes() == want[0].tobytes(), repr(cell)
            assert got[1].tobytes() == want[1].tobytes(), repr(cell)
        with open(path, "w", encoding="ascii", newline="") as f:
            f.write(text)
        if isinstance(want, Exception):
            with pytest.raises(DataFormatError) as err:
                load_dataset(path)
            assert str(err.value) == str(want), repr(cell)
            continue
        finite = np.isfinite(want[0]).all() and want[1].min() >= 0
        if not finite:
            with pytest.raises(DataFormatError, match=f"{path}:1: "):
                load_dataset(path)
            continue
        ds = load_dataset(path)
        assert ds.features.tobytes() == want[0].tobytes(), repr(cell)
        assert ds.labels.tobytes() == want[1].tobytes(), repr(cell)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                         ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("last_newline", [True, False],
                         ids=["newline-end", "no-newline-end"])
def test_blank_lines_and_line_endings_parse_alike(tmp_path, newline,
                                                  last_newline):
    lines = ["", "1.5,-2,0", "   ", "\t", "3e-3,4,1 ", "", " 5,6.25,2"]
    text = newline.join(lines) + (newline if last_newline else "")
    path = os.path.join(tmp_path, "ends.csv")
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(text)
    ds = load_dataset(path)
    assert ds.features.tolist() == [[1.5, -2.0], [3e-3, 4.0], [5.0, 6.25]]
    assert ds.labels.tolist() == [0, 1, 2]
    as_read = text.replace("\r\n", "\n").replace("\r", "\n")
    got = _parse_table(as_read)
    want = _parse_lines(path, as_read)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("row, message", [
    ("1.0,2.0", "expected 3 columns, got 2"),
    ("1.0,oops,1", "could not convert string to float: 'oops'"),
    ("1.0,2.0,2.5", "invalid literal for int() with base 10: '2.5'"),
    ("1_0,2,-1", "negative label -1"),
    ("1_0,nan,1", "non-finite feature"),
    ("nan,2,1", "non-finite feature"),
    ("1,2,-3", "negative label -3")],
    ids=["ragged", "unparsable", "float-label", "1_0-negative-label",
         "1_0-nan", "nan", "negative-label"])
def test_error_names_its_line_after_blank_lines(tmp_path, row, message):
    """Blank and whitespace-only lines count toward the line number,
    whether the table parse reads the file (nan, negative label) or
    hands it to the line parse (every other row)."""
    path = os.path.join(tmp_path, "bad.csv")
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write("\r\n1,2,0\r\n  \r\n\r\n\t\r\n" + row + "\r\n3,4,1")
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}:6: {message}"


def test_dataset_validation():
    with pytest.raises(ContractError):
        LabeledDataset(features=np.zeros((4, 2)),
                       labels=np.array([0, 1, 0]))
    with pytest.raises(ContractError):
        LabeledDataset(features=np.zeros(4), labels=np.zeros(4, dtype=int))
