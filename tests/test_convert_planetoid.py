"""The converter script must turn pickled citation files into a loadable
dataset, including the zero-fill fix for gaps in the test index."""

import importlib.util
import pickle
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from dgmlp import load_dataset

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "prepare_citation_data.py"
spec = importlib.util.spec_from_file_location("prepare_citation_data", SCRIPT)
prep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(prep)


def _dump(path, obj):
    with open(path, "wb") as fh:
        pickle.dump(obj, fh)


def write_fake_planetoid(d: Path, name: str, test_index):
    """4 train+val-pool nodes (allx) plus test nodes appended behind them."""
    rng = np.random.default_rng(0)
    n_test = 2
    x = sparse.csr_matrix(rng.random((2, 3)))        # labeled training rows
    y = np.eye(2, dtype=np.int32)[[0, 1]]            # one-hot, 2 classes
    allx = sparse.csr_matrix(rng.random((4, 3)))
    ally = np.eye(2, dtype=np.int32)[[0, 1, 0, 1]]
    tx = sparse.csr_matrix(rng.random((n_test, 3)))
    ty = np.eye(2, dtype=np.int32)[[1, 0]]
    graph = {0: [1, 4], 1: [0], 2: [3], 3: [2], 4: [0, 5], 5: [4]}
    for piece, obj in [("x", x), ("y", y), ("tx", tx), ("ty", ty),
                       ("allx", allx), ("ally", ally), ("graph", graph)]:
        _dump(d / f"ind.{name}.{piece}", obj)
    (d / f"ind.{name}.test.index").write_text(
        "\n".join(str(i) for i in test_index) + "\n")


def test_convert_contiguous_test_index(tmp_path):
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    write_fake_planetoid(src, "toy", test_index=[5, 4])  # shuffled on disk
    prep.convert(src, "toy", out)
    ds = load_dataset(out)
    assert ds.num_nodes == 6
    assert ds.features.shape == (6, 3)
    assert ds.splits.train.tolist() == [0, 1]
    assert ds.splits.test.tolist() == [4, 5]
    assert ds.graph.neighbors(4).tolist() == [0, 5]


def test_convert_fills_test_index_gaps(tmp_path):
    # index {4, 6} skips node 5: the converter must zero-fill the gap row
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    write_fake_planetoid(src, "toy", test_index=[4, 6])
    graph = {0: [1, 4], 1: [0], 2: [3], 3: [2], 4: [0, 6], 6: [4]}
    _dump(src / "ind.toy.graph", graph)
    prep.convert(src, "toy", out)
    ds = load_dataset(out)
    assert ds.num_nodes == 7
    assert not ds.features[5].any()           # zero-filled gap node
    assert ds.splits.test.tolist() == [4, 6]  # gap node in no split
    assert 5 not in set(np.concatenate([ds.splits.train, ds.splits.val, ds.splits.test]))


def test_round_trip_preserves_feature_values(tmp_path):
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    write_fake_planetoid(src, "toy", test_index=[4, 5])
    prep.convert(src, "toy", out)
    ds = load_dataset(out)
    with open(src / "ind.toy.allx", "rb") as fh:
        raw_allx = pickle.load(fh, encoding="latin1")
    assert np.array_equal(ds.features[:4], np.asarray(raw_allx.todense()))
