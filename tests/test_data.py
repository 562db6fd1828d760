import json
import math
import os
import shutil
import signal
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgmlp import ParameterError, ValidationError, build_graph, data, drop_edges, \
    erdos_renyi, load_dataset, mask_features, propagation, subsample_labels
from dgmlp.graph import MAX_NODES

from conftest import assert_no_worker_left, citation_dataset, linux_only, open_fds, \
    random_graph


class TestLoadDataset:
    def test_tiny_fixture(self, tiny_dir):
        ds = load_dataset(tiny_dir)
        assert ds.num_nodes == 6
        assert ds.features.shape == (6, 4)
        assert ds.num_classes == 2
        assert ds.graph.num_edges == 7
        assert (len(ds.splits.train), len(ds.splits.val), len(ds.splits.test)) == (2, 2, 2)
        assert ds.node_id_map is None  # integer ids used directly

    def test_string_ids_remapped(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        (d / "edges.tsv").write_text("alpha\tbeta\nbeta\tgamma\n")
        (d / "features.csv").write_text("1.0,0.0\n0.0,1.0\n1.0,1.0\n")
        (d / "labels.csv").write_text("0\n1\n0\n")
        (d / "splits.json").write_text('{"train": [0], "val": [1], "test": [2]}')
        ds = load_dataset(d)
        assert ds.node_id_map == {"alpha": 0, "beta": 1, "gamma": 2}
        assert ds.graph.neighbors(1).tolist() == [0, 2]

    def test_missing_file_named(self, tmp_path, tiny_dir):
        d = tmp_path / "ds"
        shutil.copytree(tiny_dir, d)
        (d / "labels.csv").unlink()
        with pytest.raises(ValidationError, match="labels.csv"):
            load_dataset(d)

    def test_ragged_features_name_line(self, tmp_path, tiny_dir):
        d = tmp_path / "ds"
        shutil.copytree(tiny_dir, d)
        lines = (d / "features.csv").read_text().splitlines()
        lines[2] = "1.0,2.0"  # wrong width
        (d / "features.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_dataset(d)

    def test_non_numeric_feature_names_line(self, tmp_path, tiny_dir):
        d = tmp_path / "ds"
        shutil.copytree(tiny_dir, d)
        lines = (d / "features.csv").read_text().splitlines()
        lines[4] = "1.0,oops,0.0,0.0"
        (d / "features.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="line 5"):
            load_dataset(d)

    def test_split_overlap_names_splits_and_index(self, tmp_path, tiny_dir):
        d = tmp_path / "ds"
        shutil.copytree(tiny_dir, d)
        (d / "splits.json").write_text('{"train": [0, 3], "val": [3, 4], "test": [2, 5]}')
        with pytest.raises(ValidationError, match=r"'train' and 'val' overlap at index 3"):
            load_dataset(d)

    def test_split_repeating_a_node_names_file_split_and_node(self, tmp_path, tiny_dir):
        # a repeated test node would count four times in every test accuracy
        d = tmp_path / "ds"
        shutil.copytree(tiny_dir, d)
        (d / "splits.json").write_text('{"train": [0, 3], "val": [1, 4], "test": [2, 5, 2, 2, 2]}')
        with pytest.raises(ValidationError) as info:
            load_dataset(d)
        assert str(info.value) == \
            f"{d / 'splits.json'}: split 'test' lists node 2 more than once"

    def test_split_out_of_range(self, tmp_path, tiny_dir):
        d = tmp_path / "ds"
        shutil.copytree(tiny_dir, d)
        (d / "splits.json").write_text('{"train": [0], "val": [1], "test": [99]}')
        with pytest.raises(ValidationError, match="99"):
            load_dataset(d)

    def test_edge_id_out_of_range_names_line(self, tmp_path, tiny_dir):
        d = tmp_path / "ds"
        shutil.copytree(tiny_dir, d)
        (d / "edges.tsv").write_text("0\t1\n0\t6\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_dataset(d)

    @pytest.mark.parametrize("per_line", [False, True], ids=["as read", "per-line parser"])
    @pytest.mark.parametrize("edges,line,pair", [
        ("0\t1\n1\t2\n0\t6\n", 3, "(0, 6)"),
        ("0\t1\n-1\t2\n2\t3\n", 2, "(-1, 2)"),
        ("0\t1\n1\t2\n2\t3\n5\t99999999999999999999\n", 4, "(5, 99999999999999999999)"),
    ], ids=["past N", "negative", "past int64"])
    def test_edge_id_out_of_range_names_file_and_line(self, tmp_path, tiny_dir, edges, line,
                                                      pair, per_line):
        d = tmp_path / "ds"
        shutil.copytree(tiny_dir, d)
        (d / "edges.tsv").write_text(edges)
        (d / "splits.json").write_text("not JSON")  # read after the edges are checked
        line_parser = mock.Mock(wraps=data._parse_edge_lines)
        load_table = mock.Mock(return_value=None) if per_line else data._load_table
        with mock.patch.multiple(data, _parse_edge_lines=line_parser, _load_table=load_table), \
                pytest.raises(ValidationError) as info:
            load_dataset(d)
        assert str(info.value) == \
            f"{d / 'edges.tsv'}: line {line}: node id out of range [0, 6): {pair}"
        # np.loadtxt rejects an id past int64, so that file takes the per-line path
        assert line_parser.called == (per_line or "9" * 20 in edges)

    def test_missing_class_rejected(self, tmp_path, tiny_dir):
        d = tmp_path / "ds"
        shutil.copytree(tiny_dir, d)
        (d / "labels.csv").write_text("0\n0\n0\n2\n2\n2\n")  # class 1 absent
        with pytest.raises(ValidationError, match="class 1"):
            load_dataset(d)

    @pytest.mark.parametrize("label,message", [
        ("1000000000000", "class 2 has no nodes"),  # no bincount over 1e12 slots
        ("99999999999999999999", "line 6: class id out of range"),  # past int64
    ])
    def test_huge_class_id_is_one_error(self, tmp_path, tiny_dir, label, message):
        d = tmp_path / "ds"
        shutil.copytree(tiny_dir, d)
        (d / "labels.csv").write_text(f"0\n1\n0\n1\n0\n{label}\n")
        with pytest.raises(ValidationError, match=f"labels.csv: {message}"):
            load_dataset(d)

    @pytest.mark.parametrize("final_lf", [True, False])
    def test_clean_files_skip_the_per_line_parsers(self, tmp_path, tiny_dir, final_lf):
        d = tmp_path / "ds"
        shutil.copytree(tiny_dir, d)
        if not final_lf:
            for name in ("features.csv", "labels.csv", "edges.tsv"):
                (d / name).write_text((d / name).read_text().rstrip("\n"))
        unused = mock.Mock(side_effect=AssertionError("per-line parser called"))
        with mock.patch.multiple(data, _parse_feature_lines=unused,
                                 _parse_label_lines=unused, _parse_edge_lines=unused):
            ds = load_dataset(d)
        assert ds.features.shape == (6, 4) and ds.graph.num_edges == 7


SPLITS = '{"train": [0], "val": [], "test": []}'


def _outcome(directory):
    """Everything load_dataset returns, bit for bit and with its layout
    flags, or its error line."""
    try:
        ds = load_dataset(directory)
    except ValidationError as exc:
        return str(exc)
    arrays = (ds.features, ds.labels, ds.graph.row_offsets, ds.graph.col_indices,
              ds.graph.degrees)
    return [(a.dtype.str, a.shape, a.flags.c_contiguous, a.flags.writeable, a.tobytes())
            for a in arrays] + [ds.num_classes, ds.node_id_map]


def assert_parsers_agree(features: str, labels: str, edges: str) -> None:
    """load_dataset gives what the per-line parsers alone give on these texts."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, text in (("features.csv", features), ("labels.csv", labels),
                           ("edges.tsv", edges), ("splits.json", SPLITS)):
            (d / name).write_bytes(text.encode("utf-8"))
        fast = _outcome(d)
        with mock.patch.object(data, "_load_table", return_value=None):
            per_line = _outcome(d)
    assert fast == per_line


FEATURES = "1.0,0.5\n0.0,-2e-3\n3,4\n"
LABELS = "0\n1\n0\n"
EDGES = "0\t1\n1\t2\n"

# inputs on which np.loadtxt and the per-line parsers were seen to differ
DIVERGENT = {
    "clean": (FEATURES, LABELS, EDGES),
    "blank line": ("1.0,0.5\n\n0.0,1.0\n3,4\n", LABELS, EDGES),
    "blank last line": (FEATURES, LABELS + "\n", EDGES + "\n"),
    "bare CR and blank line": ("1.0,0.5\r0.0,1.0\n\n3,4\n", LABELS, EDGES),
    "bare CR in labels": (FEATURES, "0\r1\n\n0\n", EDGES),
    "underscore": ("1_0,0.5\n0.0,1.0\n3,4\n", "0\n1_0\n0\n", "0\t1_0\n1\t2\n"),
    "nan": ("nan,0.5\n0.0,1.0\n3,4\n", LABELS, EDGES),
    "inf": ("-inf,0.5\n0.0,1.0\n3,4\n", LABELS, EDGES),
    "empty files": ("", "", ""),
    "empty edges": (FEATURES, LABELS, ""),
    "lone LF": ("\n", "\n", "\n"),
    "CRLF": (FEATURES.replace("\n", "\r\n"), LABELS.replace("\n", "\r\n"),
             EDGES.replace("\n", "\r\n")),
    "trailing comma": ("1.0,0.5,\n0.0,1.0,\n3,4,\n", LABELS, EDGES),
    "hash": ("#1.0,0.5\n0.0,1.0\n3,4\n", "0\n#1\n0\n", "#0\t1\n1\t2\n"),
    "quotes": ('"1.0",0.5\n0.0,1.0\n3,4\n', '0\n"1"\n0\n', '"0"\t1\n1\t2\n'),
    "BOM": ("\ufeff" + FEATURES, "\ufeff" + LABELS, "\ufeff" + EDGES),
    "ragged row": ("1.0,0.5\n0.0\n3,4\n", "0\n1,1\n0\n", "0\t1\t2\n1\t2\n"),
    "two label columns": (FEATURES, "0,0\n1,1\n0,0\n", EDGES),
    "three edge columns": (FEATURES, LABELS, "0\t1\t2\n1\t2\t0\n"),
    "no final LF": (FEATURES[:-1], LABELS[:-1], EDGES[:-1]),
    "string ids": (FEATURES, LABELS, "a\tb\nb\tc\n"),
    "out-of-range id": (FEATURES, LABELS, "0\t1\n1\t3\n"),
    "negative id": (FEATURES, LABELS, "0\t1\n-1\t2\n"),
    "id past int64": (FEATURES, LABELS, "0\t99999999999999999999\n"),
    "separator 0x1c": ("1.0\x1c,0.5\n0.0,1.0\n3,4\n", "0\n1\x1c\n0\n", EDGES),
    "unicode space": ("\u20031.0,0.5\n0.0,1.0\n3,4\n", "0\n\u20031\n0\n", "0\t\u20031\n"),
    "float label": (FEATURES, "0\n1.0\n0\n", EDGES),
    "label past int64": (FEATURES, "0\n99999999999999999999\n0\n", EDGES),
    "missing class": (FEATURES, "0\n2\n0\n", EDGES),
    "short labels": (FEATURES, "0\n1\n", EDGES),
}


class TestParserAgreement:
    """The one-call loadtxt path against the per-line parsers it stands in for."""

    @pytest.mark.parametrize("case", DIVERGENT.values(), ids=DIVERGENT.keys())
    def test_divergent_inputs(self, case):
        assert_parsers_agree(*case)

    @settings(max_examples=200)
    @given(st.data())
    def test_generated_files(self, gen):
        num_nodes = gen.draw(st.integers(1, 4), label="num_nodes")
        width = gen.draw(st.integers(1, 3), label="width")
        number = st.one_of(
            st.floats(allow_subnormal=True).map(repr),
            st.floats(-1e6, 1e6).map(lambda x: f"{x:.4g}"),
            st.integers(-5, 5).map(str),
        )
        index = st.integers(0, num_nodes - 1).map(str)
        odd = st.sampled_from(["1_0", " 2 ", "\t2", "+1", "-0", "0003", "1e3", "1.0", "-1",
                               "7", "", "#1", '"1"', "\ufeff1", "1\x1c", "\x0b1", "\u20031",
                               "\u0663", "0x1", "1d0", "nan", "-inf", "a", "9" * 20])

        def cells(valid):
            # about half of the files carry odd tokens
            return st.one_of(valid, odd) if gen.draw(st.booleans()) else valid

        value, label = cells(number), cells(index)
        node = cells(st.one_of(index, st.sampled_from(["a", "b"])) if gen.draw(st.booleans())
                     else index)
        features = [",".join(gen.draw(st.lists(value, min_size=width, max_size=width)))
                    for _ in range(num_nodes)]
        labels = [gen.draw(label) for _ in range(num_nodes)]
        edges = [f"{gen.draw(node)}\t{gen.draw(node)}"
                 for _ in range(gen.draw(st.integers(0, 5)))]
        assert_parsers_agree(*(_layout(gen, lines) for lines in (features, labels, edges)))


def _write_dataset(directory: Path, features: str, labels: str, edges: str) -> None:
    for name, text in (("features.csv", features), ("labels.csv", labels),
                       ("edges.tsv", edges), ("splits.json", SPLITS)):
        (directory / name).write_bytes(text.encode("utf-8"))


def assert_workers_agree(features: str, labels: str, edges: str, shards: int = 2) -> None:
    """load_dataset with every table of two or more lines cut into parts
    for forked workers gives what it gives in one process, and leaves no
    worker and no pipe behind."""
    fds = open_fds()
    with tempfile.TemporaryDirectory() as tmp:
        _write_dataset(Path(tmp), features, labels, edges)
        one_process = _outcome(tmp)
        with mock.patch.object(data, "_MIN_PART_BYTES", 1), \
                mock.patch.object(propagation, "_num_shards", lambda: shards):
            forked = _outcome(tmp)
    assert forked == one_process
    assert_no_worker_left(fds)


def _lines(count: int, bad_line: int | None = None, bad: str | None = None) -> str:
    """A features.csv of `count` rows "v.5,-v", line bad_line replaced by bad."""
    rows = [f"{v}.5,{-v}" for v in range(count)]
    if bad_line is not None:
        rows[bad_line - 1] = bad
    return "".join(row + "\n" for row in rows)


@linux_only
@pytest.mark.usefixtures("no_worker_left")
class TestWorkerParsing:
    """_load_table with its minimum part size lowered, so that small files
    go to the forked workers."""

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("case", DIVERGENT.values(), ids=DIVERGENT.keys())
    def test_divergent_inputs_as_in_one_process(self, case, shards):
        assert_workers_agree(*case, shards=shards)

    @settings(max_examples=50)
    @given(st.data())
    def test_generated_files_as_in_one_process(self, gen):
        num_nodes = gen.draw(st.integers(1, 12), label="num_nodes")
        width = gen.draw(st.integers(1, 3), label="width")
        value = st.one_of(st.floats(allow_subnormal=True).map(repr), st.integers(-5, 5).map(str),
                          st.sampled_from(["", "a", "1_0", " 2 ", "nan"]))
        index = st.integers(0, num_nodes - 1).map(str)
        features = [",".join(gen.draw(st.lists(value, min_size=width, max_size=width)))
                    for _ in range(num_nodes)]
        labels = [gen.draw(index) for _ in range(num_nodes)]
        edges = [f"{gen.draw(index)}\t{gen.draw(index)}"
                 for _ in range(gen.draw(st.integers(0, 12)))]
        assert_workers_agree(*(_layout(gen, lines) for lines in (features, labels, edges)),
                             shards=gen.draw(st.integers(2, 4), label="shards"))

    def test_clean_tables_come_from_the_workers(self, tmp_path, monkeypatch, no_worker_left):
        monkeypatch.setattr(data, "_MIN_PART_BYTES", 1)
        _write_dataset(tmp_path, _lines(40), "0\n" * 40, "0\t1\n1\t2\n")
        loadtxt = data._loadtxt

        def in_workers_only(source, *args, **kwargs):
            assert not isinstance(source, Path), "table parsed in this process"
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(data, "_loadtxt", in_workers_only)
        ds = load_dataset(tmp_path)
        assert ds.features.tobytes() == \
            np.array([[v + 0.5, -v] for v in range(40)]).tobytes()

    def test_a_later_fork_writing_the_features_leaves_them(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_MIN_PART_BYTES", 1)
        _write_dataset(tmp_path, _lines(40), "0\n" * 40, "0\t1\n1\t2\n")
        ds = load_dataset(tmp_path)
        assert not ds.features.flags.owndata  # the workers' table, not a parse here
        want = ds.features.tobytes()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                ds.features[:] = -1.0
                status = 0 if (ds.features == -1.0).all() else 2
            finally:
                os._exit(status)
        assert os.waitpid(pid, 0)[1] == 0
        assert ds.features.tobytes() == want

    @pytest.mark.parametrize("bad_line,bad,message", [
        (35, "1.0,x", "line 35: could not convert string to float: 'x'"),
        (35, "", "line 35: expected 2 values, got 1"),
        (40, "1.0,2.0,3.0", "line 40: expected 2 values, got 3"),
    ])
    def test_error_in_a_later_part(self, tmp_path, monkeypatch, no_worker_left,
                                   bad_line, bad, message):
        _write_dataset(tmp_path, _lines(40, bad_line, bad), "0\n" * 40, "0\t1\n")
        with pytest.raises(ValidationError) as one_process:
            load_dataset(tmp_path)
        monkeypatch.setattr(data, "_MIN_PART_BYTES", 1)
        with pytest.raises(ValidationError) as forked:
            load_dataset(tmp_path)
        assert str(forked.value) == str(one_process.value)
        assert str(forked.value).endswith(f"features.csv: {message}")

    @pytest.mark.parametrize("bad", ["1.0,x", ""])
    def test_bad_part_goes_straight_to_the_line_parser(self, tmp_path, monkeypatch,
                                                       no_worker_left, bad):
        _write_dataset(tmp_path, _lines(40, 35, bad), "0\n" * 40, "0\t1\n")
        with pytest.raises(ValidationError) as one_process:
            load_dataset(tmp_path)
        monkeypatch.setattr(propagation, "_num_shards", lambda: 2)
        monkeypatch.setattr(data, "_MIN_PART_BYTES", 1)
        parent, loadtxt, in_process = os.getpid(), data._loadtxt, []

        def counted(source, *args, **kwargs):
            if os.getpid() == parent:
                in_process.append(Path(source).name)
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(data, "_loadtxt", counted)
        with pytest.raises(ValidationError) as forked:
            load_dataset(tmp_path)
        assert str(forked.value) == str(one_process.value)
        assert in_process == []

    @pytest.mark.parametrize("fault", ["exit", "kill", "a column", "a row", "one row",
                                       "half the bytes"])
    def test_failed_or_misshapen_part_is_parsed_in_this_process(
            self, tmp_path, monkeypatch, no_worker_left, fault):
        _write_dataset(tmp_path, _lines(40), "0\n" * 40, "0\t1\n")
        want = _outcome(tmp_path)
        monkeypatch.setattr(data, "_MIN_PART_BYTES", 1)
        parent, loadtxt, in_process = os.getpid(), data._loadtxt, []

        def faulty(source, *args, **kwargs):
            if os.getpid() == parent:
                in_process.append(Path(source).name)
                return loadtxt(source, *args, **kwargs)
            if source.tell() == 0:  # the first part's worker
                return loadtxt(source, *args, **kwargs)
            if fault == "exit":
                os._exit(3)
            if fault == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            table = loadtxt(source, *args, **kwargs)
            # "one row" sends the right bytes, "half the bytes" the right shape
            return {"a column": table[:, :1], "a row": table[:-1],
                    "one row": table.reshape(1, -1),
                    "half the bytes": table.astype(np.float32)}[fault]

        monkeypatch.setattr(data, "_loadtxt", faulty)
        assert _outcome(tmp_path) == want
        assert "features.csv" in in_process

    def test_small_files_never_fork(self, tmp_path, monkeypatch, tiny_dir, forks):
        monkeypatch.setattr(propagation, "_num_shards", lambda: 2)
        monkeypatch.setattr(data, "_MIN_PART_BYTES", 64)
        load_dataset(tiny_dir)  # every file below 128 bytes
        assert forks == []
        path = tmp_path / "t.csv"
        for text, workers in (("1.0,2.0\n" * 15 + "1.0,2.0", 0), ("1.0,2.0\n" * 16, 2)):
            path.write_text(text)  # 127 and 128 bytes
            forks.clear()
            assert data._load_table(path, np.float64, ",").shape == (16, 2)
            assert len(forks) == workers

    def test_no_table_with_more_values_than_bytes(self, tmp_path, monkeypatch, forks):
        # 100 lines at the first line's 100 fields: 10,000 values in 398 bytes
        monkeypatch.setattr(data, "_MIN_PART_BYTES", 1)
        path = tmp_path / "t.csv"
        path.write_text(",".join("1" * 100) + "\n" + "1\n" * 99)
        assert data._load_table(path, np.float64, ",") is None
        assert forks == []

    @pytest.mark.parametrize("shards,starts,rows", [
        (2, [0, 62], [2, 1]), (3, [0, 51], [1, 2]), (8, [0, 51, 62], [1, 1, 1]),
    ])
    def test_parts_start_at_line_starts(self, tmp_path, monkeypatch, shards, starts, rows):
        # lines longer than a part: every part still holds whole lines
        monkeypatch.setattr(propagation, "_num_shards", lambda: shards)
        monkeypatch.setattr(data, "_MIN_PART_BYTES", 1)
        seen = []
        monkeypatch.setattr(data, "_load_parts",
                            lambda path, dtype, delimiter, starts, rows:
                            seen.append((starts, rows)))
        path = tmp_path / "t.csv"
        path.write_text("1" * 50 + "\n" + "2" * 10 + "\n" + "3" * 50)
        assert data._load_table(path, np.float64, ",") is not None
        assert seen == [(starts, rows)]


def _layout(gen, lines: list[str]) -> str:
    """Join lines into a file, sometimes with one of the layout faults in DIVERGENT."""
    lines = list(lines)
    eol = gen.draw(st.sampled_from(["\n", "\r\n"]))
    fault = gen.draw(st.sampled_from(["none"] * 7 + ["blank", "no final LF", "bare CR",
                                                     "BOM", "ragged", "lone LF"]))
    at = gen.draw(st.integers(0, len(lines)))
    if fault == "blank":
        lines.insert(at, "")
    elif fault == "ragged" and lines:
        lines[min(at, len(lines) - 1)] += ",1"
    text = "".join(line + eol for line in lines)
    if fault == "no final LF":
        text = text[:-len(eol)] if text else text
    elif fault == "bare CR":
        text = text[:at] + "\r" + text[at:]
    elif fault == "BOM":
        text = "\ufeff" + text
    elif fault == "lone LF":
        text = "\n"
    return text


class TestDropEdges:
    def test_keep_all(self, tiny_dir):
        g = load_dataset(tiny_dir).graph
        out = drop_edges(g, 1.0, seed=0)
        assert np.array_equal(out.col_indices, g.col_indices)
        assert np.array_equal(out.row_offsets, g.row_offsets)

    def test_keep_none(self, tiny_dir):
        g = load_dataset(tiny_dir).graph
        out = drop_edges(g, 0.0, seed=0)
        assert out.num_edges == 0
        assert out.num_nodes == g.num_nodes

    def test_frozen_half_fixture(self, tiny_dir):
        # generated once with seed 7 and frozen: floor(0.5 * 7) = 3 edges
        g = load_dataset(tiny_dir).graph
        out = drop_edges(g, 0.5, seed=7)
        assert out.undirected_edges().tolist() == [[2, 3], [3, 4], [4, 5]]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_subgraph_and_determinism(self, seed):
        g = random_graph(30, 120, seed)
        out1 = drop_edges(g, 0.4, seed=seed + 10)
        out2 = drop_edges(g, 0.4, seed=seed + 10)
        assert np.array_equal(out1.col_indices, out2.col_indices)
        original = {tuple(e) for e in g.undirected_edges().tolist()}
        kept = {tuple(e) for e in out1.undirected_edges().tolist()}
        assert kept <= original
        assert len(kept) == int(0.4 * g.num_edges)

    def test_bad_fraction(self, tiny_dir):
        g = load_dataset(tiny_dir).graph
        with pytest.raises(ParameterError):
            drop_edges(g, 1.5, seed=0)


class TestSubsampleLabels:
    def test_full_count_unchanged(self, tiny_dir):
        ds = load_dataset(tiny_dir)
        out = subsample_labels(ds, 1, seed=0)  # train has 1 node per class
        assert sorted(out.splits.train.tolist()) == sorted(ds.splits.train.tolist())
        assert np.array_equal(out.splits.val, ds.splits.val)
        assert np.array_equal(out.splits.test, ds.splits.test)

    def test_per_class_count(self):
        rng = np.random.default_rng(0)
        n, c = 40, 4
        labels = np.arange(n) % c
        from dgmlp import Dataset, Splits
        ds = Dataset(
            graph=build_graph([], n),
            features=rng.random((n, 3)),
            labels=labels,
            splits=Splits(train=np.arange(20), val=np.arange(20, 30), test=np.arange(30, 40)),
            num_classes=c,
        )
        out = subsample_labels(ds, 2, seed=5)
        assert len(out.splits.train) == 2 * c
        sub_labels = labels[out.splits.train]
        assert all((sub_labels == cls).sum() == 2 for cls in range(c))
        assert set(out.splits.train) <= set(range(20))
        again = subsample_labels(ds, 2, seed=5)
        assert np.array_equal(out.splits.train, again.splits.train)

    def test_insufficient_class_named(self, tiny_dir):
        ds = load_dataset(tiny_dir)
        with pytest.raises(ValidationError, match="class 0"):
            subsample_labels(ds, 2, seed=0)  # only 1 train node per class

    def test_bad_per_class(self, tiny_dir):
        with pytest.raises(ParameterError):
            subsample_labels(load_dataset(tiny_dir), 0, seed=0)


class TestMaskFeatures:
    def test_zero_fraction(self, tiny_dir):
        ds = load_dataset(tiny_dir)
        out = mask_features(ds, 0.0, seed=0)
        assert np.array_equal(out.features, ds.features)

    def test_full_fraction(self, tiny_dir):
        ds = load_dataset(tiny_dir)
        out = mask_features(ds, 1.0, seed=0)
        assert not out.features.any()

    def test_half_on_fixture(self, tiny_dir):
        ds = load_dataset(tiny_dir)
        out = mask_features(ds, 0.5, seed=3)
        zero_rows = np.flatnonzero(~out.features.any(axis=1))
        assert len(zero_rows) == 3
        untouched = np.setdiff1d(np.arange(6), zero_rows)
        assert np.array_equal(out.features[untouched], ds.features[untouched])
        again = mask_features(ds, 0.5, seed=3)
        assert np.array_equal(out.features, again.features)

    def test_bad_fraction(self, tiny_dir):
        with pytest.raises(ParameterError):
            mask_features(load_dataset(tiny_dir), -0.1, seed=0)


class TestCitationShapes:
    """Known shape facts of the real datasets (skip when data is absent)."""

    def test_cora(self):
        ds = citation_dataset("cora")
        assert ds.num_nodes == 2708
        assert ds.features.shape[1] == 1433
        assert ds.num_classes == 7
        sizes = (len(ds.splits.train), len(ds.splits.val), len(ds.splits.test))
        assert sizes == (140, 500, 1000)
        # 5,429 raw citation pairs shrink after dedup/self-loop removal
        assert ds.graph.num_edges <= 5429
        assert ds.graph.num_edges == 5278

    def test_cora_subsample_twenty_per_class_is_standard_split(self):
        ds = citation_dataset("cora")
        sub = subsample_labels(ds, 20, seed=0)
        assert len(sub.splits.train) == 140

    def test_citeseer(self):
        ds = citation_dataset("citeseer")
        assert ds.num_nodes == 3327
        assert ds.features.shape[1] == 3703
        assert ds.num_classes == 6
        sizes = (len(ds.splits.train), len(ds.splits.val), len(ds.splits.test))
        assert sizes == (120, 500, 1000)

    def test_pubmed(self):
        ds = citation_dataset("pubmed")
        assert ds.num_nodes == 19717
        assert ds.features.shape[1] == 500
        assert ds.num_classes == 3
        sizes = (len(ds.splits.train), len(ds.splits.val), len(ds.splits.test))
        assert sizes == (60, 500, 1000)


class TestErdosRenyi:
    def test_p_zero(self):
        g = erdos_renyi(50, 0.0, seed=0)
        assert g.num_edges == 0

    def test_p_one_complete(self):
        n = 12
        g = erdos_renyi(n, 1.0, seed=0)
        assert g.num_edges == n * (n - 1) // 2
        assert (g.degrees == n - 1).all()

    def test_edge_count_within_binomial_bounds(self):
        n, p = 10_000, 1e-3
        g = erdos_renyi(n, p, seed=123)
        pairs = n * (n - 1) // 2
        mean = pairs * p
        std = (pairs * p * (1 - p)) ** 0.5
        assert abs(g.num_edges - mean) <= 4 * std  # mean 49,995, 4 sigma ~ 894

    def test_deterministic_and_simple(self):
        a = erdos_renyi(200, 0.05, seed=9)
        b = erdos_renyi(200, 0.05, seed=9)
        assert np.array_equal(a.col_indices, b.col_indices)
        edges = a.undirected_edges()
        assert (edges[:, 0] < edges[:, 1]).all()

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            erdos_renyi(0, 0.5, seed=0)
        with pytest.raises(ParameterError):
            erdos_renyi(10, 1.5, seed=0)
        with pytest.raises(ParameterError, match="n must be <="):
            erdos_renyi(MAX_NODES + 1, 0.5, seed=0)  # fails before any array is made

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 200])
    def test_pair_of_index_against_brute_force(self, n):
        u, v = data._pair_of_index(np.arange(n * (n - 1) // 2, dtype=np.int64), n)
        want_u, want_v = np.triu_indices(n, k=1)
        assert np.array_equal(u, want_u) and np.array_equal(v, want_v)

    @pytest.mark.parametrize("n", [MAX_NODES, MAX_NODES - 1, 2**31 + 11, 10**9 + 7])
    def test_pair_of_index_exact_at_large_n(self, n):
        # the indices around row starts, where the float root alone puts
        # thousands of them in the neighbouring row; the row by math.isqrt
        total = n * (n - 1) // 2
        rows = np.random.default_rng(n % 1000).integers(0, n - 1, 300).tolist() + [0, n - 2]
        starts = {i * (2 * n - i - 1) // 2 for i in rows}
        linear = sorted({s + d for s in starts for d in (-1, 0, 1)} - {-1, total})
        want = []
        for index in linear:
            r = total - index
            t = (math.isqrt(8 * r + 1) - 1) // 2
            t += t * (t + 1) // 2 < r
            want.append((n - 1 - t, n - t + t * (t + 1) // 2 - r))
        u, v = data._pair_of_index(np.array(linear, dtype=np.int64), n)
        assert list(zip(u.tolist(), v.tolist())) == want

    @pytest.mark.parametrize("p", [1e-16, 1e-18, 1e-300, 5e-324])
    @pytest.mark.parametrize("n", [2, 100, 20_000])
    def test_tiny_p_has_no_edges(self, n, p):
        # each float gap passes int64 or its cumsum does: both are clamped
        for seed in (0, 1):
            assert erdos_renyi(n, p, seed).num_edges == 0

    def test_long_gaps_keep_their_edges(self):
        # 2e9 pairs at p = 1e-9: gaps average 1e9, below the clamp; the
        # edges were recorded before the clamp
        g = erdos_renyi(63_246, 1e-9, seed=3)
        assert g.undirected_edges().tolist() == [[1431, 61939], [5970, 40649], [56263, 57773]]
