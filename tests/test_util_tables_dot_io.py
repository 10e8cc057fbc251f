"""Tests for repro.util tables, DOT emission, and I/O helpers."""

import os

import pytest

from repro.util.dot import DotGraph
from repro.util.iolib import atomic_write, file_checksum, sha256_text
from repro.util.tables import Table


class TestTable:
    def test_render_alignment(self):
        t = Table(["n", "walltime"], title="Fig. 4")
        t.add_row(10, 41593)
        t.add_row(300, 9800.0)
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "Fig. 4"
        assert lines[1].startswith("n")
        assert set(lines[2]) <= {"-", " "}
        assert "41593" in lines[3]
        assert "9800" in lines[4]  # float rendered without trailing .00

    def test_float_formatting(self):
        t = Table(["x"])
        t.add_row(1.23456)
        assert "1.23" in t.render()

    def test_none_cell(self):
        t = Table(["x", "y"])
        t.add_row(None, 1)
        assert t.rows[0][0] == "-"

    def test_wrong_arity(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError, match="expected 2 cells"):
            t.add_row(1)

    def test_extend(self):
        t = Table(["a"])
        t.extend([[1], [2], [3]])
        assert len(t.rows) == 3

    def test_markdown(self):
        t = Table(["a", "b"], title="T")
        t.add_row(1, 2)
        md = t.render_markdown()
        assert "| a | b |" in md
        assert "| 1 | 2 |" in md
        assert "**T**" in md


class TestDotGraph:
    def test_shapes_follow_figure_legend(self):
        g = DotGraph(name="fig2")
        g.add_node("transcripts.fasta", kind="file")
        g.add_node("split", kind="task")
        g.add_node("run_cap3_osg", kind="setup_task")
        out = g.render()
        assert "shape=box, style=rounded" in out
        assert "shape=ellipse" in out
        assert "color=red" in out

    def test_edge_requires_declared_nodes(self):
        g = DotGraph()
        g.add_node("a")
        with pytest.raises(ValueError, match="not declared"):
            g.add_edge("a", "b")

    def test_duplicate_node_same_attrs_ok(self):
        g = DotGraph()
        g.add_node("a", kind="task")
        g.add_node("a", kind="task")
        assert g.node_count == 1

    def test_conflicting_redeclaration_raises(self):
        g = DotGraph()
        g.add_node("a", kind="task")
        with pytest.raises(ValueError, match="different attrs"):
            g.add_node("a", kind="file")

    def test_duplicate_edges_collapsed(self):
        g = DotGraph()
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b")
        g.add_edge("a", "b")
        assert g.render().count("->") == 1

    def test_unknown_kind(self):
        g = DotGraph()
        with pytest.raises(ValueError, match="unknown node kind"):
            g.add_node("a", kind="triangle")

    def test_write(self, tmp_path):
        g = DotGraph(name="wf")
        g.add_node("a")
        path = tmp_path / "out" / "wf.dot"
        g.write(str(path))
        text = path.read_text()
        assert text.startswith('digraph "wf"')
        assert text.endswith("}\n")

    def test_quoting(self):
        g = DotGraph()
        g.add_node('we"ird', label='la"bel')
        assert '\\"' in g.render()


class TestIolib:
    def test_atomic_write_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "c.txt"
        atomic_write(target, "hello")
        assert target.read_text() == "hello"

    def test_atomic_write_bytes(self, tmp_path):
        target = tmp_path / "x.bin"
        atomic_write(target, b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"

    def test_atomic_write_replaces(self, tmp_path):
        target = tmp_path / "f.txt"
        atomic_write(target, "one")
        atomic_write(target, "two")
        assert target.read_text() == "two"

    def test_no_temp_litter(self, tmp_path):
        atomic_write(tmp_path / "f.txt", "data")
        assert os.listdir(tmp_path) == ["f.txt"]

    def test_checksum_matches_known_sha256(self, tmp_path):
        target = tmp_path / "f.txt"
        target.write_text("abc")
        assert file_checksum(target) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_sha256_text_agrees_with_file(self, tmp_path):
        target = tmp_path / "f.txt"
        target.write_text("workflow")
        assert sha256_text("workflow") == file_checksum(target)
