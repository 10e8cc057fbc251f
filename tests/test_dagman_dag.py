"""Tests for the DAG model and .dag file round-trip."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.dagman.dag import Dag, DagJob


def diamond() -> Dag:
    dag = Dag(name="diamond")
    for name in ("a", "b", "c", "d"):
        dag.add_job(DagJob(name=name, transformation=f"t_{name}", runtime=10))
    dag.add_edge("a", "b")
    dag.add_edge("a", "c")
    dag.add_edge("b", "d")
    dag.add_edge("c", "d")
    return dag


class TestDagJob:
    def test_validation(self):
        with pytest.raises(ValueError):
            DagJob(name="", transformation="t")
        with pytest.raises(ValueError):
            DagJob(name="a b", transformation="t")
        with pytest.raises(ValueError):
            DagJob(name="a", transformation="t", runtime=-1)
        with pytest.raises(ValueError):
            DagJob(name="a", transformation="t", retries=-1)

    def test_name_check_agrees_with_isspace_on_every_code_point(self):
        """The check is ``name.split() != [name]``; it must refuse what
        ``not name or any(c.isspace() for c in name)`` refused."""
        points = [chr(cp) for cp in range(sys.maxunicode + 1)]
        spaces = [c for c in points if c.isspace()]
        assert 20 < len(spaces) < 40 and "\x1f" in spaces
        # One name holding every other code point: refused if ``split``
        # took any of them for whitespace.
        everything_else = "".join(c for c in points if not c.isspace())
        assert DagJob(name=everything_else, transformation="t").name
        for c in spaces:
            for name in (c, c + "a", "a" + c, f"a{c}b"):
                with pytest.raises(ValueError) as refused:
                    DagJob(name=name, transformation="t")
                assert str(refused.value) == f"invalid job name: {name!r}"

    @pytest.mark.parametrize("name", ["", " a", "a b", "a\x1fb", "a\n"])
    def test_invalid_names_keep_their_message(self, name):
        with pytest.raises(ValueError) as refused:
            DagJob(name=name, transformation="t")
        assert str(refused.value) == f"invalid job name: {name!r}"

    def test_nan_is_not_a_duration(self):
        """NaN fails ``x < 0`` as well as ``x >= 0``; only guards
        written the second way refuse it."""
        with pytest.raises(ValueError, match="runtime must be >= 0, got nan"):
            DagJob(name="a", transformation="t", runtime=float("nan"))
        with pytest.raises(ValueError, match="timeout_s must be positive.*nan"):
            DagJob(name="a", transformation="t", timeout_s=float("nan"))
        with pytest.raises(ValueError, match="timeout_s"):
            DagJob(name="a", transformation="t", timeout_s=0.0)


class TestDag:
    def test_duplicate_job_rejected(self):
        dag = Dag()
        dag.add_job(DagJob(name="a", transformation="t"))
        with pytest.raises(ValueError, match="duplicate"):
            dag.add_job(DagJob(name="a", transformation="t"))

    def test_edge_unknown_job(self):
        dag = Dag()
        dag.add_job(DagJob(name="a", transformation="t"))
        with pytest.raises(KeyError):
            dag.add_edge("a", "zz")

    def test_self_edge_rejected(self):
        dag = Dag()
        dag.add_job(DagJob(name="a", transformation="t"))
        with pytest.raises(ValueError, match="self"):
            dag.add_edge("a", "a")

    def test_cycle_rejected_and_rolled_back(self):
        dag = Dag()
        for n in "abc":
            dag.add_job(DagJob(name=n, transformation="t"))
        dag.add_edge("a", "b")
        dag.add_edge("b", "c")
        with pytest.raises(ValueError, match="cycle"):
            dag.add_edge("c", "a")
        # rollback: the bad edge must not remain
        assert "a" not in dag.children("c")
        assert dag.topological_order() == ["a", "b", "c"]

    def test_roots_and_leaves(self):
        dag = diamond()
        assert dag.roots() == ["a"]
        assert dag.leaves() == ["d"]

    def test_parents_children(self):
        dag = diamond()
        assert dag.parents("d") == {"b", "c"}
        assert dag.children("a") == {"b", "c"}

    def test_topological_order(self):
        order = diamond().topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_critical_path(self):
        dag = diamond()  # all runtimes 10 -> path a-b-d = 30
        assert dag.critical_path_length() == 30.0

    def test_critical_path_empty(self):
        assert Dag().critical_path_length() == 0.0

    def test_len_and_edges(self):
        dag = diamond()
        assert len(dag) == 4
        assert set(dag.edges()) == {
            ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
        }


@st.composite
def drawn_dag(draw):
    """Jobs inserted in one drawn order, edges acyclic along another,
    some DONE marks, and a done set for the rescue copy."""
    n = draw(st.integers(min_value=0, max_value=9))
    names = draw(st.permutations([f"n{i}" for i in range(n)]))
    topo = draw(st.permutations(names))
    dag = Dag(name="drawn")
    for name in names:
        dag.add_job(
            DagJob(
                name=name,
                transformation="t",
                retries=draw(st.integers(0, 2)),
                priority=draw(st.integers(-1, 1)),
                timeout_s=draw(st.sampled_from([None, 30.0])),
                payload=lambda: None,
            )
        )
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 2)) == 0:
                dag.add_edge(topo[i], topo[j])
    subset = st.lists(st.sampled_from(names), unique=True) if n else st.just([])
    dag.done = set(draw(subset))
    return dag, draw(subset)


class TestRescueCopy:
    @given(drawn_dag(), st.sampled_from([None, "drawn.rescue"]))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_add_job_add_edge_loop(self, tmp_path_factory, case, name):
        """``Dag.rescue`` copies the adjacency instead of re-validating
        every edge; it must build what the loop it replaced built."""
        dag, done = case
        loop = Dag(name=dag.name if name is None else name)
        for job in dag.jobs.values():
            loop.add_job(job)
        for parent, child in dag.edges():
            loop.add_edge(parent, child)
        loop.done = set(done)

        rescue = dag.rescue(done, name=name)

        assert rescue.name == loop.name
        assert list(rescue.jobs) == list(loop.jobs)
        assert all(rescue.jobs[n] is dag.jobs[n] for n in dag.jobs)
        assert list(rescue.edges()) == list(loop.edges())
        assert rescue.done == loop.done
        for n in dag.jobs:
            assert rescue.parents(n) == loop.parents(n)
            assert rescue.children(n) == loop.children(n)
        out = tmp_path_factory.mktemp("rescue")
        assert (
            rescue.write_dagfile(out / "copy.dag").read_bytes()
            == loop.write_dagfile(out / "loop.dag").read_bytes()
        )

    def test_copy_shares_no_adjacency_with_its_source(self):
        dag = diamond()
        dag.add_job(DagJob(name="e", transformation="t"))
        rescue = dag.rescue({"a"})
        rescue.add_edge("d", "e")
        rescue.done.add("b")
        assert dag.children("d") == set() and dag.parents("e") == set()
        assert dag.done == set()
        assert rescue.children("d") == {"e"} and rescue.done == {"a", "b"}


class TestDagFile:
    def test_roundtrip(self, tmp_path):
        dag = diamond()
        dag.jobs["b"] = DagJob(
            name="b", transformation="t_b", retries=3, priority=5
        )
        dag.done.add("a")
        path = tmp_path / "wf.dag"
        dag.write_dagfile(path)
        back = Dag.parse_dagfile(path, name="diamond")
        assert set(back.jobs) == set(dag.jobs)
        assert set(back.edges()) == set(dag.edges())
        assert back.jobs["b"].retries == 3
        assert back.jobs["b"].priority == 5
        assert back.done == {"a"}
        assert back.jobs["c"].transformation == "t_c"

    def test_file_syntax(self, tmp_path):
        path = tmp_path / "wf.dag"
        diamond().write_dagfile(path)
        text = path.read_text()
        assert "JOB a t_a.sub" in text
        assert "PARENT a CHILD b" in text

    def test_unknown_keyword_rejected(self, tmp_path):
        path = tmp_path / "bad.dag"
        path.write_text("FROBNICATE a\n")
        with pytest.raises(ValueError, match="unknown DAG file keyword"):
            Dag.parse_dagfile(path)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "wf.dag"
        path.write_text("# comment\nJOB a t.sub\n\n")
        dag = Dag.parse_dagfile(path)
        assert list(dag.jobs) == ["a"]

    def test_multi_parent_child_line(self, tmp_path):
        path = tmp_path / "wf.dag"
        path.write_text(
            "JOB a t.sub\nJOB b t.sub\nJOB c t.sub\nJOB d t.sub\n"
            "PARENT a b CHILD c d\n"
        )
        dag = Dag.parse_dagfile(path)
        assert dag.parents("c") == {"a", "b"}
        assert dag.parents("d") == {"a", "b"}
