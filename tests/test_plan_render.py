"""``write_plan`` prints ``plan.json`` straight from the DAG;
``dag_to_json`` (``tests/oracles/plan_document.py``) under the plan's
site and *n*, encoded compact (``json.dumps(doc, separators=(",", ":"))``),
is the reference it is held to byte for byte.
"""

from __future__ import annotations

import json
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from repro.dagman.dag import Dag, DagJob
from repro.wms.monitor import PLAN_FILE, write_plan
from tests.oracles.plan_document import dag_to_json


class Level(IntEnum):
    HIGH = 2


class Tag(str):
    pass


def reference(dag: Dag, site: object, n: object) -> str:
    return json.dumps({"site": site, "n": n, **dag_to_json(dag)}, separators=(",", ":"))


def printed(tmp_path, dag: Dag, site: object = "osg", n: object = 3) -> str:
    return write_plan(tmp_path, dag, site=site, n=n).read_text()


NASTY = [
    "", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\U0001f9ec",
    "%s", "{}", '"jobs": {}', "null", "true", "1.0",
]
texts = st.sampled_from(NASTY) | st.text(max_size=8)
names = st.text(
    st.characters(blacklist_categories=("Cs",)).filter(lambda c: not c.isspace()),
    min_size=1, max_size=6,
)
numbers = st.sampled_from([0, 1, 1.0, -0.0, 0.0, 1e22, 1e-7, float("inf"),
                           Level.HIGH, True])
jobs = st.builds(
    DagJob,
    name=names,
    transformation=texts | st.builds(Tag, texts),
    runtime=numbers | st.floats(min_value=0),
    needs_setup=st.booleans(),
    retries=st.integers(min_value=0) | st.sampled_from([True, Level.HIGH]),
    priority=st.integers() | numbers | st.floats(allow_nan=False),
    requirements=st.none() | texts,
    timeout_s=st.none() | st.floats(min_value=1e-3) | st.sampled_from(
        [1, float("inf"), Level.HIGH]),
)


@st.composite
def dags(draw) -> Dag:
    dag = Dag(name="w")
    for job in draw(st.lists(jobs, max_size=5, unique_by=lambda j: j.name)):
        dag.add_job(job)
    order = list(dag.jobs)  # edges only forwards: no cycles
    for i, j in draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                              max_size=6)):
        if i < j < len(order):
            dag.add_edge(order[i], order[j])
    if order:
        dag.done = set(draw(st.lists(st.sampled_from(order), max_size=3)))
    return dag


@given(dags(), texts | st.builds(Tag, texts), st.integers() | numbers | st.floats())
@settings(max_examples=150, deadline=None)
def test_file_is_the_indented_dict_api_byte_for_byte(tmp_path_factory, dag, site, n):
    path = write_plan(tmp_path_factory.getbasetemp(), dag, site=site, n=n)
    assert path.name == PLAN_FILE
    assert path.read_text() == reference(dag, site, n)


class TestNamedCases:
    def check(self, tmp_path, dag, site="osg", n=3):
        assert printed(tmp_path, dag, site, n) == reference(dag, site, n)

    def test_empty_dag(self, tmp_path):
        self.check(tmp_path, Dag(name="w"))

    def test_jobs_without_edges(self, tmp_path):
        dag = Dag(name="w")
        dag.add_job(DagJob(name="a", transformation="t"))
        self.check(tmp_path, dag)

    def test_done_marks_only_when_present(self, tmp_path):
        dag = Dag(name="w")
        for name in "ab":
            dag.add_job(DagJob(name=name, transformation="t"))
        dag.add_edge("a", "b")
        self.check(tmp_path, dag)
        assert '"done"' not in printed(tmp_path, dag)
        dag.done = {"b", "a"}
        self.check(tmp_path, dag)

    def test_number_spellings(self, tmp_path):
        dag = Dag(name="w")
        dag.add_job(DagJob(name="int", transformation="t", runtime=1, priority=True))
        dag.add_job(DagJob(name="float", transformation="t", runtime=1.0,
                           timeout_s=float("inf"), priority=-0.0))
        dag.add_job(DagJob(name="enum", transformation=Tag("t"),
                           retries=Level.HIGH, priority=float("-inf")))
        self.check(tmp_path, dag, site=Tag("s"), n=Level.HIGH)

    def test_nested_value_keeps_the_indentation(self, tmp_path):
        # Not a value a planned job holds, but the layout is the
        # encoder's at any depth.
        dag = Dag(name="w")
        dag.add_job(DagJob(name="a", transformation="t",
                           requirements=["x", {"k": [1, 2.5]}, []]))  # type: ignore[arg-type]
        self.check(tmp_path, dag, n={"a": []})

    @pytest.mark.parametrize("text", NASTY)
    def test_escapes(self, tmp_path, text):
        dag = Dag(name="w")
        name = "j" + "".join(text.split())
        dag.add_job(DagJob(name=name, transformation=text, requirements=text))
        self.check(tmp_path, dag, site=text)
