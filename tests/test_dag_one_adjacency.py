"""``Dag`` stores each edge once; everything the mirrored ``_parents``
map used to answer must come out the same.

The oracle is the two-map, set-per-job DAG as it was (``tests/oracles/
mirrored_dag.py``). Edges arrive in random order between random pairs,
so a child usually has descendants already — the reachability walk
runs, not only the childless fast path of a topological build — and
some of them close a cycle and must be refused without a trace. Fan-out
scripts give one job more than ``TUPLE_CHILDREN`` children, so its
container turns from a tuple into a set mid-script, and one of their
refused edges lands on that job while it holds exactly that many.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dagman.dag import (
    TUPLE_CHILDREN,
    CycleError,
    Dag,
    DagJob,
    topological_sort,
)
from tests.oracles.mirrored_dag import MirroredDag, topological_sort_reference


def snapshot(dag) -> dict[str, frozenset[str]]:
    return {name: frozenset(kids) for name, kids in dag.child_sets()}


def assert_one_container_per_job(dag) -> None:
    """A job's children: a tuple of distinct names up to
    ``TUPLE_CHILDREN``, a set beyond."""
    for _, kids in dag.child_sets():
        if len(kids) <= TUPLE_CHILDREN:
            assert type(kids) is tuple and len(set(kids)) == len(kids)
        else:
            assert type(kids) is set


@st.composite
def edge_scripts(draw):
    """Job names in a drawn insertion order, then ``(parent, child)``
    pairs between any two of them — duplicates, self-loops and
    cycle-closing edges included."""
    n = draw(st.integers(min_value=1, max_value=9))
    names = draw(st.permutations([f"n{i}" for i in range(n)]))
    runtimes = draw(
        st.lists(st.integers(0, 40), min_size=n, max_size=n)
    )
    pair = st.tuples(st.sampled_from(names), st.sampled_from(names))
    edges = draw(st.lists(pair, max_size=3 * n))
    return list(zip(names, runtimes)), edges


@st.composite
def fan_out_scripts(draw):
    """A hub fanning out past ``TUPLE_CHILDREN``: ``up -> hub`` first,
    then ``hub``'s children in a drawn order (repeats included) with
    ``hub -> up`` — a cycle, refused — tried the moment the hub holds
    exactly ``TUPLE_CHILDREN``; then random pairs, as in
    :func:`edge_scripts`."""
    width = draw(st.integers(TUPLE_CHILDREN + 1, 2 * TUPLE_CHILDREN + 4))
    kids = [f"k{i:02d}" for i in range(width)]
    names = draw(st.permutations(["hub", "up", *kids]))
    runtimes = draw(
        st.lists(st.integers(0, 40), min_size=len(names), max_size=len(names))
    )
    order = draw(st.permutations(kids))
    repeats = draw(st.lists(st.sampled_from(kids), max_size=4))
    fan = [("hub", k) for k in order[:TUPLE_CHILDREN]]
    fan += [("hub", "up")]
    fan += [("hub", k) for k in (*order[TUPLE_CHILDREN:], *repeats)]
    pair = st.tuples(st.sampled_from(names), st.sampled_from(names))
    edges = [("up", "hub"), *fan, *draw(st.lists(pair, max_size=len(names)))]
    return list(zip(names, runtimes)), edges


scripts = st.one_of(edge_scripts(), fan_out_scripts())


def build(script):
    """Feed one script to both DAGs; each edge must meet the same fate,
    and every job keep one container of the kind its size calls for."""
    jobs, edges = script
    dag, oracle = Dag(), MirroredDag()
    for name, runtime in jobs:
        job = DagJob(name=name, transformation="t", runtime=runtime)
        dag.add_job(job)
        oracle.add_job(job)
    for parent, child in edges:
        assert_one_container_per_job(dag)
        before = snapshot(dag)
        try:
            oracle.add_edge(parent, child)
        except CycleError as expected:
            with pytest.raises(CycleError) as caught:
                dag.add_edge(parent, child)
            assert caught.value.members == expected.members
            assert str(caught.value) == str(expected)
            assert snapshot(dag) == before
        except ValueError:
            with pytest.raises(ValueError, match="self-dependency"):
                dag.add_edge(parent, child)
            assert snapshot(dag) == before
        else:
            dag.add_edge(parent, child)
    assert_one_container_per_job(dag)
    return dag, oracle


@given(scripts)
@settings(max_examples=150, deadline=None)
def test_every_query_equals_the_mirrored_dag(script):
    dag, oracle = build(script)
    assert snapshot(dag) == snapshot(oracle)

    parent_sets = dag.parent_sets()
    assert list(parent_sets) == list(dag.jobs)
    assert parent_sets == oracle._parents
    # The exact inverse: p in parents[c]  <=>  c in children[p].
    assert {(p, c) for c, ps in parent_sets.items() for p in ps} == {
        (p, c) for p, kids in dag.child_sets() for c in kids
    }

    assert [n for n, ps in parent_sets.items() if not ps] == oracle.roots()
    assert [n for n, kids in dag.child_sets() if not kids] == oracle.leaves()
    assert list(dag.edges()) == list(oracle.edges())
    assert dag.topological_order() == oracle.topological_order()
    levels = dag.levels()
    assert levels == oracle.levels()
    assert list(levels) == dag.topological_order()
    assert dag.critical_path_length() == oracle.critical_path_length()


@given(scripts)
@settings(max_examples=60, deadline=None)
def test_reversing_an_edge_is_refused_without_a_trace(script):
    """A refusal for certain, whatever the script drew: the reverse of
    an edge the DAG holds closes a cycle through both its ends."""
    dag, oracle = build(script)
    for parent, child in list(dag.edges()):
        before = snapshot(dag)
        with pytest.raises(CycleError) as caught:
            dag.add_edge(child, parent)
        with pytest.raises(CycleError) as expected:
            oracle.add_edge(child, parent)
        assert caught.value.members == expected.value.members
        assert parent in caught.value.members and child in caught.value.members
        assert snapshot(dag) == before == snapshot(oracle)
        assert_one_container_per_job(dag)


@given(scripts, st.data())
@settings(max_examples=60, deadline=None)
def test_rescue_copy_grows_alone(script, data):
    dag, _ = build(script)
    before, parents_before = snapshot(dag), dag.parent_sets()
    copy = dag.rescue(done=())
    assert snapshot(copy) == before
    names = list(dag.jobs)
    for _ in range(4):
        parent = data.draw(st.sampled_from(names))
        child = data.draw(st.sampled_from(names))
        try:
            copy.add_edge(parent, child)
        except ValueError:  # self-dependency or cycle: not this test's
            pass
    assert snapshot(dag) == before
    assert dag.parent_sets() == parents_before
    assert_one_container_per_job(copy)


def test_parents_of_an_unknown_job_is_a_key_error():
    dag = Dag()
    dag.add_job(DagJob(name="a", transformation="t"))
    with pytest.raises(KeyError):
        dag.parent_sets()["ghost"]
    assert dag.parent_sets()["a"] == set()


def plan_of(jobs, edges) -> dict:
    """The ``plan.json`` document of ``jobs`` (name, runtime) and
    ``edges``, listed as given — repeats included."""
    spec = {
        "transformation": "t", "needs_setup": False, "retries": 0,
        "timeout_s": None, "requirements": None, "priority": 0,
    }
    return {
        "jobs": {name: {**spec, "runtime": runtime} for name, runtime in jobs},
        "edges": [list(edge) for edge in edges],
    }


@given(scripts)
@settings(max_examples=100, deadline=None)
def test_from_json_with_repeated_edges_equals_the_mirrored_dag(script):
    """A plan listing edges twice reads back as the DAG built edge by
    edge; one that closes a cycle names the first edge that does."""
    jobs, edges = script
    edges = [(p, c) for p, c in edges if p != c]
    oracle, accepted, closing = MirroredDag(), [], None
    for name, runtime in jobs:
        oracle.add_job(DagJob(name=name, transformation="t", runtime=runtime))
    for edge in edges:
        try:
            oracle.add_edge(*edge)
        except CycleError:
            closing = closing or list(edge)
        else:
            accepted.append(edge)
    dag = Dag.from_json(plan_of(jobs, accepted + accepted[::2]))
    assert snapshot(dag) == snapshot(oracle)
    assert list(dag.edges()) == list(oracle.edges())
    assert_one_container_per_job(dag)
    if closing is not None:
        with pytest.raises(ValueError) as caught:
            Dag.from_json(plan_of(jobs, edges))
        assert str(caught.value) == f"edge {closing!r}: closes a cycle"


def test_a_wide_fan_out_dedupes_by_probe():
    """Past ``TUPLE_CHILDREN`` a job's children are a set, so each
    further edge's duplicate check is a hash probe: a 5 000-wide
    fan-out is linear to build, not quadratic, whichever way it is
    built."""
    width = 5_000
    kids = [f"w{i:05d}" for i in range(width)]
    dag = Dag()
    for name in ("split", *kids):
        dag.add_job(DagJob(name=name, transformation="t"))
    for kid in kids:
        dag.add_edge("split", kid)
    dag.add_edge("split", kids[0])  # a repeat changes nothing
    edges = list(dag.edges())
    read = Dag.from_json(plan_of([(n, 1.0) for n in dag.jobs], edges * 2))
    for built in (dag, read, dag.rescue(done=())):
        kids_of = dict(built.child_sets())
        assert type(kids_of["split"]) is set and len(kids_of["split"]) == width


# -- topological_sort: same order, linear in the frontier -----------------


@st.composite
def adjacency(draw):
    """A node list and a children mapping as ``topological_sort`` takes
    them: partial views, self-loops, edges to absent nodes and cycles
    are all legal input."""
    universe = [f"n{i}" for i in range(draw(st.integers(1, 10)))]
    nodes = draw(st.permutations(universe))
    nodes = nodes[: draw(st.integers(1, len(nodes)))]
    children = draw(
        st.dictionaries(
            st.sampled_from(universe),
            st.lists(st.sampled_from(universe), max_size=4),
            max_size=len(universe),
        )
    )
    return nodes, children


@given(adjacency())
@settings(max_examples=200, deadline=None)
def test_topological_sort_equals_the_reference(case):
    nodes, children = case
    try:
        expected = topological_sort_reference(nodes, children)
    except CycleError as exc:
        with pytest.raises(CycleError) as caught:
            topological_sort(nodes, children)
        assert caught.value.members == exc.members
        assert str(caught.value) == str(exc)
    else:
        assert topological_sort(nodes, children) == expected


def fan_out(width: int) -> tuple[list[str], dict[str, set[str]]]:
    """split -> ``width`` workers -> merge, the paper's Fig. 2 shape."""
    workers = [f"w{i:06d}" for i in range(width)]
    children: dict[str, set[str]] = {"split": set(workers), "merge": set()}
    for worker in workers:
        children[worker] = {"merge"}
    return ["split", *workers, "merge"], children


def test_wide_fan_out_orders_as_before():
    nodes, children = fan_out(50_000)
    assert topological_sort(nodes, children) == topological_sort_reference(
        nodes, children
    )
