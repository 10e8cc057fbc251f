"""Property-based tests for the WMS layer: DAX round-trips and planner
structural invariants over randomly generated workflows."""

from hypothesis import given, settings, strategies as st

from repro.wms.catalogs import (
    ReplicaCatalog,
    SiteCatalog,
    TransformationCatalog,
    TransformationEntry,
    osg_site,
    sandhills_site,
)
from repro.wms.dax import ADag, AbstractJob, File
from repro.wms.planner import PlannerOptions, plan

names = st.text(alphabet="abcdefghij_", min_size=1, max_size=8)


@st.composite
def random_adag(draw):
    """A random layered workflow with file-mediated dependencies."""
    n_layers = draw(st.integers(min_value=1, max_value=4))
    adag = ADag(name="rand")
    produced: list[File] = []
    file_counter = 0
    job_counter = 0
    externals = [File("ext_0.dat", size=draw(st.integers(0, 10**6)))]
    for layer in range(n_layers):
        layer_jobs = draw(st.integers(min_value=1, max_value=4))
        new_files = []
        for _ in range(layer_jobs):
            job = AbstractJob(
                id=f"job{job_counter}",
                transformation=draw(
                    st.sampled_from(["alpha", "beta", "gamma"])
                ),
                runtime=draw(st.floats(min_value=0.1, max_value=1000)),
            )
            job_counter += 1
            # Inputs: some mix of externals and earlier outputs.
            pool = externals + produced
            for f in draw(
                st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                         unique_by=lambda f: f.name)
            ):
                job.add_input(f)
            # Outputs: fresh files.
            for _ in range(draw(st.integers(1, 2))):
                f = File(f"f_{file_counter}.dat",
                         size=draw(st.integers(0, 10**6)))
                file_counter += 1
                job.add_output(f)
                new_files.append(f)
            adag.add_job(job)
        produced.extend(new_files)
    return adag


def _catalogs():
    sites = SiteCatalog()
    sites.add(sandhills_site())
    sites.add(osg_site())
    tc = TransformationCatalog()
    for t in ("alpha", "beta", "gamma"):
        tc.add(TransformationEntry(name=t, installed_sites=frozenset({"sandhills"})))
    return sites, tc


@given(random_adag())
@settings(max_examples=60, deadline=None)
def test_dax_xml_roundtrip_property(adag):
    back = ADag.from_xml(adag.to_xml())
    assert set(back.jobs) == set(adag.jobs)
    assert back.edges() == adag.edges()
    for jid, job in adag.jobs.items():
        other = back.jobs[jid]
        assert other.transformation == job.transformation
        assert other.runtime == job.runtime
        assert [f.name for f in other.inputs()] == [
            f.name for f in job.inputs()
        ]
        assert [f.name for f in other.outputs()] == [
            f.name for f in job.outputs()
        ]


@given(random_adag(), st.integers(1, 5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_planner_structural_invariants(adag, cluster_size, cleanup):
    sites, tc = _catalogs()
    rc = ReplicaCatalog()
    for f in adag.external_inputs():
        rc.add(f.name, f"file:///{f.name}")
    planned = plan(
        adag,
        site_name="osg",
        sites=sites,
        transformations=tc,
        replicas=rc,
        options=PlannerOptions(
            cluster_size=cluster_size, add_cleanup=cleanup, retries=2
        ),
    )
    dag = planned.dag

    # 1. Acyclic and complete topological order.
    order = dag.topological_order()
    assert len(order) == len(dag)

    # 2. Every abstract job maps to exactly one executable job.
    assert set(planned.job_map) == set(adag.jobs)
    for target in planned.job_map.values():
        assert target in dag.jobs

    # 3. One stage-in job per external input, upstream of its consumers.
    externals = {f.name for f in adag.external_inputs()}
    stage_ins = [n for n in dag.jobs if n.startswith("stage_in_")]
    assert len(stage_ins) == len(externals)

    # 4. Total compute runtime is conserved by clustering.
    compute_names = set(planned.job_map.values())
    compute_runtime = sum(dag.jobs[n].runtime for n in compute_names)
    abstract_runtime = sum(j.runtime for j in adag.jobs.values())
    assert abs(compute_runtime - abstract_runtime) < 1e-6

    # 5. Abstract dependencies survive the mapping.
    for parent, child in adag.edges():
        mp, mc = planned.job_map[parent], planned.job_map[child]
        if mp == mc:
            continue  # merged into one cluster: trivially ordered
        assert order.index(mp) < order.index(mc)

    # 6. On OSG every compute job carries the setup decoration.
    for name in compute_names:
        assert dag.jobs[name].needs_setup

    # 7. Cleanup jobs (if any) only ever follow their consumers.
    if cleanup:
        parents, children = dag.parent_sets(), dict(dag.child_sets())
        for name in dag.jobs:
            if name.startswith("cleanup_"):
                assert parents[name]
                assert not children[name]
