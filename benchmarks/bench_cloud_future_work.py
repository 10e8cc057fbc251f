"""§VII future work — clouds as the third execution platform, built.

The paper: "Using academic and commercial clouds as an execution
platform for the blast2cap3 workflow built in this paper will be
challenging, but important and useful further step of this research."

This bench runs the workflow on the cloud model next to Sandhills and
OSG and reports the dimension neither of those platforms has: dollars.
Also includes a spot-market variant (cheap but reclaimable — OSG-like
risk at cloud-like setup cost).
"""

from conftest import write_result

from repro.core.workflow_factory import simulate_paper_run
from repro.sim.cloud import CloudConfig, CloudPlatform
from repro.sim.failures import FailureModel
from repro.util.tables import Table


def test_cloud_platform_comparison(paper_model, benchmark):
    table = Table(
        ["n", "sandhills (s)", "osg (s)", "cloud (s)", "cloud cost ($)",
         "spot (s)", "spot cost ($)"],
        title="Future work — cloud as a third platform (seed 1)",
    )
    spot_config = CloudConfig(
        failures=FailureModel(eviction_rate_per_s=1 / 15000.0),
        spot_discount=0.3,
    )
    rows = {}
    for n in (100, 300, 500):
        campus, _ = simulate_paper_run(n, "sandhills", seed=1,
                                       model=paper_model)
        grid, _ = simulate_paper_run(n, "osg", seed=1, model=paper_model)
        cloud, _ = simulate_paper_run(n, "cloud", seed=1, model=paper_model)
        cloud_env = cloud.final.environment
        spot, _ = simulate_paper_run(n, "cloud", seed=1, model=paper_model,
                                     config=spot_config)
        spot_env = spot.final.environment
        assert campus.success and grid.success and cloud.success and spot.success
        rows[n] = (campus, grid, cloud, cloud_env, spot, spot_env)
        table.add_row(
            n,
            round(campus.trace.wall_time()),
            round(grid.trace.wall_time()),
            round(cloud.trace.wall_time()),
            round(cloud_env.billed_cost(), 2),
            round(spot.trace.wall_time()),
            round(spot_env.billed_cost(), 2),
        )
    write_result("cloud_future_work", table.render())

    for n, (campus, grid, cloud, cloud_env, spot, spot_env) in rows.items():
        assert isinstance(cloud_env, CloudPlatform)
        # No software-setup tax on the cloud (images) -> beats OSG.
        assert cloud.trace.wall_time() < grid.trace.wall_time()
        # Boot time keeps it within ~1.5x of the dedicated campus slots.
        assert cloud.trace.wall_time() < 1.5 * campus.trace.wall_time()
        # Money is now a first-class output.
        assert cloud_env.billed_cost() > 0
        # Spot runs cost less per instance-hour...
        spot_rate = spot_env.billed_cost() / max(1, spot_env.instance_seconds())
        demand_rate = cloud_env.billed_cost() / max(1, cloud_env.instance_seconds())
        assert spot_rate < demand_rate
        # ...but reclaims mean retries, so wall time suffers vs on-demand.
        assert spot.trace.retry_count >= cloud.trace.retry_count

    benchmark(lambda: simulate_paper_run(300, "cloud", seed=0,
                                         model=paper_model))
