"""Pinned deviation report bytes.

Each of perfbench's three workload specs is run by the engine at seeds
1..ensemble_runs and reported against its cohort-projection reference, once
with the whole ensemble and once with the first run alone (a report without
quantiles). The digests pin every value the report writes: a change here is a
changed block sum, quantile or metric, not a different random run.
"""

import hashlib

import pytest

from popsim.engine import World
from popsim.scenario import ScenarioSpec
from popsim.validation import deviation_report

from conftest import reference_census_for
from test_census_digests import WORKLOAD_SPECS, workload

DIGESTS = {
    "churn_monthly_runs1": "9533152d3369136814bfef43040a86abd50f5a37e133b1f06ff401e081277e32",
    "closed_loop_runs1": "dc6d74f3a3bff35b0f849228c00f8975a2e8361d6dfb626012c44a6c03b991d6",
    "closed_loop_runs2": "64cd6d324641d1b68eb958bcfc21e36778ceb3cf3fb092979f089c776b101e9d",
    "regional_ensemble_runs1": "a6a164a016f2227a44a5ffd929c9a8f765327ee6c2358ff849ce8dec7a617386",
    "regional_ensemble_runs4": "cf98eedc3b882f45197e2b8c4f83302392cd4bdc1634a9d4e16dd635cd99aa7c",
}


def ensemble(name):
    spec = ScenarioSpec(**WORKLOAD_SPECS[name][0])
    runs = []
    for seed in range(1, spec.ensemble_runs + 1):
        step, params, initial, seed, male_fraction = workload(name, seed)
        world = World(step, params, seed, male_fraction=male_fraction)
        world.add_initial_population(initial)
        runs.append(world.run())
    return runs, reference_census_for(spec)


@pytest.mark.parametrize("name", sorted(WORKLOAD_SPECS))
def test_report_bytes_are_pinned(name, tmp_path):
    runs, reference = ensemble(name)
    for size in sorted({1, len(runs)}):
        path = tmp_path / f"report_{size}.csv"
        deviation_report(runs[:size], reference).to_csv(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[f"{name}_runs{size}"]
