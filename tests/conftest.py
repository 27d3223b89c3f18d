import numpy as np
from hypothesis import settings

from popsim.census import METRIC_INDEX
from popsim.engine import ModelParameters
from popsim.ipf import MigrationTensor
from popsim.params import ParameterTable
from popsim.scenario import build_initial_population, build_model_parameters, cohort_projection

# the fuzz draws are random per run: a failure prints the @reproduce_failure blob
# that replays it
settings.register_profile("popsim", print_blob=True)
settings.load_profile("popsim")


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criteria verdicts past pytest's output capture."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


def constant_parameters(regions=("AT-1",), years=(2019, 2032), max_age=100,
                        age_profiles=None, **probabilities) -> ModelParameters:
    """ModelParameters with constant (or per-age) probabilities per kind.

    Kinds absent from ``probabilities`` get no table at all. When an
    internal_migration table is present a uniform off-diagonal tensor over
    ``regions`` is attached.
    """
    tables = {}
    profiles = dict(age_profiles or {})
    for kind, p in probabilities.items():
        values = np.full(max_age + 1, float(p))
        if kind in profiles:
            values = np.asarray(profiles[kind], dtype=float)
        table = ParameterTable(kind, max_age)
        sexes = ("f",) if kind == "birth" else ("all",)
        table.set_constant(range(*years), regions, sexes, values)
        tables[kind] = table
    tensor = None
    if "internal_migration" in tables:
        n = len(regions)
        tensor = MigrationTensor(regions, range(max_age + 1),
                                 np.ones((n, n, max_age + 1)))
    return ModelParameters(tables, migration_tensor=tensor)


def book_by_label(census, cell_map) -> None:
    """Add a {(metric, year, region, sex, age): n} map to ``census`` label by
    label, the reference for booking by position: the axes extended with the
    map's labels, then each count added at the positions of its labels."""
    if not cell_map:
        return
    metrics, *columns = zip(*cell_map)
    census.extend(*columns)
    at = tuple(np.array([index[label] for label in column], np.intp)
               for index, column in zip((METRIC_INDEX, *census.index), (metrics, *columns)))
    census.values[at] += list(cell_map.values())
    census.present[at] = True


def book_population(census, year, counts) -> None:
    """Book a Jan-1 snapshot, a {(region, sex, age): n} map, as P cells of ``year``."""
    for (region, sex, age), n in counts.items():
        census.record_event("P", year, region, sex, age, n)


def reference_census_for(spec):
    """The oracle's expected census of a scenario spec."""
    return cohort_projection(build_model_parameters(spec), build_initial_population(spec),
                             spec.start_year, spec.years, male_fraction=spec.male_fraction)
