"""Parameter computation: Farr probabilities, integer apportionment, table
lookup with regional fallback."""

import math
import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from popsim.census import SyntheticCensus
from popsim.engine import ModelParameters
from popsim.errors import CoverageError, InputError
from popsim.params import (PROBABILITY_KINDS, ImmigrationTable, ParameterTable, apportion_integer,
                           derive_params_from_census, farr_probability)

from conftest import book_population

# ----- Farr ------------------------------------------------------------------


def test_farr_zero_deaths():
    assert farr_probability(0, 5000) == 0.0


def test_farr_both_algebraic_forms_agree():
    deaths, pop = 100, 10000
    direct = deaths / (pop + deaths / 2)
    m = deaths / pop
    via_rate = 1 - (1 - m / 2) / (1 + m / 2)
    assert direct == pytest.approx(0.00995025, abs=5e-9)
    assert abs(farr_probability(deaths, pop) - direct) < 1e-15
    assert abs(farr_probability(deaths, pop) - via_rate) < 1e-15


def test_farr_domain_errors():
    with pytest.raises(InputError):
        farr_probability(10, 0)
    with pytest.raises(InputError):
        farr_probability(200, 100)  # p would reach 1
    with pytest.raises(InputError):
        farr_probability(-1, 100)


@given(deaths=st.integers(min_value=1, max_value=1000),
       pop=st.integers(min_value=1000, max_value=100000))
@settings(max_examples=100, deadline=None)
def test_farr_below_naive_rate_and_monotone(deaths, pop):
    p = farr_probability(deaths, pop)
    assert p <= deaths / pop
    assert farr_probability(deaths + 1, pop) > p


def test_farr_recovers_constant_mortality_from_replacement_cohort():
    """Brute-force oracle: slots kept occupied forever; a death starts a fresh
    life-year immediately. Deaths per year over a constant cohort put through
    Farr's formula must recover the per-life-year probability."""
    rng = np.random.default_rng(1234)
    slots, horizon, burn_in, p_true = 4000, 42.0, 2.0, 0.05
    deaths = 0
    for _ in range(slots):
        t = rng.random()  # first life-year start, uniform phase
        while t < horizon:
            if rng.random() < p_true:
                t += rng.random()  # dies mid life-year; successor starts now
                if t >= burn_in and t < horizon:
                    deaths += 1
            else:
                t += 1.0
    window = horizon - burn_in
    deaths_per_year = deaths / window
    estimate = farr_probability(deaths_per_year, slots)
    assert estimate == pytest.approx(p_true, rel=0.04)


# ----- integer apportionment ----------------------------------------------------


def priority_oracle(total, weights):
    """Independent implementation of the divisor method (no heap)."""
    alloc = [0] * len(weights)
    positive = [i for i, w in enumerate(weights) if w > 0]
    if total <= len(positive):
        for i in sorted(positive, key=lambda i: (-weights[i], i))[:total]:
            alloc[i] = 1
        return alloc
    for i in positive:
        alloc[i] = 1
    for _ in range(total - len(positive)):
        best = max(positive,
                   key=lambda i: (weights[i] / math.sqrt(alloc[i] * (alloc[i] + 1)), -i))
        alloc[best] += 1
    return alloc


def compositions(total, parts, minimum):
    """All tuples of length ``parts`` of ints >= minimum summing to total."""
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for head in range(minimum, total - minimum * (parts - 1) + 1):
        for tail in compositions(total - head, parts - 1, minimum):
            yield (head,) + tail


def pairwise_objective(alloc, weights):
    """Largest relative per-unit difference across pairs of positive cells."""
    ratios = [n / w for n, w in zip(alloc, weights) if w > 0]
    worst = 0.0
    for a, b in combinations(ratios, 2):
        hi, lo = max(a, b), min(a, b)
        worst = max(worst, hi / lo - 1.0)
    return worst


def is_equal_proportions_apportionment(alloc, weights):
    """Min-max inequality of the divisor method with d(n) = sqrt(n(n+1)):
    the last unit granted anywhere outranks the next unit everywhere."""
    last = max(w / math.sqrt(n * (n + 1)) for n, w in zip(alloc, weights))
    nxt = min((w / math.sqrt((n - 1) * n) if n > 1 else math.inf)
              for n, w in zip(alloc, weights))
    return last <= nxt * (1 + 1e-12)


def test_apportion_single_cell():
    assert apportion_integer(7, [1.0]) == [7]


def test_apportion_hand_example():
    # for this instance the priority method also attains the exhaustive
    # minimum of the largest pairwise relative per-unit difference
    assert apportion_integer(10, [6, 3, 1]) == [6, 3, 1]
    best = min(pairwise_objective(c, [6, 3, 1]) for c in compositions(10, 3, 1))
    assert pairwise_objective([6, 3, 1], [6, 3, 1]) == pytest.approx(best)


def test_apportion_underallocated_first_units_by_weight():
    assert apportion_integer(2, [5, 4, 3]) == [1, 1, 0]
    assert apportion_integer(1, [5, 4, 3]) == [1, 0, 0]


def test_apportion_matches_priority_oracle():
    rng = np.random.default_rng(99)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        weights = np.round(rng.random(k) * 10, 3).tolist()
        if sum(weights) == 0:
            continue
        total = int(rng.integers(0, 40))
        assert apportion_integer(total, weights) == priority_oracle(total, weights)


def test_apportion_satisfies_divisor_inequality_exhaustively():
    """Brute force over all compositions: ours must be one of the (usually
    unique) compositions satisfying the equal-proportions inequality."""
    rng = np.random.default_rng(7)
    for _ in range(40):
        k = int(rng.integers(2, 5))
        weights = (np.floor(rng.random(k) * 10) / 10 + 0.1).tolist()
        total = int(rng.integers(k, 13))
        alloc = apportion_integer(total, weights)
        assert sum(alloc) == total
        valid = [c for c in compositions(total, k, 1)
                 if is_equal_proportions_apportionment(c, weights)]
        assert tuple(alloc) in {tuple(c) for c in valid}


def test_apportion_zero_weights_get_zero():
    alloc = apportion_integer(9, [2, 0, 1, 0])
    assert alloc[1] == 0 and alloc[3] == 0
    assert sum(alloc) == 9


def test_apportion_scaling_invariance():
    rng = np.random.default_rng(5)
    for _ in range(300):
        k = int(rng.integers(1, 7))
        weights = rng.random(k) + 0.01
        total = int(rng.integers(0, 50))
        base = apportion_integer(total, weights.tolist())
        for factor in (1e-3, 0.5, 7.0, 1e4):
            assert apportion_integer(total, (weights * factor).tolist()) == base


def test_apportion_errors():
    with pytest.raises(InputError):
        apportion_integer(3, [0.0, 0.0])
    with pytest.raises(InputError):
        apportion_integer(-1, [1.0])
    assert apportion_integer(0, [0.0, 0.0]) == [0, 0]


# ----- table lookup --------------------------------------------------------------


def small_table(level_regions, sexes=("all",), max_age=100, value=0.25):
    table = ParameterTable("death", max_age)
    table.set_constant([2020], level_regions, sexes, np.full(max_age + 1, value))
    return table


def test_lookup_federal_state_fallback():
    table = small_table(["AT-5", "AT-7"])
    assert table.lookup(2020, "AT-5-01-003", "m", 30) == 0.25
    assert table.lookup(2020, "AT-5-01", "f", 30) == 0.25


def test_lookup_country_level_same_for_all():
    table = small_table(["AT"])
    for region in ("AT", "AT-1", "AT-9-22", "AT-3-04-011"):
        assert table.lookup(2020, region, "m", 10) == 0.25


def test_lookup_age_clamps_to_max_age():
    table = ParameterTable("death", 100)
    values = np.linspace(0, 0.5, 101)
    table.set_row(2020, "AT", "all", values)
    assert table.lookup(2020, "AT", "m", 107) == table.lookup(2020, "AT", "m", 100)
    assert table.lookup(2020, "AT", "m", 100) == pytest.approx(0.5)


def test_lookup_coverage_errors():
    table = small_table(["AT-5"])
    with pytest.raises(CoverageError):
        table.lookup(2021, "AT-5", "m", 10)  # year outside coverage
    with pytest.raises(InputError):
        table.lookup(2020, "AT", "m", 10)  # coarser than table level


def test_lookup_total_over_coverage():
    table = small_table(["AT-5", "AT-7"], sexes=("m", "f"), max_age=50)
    rng = np.random.default_rng(0)
    for _ in range(500):
        region = ("AT-5", "AT-7")[int(rng.integers(2))]
        if rng.random() < 0.5:
            region += f"-{int(rng.integers(1, 20)):02d}"
        sex = "mf"[int(rng.integers(2))]
        age = int(rng.integers(0, 120))
        assert table.lookup(2020, region, sex, age) == 0.25


def test_row_equals_lookup_for_every_age():
    table = ParameterTable("death", 20)
    for year in (2020, 2021):
        for region in ("AT-5", "AT-7"):
            for k, sex in enumerate("mf"):
                table.set_row(year, region, sex,
                              np.linspace(0.01 * k, 0.3 + year - 2020, 21) / 2)
    for year in (2020, 2021):
        for region in ("AT-5", "AT-7-03", "AT-5-11-004"):  # district codes resolve upward
            for sex in "mf":
                row = table.row(year, region, sex)
                assert row is table.row(year, region, sex)  # resolved once
                for age in range(40):  # ages above max_age read the last entry
                    assert row[min(age, table.max_age)] == table.lookup(year, region, sex, age)
    assert table.row(2020, "AT-5-01", "f") is table.row(2020, "AT-5", "f")


def test_row_all_sex_table_answers_both_sexes():
    table = small_table(["AT-1"], sexes=("all",), max_age=10)
    assert table.row(2020, "AT-1", "m") is table.row(2020, "AT-1", "f")
    assert list(table.row(2020, "AT-1-02", "m")) == [0.25] * 11


def test_row_birth_table_covers_women_only():
    table = small_table(["AT-1"], sexes=("f",), max_age=10)
    assert table.row(2020, "AT-1", "f")[3] == table.lookup(2020, "AT-1", "f", 3)
    with pytest.raises(CoverageError):
        table.row(2020, "AT-1", "m")


def test_row_coverage_errors_match_lookup():
    table = small_table(["AT-5"])
    with pytest.raises(CoverageError, match="year=2021"):
        table.row(2021, "AT-5", "m")
    with pytest.raises(InputError):
        table.row(2020, "AT", "m")  # coarser than table level
    with pytest.raises(CoverageError):
        ParameterTable("death", 3).row(2020, "AT-5", "m")  # empty table


def test_row_cache_cleared_by_set_row():
    table = small_table(["AT-5"], sexes=("m", "f"), max_age=3)
    before = table.row(2020, "AT-5-01", "m")
    table.set_row(2020, "AT-5", "m", [0.5, 0.5, 0.5, 0.5])
    after = table.row(2020, "AT-5-01", "m")
    assert after is not before and list(after) == [0.5] * 4
    assert table.lookup(2020, "AT-5-01", "m", 9) == 0.5


def test_mixed_levels_rejected():
    table = ParameterTable("death", 10)
    table.set_row(2020, "AT-5", "all", np.zeros(11))
    with pytest.raises(InputError):
        table.set_row(2020, "AT", "all", np.zeros(11))


def test_param_csv_round_trip(tmp_path):
    table = ParameterTable("emigration", 3)
    table.set_row(2020, "AT-1", "m", [0.1, 0.2, 0.3, 0.4])
    table.set_row(2020, "AT-1", "f", [0.0, 0.25, 0.5, 0.75])
    path = tmp_path / "emig.csv"
    table.to_csv(path)
    loaded = ParameterTable.from_csv(path)
    assert loaded.kind == "emigration"
    for sex, age in (("m", 0), ("m", 3), ("f", 1), ("f", 2)):
        assert loaded.lookup(2020, "AT-1", sex, age) == table.lookup(2020, "AT-1", sex, age)


def _write_param_rows(path, rows):
    path.write_text("kind,year,region,sex,age,value\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows))
    return path


def test_param_csv_rejects_duplicate_row(tmp_path):
    rows = [("death", 2020, "AT-1", "m", a, 0.01) for a in range(3)]
    rows.append(("death", 2020, "AT-1", "m", 1, 0.02))
    path = _write_param_rows(tmp_path / "dup.csv", rows)
    with pytest.raises(InputError, match=r"dup\.csv:5: duplicate row for \(2020,AT-1,m,1\)"):
        ParameterTable.from_csv(path)


def test_param_csv_rejects_missing_ages(tmp_path):
    rows = [("death", 2020, "AT-1", "f", a, 0.01) for a in range(6)]
    rows += [("death", 2020, "AT-1", "m", 0, 0.01), ("death", 2020, "AT-1", "m", 5, 0.02)]
    path = _write_param_rows(tmp_path / "gap.csv", rows)
    with pytest.raises(InputError, match=r"gap\.csv:8: .*AT-1,m.* lacks ages \[1, 2, 3, 4\]"):
        ParameterTable.from_csv(path)


def test_immigration_csv_round_trip(tmp_path):
    table = ImmigrationTable()
    table.add(2024, "AT-9", "f", 30, 2)
    table.add(2024, "AT-1", "m", 4, 7)
    path = tmp_path / "imm.csv"
    table.to_csv(path)
    loaded = ImmigrationTable.from_csv(path)
    assert loaded.counts == table.counts
    assert loaded.cells_for_year(2024)[0] == ("AT-1", "m", 4, 7)


def test_immigration_rejects_negative():
    with pytest.raises(InputError, match=r"^negative population count for \(AT-1,m,3\)$"):
        ImmigrationTable().add(2020, "AT-1", "m", 3, -1)
    with pytest.raises(InputError, match=r"^negative age for \(AT-1,m,-2\)$"):
        ImmigrationTable().add(2020, "AT-1", "m", -2, 3)


# ----- deriving parameters from a census -------------------------------------------


def test_derive_params_hand_cell():
    census = SyntheticCensus()
    book_population(census, 2020, {("AT-1", "m", 50): 10000})
    book_population(census, 2021, {("AT-1", "m", 50): 9900})
    census.record_event("D", 2020, "AT-1", "m", 50, 100)
    table = derive_params_from_census(census, "death", max_age=60)
    # P_avg = (10000 + 9900)/2 = 9950; p = 100 / (9950 + 50) = 0.01
    assert table.lookup(2020, "AT-1", "m", 50) == pytest.approx(0.01, abs=1e-12)


def test_derive_params_zero_events():
    census = SyntheticCensus()
    book_population(census, 2020, {("AT-1", "f", 10): 100})
    book_population(census, 2021, {("AT-1", "f", 10): 100})
    table = derive_params_from_census(census, "death", max_age=20)
    assert table.lookup(2020, "AT-1", "f", 10) == 0.0
    assert table.lookup(2020, "AT-1", "f", 20) == 0.0


def test_derive_params_birth_uses_female_denominator():
    census = SyntheticCensus()
    book_population(census, 2020, {("AT-1", "f", 30): 1000, ("AT-1", "m", 30): 9000})
    book_population(census, 2021, {("AT-1", "f", 30): 1000, ("AT-1", "m", 30): 9000})
    census.record_event("B", 2020, "AT-1", "f", 30, 100)
    table = derive_params_from_census(census, "birth", max_age=40)
    assert table.sexes == {"f"}
    assert table.lookup(2020, "AT-1", "f", 30) == pytest.approx(100 / 1050)


def test_derive_params_empty_cell_with_events_fails():
    census = SyntheticCensus()
    book_population(census, 2020, {("AT-1", "m", 10): 5})
    book_population(census, 2021, {("AT-1", "m", 10): 5})
    census.record_event("D", 2020, "AT-1", "m", 33, 2)
    with pytest.raises(InputError):
        derive_params_from_census(census, "death", max_age=40)


def test_set_row_keeps_a_copy_of_the_values():
    values = np.full(4, 0.5)
    table = ParameterTable("death", 3)
    table.set_constant([2020], ["AT-1"], ["all"], values)
    values[:] = 0.9
    assert table.lookup(2020, "AT-1", "m", 2) == 0.5


def test_set_row_rejects_nan():
    table = ParameterTable("death", 3)
    with pytest.raises(InputError, match="out of range"):
        table.set_row(2020, "AT-1", "all", [0.1, math.nan, 0.1, 0.1])


def test_param_csv_rejects_nan_probability(tmp_path):
    rows = [("death", 2020, "AT-1", "all", a, 0.01) for a in range(3)]
    rows[1] = ("death", 2020, "AT-1", "all", 1, "nan")
    path = _write_param_rows(tmp_path / "nan.csv", rows)
    with pytest.raises(InputError, match=r"nan\.csv:3: .*not a finite number"):
        ParameterTable.from_csv(path)


def test_immigration_csv_rejects_inf(tmp_path):
    path = _write_param_rows(tmp_path / "imm.csv",
                             [("immigration", 2020, "AT-1", "m", 30, "inf")])
    with pytest.raises(InputError, match=r"imm\.csv:2: .*not a finite number"):
        ImmigrationTable.from_csv(path)


def test_param_csv_rejects_extra_column(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("kind,year,region,sex,age,value\ndeath,2020,AT-1,all,0,0.1,7\n")
    with pytest.raises(InputError, match=r"wide\.csv:2: .*too many values to unpack"):
        ParameterTable.from_csv(path)


def test_derive_params_names_non_integer_census_age():
    census = SyntheticCensus()
    book_population(census, 2020, {("AT-1", "m", 5): 10, ("AT-1", "m", "x"): 3})
    book_population(census, 2021, {("AT-1", "m", 5): 10})
    with pytest.raises(InputError, match=r"P\(2020,AT-1,m,x\)"):
        derive_params_from_census(census, "death")


def test_param_csv_names_line_of_unknown_kind(tmp_path):
    rows = [("dearth", 2020, "AT-1", "all", a, 0.01) for a in range(3)]
    path = _write_param_rows(tmp_path / "kind.csv", rows)
    with pytest.raises(InputError, match=r"kind\.csv:2: .*unknown parameter kind 'dearth'"):
        ParameterTable.from_csv(path)


def test_param_csv_names_line_of_malformed_region(tmp_path):
    rows = [("death", 2020, "AT-1", "all", a, 0.01) for a in range(3)]
    rows += [("death", 2020, "AT--1", "all", a, 0.01) for a in range(3)]
    path = _write_param_rows(tmp_path / "region.csv", rows)
    with pytest.raises(InputError, match=r"region\.csv:5: .*malformed region code 'AT--1'"):
        ParameterTable.from_csv(path)


def test_param_csv_names_line_of_mixed_region_levels(tmp_path):
    path = _write_param_rows(tmp_path / "mixed.csv", [("death", 2020, "AT-1", "all", 0, 0.01),
                                                      ("death", 2020, "AT-1-01", "all", 0, 0.01)])
    with pytest.raises(InputError, match=r"mixed\.csv:3: mixed region levels in death table: "
                                         r"'AT-1-01' is district, not federal-state$"):
        ParameterTable.from_csv(path)


def test_immigration_csv_keeps_mixed_region_levels(tmp_path):
    path = _write_param_rows(tmp_path / "imm.csv",
                             [("immigration", 2020, "AT-1", "m", 30, 2),
                              ("immigration", 2020, "AT-1-01", "m", 30, 1)])
    table = ImmigrationTable.from_csv(path)
    assert table.cells_for_year(2020) == [("AT-1", "m", 30, 2), ("AT-1-01", "m", 30, 1)]


def test_immigration_csv_names_line_of_malformed_region(tmp_path):
    path = _write_param_rows(tmp_path / "imm.csv",
                             [("immigration", 2020, "AT-1", "m", 30, 2),
                              ("immigration", 2020, "-AT", "m", 30, 2)])
    with pytest.raises(InputError, match=r"imm\.csv:3: .*malformed region code '-AT'"):
        ImmigrationTable.from_csv(path)


def test_set_row_rejects_mixing_all_with_sex_rows():
    table = small_table(["AT-1"], sexes=("all",), max_age=3, value=0.1)
    with pytest.raises(InputError, match=r"death row \(2020,AT-1,m\) mixes sex 'all' with m/f"):
        table.set_row(2020, "AT-1", "m", np.full(4, 0.9))
    assert table.lookup(2020, "AT-1", "m", 1) == 0.1
    table = small_table(["AT-1"], sexes=("f",), max_age=3)
    with pytest.raises(InputError, match=r"mixes sex 'all'"):
        table.set_row(2021, "AT-1", "all", np.full(4, 0.9))


@pytest.mark.parametrize("sex", ["x", "M", "", "all "])
def test_set_row_rejects_an_unknown_sex(sex):
    table = ParameterTable("death", 1)
    with pytest.raises(InputError, match=rf"^death row \(2020,AT-1,{sex}\): sex must be m, f "
                                         r"or all$"):
        table.set_row(2020, "AT-1", sex, [0.1, 0.1])
    assert table.sexes == set() and table.version == 0
    table.set_row(2020, "AT-1", "m", [0.1, 0.1])
    with pytest.raises(InputError, match="sex must be m, f or all"):
        table.set_row(2020, "AT-1", sex, [0.1, 0.1])
    assert table.sexes == {"m"}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(2019, 2021), st.sampled_from(["AT-1", "AT-2"]),
                          st.sampled_from(["m", "f"])), min_size=1, max_size=6, unique=True),
       st.data())
def test_an_unknown_sex_is_reported_at_its_groups_first_row(tmp_path_factory, groups, data):
    rows = data.draw(st.permutations([["death", *group, a, 0.1] for group in groups
                                      for a in range(3)]))
    bad = data.draw(st.sampled_from(groups))
    at = [i for i, row in enumerate(rows) if tuple(row[1:4]) == bad]
    for i in at:
        rows[i][3] = "x"
    path = _write_param_rows(tmp_path_factory.mktemp("params") / "p.csv", rows)
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}:{at[0] + 2}: death row "
                                         rf"\({bad[0]},{bad[1]},x\): sex must be m, f or all$"):
        ParameterTable.from_csv(path)


@pytest.mark.parametrize("first, later", [("all", "m"), ("f", "all")])
def test_param_csv_names_line_of_mixed_sexes(tmp_path, first, later):
    rows = [("death", 2020, "AT-1", sex, a, 0.1) for sex in (first, later) for a in range(2)]
    path = _write_param_rows(tmp_path / "sexes.csv", rows)
    with pytest.raises(InputError, match=rf"sexes\.csv:4: death row \(2020,AT-1,{later}\) "
                                         r"mixes sex 'all' with m/f$"):
        ParameterTable.from_csv(path)


def test_immigration_rejects_sex_all(tmp_path):
    path = _write_param_rows(tmp_path / "imm.csv",
                             [("immigration", 2020, "AT-1", "m", 30, 2),
                              ("immigration", 2020, "AT-1", "all", 31, 2)])
    with pytest.raises(InputError, match=r"imm\.csv:3: sex must be 'm' or 'f', got 'all'$"):
        ImmigrationTable.from_csv(path)
    with pytest.raises(InputError, match=r"^sex must be 'm' or 'f', got 'all'$"):
        ImmigrationTable().add(2020, "AT-1", "all", 31, 2)


def test_set_row_rejects_male_birth_row():
    table = ParameterTable("birth", 2)
    with pytest.raises(InputError, match=r"birth row \(2020,AT-1,m\): only women give birth"):
        table.set_row(2020, "AT-1", "m", np.full(3, 0.9))
    table.set_row(2020, "AT-1", "f", np.full(3, 0.1))
    assert table.sexes == {"f"}
    table = ParameterTable("birth", 2)
    table.set_row(2020, "AT-1", "all", np.full(3, 0.1))  # an all row answers for women
    assert table.lookup(2020, "AT-1", "f", 1) == 0.1


def test_param_csv_names_line_of_male_birth_row(tmp_path):
    rows = [("birth", 2020, "AT-1", sex, a, p) for sex, p in (("f", 0.1), ("m", 0.9))
            for a in range(2)]
    path = _write_param_rows(tmp_path / "birth.csv", rows)
    with pytest.raises(InputError, match=r"birth\.csv:4: .*only women give birth"):
        ParameterTable.from_csv(path)
    path = _write_param_rows(tmp_path / "birth_all.csv",
                             [("birth", 2020, "AT-1", "all", a, 0.1) for a in range(2)])
    assert ParameterTable.from_csv(path).lookup(2020, "AT-1", "f", 1) == 0.1


def test_parameter_tables_hold_only_probability_kinds(tmp_path):
    with pytest.raises(InputError, match="unknown probability kind 'immigration'"):
        ParameterTable("immigration", 3)
    with pytest.raises(InputError, match="registered as 'immigration'"):
        ModelParameters({"immigration": ParameterTable("death", 3)})
    with pytest.raises(InputError, match="cannot derive parameters of kind 'immigration'"):
        derive_params_from_census(SyntheticCensus(), "immigration")
    counts = _write_param_rows(tmp_path / "imm.csv", [("immigration", 2020, "AT-1", "m", 0, 2)])
    with pytest.raises(InputError, match=r"imm\.csv:2: .*immigration counts are not probabilities"):
        ParameterTable.from_csv(counts)
    rates = _write_param_rows(tmp_path / "death.csv", [("death", 2020, "AT-1", "m", 0, 0.1)])
    with pytest.raises(InputError, match=r"death\.csv:2: .*expected immigration counts, "
                                         r"found kind 'death'"):
        ImmigrationTable.from_csv(rates)


def test_param_csv_names_line_of_mixed_kinds(tmp_path):
    rows = [(kind, year, "AT-1", "all", a, 0.1)
            for kind, year in (("death", 2020), ("emigration", 2021)) for a in range(2)]
    path = _write_param_rows(tmp_path / "kinds.csv", rows)
    with pytest.raises(InputError, match=r"kinds\.csv:4: mixed kinds 'death' and 'emigration'$"):
        ParameterTable.from_csv(path)


# regions of one level each; a code of the next level breaks a table of them
LEVEL_REGIONS = (["AT"], ["AT-1", "AT-2", "AT-3"], ["AT-1-01", "AT-1-02", "AT-2-01"])


@st.composite
def broken_param_files(draw):
    """The rows of a valid probability-table file in random order, with one rule broken
    in one (year, region, sex) group, and the index of that group's first row."""
    kind = draw(st.sampled_from(PROBABILITY_KINDS))
    level = draw(st.integers(0, 2))
    years = draw(st.lists(st.integers(2019, 2031), min_size=1, max_size=3, unique=True))
    regions = draw(st.lists(st.sampled_from(LEVEL_REGIONS[level]), min_size=1, max_size=3,
                            unique=True))
    sexes = draw(st.sampled_from([("all",), ("f",)] if kind == "birth" else [("all",), ("m", "f")]))
    groups = list(product(years, regions, sexes))
    ages = range(draw(st.integers(2, 4)))
    rows = draw(st.permutations([[kind, *group, a, 0.1] for group in groups for a in ages]))
    rule = draw(st.sampled_from(["level", "sex", "kind"] + ["male birth"] * (kind == "birth")))
    # the group of the first row sets the table's level, sexes and kind, so another one
    # breaks them; a male birth row breaks the table wherever it is
    broken = [g for g in groups if rule == "male birth" or g != tuple(rows[0][1:4])]
    assume(broken)
    group = draw(st.sampled_from(broken))
    at = [i for i, row in enumerate(rows) if tuple(row[1:4]) == group]
    for i in at:
        if rule == "level":
            rows[i][2] = LEVEL_REGIONS[(level + 1) % 3][0]
        elif rule == "sex":
            rows[i][3] = {"all": "f" if kind == "birth" else "m", "m": "all", "f": "all"}[rows[i][3]]
        elif rule == "kind":
            rows[i][0] = next(other for other in PROBABILITY_KINDS if other != kind)
        else:
            rows[i][3] = "m"
    return rows, at[0]


@settings(max_examples=50, deadline=None)
@given(broken_param_files())
def test_a_broken_table_rule_is_reported_at_its_groups_first_row(tmp_path_factory, case):
    rows, first = case
    path = _write_param_rows(tmp_path_factory.mktemp("params") / "p.csv", rows)
    with pytest.raises(InputError) as caught:
        ParameterTable.from_csv(path)
    assert str(caught.value).startswith(f"{path}:{first + 2}: ")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(2019, 2021), st.sampled_from(["AT-1", "AT-2-01"]),
                          st.sampled_from("mf"), st.integers(0, 3)), min_size=1, max_size=12,
                unique=True), st.data())
def test_an_immigration_row_of_sex_all_is_reported_at_its_line(tmp_path_factory, keys, data):
    rows = [["immigration", *key, 2] for key in keys]
    at = data.draw(st.integers(0, len(rows) - 1))
    rows[at][3] = "all"
    path = _write_param_rows(tmp_path_factory.mktemp("imm") / "imm.csv", rows)
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}:{at + 2}: sex must be "
                                         "'m' or 'f', got 'all'$"):
        ImmigrationTable.from_csv(path)
