"""The full closed loop at desk scale, through the library API.

A synthetic scenario generates its own input files and an expected-value
reference census; the engine simulates a small ensemble; deriving the death
parameters back from a run recovers the generating probability; the
deviation report compares the ensemble against the reference.
"""

from datetime import date

from popsim import (MacroStepConfig, ScenarioSpec, cohort_projection,
                    derive_params_from_census, deviation_report, ensemble_mean,
                    run_simulation)
from popsim.scenario import build_initial_population, build_model_parameters

spec = ScenarioSpec(
    regions=["AT-1", "AT-2"],
    start_year=2020, years=5,
    initial_total=20_000, initial_age_low=0, initial_age_high=79,
    p_death=[(0, 0.003), (60, 0.02)],
    p_birth=[(15, 0.07), (50, 0.0)],
    p_emigration=0.004,
    p_internal_migration=0.02,
    immigration_per_year=300,
)

# one bundle of inputs feeds both the oracle and the engine
params = build_model_parameters(spec)
initial = build_initial_population(spec)

reference = cohort_projection(params, initial, spec.start_year, spec.years)

step = MacroStepConfig(date(2020, 1, 1), date(2025, 1, 1))
runs = [run_simulation(step, params, initial, seed=seed) for seed in range(3)]

print("year   engine-mean population   reference")
mean = ensemble_mean(runs)
for year in range(2020, 2026):
    print(f"{year}   {mean.total('P', year):>12.1f}   {reference.total('P', year):>12.1f}")

derived = derive_params_from_census(runs[0], "death")
weighted = numerator = 0.0
for year in range(2020, 2025):
    for region in spec.regions:
        for sex in "mf":
            for age in range(60, 80):
                pop = (runs[0].get("P", year, region, sex, age)
                       + runs[0].get("P", year + 1, region, sex, age)) / 2
                numerator += derived.lookup(year, region, sex, age) * pop
                weighted += pop
print("\nderived death probability, pooled over ages 60-79: "
      f"{numerator / weighted:.4f}  (generating 0.0200)")

report = deviation_report(runs, reference)
overall = report.rows[0]
print(f"\ntotal-population deviation band: e_min {overall.e_min:+.4%}, "
      f"e_max {overall.e_max:+.4%}")
print(f"(90% CI on e_max: {overall.e_max_ci[0]:+.4%} .. {overall.e_max_ci[1]:+.4%})")
