"""One agent's life-years, watched event by event through the World API.

The Birthday event reschedules itself annually, increments the age, and
draws the demographic events of the upcoming life-year. Terminal events
cancel everything still pending. The world draws the agent's birthdate
within her age at the start date; a listener prints each of her events as
the world applies it, and ``AgentView.events`` shows what she has pending.
"""

from datetime import date

import numpy as np

from popsim import MacroStepConfig, ModelParameters, ParameterTable, World

max_age = 100
years = range(2019, 2031)
death = ParameterTable("death", max_age)
death.set_constant(years, ["AT-1"], ("all",), np.full(max_age + 1, 0.08))
birth = ParameterTable("birth", max_age)
fertility = np.zeros(max_age + 1)
fertility[15:50] = 0.25
birth.set_constant(years, ["AT-1"], ("f",), fertility)
params = ModelParameters({"death": death, "birth": birth})

world = World(MacroStepConfig(date(2020, 1, 1), date(2030, 1, 1)), params, seed=2024)
world.add_initial_population([("AT-1", "f", 29, 1)])
agent = world.agents[0]
print(f"created {agent}")
print("initial queue (first partial life-year already drawn):")
for ev in agent.events:
    print(f"  {ev.due}  {ev.kind.name}")


def trace(agent, ev):
    if agent.id == 0:  # her newborns are agents of the world too
        print(f"  {ev.due}  {ev.kind.name:9s} -> age {agent.age}, "
              f"{'alive' if agent.alive else 'removed'}")


world.listeners.append(trace)
print("\nadvancing year by year:")
for year in range(2021, 2031):
    print(f"[through {year}-01-01]")
    world.macro_step(date(year, 1, 1))
    if 0 not in world.agents:
        break
else:
    print("still pending:", ", ".join(f"{ev.kind.name} {ev.due}"
                                      for ev in world.agents[0].events))

print("\ncensus events booked (her and her newborns'):")
for metric in ("B", "D"):
    for (year, region, sex, age), n in world.census.items(metric):
        print(f"  {metric} {year} ({region}, {sex}, age {age}): {n:g}")
print(f"newborns created: {world.counters['births']}; agents alive: {len(world.agents)}")
