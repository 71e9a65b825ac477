"""A full simulated day: agents, schedules, choices, routes, tallies.

Ten synthetic residents of a small grid city each follow a daily
schedule (home -> work -> ... -> home). For every trip the calibrated
choice model picks a travel mode and a duration budget, the duration
budget bounds the destination search radius, and Dijkstra routing turns
the trip into street-edge traversals tallied by hour. The whole day is
a pure function of the seed: rerunning it reproduces every count.

Run:  python demos/06_city_day_simulation.py
"""

from collections import Counter

from preference_chain.behavior_graph import build_from_records
from preference_chain.city import grid_city
from preference_chain.ingest import default_synthetic_spec, generate_synthetic
from preference_chain.mobility_sim import (
    LlmScheduleProvider,
    generate_profiles,
    generate_schedule,
    make_agents,
    run_day,
)
from preference_chain.pipeline import PreferenceChain

SEED = 0

city = grid_city(width=6, height=6, pois_per_category=3, seed=SEED)
print(f"city: {len(city.positions)} intersections, "
      f"{sum(len(v) for v in city.adjacency.values()) // 2} streets, "
      f"{len(city.pois)} destinations\n")

spec = default_synthetic_spec()
records = generate_synthetic(spec, size=60, seed=SEED)
graph = build_from_records(records)
chain = PreferenceChain(graph)

profiles = generate_profiles(10, spec, SEED)
agents = make_agents(profiles, city, SEED)
scheduler = LlmScheduleProvider(chain.llm_provider)  # mock -> template fallback
plans = [generate_schedule(a.profile, scheduler, SEED + a.id) for a in agents]

tally, trips = run_day(agents, plans, city, chain, SEED)

print("agent 0's day:")
for t in trips:
    if t.agent_id == 0:
        print(f"  {t.start_minute // 60:02d}:{t.start_minute % 60:02d}  "
              f"{t.purpose:<12} via {t.mode:<14} "
              f"node {t.origin}->{t.destination} ({t.edge_count} street segments)")

print(f"\nday totals: {len(trips)} trips, {tally.total_edge_traversals()} "
      f"street traversals, {tally.total_visits()} destination visits")

modes = Counter(t.mode for t in trips)
print("mode split:", ", ".join(f"{m} x{c}" for m, c in modes.most_common()))

busiest = Counter()
for (edge, _hour), count in tally.edge_counts.items():
    busiest[edge] += count
print("busiest streets:", ", ".join(f"{e} ({c})" for e, c in busiest.most_common(5)))

# Conservation invariant: every street segment a trip crosses is tallied
# exactly once, so the tally total equals the summed per-trip path lengths.
assert tally.total_edge_traversals() == sum(t.edge_count for t in trips)
print("\nconservation check passed: tallies match summed path lengths")
