"""Reference mobility run whose tallies are committed under tests/data/.

Run ``python tests/golden.py`` to regenerate the committed CSVs after an
intentional behavior change; the acceptance suite compares a fresh run
against them byte for byte.
"""

from pathlib import Path

from preference_chain.behavior_graph import GraphBuildConfig, build_from_records
from preference_chain.city import grid_city
from preference_chain.config import RunConfig, build_embed_provider, build_llm_provider
from preference_chain.ingest import default_synthetic_spec, generate_synthetic
from preference_chain.mobility_sim import (
    LlmScheduleProvider,
    generate_profiles,
    generate_schedule,
    make_agents,
    run_day,
)
from preference_chain.pipeline import PreferenceChain

DATA_DIR = Path(__file__).parent / "data"
EDGE_TALLY_PATH = DATA_DIR / "golden_edge_tally.csv"
POI_TALLY_PATH = DATA_DIR / "golden_poi_tally.csv"

GOLDEN_SEED = 0
GOLDEN_AGENTS = 10
GOLDEN_REFERENCE_SIZE = 60


def golden_city():
    return grid_city(width=6, height=6, pois_per_category=3, seed=GOLDEN_SEED)


def golden_run(city=None, llm_provider=None):
    """The fixed 10-agent day: returns (tally, trip logs).

    ``city`` defaults to a new ``golden_city()``; pass one to simulate the
    day again on a city that already holds routing trees. ``llm_provider``
    defaults to the configured one, the identity mock.
    """
    config = RunConfig()
    spec = default_synthetic_spec()
    records = generate_synthetic(spec, size=GOLDEN_REFERENCE_SIZE, seed=GOLDEN_SEED)
    graph = build_from_records(
        records, GraphBuildConfig(intention_fields=("primary_mode", "duration_minutes"))
    )
    chain = PreferenceChain(
        graph,
        embed_provider=build_embed_provider(config),
        llm_provider=llm_provider or build_llm_provider(config),
        config=config.pipeline_config(),
    )
    city = city if city is not None else golden_city()
    profiles = generate_profiles(GOLDEN_AGENTS, spec, GOLDEN_SEED)
    agents = make_agents(profiles, city, GOLDEN_SEED)
    scheduler = LlmScheduleProvider(chain.llm_provider, config.generation)
    plans = [
        generate_schedule(agent.profile, scheduler, GOLDEN_SEED + agent.id)
        for agent in agents
    ]
    return run_day(agents, plans, city, chain, GOLDEN_SEED)


def write_golden() -> None:
    tally, _trips = golden_run()
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    with open(EDGE_TALLY_PATH, "w", encoding="utf-8") as fp:
        tally.write_edge_csv(fp)
    with open(POI_TALLY_PATH, "w", encoding="utf-8") as fp:
        tally.write_poi_csv(fp)
    print(
        f"wrote {EDGE_TALLY_PATH} and {POI_TALLY_PATH}: "
        f"{tally.total_edge_traversals()} traversals, {tally.total_visits()} visits"
    )


if __name__ == "__main__":
    write_golden()
