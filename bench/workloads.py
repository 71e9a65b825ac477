"""The three benchmark workloads, each driving the library like one CLI command.

A workload has three steps:

* ``prepare(root)`` generates its inputs from the seed with the library's
  synthetic generator and writes them to files under ``root``. Untimed.
* ``setup(root)`` is what the command does before its main loop: read the
  CSVs and, for ``evaluate`` and ``simulate``, build the behavior graph and
  the chain and send one warm-up query that builds the person index. Timed
  as ``setup_s``.
* ``run(state)`` is one pass of the command's body, on a chain with fresh
  providers so that every pass starts with the caches one command starts
  with. It returns the body's duration, the work it finished, the bytes of
  the artefacts the command would write, and any broken invariant that must
  hold for every seed. Only the library calls inside are timed, in CPU
  time of the process.

Library functions are looked up on their modules at call time, so that the
tracer's wrappers on those module attributes see the calls.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from time import process_time

from preference_chain import behavior_graph, city, evaluate, ingest, mobility_sim, pipeline
from preference_chain.config import RunConfig, build_embed_provider, build_llm_provider
from preference_chain.retrieval import QueryAgent

INTENTION_FIELDS = ("primary_mode", "duration_minutes")


@dataclass
class Pass:
    seconds: float
    work: int
    artefacts: dict[str, bytes]
    problems: list[str]


def _config(seed: int) -> RunConfig:
    # Offline mock providers, as with ``prefchain --seed <seed>`` and no
    # provider URLs in the environment.
    return RunConfig().with_overrides(seed=seed)


def _build_graph(records) -> behavior_graph.BehaviorGraph:
    return behavior_graph.build_from_records(
        records, behavior_graph.GraphBuildConfig(intention_fields=INTENTION_FIELDS)
    )


def _chain(graph, config: RunConfig, llm_provider=None) -> pipeline.PreferenceChain:
    """A chain with fresh providers, so its caches start empty as in one CLI command.

    The person index is cached per graph and embedding provider id, so a
    fresh chain on a graph whose index was built in set-up reuses it.
    """
    return pipeline.PreferenceChain(
        graph,
        embed_provider=build_embed_provider(config),
        llm_provider=llm_provider or build_llm_provider(config),
        config=config.pipeline_config(),
    )


def _warm_up(chain: pipeline.PreferenceChain, record) -> None:
    chain.predict_all(QueryAgent(record.profile, record.trip_purpose, record.start_time))


def _text(write, *args) -> bytes:
    buffer = io.StringIO()
    write(buffer, *args)
    return buffer.getvalue().encode("utf-8")


def _finite_csv_values(data: bytes, column: str) -> list[str]:
    """Problems with a CSV column that must hold finite non-negative floats."""
    problems = []
    for row in csv.DictReader(io.StringIO(data.decode("utf-8"))):
        value = float(row[column])
        if not math.isfinite(value) or value < 0:
            problems.append(f"{column}={row[column]} in {row}")
    return problems


@dataclass
class EvalLargeRef:
    """``prefchain evaluate`` against a large reference set."""

    seed: int
    n_reference: int = 5000
    n_validation: int = 1000
    llm_factory: object = None

    name = "eval-large-ref"

    def prepare(self, root: Path) -> None:
        spec = ingest.default_synthetic_spec()
        records = ingest.generate_synthetic(
            spec, size=self.n_reference + self.n_validation, seed=self.seed
        )
        reference, validation = ingest.split_reference_validation(
            records, self.n_reference, self.n_validation, self.seed
        )
        ingest.write_csv(reference, root / "reference.csv")
        ingest.write_csv(validation, root / "validation.csv")

    def setup(self, root: Path):
        config = _config(self.seed)
        reference = ingest.read_csv(root / "reference.csv")
        validation = ingest.read_csv(root / "validation.csv")
        graph = _build_graph(reference)
        _warm_up(_chain(graph, config, self._llm()), reference[0])
        return graph, config, validation

    def _llm(self):
        return self.llm_factory() if self.llm_factory else None

    def run(self, state) -> Pass:
        graph, config, validation = state
        chain = _chain(graph, config, self._llm())
        start = process_time()
        table = evaluate.chain_predictions(chain, validation)
        report = evaluate.evaluate_predictions(validation, table, self.seed)
        seconds = process_time() - start
        csv_bytes = _text(evaluate.write_combined_csv, {"chain": report})
        return Pass(
            seconds,
            len(validation),
            {"report.csv": csv_bytes},
            _finite_csv_values(csv_bytes, "value"),
        )

    expected_boundaries = (
        "ingest.read_csv",
        "behavior_graph.build_from_records",
        "retrieval.top_k_similar",
        "retrieval.extract_subgraph",
        "preference.prior_distribution",
        "llm_remodel.calibrate",
        "embedding.embed",
        "embedding.hash_embed",
        "pipeline.predict_all",
        "evaluate.chain_predictions",
        "evaluate.evaluate_predictions",
    )


@dataclass
class SweepSmallRef:
    """``prefchain sweep`` with the CLI defaults: small reference sets."""

    seed: int
    pool_size: int = 700
    sizes: tuple = evaluate.DEFAULT_SWEEP_SIZES
    sweep_seeds: tuple = (0, 1, 2)
    n_validation: int = 500

    name = "sweep-small-ref"

    def prepare(self, root: Path) -> None:
        spec = ingest.default_synthetic_spec()
        pool = ingest.generate_synthetic(spec, size=self.pool_size, seed=self.seed)
        ingest.write_csv(pool, root / "pool.csv")

    def setup(self, root: Path):
        # ``prefchain sweep`` reads the pool and builds every graph in its body.
        return _config(self.seed), ingest.read_csv(root / "pool.csv")

    def run(self, state) -> Pass:
        config, records = state
        # Fresh providers per pass, as for a chain.
        embed = build_embed_provider(config)
        llm = build_llm_provider(config)
        start = process_time()
        rows = evaluate.sweep_reference_sizes(
            records,
            sizes=list(self.sizes),
            seeds=list(self.sweep_seeds),
            n_validation=self.n_validation,
            config=config.pipeline_config(),
            embed_provider=embed,
            llm_provider=llm,
        )
        seconds = process_time() - start
        work = len(self.sizes) * len(self.sweep_seeds) * self.n_validation
        csv_bytes = _text(evaluate.write_sweep_csv, rows)
        problems = _finite_csv_values(csv_bytes, "value")
        expected = 2 * len(self.sizes) * len(self.sweep_seeds)
        if len(rows) != expected:
            problems.append(f"sweep wrote {len(rows)} rows, expected {expected}")
        return Pass(seconds, work, {"sweep.csv": csv_bytes}, problems)

    expected_boundaries = EvalLargeRef.expected_boundaries + ("evaluate.sweep_reference_sizes",)


@dataclass
class CityDay:
    """``prefchain simulate --city`` on a large grid city."""

    seed: int
    n_reference: int = 1000
    n_agents: int = 320
    grid: int = 40

    name = "city-day"

    def prepare(self, root: Path) -> None:
        spec = ingest.default_synthetic_spec()
        reference = ingest.generate_synthetic(spec, size=self.n_reference, seed=self.seed)
        ingest.write_csv(reference, root / "reference.csv")
        city.grid_city(width=self.grid, height=self.grid, seed=self.seed).save(root / "city.json")

    def setup(self, root: Path):
        config = _config(self.seed)
        city_model = city.CityModel.load(root / "city.json")
        reference = ingest.read_csv(root / "reference.csv")
        graph = _build_graph(reference)
        chain = _chain(graph, config)
        _warm_up(chain, reference[0])
        profiles = mobility_sim.generate_profiles(
            self.n_agents, ingest.default_synthetic_spec(), self.seed
        )
        scheduler = mobility_sim.LlmScheduleProvider(chain.llm_provider, config.generation)
        plans = [
            mobility_sim.generate_schedule(profile, scheduler, self.seed + i)
            for i, profile in enumerate(profiles)
        ]
        return city_model, graph, config, profiles, plans

    def run(self, state) -> Pass:
        city_model, graph, config, profiles, plans = state
        chain = _chain(graph, config)
        # run_day moves the agents, so every pass starts from fresh ones.
        agents = mobility_sim.make_agents(profiles, city_model, self.seed)
        start = process_time()
        tally, trips = mobility_sim.run_day(agents, plans, city_model, chain, self.seed)
        seconds = process_time() - start
        # Conservation: the tallies count every traversal and visit the trips made.
        problems = []
        made = (
            (tally.total_edge_traversals(), sum(t.edge_count for t in trips), "edge"),
            (tally.total_visits(), sum(t.poi_id is not None for t in trips), "poi"),
        )
        for tallied, expected, what in made:
            if tallied != expected:
                problems.append(f"{what} tally sums to {tallied}, trips made {expected}")
        artefacts = {
            "edge_tally.csv": _text(tally.write_edge_csv),
            "poi_tally.csv": _text(tally.write_poi_csv),
        }
        return Pass(seconds, len(trips), artefacts, problems)

    expected_boundaries = (
        "ingest.read_csv",
        "behavior_graph.build_from_records",
        "retrieval.top_k_similar",
        "retrieval.extract_subgraph",
        "preference.prior_distribution",
        "llm_remodel.calibrate",
        "embedding.embed",
        "embedding.hash_embed",
        "pipeline.predict_all",
        "city.dijkstra",
        "city.search_pois",
        "city.shortest_path",
        "mobility_sim.TrafficTally.merge",
        "mobility_sim.simulate_agent",
        "mobility_sim.run_day",
    )


WORKLOADS = {cls.name: cls for cls in (EvalLargeRef, SweepSmallRef, CityDay)}
