"""Agent-based daily mobility simulation on a synthetic city.

Each agent gets a day plan: desires (start hour, trip purpose) checked
like a trip record's, from ``template_plan`` or from the LLM with the
template as fallback (``LlmScheduleProvider``). Every entry runs the same
loop: choose mode and duration via the calibrated choice pipeline, search
POIs reachable in the implied travel-time budget, let the LLM pick one
(nearest on fallback), route along the shortest path (see
``city._TreeCache``), and tally edge traversals and POI visits. An agent's
trips are its memory: the POI prompt lists the latest ones, and a work or
school trip reuses the POI of the first earlier trip with that purpose.
Agents are simulated independently; see ``run_day``.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from typing import IO, Optional, Sequence

from .city import (
    CityModel,
    edge_id,
    nearest_poi,
    search_pois,
    shortest_path,
)
from .embedding import profile_to_text
from .errors import DataError, EmptySamples, ParseFailure, ProviderError, SchemaViolation
from .ingest import SyntheticSpec, draw_columns, profiles_from_columns
from .llm_remodel import GenerationParams, LlmProvider, json_blocks
from .metrics import DEFAULT_KLD_EPSILON, JointDistribution, kld
from .pipeline import PreferenceChain
from .retrieval import QueryAgent
from .rng import substream
from .schema import (
    HOURS,
    PROFILE_FIELDS,
    TRIP_PURPOSES,
    AgentProfile,
    ChoiceCategorySet,
    check_desire,
    check_hour,
)

# Purposes whose first chosen POI is reused all day.
IMPORTANT_PURPOSES = ("work", "school")


@dataclass
class AgentState:
    id: int
    profile: AgentProfile
    home: int
    node: int
    minute: int = 0
    trips: list[TripLog] = field(default_factory=list)


@dataclass(frozen=True)
class DayPlan:
    """Ordered (start hour, trip purpose) desires for one day, each checked by
    ``check_desire``; hours strictly increase. A bad entry raises SchemaViolation."""

    entries: tuple[tuple[int, str], ...]

    def __post_init__(self):
        last = -1
        for hour, purpose in self.entries:
            check_desire(purpose, hour)
            if hour <= last:
                raise SchemaViolation(-1, "start_time", hour, "plan hours must strictly increase")
            last = hour


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------


def template_plan(profile: AgentProfile, rng) -> DayPlan:
    """Deterministic-in-rng skeleton plan keyed on employment status."""
    status = profile.employment_status
    if status == "employed":
        work = 7 + int(rng.integers(0, 3))
        eat = 11 + int(rng.integers(0, 3))
        home = 16 + int(rng.integers(0, 4))
        entries = ((work, "work"), (eat, "eat"), (eat + 1, "work"), (home, "home"))
    elif status == "under_16":
        school = 7 + int(rng.integers(0, 2))
        home = 14 + int(rng.integers(0, 3))
        entries = ((school, "school"), (home, "home"))
    else:
        purposes = ("shop", "social", "maintenance", "recreation")
        purpose = purposes[int(rng.integers(0, len(purposes)))]
        out = 9 + int(rng.integers(0, 5))
        home = out + 2 + int(rng.integers(0, 4))
        entries = ((out, purpose), (home, "home"))
    return DayPlan(entries)


def schedule_prompt(profile: AgentProfile) -> str:
    return "\n".join(
        [
            "Plan one day of trips for a person.",
            f"Profile: {profile_to_text(profile)}",
            f"Allowed purposes: {', '.join(TRIP_PURPOSES)}",
            'Reply with a JSON array of {"hour": 0-23, "purpose": ...} entries '
            "with strictly increasing hours.",
        ]
    )


def parse_schedule(raw: str) -> DayPlan:
    """First JSON array of {"hour", "purpose"} entries, validated as a plan."""
    for obj in json_blocks(raw, "[]"):
        if not obj:
            continue
        entries = []
        try:
            for item in obj:
                hour = item["hour"]
                if isinstance(hour, float) and hour.is_integer():
                    hour = int(hour)
                entries.append((hour, item["purpose"]))
            return DayPlan(tuple(entries))
        except (TypeError, KeyError, SchemaViolation) as exc:
            raise ParseFailure(f"schedule entries invalid: {exc}") from exc
    raise ParseFailure("no JSON array found in schedule response")


class LlmScheduleProvider:
    """Asks the LLM for a plan; any failure falls back to the template."""

    def __init__(self, llm: LlmProvider, params: GenerationParams = GenerationParams()):
        self.llm = llm
        self.params = params

    def plan(self, profile: AgentProfile, rng) -> DayPlan:
        try:
            raw = self.llm.complete(schedule_prompt(profile), self.params)
            return parse_schedule(raw)
        except (ProviderError, ParseFailure):
            return template_plan(profile, rng)


def generate_schedule(profile: AgentProfile, provider: LlmScheduleProvider, seed: int) -> DayPlan:
    return provider.plan(profile, substream(seed, "schedule"))


# ----------------------------------------------------------------------
# Population
# ----------------------------------------------------------------------


def generate_profiles(n: int, spec: SyntheticSpec, seed: int) -> list[AgentProfile]:
    """Profile-only sampling from the spec's marginals."""
    return profiles_from_columns(draw_columns(substream(seed, "profiles"), spec, PROFILE_FIELDS, n))


def make_agents(profiles: Sequence[AgentProfile], city: CityModel, seed: int) -> list[AgentState]:
    """Agents with seeded random home nodes, ids 0..n-1."""
    nodes = sorted(city.positions)
    rng = substream(seed, "homes")
    agents = []
    for i, profile in enumerate(profiles):
        home = nodes[int(rng.integers(0, len(nodes)))]
        agents.append(AgentState(id=i, profile=profile, home=home, node=home))
    return agents


# ----------------------------------------------------------------------
# Choice + POI selection
# ----------------------------------------------------------------------


def choose_mode_and_duration(
    agent: AgentState,
    purpose: str,
    hour: int,
    chain: PreferenceChain,
    rng,
    context: str = "",
) -> tuple[str, str]:
    """Sample mode then duration from the calibrated posteriors."""
    results = chain.predict_all(QueryAgent(agent.profile, purpose, hour, context))
    mode = results["primary_mode"].posterior.sample(rng)
    duration = results["duration_minutes"].posterior.sample(rng)
    return mode, duration


def poi_prompt(candidates: Sequence[str], agent: AgentState) -> str:
    visited = ", ".join(f"{t.purpose}@{t.destination}" for t in agent.trips[-5:]) or "nothing yet"
    return "\n".join(
        [
            "Pick the destination this person would choose.",
            f"Recently visited: {visited}",
            f"Candidates (nearest first): {', '.join(candidates)}",
            "Reply with exactly one candidate id.",
        ]
    )


def select_poi(
    candidates: Sequence[str],
    agent: AgentState,
    provider: LlmProvider,
    params: GenerationParams = GenerationParams(),
) -> str:
    """Provider choice constrained to the candidates; nearest on fallback."""
    if not candidates:
        raise ValueError("candidates must be non-empty")
    try:
        raw = provider.complete(poi_prompt(candidates, agent), params)
    except ProviderError:
        return candidates[0]
    # The first whole candidate id in the reply: "shop-10" does not name "shop-1".
    named = []
    for c in candidates:
        if c in raw:
            found = re.search(rf"(?<![\w-]){re.escape(c)}(?![\w-])", raw)
            if found:
                named.append((found.start(), c))
    return min(named)[1] if named else candidates[0]


# ----------------------------------------------------------------------
# Tallies
# ----------------------------------------------------------------------


def _count(counts: dict[tuple[str, int], int], key: str, hour: int, count: int) -> None:
    check_hour("hour", hour)
    counts[key, hour] = counts.get((key, hour), 0) + count


def _write_counts(fp: IO[str], column: str, counts: dict[tuple[str, int], int]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow([column, "hour", "count"])
    for key, hour in sorted(counts):
        writer.writerow([key, hour, counts[key, hour]])


@dataclass
class TrafficTally:
    """Per-hour traversal counts by street edge and visit counts by POI.

    An hour that ``schema.check_hour`` refuses (24, ``True``, ``2.5``, ``"8"``)
    raises SchemaViolation, so ``from_csv`` reads back what the writers write.
    """

    edge_counts: dict[tuple[str, int], int] = field(default_factory=dict)
    poi_counts: dict[tuple[str, int], int] = field(default_factory=dict)

    def record_edge(self, edge: str, hour: int, count: int = 1) -> None:
        _count(self.edge_counts, edge, hour, count)

    def record_visit(self, poi: str, hour: int, count: int = 1) -> None:
        _count(self.poi_counts, poi, hour, count)

    def add(self, other: "TrafficTally") -> None:
        """Add ``other``'s counts to this tally in place."""
        for (edge, hour), count in other.edge_counts.items():
            self.record_edge(edge, hour, count)
        for (poi, hour), count in other.poi_counts.items():
            self.record_visit(poi, hour, count)

    def merge(self, other: "TrafficTally") -> "TrafficTally":
        """Commutative element-wise sum, returned as a new tally."""
        merged = TrafficTally(dict(self.edge_counts), dict(self.poi_counts))
        merged.add(other)
        return merged

    def total_edge_traversals(self) -> int:
        return sum(self.edge_counts.values())

    def total_visits(self) -> int:
        return sum(self.poi_counts.values())

    def write_edge_csv(self, fp: IO[str]) -> None:
        _write_counts(fp, "edge", self.edge_counts)

    def write_poi_csv(self, fp: IO[str]) -> None:
        _write_counts(fp, "poi", self.poi_counts)

    @classmethod
    def from_csv(cls, edge_fp: Optional[IO[str]] = None, poi_fp: Optional[IO[str]] = None) -> "TrafficTally":
        """Read tally CSVs; a missing column or cell, or a stripped hour or count that is
        not a key of ``HOURS`` or not ASCII digits, raises DataError."""
        tally = cls()
        for fp, key, record in ((edge_fp, "edge", tally.record_edge), (poi_fp, "poi", tally.record_visit)):
            if fp is None:
                continue
            reader = csv.DictReader(fp)
            try:
                for row in reader:
                    if None in row.values():
                        raise ValueError("a cell is missing")
                    hour, count = row["hour"].strip(), row["count"].strip()
                    if not (count.isascii() and count.isdigit()):
                        raise ValueError(f"count {count!r} is not a string of digits")
                    record(row[key], HOURS.get(hour, hour), int(count))  # text fails check_hour
            except (KeyError, ValueError, SchemaViolation, csv.Error) as exc:  # missing columns too
                raise DataError(
                    f"{key} tally line {reader.line_num}: {type(exc).__name__}: {exc}"
                ) from exc
        return tally


def _hour_summed(counts: dict[tuple[str, int], int]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for (key, _hour), count in counts.items():
        totals[key] = totals.get(key, 0) + count
    return totals


def _tally_kld(
    true_counts: dict[str, int], sim_counts: dict[str, int], axis_name: str, epsilon: float
) -> float:
    keys = tuple(sorted(set(true_counts) | set(sim_counts)))
    if not keys:
        raise EmptySamples("both tallies are empty")
    choices = ChoiceCategorySet(axis_name, keys)
    def joint(counts):
        total = sum(counts.values())
        if total == 0:
            raise EmptySamples(f"{axis_name} tally has zero total")
        cells = [[counts.get(k, 0) / total for k in keys]]
        return JointDistribution(("all",), choices, cells)
    return kld(joint(true_counts), joint(sim_counts), epsilon)


def flow_kld(sim: TrafficTally, reference: TrafficTally, epsilon: float = DEFAULT_KLD_EPSILON) -> float:
    """KLD of the hour-summed edge-flow distribution, reference as truth."""
    return _tally_kld(
        _hour_summed(reference.edge_counts), _hour_summed(sim.edge_counts), "edge", epsilon
    )


def poi_kld(sim: TrafficTally, reference: TrafficTally, epsilon: float = DEFAULT_KLD_EPSILON) -> float:
    """KLD of the hour-summed POI-visit distribution, reference as truth."""
    return _tally_kld(
        _hour_summed(reference.poi_counts), _hour_summed(sim.poi_counts), "poi", epsilon
    )


# ----------------------------------------------------------------------
# Day loop
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TripLog:
    agent_id: int
    hour: int  # tally bucket = hour the trip actually starts
    start_minute: int
    purpose: str
    mode: str
    duration_bin: str
    origin: int
    destination: int
    edge_count: int
    poi_id: Optional[str]


def _resolve_destination(
    city: CityModel,
    agent: AgentState,
    purpose: str,
    mode: str,
    duration_bin: str,
    provider: LlmProvider,
    params: GenerationParams,
) -> tuple[int, Optional[str]]:
    if purpose == "home":
        return agent.home, None
    if purpose in IMPORTANT_PURPOSES:
        for trip in agent.trips:
            if trip.purpose == purpose:
                return trip.destination, trip.poi_id
    candidates = search_pois(city, agent.node, purpose, mode, duration_bin)
    if not candidates:
        candidates = [nearest_poi(city, agent.node, purpose)]
    poi_id = select_poi(candidates, agent, provider, params)
    return city.pois[poi_id].node, poi_id


def simulate_agent(
    agent: AgentState,
    plan: DayPlan,
    city: CityModel,
    chain: PreferenceChain,
    seed: int,
    context: str = "",
) -> tuple[TrafficTally, list[TripLog]]:
    """One agent's whole day, appended to ``agent.trips``; owns the agent's substream."""
    rng = substream(seed, "agent", agent.id)
    tally = TrafficTally()
    first = len(agent.trips)
    for hour, purpose in plan.entries:
        mode, duration = choose_mode_and_duration(agent, purpose, hour, chain, rng, context)
        destination, poi_id = _resolve_destination(
            city, agent, purpose, mode, duration, chain.llm_provider, chain.config.generation
        )
        start = max(hour * 60, agent.minute)
        bucket = min(23, start // 60)
        distance, path = shortest_path(city, agent.node, destination)
        for u, v in zip(path, path[1:]):
            tally.record_edge(edge_id(u, v), bucket)
        arrival = start + int(round(distance / city.speed(mode)))
        agent.node = destination
        agent.minute = arrival
        if poi_id is not None:
            tally.record_visit(poi_id, min(23, arrival // 60))
        agent.trips.append(
            TripLog(
                agent.id, bucket, start, purpose, mode, duration,
                path[0], destination, len(path) - 1, poi_id,
            )
        )
    return tally, agent.trips[first:]


def run_day(
    agents: Sequence[AgentState],
    plans: Sequence[DayPlan],
    city: CityModel,
    chain: PreferenceChain,
    seed: int,
    context: str = "",
) -> tuple[TrafficTally, list[TripLog]]:
    """Simulate every agent and merge the tallies.

    Agents are independent; the merge is associative and commutative, so
    any partition of the agent list yields the same total tally.
    """
    if len(agents) != len(plans):
        raise ValueError("agents and plans must align")
    total = TrafficTally()
    all_trips: list[TripLog] = []
    for agent, plan in zip(agents, plans):
        tally, trips = simulate_agent(agent, plan, city, chain, seed, context)
        total = total.merge(tally)
        all_trips.extend(trips)
    return total, all_trips
