"""Daily mobility loop: schedules, destination choice, tallies, conservation."""

import dataclasses
import hashlib
import io
import json
import math

import pytest

from preference_chain import city as city_module
from preference_chain.behavior_graph import GraphBuildConfig, build_from_records
from preference_chain.city import CityModel, grid_city, shortest_path
from preference_chain.errors import DataError, EmptySamples, ParseFailure, ProviderError, SchemaViolation
from preference_chain.ingest import default_synthetic_spec, generate_synthetic
from preference_chain.llm_remodel import GenerationParams, IdentityMockLlm, ScriptedMockLlm
from preference_chain.mobility_sim import (
    AgentState,
    DayPlan,
    LlmScheduleProvider,
    TrafficTally,
    TripLog,
    choose_mode_and_duration,
    flow_kld,
    generate_profiles,
    generate_schedule,
    make_agents,
    parse_schedule,
    poi_kld,
    run_day,
    select_poi,
    simulate_agent,
    template_plan,
)
from preference_chain.pipeline import PreferenceChain
from preference_chain.rng import substream
from preference_chain.schema import DURATION_BINS, PRIMARY_MODES
from tests.golden import EDGE_TALLY_PATH, POI_TALLY_PATH, golden_city, golden_run

INTENTIONS = ("primary_mode", "duration_minutes")
PARAMS = GenerationParams()


def empty_chain(llm=None):
    graph = build_from_records([], GraphBuildConfig(intention_fields=INTENTIONS))
    return PreferenceChain(graph, llm_provider=llm)


def reference_chain(llm=None, n=40, seed=0):
    records = generate_synthetic(default_synthetic_spec(), size=n, seed=seed)
    graph = build_from_records(records, GraphBuildConfig(intention_fields=INTENTIONS))
    return PreferenceChain(graph, llm_provider=llm)


class ExplodingLlm:
    provider_id = "mock-exploding"

    def complete(self, prompt, params):
        raise ProviderError("refused")


# ----------------------------------------------------------------------
# day plans
# ----------------------------------------------------------------------


def test_day_plan_accepts_increasing_hours():
    plan = DayPlan(((7, "work"), (12, "eat"), (18, "home")))
    assert plan.entries[0] == (7, "work")


def test_day_plan_rejects_bad_entries():
    with pytest.raises(SchemaViolation, match="start_time"):
        DayPlan(((24, "work"),))
    with pytest.raises(SchemaViolation, match="start_time"):
        DayPlan(((-1, "work"),))
    with pytest.raises(SchemaViolation, match="increase"):
        DayPlan(((9, "work"), (9, "eat")))
    with pytest.raises(SchemaViolation, match="increase"):
        DayPlan(((9, "work"), (8, "eat")))
    with pytest.raises(SchemaViolation, match="trip_purpose"):
        DayPlan(((9, "commute"),))
    with pytest.raises(SchemaViolation, match="start_time"):
        DayPlan(((9.5, "work"),))
    with pytest.raises(SchemaViolation, match="start_time"):
        DayPlan(((True, "work"),))


def test_day_plan_empty_is_valid():
    assert DayPlan(()).entries == ()


# ----------------------------------------------------------------------
# template schedules
# ----------------------------------------------------------------------


def _template(profile, seed):
    """The template plan ``generate_schedule`` falls back to for ``seed``."""
    return template_plan(profile, substream(seed, "schedule"))


def test_template_plan_employed_shape(profile):
    for seed in range(50):
        plan = template_plan(profile, substream(seed, "schedule"))
        purposes = [p for _, p in plan.entries]
        hours = [h for h, _ in plan.entries]
        assert purposes == ["work", "eat", "work", "home"]
        assert 7 <= hours[0] <= 9
        assert 11 <= hours[1] <= 13
        assert hours[2] == hours[1] + 1
        assert 16 <= hours[3] <= 19


def test_template_plan_under_16():
    from tests.conftest import make_profile

    child = make_profile(age_group="Under 18", employment_status="under_16")
    plan = template_plan(child, substream(0, "schedule"))
    purposes = [p for _, p in plan.entries]
    hours = [h for h, _ in plan.entries]
    assert purposes == ["school", "home"]
    assert 7 <= hours[0] <= 8
    assert 14 <= hours[1] <= 16


def test_template_plan_non_worker_outing():
    from tests.conftest import make_profile

    retiree = make_profile(age_group="65+", employment_status="not_in_labor_force")
    seen = set()
    for seed in range(30):
        plan = template_plan(retiree, substream(seed, "schedule"))
        (out_hour, out_purpose), (home_hour, home_purpose) = plan.entries
        assert out_purpose in ("shop", "social", "maintenance", "recreation")
        assert home_purpose == "home"
        assert 9 <= out_hour <= 13
        assert out_hour + 2 <= home_hour <= out_hour + 5
        seen.add(plan.entries)
    assert len(seen) > 3  # the rng actually varies the plan


def test_template_plan_deterministic(profile):
    a = template_plan(profile, substream(7, "schedule"))
    b = template_plan(profile, substream(7, "schedule"))
    assert a == b


# ----------------------------------------------------------------------
# schedule parsing
# ----------------------------------------------------------------------


def test_parse_schedule_plain_array():
    plan = parse_schedule('[{"hour": 8, "purpose": "work"}, {"hour": 17, "purpose": "home"}]')
    assert plan.entries == ((8, "work"), (17, "home"))


def test_parse_schedule_prose_wrapped():
    raw = 'Here is the plan:\n[{"hour": 9, "purpose": "shop"}]\nHave a nice day.'
    assert parse_schedule(raw).entries == ((9, "shop"),)


def test_parse_schedule_integral_float_hours():
    plan = parse_schedule('[{"hour": 8.0, "purpose": "work"}]')
    assert plan.entries == ((8, "work"),)
    assert isinstance(plan.entries[0][0], int)


def test_parse_schedule_skips_broken_then_uses_valid_array():
    raw = 'thinking [not json] then [{"hour": 10, "purpose": "eat"}]'
    assert parse_schedule(raw).entries == ((10, "eat"),)


def test_parse_schedule_failures():
    for raw in (
        "no arrays here",
        "[]",
        '[{"hour": 8.5, "purpose": "work"}]',
        '[{"hour": 8}]',
        '[{"purpose": "work"}]',
        '[{"hour": 9, "purpose": "work"}, {"hour": 9, "purpose": "eat"}]',
        '[{"hour": 9, "purpose": "work"}, {"hour": 8, "purpose": "eat"}]',
        '[{"hour": 25, "purpose": "work"}]',
        '[{"hour": true, "purpose": "work"}]',
        '[{"hour": 9, "purpose": "commute"}]',
        # the first non-empty array decides, even when a later one is valid
        '[] [{"hour": 25, "purpose": "work"}] [{"hour": 10, "purpose": "eat"}]',
    ):
        with pytest.raises(ParseFailure):
            parse_schedule(raw)


def test_llm_schedule_uses_valid_response(profile):
    llm = ScriptedMockLlm(['[{"hour": 6, "purpose": "work"}, {"hour": 20, "purpose": "home"}]'])
    plan = generate_schedule(profile, LlmScheduleProvider(llm), seed=0)
    assert plan.entries == ((6, "work"), (20, "home"))
    assert len(llm.calls) == 1


def test_llm_schedule_falls_back_on_garbage(profile):
    # no schedule at all, then entries that are not desires
    for raw in ("not a schedule", '[{"hour": 24, "purpose": "work"}]',
                '[{"hour": true, "purpose": "work"}]', '[{"hour": 9, "purpose": "commute"}]'):
        scripted = LlmScheduleProvider(ScriptedMockLlm([raw]))
        assert generate_schedule(profile, scripted, 3) == _template(profile, 3)


_NESTED_ARRAY = "[" * 1000 + "1" + "]" * 1000
_NESTED_OBJECT = '[{"hour": ' + '{"a":' * 1000 + "1" + "}" * 1000 + ', "purpose": "work"}]'


def test_parse_schedule_skips_blocks_nested_too_deep_to_decode():
    for raw in (_NESTED_ARRAY, _NESTED_OBJECT):
        with pytest.raises(ParseFailure):
            parse_schedule(raw)
    valid = '[{"hour": 10, "purpose": "eat"}]'
    assert parse_schedule(_NESTED_ARRAY + " then " + valid).entries == ((10, "eat"),)


def test_llm_schedule_falls_back_on_deeply_nested_replies(profile):
    for raw in (_NESTED_ARRAY, _NESTED_OBJECT):
        scripted = LlmScheduleProvider(ScriptedMockLlm([raw]))
        assert generate_schedule(profile, scripted, 3) == _template(profile, 3)


def test_llm_schedule_falls_back_on_provider_error(profile):
    exploding = LlmScheduleProvider(ExplodingLlm())
    assert generate_schedule(profile, exploding, 5) == _template(profile, 5)


def test_identity_mock_degrades_to_template(profile):
    # the identity mock answers "" to schedule prompts, so plans are template plans
    identity = LlmScheduleProvider(IdentityMockLlm())
    assert generate_schedule(profile, identity, 11) == _template(profile, 11)


def test_generate_schedule_deterministic_and_seed_sensitive():
    from tests.conftest import make_profile

    retiree = make_profile(employment_status="not_in_labor_force")
    provider = LlmScheduleProvider(IdentityMockLlm())
    assert generate_schedule(retiree, provider, 2) == generate_schedule(retiree, provider, 2)
    plans = {generate_schedule(retiree, provider, seed).entries for seed in range(10)}
    assert len(plans) > 1


# ----------------------------------------------------------------------
# population
# ----------------------------------------------------------------------


def test_generate_profiles_shape_and_validity():
    profiles = generate_profiles(25, default_synthetic_spec(), seed=0)
    assert len(profiles) == 25
    for p in profiles:
        dataclasses.replace(p)  # rebuilding runs the schema checks again


def test_generate_profiles_empty_and_deterministic():
    spec = default_synthetic_spec()
    assert generate_profiles(0, spec, seed=0) == []
    assert generate_profiles(10, spec, seed=3) == generate_profiles(10, spec, seed=3)
    assert generate_profiles(10, spec, seed=3) != generate_profiles(10, spec, seed=4)


def test_generate_profiles_match_marginals():
    profiles = generate_profiles(2000, default_synthetic_spec(), seed=1)
    employed = sum(p.employment_status == "employed" for p in profiles) / len(profiles)
    assert employed == pytest.approx(0.75, abs=0.03)


def test_make_agents_homes_and_ids():
    city = grid_city(width=6, height=6, pois_per_category=2, seed=0)
    profiles = generate_profiles(20, default_synthetic_spec(), seed=0)
    agents = make_agents(profiles, city, seed=0)
    assert [a.id for a in agents] == list(range(20))
    for agent in agents:
        assert agent.home in city.positions
        assert agent.node == agent.home
        assert agent.minute == 0
    assert make_agents(profiles, city, seed=0) == agents
    homes_other_seed = [a.home for a in make_agents(profiles, city, seed=1)]
    assert homes_other_seed != [a.home for a in agents]


def test_agent_trips_are_monotonic():
    city, agents, plans = _population()
    chain = reference_chain()
    for agent, plan in zip(agents, plans):
        _, trips = simulate_agent(agent, plan, city, chain, seed=4, context="")
        assert agent.trips == trips and len(trips) == len(plan.entries)
        starts = [t.start_minute for t in agent.trips]
        assert starts == sorted(starts)
    # a second day appends to the agent's trips and returns only its own
    agent, plan = agents[0], plans[0]
    first_day = list(agent.trips)
    _, trips = simulate_agent(agent, plan, city, chain, seed=4, context="")
    assert agent.trips == first_day + trips and len(trips) == len(plan.entries)
    starts = [t.start_minute for t in agent.trips]
    assert starts == sorted(starts)


# ----------------------------------------------------------------------
# per-trip choice
# ----------------------------------------------------------------------


def test_choose_mode_and_duration_sampling_frequencies(profile):
    # one scripted answer: valid for the mode choice set, unparseable for the
    # duration set, which therefore falls back to its uniform prior
    llm = ScriptedMockLlm(['{"walking": 0.7, "biking": 0.3}'])
    chain = empty_chain(llm)
    agent = AgentState(id=0, profile=profile, home=0, node=0)
    rng = substream(0, "choice-test")
    modes, durations = [], []
    for _ in range(100):
        mode, duration = choose_mode_and_duration(agent, "work", 8, chain, rng, "")
        modes.append(mode)
        durations.append(duration)
    share = modes.count("walking") / len(modes)
    assert set(modes) <= {"walking", "biking"}
    assert share == pytest.approx(0.7, abs=0.1)
    assert set(durations) == set(DURATION_BINS)  # uniform fallback covers all bins


def test_choose_mode_identity_mock_uses_uniform(profile):
    chain = empty_chain()
    agent = AgentState(id=0, profile=profile, home=0, node=0)
    rng = substream(1, "choice-test")
    modes = {choose_mode_and_duration(agent, "work", 8, chain, rng, "")[0] for _ in range(300)}
    assert modes == set(PRIMARY_MODES)


def test_select_poi_rules(profile):
    agent = AgentState(id=0, profile=profile, home=0, node=0)
    candidates = ["shop-near", "shop-far"]
    assert select_poi(candidates, agent, ScriptedMockLlm(["shop-far"]), PARAMS) == "shop-far"
    assert select_poi(candidates, agent, ScriptedMockLlm(["garbage"]), PARAMS) == "shop-near"
    assert select_poi(candidates, agent, ScriptedMockLlm(["go to shop-far or shop-near"]), PARAMS) == "shop-far"
    assert select_poi(candidates, agent, ExplodingLlm(), PARAMS) == "shop-near"
    assert select_poi(candidates, agent, IdentityMockLlm(), PARAMS) == "shop-near"
    with pytest.raises(ValueError):
        select_poi([], agent, IdentityMockLlm(), PARAMS)


def test_select_poi_matches_whole_ids(profile):
    agent = AgentState(id=0, profile=profile, home=0, node=0)
    candidates = [f"shop-{i}" for i in range(12)]
    assert select_poi(candidates, agent, ScriptedMockLlm(["shop-10"]), PARAMS) == "shop-10"
    assert select_poi(candidates, agent, ScriptedMockLlm(["go to shop-1."]), PARAMS) == "shop-1"
    assert select_poi(candidates, agent, ScriptedMockLlm(["shop-10 or shop-1"]), PARAMS) == "shop-10"
    assert select_poi(candidates, agent, ScriptedMockLlm(["shop-100"]), PARAMS) == "shop-0"


def test_select_poi_prompt_mentions_memory(profile):
    agent = AgentState(id=0, profile=profile, home=0, node=0)
    agent.trips.append(TripLog(0, 8, 480, "work", "walking", "0-10", 0, 7, 3, "work-0"))
    llm = ScriptedMockLlm(["shop-a"])
    select_poi(["shop-a"], agent, llm, GenerationParams())
    assert "work@7" in llm.calls[0]
    assert "shop-a" in llm.calls[0]


# ----------------------------------------------------------------------
# traffic tallies
# ----------------------------------------------------------------------


def test_tally_record_and_totals():
    tally = TrafficTally()
    tally.record_edge("0-1", 8)
    tally.record_edge("0-1", 8)
    tally.record_edge("1-2", 9, count=3)
    tally.record_visit("shop-0", 12)
    assert tally.edge_counts == {("0-1", 8): 2, ("1-2", 9): 3}
    assert tally.total_edge_traversals() == 5
    assert tally.total_visits() == 1


def test_tally_rejects_out_of_range_hours():
    """Every hour that ``schema.check_hour`` refuses, the int-like ones too."""
    tally = TrafficTally()
    for hour in (24, -1, True, 2.5, "8"):
        with pytest.raises(SchemaViolation, match="'hour'"):
            tally.record_edge("0-1", hour)
        with pytest.raises(SchemaViolation, match="'hour'"):
            tally.record_visit("shop-0", hour)
    assert tally.edge_counts == {} and tally.poi_counts == {}


def test_tally_of_every_hour_reads_back_equal():
    tally = TrafficTally()
    for hour in range(24):
        tally.record_edge("0-1", hour, count=hour + 1)
        tally.record_visit("shop-0", hour)
    edge_buf, poi_buf = io.StringIO(), io.StringIO()
    tally.write_edge_csv(edge_buf)
    tally.write_poi_csv(poi_buf)
    loaded = TrafficTally.from_csv(
        edge_fp=io.StringIO(edge_buf.getvalue()), poi_fp=io.StringIO(poi_buf.getvalue())
    )
    assert loaded == tally
    assert len(loaded.edge_counts) == len(loaded.poi_counts) == 24


def test_tally_merge_is_commutative_and_leaves_inputs_alone():
    a = TrafficTally({("0-1", 8): 2}, {("shop-0", 9): 1})
    b = TrafficTally({("0-1", 8): 1, ("1-2", 10): 4}, {})
    ab, ba = a.merge(b), b.merge(a)
    assert ab.edge_counts == ba.edge_counts == {("0-1", 8): 3, ("1-2", 10): 4}
    assert ab.poi_counts == ba.poi_counts == {("shop-0", 9): 1}
    assert a.edge_counts == {("0-1", 8): 2}  # merge returned a new tally
    assert b.edge_counts == {("0-1", 8): 1, ("1-2", 10): 4}
    a.add(b)  # the same sum, in place
    assert (a.edge_counts, a.poi_counts) == (ab.edge_counts, ab.poi_counts)
    assert b.edge_counts == {("0-1", 8): 1, ("1-2", 10): 4}


def test_tally_merge_is_associative():
    a = TrafficTally({("0-1", 8): 1}, {})
    b = TrafficTally({("0-1", 8): 2, ("1-2", 9): 1}, {("shop-0", 9): 2})
    c = TrafficTally({("1-2", 9): 5}, {("shop-0", 9): 1})
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.edge_counts == right.edge_counts
    assert left.poi_counts == right.poi_counts


def test_tally_csv_format_and_round_trip():
    tally = TrafficTally()
    tally.record_edge("0-1", 8, count=2)
    tally.record_edge("1-2", 9)
    tally.record_visit("shop-0", 12, count=3)
    edge_buf, poi_buf = io.StringIO(), io.StringIO()
    tally.write_edge_csv(edge_buf)
    tally.write_poi_csv(poi_buf)
    assert edge_buf.getvalue() == "edge,hour,count\n0-1,8,2\n1-2,9,1\n"
    assert poi_buf.getvalue() == "poi,hour,count\nshop-0,12,3\n"
    loaded = TrafficTally.from_csv(
        edge_fp=io.StringIO(edge_buf.getvalue()), poi_fp=io.StringIO(poi_buf.getvalue())
    )
    assert loaded.edge_counts == tally.edge_counts
    assert loaded.poi_counts == tally.poi_counts


def test_a_bad_tally_hour_names_its_line_and_no_row():
    edges = io.StringIO("edge,hour,count\n0-1,8,1\n0-1,24,1\n")
    with pytest.raises(DataError) as err:
        TrafficTally.from_csv(edge_fp=edges)
    assert str(err.value) == "edge tally line 3: SchemaViolation: column 'hour': invalid value '24'"
    assert err.value.__cause__.row == -1  # from no trip-CSV row


def test_flow_kld_identical_tallies_is_zero():
    tally = TrafficTally({("0-1", 8): 3, ("1-2", 9): 1}, {})
    assert flow_kld(tally, tally, epsilon=0.0) == pytest.approx(0.0, abs=1e-12)


def test_flow_kld_hand_oracle():
    reference = TrafficTally({("a", 8): 3, ("b", 9): 1}, {})
    sim = TrafficTally({("a", 10): 2, ("b", 11): 2}, {})
    # truth (0.75, 0.25) against model (0.5, 0.5), natural log
    expected = 0.75 * math.log(0.75 / 0.5) + 0.25 * math.log(0.25 / 0.5)
    assert flow_kld(sim, reference, epsilon=0.0) == pytest.approx(expected, abs=1e-12)
    # swapping the roles gives a different number: direction matters
    swapped = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert flow_kld(reference, sim, epsilon=0.0) == pytest.approx(swapped, abs=1e-12)


def test_flow_kld_union_axis_with_smoothing():
    reference = TrafficTally({("a", 8): 2, ("c", 8): 2}, {})
    sim = TrafficTally({("a", 8): 2, ("b", 8): 2}, {})
    value = flow_kld(sim, reference)  # default epsilon keeps this finite
    assert math.isfinite(value) and value > 0


def test_flow_kld_empty_tallies():
    with pytest.raises(EmptySamples):
        flow_kld(TrafficTally(), TrafficTally())
    with pytest.raises(EmptySamples):
        flow_kld(TrafficTally(), TrafficTally({("a", 8): 1}, {}))


def test_poi_kld_matches_same_math():
    reference = TrafficTally({}, {("shop-0", 9): 3, ("shop-1", 9): 1})
    sim = TrafficTally({}, {("shop-0", 12): 2, ("shop-1", 12): 2})
    expected = 0.75 * math.log(0.75 / 0.5) + 0.25 * math.log(0.25 / 0.5)
    assert poi_kld(sim, reference, epsilon=0.0) == pytest.approx(expected, abs=1e-12)


# ----------------------------------------------------------------------
# hand-traced day on a toy city
# ----------------------------------------------------------------------


def toy_city():
    """0 -- 1 -- 2 -- 3 in a line, 100 m per edge, one work POI at node 3."""
    city = CityModel()
    for i in range(4):
        city.add_node(i, i * 100.0, 0.0)
    for i in range(3):
        city.add_edge(i, i + 1, 100.0)
    city.add_poi("work-0", "work", 3)
    return city.validate()


def test_hand_traced_commute(profile):
    city = toy_city()
    agent = AgentState(id=0, profile=profile, home=0, node=0)
    plan = DayPlan(((8, "work"), (17, "home")))
    tally, trips = simulate_agent(agent, plan, city, empty_chain(), seed=0, context="")

    # out at 8 and back at 17, each over exactly the three line edges
    assert tally.edge_counts == {
        ("0-1", 8): 1, ("1-2", 8): 1, ("2-3", 8): 1,
        ("0-1", 17): 1, ("1-2", 17): 1, ("2-3", 17): 1,
    }
    assert tally.poi_counts == {("work-0", 8): 1}

    first, second = trips
    assert (first.agent_id, first.hour, first.start_minute) == (0, 8, 480)
    assert (first.purpose, first.origin, first.destination) == ("work", 0, 3)
    assert first.edge_count == 3 and first.poi_id == "work-0"
    assert (second.hour, second.start_minute) == (17, 1020)
    assert (second.purpose, second.origin, second.destination) == ("home", 3, 0)
    assert second.edge_count == 3 and second.poi_id is None
    assert agent.node == 0 and [t.poi_id for t in agent.trips] == ["work-0", None]


def test_home_trip_while_home_moves_nothing(profile):
    city = toy_city()
    agent = AgentState(id=0, profile=profile, home=2, node=2)
    tally, trips = simulate_agent(agent, DayPlan(((8, "home"),)), city, empty_chain(), seed=0, context="")
    assert tally.edge_counts == {} and tally.poi_counts == {}
    assert trips[0].edge_count == 0 and trips[0].poi_id is None
    assert agent.node == 2


def test_important_destination_is_remembered(profile):
    city = toy_city()
    city.add_poi("work-1", "work", 1)  # nearer to home than work-0
    agent = AgentState(id=0, profile=profile, home=0, node=0)
    # calls: 2 calibration ("") then one POI pick naming the farther POI
    llm = ScriptedMockLlm(["", "", "work-0"])
    chain = empty_chain(llm)
    plan = DayPlan(((8, "work"), (12, "work")))
    _, trips = simulate_agent(agent, plan, city, chain, seed=0, context="")
    assert trips[0].poi_id == "work-0"
    # second work trip reuses the remembered POI without consulting the LLM:
    # 2 calibration calls per trip + exactly one POI call overall
    assert trips[1].poi_id == "work-0" and trips[1].destination == 3
    assert trips[1].edge_count == 0
    assert len(llm.calls) == 5


def test_a_destination_out_of_range_falls_back_to_the_nearest_poi(profile):
    city = toy_city()
    city.add_node(4, 1e7, 0.0)
    city.add_edge(3, 4, 1e7)  # farther than any mode goes in its longest duration bin
    city.add_poi("shop-far", "shop", 4)
    agent = AgentState(id=0, profile=profile, home=0, node=0)
    _, trips = simulate_agent(agent, DayPlan(((8, "shop"),)), city, empty_chain(), seed=0, context="")
    assert (trips[0].poi_id, trips[0].destination) == ("shop-far", 4)


def test_late_arrival_pushes_next_start(profile):
    # walking 300 m at 80 m/min -> arrive 08:04; a 1-km city makes later
    # trips start at the scheduled hour anyway, so force an overlap instead
    city = toy_city()
    agent = AgentState(id=0, profile=profile, home=0, node=0)
    agent.minute = 9 * 60 + 30  # agent busy until 09:30
    plan = DayPlan(((9, "work"),))
    tally, trips = simulate_agent(agent, plan, city, empty_chain(), seed=0, context="")
    assert trips[0].start_minute == 570  # max(540, 570)
    assert trips[0].hour == 9
    assert set(tally.edge_counts) == {("0-1", 9), ("1-2", 9), ("2-3", 9)}


# ----------------------------------------------------------------------
# whole-population runs
# ----------------------------------------------------------------------


def _population(n_agents=6, seed=4):
    city = grid_city(width=5, height=5, pois_per_category=2, seed=9)
    profiles = generate_profiles(n_agents, default_synthetic_spec(), seed=1)
    agents = make_agents(profiles, city, seed=seed)
    plans = [_template(a.profile, seed + a.id) for a in agents]
    return city, agents, plans


def test_run_day_conserves_traversals():
    city, agents, plans = _population()
    chain = reference_chain()
    tally, trips = run_day(agents, plans, city, chain, seed=4)
    assert tally.total_edge_traversals() == sum(t.edge_count for t in trips)
    for trip in trips:
        _, path = shortest_path(city, trip.origin, trip.destination)
        assert trip.edge_count == len(path) - 1
    assert tally.total_visits() == sum(1 for t in trips if t.poi_id is not None)
    valid_edges = set(city.edge_ids())
    assert {edge for edge, _ in tally.edge_counts} <= valid_edges


def test_run_day_deterministic():
    chain = reference_chain()
    city, agents_a, plans = _population()
    tally_a, trips_a = run_day(agents_a, plans, city, chain, seed=4)
    _, agents_b, _ = _population()
    tally_b, trips_b = run_day(agents_b, plans, city, chain, seed=4)
    assert tally_a.edge_counts == tally_b.edge_counts
    assert tally_a.poi_counts == tally_b.poi_counts
    assert trips_a == trips_b


def test_run_day_equals_independent_agent_merge():
    chain = reference_chain()
    city, agents, plans = _population()
    total, _ = run_day(agents, plans, city, chain, seed=4)

    _, fresh, _ = _population()
    pieces = [simulate_agent(a, p, city, chain, seed=4, context="")[0] for a, p in zip(fresh, plans)]
    merged = TrafficTally()
    for piece in reversed(pieces):  # different fold order than run_day
        merged = piece.merge(merged)
    assert merged.edge_counts == total.edge_counts
    assert merged.poi_counts == total.poi_counts


def test_run_day_rejects_misaligned_inputs():
    city, agents, plans = _population()
    with pytest.raises(ValueError):
        run_day(agents, plans[:-1], city, reference_chain(), seed=0)


class RecordingIdentityLlm(IdentityMockLlm):
    """The identity mock, keeping every prompt it is sent."""

    def __init__(self):
        self.prompts = []

    def complete(self, prompt, params):
        self.prompts.append(prompt)
        return super().complete(prompt, params)


# sha256 of the golden day's POI prompts, joined by newlines: the text a
# remote LLM receives, including each agent's recent trips.
_GOLDEN_POI_PROMPTS_SHA256 = "83cc2fd7da00d1773fc232be59c3483c7d97365ad663b37d53a2f807535e5f03"


def test_golden_day_poi_prompts_are_pinned():
    llm = RecordingIdentityLlm()
    golden_run(llm_provider=llm)
    prompts = [p for p in llm.prompts if p.startswith("Pick the destination")]
    assert len(prompts) == 18
    assert any("Recently visited: work@" in p for p in prompts)
    digest = hashlib.sha256("\n".join(prompts).encode("utf-8")).hexdigest()
    assert digest == _GOLDEN_POI_PROMPTS_SHA256


def test_golden_day_routes_from_each_source_once(monkeypatch):
    """Full trees are rooted at POI nodes only, each computed once per city."""
    runs = []
    dijkstra = city_module.dijkstra

    def counted(city, source):
        runs.append(source)
        return dijkstra(city, source)

    monkeypatch.setattr(city_module, "dijkstra", counted)
    city = golden_city()
    poi_nodes = {poi.node for poi in city.pois.values()}
    for day in range(2):
        runs.clear()
        tally, _ = golden_run(city)
        edge_buffer, poi_buffer = io.StringIO(), io.StringIO()
        tally.write_edge_csv(edge_buffer)
        tally.write_poi_csv(poi_buffer)
        assert edge_buffer.getvalue().encode() == EDGE_TALLY_PATH.read_bytes()
        assert poi_buffer.getvalue().encode() == POI_TALLY_PATH.read_bytes()
        # day 0 reads the trees of 12 of the 17 POI nodes and routes from
        # other nodes without one; day 1 finds every tree it reads kept
        assert set(runs) <= poi_nodes
        assert len(runs) == len(set(runs)) == (12 if day == 0 else 0)


# sha256 of the edge and POI tallies of the golden day on the golden city
# with edge 2-3, its busiest, made 1 m longer: a mixed-length city, which the
# heap search routes and whose POI search reads the origin's own tree.
_MIXED_LENGTH_DAY_SHA256 = (
    "e7c67567504a37d768cf23b30b450f7efa1be0f3440d4ac3b4acce4ecc49e82a",
    "7ef7c2805b0df74d13855e63be6e060a2c7771f31c4c763011f8b7bc8b4e83b8",
)


def test_golden_day_on_a_mixed_length_city_is_pinned():
    buffer = io.StringIO()
    golden_city().to_json(buffer)
    snapshot = json.loads(buffer.getvalue())
    (edge,) = [e for e in snapshot["edges"] if (e["u"], e["v"]) == (2, 3)]
    edge["length"] += 1.0
    city = CityModel.from_json(io.StringIO(json.dumps(snapshot)))
    tally, _ = golden_run(city)
    digests = []
    for write in (tally.write_edge_csv, tally.write_poi_csv):
        buffer = io.StringIO()
        write(buffer)
        digests.append(hashlib.sha256(buffer.getvalue().encode()).hexdigest())
    assert tuple(digests) == _MIXED_LENGTH_DAY_SHA256
    assert city._trees.street_graph(city)[3] is None  # two lengths: the heap search
