import gc
import math
import random

import numpy as np
import pytest

from preference_chain.behavior_graph import (
    BehaviorGraph,
    Edge,
    EdgeKind,
    GraphBuildConfig,
    NodeKind,
    build_from_records,
    desire_text,
    temporal_proximity,
)
from preference_chain.embedding import profile_to_text
from preference_chain.errors import KindMismatch, SchemaViolation, UnknownNode, WeightOutOfRange
from preference_chain.ingest import default_synthetic_spec, generate_synthetic, read_csv, write_csv
from preference_chain.schema import (
    AGE_GROUPS,
    AVAILABLE_VEHICLES,
    BUNDLED_CHOICE_SETS,
    DURATION_BINS,
    DURATION_SET,
    PRIMARY_MODE_SET,
    PRIMARY_MODES,
    TRIP_PURPOSES,
)

from tests.conftest import make_record
from tests.golden import DATA_DIR


def test_add_node_assigns_monotonic_ids():
    g = BehaviorGraph()
    first = g.add_node(NodeKind.PERSON, "age 25-34, income $50k-$100k")
    second = g.add_node(NodeKind.INTENTION, "walking")
    assert (first, second) == (0, 1)


def test_add_node_rejects_empty_label():
    g = BehaviorGraph()
    with pytest.raises(ValueError):
        g.add_node(NodeKind.AGENT, "")


def test_add_edge_valid_chain():
    g = BehaviorGraph()
    p = g.add_node(NodeKind.PERSON, "p")
    d = g.add_node(NodeKind.DESIRE, "d")
    i = g.add_node(NodeKind.INTENTION, "walking")
    g.add_edge(p, d, EdgeKind.WANT_TO, 0.7)
    g.add_edge(d, i, EdgeKind.CHOOSE_TO, 0.7)
    assert g.edge_count() == 2


def test_add_edge_weight_out_of_range():
    g = BehaviorGraph()
    p = g.add_node(NodeKind.PERSON, "p")
    d = g.add_node(NodeKind.DESIRE, "d")
    with pytest.raises(WeightOutOfRange):
        g.add_edge(p, d, EdgeKind.WANT_TO, 1.2)


def test_add_edge_kind_discipline():
    g = BehaviorGraph()
    p1 = g.add_node(NodeKind.PERSON, "p1")
    p2 = g.add_node(NodeKind.PERSON, "p2")
    d = g.add_node(NodeKind.DESIRE, "d")
    with pytest.raises(KindMismatch):
        g.add_edge(p1, p2, EdgeKind.SIMILAR_TO, 0.5)
    # equal to a member, but not one
    with pytest.raises(KindMismatch):
        g.add_edge(p1, d, "want_to", 1.0)
    with pytest.raises(KindMismatch):
        g.add_node("Person", "p3")
    assert (g.node_count(), g.edge_count()) == (3, 0)


def test_agent_edges_belong_to_a_query_subgraph_only():
    g = BehaviorGraph()
    agent = g.add_node(NodeKind.AGENT, "agent")
    p = g.add_node(NodeKind.PERSON, "p")
    d = g.add_node(NodeKind.DESIRE, "d")
    with pytest.raises(KindMismatch):
        g.add_edge(agent, p, EdgeKind.SIMILAR_TO, 0.5)
    with pytest.raises(KindMismatch):
        g.add_edge(agent, d, EdgeKind.WANT_TO, 1.0)
    assert g.edge_count() == 0


def test_add_edge_unknown_node():
    g = BehaviorGraph()
    p = g.add_node(NodeKind.PERSON, "p")
    with pytest.raises(UnknownNode):
        g.add_edge(p, 99, EdgeKind.WANT_TO, 0.5)
    # an unknown node is reported before a bad weight, a bad weight before a bad kind pair
    with pytest.raises(UnknownNode):
        g.add_edge(-1, p, EdgeKind.SIMILAR_TO, 1.5)
    with pytest.raises(WeightOutOfRange):
        g.add_edge(p, p, EdgeKind.CHOOSE_TO, 1.5)


def test_node_ids_and_edge_weights_are_numbers_not_booleans():
    g = BehaviorGraph()
    p = g.add_node(NodeKind.PERSON, "p")
    d = g.add_node(NodeKind.DESIRE, "d")
    for node_id in (False, True, 0.0):
        with pytest.raises(UnknownNode):
            g.node(node_id)
        with pytest.raises(UnknownNode):
            g.add_edge(node_id, d, EdgeKind.WANT_TO, 0.5)
    for weight in (True, False, "0.5", None, math.nan, 10**400):
        with pytest.raises(WeightOutOfRange):
            g.add_edge(p, d, EdgeKind.WANT_TO, weight)
    q = g.add_node(NodeKind.PERSON, "q")
    g.add_edge(p, q, EdgeKind.RELATIVE_OF, 1)
    assert [e.weight for e in g.edges()] == [1]
    assert type(next(g.edges()).weight) is int


def test_edges_are_read_from_typed_lists_in_source_then_kind_order():
    g = BehaviorGraph()
    p, q = g.add_node(NodeKind.PERSON, "p"), g.add_node(NodeKind.PERSON, "q")
    d = g.add_node(NodeKind.DESIRE, "d", start_time=8)
    i = g.add_node(NodeKind.INTENTION, "walking", choice_set="primary_mode")
    g.add_edge(d, i, EdgeKind.CHOOSE_TO, 0.25)
    g.add_edge(p, q, EdgeKind.RELATIVE_OF, 0.5)
    g.add_edge(p, d, EdgeKind.WANT_TO, 0.75)
    g.add_edge(p, d, EdgeKind.WANT_TO, 1.0)  # parallel edges are kept
    assert g.desires == [[d, d], (), (), ()]
    assert g.relatives == [[(q, 0.5)], (), (), ()]
    assert g.intentions == [(), (), [i], ()]
    # want_to and choose_to weights are query-time values: edges() reports placeholders
    assert list(g.edges()) == [
        Edge(p, d, EdgeKind.WANT_TO, 1.0),
        Edge(p, d, EdgeKind.WANT_TO, 1.0),
        Edge(p, q, EdgeKind.RELATIVE_OF, 0.5),
        Edge(d, i, EdgeKind.CHOOSE_TO, 1.0),
    ]
    assert g.edge_count() == 4


def _live_edges() -> int:
    gc.collect()
    return sum(isinstance(obj, Edge) for obj in gc.get_objects())


def test_a_built_graph_holds_no_edge_objects_and_slotted_nodes():
    records = generate_synthetic(default_synthetic_spec(), size=60, seed=4)
    records[1] = make_record(profile=records[1].profile, household_id="h")
    records[2] = make_record(profile=records[2].profile, household_id="h")
    before = _live_edges()
    g = build_from_records(records)
    assert _live_edges() == before
    assert g.edge_count() == len(list(g.edges())) > len(records)
    assert {e.kind for e in g.edges()} == {EdgeKind.WANT_TO, EdgeKind.RELATIVE_OF, EdgeKind.CHOOSE_TO}
    assert not any(hasattr(node, "__dict__") for node in g.nodes)


def test_temporal_proximity_bounds_and_symmetry():
    assert temporal_proximity(8, 8) == 1.0
    assert temporal_proximity(0, 12) == pytest.approx(math.exp(-12 / 4.0))
    # circular: 23 and 1 are two hours apart
    assert temporal_proximity(23, 1) == pytest.approx(math.exp(-2 / 4.0))
    for a in range(24):
        for b in range(24):
            w = temporal_proximity(a, b)
            assert 0.0 < w <= 1.0
            assert w == temporal_proximity(b, a)


# ----------------------------------------------------------------------
# build_from_records
# ----------------------------------------------------------------------


def test_build_dedups_persons_and_splits_desires():
    records = [
        make_record(trip_purpose="work", start_time=8),
        make_record(trip_purpose="shop", start_time=17),
    ]
    g = build_from_records(records, GraphBuildConfig(intention_fields=("primary_mode",)))
    persons = g.nodes_of_kind(NodeKind.PERSON)
    desires = g.nodes_of_kind(NodeKind.DESIRE)
    choose = [e for e in g.edges() if e.kind == EdgeKind.CHOOSE_TO]
    assert len(persons) == 1
    assert len(desires) == 2
    assert len(choose) == 2


def test_build_config_rejects_an_unknown_intention_field():
    with pytest.raises(ValueError, match="unknown intention field 'weather'"):
        GraphBuildConfig(intention_fields=("weather",))


def test_build_rejects_a_boolean_start_time():
    with pytest.raises(SchemaViolation, match="start_time"):
        build_from_records([make_record(start_time=True)])


def test_build_empty_records_registers_choice_sets():
    g = build_from_records([])
    assert g.nodes_of_kind(NodeKind.PERSON) == []
    assert set(g.choice_sets) == {"primary_mode", "duration_minutes"}


def test_build_both_intention_fields_doubles_choose_edges():
    records = [make_record(), make_record(trip_purpose="eat", start_time=12)]
    config = GraphBuildConfig(intention_fields=("primary_mode", "duration_minutes"))
    g = build_from_records(records, config)
    choose = [e for e in g.edges() if e.kind == EdgeKind.CHOOSE_TO]
    assert len(choose) == 4


def test_build_household_links_create_relative_edges():
    records = [
        make_record(household_id="h1", age_group="25-34"),
        make_record(household_id="h1", age_group="55-64"),
        make_record(household_id="h2", age_group="18-24"),
    ]
    g = build_from_records(records)
    rel = [e for e in g.edges() if e.kind == EdgeKind.RELATIVE_OF]
    assert len(rel) == 2  # both directions within h1 only
    assert all(e.weight == 1.0 for e in rel)


def _counting_oracle(records, intention_fields):
    """Expected node/edge counts computed directly from the record list."""
    persons = {r.profile for r in records}
    desires = {(r.profile, r.trip_purpose, r.start_time) for r in records}
    intentions = {
        (f, getattr(r, f)) for r in records for f in intention_fields
    }
    households = {}
    for r in records:
        if r.household_id is not None:
            households.setdefault(r.household_id, set()).add(r.profile)
    rel_edges = sum(len(m) * (len(m) - 1) for m in households.values())
    return {
        "persons": len(persons),
        "desires": len(desires),
        "intentions": len(intentions),
        "want_edges": len(desires),
        "choose_edges": len(records) * len(intention_fields),
        "rel_edges": rel_edges,
    }


def test_build_counts_match_counting_oracle_on_synthetic():
    records = generate_synthetic(default_synthetic_spec(), size=50, seed=3)
    fields = ("primary_mode", "duration_minutes")
    g = build_from_records(records, GraphBuildConfig(intention_fields=fields))
    expected = _counting_oracle(records, fields)
    assert len(g.nodes_of_kind(NodeKind.PERSON)) == expected["persons"]
    assert len(g.nodes_of_kind(NodeKind.DESIRE)) == expected["desires"]
    assert len(g.nodes_of_kind(NodeKind.INTENTION)) == expected["intentions"]
    by_kind = {}
    for e in g.edges():
        by_kind[e.kind] = by_kind.get(e.kind, 0) + 1
    assert by_kind.get(EdgeKind.WANT_TO, 0) == expected["want_edges"]
    assert by_kind.get(EdgeKind.CHOOSE_TO, 0) == expected["choose_edges"]
    assert by_kind.get(EdgeKind.RELATIVE_OF, 0) == expected["rel_edges"]
    assert expected["persons"] <= 50
    assert all(0.0 <= e.weight <= 1.0 for e in g.edges())


def test_build_weights_in_range_over_random_record_sets():
    rng = np.random.default_rng(11)
    spec = default_synthetic_spec()
    for trial in range(10):
        n = int(rng.integers(1, 40))
        records = generate_synthetic(spec, size=n, seed=100 + trial)
        g = build_from_records(records)
        assert all(0.0 <= e.weight <= 1.0 for e in g.edges())
        for e in g.edges():
            src, dst = g.node(e.source).kind, g.node(e.target).kind
            if e.kind == EdgeKind.WANT_TO:
                assert (src, dst) == (NodeKind.PERSON, NodeKind.DESIRE)
            elif e.kind == EdgeKind.CHOOSE_TO:
                assert (src, dst) == (NodeKind.DESIRE, NodeKind.INTENTION)


def _plain_build(records, fields):
    """``build_from_records`` written with plain ``add_node``/``add_edge`` calls: the oracle."""
    graph = BehaviorGraph()
    persons, desires, intentions, households = {}, {}, {}, {}
    for record in records:
        if record.profile not in persons:
            persons[record.profile] = graph.add_node(NodeKind.PERSON, profile_to_text(record.profile))
        person = persons[record.profile]
        if record.household_id is not None:
            households.setdefault(record.household_id, set()).add(person)
        key = (person, record.trip_purpose, record.start_time)
        if key not in desires:
            desires[key] = graph.add_node(
                NodeKind.DESIRE, desire_text(*key[1:]), start_time=record.start_time
            )
            graph.add_edge(person, desires[key], EdgeKind.WANT_TO, 1.0)
        for name in fields:
            option = (name, getattr(record, name))
            if option not in intentions:
                intentions[option] = graph.add_node(NodeKind.INTENTION, option[1], choice_set=name)
            graph.add_edge(desires[key], intentions[option], EdgeKind.CHOOSE_TO, 1.0)
    for members in households.values():
        for a in sorted(members):
            for b in sorted(members):
                if a != b:
                    graph.add_edge(a, b, EdgeKind.RELATIVE_OF, 1.0)
    return graph


@pytest.mark.parametrize("source", [200, 1000, 5000, "predict_reference_households.csv"])
def test_build_equals_a_plain_add_node_add_edge_build(tmp_path, source):
    """On ``gen-synth`` sets and the household fixture, read back from their CSV files."""
    path = DATA_DIR / source if isinstance(source, str) else tmp_path / "trips.csv"
    if isinstance(source, int):
        write_csv(generate_synthetic(default_synthetic_spec(), size=source, seed=0), path)
    records = read_csv(path)
    for fields in (("primary_mode",), ("primary_mode", "duration_minutes")):
        built = build_from_records(records, GraphBuildConfig(intention_fields=fields))
        plain = _plain_build(records, fields)
        assert built.nodes == plain.nodes
        assert list(built.edges()) == list(plain.edges())
        assert built.edge_count() == plain.edge_count()


def test_rebuild_is_identical():
    records = generate_synthetic(default_synthetic_spec(), size=30, seed=7)
    g1 = build_from_records(records)
    g2 = build_from_records(records)
    assert g1.nodes == g2.nodes
    assert list(g1.edges()) == list(g2.edges())


def _rebuilt_from_csv(records, config, path):
    """The graph built from ``records`` after a ``write_csv``/``read_csv`` round trip."""
    write_csv(records, path)
    return build_from_records(read_csv(path), config)


def _same_graph(a, b) -> bool:
    return a.nodes == b.nodes and list(a.edges()) == list(b.edges())


def test_snapshot_round_trip_bit_exact(tmp_path):
    records = generate_synthetic(default_synthetic_spec(), size=25, seed=9)
    config = GraphBuildConfig(intention_fields=("primary_mode", "duration_minutes"))
    g = build_from_records(records, config)
    loaded = _rebuilt_from_csv(records, config, tmp_path / "graph.csv")
    assert _same_graph(loaded, g)
    intentions = loaded.nodes_of_kind(NodeKind.INTENTION)
    assert any(
        (n.label, n.choice_set, n.start_time) == (records[0].primary_mode, "primary_mode", None)
        for n in intentions
    )


def test_built_graphs_validate_and_survive_a_snapshot(tmp_path):
    rng = random.Random(5)
    path = tmp_path / "graph.csv"
    for _ in range(40):
        records = [
            make_record(
                trip_purpose=rng.choice(TRIP_PURPOSES),
                start_time=rng.randrange(24),
                primary_mode=rng.choice(PRIMARY_MODES),
                duration_minutes=rng.choice(DURATION_BINS),
                household_id=rng.choice((None, "h1", "h2", "h3")),
                age_group=rng.choice(AGE_GROUPS[:3]),
                available_vehicles=rng.choice(AVAILABLE_VEHICLES[:2]),
            )
            for _ in range(rng.randrange(30))
        ]
        for fields in (("primary_mode",), ("primary_mode", "duration_minutes")):
            config = GraphBuildConfig(intention_fields=fields)
            g = build_from_records(records, config)
            # each node states what its records say: the rules a stored graph once checked
            profiles = list(dict.fromkeys(record.profile for record in records))
            persons = g.nodes_of_kind(NodeKind.PERSON)
            assert [p.label for p in persons] == [profile_to_text(p) for p in profiles]
            desires = {desire_text(r.trip_purpose, r.start_time): r.start_time for r in records}
            options = set()
            for node in g.nodes:
                if node.kind == NodeKind.PERSON:
                    assert (node.choice_set, node.start_time) == (None, None)
                elif node.kind == NodeKind.DESIRE:
                    assert type(node.start_time) is int and node.choice_set is None
                    assert desires[node.label] == node.start_time
                else:
                    option = (node.choice_set, node.label)
                    assert option[1] in g.choice_sets[option[0]] and option not in options
                    assert node.start_time is None
                    options.add(option)
            assert _same_graph(_rebuilt_from_csv(records, config, path), g)


def test_choice_sets_match_schema():
    assert len(PRIMARY_MODE_SET) == 7
    assert len(DURATION_SET) == 6


def test_every_graph_reads_the_schema_choice_sets():
    g = BehaviorGraph()
    assert g.choice_sets == BUNDLED_CHOICE_SETS
    assert list(g.choice_sets) == ["primary_mode", "duration_minutes"]
    with pytest.raises(TypeError):
        g.choice_sets["weather"] = PRIMARY_MODE_SET
    assert "choice_sets" not in vars(g)  # no per-graph copy
