import io
import math
import random

import numpy as np
import pytest

from preference_chain.behavior_graph import (
    BehaviorGraph,
    EdgeKind,
    GraphBuildConfig,
    NodeKind,
    build_from_records,
    temporal_proximity,
)
from preference_chain.errors import KindMismatch, SchemaViolation, UnknownNode, WeightOutOfRange
from preference_chain.ingest import default_synthetic_spec, generate_synthetic
from preference_chain.schema import (
    AGE_GROUPS,
    AVAILABLE_VEHICLES,
    DURATION_BINS,
    DURATION_SET,
    PRIMARY_MODE_SET,
    PRIMARY_MODES,
    TRIP_PURPOSES,
)

from tests.conftest import make_record


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
    # equal to a member, but not one: a snapshot could not write its kind
    with pytest.raises(KindMismatch):
        g.add_edge(p1, d, "want_to", 1.0)
    with pytest.raises(KindMismatch):
        g.add_node("Person", "p3")
    assert (g.node_count(), g.edge_count()) == (3, 0)
    g.dump_jsonl(io.StringIO())


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
    g.add_edge(p, d, EdgeKind.WANT_TO, 1)
    assert [e.weight for e in g.edges()] == [1]


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


def test_rebuild_is_identical():
    records = generate_synthetic(default_synthetic_spec(), size=30, seed=7)
    g1 = build_from_records(records)
    g2 = build_from_records(records)
    buf1, buf2 = io.StringIO(), io.StringIO()
    g1.dump_jsonl(buf1)
    g2.dump_jsonl(buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_snapshot_round_trip_bit_exact(tmp_path):
    records = generate_synthetic(default_synthetic_spec(), size=25, seed=9)
    g = build_from_records(
        records, GraphBuildConfig(intention_fields=("primary_mode", "duration_minutes"))
    )
    path1 = tmp_path / "graph.jsonl"
    path2 = tmp_path / "graph2.jsonl"
    g.save(path1)
    loaded = BehaviorGraph.load(path1)
    loaded.save(path2)
    assert path1.read_bytes() == path2.read_bytes()
    assert loaded.node_count() == g.node_count()
    assert loaded.edge_count() == g.edge_count()
    assert loaded.choice_sets.keys() == g.choice_sets.keys()
    intentions = loaded.nodes_of_kind(NodeKind.INTENTION)
    assert intentions == g.nodes_of_kind(NodeKind.INTENTION)
    assert any(
        (n.label, n.attributes) == (records[0].primary_mode, {"choice_set": "primary_mode"})
        for n in intentions
    )


def test_built_graphs_validate_and_survive_a_snapshot(tmp_path):
    rng = random.Random(5)
    path = tmp_path / "graph.jsonl"
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
            g = build_from_records(records, GraphBuildConfig(intention_fields=fields))
            assert g.validate() is g
            g.save(path)
            text = path.read_text(encoding="utf-8")
            BehaviorGraph.load(path).save(path)
            assert path.read_text(encoding="utf-8") == text


def test_choice_sets_match_schema():
    assert len(PRIMARY_MODE_SET) == 7
    assert len(DURATION_SET) == 6
