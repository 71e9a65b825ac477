"""Weighted directed behavior graph over Agent/Person/Desire/Intention nodes.

The graph stores observed travelers (Person), their trip needs (Desire) and
the choices they made (Intention), connected by four edge kinds whose
weights all live in [0, 1]:

    similar_to   Agent  -> Person   profile similarity
    relative_of  Person -> Person   household/social closeness
    want_to      Person -> Desire   desire similarity
                 Agent  -> Desire   (query-time only)
    choose_to    Desire -> Intention  temporal proximity of the choice

``want_to`` and ``choose_to`` weights depend on the querying agent's desire
and are therefore stored as 1.0 placeholders at build time; they are
finalized during subgraph extraction (see ``retrieval``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable, Optional

from .embedding import profile_to_text
from .errors import DataError, FrozenGraph, GraphError, KindMismatch, UnknownNode, WeightOutOfRange
from .schema import (
    BUNDLED_CHOICE_SETS,
    ChoiceCategorySet,
    OUTPUT_CATEGORIES,
    START_TIMES,
    TRIP_PURPOSES,
    AgentProfile,
    TripRecord,
    decode_json,
)

NodeId = int


class NodeKind(str, Enum):
    AGENT = "Agent"
    PERSON = "Person"
    DESIRE = "Desire"
    INTENTION = "Intention"


class EdgeKind(str, Enum):
    RELATIVE_OF = "relative_of"
    SIMILAR_TO = "similar_to"
    WANT_TO = "want_to"
    CHOOSE_TO = "choose_to"


# Allowed (source kind, target kind) pairs per edge kind.
_ENDPOINT_RULES: dict[EdgeKind, tuple[tuple[NodeKind, NodeKind], ...]] = {
    EdgeKind.SIMILAR_TO: ((NodeKind.AGENT, NodeKind.PERSON),),
    EdgeKind.RELATIVE_OF: ((NodeKind.PERSON, NodeKind.PERSON),),
    EdgeKind.WANT_TO: (
        (NodeKind.PERSON, NodeKind.DESIRE),
        (NodeKind.AGENT, NodeKind.DESIRE),
    ),
    EdgeKind.CHOOSE_TO: ((NodeKind.DESIRE, NodeKind.INTENTION),),
}


@dataclass
class Node:
    id: NodeId
    kind: NodeKind
    label: str
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass
class Edge:
    source: NodeId
    target: NodeId
    kind: EdgeKind
    weight: float


# Weight of the relative_of edges between members of one household.
RELATIVE_WEIGHT = 1.0


@dataclass(frozen=True)
class GraphBuildConfig:
    """Knobs for ``build_from_records``.

    intention_fields: which output columns get a choose_to edge per record;
    by default every column of ``OUTPUT_CATEGORIES``.
    """

    intention_fields: tuple[str, ...] = tuple(OUTPUT_CATEGORIES)

    def __post_init__(self):
        for name in self.intention_fields:
            if name not in OUTPUT_CATEGORIES:
                raise ValueError(f"unknown intention field {name!r}")


def temporal_proximity(hour_a: int, hour_b: int, tau: float = 4.0) -> float:
    """Choice-edge weight exp(-delta/tau) from the circular hour distance.

    delta is the distance on a 24-hour clock, so it lies in [0, 12] and the
    result in (0, 1]; identical hours give exactly 1.0.
    """
    delta = abs(hour_a - hour_b) % 24
    delta = min(delta, 24 - delta)
    return math.exp(-delta / tau)


class BehaviorGraph:
    """Built by ``add_node`` and ``add_edge``, frozen by its first query.

    A query fills one of the two caches below. From then on ``add_node``
    and ``add_edge`` raise FrozenGraph, so no cached value can go stale.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.out_edges: dict[NodeId, list[Edge]] = {}
        self.choice_sets: dict[str, ChoiceCategorySet] = {}
        # provider id -> retrieval's person index, built by the first search
        self._person_indexes: dict[str, tuple] = {}
        # provider id -> (query desire text, stored desire text) -> retrieval's
        # want_to weight, filled by each extraction
        self._desire_weights: dict[str, dict[tuple[str, str], float]] = {}

    # ------------------------------------------------------------------
    # basic mutation
    # ------------------------------------------------------------------

    def register_choice_set(self, choice_set: ChoiceCategorySet) -> None:
        self.choice_sets[choice_set.name] = choice_set

    def add_node(self, kind: NodeKind, label: str, attributes: Optional[dict] = None) -> NodeId:
        if self._person_indexes or self._desire_weights:
            raise FrozenGraph("a behavior graph cannot gain a node after its first query")
        if not isinstance(kind, NodeKind):
            raise KindMismatch(f"node kind {kind!r} is not a NodeKind")
        if not label:
            raise ValueError("node label must be non-empty")
        node_id = len(self.nodes)
        self.nodes.append(Node(node_id, kind, label, dict(attributes or {})))
        self.out_edges[node_id] = []
        return node_id

    def add_edge(self, source: NodeId, target: NodeId, kind: EdgeKind, weight: float) -> None:
        if self._person_indexes or self._desire_weights:
            raise FrozenGraph("a behavior graph cannot gain an edge after its first query")
        if not isinstance(kind, EdgeKind):
            raise KindMismatch(f"edge kind {kind!r} is not an EdgeKind")
        pair = (self.node(source).kind, self.node(target).kind)
        if isinstance(weight, bool) or not (isinstance(weight, (int, float)) and 0 <= weight <= 1):
            raise WeightOutOfRange(f"weight {weight!r} is not a number in [0, 1]")
        if pair not in _ENDPOINT_RULES[kind]:
            raise KindMismatch(
                f"{kind.value} edge may not connect {pair[0].value} -> {pair[1].value}"
            )
        self.out_edges[source].append(Edge(source, target, kind, weight))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def node(self, node_id: NodeId) -> Node:
        if not (type(node_id) is int and 0 <= node_id < len(self.nodes)):
            raise UnknownNode(f"no node with id {node_id}")
        return self.nodes[node_id]

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return sum(len(edges) for edges in self.out_edges.values())

    def nodes_of_kind(self, kind: NodeKind) -> list[Node]:
        return [n for n in self.nodes if n.kind == kind]

    def edges(self) -> Iterable[Edge]:
        for node_id in range(len(self.nodes)):
            yield from self.out_edges[node_id]

    def validate(self) -> "BehaviorGraph":
        """Check every fact a snapshot stores twice against its other copy.

        The registered choice sets must be the schema's bundled sets: the
        same names, and the same options in the same order. A Person's
        attributes must build an ``AgentProfile`` and its label be that
        profile's ``profile_to_text``. A Desire's trip_purpose and
        start_time must be schema categories and its label their
        ``desire_text``; an Intention must name a registered choice set and
        one of its options, and no two Intentions the same option. Raises
        DataError naming the first choice set or node that breaks a rule.
        """
        for name in sorted(self.choice_sets.keys() | BUNDLED_CHOICE_SETS.keys()):
            if self.choice_sets.get(name) != BUNDLED_CHOICE_SETS.get(name):
                raise DataError(
                    f"graph choice set {name!r} is not the schema's: "
                    f"expected {sorted(BUNDLED_CHOICE_SETS)} with their schema options"
                )
        seen: dict[tuple[str, str], NodeId] = {}
        for node in self.nodes:
            if node.kind == NodeKind.PERSON:
                try:
                    profile = AgentProfile(**node.attributes)
                except (TypeError, DataError):  # a missing or extra field, a bad value
                    raise DataError(
                        f"graph node {node.id} (Person): attributes are not a schema profile"
                    ) from None
                if node.label != profile_to_text(profile):
                    raise DataError(
                        f"graph node {node.id} (Person): label differs from its attributes"
                    )
            elif node.kind == NodeKind.DESIRE:
                purpose = node.attributes.get("trip_purpose")
                hour = node.attributes.get("start_time")
                if purpose not in TRIP_PURPOSES or hour not in START_TIMES:
                    raise DataError(
                        f"graph node {node.id} (Desire): trip_purpose {purpose!r} or "
                        f"start_time {hour!r} is not in the schema"
                    )
                if node.label != desire_text(purpose, int(hour)):
                    raise DataError(
                        f"graph node {node.id} (Desire): label differs from its attributes"
                    )
            elif node.kind == NodeKind.INTENTION:
                key = (node.attributes.get("choice_set"), node.label)
                choice_set = self.choice_sets.get(key[0])
                if choice_set is None or node.label not in choice_set:
                    raise DataError(
                        f"graph node {node.id} (Intention): {key} is no registered option"
                    )
                if seen.setdefault(key, node.id) != node.id:
                    raise DataError(
                        f"graph node {node.id} (Intention): node {seen[key]} also names {key}"
                    )
        return self

    # ------------------------------------------------------------------
    # snapshot I/O (line-oriented JSON, bit-exact round trip)
    # ------------------------------------------------------------------

    def dump_jsonl(self, fp: IO[str]) -> None:
        for name in sorted(self.choice_sets):
            cs = self.choice_sets[name]
            fp.write(_json_line({"t": "choice_set", "name": cs.name, "options": list(cs.options)}))
        for node in self.nodes:
            fp.write(_json_line({"t": "node", **vars(node)}))
        for edge in self.edges():
            fp.write(_json_line({"t": "edge", **vars(edge)}))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            self.dump_jsonl(fp)

    @classmethod
    def load_jsonl(cls, fp: IO[str]) -> "BehaviorGraph":
        """Read a snapshot and ``validate`` it.

        A malformed line, a node or edge that breaks the graph's rules, or a
        failed check raises DataError.
        """
        graph = cls()
        number = 0
        try:
            for number, line in enumerate(fp, start=1):
                line = line.strip()
                if not line:
                    continue
                obj = decode_json(line)
                kind = obj["t"]
                if kind == "choice_set":
                    graph.register_choice_set(
                        ChoiceCategorySet(obj["name"], tuple(obj["options"]))
                    )
                elif kind == "node":
                    if type(obj["id"]) is not int or obj["id"] != len(graph.nodes):
                        raise ValueError(f"node id {obj['id']!r}, expected {len(graph.nodes)}")
                    attributes = obj["attributes"]
                    if not (
                        isinstance(obj["label"], str)
                        and isinstance(attributes, dict)
                        and all(isinstance(v, str) for v in attributes.values())
                    ):
                        raise ValueError("node label must be a string, attributes strings")
                    graph.add_node(NodeKind(obj["kind"]), obj["label"], attributes)
                elif kind == "edge":
                    graph.add_edge(
                        obj["source"], obj["target"], EdgeKind(obj["kind"]), obj["weight"]
                    )
                else:
                    raise ValueError(f"unknown snapshot record type {kind!r}")
        except (KeyError, TypeError, ValueError, GraphError) as exc:  # also bad JSON and encoding
            raise DataError(f"graph snapshot line {number}: {type(exc).__name__}: {exc}") from exc
        return graph.validate()

    @classmethod
    def load(cls, path) -> "BehaviorGraph":
        with open(path, "r", encoding="utf-8") as fp:
            return cls.load_jsonl(fp)


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def desire_text(trip_purpose: str, start_time: int) -> str:
    """Canonical text rendering of a desire, shared by build and query."""
    return f"purpose: {trip_purpose}; start_time: {start_time}"


def build_from_records(
    records: list[TripRecord],
    config: GraphBuildConfig = GraphBuildConfig(),
) -> BehaviorGraph:
    """Construct the behavior graph for a list of trip records.

    Persons are deduplicated by their (frozen) profile. Each person
    gets one desire node per distinct (trip_purpose, start_time) pair, and
    each record adds one choose_to edge per configured intention field from
    its desire to the lazily created intention node of the observed option.
    relative_of edges are added pairwise (both directions) between persons
    sharing an explicit household_id.
    """
    graph = BehaviorGraph()
    for choice_set in BUNDLED_CHOICE_SETS.values():
        graph.register_choice_set(choice_set)

    person_index: dict[AgentProfile, NodeId] = {}
    desire_index: dict[tuple[NodeId, str, int], NodeId] = {}
    intention_index: dict[tuple[str, str], NodeId] = {}
    households: dict[str, set[NodeId]] = {}

    for record in records:
        person_id = person_index.get(record.profile)
        if person_id is None:
            person_id = graph.add_node(
                NodeKind.PERSON, profile_to_text(record.profile), record.profile.as_dict()
            )
            person_index[record.profile] = person_id
        if record.household_id is not None:
            households.setdefault(record.household_id, set()).add(person_id)

        desire_key = (person_id, record.trip_purpose, record.start_time)
        desire_id = desire_index.get(desire_key)
        if desire_id is None:
            desire_id = graph.add_node(
                NodeKind.DESIRE,
                desire_text(record.trip_purpose, record.start_time),
                {"trip_purpose": record.trip_purpose, "start_time": str(record.start_time)},
            )
            desire_index[desire_key] = desire_id
            graph.add_edge(person_id, desire_id, EdgeKind.WANT_TO, 1.0)

        for field_name in config.intention_fields:
            option = getattr(record, field_name)
            intention_id = intention_index.get((field_name, option))
            if intention_id is None:
                intention_id = graph.add_node(
                    NodeKind.INTENTION, option, {"choice_set": field_name}
                )
                intention_index[(field_name, option)] = intention_id
            graph.add_edge(desire_id, intention_id, EdgeKind.CHOOSE_TO, 1.0)

    for members in households.values():
        ordered = sorted(members)
        for a in ordered:
            for b in ordered:
                if a != b:
                    graph.add_edge(a, b, EdgeKind.RELATIVE_OF, RELATIVE_WEIGHT)

    return graph
