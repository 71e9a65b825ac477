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

from .errors import DataError, KindMismatch, UnknownNode, WeightOutOfRange
from .schema import (
    BUNDLED_CHOICE_SETS,
    ChoiceCategorySet,
    OUTPUT_CATEGORIES,
    TripRecord,
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


@dataclass
class GraphBuildConfig:
    """Knobs for ``build_from_records``.

    intention_fields: which output columns get a choose_to edge per record.
    """

    intention_fields: tuple[str, ...] = ("primary_mode",)

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
    """Mutable during construction, treated as immutable afterwards."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.out_edges: dict[NodeId, list[Edge]] = {}
        self.choice_sets: dict[str, ChoiceCategorySet] = {}
        # option -> intention node, keyed (set name, option)
        self._intention_index: dict[tuple[str, str], NodeId] = {}
        # provider id -> retrieval's person index, built by the first query
        # and dropped when a person is added
        self._person_indexes: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # basic mutation
    # ------------------------------------------------------------------

    def register_choice_set(self, choice_set: ChoiceCategorySet) -> None:
        self.choice_sets[choice_set.name] = choice_set

    def add_node(self, kind: NodeKind, label: str, attributes: Optional[dict] = None) -> NodeId:
        if not label:
            raise ValueError("node label must be non-empty")
        node_id = len(self.nodes)
        self.nodes.append(Node(node_id, kind, label, dict(attributes or {})))
        self.out_edges[node_id] = []
        if kind == NodeKind.PERSON:
            self._person_indexes.clear()
        return node_id

    def add_edge(self, source: NodeId, target: NodeId, kind: EdgeKind, weight: float) -> None:
        for node_id in (source, target):
            if not (0 <= node_id < len(self.nodes)):
                raise UnknownNode(f"no node with id {node_id}")
        if not (0.0 <= weight <= 1.0):
            raise WeightOutOfRange(f"weight {weight} outside [0, 1]")
        pair = (self.nodes[source].kind, self.nodes[target].kind)
        if pair not in _ENDPOINT_RULES[kind]:
            raise KindMismatch(
                f"{kind.value} edge may not connect {pair[0].value} -> {pair[1].value}"
            )
        self.out_edges[source].append(Edge(source, target, kind, weight))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def node(self, node_id: NodeId) -> Node:
        if not (0 <= node_id < len(self.nodes)):
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

    def intention_node(self, set_name: str, option: str) -> Optional[NodeId]:
        return self._intention_index.get((set_name, option))

    def _ensure_intention(self, set_name: str, option: str) -> NodeId:
        key = (set_name, option)
        node_id = self._intention_index.get(key)
        if node_id is None:
            node_id = self.add_node(
                NodeKind.INTENTION, option, {"choice_set": set_name}
            )
            self._intention_index[key] = node_id
        return node_id

    # ------------------------------------------------------------------
    # snapshot I/O (line-oriented JSON, bit-exact round trip)
    # ------------------------------------------------------------------

    def dump_jsonl(self, fp: IO[str]) -> None:
        for name in sorted(self.choice_sets):
            cs = self.choice_sets[name]
            fp.write(_json_line({"t": "choice_set", "name": cs.name, "options": list(cs.options)}))
        for node in self.nodes:
            fp.write(
                _json_line(
                    {
                        "t": "node",
                        "id": node.id,
                        "kind": node.kind.value,
                        "label": node.label,
                        "attributes": node.attributes,
                    }
                )
            )
        for edge in self.edges():
            fp.write(
                _json_line(
                    {
                        "t": "edge",
                        "source": edge.source,
                        "target": edge.target,
                        "kind": edge.kind.value,
                        "weight": edge.weight,
                    }
                )
            )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            self.dump_jsonl(fp)

    @classmethod
    def load_jsonl(cls, fp: IO[str]) -> "BehaviorGraph":
        """Read a snapshot; a malformed line raises DataError or a GraphError."""
        graph = cls()
        number = 0
        try:
            for number, line in enumerate(fp, start=1):
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                kind = obj["t"]
                if kind == "choice_set":
                    graph.register_choice_set(
                        ChoiceCategorySet(obj["name"], tuple(obj["options"]))
                    )
                elif kind == "node":
                    if obj["id"] != len(graph.nodes):
                        raise ValueError(f"node id {obj['id']!r}, expected {len(graph.nodes)}")
                    if not isinstance(obj["label"], str) or not isinstance(obj["attributes"], dict):
                        raise ValueError("node label must be a string, attributes an object")
                    node_id = graph.add_node(
                        NodeKind(obj["kind"]), obj["label"], obj["attributes"]
                    )
                    node = graph.nodes[node_id]
                    if node.kind == NodeKind.INTENTION and "choice_set" in node.attributes:
                        graph._intention_index[(node.attributes["choice_set"], node.label)] = node_id
                elif kind == "edge":
                    graph.add_edge(
                        obj["source"], obj["target"], EdgeKind(obj["kind"]), obj["weight"]
                    )
                else:
                    raise ValueError(f"unknown snapshot record type {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:  # also bad JSON and text encoding
            raise DataError(f"graph snapshot line {number}: {type(exc).__name__}: {exc}") from exc
        return graph

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
    config: Optional[GraphBuildConfig] = None,
) -> BehaviorGraph:
    """Construct the behavior graph for a list of validated trip records.

    Persons are deduplicated by their exact attribute tuple. Each person
    gets one desire node per distinct (trip_purpose, start_time) pair, and
    each record adds one choose_to edge per configured intention field from
    its desire to the lazily created intention node of the observed option.
    relative_of edges are added pairwise (both directions) between persons
    sharing an explicit household_id.
    """
    from .embedding import profile_to_text  # local import avoids a cycle

    config = config or GraphBuildConfig()
    graph = BehaviorGraph()
    for choice_set in BUNDLED_CHOICE_SETS.values():
        graph.register_choice_set(choice_set)

    person_index: dict[tuple[str, ...], NodeId] = {}
    desire_index: dict[tuple[NodeId, str, int], NodeId] = {}
    households: dict[str, set[NodeId]] = {}

    for i, record in enumerate(records):
        record.validate(i)
        person_key = record.profile.key()
        person_id = person_index.get(person_key)
        if person_id is None:
            person_id = graph.add_node(
                NodeKind.PERSON, profile_to_text(record.profile), record.profile.as_dict()
            )
            person_index[person_key] = person_id
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
            intention_id = graph._ensure_intention(field_name, option)
            graph.add_edge(desire_id, intention_id, EdgeKind.CHOOSE_TO, 1.0)

    for members in households.values():
        ordered = sorted(members)
        for a in ordered:
            for b in ordered:
                if a != b:
                    graph.add_edge(a, b, EdgeKind.RELATIVE_OF, RELATIVE_WEIGHT)

    return graph
