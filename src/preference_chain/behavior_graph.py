"""Weighted directed behavior graph over Person/Desire/Intention nodes.

The graph stores observed travelers (Person), their trip needs (Desire) and
the choices they made (Intention). A Desire keeps its int hour in
``start_time`` and an Intention its output column in ``choice_set``; other
nodes (Person, Agent) hold ``None`` in both. Edge weights all live in [0, 1]:

    relative_of  Person -> Person     household/social closeness
    want_to      Person -> Desire     desire similarity
    choose_to    Desire -> Intention  temporal proximity of the choice
    similar_to   Agent  -> Person     profile similarity (query subgraph only)

The graph stores no edge objects. Each node keeps three typed adjacency
lists, indexed by node id and filled by ``add_edge``: its desires
(want_to targets), its relatives (``(target, weight)`` pairs) and its
intentions (choose_to targets). ``want_to`` and ``choose_to`` weights
depend on the querying agent's desire, so they are not stored: ``edges()``
reports them as 1.0 placeholders, and subgraph extraction (see
``retrieval``) finalizes them; its subgraph alone holds the query's Agent
node. Only relative_of weights are stored. A graph's choice sets are the
schema's ``BUNDLED_CHOICE_SETS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterator, Sequence

from .embedding import profile_to_text
from .errors import FrozenGraph, KindMismatch, UnknownNode, WeightOutOfRange
from .schema import BUNDLED_CHOICE_SETS, OUTPUT_CATEGORIES, AgentProfile, TripRecord

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


# The (source kind, target kind) pair of each edge kind a behavior graph holds.
_ENDPOINT_RULES: dict[EdgeKind, tuple[NodeKind, NodeKind]] = {
    EdgeKind.RELATIVE_OF: (NodeKind.PERSON, NodeKind.PERSON),
    EdgeKind.WANT_TO: (NodeKind.PERSON, NodeKind.DESIRE),
    EdgeKind.CHOOSE_TO: (NodeKind.DESIRE, NodeKind.INTENTION),
}


@dataclass(slots=True)
class Node:
    id: NodeId
    kind: NodeKind
    label: str
    choice_set: str | None
    start_time: int | None


@dataclass(frozen=True, slots=True)
class Edge:
    """One edge as ``BehaviorGraph.edges()`` reports it; no graph stores one."""

    source: NodeId
    target: NodeId
    kind: EdgeKind
    weight: float


# Weight of the relative_of edges between members of one household.
RELATIVE_WEIGHT = 1.0

# Default decay (hours) of ``temporal_proximity``, the pipeline's ``tau``.
DEFAULT_TAU = 4.0


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


def temporal_proximity(hour_a: int, hour_b: int, tau: float = DEFAULT_TAU) -> float:
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

    choice_sets = MappingProxyType(BUNDLED_CHOICE_SETS)

    def __init__(self):
        self.nodes: list[Node] = []
        # [node id] -> its want_to targets, relative_of (target, weight) pairs
        # and choose_to targets, each in the order added; a shared () until
        # the node's first edge of that kind
        self.desires: list[Sequence[NodeId]] = []
        self.relatives: list[Sequence[tuple[NodeId, float]]] = []
        self.intentions: list[Sequence[NodeId]] = []
        # provider id -> retrieval's person index, built by the first search
        self._person_indexes: dict[str, tuple] = {}
        # provider id -> (query desire text, stored desire text) -> retrieval's
        # want_to weight, filled by each extraction
        self._desire_weights: dict[str, dict[tuple[str, str], float]] = {}

    # ------------------------------------------------------------------
    # basic mutation
    # ------------------------------------------------------------------

    def add_node(
        self, kind: NodeKind, label: str, *, choice_set: str | None = None, start_time: int | None = None
    ) -> NodeId:
        if self._person_indexes or self._desire_weights:
            raise FrozenGraph("a behavior graph cannot gain a node after its first query")
        if not isinstance(kind, NodeKind):
            raise KindMismatch(f"node kind {kind!r} is not a NodeKind")
        if not label:
            raise ValueError("node label must be non-empty")
        node_id = len(self.nodes)
        self.nodes.append(Node(node_id, kind, label, choice_set, start_time))
        for lists in (self.desires, self.relatives, self.intentions):
            lists.append(())
        return node_id

    def add_edge(self, source: NodeId, target: NodeId, kind: EdgeKind, weight: float) -> None:
        """Add an edge after checking its kind, endpoints and weight.

        Only a relative_of edge keeps its weight. A want_to or choose_to
        weight is checked and then dropped, because a query finalizes those
        weights; ``edges()`` reports them as 1.0.
        """
        if self._person_indexes or self._desire_weights:
            raise FrozenGraph("a behavior graph cannot gain an edge after its first query")
        if not isinstance(kind, EdgeKind):
            raise KindMismatch(f"edge kind {kind!r} is not an EdgeKind")
        nodes = self.nodes
        for node_id in (source, target):  # the checks of ``node``, inlined
            if not (type(node_id) is int and 0 <= node_id < len(nodes)):
                raise UnknownNode(f"no node with id {node_id}")
        pair = (nodes[source].kind, nodes[target].kind)
        # schema.is_number's rule, inlined: this check runs once per edge of a graph build
        if isinstance(weight, bool) or not (isinstance(weight, (int, float)) and 0 <= weight <= 1):
            raise WeightOutOfRange(f"weight {weight!r} is not a number in [0, 1]")
        if pair != _ENDPOINT_RULES.get(kind):
            raise KindMismatch(
                f"{kind.value} edge may not connect {pair[0].value} -> {pair[1].value}"
            )
        if kind is EdgeKind.WANT_TO:
            lists, item = self.desires, target
        elif kind is EdgeKind.RELATIVE_OF:
            lists, item = self.relatives, (target, weight)
        else:
            lists, item = self.intentions, target
        if lists[source]:
            lists[source].append(item)
        else:  # the node's first edge of this kind replaces its shared ()
            lists[source] = [item]

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
        return sum(len(targets) for lists in (self.desires, self.relatives, self.intentions)
                   for targets in lists)

    def nodes_of_kind(self, kind: NodeKind) -> list[Node]:
        return [n for n in self.nodes if n.kind == kind]

    def edges(self) -> Iterator[Edge]:
        """Every edge, built on read: by source id, then want_to, relative_of
        and choose_to, each kind in the order added. want_to and choose_to
        edges carry the 1.0 placeholder weight."""
        for source in range(len(self.nodes)):
            for target in self.desires[source]:
                yield Edge(source, target, EdgeKind.WANT_TO, 1.0)
            for target, weight in self.relatives[source]:
                yield Edge(source, target, EdgeKind.RELATIVE_OF, weight)
            for target in self.intentions[source]:
                yield Edge(source, target, EdgeKind.CHOOSE_TO, 1.0)


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
    add_node, add_edge = graph.add_node, graph.add_edge
    person, desire, intention = NodeKind.PERSON, NodeKind.DESIRE, NodeKind.INTENTION
    want_to, choose_to = EdgeKind.WANT_TO, EdgeKind.CHOOSE_TO
    person_index: dict[AgentProfile, NodeId] = {}
    desire_index: dict[tuple[NodeId, str, int], NodeId] = {}
    intention_index: dict[tuple[str, str], NodeId] = {}
    households: dict[str, set[NodeId]] = {}

    for record in records:
        profile, purpose, hour = record.profile, record.trip_purpose, record.start_time
        person_id = person_index.get(profile)
        if person_id is None:
            person_id = person_index[profile] = add_node(person, profile_to_text(profile))
        if record.household_id is not None:
            households.setdefault(record.household_id, set()).add(person_id)

        desire_key = (person_id, purpose, hour)
        desire_id = desire_index.get(desire_key)
        if desire_id is None:
            desire_id = add_node(desire, desire_text(purpose, hour), start_time=hour)
            desire_index[desire_key] = desire_id
            add_edge(person_id, desire_id, want_to, 1.0)

        for field_name in config.intention_fields:
            option = getattr(record, field_name)
            intention_id = intention_index.get((field_name, option))
            if intention_id is None:
                intention_id = add_node(intention, option, choice_set=field_name)
                intention_index[(field_name, option)] = intention_id
            add_edge(desire_id, intention_id, choose_to, 1.0)

    for members in households.values():
        ordered = sorted(members)
        for a in ordered:
            for b in ordered:
                if a != b:
                    add_edge(a, b, EdgeKind.RELATIVE_OF, RELATIVE_WEIGHT)

    return graph
