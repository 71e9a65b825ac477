"""Similar-person retrieval and behavioral subgraph extraction.

A query runs in two stages: vector similarity search picks the top-k most
similar Person nodes, then a breadth-first search (default depth 3 edges)
walks forward from all of them at once collecting desires and intentions.
The similarity search is one matrix-vector product against a per-graph
index of unit profile vectors; a partition finds the k-th largest
similarity, and only the persons at or above it are sorted. The
extracted subgraph carries finalized edge weights: similar_to from the
profile similarity, want_to from desire-text similarity, choose_to from
the temporal proximity between the query desire and the stored one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .behavior_graph import (
    BehaviorGraph,
    EdgeKind,
    NodeId,
    NodeKind,
    desire_text,
    temporal_proximity,
)
from .embedding import EmbeddingProvider, _norm, profile_to_text, similarity_weight
from .errors import DimensionMismatch, EmptyGraph, UnknownNode, ZeroVector
from .schema import AgentProfile

AGENT_NODE_ID: NodeId = -1

# Edge kinds the forward search is allowed to follow.
_TRAVERSABLE = (EdgeKind.RELATIVE_OF, EdgeKind.WANT_TO, EdgeKind.CHOOSE_TO)

@dataclass(frozen=True)
class QueryAgent:
    """The simulated agent being queried: profile, desire, optional context."""

    profile: AgentProfile
    trip_purpose: str
    start_time: int
    context: str = ""

    def desire_text(self) -> str:
        return desire_text(self.trip_purpose, self.start_time)


@dataclass
class SubgraphNode:
    id: NodeId
    kind: NodeKind
    label: str
    choice_set: Optional[str] = None


@dataclass
class BehavioralSubgraph:
    """Small weighted digraph rooted at the agent node (id -1).

    All weights are finalized; parallel edges are kept (one stored
    choose_to edge per observation, each contributing its own path).
    """

    agent_id: NodeId = AGENT_NODE_ID
    nodes: dict[NodeId, SubgraphNode] = field(default_factory=dict)
    out_edges: dict[NodeId, list[tuple[NodeId, EdgeKind, float]]] = field(default_factory=dict)
    similar_persons: list[tuple[NodeId, float]] = field(default_factory=list)

    def add_node(
        self,
        node_id: NodeId,
        kind: NodeKind,
        label: str,
        choice_set: Optional[str] = None,
    ) -> NodeId:
        if node_id not in self.nodes:
            self.nodes[node_id] = SubgraphNode(node_id, kind, label, choice_set)
            self.out_edges[node_id] = []
        return node_id

    def add_edge(self, source: NodeId, target: NodeId, kind: EdgeKind, weight: float) -> None:
        if source not in self.nodes or target not in self.nodes:
            raise UnknownNode(f"subgraph edge endpoints {source}->{target} not present")
        self.out_edges[source].append((target, kind, weight))

    def intention_ids(self, choice_set: str) -> dict[str, NodeId]:
        """option label -> node id for intentions of one choice set."""
        return {
            n.label: n.id
            for n in self.nodes.values()
            if n.kind == NodeKind.INTENTION and n.choice_set == choice_set
        }

    def node_count(self) -> int:
        return len(self.nodes)

    def weights(self) -> list[float]:
        return [w for edges in self.out_edges.values() for (_, _, w) in edges]


def _person_index(graph: BehaviorGraph, provider: EmbeddingProvider):
    """(person ids, row-normalized embedding matrix), cached on the graph."""
    entry = graph._person_indexes.get(provider.provider_id)
    if entry is None:
        persons = graph.nodes_of_kind(NodeKind.PERSON)
        ids = [p.id for p in persons]
        rows = []
        for p in persons:
            vec, norm = _norm(np.asarray(provider.embed(p.label), dtype=float))
            if norm == 0.0:
                raise ZeroVector(f"person node {p.id} embedded to the zero vector")
            rows.append(vec / norm)
        if len({row.shape for row in rows}) > 1:
            raise DimensionMismatch("person embeddings have different lengths")
        matrix = np.vstack(rows) if rows else np.zeros((0, 1))
        entry = (ids, matrix)
        graph._person_indexes[provider.provider_id] = entry
    return entry


def top_k_similar(
    graph: BehaviorGraph,
    agent: QueryAgent,
    k: int,
    provider: EmbeddingProvider,
) -> list[tuple[NodeId, float]]:
    """Top-k Person nodes by clamped cosine similarity of profile texts.

    Sorted by similarity descending, ties broken by ascending node id.
    ``np.partition`` finds the k-th largest similarity; only the persons at
    or above it are sorted. Every member of the top k is among them, ties
    at the threshold included, so the result is exactly that of sorting
    every person.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ids, matrix = _person_index(graph, provider)
    if not ids:
        raise EmptyGraph("graph contains no Person nodes")
    query = np.asarray(provider.embed(profile_to_text(agent.profile)), dtype=float)
    if query.shape != matrix.shape[1:]:
        raise DimensionMismatch(f"query embedding {query.shape} vs persons {matrix.shape[1:]}")
    query, norm = _norm(query)
    if norm == 0.0:
        raise ZeroVector("query profile embedded to the zero vector")
    sims = np.clip(matrix @ (query / norm), 0.0, 1.0)
    cut = max(len(ids) - k, 0)
    candidates = np.flatnonzero(sims >= np.partition(sims, cut)[cut]).tolist()
    ranked = sorted(
        zip((ids[i] for i in candidates), sims[candidates].tolist()),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:k]


def extract_subgraph(
    graph: BehaviorGraph,
    agent: QueryAgent,
    persons: list[tuple[NodeId, float]],
    provider: EmbeddingProvider,
    depth: int = 3,
    tau: float = 4.0,
) -> BehavioralSubgraph:
    """Breadth-first forward search from the selected persons.

    ``depth`` counts edges from the person node; a node belongs to the
    subgraph iff its minimal edge distance from any selected person is
    <= depth. The synthetic agent node (-1) and its similar_to edges are
    injected on top, and all want_to / choose_to weights are finalized
    against the agent's desire.
    """
    if not persons:
        raise ValueError("persons must be non-empty")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    for person_id, _ in persons:
        if graph.node(person_id).kind != NodeKind.PERSON:
            raise UnknownNode(f"node {person_id} is not a Person")

    # Pass 1: minimal edge distance from the nearest selected person, by a
    # breadth-first search from all of them at once.
    best: dict[NodeId, int] = {person_id: 0 for person_id, _ in persons}
    frontier = list(best)
    for d in range(1, depth + 1):
        next_frontier = []
        for node_id in frontier:
            for edge in graph.out_edges[node_id]:
                if edge.kind in _TRAVERSABLE and edge.target not in best:
                    best[edge.target] = d
                    next_frontier.append(edge.target)
        frontier = next_frontier

    sub = BehavioralSubgraph()
    agent_label = profile_to_text(agent.profile)
    sub.add_node(AGENT_NODE_ID, NodeKind.AGENT, agent_label)
    agent_desire_vec = provider.embed(agent.desire_text())

    for node_id in sorted(best):
        node = graph.node(node_id)
        sub.add_node(node_id, node.kind, node.label, node.attributes.get("choice_set"))

    sub.similar_persons = list(persons)
    for person_id, w_sim in persons:
        sub.add_edge(AGENT_NODE_ID, person_id, EdgeKind.SIMILAR_TO, w_sim)

    # Pass 2: copy traversable edges whose source sits strictly inside the
    # depth budget, finalizing weights that depend on the query desire.
    desire_want: dict[NodeId, float] = {}
    for node_id in sorted(best):
        if best[node_id] > depth - 1:
            continue
        for edge in graph.out_edges[node_id]:
            if edge.kind not in _TRAVERSABLE:
                continue
            if edge.kind == EdgeKind.RELATIVE_OF:
                weight = edge.weight
            elif edge.kind == EdgeKind.WANT_TO:
                weight = desire_want.get(edge.target)
                if weight is None:
                    stored_vec = provider.embed(graph.node(edge.target).label)
                    weight = similarity_weight(agent_desire_vec, stored_vec)
                    desire_want[edge.target] = weight
            else:  # CHOOSE_TO: source is the desire carrying the recorded hour
                recorded_hour = int(graph.node(edge.source).attributes["start_time"])
                weight = temporal_proximity(agent.start_time, recorded_hour, tau)
            sub.add_edge(edge.source, edge.target, edge.kind, weight)

    return sub
