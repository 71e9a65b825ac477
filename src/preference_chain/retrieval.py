"""Similar-person retrieval and behavioral subgraph extraction.

A query runs in two stages: vector similarity search picks the top-k most
similar Person nodes (``top_k_similar``), then a breadth-first search
(``DEFAULT_DEPTH`` edges unless told otherwise) walks forward over the
graph's typed adjacency lists from all of them at once collecting
desires and intentions (``extract_subgraph``). The search returns an
``Extraction``, the query's read-only record; a ``BehavioralSubgraph`` is
a plain graph that tests build by hand.

Each cache is described by its owner: ``QueryAgent``, ``BehaviorGraph``,
``Extraction`` and ``pipeline.PreferenceChain``. With a provider that has
``embed_batch``, such as ``HashEmbedder``, the person vectors live once, in
the graph's person index (``_person_index``), not in the provider's cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Optional

import numpy as np

from .behavior_graph import (
    DEFAULT_TAU,
    BehaviorGraph,
    EdgeKind,
    Node,
    NodeId,
    NodeKind,
    desire_text,
    temporal_proximity,
)
from .embedding import EmbeddingProvider, _cosine, _norm, profile_to_text
from .errors import DimensionMismatch, EmptyGraph, SchemaViolation, UnknownNode, ZeroVector
from .schema import AgentProfile, check_desire

AGENT_NODE_ID: NodeId = -1

# Default forward search depth of ``extract_subgraph``, the pipeline's ``depth``.
DEFAULT_DEPTH = 3


@dataclass(frozen=True)
class QueryAgent:
    """The simulated agent being queried: profile, desire, optional context."""

    profile: AgentProfile
    trip_purpose: str
    start_time: int
    context: str = ""

    def __post_init__(self):
        check_desire(self.trip_purpose, self.start_time)
        if not isinstance(self.context, str):
            raise SchemaViolation(-1, "context", self.context)

    @cached_property
    def profile_text(self) -> str:
        """``profile_to_text(self.profile)``, rendered once per agent."""
        return profile_to_text(self.profile)

    def desire_text(self) -> str:
        return desire_text(self.trip_purpose, self.start_time)


@dataclass(frozen=True, eq=False)
class Extraction:
    """What ``extract_subgraph`` found: one query's read-only subgraph record.

    It is scored straight from the behavior graph, which its extraction
    froze (``preference._walk_graph``), and keeps the path sums of each
    path length limit in ``path_sums``. ``nodes`` and ``out_edges``, the
    subgraph as a copy, are built on their first read; only the benchmark
    tracer and tests read them. ``node_count()`` builds no copy.
    """

    agent_id: ClassVar[NodeId] = AGENT_NODE_ID
    graph: BehaviorGraph
    agent_label: str
    persons: tuple[tuple[NodeId, float], ...]
    depths: dict[NodeId, int]        # node -> its breadth-first search depth
    depth: int
    want: dict[NodeId, float]        # desire -> weight of every want_to edge into it
    choose: dict[NodeId, float]      # desire -> weight of each of its choose_to edges
    path_sums: dict[int, dict] = field(default_factory=dict, init=False, repr=False)

    def node_count(self) -> int:
        return len(self.depths) + 1  # the agent node is not in the depth map

    @cached_property
    def _copy(self) -> tuple[dict, dict]:
        return _copy_subgraph(self)

    nodes = property(lambda self: self._copy[0])
    out_edges = property(lambda self: self._copy[1])


@dataclass
class BehavioralSubgraph:
    """Small weighted digraph rooted at the agent node (id -1), built by hand.

    Tests build one to score a graph of their own; ``preference.raw_scores``
    walks its ``out_edges`` on every call. An Intention's choice set is its
    node's ``choice_set``. All weights are finalized; parallel edges are
    kept (each contributes its own path).
    """

    agent_id: ClassVar[NodeId] = AGENT_NODE_ID
    nodes: dict[NodeId, Node] = field(default_factory=dict)
    out_edges: dict[NodeId, list[tuple[NodeId, EdgeKind, float]]] = field(default_factory=dict)

    def add_node(
        self,
        node_id: NodeId,
        kind: NodeKind,
        label: str,
        choice_set: Optional[str] = None,
    ) -> NodeId:
        if node_id not in self.nodes:
            self.nodes[node_id] = Node(node_id, kind, label, choice_set, None)
            self.out_edges[node_id] = []
        return node_id

    def add_edge(self, source: NodeId, target: NodeId, kind: EdgeKind, weight: float) -> None:
        if source not in self.nodes or target not in self.nodes:
            raise UnknownNode(f"subgraph edge endpoints {source}->{target} not present")
        self.out_edges[source].append((target, kind, weight))


def _copy_subgraph(extraction: Extraction) -> tuple[dict, dict]:
    """The nodes and out_edges of an extracted subgraph.

    Every node the search reached, in id order after the agent, with its
    edges if it sits strictly inside the depth budget: its want_to,
    relative_of and choose_to edges, in the order ``BehaviorGraph.edges``
    gives them. Every edge target is then in the map too.
    """
    graph, depths, depth = extraction.graph, extraction.depths, extraction.depth
    want, choose = extraction.want, extraction.choose
    nodes = {AGENT_NODE_ID: Node(AGENT_NODE_ID, NodeKind.AGENT, extraction.agent_label, None, None)}
    out_edges = {AGENT_NODE_ID: [(p, EdgeKind.SIMILAR_TO, w) for p, w in extraction.persons]}
    for node_id in sorted(depths):
        nodes[node_id] = graph.nodes[node_id]
        edges = out_edges[node_id] = []
        if depths[node_id] == depth:
            continue
        edges.extend((t, EdgeKind.WANT_TO, want[t]) for t in graph.desires[node_id])
        edges.extend((t, EdgeKind.RELATIVE_OF, w) for t, w in graph.relatives[node_id])
        edges.extend((t, EdgeKind.CHOOSE_TO, choose[node_id]) for t in graph.intentions[node_id])
    return nodes, out_edges


def _person_index(graph: BehaviorGraph, provider: EmbeddingProvider):
    """(person ids, row-normalized embedding matrix, label -> its first row),
    cached on the graph once full.

    The index owns the person vectors. It embeds every label in one call
    to the provider's ``embed_batch`` when it has one, which leaves nothing
    in the provider's cache, and otherwise each label with ``embed``, whose
    cache a remote provider needs to ask for each text once. Each row is
    then normalized in place: no list of row copies lives beside the matrix.
    """
    entry = graph._person_indexes.get(provider.provider_id)
    if entry is None:
        persons = graph.nodes_of_kind(NodeKind.PERSON)
        labels = [p.label for p in persons]
        batch = getattr(provider, "embed_batch", None)
        vectors = batch(labels) if batch else map(provider.embed, labels)
        rows: dict[str, int] = {}
        matrix = np.zeros((0, 1))
        for i, (p, vec) in enumerate(zip(persons, vectors)):
            rows.setdefault(p.label, i)
            vec, norm = _norm(vec)
            if norm == 0.0:
                raise ZeroVector(f"person node {p.id} embedded to the zero vector")
            if i == 0:  # a batch matrix becomes the index, normalized in place
                matrix = vectors if batch else np.empty((len(persons), vec.size))
            if vec.shape != matrix.shape[1:]:
                raise DimensionMismatch("person embeddings have different lengths")
            np.divide(vec, norm, out=matrix[i])
        entry = ([p.id for p in persons], matrix, rows)
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

    A profile text that is a person's label is not embedded again: its
    query vector is a copy of that person's row, the same normalized vector
    the embedding would give.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ids, matrix, rows = _person_index(graph, provider)
    if not ids:
        raise EmptyGraph("graph contains no Person nodes")
    row = rows.get(agent.profile_text)
    if row is not None:
        query = matrix[row].copy()
    else:
        vec, norm = _norm(provider.embed(agent.profile_text))
        if vec.shape != matrix.shape[1:]:
            raise DimensionMismatch(f"query embedding {vec.shape} vs persons {matrix.shape[1:]}")
        if norm == 0.0:
            raise ZeroVector("query profile embedded to the zero vector")
        query = vec / norm
    sims = np.clip(matrix @ query, 0.0, 1.0)
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
    depth: int = DEFAULT_DEPTH,
    tau: float = DEFAULT_TAU,
) -> Extraction:
    """Breadth-first forward search from the selected persons.

    ``depth`` counts edges from the person node; a node belongs to the
    subgraph iff its minimal edge distance from any selected person is
    <= depth, and an edge iff its source's distance is < depth. The
    synthetic agent node (-1) gets a similar_to edge to each person,
    weighted by its similarity. As the search expands each node, it
    finalizes the weights of its edges that depend on the query desire:
    want_to from the desire-text similarity (through the graph's table),
    choose_to from the temporal proximity of the hours. So an embedder
    error, or a desire without a start hour, raises here.
    """
    if not persons:
        raise ValueError("persons must be non-empty")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    for person_id, _ in persons:
        if graph.node(person_id).kind != NodeKind.PERSON:
            raise UnknownNode(f"node {person_id} is not a Person")
    desires, relatives, intentions, nodes = graph.desires, graph.relatives, graph.intentions, graph.nodes
    # Embedded even when every want_to weight is in the table, so that an
    # embedder failing on the query desire fails every query alike.
    query_desire = agent.desire_text()
    query_desire_vec = provider.embed(query_desire)
    query_norm = None  # _norm(query_desire_vec), taken at the first weight computed
    want_weights = graph._desire_weights.setdefault(provider.provider_id, {})

    # Minimal edge distance from the nearest selected person, by a
    # breadth-first search from all of them at once. ``add_edge`` lets a
    # Person reach only desires and persons and a Desire only intentions,
    # which reach nothing, so the search keeps one frontier of persons and
    # one of desires. Each node inside the depth budget is expanded once,
    # and the weights of its want_to and choose_to edges are finalized then.
    # Every edge out of a Person or Desire may be followed (see
    # ``preference._walk_graph``).
    best: dict[NodeId, int] = {person_id: 0 for person_id, _ in persons}
    want: dict[NodeId, float] = {}
    choose: dict[NodeId, float] = {}
    person_frontier: list[NodeId] = list(best)
    desire_frontier: list[NodeId] = []
    for d in range(1, depth + 1):
        if not (person_frontier or desire_frontier):  # nothing left to visit
            break
        for desire in desire_frontier:
            chosen = intentions[desire]
            if chosen:
                # the desire carries the recorded hour
                choose[desire] = temporal_proximity(agent.start_time, nodes[desire].start_time, tau)
                for target in chosen:
                    if target not in best:
                        best[target] = d
        next_persons, desire_frontier = [], []
        for person in person_frontier:
            for target in desires[person]:
                if target not in best:
                    best[target] = d
                    desire_frontier.append(target)
                if target not in want:
                    key = (query_desire, nodes[target].label)
                    weight = want_weights.get(key)
                    if weight is None:
                        stored = provider.embed(key[1])
                        if query_norm is None:
                            query_norm = _norm(query_desire_vec)
                        weight = want_weights[key] = max(0.0, _cosine(*query_norm, *_norm(stored)))
                    want[target] = weight
            for target, _ in relatives[person]:
                if target not in best:
                    best[target] = d
                    next_persons.append(target)
        person_frontier = next_persons

    return Extraction(graph, agent.profile_text, tuple(persons), best, depth, want, choose)
