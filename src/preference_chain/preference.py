"""Path-based preference scoring over a behavioral subgraph.

A path's weight is the product of its edge weights. The raw score of a
choice option is the sum of the weights of all simple paths (at most K
edges) from the agent node to that option's intention node, and the prior
distribution normalizes the raw scores over the full candidate option set.
Options with no path score zero; an all-zero score vector falls back to a
uniform distribution flagged as degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior_graph import EdgeKind, NodeId, NodeKind
from .errors import NotAnIntention
from .retrieval import BehavioralSubgraph
from .schema import ChoiceCategorySet

DEFAULT_MAX_PATH_EDGES = 4

SUM_TOLERANCE = 1e-9


@dataclass
class PathWeight:
    """One simple path, as (source, target, kind, weight) hops."""

    edges: list[tuple[NodeId, NodeId, EdgeKind, float]]
    weight: float

    def node_sequence(self) -> list[NodeId]:
        return [self.edges[0][0]] + [e[1] for e in self.edges]


@dataclass
class PreferenceDistribution:
    """Normalized probabilities over every option of one choice set."""

    choice_set: ChoiceCategorySet
    probabilities: dict[str, float]
    degenerate: bool = False

    def __post_init__(self):
        missing = [o for o in self.choice_set.options if o not in self.probabilities]
        if missing:
            raise ValueError(f"distribution missing options {missing}")
        total = math.fsum(self.probabilities.values())  # raises on inf + -inf
        if not math.isfinite(total):  # some value is NaN or infinite
            raise ValueError("non-finite probability")
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < 0 for p in self.probabilities.values()):
            raise ValueError("negative probability")

    def as_array(self) -> np.ndarray:
        return np.array([self.probabilities[o] for o in self.choice_set.options])

    def sample(self, rng: np.random.Generator) -> str:
        """Draw one option; deterministic given the generator state."""
        cumulative = np.cumsum(self.as_array())
        idx = int(np.searchsorted(cumulative, rng.random(), side="right"))
        return self.choice_set.options[min(idx, len(self.choice_set) - 1)]


def uniform_distribution(choice_set: ChoiceCategorySet, degenerate: bool = False) -> PreferenceDistribution:
    p = 1.0 / len(choice_set)
    return PreferenceDistribution(choice_set, {o: p for o in choice_set.options}, degenerate)


def enumerate_paths(
    subgraph: BehavioralSubgraph,
    intention: NodeId,
    max_edges: int = DEFAULT_MAX_PATH_EDGES,
) -> list[PathWeight]:
    """All simple paths agent -> intention with at most ``max_edges`` edges.

    Paths come out in lexicographic order of their node-id sequences;
    parallel edges yield one path each. A path's weight is the product of
    its edge weights.
    """
    node = subgraph.nodes.get(intention)
    if node is None or node.kind != NodeKind.INTENTION:
        raise NotAnIntention(f"node {intention} is not an Intention in this subgraph")

    adjacency = {
        u: sorted(edges, key=lambda e: e[0])
        for u, edges in subgraph.out_edges.items()
    }
    paths: list[PathWeight] = []
    hop_stack: list[tuple[NodeId, NodeId, EdgeKind, float]] = []
    on_path: set[NodeId] = {subgraph.agent_id}

    def walk(current: NodeId, weight: float) -> None:
        if len(hop_stack) == max_edges:
            return
        for target, kind, w in adjacency.get(current, ()):
            if target in on_path:
                continue
            hop_stack.append((current, target, kind, w))
            if target == intention:
                paths.append(PathWeight(list(hop_stack), weight * w))
            else:
                on_path.add(target)
                walk(target, weight * w)
                on_path.remove(target)
            hop_stack.pop()

    walk(subgraph.agent_id, 1.0)
    return paths


def raw_score(
    subgraph: BehavioralSubgraph,
    intention: NodeId,
    max_edges: int = DEFAULT_MAX_PATH_EDGES,
) -> float:
    """Sum of all path weights into one intention; 0.0 when unreachable."""
    return math.fsum(p.weight for p in enumerate_paths(subgraph, intention, max_edges))


def prior_distribution(
    subgraph: BehavioralSubgraph,
    choice_set: ChoiceCategorySet,
    max_edges: int = DEFAULT_MAX_PATH_EDGES,
    epsilon: float = 0.0,
) -> PreferenceDistribution:
    """Normalized preference prior over every option of ``choice_set``.

    Options whose intention node is absent from the subgraph score 0.
    ``epsilon`` is added to every raw score before normalizing; if the
    total mass is still zero the result is uniform with the degenerate
    flag set.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    intentions = subgraph.intention_ids(choice_set.name)
    scores: dict[str, float] = {}
    for option in choice_set.options:
        node_id = intentions.get(option)
        score = raw_score(subgraph, node_id, max_edges) if node_id is not None else 0.0
        scores[option] = score + epsilon
    total = math.fsum(scores.values())
    if total <= 0.0:
        return uniform_distribution(choice_set, degenerate=True)
    return PreferenceDistribution(
        choice_set, {o: s / total for o, s in scores.items()}
    )
