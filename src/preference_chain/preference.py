"""Path-based preference scoring over a behavioral subgraph.

A path's weight is the product of its edge weights. The raw score of a
choice option is the sum of the weights of all simple paths (at most K
edges) from the agent node to that option's intention node. One
depth-first walk from the agent sums the paths into every option of the
subgraph at once, whatever its choice set, so the choice sets of one query
share a walk (kept on the ``BehavioralSubgraph``). The prior distribution
normalizes the raw scores over the full candidate option set. Options with
no path score zero; an all-zero score vector falls back to a uniform
distribution flagged as degenerate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior_graph import NodeId, NodeKind
from .retrieval import BehavioralSubgraph
from .schema import ChoiceCategorySet

DEFAULT_MAX_PATH_EDGES = 4

SUM_TOLERANCE = 1e-9


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


def _walk_paths(subgraph: BehavioralSubgraph, max_edges: int) -> dict[tuple[str, str], float]:
    """(choice set, option) -> ``math.fsum`` of the weights of its paths.

    An option is scored at the last intention node in ``subgraph.nodes``
    that names it. A depth-first walk from the agent node visits every
    simple path of at most ``max_edges`` edges once. A path that ends at a
    scoring node adds its weight to that node, and the walk goes on through
    it. fsum rounds correctly, so a sum does not depend on the order the
    walk finds the paths in; an option that no path reaches sums to 0.0.
    """
    scorer: dict[tuple[str, str], NodeId] = {
        (node.attributes.get("choice_set"), node.label): node.id
        for node in subgraph.nodes.values()
        if node.kind == NodeKind.INTENTION
    }
    weights: dict[NodeId, list[float]] = {node_id: [] for node_id in scorer.values()}
    on_path: set[NodeId] = {subgraph.agent_id}

    def walk(current: NodeId, weight: float, edges_left: int) -> None:
        for target, _kind, w in subgraph.out_edges.get(current, ()):
            if target in on_path:
                continue
            path_weight = weight * w
            ends_here = weights.get(target)
            if ends_here is not None:
                ends_here.append(path_weight)
            if edges_left > 1:
                on_path.add(target)
                walk(target, path_weight, edges_left - 1)
                on_path.remove(target)

    if max_edges >= 1:
        walk(subgraph.agent_id, 1.0, max_edges)
    return {key: math.fsum(weights[node_id]) for key, node_id in scorer.items()}


def raw_scores(
    subgraph: BehavioralSubgraph,
    choice_set: ChoiceCategorySet,
    max_edges: int = DEFAULT_MAX_PATH_EDGES,
) -> dict[str, float]:
    """Raw score of every option of ``choice_set``: the fsum of its path weights.

    The path sums come from one ``_walk_paths`` per ``max_edges``, kept on
    the subgraph (see ``BehavioralSubgraph``). Options that no path reaches
    score 0.0.
    """
    sums = subgraph._path_sums.get(max_edges)
    if sums is None:
        sums = subgraph._path_sums[max_edges] = _walk_paths(subgraph, max_edges)
    name = choice_set.name
    return {option: sums.get((name, option), 0.0) for option in choice_set.options}


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
    scores = {
        option: score + epsilon
        for option, score in raw_scores(subgraph, choice_set, max_edges).items()
    }
    total = math.fsum(scores.values())
    if total <= 0.0:
        return uniform_distribution(choice_set, degenerate=True)
    return PreferenceDistribution(
        choice_set, {o: s / total for o, s in scores.items()}
    )
