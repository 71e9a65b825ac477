"""Path-based preference scoring over a behavioral subgraph.

A path's weight is the product of its edge weights. The raw score of a
choice option is the sum of the weights of all simple paths (at most K
edges) from the agent node to that option's intention node. One
depth-first walk from the agent sums the paths into every option of the
subgraph at once, whatever its choice set. An ``Extraction`` is walked by
``_walk_graph`` over the behavior graph, once per path length limit, and
keeps the sums, so the choice sets of one query share a walk; a hand-built
``BehavioralSubgraph`` is walked by ``_walk_paths`` over its edges on every
call. The prior distribution normalizes the raw scores over the full
candidate option set. Options with no path score zero; an all-zero score
vector falls back to a uniform distribution flagged as degenerate."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .behavior_graph import NodeId, NodeKind
from .retrieval import BehavioralSubgraph, Extraction
from .schema import SUM_TOLERANCE, ChoiceCategorySet

DEFAULT_MAX_PATH_EDGES = 4
# Default additive smoothing of ``prior_distribution``, the pipeline's ``epsilon``.
DEFAULT_PRIOR_EPSILON = 0.0


@dataclass
class PreferenceDistribution:
    """Normalized probabilities over every option of one choice set."""

    choice_set: ChoiceCategorySet
    probabilities: dict[str, float]
    degenerate: bool = False

    def __post_init__(self):
        probabilities = self.probabilities
        if probabilities.keys() != self.choice_set.members:
            missing = [o for o in self.choice_set.options if o not in probabilities]
            if missing:
                raise ValueError(f"distribution missing options {missing}")
            unknown = [o for o in probabilities if o not in self.choice_set.members]
            raise ValueError(f"distribution has options outside its choice set {unknown}")
        total = math.fsum(probabilities.values())  # raises on inf + -inf
        if not math.isfinite(total):  # some value is NaN or infinite
            raise ValueError("non-finite probability")
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if min(probabilities.values()) < 0:
            raise ValueError("negative probability")

    def as_array(self) -> np.ndarray:
        return np.array([self.probabilities[o] for o in self.choice_set.options])

    def sample(self, rng: np.random.Generator) -> str:
        """Draw one option; deterministic given the generator state.

        The cumulative sums are added left to right, as ``np.cumsum`` does,
        and the draw goes to the first option whose sum exceeds it.
        """
        options = self.choice_set.options
        cumulative = list(accumulate(self.probabilities[o] for o in options))
        idx = bisect_right(cumulative, rng.random())
        return options[min(idx, len(options) - 1)]


def scaled_fsum(values: dict[str, float]) -> tuple[dict[str, float], float]:
    """``values`` and their ``math.fsum``; when finite values sum beyond the
    float range, both are taken after dividing every value by the largest."""
    try:
        return values, math.fsum(values.values())
    except OverflowError:
        peak = max(values.values())
        values = {o: v / peak for o, v in values.items()}
        return values, math.fsum(values.values())


def uniform_distribution(choice_set: ChoiceCategorySet, degenerate: bool = False) -> PreferenceDistribution:
    p = 1.0 / len(choice_set)
    return PreferenceDistribution(choice_set, {o: p for o in choice_set.options}, degenerate)


def _extend_paths(
    out_edges: dict[NodeId, list],
    weights: dict[NodeId, list[float]],
    on_path: set[NodeId],
    current: NodeId,
    weight: float,
    edges_left: int,
) -> None:
    """Extend the path ending at ``current`` by every edge off the path,
    appending each extension's weight to its target's list in ``weights``."""
    for target, _kind, w in out_edges.get(current, ()):
        if target in on_path:
            continue
        path_weight = weight * w
        ends_here = weights.get(target)
        if ends_here is not None:
            ends_here.append(path_weight)
        if edges_left > 1:
            on_path.add(target)
            _extend_paths(out_edges, weights, on_path, target, path_weight, edges_left - 1)
            on_path.remove(target)


def _walk_paths(subgraph: BehavioralSubgraph, max_edges: int) -> dict[tuple[str, str], float]:
    """(choice set, option) -> ``math.fsum`` of the weights of its paths.

    An option is scored at the last intention node in ``subgraph.nodes``
    that names it. A depth-first walk from the agent node visits every
    simple path of at most ``max_edges`` edges once. A path that ends at a
    scoring node adds its weight to that node, and the walk goes on through
    it. fsum rounds correctly, so a sum does not depend on the order the
    walk finds the paths in; an option that no path reaches sums to 0.0.
    The walk is a module-level function, not a nested one, because a
    closure that calls itself is a reference cycle, which would leave every
    query's subgraph and walk state to the cyclic garbage collector.
    """
    scorer: dict[tuple[str, str], NodeId] = {
        (node.choice_set, node.label): node.id
        for node in subgraph.nodes.values()
        if node.kind == NodeKind.INTENTION
    }
    weights: dict[NodeId, list[float]] = {node_id: [] for node_id in scorer.values()}
    if max_edges >= 1:
        agent = subgraph.agent_id
        _extend_paths(subgraph.out_edges, weights, {agent}, agent, 1.0, max_edges)
    return {key: math.fsum(weights[node_id]) for key, node_id in scorer.items()}


def _walk_graph(extraction: Extraction, max_edges: int) -> dict[tuple[str, str], float]:
    """``_walk_paths`` of an extracted subgraph, read from the behavior graph.

    ``BehaviorGraph.add_edge`` lets a Person have only relatives and
    desires, a Desire only intentions and an Intention nothing. So every
    path runs agent, persons, one desire, one intention: the walk goes on
    only through a person's relatives, and adds one term per intention of
    a desire. The scoring intentions are those of the desires inside the
    depth budget. Products are taken in path order, so the sums equal
    ``_walk_paths`` on the copy bit for bit.
    """
    graph, depths, depth = extraction.graph, extraction.depths, extraction.depth
    desires, relatives, intentions = graph.desires, graph.relatives, graph.intentions
    want, choose = extraction.want, extraction.choose
    terms: dict[NodeId, list[float]] = {
        intention: [] for desire in choose for intention in intentions[desire]
    }
    # (person, path weight, edges left after it, persons on the path)
    stack = [(p, w, max_edges - 1, (p,)) for p, w in extraction.persons] if max_edges >= 3 else []
    while stack:
        person, weight, edges_left, on_path = stack.pop()
        for desire in desires[person]:
            choose_weight = choose.get(desire)  # None past the depth budget
            if choose_weight is not None:
                path_weight = weight * want[desire] * choose_weight
                for intention in intentions[desire]:
                    terms[intention].append(path_weight)
        if edges_left > 2:  # a relative's intentions are three edges on
            for relative, relative_weight in relatives[person]:
                if relative not in on_path and depths[relative] < depth:
                    stack.append(
                        (relative, weight * relative_weight, edges_left - 1, on_path + (relative,))
                    )
    sums = {}
    for node_id in sorted(terms):  # the last intention naming an option wins
        node = graph.nodes[node_id]
        sums[(node.choice_set, node.label)] = math.fsum(terms[node_id])
    return sums


def raw_scores(
    subgraph: BehavioralSubgraph | Extraction,
    choice_set: ChoiceCategorySet,
    max_edges: int = DEFAULT_MAX_PATH_EDGES,
) -> dict[str, float]:
    """Raw score of every option of ``choice_set``: the fsum of its path weights.

    The path sums come from one walk (see the module docstring). Options
    that no path reaches score 0.0.
    """
    if isinstance(subgraph, Extraction):
        sums = subgraph.path_sums.get(max_edges)
        if sums is None:
            sums = subgraph.path_sums[max_edges] = _walk_graph(subgraph, max_edges)
    else:
        sums = _walk_paths(subgraph, max_edges)
    name = choice_set.name
    return {option: sums.get((name, option), 0.0) for option in choice_set.options}


def prior_distribution(
    subgraph: BehavioralSubgraph | Extraction,
    choice_set: ChoiceCategorySet,
    max_edges: int = DEFAULT_MAX_PATH_EDGES,
    epsilon: float = DEFAULT_PRIOR_EPSILON,
) -> PreferenceDistribution:
    """Normalized preference prior over every option of ``choice_set``.

    Options whose intention node is absent from the subgraph score 0.
    ``epsilon`` is added to every raw score before normalizing; if the
    total mass is still zero the result is uniform with the degenerate
    flag set.
    """
    if not 0 <= epsilon < math.inf:  # NaN fails too
        raise ValueError("epsilon must be finite and >= 0")
    scores, total = scaled_fsum({
        option: score + epsilon
        for option, score in raw_scores(subgraph, choice_set, max_edges).items()
    })
    if total <= 0.0:
        return uniform_distribution(choice_set, degenerate=True)
    return PreferenceDistribution(
        choice_set, {o: s / total for o, s in scores.items()}
    )
