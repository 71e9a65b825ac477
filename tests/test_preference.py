import itertools
import math

import numpy as np
import pytest

from preference_chain.behavior_graph import EdgeKind, NodeKind
from preference_chain.errors import NotAnIntention
from preference_chain.preference import (
    PreferenceDistribution,
    enumerate_paths,
    prior_distribution,
    raw_score,
    uniform_distribution,
)
from preference_chain.retrieval import AGENT_NODE_ID, BehavioralSubgraph
from preference_chain.schema import ChoiceCategorySet


def _chain_subgraph():
    """agent -> person -> desire -> intention with the textbook weights."""
    sub = BehavioralSubgraph()
    sub.add_node(AGENT_NODE_ID, NodeKind.AGENT, "agent")
    sub.add_node(0, NodeKind.PERSON, "p0")
    sub.add_node(1, NodeKind.PERSON, "p1")
    sub.add_node(2, NodeKind.DESIRE, "d")
    sub.add_node(3, NodeKind.INTENTION, "walking", choice_set="mode")
    sub.add_edge(AGENT_NODE_ID, 0, EdgeKind.SIMILAR_TO, 0.9)
    sub.add_edge(0, 1, EdgeKind.RELATIVE_OF, 1.0)
    sub.add_edge(1, 2, EdgeKind.WANT_TO, 0.8)
    sub.add_edge(2, 3, EdgeKind.CHOOSE_TO, 0.5)
    return sub


def test_single_chain_path_weight():
    sub = _chain_subgraph()
    paths = enumerate_paths(sub, 3, max_edges=4)
    assert len(paths) == 1
    # 0.9 * 1.0 * 0.8 * 0.5
    assert paths[0].weight == pytest.approx(0.36)
    assert paths[0].node_sequence() == [AGENT_NODE_ID, 0, 1, 2, 3]
    assert raw_score(sub, 3) == pytest.approx(0.36)


def test_chain_cut_by_max_edges():
    sub = _chain_subgraph()
    assert enumerate_paths(sub, 3, max_edges=3) == []
    assert raw_score(sub, 3, max_edges=3) == 0.0


def test_not_an_intention():
    sub = _chain_subgraph()
    with pytest.raises(NotAnIntention):
        enumerate_paths(sub, 2)
    with pytest.raises(NotAnIntention):
        enumerate_paths(sub, 99)


def test_parallel_edges_each_contribute():
    sub = BehavioralSubgraph()
    sub.add_node(AGENT_NODE_ID, NodeKind.AGENT, "agent")
    sub.add_node(0, NodeKind.PERSON, "p")
    sub.add_node(1, NodeKind.DESIRE, "d")
    sub.add_node(2, NodeKind.INTENTION, "walking", choice_set="mode")
    sub.add_edge(AGENT_NODE_ID, 0, EdgeKind.SIMILAR_TO, 1.0)
    sub.add_edge(0, 1, EdgeKind.WANT_TO, 0.5)
    sub.add_edge(1, 2, EdgeKind.CHOOSE_TO, 0.4)
    sub.add_edge(1, 2, EdgeKind.CHOOSE_TO, 0.6)
    paths = enumerate_paths(sub, 2)
    assert sorted(p.weight for p in paths) == pytest.approx([0.2, 0.3])
    assert raw_score(sub, 2) == pytest.approx(0.5)


def _random_subgraph(rng, n_nodes):
    """Random DAG-ish subgraph; cycles allowed via relative_of back edges."""
    sub = BehavioralSubgraph()
    sub.add_node(AGENT_NODE_ID, NodeKind.AGENT, "agent")
    n_person = max(1, n_nodes // 3)
    n_desire = max(1, n_nodes // 3)
    n_intent = max(1, n_nodes - n_person - n_desire)
    persons = [sub.add_node(i, NodeKind.PERSON, f"p{i}") for i in range(n_person)]
    desires = [
        sub.add_node(n_person + i, NodeKind.DESIRE, f"d{i}") for i in range(n_desire)
    ]
    intents = [
        sub.add_node(n_person + n_desire + i, NodeKind.INTENTION, f"i{i}", "mode")
        for i in range(n_intent)
    ]
    for p in persons:
        if rng.random() < 0.8:
            sub.add_edge(AGENT_NODE_ID, p, EdgeKind.SIMILAR_TO, float(rng.random()))
    for a, b in itertools.permutations(persons, 2):
        if rng.random() < 0.3:
            sub.add_edge(a, b, EdgeKind.RELATIVE_OF, float(rng.random()))
    for p in persons:
        for d in desires:
            if rng.random() < 0.5:
                sub.add_edge(p, d, EdgeKind.WANT_TO, float(rng.random()))
    for d in desires:
        for i in intents:
            if rng.random() < 0.5:
                sub.add_edge(d, i, EdgeKind.CHOOSE_TO, float(rng.random()))
    return sub, intents


def _brute_force_paths(sub, target, max_edges):
    """Exhaustive edge-sequence enumeration, independent of the search code."""
    all_edges = [
        (u, t, k, w) for u, edges in sub.out_edges.items() for (t, k, w) in edges
    ]
    found = []

    def extend(path, visited):
        last = path[-1][1] if path else sub.agent_id
        if path and last == target:
            found.append(math.prod(w for (_, _, _, w) in path))
            return
        if len(path) == max_edges:
            return
        for edge in all_edges:
            if edge[0] == last and edge[1] not in visited:
                extend(path + [edge], visited | {edge[1]})

    extend([], {sub.agent_id})
    return found


def test_raw_score_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    for trial in range(20):
        sub, intents = _random_subgraph(rng, int(rng.integers(4, 12)))
        max_edges = int(rng.integers(1, 6))
        for target in intents:
            expected = math.fsum(_brute_force_paths(sub, target, max_edges))
            got = raw_score(sub, target, max_edges)
            assert got == pytest.approx(expected, abs=1e-12), (trial, target, max_edges)


def test_paths_are_simple_and_ordered():
    rng = np.random.default_rng(23)
    sub, intents = _random_subgraph(rng, 10)
    for target in intents:
        paths = enumerate_paths(sub, target, max_edges=5)
        seqs = [p.node_sequence() for p in paths]
        for seq in seqs:
            assert len(seq) == len(set(seq))  # simple
            assert seq[0] == AGENT_NODE_ID and seq[-1] == target
        assert seqs == sorted(seqs)


# ----------------------------------------------------------------------
# prior_distribution
# ----------------------------------------------------------------------

_MODES = ChoiceCategorySet("mode", ("a", "b", "c"))


def _two_option_subgraph(w_a, w_b):
    sub = BehavioralSubgraph()
    sub.add_node(AGENT_NODE_ID, NodeKind.AGENT, "agent")
    sub.add_node(0, NodeKind.PERSON, "p")
    sub.add_node(1, NodeKind.DESIRE, "d")
    sub.add_node(2, NodeKind.INTENTION, "a", choice_set="mode")
    sub.add_node(3, NodeKind.INTENTION, "b", choice_set="mode")
    sub.add_edge(AGENT_NODE_ID, 0, EdgeKind.SIMILAR_TO, 1.0)
    sub.add_edge(0, 1, EdgeKind.WANT_TO, 1.0)
    sub.add_edge(1, 2, EdgeKind.CHOOSE_TO, w_a)
    sub.add_edge(1, 3, EdgeKind.CHOOSE_TO, w_b)
    return sub


def test_prior_normalizes_scores():
    sub = _two_option_subgraph(0.6, 0.2)
    dist = prior_distribution(sub, _MODES)
    assert dist.probabilities["a"] == pytest.approx(0.75)
    assert dist.probabilities["b"] == pytest.approx(0.25)
    assert dist.probabilities["c"] == 0.0
    assert not dist.degenerate
    assert math.fsum(dist.probabilities.values()) == pytest.approx(1.0)


def test_prior_epsilon_smooths_missing_options():
    sub = _two_option_subgraph(0.6, 0.2)
    dist = prior_distribution(sub, _MODES, epsilon=0.1)
    assert dist.probabilities["c"] == pytest.approx(0.1 / 1.1)
    assert dist.probabilities["a"] == pytest.approx(0.7 / 1.1)
    with pytest.raises(ValueError):
        prior_distribution(sub, _MODES, epsilon=-0.1)


def test_prior_degenerate_uniform_when_no_paths():
    sub = BehavioralSubgraph()
    sub.add_node(AGENT_NODE_ID, NodeKind.AGENT, "agent")
    dist = prior_distribution(sub, _MODES)
    assert dist.degenerate
    assert all(p == pytest.approx(1 / 3) for p in dist.probabilities.values())


def test_prior_zero_weight_edges_keep_degenerate_off():
    sub = _two_option_subgraph(0.0, 0.0)
    dist = prior_distribution(sub, _MODES)
    assert dist.degenerate  # total mass is exactly zero


# ----------------------------------------------------------------------
# PreferenceDistribution
# ----------------------------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        PreferenceDistribution(_MODES, {"a": 1.0})  # missing options
    with pytest.raises(ValueError):
        PreferenceDistribution(_MODES, {"a": 0.6, "b": 0.6, "c": 0.0})
    with pytest.raises(ValueError):
        PreferenceDistribution(_MODES, {"a": 1.2, "b": -0.2, "c": 0.0})
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            PreferenceDistribution(_MODES, {"a": bad, "b": 0.0, "c": 0.0})


def test_distribution_array_in_option_order():
    dist = PreferenceDistribution(_MODES, {"b": 0.5, "a": 0.25, "c": 0.25})
    np.testing.assert_allclose(dist.as_array(), [0.25, 0.5, 0.25])


def test_sampling_frequencies_converge():
    dist = PreferenceDistribution(_MODES, {"a": 0.6, "b": 0.3, "c": 0.1})
    rng = np.random.default_rng(7)
    n = 20000
    counts = {"a": 0, "b": 0, "c": 0}
    for _ in range(n):
        counts[dist.sample(rng)] += 1
    assert counts["a"] / n == pytest.approx(0.6, abs=0.02)
    assert counts["b"] / n == pytest.approx(0.3, abs=0.02)
    assert counts["c"] / n == pytest.approx(0.1, abs=0.02)


def test_sampling_point_mass():
    dist = PreferenceDistribution(_MODES, {"a": 0.0, "b": 1.0, "c": 0.0})
    rng = np.random.default_rng(0)
    assert all(dist.sample(rng) == "b" for _ in range(50))


def test_uniform_distribution_helper():
    dist = uniform_distribution(_MODES)
    assert not dist.degenerate
    assert set(dist.probabilities) == {"a", "b", "c"}
    for p in dist.probabilities.values():
        assert p == pytest.approx(1 / 3)
