import itertools
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
    desire_text,
)
from preference_chain.embedding import HashEmbedder
from preference_chain.ingest import default_synthetic_spec, generate_synthetic
from preference_chain.preference import (
    PreferenceDistribution,
    prior_distribution,
    raw_scores,
    uniform_distribution,
)
from preference_chain.retrieval import (
    AGENT_NODE_ID,
    BehavioralSubgraph,
    QueryAgent,
    extract_subgraph,
    top_k_similar,
)
from preference_chain.schema import (
    INPUT_CATEGORIES,
    PROFILE_FIELDS,
    START_TIMES,
    TRIP_PURPOSES,
    AgentProfile,
    ChoiceCategorySet,
)


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


_WALKING = ChoiceCategorySet("mode", ("walking",))


def test_single_chain_path_weight():
    sub = _chain_subgraph()
    # 0.9 * 1.0 * 0.8 * 0.5
    assert raw_scores(sub, _WALKING, max_edges=4) == {"walking": pytest.approx(0.36)}
    assert raw_scores(sub, _WALKING) == {"walking": pytest.approx(0.36)}


def test_chain_cut_by_max_edges():
    sub = _chain_subgraph()
    assert raw_scores(sub, _WALKING, max_edges=3) == {"walking": 0.0}


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
    assert raw_scores(sub, _WALKING) == {"walking": pytest.approx(0.5)}


def test_raw_scores_walk_through_intentions():
    """A path may pass one intention on its way to another, never one twice."""
    sub = _chain_subgraph()
    sub.add_node(4, NodeKind.INTENTION, "biking", choice_set="mode")
    sub.add_node(5, NodeKind.INTENTION, "walking", choice_set="duration")
    sub.add_edge(2, 4, EdgeKind.CHOOSE_TO, 0.5)
    sub.add_edge(4, 3, EdgeKind.RELATIVE_OF, 0.1)
    sub.add_edge(3, 4, EdgeKind.RELATIVE_OF, 0.2)
    sub.add_edge(3, 5, EdgeKind.RELATIVE_OF, 1.0)
    modes = ChoiceCategorySet("mode", ("walking", "biking", "bus"))
    scores = raw_scores(sub, modes, max_edges=5)
    assert scores == {
        "walking": pytest.approx(0.36 + 0.36 * 0.1),
        "biking": pytest.approx(0.36 + 0.36 * 0.2),
        "bus": 0.0,
    }
    # the duration intention labelled "walking" scores only for its own set;
    # its one 5-edge path passes the mode intention
    durations = ChoiceCategorySet("duration", ("walking",))
    assert raw_scores(sub, durations, max_edges=5) == {"walking": pytest.approx(0.36)}


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
        options = ChoiceCategorySet("mode", tuple(sub.nodes[i].label for i in intents))
        expected = {
            sub.nodes[i].label: math.fsum(_brute_force_paths(sub, i, max_edges))
            for i in intents
        }
        # fsum rounds correctly and each product is taken in path order, so
        # the order in which paths are found cannot change a bit.
        assert raw_scores(sub, options, max_edges) == expected, (trial, max_edges)


def _per_choice_set_scores(subgraph, choice_set, max_edges):
    """The walk per choice set that ``raw_scores`` made before it shared one.

    Kept as the oracle of the memoised walk: only paths that end at an
    intention of ``choice_set`` are collected.
    """
    node_of = {  # option label -> node id; the last intention naming it wins
        n.label: n.id
        for n in subgraph.nodes.values()
        if n.kind == NodeKind.INTENTION and n.choice_set == choice_set.name
    }
    option_of = {node_id: option for option, node_id in node_of.items() if option in choice_set}
    weights = {option: [] for option in choice_set.options}
    on_path = {subgraph.agent_id}

    def walk(current, weight, edges_left):
        for target, _kind, w in subgraph.out_edges.get(current, ()):
            if target in on_path:
                continue
            path_weight = weight * w
            option = option_of.get(target)
            if option is not None:
                weights[option].append(path_weight)
            if edges_left > 1:
                on_path.add(target)
                walk(target, path_weight, edges_left - 1)
                on_path.remove(target)

    if max_edges >= 1:
        walk(subgraph.agent_id, 1.0, max_edges)
    return {option: math.fsum(ws) for option, ws in weights.items()}


def _random_agent(rng: random.Random) -> QueryAgent:
    profile = AgentProfile(**{f: rng.choice(INPUT_CATEGORIES[f]) for f in PROFILE_FIELDS})
    return QueryAgent(profile, rng.choice(TRIP_PURPOSES), int(rng.choice(START_TIMES)))


_BOTH_FIELDS = GraphBuildConfig(intention_fields=("primary_mode", "duration_minutes"))


def _extract(graph, agent, provider):
    return extract_subgraph(graph, agent, top_k_similar(graph, agent, 5, provider), provider)


def test_cached_weights_and_scores_equal_a_fresh_graph():
    records = generate_synthetic(default_synthetic_spec(), size=150, seed=3)
    warm = build_from_records(records, _BOTH_FIELDS)
    provider = HashEmbedder()
    rng = random.Random(808)
    agents = [_random_agent(rng) for _ in range(40)]
    for agent in agents:
        _extract(warm, agent, provider)
    table = warm._desire_weights[provider.provider_id]
    filled = dict(table)
    for agent in agents:
        sub = _extract(warm, agent, provider)
        fresh = _extract(build_from_records(records, _BOTH_FIELDS), agent, HashEmbedder())
        assert sub.nodes == fresh.nodes
        # repr round-trips every float, so equal reprs are equal bits
        assert repr(sub.out_edges) == repr(fresh.out_edges)
        for max_edges in range(1, 6):
            for choice_set in warm.choice_sets.values():
                scores = raw_scores(sub, choice_set, max_edges)
                assert repr(scores) == repr(raw_scores(fresh, choice_set, max_edges))
                assert repr(scores) == repr(_per_choice_set_scores(fresh, choice_set, max_edges))
    assert table == filled  # the second round read every want_to weight from the table


class _OtherHash(HashEmbedder):
    """The hash vectors under a second provider id."""

    provider_id = "hash-other"


def test_desire_weights_are_kept_per_provider():
    records = generate_synthetic(default_synthetic_spec(), size=60, seed=5)
    graph = build_from_records(records, _BOTH_FIELDS)
    agent = _random_agent(random.Random(2))
    first, second = HashEmbedder(), _OtherHash()
    persons = top_k_similar(graph, agent, 5, first)
    extract_subgraph(graph, agent, persons, first)
    tables = graph._desire_weights
    # Mark the first provider's entries: the second one must not read them.
    tables["hash-256"] = dict.fromkeys(tables["hash-256"], 0.125)
    second_sub = extract_subgraph(graph, agent, persons, second)
    fresh = build_from_records(records, _BOTH_FIELDS)
    assert repr(second_sub.out_edges) == repr(
        extract_subgraph(fresh, agent, persons, _OtherHash()).out_edges
    )
    assert set(tables) == {"hash-256", "hash-other"}
    assert tables["hash-256"].keys() == tables["hash-other"].keys()
    assert set(tables["hash-other"].values()) != {0.125}
    want_to = [
        w
        for edges in extract_subgraph(graph, agent, persons, first).out_edges.values()
        for _, kind, w in edges
        if kind == EdgeKind.WANT_TO
    ]
    assert want_to and set(want_to) == {0.125}  # the first provider reads its own entries


def test_subgraph_edits_drop_the_walk():
    sub = _chain_subgraph()
    assert raw_scores(sub, _WALKING) == {"walking": pytest.approx(0.36)}
    sub.add_edge(0, 2, EdgeKind.WANT_TO, 0.5)  # a second path: 0.9 * 0.5 * 0.5
    assert raw_scores(sub, _WALKING) == _per_choice_set_scores(sub, _WALKING, 4)
    assert raw_scores(sub, _WALKING) == {"walking": pytest.approx(0.585)}
    sub.add_node(4, NodeKind.INTENTION, "walking", choice_set="mode")  # now the option's node
    assert raw_scores(sub, _WALKING) == {"walking": 0.0}
    sub.add_edge(2, 4, EdgeKind.CHOOSE_TO, 1.0)
    assert raw_scores(sub, _WALKING) == _per_choice_set_scores(sub, _WALKING, 4)
    assert raw_scores(sub, _WALKING, 3) == _per_choice_set_scores(sub, _WALKING, 3)


def test_a_hand_built_subgraph_edited_through_its_edges_is_scored_anew():
    sub = _chain_subgraph()
    sub.add_node(4, NodeKind.INTENTION, "walking", choice_set="mode")  # now the option's node
    assert raw_scores(sub, _WALKING) == {"walking": 0.0}
    sub.out_edges[2].append((4, EdgeKind.CHOOSE_TO, 1.0))
    assert raw_scores(sub, _WALKING) == {"walking": pytest.approx(0.72)}
    sub.out_edges[0].append((2, EdgeKind.WANT_TO, 0.5))  # a second path: 0.9 * 0.5 * 1.0
    assert raw_scores(sub, _WALKING) == {"walking": pytest.approx(1.17)}
    assert raw_scores(sub, _WALKING) == _per_choice_set_scores(sub, _WALKING, 4)


# The choice sets that the intentions of ``_random_behavior_graph`` name.
RANDOM_GRAPH_CHOICE_SETS = {
    "mode": ChoiceCategorySet("mode", ("walk", "bike", "drive")),
    "time": ChoiceCategorySet("time", ("short", "long")),
}


def _random_behavior_graph(rng: random.Random):
    """A graph built through ``add_node``/``add_edge`` with every shape the walk meets.

    Households are relative_of chains and cycles; want_to and choose_to
    edges repeat (parallel edges); persons share desires; and some options
    are named by two intentions, created in random order among the others.
    Its intentions name the options of ``RANDOM_GRAPH_CHOICE_SETS``.
    """
    graph = BehaviorGraph()
    persons = [graph.add_node(NodeKind.PERSON, f"person {i}") for i in range(rng.randint(2, 7))]
    intentions = [
        (choice_set.name, option)
        for choice_set in RANDOM_GRAPH_CHOICE_SETS.values()
        for option in choice_set.options
        for _ in range(rng.choice((1, 1, 2)))
    ]
    rng.shuffle(intentions)
    desires = []
    for i, (name, option) in enumerate(intentions):
        graph.add_node(NodeKind.INTENTION, option, choice_set=name)
        if i == 0 or rng.random() < 0.5:
            hour = rng.randrange(24)
            desires.append(
                graph.add_node(
                    NodeKind.DESIRE,
                    desire_text(rng.choice(TRIP_PURPOSES[:3]), hour),
                    start_time=hour,
                )
            )
    intention_ids = [n.id for n in graph.nodes if n.kind == NodeKind.INTENTION]
    household = rng.sample(persons, rng.randint(2, len(persons)))
    for a, b in zip(household, household[1:] + household[:1]):  # a cycle
        graph.add_edge(a, b, EdgeKind.RELATIVE_OF, rng.random())
        if rng.random() < 0.5:
            graph.add_edge(b, a, EdgeKind.RELATIVE_OF, rng.random())
    for person in persons:
        for desire in rng.choices(desires, k=rng.randint(0, 3)):  # shared and repeated
            graph.add_edge(person, desire, EdgeKind.WANT_TO, 1.0)
    for desire in desires:
        for intention in rng.choices(intention_ids, k=rng.randint(0, 4)):
            graph.add_edge(desire, intention, EdgeKind.CHOOSE_TO, 1.0)
    return graph, persons


def _scoring_node(subgraph, choice_set, option):
    """The last intention of ``subgraph`` naming the option, or None."""
    found = None
    for node in subgraph.nodes.values():
        if node.kind == NodeKind.INTENTION and (node.choice_set, node.label) == (choice_set.name, option):
            found = node.id
    return found


def test_graph_walk_equals_the_copy_walk_and_brute_force():
    rng = random.Random(1507)
    provider = HashEmbedder()
    seen = dict.fromkeys(
        ("relative hop", "two relative hops", "parallel choose_to", "shared desire", "twin",
         "score above 0"),
        0,
    )
    for trial in range(100):
        graph, persons = _random_behavior_graph(rng)
        agent = _random_agent(rng)
        retrieved = [(p, rng.random()) for p in rng.sample(persons, rng.randint(1, min(3, len(persons))))]
        for depth in range(1, 5):
            sub = extract_subgraph(graph, agent, retrieved, provider, depth=depth, tau=3.0)
            scores = {
                (choice_set.name, max_edges): raw_scores(sub, choice_set, max_edges)
                for choice_set in RANDOM_GRAPH_CHOICE_SETS.values()
                for max_edges in range(1, 6)
            }
            copy = BehavioralSubgraph(nodes=sub.nodes, out_edges=sub.out_edges)
            for (name, max_edges), got in scores.items():
                choice_set = RANDOM_GRAPH_CHOICE_SETS[name]
                expected = {}
                for option in choice_set.options:
                    node_id = _scoring_node(copy, choice_set, option)
                    paths = [] if node_id is None else _brute_force_paths(copy, node_id, max_edges)
                    expected[option] = math.fsum(paths)
                # repr round-trips every float, so equal reprs are equal bits
                assert repr(got) == repr(raw_scores(copy, choice_set, max_edges))
                assert repr(got) == repr(expected), (trial, depth, max_edges)
                for epsilon in (0.0, 0.1):
                    assert repr(prior_distribution(sub, choice_set, max_edges, epsilon)) == repr(
                        prior_distribution(copy, choice_set, max_edges, epsilon)
                    ), (trial, depth, max_edges, epsilon)
                seen["score above 0"] += max(got.values()) > 0.0
            for name in RANDOM_GRAPH_CHOICE_SETS:
                seen["relative hop"] += scores[name, 4] != scores[name, 3]
                seen["two relative hops"] += scores[name, 5] != scores[name, 4]
            edges = [(s, t, k) for s, out in copy.out_edges.items() for t, k, _ in out]
            choose = [e for e in edges if e[2] == EdgeKind.CHOOSE_TO]
            seen["parallel choose_to"] += len(choose) - len(set(choose))
            wanted = [t for _, t, k in edges if k == EdgeKind.WANT_TO]
            seen["shared desire"] += len(wanted) - len(set(wanted))
            keys = [(n.choice_set, n.label) for n in copy.nodes.values() if n.kind == NodeKind.INTENTION]
            seen["twin"] += len(keys) - len(set(keys))
    assert all(seen.values()), seen  # the graphs exercised every shape


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
    # -1e-12 leaves both scores of (a, b) positive: only the epsilon check refuses it
    two = ChoiceCategorySet("mode", ("a", "b"))
    assert min(raw_scores(sub, two).values()) > 1e-12
    with pytest.raises(ValueError, match="epsilon"):
        prior_distribution(sub, two, epsilon=-1e-12)


def test_prior_with_an_epsilon_near_the_float_limit_is_finite_and_normalized():
    sub = _two_option_subgraph(0.6, 0.2)
    dist = prior_distribution(sub, _MODES, epsilon=1e308)  # the plain sum overflows
    assert all(math.isfinite(p) for p in dist.probabilities.values())
    assert math.fsum(dist.probabilities.values()) == pytest.approx(1.0)
    assert dist.probabilities == pytest.approx({o: 1 / 3 for o in _MODES.options})
    for epsilon in (math.inf, math.nan):
        with pytest.raises(ValueError):
            prior_distribution(sub, _MODES, epsilon=epsilon)


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


def test_distribution_rejects_options_outside_its_choice_set():
    modes = ChoiceCategorySet("mode", ("walk", "bike", "drive"))
    with pytest.raises(ValueError, match=r"outside its choice set \['teleport'\]"):
        PreferenceDistribution(modes, {"walk": 0.3, "bike": 0.3, "drive": 0.3, "teleport": 0.1})
    with pytest.raises(ValueError, match="missing options"):  # a missing option is named first
        PreferenceDistribution(modes, {"walk": 0.5, "bike": 0.5, "teleport": 0.0})


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


def _numpy_sample(dist, rng):
    """The sampler as numpy: cumsum, then searchsorted to the right."""
    cumulative = np.cumsum(dist.as_array())
    idx = int(np.searchsorted(cumulative, rng.random(), side="right"))
    return dist.choice_set.options[min(idx, len(dist.choice_set) - 1)]


class _FixedDraw:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_sampling_equals_numpy_cumsum_and_searchsorted():
    rng = random.Random(17)
    draws = np.random.default_rng(17)
    for _ in range(400):
        options = tuple("abcdefg"[: rng.randint(1, 7)])
        kind = rng.random()
        if kind < 0.25:  # a point mass
            weights = [0.0] * len(options)
            weights[rng.randrange(len(options))] = 1.0
        else:  # with a zero in about a third of the options
            weights = [0.0 if rng.random() < 0.3 else rng.random() for _ in options]
            if not any(weights):
                weights[0] = 1.0
        total = math.fsum(weights)
        dist = PreferenceDistribution(
            ChoiceCategorySet("s", options), {o: w / total for o, w in zip(options, weights)}
        )
        cumulative = np.cumsum(dist.as_array()).tolist()
        # draws at every cumulative boundary and a float to either side
        values = [0.0, *draws.random(5).tolist()]
        for c in cumulative:
            values += [c, math.nextafter(c, 0.0), math.nextafter(c, 2.0)]
        for value in values:
            assert dist.sample(_FixedDraw(value)) == _numpy_sample(dist, _FixedDraw(value))


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
