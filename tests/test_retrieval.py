import gc
import weakref

import numpy as np
import pytest

from preference_chain.behavior_graph import (
    BehaviorGraph,
    EdgeKind,
    GraphBuildConfig,
    NodeKind,
    build_from_records,
    desire_text,
    temporal_proximity,
)
from preference_chain.embedding import (
    HashEmbedder,
    hash_embed,
    profile_to_text,
    similarity_weight,
)
from preference_chain.errors import DimensionMismatch, EmptyGraph
from preference_chain.ingest import default_synthetic_spec, generate_synthetic
from preference_chain.pipeline import PreferenceChain
from preference_chain.retrieval import (
    AGENT_NODE_ID,
    QueryAgent,
    extract_subgraph,
    top_k_similar,
)

from tests.conftest import make_profile, make_record


def _agent(**kwargs) -> QueryAgent:
    defaults = dict(profile=make_profile(), trip_purpose="work", start_time=8)
    defaults.update(kwargs)
    return QueryAgent(**defaults)


def _build(records, both_fields=False):
    fields = ("primary_mode", "duration_minutes") if both_fields else ("primary_mode",)
    return build_from_records(records, GraphBuildConfig(intention_fields=fields))


# ----------------------------------------------------------------------
# top_k_similar
# ----------------------------------------------------------------------


def test_top_k_matches_full_scan_oracle():
    records = generate_synthetic(default_synthetic_spec(), size=60, seed=21)
    graph = _build(records)
    agent = _agent()
    provider = HashEmbedder()

    query = hash_embed(profile_to_text(agent.profile))
    expected = []
    for person in graph.nodes_of_kind(NodeKind.PERSON):
        sim = similarity_weight(query, hash_embed(person.label))
        expected.append((person.id, sim))
    expected.sort(key=lambda t: (-t[1], t[0]))

    got = top_k_similar(graph, agent, 5, provider)
    assert [pid for pid, _ in got] == [pid for pid, _ in expected[:5]]
    for (_, s_got), (_, s_exp) in zip(got, expected[:5]):
        assert s_got == pytest.approx(s_exp, abs=1e-12)


class _TableEmbedder:
    """Looks every text up in a fixed table of vectors."""

    provider_id = "table"

    def __init__(self, table):
        self.table = table

    def embed(self, text):
        return self.table[text]


def test_top_k_matches_full_sort_on_tied_random_graphs():
    # Persons share a few distinct vectors, so similarities tie often, and
    # negative cosines clamp to 0.0. The oracle computes the similarities
    # with the same arithmetic and sorts every person.
    rng = np.random.default_rng(31)
    agent = _agent()
    query_text = profile_to_text(agent.profile)
    all_equal = zero_threshold = 0
    for trial in range(200):
        n = int(rng.integers(1, 25))
        vectors = rng.normal(size=(int(rng.integers(1, 5)), 4))
        graph = BehaviorGraph()
        table = {query_text: rng.normal(size=4)}
        for i in range(n):
            table[f"person {i}"] = vectors[rng.integers(len(vectors))]
            graph.add_node(NodeKind.PERSON, f"person {i}")
        persons = graph.nodes_of_kind(NodeKind.PERSON)
        matrix = np.vstack([table[p.label] / np.linalg.norm(table[p.label]) for p in persons])
        query = table[query_text] / np.linalg.norm(table[query_text])
        sims = [float(s) for s in np.clip(matrix @ query, 0.0, 1.0)]
        ranked = sorted(zip([p.id for p in persons], sims), key=lambda p: (-p[1], p[0]))
        positives = sum(s > 0.0 for s in sims)
        all_equal += len(set(sims)) == 1
        zero_threshold += 0 < positives < n
        for k in range(1, n + 2):
            assert top_k_similar(graph, agent, k, _TableEmbedder(table)) == ranked[:k]
    assert all_equal > 0 and zero_threshold > 0


class _ScaledHash:
    """Hash vectors times ``scale``: finite, but their squares over- or underflow."""

    def __init__(self, scale):
        self.scale = scale
        self.provider_id = f"hash-times-{scale}"

    def embed(self, text):
        return hash_embed(text) * self.scale


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e300, 1e-170])
def test_extreme_vector_scales_keep_retrieval_and_priors(scale):
    graph = _build(generate_synthetic(default_synthetic_spec(), size=60, seed=21), True)
    agent = _agent()
    expected = top_k_similar(graph, agent, 5, HashEmbedder())
    got = top_k_similar(graph, agent, 5, _ScaledHash(scale))
    assert [pid for pid, _ in got] == [pid for pid, _ in expected]
    for (_, s_got), (_, s_exp) in zip(got, expected):
        assert s_got == pytest.approx(s_exp, abs=1e-12)
    plain = PreferenceChain(graph).predict_all(agent)
    scaled = PreferenceChain(graph, _ScaledHash(scale)).predict_all(agent)
    for name, result in scaled.items():
        assert not result.prior.degenerate
        assert result.prior.probabilities == pytest.approx(
            plain[name].prior.probabilities, abs=1e-9
        )


def test_person_index_is_built_once_per_graph_and_freed_with_it():
    class CountingEmbedder(HashEmbedder):
        calls = 0

        def embed(self, text):
            self.calls += 1
            return super().embed(text)

    records = generate_synthetic(default_synthetic_spec(), size=30, seed=24)
    graph = _build(records)
    n_persons = len(graph.nodes_of_kind(NodeKind.PERSON))
    provider = CountingEmbedder()
    top_k_similar(graph, _agent(), 3, provider)
    assert provider.calls == n_persons + 1
    top_k_similar(graph, _agent(start_time=9), 3, provider)
    assert provider.calls == n_persons + 2  # only the query is embedded again
    top_k_similar(_build(records), _agent(), 3, provider)
    assert provider.calls == 2 * n_persons + 3  # a new graph builds its own index
    graph_ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert graph_ref() is None


def test_person_added_after_a_query_is_retrieved():
    graph = _build([make_record(age_group=age) for age in ("18-24", "45-54", "65+")])
    provider = HashEmbedder()
    before = top_k_similar(graph, _agent(), 2, provider)
    profile = make_profile()  # the agent's own profile
    added = graph.add_node(NodeKind.PERSON, profile_to_text(profile), profile.as_dict())
    after = top_k_similar(graph, _agent(), 2, provider)
    assert [pid for pid, _ in after] == [added, before[0][0]]
    assert after[0][1] == pytest.approx(1.0)


class _OnesEmbedder:
    """All-ones vectors of a length chosen per text."""

    def __init__(self, provider_id, length_of):
        self.provider_id = provider_id
        self.length_of = length_of

    def embed(self, text):
        return np.ones(self.length_of(text))


def test_embeddings_of_different_lengths_raise_dimension_mismatch():
    graph = _build([make_record(age_group=age) for age in ("18-24", "45-54")])
    query_text = profile_to_text(make_profile())
    persons_differ = _OnesEmbedder("persons", lambda text: 9 if "18-24" in text else 8)
    query_differs = _OnesEmbedder("query", lambda text: 9 if text == query_text else 8)
    for provider in (persons_differ, query_differs):
        with pytest.raises(DimensionMismatch):
            top_k_similar(graph, _agent(), 1, provider)


def test_top_k_prefix_property():
    records = generate_synthetic(default_synthetic_spec(), size=40, seed=22)
    graph = _build(records)
    provider = HashEmbedder()
    agent = _agent()
    prev = []
    for k in range(1, 8):
        cur = top_k_similar(graph, agent, k, provider)
        assert len(cur) == min(k, len(graph.nodes_of_kind(NodeKind.PERSON)))
        assert cur[: len(prev)] == prev
        prev = cur


def test_top_k_exact_profile_match_ranks_first():
    records = [
        make_record(),  # same profile as the default agent
        make_record(age_group="65+", employment_status="not_in_labor_force"),
    ]
    graph = _build(records)
    got = top_k_similar(graph, _agent(), 2, HashEmbedder())
    assert got[0][1] == pytest.approx(1.0)
    assert graph.node(got[0][0]).label == profile_to_text(make_profile())
    assert got[1][1] < got[0][1]


def test_top_k_ties_break_by_node_id():
    graph = BehaviorGraph()
    # two Person nodes with the same label -> identical similarity
    a = graph.add_node(NodeKind.PERSON, "age_group: 25-34")
    b = graph.add_node(NodeKind.PERSON, "age_group: 25-34")
    got = top_k_similar(graph, _agent(), 2, HashEmbedder())
    assert [pid for pid, _ in got] == [a, b]


def test_top_k_empty_graph_raises():
    graph = build_from_records([])
    with pytest.raises(EmptyGraph):
        top_k_similar(graph, _agent(), 3, HashEmbedder())
    with pytest.raises(ValueError):
        top_k_similar(graph, _agent(), 0, HashEmbedder())


def test_top_k_larger_than_population_returns_all():
    records = generate_synthetic(default_synthetic_spec(), size=6, seed=23)
    graph = _build(records)
    n_persons = len(graph.nodes_of_kind(NodeKind.PERSON))
    got = top_k_similar(graph, _agent(), 50, HashEmbedder())
    assert len(got) == n_persons


# ----------------------------------------------------------------------
# extract_subgraph
# ----------------------------------------------------------------------


def _reachable_oracle(graph, seeds, depth):
    """Independent BFS: minimal edge distance <= depth over traversable kinds."""
    traversable = {EdgeKind.RELATIVE_OF, EdgeKind.WANT_TO, EdgeKind.CHOOSE_TO}
    dist = {s: 0 for s in seeds}
    frontier = list(seeds)
    for d in range(depth):
        nxt = []
        for node_id in frontier:
            for edge in graph.out_edges[node_id]:
                if edge.kind in traversable and edge.target not in dist:
                    dist[edge.target] = d + 1
                    nxt.append(edge.target)
        frontier = nxt
    return dist


def test_subgraph_nodes_match_bfs_oracle():
    records = generate_synthetic(default_synthetic_spec(), size=50, seed=31)
    # add household links so relative_of hops matter
    for i, r in enumerate(records[:20]):
        records[i] = make_record(
            profile=r.profile,
            trip_purpose=r.trip_purpose,
            start_time=r.start_time,
            primary_mode=r.primary_mode,
            duration_minutes=r.duration_minutes,
            household_id=f"h{i % 7}",
        )
    graph = _build(records, both_fields=True)
    agent = _agent()
    persons = top_k_similar(graph, agent, 5, HashEmbedder())
    for depth in (1, 2, 3):
        sub = extract_subgraph(graph, agent, persons, HashEmbedder(), depth=depth)
        expected = set(_reachable_oracle(graph, [p for p, _ in persons], depth))
        got = set(sub.nodes) - {AGENT_NODE_ID}
        assert got == expected


def test_subgraph_depth_three_reaches_relatives_intentions():
    # p1 --relative_of--> p2 --want_to--> desire --choose_to--> intention
    records = [
        make_record(household_id="h", trip_purpose="work", start_time=8),
        make_record(
            household_id="h",
            age_group="45-54",
            trip_purpose="shop",
            start_time=17,
            primary_mode="walking",
        ),
    ]
    graph = _build(records)
    agent = _agent()
    p1 = top_k_similar(graph, agent, 1, HashEmbedder())
    assert graph.node(p1[0][0]).attributes["age_group"] == "25-34"

    sub3 = extract_subgraph(graph, agent, p1, HashEmbedder(), depth=3)
    labels3 = {n.label for n in sub3.nodes.values() if n.kind == NodeKind.INTENTION}
    # relative's intention is exactly 3 edges away, so depth 3 includes it
    assert labels3 == {"private_auto", "walking"}

    sub2 = extract_subgraph(graph, agent, p1, HashEmbedder(), depth=2)
    labels2 = {n.label for n in sub2.nodes.values() if n.kind == NodeKind.INTENTION}
    assert labels2 == {"private_auto"}


def test_subgraph_edges_only_from_interior_nodes():
    records = generate_synthetic(default_synthetic_spec(), size=30, seed=32)
    graph = _build(records)
    agent = _agent()
    persons = top_k_similar(graph, agent, 5, HashEmbedder())
    depth = 3
    sub = extract_subgraph(graph, agent, persons, HashEmbedder(), depth=depth)
    dist = _reachable_oracle(graph, [p for p, _ in persons], depth)
    for source, edges in sub.out_edges.items():
        if source == AGENT_NODE_ID:
            continue
        if edges:
            assert dist[source] <= depth - 1
        for target, _, _ in edges:
            assert target in sub.nodes


def test_subgraph_finalizes_weights():
    records = [
        make_record(trip_purpose="work", start_time=10),
        make_record(trip_purpose="shop", start_time=17),
    ]
    graph = _build(records)
    agent = _agent(trip_purpose="work", start_time=8)
    persons = top_k_similar(graph, agent, 1, HashEmbedder())
    sub = extract_subgraph(graph, agent, persons, HashEmbedder(), tau=4.0)

    agent_vec = hash_embed(agent.desire_text())
    by_kind = {}
    for source, edges in sub.out_edges.items():
        for target, kind, weight in edges:
            by_kind.setdefault(kind, []).append((source, target, weight))

    assert [
        (s, t, w) for s, t, w in by_kind[EdgeKind.SIMILAR_TO]
    ] == [(AGENT_NODE_ID, persons[0][0], persons[0][1])]

    for source, target, weight in by_kind[EdgeKind.WANT_TO]:
        stored = hash_embed(sub.nodes[target].label)
        assert weight == pytest.approx(similarity_weight(agent_vec, stored))

    choose = {
        sub.nodes[source].label: weight
        for source, target, weight in by_kind[EdgeKind.CHOOSE_TO]
    }
    assert choose[desire_text("work", 10)] == pytest.approx(temporal_proximity(8, 10))
    assert choose[desire_text("shop", 17)] == pytest.approx(temporal_proximity(8, 17))
    assert all(0.0 <= w <= 1.0 for w in sub.weights())


def test_subgraph_keeps_parallel_choose_edges():
    # same desire observed twice with the same mode -> two parallel edges
    records = [make_record(), make_record()]
    graph = _build(records)
    agent = _agent()
    embedder = HashEmbedder()
    sub = extract_subgraph(graph, agent, top_k_similar(graph, agent, 1, embedder), embedder)
    choose = [
        (s, t)
        for s, edges in sub.out_edges.items()
        for t, kind, _ in edges
        if kind == EdgeKind.CHOOSE_TO
    ]
    assert len(choose) == 2
    assert len(set(choose)) == 1


def test_subgraph_agent_node_and_args():
    records = [make_record()]
    graph = _build(records)
    agent = _agent()
    persons = top_k_similar(graph, agent, 1, HashEmbedder())
    sub = extract_subgraph(graph, agent, persons, HashEmbedder())
    assert sub.nodes[AGENT_NODE_ID].kind == NodeKind.AGENT
    assert sub.similar_persons == persons
    with pytest.raises(ValueError):
        extract_subgraph(graph, agent, [], HashEmbedder())
    with pytest.raises(ValueError):
        extract_subgraph(graph, agent, persons, HashEmbedder(), depth=0)


def test_subgraph_deterministic():
    records = generate_synthetic(default_synthetic_spec(), size=40, seed=33)
    graph = _build(records, both_fields=True)
    agent = _agent(trip_purpose="shop", start_time=17)
    persons = top_k_similar(graph, agent, 5, HashEmbedder())
    s1 = extract_subgraph(graph, agent, persons, HashEmbedder())
    s2 = extract_subgraph(graph, agent, persons, HashEmbedder())
    assert list(s1.nodes) == list(s2.nodes)
    assert s1.out_edges == s2.out_edges


def test_query_agent_desire_text():
    agent = _agent(trip_purpose="eat", start_time=12)
    assert agent.desire_text() == "purpose: eat; start_time: 12"
