import gc
import random
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
    RemoteEmbedder,
    _norm,
    hash_embed,
    profile_to_text,
    similarity_weight,
)
from preference_chain.errors import (
    DimensionMismatch,
    EmptyGraph,
    EmptyText,
    FrozenGraph,
    ZeroVector,
    ProviderError,
    SchemaViolation,
    UnknownNode,
)
from preference_chain.ingest import default_synthetic_spec, generate_synthetic, read_csv
from preference_chain.pipeline import PreferenceChain
from preference_chain.preference import raw_scores
from preference_chain.retrieval import (
    AGENT_NODE_ID,
    BehavioralSubgraph,
    QueryAgent,
    _person_index,
    extract_subgraph,
    top_k_similar,
)

from preference_chain.schema import (
    INPUT_CATEGORIES,
    PRIMARY_MODE_SET,
    PROFILE_FIELDS,
    TRIP_PURPOSES,
)

from tests.conftest import make_profile, make_record
from tests.golden import DATA_DIR
from tests.test_preference import RANDOM_GRAPH_CHOICE_SETS, _random_behavior_graph


def _agent(**kwargs) -> QueryAgent:
    defaults = dict(profile=make_profile(), trip_purpose="work", start_time=8)
    defaults.update(kwargs)
    return QueryAgent(**defaults)


@pytest.mark.parametrize(
    "field,value",
    [("trip_purpose", "flying"), ("start_time", 24), ("start_time", True), ("context", 5)],
)
def test_query_agent_checks_itself_when_built(field, value):
    with pytest.raises(SchemaViolation) as err:
        _agent(**{field: value})
    assert err.value.column == field and err.value.value is value


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
        batches = rows = computed = 0

        def embed_batch(self, texts):  # every person index
            self.batches += 1
            self.rows += len(texts)
            return super().embed_batch(texts)

        def _compute(self, text):  # every embedding not read from the cache
            self.computed += 1
            return super()._compute(text)

    records = generate_synthetic(default_synthetic_spec(), size=30, seed=24)
    graph = _build(records)
    n_persons = len(graph.nodes_of_kind(NodeKind.PERSON))
    provider = CountingEmbedder()
    counts = lambda: (provider.batches, provider.rows, provider.computed)
    top_k_similar(graph, _agent(), 3, provider)
    assert counts() == (1, n_persons, 1)
    top_k_similar(graph, _agent(start_time=9), 3, provider)
    assert counts() == (1, n_persons, 1)  # the query's vector comes from the cache
    top_k_similar(_build(records), _agent(), 3, provider)
    assert counts() == (2, 2 * n_persons, 1)  # a new graph builds its own index
    graph_ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert graph_ref() is None


@pytest.mark.parametrize(
    "source", [f"{size}-seed{seed}" for seed in (0, 7) for size in (200, 1000, 5000)] + ["households"]
)
def test_the_batch_index_equals_the_per_label_index_bit_for_bit(source):
    if source == "households":
        records = read_csv(DATA_DIR / "predict_reference_households.csv")
    else:
        size, seed = source.split("-seed")
        records = generate_synthetic(default_synthetic_spec(), size=int(size), seed=int(seed))
    graph = build_from_records(records)
    per_label = []  # the reference: one label at a time, normalized twice
    for person in graph.nodes_of_kind(NodeKind.PERSON):
        vec, norm = _norm(hash_embed(person.label))
        per_label.append(vec / norm)
    _, matrix, _ = _person_index(graph, HashEmbedder())
    assert len(matrix) > 1
    assert matrix.tobytes() == np.vstack(per_label).tobytes()


def test_a_person_label_with_no_tokens_raises_empty_text_and_leaves_the_graph_unfrozen():
    graph = BehaviorGraph()
    graph.add_node(NodeKind.PERSON, profile_to_text(make_profile()))
    graph.add_node(NodeKind.PERSON, "; !!! ; ---")
    with pytest.raises(EmptyText):
        top_k_similar(graph, _agent(), 1, HashEmbedder())
    assert not graph._person_indexes


def test_the_provider_cache_keeps_no_person_vector():
    records = generate_synthetic(default_synthetic_spec(), size=60, seed=25)
    graph = _build(records)
    labels = {person.label for person in graph.nodes_of_kind(NodeKind.PERSON)}
    provider = HashEmbedder()
    member = QueryAgent(records[0].profile, "work", 8)  # its profile text is a label
    for agent in (_agent(), member):
        extract_subgraph(graph, agent, top_k_similar(graph, agent, 5, provider), provider)
    assert member.profile_text in labels and _agent().profile_text not in labels
    assert _agent().profile_text in provider._cache
    assert not labels & provider._cache.keys()


class _HashReplySession:
    """Answers each embedding request with the hash vector of its prompt."""

    def __init__(self):
        self.prompts = []

    def post(self, url, json=None, timeout=None):
        self.prompts.append(json["prompt"])
        reply = {"embedding": hash_embed(json["prompt"]).tolist()}
        return type("Reply", (), {"raise_for_status": lambda _: None, "json": lambda _: reply})()


def test_a_remote_provider_asks_for_each_text_once_across_graphs():
    # As in a sweep: nested reference sets, one graph each, one provider.
    records = generate_synthetic(default_synthetic_spec(), size=80, seed=27)
    session = _HashReplySession()
    provider = RemoteEmbedder("http://embed.invalid", "m", session=session)
    agents = [_agent(), QueryAgent(records[0].profile, "work", 8)]
    for n in (20, 40, 80):
        graph = _build(records[:n])
        for agent in agents:
            extract_subgraph(graph, agent, top_k_similar(graph, agent, 5, provider), provider)
    assert len(session.prompts) == len(set(session.prompts))
    assert {p.label for p in graph.nodes_of_kind(NodeKind.PERSON)} <= set(session.prompts)


def test_a_query_equal_to_a_label_reads_the_row_the_embedding_would_give():
    # ``spaced`` is the same graph with a space after each person label: the
    # same tokens, so the same hash vectors, but no label equals a profile
    # text, so each of its queries embeds the text.
    records = generate_synthetic(default_synthetic_spec(), size=300, seed=26)
    graph = _build(records)
    spaced = BehaviorGraph()
    for node in graph.nodes:
        label = node.label + " " if node.kind == NodeKind.PERSON else node.label
        spaced.add_node(node.kind, label, choice_set=node.choice_set, start_time=node.start_time)
    provider, spaced_provider = HashEmbedder(), HashEmbedder()
    profiles = list(dict.fromkeys(record.profile for record in records))
    assert len(profiles) == len(graph.nodes_of_kind(NodeKind.PERSON)) > 100
    for profile in profiles:
        agent = QueryAgent(profile, "work", 8)
        got = top_k_similar(graph, agent, 5, provider)
        # repr round-trips every float, so equal reprs are equal bits
        assert repr(got) == repr(top_k_similar(spaced, agent, 5, spaced_provider))
    assert not provider._cache and len(spaced_provider._cache) == len(profiles)


def test_a_queried_graph_refuses_a_new_person():
    graph = _build([make_record(age_group=age) for age in ("18-24", "45-54", "65+")])
    provider = HashEmbedder()
    before = top_k_similar(graph, _agent(), 2, provider)
    counts = (graph.node_count(), graph.edge_count())
    profile = make_profile()  # the agent's own profile
    with pytest.raises(FrozenGraph):
        graph.add_node(NodeKind.PERSON, profile_to_text(profile))
    assert (graph.node_count(), graph.edge_count()) == counts
    assert top_k_similar(graph, _agent(), 2, provider) == before


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


@pytest.mark.parametrize("provider", [HashEmbedder(), _ScaledHash(1e300)], ids=["hash", "1e300"])
def test_the_index_filled_in_place_equals_stacked_rows_bit_for_bit(provider):
    graph = _build(generate_synthetic(default_synthetic_spec(), size=60, seed=21))
    rows = []
    for person in graph.nodes_of_kind(NodeKind.PERSON):
        vec, norm = _norm(np.asarray(provider.embed(person.label), dtype=float))
        rows.append(vec / norm)
    ids, matrix, _ = _person_index(graph, provider)
    assert len(ids) == len(rows) > 1
    assert matrix.tobytes() == np.vstack(rows).tobytes()
    assert _person_index(_build([]), provider)[1].shape == (0, 1)


def test_a_person_embedded_to_the_zero_vector_raises_zero_vector():
    graph = _build([make_record(age_group=age) for age in ("18-24", "45-54")])
    labels = [person.label for person in graph.nodes_of_kind(NodeKind.PERSON)]
    provider = _TableEmbedder({labels[0]: np.ones(8), labels[1]: np.zeros(8)})
    with pytest.raises(ZeroVector):
        top_k_similar(graph, _agent(), 1, provider)
    assert not graph._person_indexes


def test_a_query_embedded_to_the_zero_vector_raises_zero_vector():
    graph = _build([make_record(age_group="18-24")])
    (person,) = graph.nodes_of_kind(NodeKind.PERSON)
    agent = _agent(profile=make_profile(age_group="45-54"))
    provider = _TableEmbedder({person.label: np.ones(8), agent.profile_text: np.zeros(8)})
    with pytest.raises(ZeroVector, match="query profile"):
        top_k_similar(graph, agent, 1, provider)


def test_extraction_starts_only_from_person_nodes():
    graph = _build([make_record()])
    (desire,) = graph.nodes_of_kind(NodeKind.DESIRE)
    with pytest.raises(UnknownNode, match="not a Person"):
        extract_subgraph(graph, _agent(), [(desire.id, 1.0)], HashEmbedder())


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


def _out_edges(graph):
    """Source id -> its edges, in ``graph.edges()`` order."""
    out_edges = {}
    for edge in graph.edges():
        out_edges.setdefault(edge.source, []).append(edge)
    return out_edges


def _reachable_oracle(graph, seeds, depth):
    """Independent BFS: minimal edge distance <= depth over traversable kinds."""
    traversable = {EdgeKind.RELATIVE_OF, EdgeKind.WANT_TO, EdgeKind.CHOOSE_TO}
    out_edges = _out_edges(graph)
    dist = {s: 0 for s in seeds}
    frontier = list(seeds)
    for d in range(depth):
        nxt = []
        for node_id in frontier:
            for edge in out_edges.get(node_id, ()):
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


def _household_records(rng: random.Random, size: int):
    """Records over few profiles, purposes and hours, most in households.

    Few distinct values make persons share households (relative_of edges)
    and repeat a desire with the same option (parallel choose_to edges).
    """
    few = {f: rng.sample(INPUT_CATEGORIES[f], 2) for f in PROFILE_FIELDS}
    purposes, hours = rng.sample(TRIP_PURPOSES, 3), rng.sample(range(24), 3)
    return [
        make_record(
            profile=make_profile(**{f: rng.choice(few[f]) for f in PROFILE_FIELDS}),
            trip_purpose=rng.choice(purposes),
            start_time=rng.choice(hours),
            primary_mode=rng.choice(("walking", "biking", "private_auto")),
            duration_minutes=rng.choice(("0-10", "10-20")),
            household_id=f"h{rng.randrange(4)}" if rng.random() < 0.7 else None,
        )
        for _ in range(size)
    ]


def _subgraph_by_add_calls(graph, agent, persons, depth, tau):
    """The subgraph built node by node and edge by edge, weights computed afresh."""
    best = _reachable_oracle(graph, [p for p, _ in persons], depth)
    provider = HashEmbedder()
    query_vec = provider.embed(agent.desire_text())
    sub = BehavioralSubgraph()
    sub.add_node(AGENT_NODE_ID, NodeKind.AGENT, profile_to_text(agent.profile))
    for node_id in sorted(best):
        node = graph.nodes[node_id]
        sub.add_node(node_id, node.kind, node.label, node.choice_set)
    for person_id, w_sim in persons:
        sub.add_edge(AGENT_NODE_ID, person_id, EdgeKind.SIMILAR_TO, w_sim)
    out_edges = _out_edges(graph)
    for node_id in sorted(best):
        if best[node_id] > depth - 1:
            continue
        for edge in out_edges.get(node_id, ()):
            if edge.kind == EdgeKind.RELATIVE_OF:
                weight = edge.weight
            elif edge.kind == EdgeKind.WANT_TO:
                target = provider.embed(graph.nodes[edge.target].label)
                weight = similarity_weight(query_vec, target)
            elif edge.kind == EdgeKind.CHOOSE_TO:
                hour = graph.nodes[node_id].start_time
                weight = temporal_proximity(agent.start_time, hour, tau)
            else:
                continue
            sub.add_edge(edge.source, edge.target, edge.kind, weight)
    return sub


def _node_facts(sub):
    return [(n.id, n.kind, n.label, n.choice_set) for n in sub.nodes.values()]


def _one_pass_inputs(rng: random.Random):
    """(graph, choice sets, agent, persons, provider): graphs built from
    records, then the seeded add-call graphs, whose desires are shared by
    persons and whose options may be named by twin intentions."""
    for _ in range(30):
        graph = _build(_household_records(rng, rng.randrange(8, 40)), both_fields=True)
        provider = HashEmbedder()
        agent = _agent(trip_purpose=rng.choice(TRIP_PURPOSES), start_time=rng.randrange(24))
        persons = top_k_similar(graph, agent, rng.randrange(1, 7), provider)
        yield graph, graph.choice_sets, agent, persons, provider
    for _ in range(30):
        graph, persons = _random_behavior_graph(rng)
        agent = _agent(trip_purpose=rng.choice(TRIP_PURPOSES[:3]), start_time=rng.randrange(24))
        chosen = rng.sample(persons, rng.randint(1, len(persons)))
        retrieved = [(p, rng.random()) for p in chosen]
        yield graph, RANDOM_GRAPH_CHOICE_SETS, agent, retrieved, HashEmbedder()


def test_one_pass_subgraph_equals_the_add_call_build():
    rng = random.Random(4242)
    shapes = (EdgeKind.RELATIVE_OF, "parallel choose_to", "shared desire", "twin", "score > 0")
    seen = dict.fromkeys(shapes, 0)
    for trial, (graph, choice_sets, agent, persons, provider) in enumerate(_one_pass_inputs(rng)):
        for depth in (1, 2, 3, 4):
            tau = rng.choice((0.5, 2.0, 4.0, 9.0))
            sub = extract_subgraph(graph, agent, persons, provider, depth=depth, tau=tau)
            ref = _subgraph_by_add_calls(graph, agent, persons, depth, tau)
            assert _node_facts(sub) == _node_facts(ref), (trial, depth)
            # repr round-trips every float, so equal reprs are equal bits
            assert repr(sub.out_edges) == repr(ref.out_edges), (trial, depth)
            for max_edges in range(1, 6):
                for choice_set in choice_sets.values():
                    scores = raw_scores(sub, choice_set, max_edges)
                    assert repr(scores) == repr(
                        raw_scores(ref, choice_set, max_edges)
                    ), (trial, depth, max_edges)
                    if choice_sets is RANDOM_GRAPH_CHOICE_SETS:
                        seen["score > 0"] += max(scores.values()) > 0.0
            edges = [(s, t, k) for s, out in sub.out_edges.items() for t, k, _ in out]
            seen[EdgeKind.RELATIVE_OF] += sum(k == EdgeKind.RELATIVE_OF for _, _, k in edges)
            choose = [e for e in edges if e[2] == EdgeKind.CHOOSE_TO]
            seen["parallel choose_to"] += len(choose) - len(set(choose))
            wanted = [t for _, t, k in edges if k == EdgeKind.WANT_TO]
            seen["shared desire"] += len(wanted) - len(set(wanted))
            keys = [(c, label) for _, kind, label, c in _node_facts(sub) if kind == NodeKind.INTENTION]
            seen["twin"] += len(keys) - len(set(keys))
    assert all(seen.values()), seen  # the graphs exercised every shape


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
    assert records[0].profile.age_group == "25-34"
    assert graph.node(p1[0][0]).label == profile_to_text(records[0].profile)

    sub3 = extract_subgraph(graph, agent, p1, HashEmbedder(), depth=3)
    labels3 = {n.label for n in sub3.nodes.values() if n.kind == NodeKind.INTENTION}
    # relative's intention is exactly 3 edges away, so depth 3 includes it
    assert labels3 == {"private_auto", "walking"}

    sub2 = extract_subgraph(graph, agent, p1, HashEmbedder(), depth=2)
    labels2 = {n.label for n in sub2.nodes.values() if n.kind == NodeKind.INTENTION}
    assert labels2 == {"private_auto"}


def test_a_search_deeper_than_the_graph_equals_one_at_depth_50():
    records = generate_synthetic(default_synthetic_spec(), size=30, seed=32)
    graph = _build(records)
    agent = _agent()
    persons = top_k_similar(graph, agent, 5, HashEmbedder())
    deep, shallow = (
        extract_subgraph(graph, agent, persons, HashEmbedder(), depth=depth)
        for depth in (10**6, 50)
    )
    assert deep.depths == shallow.depths and max(deep.depths.values()) < 50
    assert repr(deep.out_edges) == repr(shallow.out_edges)
    assert repr(raw_scores(deep, PRIMARY_MODE_SET)) == repr(raw_scores(shallow, PRIMARY_MODE_SET))


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
    assert all(0.0 <= w <= 1.0 for edges in sub.out_edges.values() for _, _, w in edges)


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


def test_a_hand_built_subgraph_edge_needs_both_ends():
    sub = BehavioralSubgraph()
    sub.add_node(AGENT_NODE_ID, NodeKind.AGENT, "agent")
    sub.add_node(0, NodeKind.PERSON, "p")
    with pytest.raises(UnknownNode, match="-1->7"):
        sub.add_edge(AGENT_NODE_ID, 7, EdgeKind.SIMILAR_TO, 0.5)
    assert sub.out_edges == {AGENT_NODE_ID: [], 0: []}


def test_subgraph_agent_node_and_args():
    records = [make_record()]
    graph = _build(records)
    agent = _agent()
    persons = top_k_similar(graph, agent, 1, HashEmbedder())
    sub = extract_subgraph(graph, agent, persons, HashEmbedder())
    assert sub.nodes[AGENT_NODE_ID].kind == NodeKind.AGENT
    assert sub.out_edges[AGENT_NODE_ID] == [(p, EdgeKind.SIMILAR_TO, w) for p, w in persons]
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


class _FailingOn(HashEmbedder):
    """Hash vectors, except that embedding ``text`` raises ProviderError."""

    def __init__(self, text):
        super().__init__()
        self.text = text

    def embed(self, text):
        if text == self.text:
            raise ProviderError("embedder unavailable")
        return super().embed(text)


def test_an_embedder_error_on_a_stored_desire_raises_from_extraction():
    graph = _build([make_record(trip_purpose="shop", start_time=17)])
    agent = _agent(trip_purpose="work", start_time=8)
    embedder = _FailingOn(desire_text("shop", 17))
    persons = top_k_similar(graph, agent, 1, embedder)
    with pytest.raises(ProviderError):
        extract_subgraph(graph, agent, persons, embedder)


def test_an_edge_added_to_the_graph_after_extraction_raises_on_the_next_read():
    graph = _build([make_record(), make_record(trip_purpose="shop", start_time=17)])
    agent = _agent()
    persons = top_k_similar(graph, agent, 1, HashEmbedder())
    sub = extract_subgraph(graph, agent, persons, HashEmbedder())
    scores, copied = raw_scores(sub, PRIMARY_MODE_SET), repr(sub.out_edges)
    counts = (graph.node_count(), graph.edge_count())
    person, desire = persons[0][0], graph.nodes_of_kind(NodeKind.DESIRE)[0].id
    with pytest.raises(FrozenGraph):
        graph.add_edge(person, desire, EdgeKind.WANT_TO, 1.0)
    assert (graph.node_count(), graph.edge_count()) == counts
    again = extract_subgraph(graph, agent, persons, HashEmbedder())
    assert raw_scores(again, PRIMARY_MODE_SET) == scores
    assert repr(again.out_edges) == copied


def _graph_with_persons():
    return _build([make_record(), make_record(trip_purpose="shop", start_time=17)])


def _graph_without_persons():
    graph = _build([])
    graph.add_node(NodeKind.DESIRE, desire_text("work", 8), start_time=8)
    graph.add_node(NodeKind.INTENTION, "walking", choice_set="primary_mode")
    return graph


def _extract_from_a_person_given_by_hand(graph):
    person = graph.nodes_of_kind(NodeKind.PERSON)[0].id
    extract_subgraph(graph, _agent(), [(person, 1.0)], HashEmbedder())
    assert not graph._person_indexes  # the want_to table alone freezes it


def _chain_query_without_persons(graph):
    chain = PreferenceChain(graph)
    assert chain.subgraph(_agent()) is None
    assert graph._person_indexes[chain.embed_provider.provider_id][0] == []


_FIRST_QUERIES = {
    "top_k_similar": (
        _graph_with_persons, lambda g: top_k_similar(g, _agent(), 1, HashEmbedder())
    ),
    "extract_subgraph": (_graph_with_persons, _extract_from_a_person_given_by_hand),
    "predict_all": (_graph_with_persons, lambda g: PreferenceChain(g).predict_all(_agent())),
    "chain_without_persons": (_graph_without_persons, _chain_query_without_persons),
}


def _edit(graph):
    """Add one node and one edge that the unfrozen graph accepts."""
    desire = graph.nodes_of_kind(NodeKind.DESIRE)[0].id
    intention = graph.nodes_of_kind(NodeKind.INTENTION)[0].id
    return [
        lambda: graph.add_node(NodeKind.INTENTION, "bicycle", choice_set="primary_mode"),
        lambda: graph.add_edge(desire, intention, EdgeKind.CHOOSE_TO, 1.0),
    ]


@pytest.mark.parametrize("first_query", sorted(_FIRST_QUERIES))
def test_the_first_query_freezes_the_graph(first_query):
    build, query = _FIRST_QUERIES[first_query]
    graph = build()
    query(graph)
    counts = (graph.node_count(), graph.edge_count())
    for edit in _edit(graph):
        with pytest.raises(FrozenGraph):
            edit()
    assert (graph.node_count(), graph.edge_count()) == counts


def test_a_chain_leaves_the_graph_editable():
    graph = _graph_with_persons()
    PreferenceChain(graph)
    counts = (graph.node_count(), graph.edge_count())
    for edit in _edit(graph):
        edit()
    assert (graph.node_count(), graph.edge_count()) == (counts[0] + 1, counts[1] + 1)


def test_an_extracted_subgraph_edited_in_place_is_scored_from_its_copy():
    graph = _build([make_record(), make_record(trip_purpose="shop", start_time=17)])
    agent = _agent()
    persons = top_k_similar(graph, agent, 1, HashEmbedder())
    sub = extract_subgraph(graph, agent, persons, HashEmbedder())
    before = raw_scores(sub, PRIMARY_MODE_SET)
    assert not hasattr(sub, "add_node") and not hasattr(sub, "add_edge")
    copy = BehavioralSubgraph(
        nodes=dict(sub.nodes), out_edges={n: list(e) for n, e in sub.out_edges.items()}
    )
    walking = max(copy.nodes) + 1
    copy.add_node(walking, NodeKind.INTENTION, "walking", choice_set="primary_mode")
    desire = next(n for n in copy.nodes.values() if n.kind == NodeKind.DESIRE).id
    copy.add_edge(desire, walking, EdgeKind.CHOOSE_TO, 1.0)
    after = raw_scores(copy, PRIMARY_MODE_SET)
    assert before["walking"] == 0.0 and after["walking"] > 0.0
    assert after["private_auto"] == before["private_auto"]
    assert raw_scores(sub, PRIMARY_MODE_SET) == before
    assert walking not in sub.nodes


def test_query_agent_desire_text():
    agent = _agent(trip_purpose="eat", start_time=12)
    assert agent.desire_text() == "purpose: eat; start_time: 12"
