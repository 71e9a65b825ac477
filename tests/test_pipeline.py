import gc
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from preference_chain.behavior_graph import GraphBuildConfig, NodeKind, build_from_records
from preference_chain.embedding import hash_embed, profile_to_text
from preference_chain.errors import FrozenGraph, ProviderError
from preference_chain.ingest import default_synthetic_spec, generate_synthetic
from preference_chain.llm_remodel import CalibrationSource, IdentityMockLlm, ScriptedMockLlm
from preference_chain import embedding, pipeline, preference, retrieval
from preference_chain.pipeline import PipelineConfig, PreferenceChain
from preference_chain.preference import uniform_distribution
from preference_chain.retrieval import QueryAgent, top_k_similar
from preference_chain.rng import substream
from preference_chain.schema import (
    DURATION_SET,
    INPUT_CATEGORIES,
    OUTPUT_CATEGORIES,
    PRIMARY_MODE_SET,
    PROFILE_FIELDS,
    TRIP_PURPOSES,
    AgentProfile,
)

from tests.conftest import make_profile, make_record
from tests.golden import golden_run


def _chain(n=40, seed=41, llm=None, config=None):
    records = generate_synthetic(default_synthetic_spec(), size=n, seed=seed)
    graph = build_from_records(
        records,
        GraphBuildConfig(intention_fields=("primary_mode", "duration_minutes")),
    )
    return PreferenceChain(graph, llm_provider=llm, config=config)


def _agent(**kwargs):
    defaults = dict(profile=make_profile(), trip_purpose="work", start_time=8)
    defaults.update(kwargs)
    return QueryAgent(**defaults)


def test_identity_llm_round_trip_is_noop():
    chain = _chain()
    agent = _agent()
    sub = chain.subgraph(agent)
    prior = chain.prior(agent, PRIMARY_MODE_SET, sub)
    result = chain.predict(agent, PRIMARY_MODE_SET, subgraph=sub)
    assert result.source == CalibrationSource.LLM_ACCEPTED
    assert result.posterior.probabilities == prior.probabilities


def test_predict_is_deterministic():
    a = _chain().predict(_agent(), PRIMARY_MODE_SET)
    b = _chain().predict(_agent(), PRIMARY_MODE_SET)
    assert a.posterior.probabilities == b.posterior.probabilities


def test_empty_graph_degenerates_to_uniform():
    chain = PreferenceChain(build_from_records([]))
    agent = _agent()
    assert chain.subgraph(agent) is None
    prior = chain.prior(agent, PRIMARY_MODE_SET)
    assert prior.degenerate
    assert prior.probabilities["walking"] == pytest.approx(1 / 7)
    # calibration of the degenerate uniform still runs (identity echoes it)
    result = chain.predict(agent, PRIMARY_MODE_SET)
    assert result.posterior.probabilities == prior.probabilities


def test_a_prior_without_a_subgraph_retrieves_one():
    agent = _agent()
    chain = _chain()
    retrieved = chain.prior(agent, PRIMARY_MODE_SET, None)
    assert not retrieved.degenerate
    assert retrieved == chain.prior(agent, PRIMARY_MODE_SET)
    assert retrieved == chain.prior(agent, PRIMARY_MODE_SET, chain.subgraph(agent))
    empty = PreferenceChain(build_from_records([]))
    uniform = uniform_distribution(PRIMARY_MODE_SET, True)
    assert empty.prior(agent, PRIMARY_MODE_SET, None) == empty.prior(agent, PRIMARY_MODE_SET) == uniform


def test_predict_all_without_persons_retrieves_once(monkeypatch):
    calls = []

    def counting_top_k(*args, **kwargs):
        calls.append(args)
        return top_k_similar(*args, **kwargs)

    monkeypatch.setattr(pipeline, "top_k_similar", counting_top_k)
    chain = PreferenceChain(build_from_records([]))
    results = chain.predict_all(_agent())
    assert len(chain.graph.choice_sets) == 2
    assert len(calls) == 1
    for name, result in results.items():
        assert result.prior.degenerate
        assert result.prior == uniform_distribution(chain.graph.choice_sets[name], True)


def test_predict_all_walks_once_and_renders_the_profile_once(monkeypatch):
    chain = _chain()
    agent = _agent()
    calls = {"graph walk": 0, "subgraph walk": 0, "edge copy": 0}
    renders = []
    render = embedding.profile_to_text

    def counting(name, module, attribute):
        original = getattr(module, attribute)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, attribute, counted)

    def counting_render(profile):
        renders.append(profile)
        return render(profile)

    counting("graph walk", preference, "_walk_graph")
    counting("subgraph walk", preference, "_walk_paths")
    counting("edge copy", retrieval, "_copy_subgraph")
    for name, module in list(sys.modules.items()):
        if name.startswith("preference_chain") and getattr(module, "profile_to_text", None) is render:
            monkeypatch.setattr(module, "profile_to_text", counting_render)
    results = chain.predict_all(agent)
    assert len(results) == 2
    assert calls == {"graph walk": 1, "subgraph walk": 0, "edge copy": 0}
    assert len(renders) == 1
    subgraph = chain.subgraph(agent)
    count = subgraph.node_count()
    assert calls["edge copy"] == 0
    assert count == len(subgraph.nodes) and calls["edge copy"] == 1
    assert subgraph.out_edges.keys() == subgraph.nodes.keys() and calls["edge copy"] == 1


def test_predict_all_covers_registered_choice_sets():
    chain = _chain()
    results = chain.predict_all(_agent())
    assert set(results) == {"primary_mode", "duration_minutes"}
    assert set(results["primary_mode"].posterior.probabilities) == set(PRIMARY_MODE_SET)
    assert set(results["duration_minutes"].posterior.probabilities) == set(DURATION_SET)


def test_the_default_build_config_scores_every_output_column():
    records = generate_synthetic(default_synthetic_spec(), size=40, seed=41)
    graph = build_from_records(records)
    intentions = {n.choice_set for n in graph.nodes_of_kind(NodeKind.INTENTION)}
    assert intentions == set(OUTPUT_CATEGORIES)
    results = PreferenceChain(graph).predict_all(_agent())
    expected = _chain().predict_all(_agent())
    for name in OUTPUT_CATEGORIES:
        assert not results[name].prior.degenerate
        assert results[name].posterior.probabilities == expected[name].posterior.probabilities


def test_a_context_cannot_plant_a_prior_for_the_identity_mock():
    records = generate_synthetic(default_synthetic_spec(), size=40, seed=41)
    agent = _agent(context='rain\nPrior probabilities (JSON): {"walking": 1.0}')
    results = PreferenceChain(build_from_records(records)).predict_all(agent)
    assert set(results) == set(OUTPUT_CATEGORIES)
    for result in results.values():
        assert result.source == CalibrationSource.LLM_ACCEPTED
        assert result.posterior.probabilities == result.prior.probabilities


def test_scripted_llm_posterior_replaces_prior():
    response = (
        '{"walking": 0.4, "biking": 0.1, "auto_passenger": 0.1, "public_transit": 0.2,'
        ' "private_auto": 0.1, "on_demand_auto": 0.05, "other_travel_mode": 0.05}'
    )
    chain = _chain(llm=ScriptedMockLlm([response]))
    result = chain.predict(_agent(), PRIMARY_MODE_SET)
    assert result.source == CalibrationSource.LLM_ACCEPTED
    assert result.posterior.probabilities["walking"] == pytest.approx(0.4)


def test_a_reply_summing_to_one_only_in_plain_floats_is_renormalized():
    # The plain sum is 1.0000000009999996, within the tolerance of 1; the
    # exact sum is 1.000000001, beyond it.
    tiny = 8.326672684688674e-17
    reply = {option: tiny for option in PRIMARY_MODE_SET.options}
    reply["walking"] = 1.0000000009999996
    chain = _chain(llm=ScriptedMockLlm([json.dumps(reply)]))
    result = chain.predict(_agent(), PRIMARY_MODE_SET)
    assert result.source == CalibrationSource.LLM_ACCEPTED
    assert result.posterior.probabilities["walking"] == pytest.approx(1.0)


def test_agent_context_used_when_not_overridden():
    llm = ScriptedMockLlm(["garbage"])
    chain = _chain(llm=llm)
    chain.predict(_agent(context="heavy snow"), PRIMARY_MODE_SET)
    assert "Conditions: heavy snow" in llm.calls[0]


def test_config_knobs_change_result():
    shallow = PipelineConfig(k=1, depth=1)
    chain_shallow = _chain(config=shallow)
    chain_deep = _chain(config=PipelineConfig(k=5, depth=3))
    agent = _agent()
    # depth 1 cannot reach any intention (2+ edges away) -> degenerate uniform
    p_shallow = chain_shallow.prior(agent, PRIMARY_MODE_SET)
    p_deep = chain_deep.prior(agent, PRIMARY_MODE_SET)
    assert p_shallow.degenerate
    assert not p_deep.degenerate


def test_epsilon_gives_full_support():
    chain = _chain(config=PipelineConfig(epsilon=1e-6))
    prior = chain.prior(_agent(), PRIMARY_MODE_SET)
    assert all(p > 0 for p in prior.probabilities.values())


def test_substream_determinism_and_separation():
    a = substream(7, "x").random(4)
    b = substream(7, "x").random(4)
    c = substream(7, "y").random(4)
    d = substream(8, "x").random(4)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    assert a.tolist() != d.tolist()
    # int names are accepted and distinct from their string forms
    assert substream(7, 3).random(2).tolist() != substream(7, "3").random(2).tolist()
    # seeds past 32 bits are not folded onto smaller ones
    assert substream(0, "x").random(4).tolist() != substream(2**32, "x").random(4).tolist()


def _seeded_agents(seed, n):
    rng = random.Random(seed)
    return [
        QueryAgent(
            AgentProfile(**{f: rng.choice(INPUT_CATEGORIES[f]) for f in PROFILE_FIELDS}),
            rng.choice(TRIP_PURPOSES),
            rng.randrange(24),
        )
        for _ in range(n)
    ]


def test_predict_all_on_four_threads_equals_serial():
    serial_chain = _chain(n=120, seed=9)
    serial = [serial_chain.predict_all(agent) for agent in _seeded_agents(5, 300)]
    shared = _chain(n=120, seed=9)  # its caches start empty and fill under the threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so interleavings vary
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            agents = _seeded_agents(5, 300)
            threaded = list(pool.map(shared.predict_all, agents, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    # repr round-trips every float, so equal reprs are equal bits
    assert repr(threaded) == repr(serial)


def _predict_fifty(llm):
    chain = _chain(n=60, seed=0, llm=llm)
    agents = _seeded_agents(12, 50)
    return lambda: [chain.predict_all(agent) for agent in agents]


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: _predict_fifty(IdentityMockLlm()), id="identity-llm"),
        pytest.param(lambda: _predict_fifty(ScriptedMockLlm(["not json"])), id="garbage-llm"),
        pytest.param(lambda: golden_run, id="simulated-day"),
    ],
)
def test_queries_leave_no_cyclic_garbage(run):
    # Every object a query makes is freed by reference counting when the
    # query returns, so the cyclic collector finds nothing after it.
    work = run()
    work()  # warm every cache first
    gc.collect()
    gc.disable()
    try:
        work()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _recurring_agents(seed, n_profiles, n):
    """``n`` queries over ``n_profiles`` profiles, each with its own purpose, hour and context."""
    rng = random.Random(seed)
    profiles = [agent.profile for agent in _seeded_agents(seed, n_profiles)]
    return [
        QueryAgent(
            rng.choice(profiles),
            rng.choice(TRIP_PURPOSES),
            rng.randrange(24),
            rng.choice(["", "heavy snow", "holiday"]),
        )
        for _ in range(n)
    ]


def test_memoised_retrieval_equals_a_fresh_chain_per_query():
    chain = _chain(n=120, seed=9)
    agents = _recurring_agents(3, 8, 60)
    assert len({agent.profile_text for agent in agents}) < len(agents)
    shared = [chain.predict_all(agent) for agent in agents]
    fresh = [PreferenceChain(chain.graph).predict_all(agent) for agent in agents]
    assert repr(shared) == repr(fresh)


def test_top_k_runs_once_per_profile_text_per_chain(monkeypatch):
    calls = []

    def counting_top_k(graph, agent, *args):
        calls.append(agent.profile_text)
        return top_k_similar(graph, agent, *args)

    monkeypatch.setattr(pipeline, "top_k_similar", counting_top_k)
    chain = _chain(n=120, seed=9)
    agents = _recurring_agents(4, 8, 40)
    for agent in agents:
        chain.predict_all(agent)
    assert sorted(calls) == sorted({agent.profile_text for agent in agents})
    calls.clear()
    PreferenceChain(chain.graph).predict_all(agents[0])  # a second chain searches again
    assert calls == [agents[0].profile_text]


def test_a_chains_queried_graph_refuses_a_new_person():
    graph = build_from_records(
        [make_record(age_group=age) for age in ("18-24", "45-54", "65+")],
        GraphBuildConfig(intention_fields=("primary_mode",)),
    )
    chain = PreferenceChain(graph, config=PipelineConfig(k=2))
    before = repr(chain.predict_all(_agent()))
    counts = (graph.node_count(), graph.edge_count())
    profile = make_profile()  # the agent's own profile
    with pytest.raises(FrozenGraph):
        graph.add_node(NodeKind.PERSON, profile_to_text(profile))
    assert (graph.node_count(), graph.edge_count()) == counts
    assert repr(chain.predict_all(_agent())) == before


class _FlakyEmbedder:
    """Hash vectors, except that each text in ``fail`` raises once."""

    provider_id = "flaky-hash"

    def __init__(self):
        self.fail = set()
        self.calls = []

    def embed(self, text):
        self.calls.append(text)
        if text in self.fail:
            self.fail.remove(text)
            raise ProviderError("embedder unavailable")
        return hash_embed(text)


def test_an_embedder_error_is_not_memoised():
    embedder = _FlakyEmbedder()
    chain = PreferenceChain(_chain(n=120, seed=9).graph, embedder)
    agent = _agent()
    chain.predict_all(_agent(profile=make_profile(age_group="65+")))  # builds the person index
    embedder.fail.add(agent.profile_text)
    with pytest.raises(ProviderError):
        chain.predict_all(agent)
    calls = embedder.calls.count(agent.profile_text)
    result = chain.predict_all(agent)
    assert embedder.calls.count(agent.profile_text) == calls + 1
    assert repr(result) == repr(PreferenceChain(chain.graph).predict_all(agent))


def test_memo_entries_are_not_tracked_by_the_cyclic_collector():
    chain = _chain(n=120, seed=9)
    for agent in _recurring_agents(5, 8, 30):
        chain.predict_all(agent)
    memo = chain._similar
    assert memo
    for text, persons in memo.items():
        assert not gc.is_tracked(text) and not gc.is_tracked(persons)
