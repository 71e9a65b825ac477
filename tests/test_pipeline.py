import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from preference_chain.behavior_graph import GraphBuildConfig, build_from_records
from preference_chain.ingest import default_synthetic_spec, generate_synthetic
from preference_chain.llm_remodel import CalibrationSource, ScriptedMockLlm
from preference_chain import embedding, pipeline, preference
from preference_chain.pipeline import PipelineConfig, PreferenceChain
from preference_chain.preference import uniform_distribution
from preference_chain.retrieval import QueryAgent, top_k_similar
from preference_chain.rng import substream
from preference_chain.schema import (
    DURATION_SET,
    INPUT_CATEGORIES,
    PRIMARY_MODE_SET,
    PROFILE_FIELDS,
    TRIP_PURPOSES,
    AgentProfile,
)

from tests.conftest import make_profile


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
    walks, renders = [], []
    walk, render = preference._walk_paths, embedding.profile_to_text

    def counting_walk(*args):
        walks.append(args)
        return walk(*args)

    def counting_render(profile):
        renders.append(profile)
        return render(profile)

    monkeypatch.setattr(preference, "_walk_paths", counting_walk)
    for name, module in list(sys.modules.items()):
        if name.startswith("preference_chain") and getattr(module, "profile_to_text", None) is render:
            monkeypatch.setattr(module, "profile_to_text", counting_render)
    results = chain.predict_all(agent)
    assert len(results) == 2
    assert len(walks) == 1
    assert len(renders) == 1


def test_predict_all_covers_registered_choice_sets():
    chain = _chain()
    results = chain.predict_all(_agent())
    assert set(results) == {"primary_mode", "duration_minutes"}
    assert set(results["primary_mode"].posterior.probabilities) == set(PRIMARY_MODE_SET)
    assert set(results["duration_minutes"].posterior.probabilities) == set(DURATION_SET)


def test_scripted_llm_posterior_replaces_prior():
    response = (
        '{"walking": 0.4, "biking": 0.1, "auto_passenger": 0.1, "public_transit": 0.2,'
        ' "private_auto": 0.1, "on_demand_auto": 0.05, "other_travel_mode": 0.05}'
    )
    chain = _chain(llm=ScriptedMockLlm([response]))
    result = chain.predict(_agent(), PRIMARY_MODE_SET)
    assert result.source == CalibrationSource.LLM_ACCEPTED
    assert result.posterior.probabilities["walking"] == pytest.approx(0.4)


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
