"""Run configuration: parsing, validation, hashing, env overrides, providers."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from preference_chain.config import (
    ENV_EMBED_URL,
    ENV_LLM_URL,
    ProvidersConfig,
    RunConfig,
    apply_env_overrides,
    build_embed_provider,
    build_llm_provider,
    load_config,
    run_manifest,
)
from preference_chain.embedding import HashEmbedder, RemoteEmbedder
from preference_chain.errors import ConfigError
from preference_chain.llm_remodel import IdentityMockLlm, RemoteLlm
from preference_chain.pipeline import PipelineConfig

ROOT = Path(__file__).resolve().parents[1]


def test_default_config_values():
    config = RunConfig()
    assert config.pipeline.k == 5
    assert config.pipeline.max_path_edges == 4
    assert config.pipeline.depth == 3
    assert config.pipeline.epsilon == 0.0
    assert config.pipeline.tau == 4.0
    assert config.pipeline.blend == 1.0
    assert config.pipeline.seed == 0
    assert config.providers.mock_llm and config.providers.mock_embed
    assert config.generation.temperature == 0.6


def test_from_dict_partial_sections():
    config = RunConfig.from_dict({"pipeline": {"k": 2, "epsilon": 0.5}})
    assert config.pipeline.k == 2
    assert config.pipeline.epsilon == 0.5
    assert config.pipeline.depth == 3  # untouched default


def test_from_dict_rejects_unknown_sections_and_keys():
    with pytest.raises(ConfigError, match="unknown config sections"):
        RunConfig.from_dict({"pipelines": {}})
    with pytest.raises(ConfigError, match="unknown keys"):
        RunConfig.from_dict({"pipeline": {"k": 2, "kk": 3}})
    with pytest.raises(ConfigError, match="unknown keys"):
        RunConfig.from_dict({"generation": {"model": "qwen3:8b"}})
    with pytest.raises(ConfigError, match="must be an object"):
        RunConfig.from_dict({"pipeline": [1, 2]})
    with pytest.raises(ConfigError):
        RunConfig.from_dict([])


_PIPELINE_OUT_OF_RANGE = [
    ("k", 0),
    ("max_path_edges", 0),
    ("depth", 0),
    ("epsilon", -0.1),
    ("tau", 0.0),
    ("blend", 1.5),
    ("blend", -0.1),
    ("seed", -1),
    ("k", 2.5),
    ("k", 1e20),
    ("k", True),
    ("depth", 2.5),
    ("max_path_edges", 2.5),
    ("seed", 1.5),
    ("epsilon", float("inf")),
]


# Each section checks its own fields, whatever builds it.
_SECTION_BAD_VALUES = [
    ("generation", "temperature", -1.0),
    ("generation", "temperature", float("inf")),
    ("generation", "temperature", float("nan")),
    ("generation", "top_p", float("nan")),
    ("generation", "top_p", 1.5),
    ("generation", "top_p", -0.1),
    ("generation", "top_k", "lots"),
    ("generation", "top_k", -1),
    ("generation", "top_k", 2.5),
    ("generation", "top_k", True),
    ("generation", "repeat_penalty", -3),
    ("generation", "repeat_penalty", 0.0),
    ("generation", "repeat_penalty", float("inf")),
    ("providers", "mock_llm", "false"),
    ("providers", "mock_embed", 0),
    ("providers", "llm_url", 5),
    ("providers", "embed_model", ["m"]),
    ("paths", "reference_csv", 5),
    ("paths", "out_dir", {"dir": "x"}),
    # a boolean in a float field
    ("pipeline", "epsilon", True),
    ("pipeline", "tau", True),
    ("pipeline", "blend", True),
    ("generation", "temperature", True),
    ("generation", "top_p", True),
    ("generation", "repeat_penalty", True),
]


@pytest.mark.parametrize(
    "section,key,value",
    [("pipeline", key, value) for key, value in _PIPELINE_OUT_OF_RANGE] + _SECTION_BAD_VALUES,
)
def test_from_dict_rejects_out_of_range_values(section, key, value):
    with pytest.raises(ConfigError):
        RunConfig.from_dict({section: {key: value}})


@pytest.mark.parametrize(
    "key,value",
    _PIPELINE_OUT_OF_RANGE + [("k", "five"), pytest.param("epsilon", 10**400, id="epsilon-10**400")],
)
def test_pipeline_config_rejects_out_of_range_values(key, value):
    with pytest.raises(ConfigError):
        PipelineConfig(**{key: value})


def test_from_dict_rejects_non_numeric_knobs():
    with pytest.raises(ConfigError, match="wrong type"):
        RunConfig.from_dict({"pipeline": {"k": "five"}})


def test_remote_providers_require_urls():
    with pytest.raises(ConfigError, match="llm_url"):
        RunConfig.from_dict({"providers": {"mock_llm": False}})
    with pytest.raises(ConfigError, match="embed_url"):
        RunConfig.from_dict({"providers": {"mock_embed": False}})
    with pytest.raises(ConfigError, match="llm_model"):
        RunConfig.from_dict(
            {"providers": {"mock_llm": False, "llm_url": "http://h/api", "llm_model": ""}}
        )
    for model in ("", None):  # a remote embedder needs a model name, like a remote LLM
        with pytest.raises(ConfigError, match="embed_model"):
            RunConfig.from_dict(
                {"providers": {"mock_embed": False, "embed_url": "http://h/api", "embed_model": model}}
            )
    config = RunConfig.from_dict(
        {"providers": {"mock_llm": False, "llm_url": "http://localhost:11434/api/generate"}}
    )
    assert config.providers.llm_url.endswith("generate")
    # the section checks itself however it is built
    with pytest.raises(ConfigError, match="llm_url"):
        RunConfig(providers=ProvidersConfig(mock_llm=False))
    with pytest.raises(ConfigError, match="embed_url"):
        dataclasses.replace(ProvidersConfig(), mock_embed=False)
    with pytest.raises(ConfigError, match="llm_url"):
        RunConfig().with_overrides(mock_llm=False)


def test_to_dict_round_trip():
    config = RunConfig.from_dict(
        {"pipeline": {"k": 3, "blend": 0.25}, "paths": {"out_dir": "/tmp/x"}}
    )
    assert RunConfig.from_dict(config.to_dict()) == config


def test_config_hash_stability_and_sensitivity():
    a = RunConfig.from_dict({"pipeline": {"k": 3}})
    b = RunConfig.from_dict({"pipeline": {"k": 3}})
    c = RunConfig.from_dict({"pipeline": {"k": 4}})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 64
    assert all(ch in "0123456789abcdef" for ch in a.config_hash())


def test_default_config_hash_is_pinned():
    assert (
        RunConfig().config_hash()
        == "eb5733eec61465c31a8da40cfa8f9251a9cce5ae60694a8352f1671f9c369be8"
    )


def test_non_default_to_dict_is_pinned():
    config = RunConfig.from_dict(
        {
            "paths": {"out_dir": "runs/a", "reference_csv": "ref.csv"},
            "providers": {
                "mock_llm": False,
                "llm_url": "http://localhost:11434/api/generate",
                "llm_model": "m1",
            },
            "pipeline": {
                "k": 3, "max_path_edges": 3, "depth": 2, "epsilon": 0.01,
                "tau": 2.5, "blend": 0.75, "seed": 11,
            },
            "generation": {"temperature": 0.2, "top_k": 40},
        }
    )
    assert config.to_dict() == {
        "paths": {
            "reference_csv": "ref.csv",
            "validation_csv": None,
            "city_file": None,
            "out_dir": "runs/a",
        },
        "providers": {
            "mock_llm": False,
            "mock_embed": True,
            "llm_url": "http://localhost:11434/api/generate",
            "llm_model": "m1",
            "embed_url": None,
            "embed_model": "nomic-embed-text",
        },
        "pipeline": {
            "k": 3, "max_path_edges": 3, "depth": 2, "epsilon": 0.01,
            "tau": 2.5, "blend": 0.75, "seed": 11,
        },
        "generation": {
            "temperature": 0.2, "top_p": 0.95, "top_k": 40,
            "repeat_penalty": 1.0,
        },
    }
    assert (
        config.config_hash()
        == "054a6d0d43f1885fb78286f22b6cdb6971c4a66a9564ff2dfc5818e3668af5e6"
    )


def test_pipeline_config_mapping():
    config = RunConfig.from_dict(
        {"pipeline": {"k": 2, "max_path_edges": 3, "epsilon": 0.1, "tau": 2.0, "blend": 0.5}}
    )
    pc = config.pipeline_config()
    assert (pc.k, pc.max_path_edges, pc.epsilon, pc.tau, pc.blend) == (2, 3, 0.1, 2.0, 0.5)
    assert pc.generation == config.generation


def test_with_overrides():
    config = RunConfig()
    assert config.with_overrides() == config
    assert config.with_overrides(seed=7).pipeline.seed == 7
    remote = RunConfig.from_dict(
        {"providers": {"mock_llm": False, "llm_url": "http://h/api"}}
    )
    assert remote.with_overrides(mock_llm=True).providers.mock_llm is True


def test_apply_env_overrides(monkeypatch):
    config = RunConfig()
    monkeypatch.delenv(ENV_LLM_URL, raising=False)
    monkeypatch.setenv(ENV_EMBED_URL, "")  # an empty URL is unset
    assert apply_env_overrides(config) is config
    monkeypatch.setenv(ENV_LLM_URL, "http://h:1/api/generate")
    with_llm = apply_env_overrides(config)
    assert with_llm.providers.mock_llm is False
    assert with_llm.providers.llm_url == "http://h:1/api/generate"
    assert with_llm.providers.mock_embed is True
    monkeypatch.delenv(ENV_LLM_URL)
    monkeypatch.setenv(ENV_EMBED_URL, "http://h:2/api/embed")
    with_embed = apply_env_overrides(config)
    assert with_embed.providers.mock_embed is False
    assert with_embed.providers.embed_url == "http://h:2/api/embed"
    assert with_embed.providers.mock_llm is True
    monkeypatch.setenv(ENV_LLM_URL, "http://a/x")
    both = apply_env_overrides(config)
    assert not both.providers.mock_llm and not both.providers.mock_embed


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"pipeline": {"seed": 9}}), encoding="utf-8")
    assert load_config(path).pipeline.seed == 9
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(listy)


def test_build_providers():
    config = RunConfig()
    assert isinstance(build_embed_provider(config), HashEmbedder)
    assert isinstance(build_llm_provider(config), IdentityMockLlm)
    remote = RunConfig.from_dict(
        {
            "providers": {
                "mock_llm": False,
                "mock_embed": False,
                "llm_url": "http://h/api/generate",
                "embed_url": "http://h/api/embed",
            }
        }
    )
    assert isinstance(build_embed_provider(remote), RemoteEmbedder)
    assert isinstance(build_llm_provider(remote), RemoteLlm)


def test_run_manifest_contents():
    config = RunConfig()
    providers = (build_embed_provider(config), build_llm_provider(config))
    manifest = run_manifest(config, "evaluate", *providers, {"n_reference": 50})
    assert manifest["command"] == "evaluate"
    assert manifest["seed"] == 0
    assert manifest["config_hash"] == config.config_hash()
    assert manifest["providers"]["embed"] == HashEmbedder().provider_id == "hash-256"
    assert manifest["providers"]["llm"] == "mock-identity"
    assert manifest["n_reference"] == 50
    assert "version" in manifest


def test_run_manifest_reads_the_providers_it_is_given():
    class Named:
        def __init__(self, provider_id):
            self.provider_id = provider_id

    manifest = run_manifest(RunConfig(), "sweep", Named("embed-x"), Named("llm-y"), {})
    assert manifest["providers"] == {"embed": "embed-x", "llm": "llm-y"}


_OFFLINE_QUERY = """
import sys
import preference_chain, preference_chain.cli
from preference_chain.behavior_graph import build_from_records
from preference_chain.config import RunConfig, build_embed_provider, build_llm_provider
from preference_chain.ingest import default_synthetic_spec, generate_synthetic
from preference_chain.pipeline import PreferenceChain
from preference_chain.retrieval import QueryAgent

config = RunConfig()
records = generate_synthetic(default_synthetic_spec(), size=30, seed=1)
chain = PreferenceChain(
    build_from_records(records), build_embed_provider(config), build_llm_provider(config)
)
first = records[0]
chain.predict_all(QueryAgent(first.profile, first.trip_purpose, first.start_time))
print(sorted({"requests", "urllib3", "charset_normalizer", "idna"} & sys.modules.keys()))
"""


def test_an_offline_query_never_loads_the_http_stack():
    # A fresh interpreter: this process may have imported requests already.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _OFFLINE_QUERY],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_remote_providers_without_a_session_open_their_own():
    import requests

    for provider in (RemoteEmbedder("http://h/api/embed", "m"), RemoteLlm("http://h/api/generate", "m")):
        assert isinstance(provider._session, requests.Session)
        provider._session.close()
