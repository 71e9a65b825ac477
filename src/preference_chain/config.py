"""Run configuration: sectioned JSON file with defaults, strict key checking.

A config file holds four optional sections (paths, providers, pipeline,
generation); unknown sections or keys are rejected so typos fail loudly.
Each section checks its own fields when it is built, through
``errors.check_config``: paths are strings or null, the mock flags are
booleans, provider URLs and models are strings or null, and the
"pipeline" and "generation" ranges are checked by ``PipelineConfig`` and
``GenerationParams``. Mock providers are the default — remote ones need
explicit URLs and non-empty model names; PC_LLM_URL / PC_EMBED_URL can
inject the URLs (setting one also turns the corresponding mock flag off). The
canonical-JSON sha256 of a config is recorded in every output manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .embedding import EmbeddingProvider, HashEmbedder, RemoteEmbedder
from .errors import ConfigError, check_config
from .llm_remodel import GenerationParams, IdentityMockLlm, LlmProvider, RemoteLlm
from .pipeline import PipelineConfig
from .schema import decode_json

ENV_LLM_URL = "PC_LLM_URL"
ENV_EMBED_URL = "PC_EMBED_URL"


def _strings_or_null(section: str, obj, names) -> list[tuple[bool, str]]:
    """One ``check_config`` pair per field of ``obj`` that must be a string or None."""
    return [
        (isinstance(getattr(obj, name), (str, type(None))), f"{section}.{name} must be a string or null")
        for name in names
    ]


@dataclass(frozen=True)
class PathsConfig:
    reference_csv: Optional[str] = None
    validation_csv: Optional[str] = None
    city_file: Optional[str] = None
    out_dir: Optional[str] = None

    def __post_init__(self):
        names = [f.name for f in dataclasses.fields(self)]
        check_config(lambda: _strings_or_null("paths", self, names))


@dataclass(frozen=True)
class ProvidersConfig:
    mock_llm: bool = True
    mock_embed: bool = True
    llm_url: Optional[str] = None
    llm_model: str = "qwen3:8b"
    embed_url: Optional[str] = None
    embed_model: str = "nomic-embed-text"

    def __post_init__(self):
        check_config(lambda: [
            (type(self.mock_llm) is bool, "providers.mock_llm must be true or false"),
            (type(self.mock_embed) is bool, "providers.mock_embed must be true or false"),
            *_strings_or_null("providers", self, ("llm_url", "llm_model", "embed_url", "embed_model")),
            (self.mock_llm or self.llm_url, "providers.llm_url required when mock_llm is false"),
            (self.mock_llm or self.llm_model, "providers.llm_model required when mock_llm is false"),
            (self.mock_embed or self.embed_url, "providers.embed_url required when mock_embed is false"),
            (self.mock_embed or self.embed_model, "providers.embed_model required when mock_embed is false"),
        ])


def _section(cls, obj, name: str, **fixed):
    """Build ``cls`` from one JSON section; ``fixed`` fields come from elsewhere."""
    if obj is None:
        return cls(**fixed)
    if not isinstance(obj, Mapping):
        raise ConfigError(f"section {name!r} must be an object")
    allowed = {f.name for f in dataclasses.fields(cls)} - set(fixed)
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {unknown}")
    try:
        return cls(**obj, **fixed)
    except TypeError as exc:
        raise ConfigError(f"section {name!r}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    providers: ProvidersConfig = field(default_factory=ProvidersConfig)
    # The "pipeline" and "generation" sections.
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    @property
    def generation(self) -> GenerationParams:
        return self.pipeline.generation

    @classmethod
    def from_dict(cls, obj: Mapping) -> "RunConfig":
        if not isinstance(obj, Mapping):
            raise ConfigError("config root must be a JSON object")
        known = ("paths", "providers", "pipeline", "generation")
        unknown = sorted(set(obj) - set(known))
        if unknown:
            raise ConfigError(f"unknown config sections: {unknown}")
        generation = _section(GenerationParams, obj.get("generation"), "generation")
        return cls(
            paths=_section(PathsConfig, obj.get("paths"), "paths"),
            providers=_section(ProvidersConfig, obj.get("providers"), "providers"),
            pipeline=_section(
                PipelineConfig, obj.get("pipeline"), "pipeline", generation=generation
            ),
        )

    def to_dict(self) -> dict:
        pipeline = dataclasses.asdict(self.pipeline)
        generation = pipeline.pop("generation")
        return {
            "paths": dataclasses.asdict(self.paths),
            "providers": dataclasses.asdict(self.providers),
            "pipeline": pipeline,
            "generation": generation,
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def pipeline_config(self) -> PipelineConfig:
        return self.pipeline

    def with_overrides(
        self,
        seed: Optional[int] = None,
        mock_llm: Optional[bool] = None,
        mock_embed: Optional[bool] = None,
    ) -> "RunConfig":
        config = self
        if seed is not None:
            config = dataclasses.replace(self, pipeline=dataclasses.replace(self.pipeline, seed=seed))
        flags = {"mock_llm": mock_llm, "mock_embed": mock_embed}
        return _with_providers(config, {name: flag for name, flag in flags.items() if flag is not None})


def _with_providers(config: RunConfig, changes: dict) -> RunConfig:
    """``config`` with the ``changes`` provider fields; ``config`` itself when there are none."""
    if not changes:
        return config
    return dataclasses.replace(config, providers=dataclasses.replace(config.providers, **changes))


def apply_env_overrides(config: RunConfig, environ: Mapping[str, str] = os.environ) -> RunConfig:
    """PC_LLM_URL / PC_EMBED_URL switch the matching provider to remote."""
    changes = {}
    if environ.get(ENV_LLM_URL):
        changes.update(llm_url=environ[ENV_LLM_URL], mock_llm=False)
    if environ.get(ENV_EMBED_URL):
        changes.update(embed_url=environ[ENV_EMBED_URL], mock_embed=False)
    return _with_providers(config, changes)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fp:
            obj = decode_json(fp.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, undecodable bytes or a huge integer
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(obj)


def build_embed_provider(config: RunConfig) -> EmbeddingProvider:
    if config.providers.mock_embed:
        return HashEmbedder()
    return RemoteEmbedder(config.providers.embed_url, config.providers.embed_model)


def build_llm_provider(config: RunConfig) -> LlmProvider:
    if config.providers.mock_llm:
        return IdentityMockLlm()
    return RemoteLlm(config.providers.llm_url, config.providers.llm_model)


def run_manifest(
    config: RunConfig,
    command: str,
    embed_provider: EmbeddingProvider,
    llm_provider: LlmProvider,
    extra: Optional[dict] = None,
) -> dict:
    """The run's record: command, seed, config hash, the ids of the providers it used."""
    from . import __version__

    manifest = {
        "command": command,
        "seed": config.pipeline.seed,
        "config_hash": config.config_hash(),
        "providers": {"embed": embed_provider.provider_id, "llm": llm_provider.provider_id},
        "version": __version__,
    }
    if extra:
        manifest.update(extra)
    return manifest
