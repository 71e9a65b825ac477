"""End-to-end query pipeline: retrieve, score, calibrate.

One PreferenceChain instance owns a behavior graph, which its first query
freezes, the two providers, and the numeric knobs. Queries may run
concurrently. The chain holds all a profile's top-k persons depend on, so it
memoises them; each new chain starts cold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .behavior_graph import DEFAULT_TAU, BehaviorGraph
from .embedding import EmbeddingProvider, HashEmbedder
from .errors import EmptyGraph, check_config, not_booleans
from .llm_remodel import (
    DEFAULT_BLEND,
    CalibrationResult,
    GenerationParams,
    IdentityMockLlm,
    LlmProvider,
    calibrate,
)
from .preference import (
    DEFAULT_MAX_PATH_EDGES,
    DEFAULT_PRIOR_EPSILON,
    PreferenceDistribution,
    prior_distribution,
    uniform_distribution,
)
from .retrieval import DEFAULT_DEPTH, Extraction, QueryAgent, extract_subgraph, top_k_similar
from .schema import ChoiceCategorySet


@dataclass(frozen=True)
class PipelineConfig:
    """The pipeline knobs, checked when built: out-of-range values raise ConfigError.

    The fields are the "pipeline" section of a run config plus its
    "generation" section, which checks itself. ``seed`` is the run's root
    seed; queries are deterministic and do not read it.
    """

    k: int = 5                      # similar persons retrieved
    max_path_edges: int = DEFAULT_MAX_PATH_EDGES
    depth: int = DEFAULT_DEPTH      # forward search depth from person nodes
    epsilon: float = DEFAULT_PRIOR_EPSILON  # additive smoothing on raw scores
    tau: float = DEFAULT_TAU        # temporal-proximity decay (hours)
    blend: float = DEFAULT_BLEND    # posterior = blend*llm + (1-blend)*prior
    seed: int = 0
    generation: GenerationParams = field(default_factory=GenerationParams)

    def __post_init__(self):
        check_config(lambda: [
            # each comparison comes first, so that a string raises TypeError
            (self.k >= 1 and type(self.k) is int, "pipeline.k must be an integer >= 1"),
            (
                self.max_path_edges >= 1 and type(self.max_path_edges) is int,
                "pipeline.max_path_edges must be an integer >= 1",
            ),
            (self.depth >= 1 and type(self.depth) is int, "pipeline.depth must be an integer >= 1"),
            (math.isfinite(self.epsilon) and self.epsilon >= 0, "pipeline.epsilon must be finite and >= 0"),
            (self.tau > 0, "pipeline.tau must be > 0"),
            (0.0 <= self.blend <= 1.0, "pipeline.blend must be in [0, 1]"),
            (self.seed >= 0 and type(self.seed) is int, "pipeline.seed must be an integer >= 0"),
            *not_booleans("pipeline", self, ("epsilon", "tau", "blend")),
        ])


_TOP_K = np.dtype([("id", np.int64), ("sim", np.float64)])  # GC-untracked; tolist is exact


class PreferenceChain:
    def __init__(
        self,
        graph: BehaviorGraph,
        embed_provider: Optional[EmbeddingProvider] = None,
        llm_provider: Optional[LlmProvider] = None,
        config: Optional[PipelineConfig] = None,
    ):
        self.graph = graph
        self.embed_provider = embed_provider or HashEmbedder()
        self.llm_provider = llm_provider or IdentityMockLlm()
        self.config = config or PipelineConfig()
        self._similar: dict[str, np.ndarray] = {}  # profile text -> top-k _TOP_K array

    def subgraph(self, agent: QueryAgent) -> Optional[Extraction]:
        """Retrieval + extraction; None when the graph has no persons."""
        found = self._similar.get(agent.profile_text)
        if found is None:
            try:
                persons = top_k_similar(self.graph, agent, self.config.k, self.embed_provider)
            except EmptyGraph:
                persons = []
            self._similar[agent.profile_text] = np.array(persons, _TOP_K)
        else:
            persons = found.tolist()
        if not persons:
            return None
        return extract_subgraph(
            self.graph,
            agent,
            persons,
            self.embed_provider,
            depth=self.config.depth,
            tau=self.config.tau,
        )

    def prior(
        self,
        agent: QueryAgent,
        choice_set: ChoiceCategorySet,
        subgraph: Optional[Extraction] = None,
    ) -> PreferenceDistribution:
        """The prior of ``subgraph``, retrieved when None; degenerate uniform without persons."""
        if subgraph is None:
            subgraph = self.subgraph(agent)
        if subgraph is None:
            return uniform_distribution(choice_set, degenerate=True)
        return prior_distribution(
            subgraph, choice_set, self.config.max_path_edges, self.config.epsilon
        )

    def predict(
        self,
        agent: QueryAgent,
        choice_set: ChoiceCategorySet,
        subgraph: Optional[Extraction] = None,
    ) -> CalibrationResult:
        """Prior followed by LLM calibration, conditioned on ``agent.context``.

        Calibration never raises. Retrieval propagates the embedder's
        ProviderError or EmbeddingError: a dead or garbled embedder is an
        error, not a uniform prior.
        """
        prior = self.prior(agent, choice_set, subgraph)
        return calibrate(
            agent,
            prior,
            self.llm_provider,
            self.config.generation,
            self.config.blend,
        )

    def predict_all(self, agent: QueryAgent) -> dict[str, CalibrationResult]:
        """One calibrated distribution per registered choice set.

        The subgraph is extracted once and shared across choice sets.
        """
        subgraph = self.subgraph(agent)
        return {
            name: self.predict(agent, choice_set, subgraph)
            for name, choice_set in sorted(self.graph.choice_sets.items())
        }
