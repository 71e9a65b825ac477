"""Graph-retrieval behavioral choice modeling with LLM calibration."""

__version__ = "0.1.0"

from .behavior_graph import (
    BehaviorGraph,
    Edge,
    EdgeKind,
    GraphBuildConfig,
    Node,
    NodeKind,
    build_from_records,
    temporal_proximity,
)
from .embedding import (
    HashEmbedder,
    RemoteEmbedder,
    cosine_similarity,
    hash_embed,
    profile_to_text,
    similarity_weight,
)
from .ingest import (
    SyntheticSpec,
    default_synthetic_spec,
    generate_synthetic,
    hour_conditioned_spec,
    read_csv,
    split_reference_validation,
    write_csv,
)
from .llm_remodel import (
    CalibrationResult,
    CalibrationSource,
    GenerationParams,
    IdentityMockLlm,
    RemoteLlm,
    ScriptedMockLlm,
    build_prompt,
    calibrate,
    parse_response,
)
from .city import (
    DEFAULT_MODE_SPEEDS,
    CityModel,
    Poi,
    ShortestPathTree,
    dijkstra,
    duration_upper_minutes,
    edge_id,
    grid_city,
    nearest_poi,
    search_pois,
    shortest_path,
)
from .config import (
    RunConfig,
    apply_env_overrides,
    build_embed_provider,
    build_llm_provider,
    load_config,
    run_manifest,
)
from .evaluate import (
    ValidationTruth,
    build_report,
    chain_predictions,
    evaluate_predictions,
    group_value,
    marginal_predictions,
    sample_predictions,
    sweep_reference_sizes,
    uniform_predictions,
    write_combined_csv,
    write_sweep_csv,
)
from .metrics import EvaluationReport, JointDistribution, joint_from_samples, kld, mae
from .mobility_sim import (
    AgentState,
    DayPlan,
    LlmScheduleProvider,
    TemplateScheduleProvider,
    TrafficTally,
    TripLog,
    choose_mode_and_duration,
    flow_kld,
    generate_profiles,
    generate_schedule,
    make_agents,
    parse_schedule,
    poi_kld,
    run_day,
    select_poi,
    simulate_agent,
)
from .pipeline import PipelineConfig, PreferenceChain
from .rng import substream
from .preference import (
    PreferenceDistribution,
    prior_distribution,
    raw_scores,
    uniform_distribution,
)
from .retrieval import (
    BehavioralSubgraph,
    Extraction,
    QueryAgent,
    extract_subgraph,
    top_k_similar,
)
from .schema import (
    AgentProfile,
    ChoiceCategorySet,
    DURATION_SET,
    PRIMARY_MODE_SET,
    TripRecord,
)
