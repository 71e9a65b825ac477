"""Graph-retrieval behavioral choice modeling with LLM calibration.

The package top exports the names of the README's library quick start;
import every other name from its module.
"""

__version__ = "0.1.0"

from .behavior_graph import build_from_records
from .ingest import default_synthetic_spec, generate_synthetic
from .pipeline import PreferenceChain
from .retrieval import QueryAgent
from .schema import AgentProfile
