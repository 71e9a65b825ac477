"""Calibrating graph priors with a language model, safely.

The calibration step sends the prior (with the agent's profile and any
free-text conditions) to an LLM provider and parses a revised
distribution out of the reply. Every failure mode folds back to the
prior, so calibration can only ever be a refinement, never a crash:

  llm_accepted       the reply parsed and re-normalized cleanly
  fallback_prior     the reply was unusable; prior returned untouched
  degenerate_uniform no graph signal and no usable reply

All providers here are offline mocks; set PC_LLM_URL to point the same
code at a real HTTP endpoint.

Run:  python demos/03_calibrate_with_llm.py
"""

import json

from preference_chain.behavior_graph import build_from_records
from preference_chain.ingest import default_synthetic_spec, generate_synthetic
from preference_chain.llm_remodel import IdentityMockLlm, ScriptedMockLlm, build_prompt
from preference_chain.pipeline import PreferenceChain
from preference_chain.retrieval import QueryAgent
from preference_chain.schema import AgentProfile

records = generate_synthetic(default_synthetic_spec(), size=60, seed=0)
graph = build_from_records(records)
mode_set = graph.choice_sets["primary_mode"]
agent = QueryAgent(
    profile=AgentProfile(
        age_group="35-44",
        income_group="$100k-$150k",
        employment_status="employed",
        household_size="3",
        available_vehicles="two",
        education="advanced_degree",
    ),
    trip_purpose="work",
    start_time=8,
)


def show(title, result, prior):
    top = max(result.posterior.probabilities.items(), key=lambda kv: kv[1])
    changed = result.posterior.probabilities != prior.probabilities
    print(f"{title}\n  source={result.source.value}, changed={changed}, "
          f"top={top[0]} ({top[1]:.3f})\n")


# 1. The identity mock echoes the prior verbatim: a regression harness for
#    "calibration must not alter anything when the model adds nothing".
chain = PreferenceChain(graph, llm_provider=IdentityMockLlm())
prior = chain.prior(agent, mode_set)
print("prompt sent to the provider (first lines):")
print("\n".join(build_prompt(agent, prior).splitlines()[:6]), "\n  ...\n")
show("identity mock:", chain.predict(agent, mode_set), prior)

# 2. A scripted provider standing in for a real model that shifts mass
#    toward transit. Unmentioned options keep zero; the reply normalizes.
scripted = ScriptedMockLlm(
    [json.dumps({"public_transit": 0.6, "private_auto": 0.3, "walking": 0.1})]
)
chain = PreferenceChain(graph, llm_provider=scripted)
show("scripted provider:", chain.predict(agent, mode_set), prior)

# 3. Garbage output cannot poison the pipeline: the prior comes back.
chain = PreferenceChain(graph, llm_provider=ScriptedMockLlm(["INVALID {{ reply"]))
show("garbage reply:", chain.predict(agent, mode_set), prior)

# 4. blend < 1 mixes the model's distribution with the prior instead of
#    replacing it -- a damped update for noisy providers.
from preference_chain.pipeline import PipelineConfig

chain = PreferenceChain(
    graph,
    llm_provider=ScriptedMockLlm([json.dumps({"walking": 1.0})]),
    config=PipelineConfig(blend=0.5),
)
show("blend=0.5 toward a walking-only reply:", chain.predict(agent, mode_set), prior)
