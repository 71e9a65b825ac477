"""From one query agent to a prior distribution over choices.

The pipeline retrieves the k most similar reference persons (cosine over
hash embeddings of the profile text), extracts their neighborhood as a
query-specific subgraph, finalizes the agent-side edge weights, and then
scores every option by summing path weights: each simple path from the
agent to the option's intention contributes the product of its edge
weights. Normalized raw scores are the prior.

Run:  python demos/02_score_priors.py
"""

from preference_chain.behavior_graph import GraphBuildConfig, build_from_records
from preference_chain.ingest import default_synthetic_spec, generate_synthetic
from preference_chain.pipeline import PreferenceChain
from preference_chain.preference import raw_scores
from preference_chain.retrieval import QueryAgent
from preference_chain.schema import AgentProfile

records = generate_synthetic(default_synthetic_spec(), size=60, seed=0)
graph = build_from_records(
    records, GraphBuildConfig(intention_fields=("primary_mode", "duration_minutes"))
)
chain = PreferenceChain(graph)  # default knobs: k=5, path cap 4 edges, epsilon=0

agent = QueryAgent(
    profile=AgentProfile(
        age_group="25-34",
        income_group="$50k-$100k",
        employment_status="employed",
        household_size="2",
        available_vehicles="one",
        education="bachelors_degree",
    ),
    trip_purpose="work",
    start_time=8,
)

subgraph = chain.subgraph(agent)
print(f"retrieved subgraph: {len(subgraph.nodes)} nodes "
      f"(k={chain.config.k} similar persons plus their neighborhoods)\n")

# Each path's weight is the product of its edge weights; a raw score sums
# the weights of all simple paths (at most 4 edges) ending at the option.
# One walk from the agent node scores every option of the choice set.
mode_set = graph.choice_sets["primary_mode"]
scores = raw_scores(subgraph, mode_set, max_edges=4)
width = max(len(option) for option in scores)
print("raw scores over primary_mode:")
for option, score in scores.items():
    note = "" if score > 0 else "  (no paths in this neighborhood)"
    print(f"  {option:>{width}}  {score:.4f}{note}")

print("\nprior over primary_mode (8:00 work trip):")
prior = chain.prior(agent, mode_set, subgraph)
for option, p in sorted(prior.probabilities.items(), key=lambda kv: -kv[1]):
    if p > 0:
        print(f"  {option:>15}  {p:.3f}")

# Start-time proximity is the sharpest discriminator: querying the same
# profile late at night retrieves different desires and shifts the prior.
night = QueryAgent(agent.profile, "social", 22)
night_prior = chain.prior(night, mode_set)
print("\nprior over primary_mode (22:00 social trip, same profile):")
for option, p in sorted(night_prior.probabilities.items(), key=lambda kv: -kv[1]):
    if p > 0.01:
        print(f"  {option:>15}  {p:.3f}")
