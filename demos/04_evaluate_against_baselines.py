"""Does graph retrieval actually beat not modeling the conditionals?

The harness predicts a distribution for every held-out validation trip,
draws one choice per trip, folds the (demographic group, choice) pairs
into joint distributions, and scores them against the truth with KLD and
MAE -- one joint per demographic dimension. Two baselines frame the
result: the uniform distribution (ignores everything) and the reference
marginal (ignores who is asking).

The corpus here conditions mode and duration on trip start hour, which
is exactly the kind of structure path scoring can recover from a small
reference sample: start-time proximity is a strong edge-weight signal.

Run:  python demos/04_evaluate_against_baselines.py   (~2 s)
"""

from preference_chain.behavior_graph import build_from_records
from preference_chain.evaluate import (
    chain_predictions,
    evaluate_predictions,
    marginal_predictions,
    uniform_predictions,
)
from preference_chain.ingest import (
    generate_synthetic,
    hour_conditioned_spec,
    split_reference_validation,
)
from preference_chain.pipeline import PreferenceChain
from preference_chain.schema import BUNDLED_CHOICE_SETS

CHOICE_SETS = list(BUNDLED_CHOICE_SETS.values())

records = generate_synthetic(hour_conditioned_spec(), size=2050, seed=1)
reference, validation = split_reference_validation(records, 50, 2000, seed=1)
print(f"{len(reference)} reference trips, {len(validation)} validation trips")

graph = build_from_records(reference)
chain = PreferenceChain(graph)

reports = {
    "chain": evaluate_predictions(
        validation, chain_predictions(chain, validation), seed=1
    ),
    "uniform": evaluate_predictions(
        validation, uniform_predictions(CHOICE_SETS, len(validation)), seed=1
    ),
    "marginal": evaluate_predictions(
        validation, marginal_predictions(reference, CHOICE_SETS, len(validation)), seed=1
    ),
}

print(f"\n{'predictor':>10}  {'mean KLD':>9}  {'mean MAE':>9}")
for name, report in reports.items():
    print(f"{name:>10}  {report.mean_kld:9.4f}  {report.mean_mae:9.5f}")

# Per-dimension view: the chain's edge concentrates where the corpus put
# the signal (start_time); on independent dimensions it roughly ties.
print("\nKLD by dimension (primary_mode joints):")
print(f"{'dimension':>20}  {'chain':>7}  {'marginal':>8}")
for (dim, chain_kld, _), (_, marg_kld, _) in zip(
    reports["chain"].entries, reports["marginal"].entries
):
    name, _, group_dim = dim.partition(":")
    if name == "primary_mode":
        print(f"{group_dim:>20}  {chain_kld:7.4f}  {marg_kld:8.4f}")
