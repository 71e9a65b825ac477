"""Release gate: every shipping criterion, one test each, at stated tolerance.

Each test records a single ``[PASS]``/``[FAIL]`` verdict line before
asserting; the lines come out in an "acceptance criteria" section at the
end of the pytest run, one per criterion:

    pytest tests/test_acceptance.py -q
"""

import io
import json
import math
import time

import numpy as np

from preference_chain.behavior_graph import (
    BehaviorGraph,
    EdgeKind,
    GraphBuildConfig,
    NodeKind,
    build_from_records,
)
from preference_chain.cli import main
from preference_chain.evaluate import (
    chain_predictions,
    evaluate_predictions,
    marginal_predictions,
    sweep_reference_sizes,
    uniform_predictions,
)
from preference_chain.ingest import (
    default_synthetic_spec,
    generate_synthetic,
    split_reference_validation,
)
from preference_chain.llm_remodel import CalibrationSource, ScriptedMockLlm
from preference_chain.metrics import JointDistribution, kld, mae
from preference_chain.mobility_sim import generate_profiles
from preference_chain.pipeline import PreferenceChain
from preference_chain.preference import prior_distribution, raw_scores
from preference_chain.retrieval import AGENT_NODE_ID, BehavioralSubgraph, QueryAgent
from preference_chain.schema import BUNDLED_CHOICE_SETS, ChoiceCategorySet, TRIP_PURPOSES
from tests._acceptance_log import LINES as ACCEPTANCE_LINES
from tests.conftest import make_profile, recovery_spec
from tests.golden import EDGE_TALLY_PATH, POI_TALLY_PATH, golden_run

INTENTIONS = ("primary_mode", "duration_minutes")
MODE_SET = BUNDLED_CHOICE_SETS["primary_mode"]
INTENTION_SETS = [BUNDLED_CHOICE_SETS[name] for name in INTENTIONS]


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    line = f"[{status}] criterion {number}: {description}{suffix}"
    ACCEPTANCE_LINES.append(line)
    assert passed, line


def build_chain(records, llm_provider=None):
    graph = build_from_records(records, GraphBuildConfig(intention_fields=INTENTIONS))
    return PreferenceChain(graph, llm_provider=llm_provider)


# ----------------------------------------------------------------------
# 1. path scoring against an exhaustive enumerator
# ----------------------------------------------------------------------

_C1_SET = ChoiceCategorySet("mode", ("a", "b", "c", "d"))


def _random_subgraph(rng):
    """Random 4-layer subgraph, at most 12 non-agent nodes."""
    sub = BehavioralSubgraph()
    sub.add_node(AGENT_NODE_ID, NodeKind.AGENT, "agent")
    n_nodes = int(rng.integers(4, 13))
    n_person = max(1, n_nodes // 3)
    n_desire = max(1, n_nodes // 3)
    n_intent = max(1, min(len(_C1_SET.options), n_nodes - n_person - n_desire))
    persons = [sub.add_node(i, NodeKind.PERSON, f"p{i}") for i in range(n_person)]
    desires = [
        sub.add_node(n_person + i, NodeKind.DESIRE, f"d{i}") for i in range(n_desire)
    ]
    intent_nodes = {}
    for i in range(n_intent):
        option = _C1_SET.options[i]
        intent_nodes[option] = sub.add_node(
            n_person + n_desire + i, NodeKind.INTENTION, option, "mode"
        )
    for p in persons:
        if rng.random() < 0.8:
            sub.add_edge(AGENT_NODE_ID, p, EdgeKind.SIMILAR_TO, float(rng.random()))
    for a in persons:
        for b in persons:
            if a != b and rng.random() < 0.3:
                sub.add_edge(a, b, EdgeKind.RELATIVE_OF, float(rng.random()))
    for p in persons:
        for d in desires:
            if rng.random() < 0.5:
                sub.add_edge(p, d, EdgeKind.WANT_TO, float(rng.random()))
    for d in desires:
        for node in intent_nodes.values():
            if rng.random() < 0.5:
                sub.add_edge(d, node, EdgeKind.CHOOSE_TO, float(rng.random()))
    return sub, intent_nodes


def _exhaustive_path_products(sub, target, max_edges):
    """Every simple agent->target edge sequence, by brute enumeration."""
    all_edges = [
        (u, t, w) for u, edges in sub.out_edges.items() for (t, _k, w) in edges
    ]
    products = []

    def extend(path, visited):
        last = path[-1][1] if path else AGENT_NODE_ID
        if path and last == target:
            products.append(math.prod(w for (_, _, w) in path))
            return
        if len(path) == max_edges:
            return
        for edge in all_edges:
            if edge[0] == last and edge[1] not in visited:
                extend(path + [edge], visited | {edge[1]})

    extend([], {AGENT_NODE_ID})
    return products


def _exhaustive_prior(sub, intent_nodes, max_edges):
    raws = {
        option: (
            math.fsum(_exhaustive_path_products(sub, node, max_edges))
            if (node := intent_nodes.get(option)) is not None
            else 0.0
        )
        for option in _C1_SET.options
    }
    total = math.fsum(raws.values())
    if total == 0.0:
        return {option: 1.0 / len(_C1_SET.options) for option in _C1_SET.options}
    return {option: raw / total for option, raw in raws.items()}


def test_criterion_1_path_scoring_matches_exhaustive_enumeration():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        sub, intent_nodes = _random_subgraph(rng)
        max_edges = int(rng.choice((2, 3, 4)))
        expected = _exhaustive_prior(sub, intent_nodes, max_edges)
        got = prior_distribution(sub, _C1_SET, max_edges).probabilities
        worst = max(
            worst, max(abs(got[o] - expected[o]) for o in _C1_SET.options)
        )
    elapsed = time.perf_counter() - start
    report(
        1,
        "path scoring matches exhaustive enumeration on 500 random graphs",
        worst <= 1e-9 and elapsed < 30.0,
        f"max L-inf {worst:.2e}, {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# 2. the four-edge chain
# ----------------------------------------------------------------------


def test_criterion_2_single_chain_score():
    sub = BehavioralSubgraph()
    sub.add_node(AGENT_NODE_ID, NodeKind.AGENT, "agent")
    sub.add_node(0, NodeKind.PERSON, "p0")
    sub.add_node(1, NodeKind.PERSON, "p1")
    sub.add_node(2, NodeKind.DESIRE, "d")
    sub.add_node(3, NodeKind.INTENTION, "walking", "mode")
    sub.add_edge(AGENT_NODE_ID, 0, EdgeKind.SIMILAR_TO, 1.0)
    sub.add_edge(0, 1, EdgeKind.RELATIVE_OF, 0.9)
    sub.add_edge(1, 2, EdgeKind.WANT_TO, 0.8)
    sub.add_edge(2, 3, EdgeKind.CHOOSE_TO, 0.5)
    one_option = ChoiceCategorySet("mode", ("walking",))
    score = raw_scores(sub, one_option, max_edges=4)["walking"]
    prob = prior_distribution(sub, one_option, 4).probabilities["walking"]
    report(
        2,
        "4-edge chain with weights (1.0, 0.9, 0.8, 0.5) scores 0.36, probability 1.0",
        abs(score - 0.36) <= 1e-12 and abs(prob - 1.0) <= 1e-12,
        f"raw {score!r}",
    )


# ----------------------------------------------------------------------
# 3. metric identities
# ----------------------------------------------------------------------


def _random_joint(rng, groups, choices):
    cells = rng.random((len(groups), len(choices))) + 1e-6
    return JointDistribution(groups, choices, cells / cells.sum())


def test_criterion_3_metric_identities():
    rng = np.random.default_rng(33)
    worst_self_kld = worst_self_mae = 0.0
    min_cross_kld = math.inf
    for _ in range(100):
        groups = tuple(f"g{i}" for i in range(int(rng.integers(2, 6))))
        choices = ChoiceCategorySet(
            "cs", tuple(f"o{j}" for j in range(int(rng.integers(2, 7))))
        )
        p = _random_joint(rng, groups, choices)
        q = _random_joint(rng, groups, choices)
        worst_self_kld = max(worst_self_kld, abs(kld(p, p)))
        worst_self_mae = max(worst_self_mae, abs(mae(p, p)))
        min_cross_kld = min(min_cross_kld, kld(p, q))
    two = ChoiceCategorySet("pair", ("x", "y"))
    example = kld(
        JointDistribution(("all",), two, [[0.5, 0.5]]),
        JointDistribution(("all",), two, [[0.9, 0.1]]),
        epsilon=0.0,
    )
    report(
        3,
        "kld/mae self-identities, non-negativity, and the 0.5108 worked example",
        worst_self_kld <= 1e-9
        and worst_self_mae <= 1e-9
        and min_cross_kld >= 0.0
        and abs(example - 0.5108) <= 1e-3,
        f"example {example:.6f}, min cross kld {min_cross_kld:.4f}",
    )


# ----------------------------------------------------------------------
# 4. identity calibration leaves the prior untouched
# ----------------------------------------------------------------------


def test_criterion_4_identity_calibration_regression():
    spec = default_synthetic_spec()
    chain = build_chain(generate_synthetic(spec, size=60, seed=0))
    profiles = generate_profiles(100, spec, seed=1)
    rng = np.random.default_rng(9)
    exact = 0
    for profile in profiles:
        purpose = TRIP_PURPOSES[int(rng.integers(len(TRIP_PURPOSES)))]
        hour = int(rng.integers(0, 24))
        agent = QueryAgent(profile, purpose, hour)
        subgraph = chain.subgraph(agent)
        ok = True
        for name in sorted(chain.graph.choice_sets):
            choice_set = chain.graph.choice_sets[name]
            prior = chain.prior(agent, choice_set, subgraph)
            result = chain.predict(agent, choice_set, subgraph=subgraph)
            ok = ok and result.posterior.probabilities == prior.probabilities
        exact += ok
    report(
        4,
        "identity-mock pipeline equals the graph prior exactly on 100 random agents",
        exact == 100,
        f"{exact}/100 exact",
    )


# ----------------------------------------------------------------------
# 5. synthetic recovery beats both baselines
# ----------------------------------------------------------------------


def test_criterion_5_synthetic_recovery_beats_baselines():
    spec = recovery_spec()
    start = time.perf_counter()
    wins = 0
    details = []
    for seed in range(10):
        records = generate_synthetic(spec, size=10050, seed=seed)
        reference, validation = split_reference_validation(records, 50, 10000, seed=seed)
        chain = build_chain(reference)
        chain_kld = evaluate_predictions(
            validation, chain_predictions(chain, validation), seed
        ).mean_kld
        uniform_kld = evaluate_predictions(
            validation, uniform_predictions(INTENTION_SETS, len(validation)), seed
        ).mean_kld
        marginal_kld = evaluate_predictions(
            validation,
            marginal_predictions(reference, INTENTION_SETS, len(validation)),
            seed,
        ).mean_kld
        won = chain_kld < uniform_kld and chain_kld < marginal_kld
        wins += won
        details.append(f"s{seed}:{'W' if won else 'L'}")
    elapsed = time.perf_counter() - start
    report(
        5,
        "50-reference recovery beats uniform and marginal baselines in >= 9/10 seeds",
        wins >= 9 and elapsed < 300.0,
        f"{wins}/10 wins ({' '.join(details)}), {elapsed:.0f}s",
    )


# ----------------------------------------------------------------------
# 6. more reference data does not hurt
# ----------------------------------------------------------------------


def test_criterion_6_reference_size_trend():
    pool = generate_synthetic(recovery_spec(), size=2000, seed=0)
    rows = sweep_reference_sizes(pool, sizes=(10, 50), seeds=range(5), n_validation=1000)
    by_size = {10: [], 50: []}
    for n, _seed, metric, value in rows:
        if metric == "kld":
            by_size[n].append(value)
    mean10 = float(np.mean(by_size[10]))
    mean50 = float(np.mean(by_size[50]))
    report(
        6,
        "mean KLD over 5 seeds at n=50 is <= mean KLD at n=10",
        mean50 <= mean10,
        f"n=10: {mean10:.4f}, n=50: {mean50:.4f}",
    )


# ----------------------------------------------------------------------
# 7. mobility determinism + conservation
# ----------------------------------------------------------------------


def test_criterion_7_mobility_golden_tally_and_conservation():
    tally, trips = golden_run()
    edge_buffer = io.StringIO()
    poi_buffer = io.StringIO()
    tally.write_edge_csv(edge_buffer)
    tally.write_poi_csv(poi_buffer)
    edges_match = edge_buffer.getvalue().encode() == EDGE_TALLY_PATH.read_bytes()
    pois_match = poi_buffer.getvalue().encode() == POI_TALLY_PATH.read_bytes()
    conserved = tally.total_edge_traversals() == sum(t.edge_count for t in trips)
    report(
        7,
        "10-agent day reproduces the committed tallies byte-for-byte and conserves traversals",
        edges_match and pois_match and conserved,
        f"{tally.total_edge_traversals()} traversals over {len(trips)} trips",
    )


# ----------------------------------------------------------------------
# 8. degenerate inputs and the error-case corpus
# ----------------------------------------------------------------------


def _error_corpus(tmp_path):
    """(argv, expected exit code) pairs covering config/data/provider errors."""
    trips = tmp_path / "trips.csv"
    assert main(["gen-synth", "--size", "20", "--out", str(trips)]) == 0
    lines = trips.read_text(encoding="utf-8").splitlines()

    broken = tmp_path / "broken.csv"
    row = lines[1].split(",")
    row[8] = "teleport"
    broken.write_text("\n".join([lines[0], ",".join(row)]) + "\n", encoding="utf-8")

    empty = tmp_path / "empty.csv"
    empty.write_text(lines[0] + "\n", encoding="utf-8")

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{oops", encoding="utf-8")
    unknown_section = tmp_path / "unknown.json"
    unknown_section.write_text('{"nonsense": {}}', encoding="utf-8")
    dead_embed = tmp_path / "dead_embed.json"
    dead_embed.write_text(
        json.dumps(
            {"providers": {"mock_embed": False, "embed_url": "http://127.0.0.1:9/api/embed"}}
        ),
        encoding="utf-8",
    )

    agent = {
        "profile": {
            "age_group": "25-34",
            "income_group": "$50k-$100k",
            "employment_status": "employed",
            "household_size": "2",
            "available_vehicles": "one",
            "education": "bachelors_degree",
        },
        "trip_purpose": "work",
        "start_time": 8,
    }
    good_agent = tmp_path / "agent.json"
    good_agent.write_text(json.dumps(agent), encoding="utf-8")
    hourless = dict(agent, start_time=99)
    bad_agent = tmp_path / "bad_agent.json"
    bad_agent.write_text(json.dumps(hourless), encoding="utf-8")
    incomplete = {"profile": dict(agent["profile"]), "trip_purpose": "work", "start_time": 8}
    del incomplete["profile"]["education"]
    incomplete_agent = tmp_path / "incomplete_agent.json"
    incomplete_agent.write_text(json.dumps(incomplete), encoding="utf-8")

    out = tmp_path / "out"
    return [
        (["build-graph", "--reference", str(tmp_path / "missing.csv"), "--out", str(out)], 2),
        (["gen-synth", "--config", str(bad_json), "--size", "1", "--out", str(out)], 2),
        (["gen-synth", "--config", str(unknown_section), "--size", "1", "--out", str(out)], 2),
        (["simulate", "--city", str(tmp_path / "missing_city.json"),
          "--reference", str(trips), "--out", str(out)], 2),
        (["simulate", "--reference", str(trips), "--agents", "0", "--out", str(out)], 2),
        (["build-graph", "--reference", str(broken), "--out", str(out)], 3),
        (["build-graph", "--reference", str(empty), "--out", str(out)], 3),
        (["predict", "--agent", str(bad_agent), "--reference", str(trips)], 3),
        (["predict", "--agent", str(incomplete_agent), "--reference", str(trips)], 3),
        (["predict", "--config", str(dead_embed), "--agent", str(good_agent),
          "--reference", str(trips)], 4),
    ]


def test_criterion_8_degenerate_handling_and_error_corpus(tmp_path, capsys):
    # empty retrieved subgraph -> flagged uniform prior
    empty_sub = BehavioralSubgraph()
    empty_sub.add_node(AGENT_NODE_ID, NodeKind.AGENT, "agent")
    uniform_prior = prior_distribution(empty_sub, MODE_SET)
    n = len(MODE_SET.options)
    empty_ok = uniform_prior.degenerate and all(
        abs(p - 1.0 / n) <= 1e-12 for p in uniform_prior.probabilities.values()
    )

    # graph with no persons at all -> same flagged uniform through the pipeline
    agent = QueryAgent(make_profile(), "work", 8)
    bare_chain = PreferenceChain(BehaviorGraph(), llm_provider=ScriptedMockLlm(["%%%"]))
    bare_prior = bare_chain.prior(agent, MODE_SET)
    bare_result = bare_chain.predict(agent, MODE_SET)
    personless_ok = (
        bare_prior.degenerate
        and bare_result.source is CalibrationSource.DEGENERATE_UNIFORM
        and bare_result.posterior.probabilities == bare_prior.probabilities
    )

    # unparseable calibration response -> posterior falls back to the prior
    garbage_chain = build_chain(
        generate_synthetic(default_synthetic_spec(), size=40, seed=0),
        llm_provider=ScriptedMockLlm(["this is } not [ json"]),
    )
    garbage_prior = garbage_chain.prior(agent, MODE_SET)
    garbage_result = garbage_chain.predict(agent, MODE_SET)
    fallback_ok = (
        garbage_result.source is CalibrationSource.FALLBACK_PRIOR
        and garbage_result.posterior.probabilities == garbage_prior.probabilities
    )

    # every error fixture exits with its documented code, no exceptions
    mismatches = []
    for argv, expected in _error_corpus(tmp_path):
        code = main(argv)
        if code != expected:
            mismatches.append(f"{' '.join(argv[:2])} -> {code} != {expected}")
    capsys.readouterr()
    report(
        8,
        "degenerate subgraphs flag uniform, garbage LLM falls back, error corpus exits 2/3/4",
        empty_ok and personless_ok and fallback_ok and not mismatches,
        f"flags {empty_ok}/{personless_ok}/{fallback_ok}, {len(mismatches)} exit mismatches",
    )
