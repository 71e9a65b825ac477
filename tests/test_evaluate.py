"""Evaluation harness: prediction tables, baselines, reports, size sweep."""

import io
import random

import pytest

from preference_chain.behavior_graph import GraphBuildConfig, build_from_records
from preference_chain.errors import EmptyReference, NotEnoughRecords, UnknownKey
from preference_chain.evaluate import (
    DEFAULT_SWEEP_SIZES,
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
from preference_chain.ingest import default_synthetic_spec, generate_synthetic, split_reference_validation
from preference_chain.metrics import EvaluationReport, joint_from_samples, kld, mae
from preference_chain.pipeline import PipelineConfig, PreferenceChain
from preference_chain.preference import PreferenceDistribution
from preference_chain.schema import BUNDLED_CHOICE_SETS, INPUT_CATEGORIES
from tests.conftest import make_record

INTENTIONS = ("primary_mode", "duration_minutes")
MODE_SET = BUNDLED_CHOICE_SETS["primary_mode"]
DURATION_SET = BUNDLED_CHOICE_SETS["duration_minutes"]


def build_chain(records, **config_kwargs):
    graph = build_from_records(records, GraphBuildConfig(intention_fields=INTENTIONS))
    config = PipelineConfig(**config_kwargs) if config_kwargs else None
    return PreferenceChain(graph, config=config)


def point_mass(choice_set, value):
    return PreferenceDistribution(
        choice_set, {o: 1.0 if o == value else 0.0 for o in choice_set.options}
    )


# ----------------------------------------------------------------------
# group values
# ----------------------------------------------------------------------


def test_group_value_covers_every_input_dimension():
    record = make_record(None, trip_purpose="shop", start_time=14, age_group="65+")
    assert group_value(record, "trip_purpose") == "shop"
    assert group_value(record, "start_time") == "14"
    assert group_value(record, "age_group") == "65+"
    assert group_value(record, "income_group") == "$50k-$100k"
    assert group_value(record, "available_vehicles") == "one"


def test_group_value_rejects_non_input_dimensions():
    record = make_record(None)
    with pytest.raises(UnknownKey):
        group_value(record, "primary_mode")
    with pytest.raises(UnknownKey):
        group_value(record, "favorite_color")


# ----------------------------------------------------------------------
# prediction tables
# ----------------------------------------------------------------------


def test_chain_predictions_aligned_and_normalized():
    records = generate_synthetic(default_synthetic_spec(), size=60, seed=0)
    reference, validation = split_reference_validation(records, 40, 20, seed=0)
    table = chain_predictions(build_chain(reference), validation)
    assert sorted(table) == ["duration_minutes", "primary_mode"]
    for dists in table.values():
        assert len(dists) == len(validation)
        for dist in dists:
            assert sum(dist.probabilities.values()) == pytest.approx(1.0, abs=1e-9)


def test_chain_predictions_memoized_on_query_key():
    reference = generate_synthetic(default_synthetic_spec(), size=30, seed=1)
    base = make_record(None, trip_purpose="work", start_time=8)
    twin = make_record(None, trip_purpose="work", start_time=8)
    other = make_record(None, trip_purpose="shop", start_time=14)
    table = chain_predictions(build_chain(reference), [base, twin, other])
    mode = table["primary_mode"]
    assert mode[0] is mode[1]  # identical query key reuses the same posterior
    assert mode[2] is not mode[0]


def test_uniform_predictions_table():
    table = uniform_predictions([MODE_SET, DURATION_SET], 5)
    assert len(table["primary_mode"]) == 5
    for p in table["primary_mode"][0].probabilities.values():
        assert p == pytest.approx(1 / 7, abs=1e-12)
    for p in table["duration_minutes"][0].probabilities.values():
        assert p == pytest.approx(1 / 6, abs=1e-12)


def test_marginal_predictions_hand_counts():
    reference = [
        make_record(None, primary_mode="walking"),
        make_record(None, primary_mode="walking"),
        make_record(None, primary_mode="walking"),
        make_record(None, primary_mode="biking"),
    ]
    table = marginal_predictions(reference, [MODE_SET], 3)
    assert len(table["primary_mode"]) == 3
    probs = table["primary_mode"][0].probabilities
    assert probs["walking"] == pytest.approx(0.75)
    assert probs["biking"] == pytest.approx(0.25)
    assert probs["private_auto"] == 0.0


def test_marginal_predictions_needs_reference():
    with pytest.raises(EmptyReference):
        marginal_predictions([], [MODE_SET], 3)


def test_sample_predictions_deterministic_and_point_mass_exact():
    records = [make_record(None, primary_mode=m) for m in ("walking", "biking", "private_auto")]
    table = {
        "primary_mode": [point_mass(MODE_SET, r.primary_mode) for r in records],
        "duration_minutes": [point_mass(DURATION_SET, r.duration_minutes) for r in records],
    }
    sampled = sample_predictions(table, seed=0)
    assert sampled["primary_mode"] == ["walking", "biking", "private_auto"]
    assert sample_predictions(table, seed=0) == sampled

    spread = uniform_predictions([MODE_SET], 200)
    draws_a = sample_predictions(spread, seed=1)
    draws_b = sample_predictions(spread, seed=2)
    assert draws_a != draws_b  # different sampling seeds actually differ


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


def test_build_report_closed_loop_is_zero():
    # point-mass predictions at the true values reproduce the true joints
    records = generate_synthetic(default_synthetic_spec(), size=120, seed=2)
    table = {
        name: [point_mass(BUNDLED_CHOICE_SETS[name], getattr(r, name)) for r in records]
        for name in INTENTIONS
    }
    report = evaluate_predictions(records, table, seed=0)
    assert len(report.entries) == 2 * len(INPUT_CATEGORIES)
    for _, kld_value, mae_value in report.entries:
        assert kld_value == pytest.approx(0.0, abs=1e-12)
        assert mae_value == pytest.approx(0.0, abs=1e-12)
    assert report.mean_kld == pytest.approx(0.0, abs=1e-12)


def test_build_report_entry_names_and_order():
    records = generate_synthetic(default_synthetic_spec(), size=40, seed=3)
    table = {
        name: [point_mass(BUNDLED_CHOICE_SETS[name], getattr(r, name)) for r in records]
        for name in INTENTIONS
    }
    report = evaluate_predictions(records, table, seed=0)
    assert [name for name, _, _ in report.entries] == [
        f"{name}:{dimension}"
        for name in ("duration_minutes", "primary_mode")
        for dimension in INPUT_CATEGORIES
    ]


def test_build_report_rejects_misaligned_samples():
    records = [make_record(None), make_record(None)]
    with pytest.raises(ValueError):
        build_report(records, {"primary_mode": ["walking"]})


def _report_per_call(records, sampled):
    """build_report recomputing group keys and true joints on every call."""
    report = EvaluationReport()
    for name in sorted(sampled):
        choice_set = BUNDLED_CHOICE_SETS[name]
        for dimension, groups in INPUT_CATEGORIES.items():
            true_pairs = [(group_value(r, dimension), getattr(r, name)) for r in records]
            pred_pairs = [(group_value(r, dimension), c) for r, c in zip(records, sampled[name])]
            p = joint_from_samples(true_pairs, groups, choice_set)
            q = joint_from_samples(pred_pairs, groups, choice_set)
            report.add(f"{name}:{dimension}", kld(p, q), mae(p, q))
    return report


def test_build_report_with_shared_truth_equals_per_call_report():
    rng = random.Random(9)
    for seed in range(3):
        records = generate_synthetic(default_synthetic_spec(), size=rng.randint(1, 150), seed=seed)
        truth = ValidationTruth(records)
        for _ in range(4):  # several predictors scored on one validation set
            names = rng.choice([INTENTIONS, INTENTIONS[:1], INTENTIONS[1:]])
            sampled = {
                name: [rng.choice(BUNDLED_CHOICE_SETS[name].options) for _ in records]
                for name in names
            }
            expected = _report_per_call(records, sampled).entries
            assert build_report(records, sampled, truth).entries == expected
            assert build_report(records, sampled).entries == expected
    with pytest.raises(ValueError, match="other records"):
        build_report(list(records), sampled, truth)


def test_chain_beats_baselines_on_recoverable_structure():
    # choices depend strongly on start hour; temporal-proximity path weighting
    # should recover that structure where the unconditioned baselines cannot
    from tests.conftest import recovery_spec

    records = generate_synthetic(recovery_spec(), size=1050, seed=4)
    reference, validation = split_reference_validation(records, 50, 1000, seed=4)
    chain = build_chain(reference)
    chain_report = evaluate_predictions(validation, chain_predictions(chain, validation), seed=4)
    uniform_report = evaluate_predictions(
        validation, uniform_predictions([MODE_SET, DURATION_SET], len(validation)), seed=4
    )
    marginal_report = evaluate_predictions(
        validation,
        marginal_predictions(reference, [MODE_SET, DURATION_SET], len(validation)),
        seed=4,
    )
    assert chain_report.mean_kld < uniform_report.mean_kld
    assert chain_report.mean_kld < marginal_report.mean_kld


# ----------------------------------------------------------------------
# combined CSV
# ----------------------------------------------------------------------


def test_write_combined_csv_layout():
    records = generate_synthetic(default_synthetic_spec(), size=30, seed=5)
    table = {
        name: [point_mass(BUNDLED_CHOICE_SETS[name], getattr(r, name)) for r in records]
        for name in INTENTIONS
    }
    report = evaluate_predictions(records, table, seed=0)
    buffer = io.StringIO()
    write_combined_csv(buffer, {"chain": report, "uniform": report})
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "predictor,dimension,metric,value"
    per_predictor = 2 * len(report.entries) + 2
    assert len(lines) == 1 + 2 * per_predictor
    assert lines[1].startswith("chain,duration_minutes:age_group,kld,")
    assert lines[per_predictor - 1].split(",")[:3] == ["chain", "mean", "kld"]
    assert lines[per_predictor].split(",")[:3] == ["chain", "mean", "mae"]
    assert lines[per_predictor + 1].startswith("uniform,")
    # repr-format floats round-trip exactly
    value = float(lines[per_predictor - 1].split(",")[3])
    assert value == report.mean_kld


# ----------------------------------------------------------------------
# reference-size sweep
# ----------------------------------------------------------------------


def test_sweep_shape_and_order():
    records = generate_synthetic(default_synthetic_spec(), size=160, seed=6)
    rows = sweep_reference_sizes(records, sizes=(5, 10), seeds=(0, 1), n_validation=40)
    assert len(rows) == 2 * 2 * 2
    assert [(n, seed, metric) for n, seed, metric, _ in rows] == [
        (5, 0, "kld"), (5, 0, "mae"), (10, 0, "kld"), (10, 0, "mae"),
        (5, 1, "kld"), (5, 1, "mae"), (10, 1, "kld"), (10, 1, "mae"),
    ]
    for _, _, _, value in rows:
        assert value >= 0.0


def test_sweep_deterministic():
    records = generate_synthetic(default_synthetic_spec(), size=120, seed=7)
    first = sweep_reference_sizes(records, sizes=(5,), seeds=(0, 1), n_validation=30)
    second = sweep_reference_sizes(records, sizes=(5,), seeds=(0, 1), n_validation=30)
    assert first == second


def test_sweep_rejects_short_record_pool():
    records = generate_synthetic(default_synthetic_spec(), size=50, seed=8)
    with pytest.raises(NotEnoughRecords):
        sweep_reference_sizes(records, sizes=(20,), seeds=(0,), n_validation=40)


def test_sweep_default_sizes_exported():
    assert DEFAULT_SWEEP_SIZES == (10, 20, 50, 100, 200)


def test_write_sweep_csv_format():
    buffer = io.StringIO()
    write_sweep_csv(buffer, [(10, 0, "kld", 0.5), (10, 0, "mae", 0.125)])
    assert buffer.getvalue() == "n,seed,metric,value\n10,0,kld,0.5\n10,0,mae,0.125\n"
