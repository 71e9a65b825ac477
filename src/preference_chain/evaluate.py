"""Evaluation harness: predict choices for held-out records, score the joints.

For every validation record the pipeline produces one calibrated
distribution per choice set; a seeded draw from each turns predictions
into concrete choices. True and predicted (group, choice) pairs are then
folded into per-dimension joint distributions — one demographic dimension
at a time — and compared with KLD/MAE. Uniform and reference-marginal
predictors provide the baselines.

What depends on the validation records alone is computed once per
validation set; see ``ValidationTruth``.
"""

from __future__ import annotations

from typing import IO, Optional, Sequence

from .behavior_graph import build_from_records
from .errors import EmptyReference, NotEnoughRecords, UnknownKey
from .metrics import EvaluationReport, JointDistribution, joint_from_samples, kld, mae
from .pipeline import PipelineConfig, PreferenceChain
from .preference import PreferenceDistribution, uniform_distribution
from .retrieval import QueryAgent
from .rng import substream
from .schema import BUNDLED_CHOICE_SETS, INPUT_CATEGORIES, ChoiceCategorySet, TripRecord, write_csv_rows

# choice set name -> one distribution per record, aligned with the record list
PredictionTable = dict[str, list[PreferenceDistribution]]

DEFAULT_SWEEP_SIZES = (10, 20, 50, 100, 200)


def group_value(record: TripRecord, dimension: str) -> str:
    """The record's value on one input dimension, as a group key."""
    if dimension not in INPUT_CATEGORIES:
        raise UnknownKey(f"{dimension!r} is not an input dimension")
    if dimension == "trip_purpose":
        return record.trip_purpose
    if dimension == "start_time":
        return str(record.start_time)
    return getattr(record.profile, dimension)


def chain_predictions(
    chain: PreferenceChain,
    records: Sequence[TripRecord],
) -> PredictionTable:
    """Calibrated posterior per (choice set of the graph, record).

    Records sharing (profile, purpose, start time) get the same posterior,
    so queries are memoized on that key; a frozen profile hashes and
    compares by its attribute values.
    """
    names = sorted(chain.graph.choice_sets)
    table: PredictionTable = {name: [] for name in names}
    memo: dict[tuple, dict[str, PreferenceDistribution]] = {}
    for record in records:
        key = (record.profile, record.trip_purpose, record.start_time)
        got = memo.get(key)
        if got is None:
            agent = QueryAgent(record.profile, record.trip_purpose, record.start_time)
            results = chain.predict_all(agent)
            got = {name: results[name].posterior for name in names}
            memo[key] = got
        for name in names:
            table[name].append(got[name])
    return table


def uniform_predictions(
    choice_sets: Sequence[ChoiceCategorySet],
    n_records: int,
) -> PredictionTable:
    """Baseline: the uniform distribution for every record."""
    return {
        cs.name: [uniform_distribution(cs)] * n_records for cs in choice_sets
    }


def marginal_predictions(
    reference: Sequence[TripRecord],
    choice_sets: Sequence[ChoiceCategorySet],
    n_records: int,
) -> PredictionTable:
    """Baseline: the reference set's unconditioned marginal for every record."""
    if not reference:
        raise EmptyReference("marginal baseline needs a non-empty reference set")
    table: PredictionTable = {}
    for cs in choice_sets:
        counts = {option: 0 for option in cs.options}
        for record in reference:
            counts[getattr(record, cs.name)] += 1
        dist = PreferenceDistribution(
            cs, {o: c / len(reference) for o, c in counts.items()}
        )
        table[cs.name] = [dist] * n_records
    return table


def sample_predictions(
    predictions: PredictionTable, seed: int
) -> dict[str, list[str]]:
    """One seeded draw per record per choice set; per-set substreams."""
    sampled = {}
    for name in sorted(predictions):
        rng = substream(seed, "sample", name)
        sampled[name] = [dist.sample(rng) for dist in predictions[name]]
    return sampled


class ValidationTruth:
    """What every report on one validation set shares.

    The sweep's graph sizes within a seed share one, and so do the chain
    and baseline reports of ``prefchain evaluate``. ``groups`` holds each
    record's group key per input dimension, and ``joint`` the true joint
    of a (choice set, dimension) pair, computed on first use and kept.
    """

    def __init__(self, records: Sequence[TripRecord]):
        self.records = records
        self.groups = {
            dimension: [group_value(r, dimension) for r in records]
            for dimension in INPUT_CATEGORIES
        }
        self._joints: dict[tuple[str, str], JointDistribution] = {}

    def joint(self, name: str, dimension: str) -> JointDistribution:
        joint = self._joints.get((name, dimension))
        if joint is None:
            pairs = zip(self.groups[dimension], (getattr(r, name) for r in self.records))
            joint = joint_from_samples(
                list(pairs), INPUT_CATEGORIES[dimension], BUNDLED_CHOICE_SETS[name]
            )
            self._joints[name, dimension] = joint
        return joint


def build_report(
    records: Sequence[TripRecord],
    sampled: dict[str, list[str]],
    truth: Optional[ValidationTruth] = None,
) -> EvaluationReport:
    """KLD/MAE of predicted vs. true joints, one entry per dimension pair.

    Entries are named "<choice set>:<dimension>"; choice sets in sorted
    order, dimensions in schema order. ``truth``, if given, must have been
    built from ``records``; without it one is built here.
    """
    if truth is None:
        truth = ValidationTruth(records)
    elif truth.records is not records:
        raise ValueError("validation truth built from other records")
    report = EvaluationReport()
    for name in sorted(sampled):
        choice_set = BUNDLED_CHOICE_SETS[name]
        choices = sampled[name]
        if len(choices) != len(records):
            raise ValueError("sampled choices not aligned with records")
        for dimension, groups in INPUT_CATEGORIES.items():
            p = truth.joint(name, dimension)
            pred_pairs = list(zip(truth.groups[dimension], choices))
            q = joint_from_samples(pred_pairs, groups, choice_set)
            report.add(f"{name}:{dimension}", kld(p, q), mae(p, q))
    return report


def evaluate_predictions(
    records: Sequence[TripRecord],
    predictions: PredictionTable,
    seed: int,
    truth: Optional[ValidationTruth] = None,
) -> EvaluationReport:
    """Sample once from each prediction and score the resulting joints."""
    return build_report(records, sample_predictions(predictions, seed), truth)


def write_combined_csv(fp: IO[str], reports: dict[str, EvaluationReport]) -> None:
    """Several named reports in one CSV (predictor, dimension, metric, value)."""
    rows = []
    for predictor in sorted(reports):
        report = reports[predictor]
        for dimension, kld_value, mae_value in report.entries:
            rows.append([predictor, dimension, "kld", repr(kld_value)])
            rows.append([predictor, dimension, "mae", repr(mae_value)])
        rows.append([predictor, "mean", "kld", repr(report.mean_kld)])
        rows.append([predictor, "mean", "mae", repr(report.mean_mae)])
    write_csv_rows(fp, ["predictor", "dimension", "metric", "value"], rows)


# ----------------------------------------------------------------------
# Reference-size sweep
# ----------------------------------------------------------------------


def sweep_reference_sizes(
    records: Sequence[TripRecord],
    sizes: Sequence[int],
    seeds: Sequence[int],
    n_validation: int,
    config: Optional[PipelineConfig] = None,
    embed_provider=None,
    llm_provider=None,
) -> list[tuple[int, int, str, float]]:
    """Rebuild the graph at several reference sizes and score each.

    Per seed, one validation set is held out and the reference sets are
    nested (the n=10 reference is a prefix of the n=50 one), so size is
    the only thing varying within a seed. Returns (n, seed, metric,
    value) rows, two metrics per (n, seed).
    """
    max_n = max(sizes)
    if n_validation + max_n > len(records):
        raise NotEnoughRecords(
            f"need {n_validation}+{max_n} records, have {len(records)}"
        )
    rows: list[tuple[int, int, str, float]] = []
    for seed in seeds:
        perm = substream(seed, "sweep").permutation(len(records))
        validation = [records[i] for i in perm[:n_validation]]
        pool = [records[i] for i in perm[n_validation:]]
        truth = ValidationTruth(validation)
        for n in sizes:
            graph = build_from_records(pool[:n])
            chain = PreferenceChain(graph, embed_provider, llm_provider, config)
            predictions = chain_predictions(chain, validation)
            report = evaluate_predictions(validation, predictions, seed, truth)
            rows.append((n, seed, "kld", report.mean_kld))
            rows.append((n, seed, "mae", report.mean_mae))
    return rows


def write_sweep_csv(fp: IO[str], rows: Sequence[tuple[int, int, str, float]]) -> None:
    cells = [[n, seed, metric, repr(value)] for n, seed, metric, value in rows]
    write_csv_rows(fp, ["n", "seed", "metric", "value"], cells)
