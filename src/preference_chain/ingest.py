"""Trip-record CSV I/O, seeded splits, and synthetic population generation.

The CSV layout follows the categorical schema, columns in canonical order;
write_csv(read_csv(path)) reproduces a canonical file byte for byte.
``read_csv`` decodes the whole file as UTF-8, skipping a leading byte
order mark, and reads its rows with ``csv.reader`` by the rules of
``csv.DictReader``: the first row is the header, even when blank; blank
rows are skipped and not counted; a short row's missing cell is a
"missing value"; extra cells are ignored; a repeated column name reads
its last cell. It strips each distinct cell once and builds (and so
checks) each distinct profile once, so the records of one file share
their strings and profiles; every record is built by the checked
``TripRecord`` constructor.
Synthetic populations draw every input attribute from per-column
marginals, then draw mode and duration from conditional tables keyed by
one designated input attribute ("conditioned_on"), giving datasets with a
known ground-truth dependence structure.
"""

from __future__ import annotations

import csv
import io
import json
import operator
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import IO, Mapping, Optional, Sequence

import numpy as np

from .errors import DataError, InvalidSpec, MissingColumn, NotEnoughRecords, SchemaViolation
from .rng import substream
from .schema import (
    CSV_COLUMNS,
    DURATION_BINS,
    HOURS,
    HOUSEHOLD_COLUMN,
    INPUT_CATEGORIES,
    PRIMARY_MODES,
    PROFILE_FIELDS,
    SUM_TOLERANCE,
    AgentProfile,
    TripRecord,
    decode_json,
)

SPEC_VERSION = "1"


# ----------------------------------------------------------------------
# CSV I/O
# ----------------------------------------------------------------------


class _Stripped(dict):
    """Raw CSV cell -> the cell stripped, each distinct cell stripped once."""

    def __missing__(self, raw: str) -> str:
        self[raw] = cell = raw.strip()
        return cell


def read_csv(path) -> list[TripRecord]:
    """Read a trip CSV by the module docstring's rules; schema errors carry the 1-based data row.

    Bytes that are not UTF-8, and text the csv module cannot parse (such
    as a field over its size limit), raise DataError naming the file line.
    """
    with open(path, "rb") as fp:
        data = fp.read()
    try:
        rows = csv.reader(io.StringIO(data.decode("utf-8-sig"), newline=""))
        where = {name: i for i, name in enumerate(next(rows, []))}  # a repeated name: its last
        for column in CSV_COLUMNS:
            if column not in where:
                raise MissingColumn(column)
        positions = [where[column] for column in CSV_COLUMNS]
        household_at = where.get(HOUSEHOLD_COLUMN)
        cells_of, stripped = operator.itemgetter(*positions), _Stripped()
        split = len(PROFILE_FIELDS)
        profiles: dict[tuple[str, ...], AgentProfile] = {}
        records = []
        for index, row in enumerate(filter(None, rows), start=1):
            try:
                cells = tuple(map(stripped.__getitem__, cells_of(row)))
            except IndexError:
                column = next(c for c, i in zip(CSV_COLUMNS, positions) if i >= len(row))
                raise SchemaViolation(index, column, None, "missing value") from None
            key, (purpose, start, mode, duration) = cells[:split], cells[split:]
            hour = HOURS.get(start)
            if hour is None:
                raise SchemaViolation(index, "start_time", start)
            household = None
            if household_at is not None and household_at < len(row):
                household = stripped[row[household_at]] or None
            try:
                profile = profiles.get(key) or profiles.setdefault(key, AgentProfile(*key))
                records.append(TripRecord(profile, purpose, hour, mode, duration, household))
            except SchemaViolation as exc:
                raise SchemaViolation(index, exc.column, exc.value) from None
        return records
    except UnicodeDecodeError as exc:  # exc.object is the data after any byte order mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}, line {line}: not UTF-8: {exc.reason}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}, line {rows.line_num}: {exc}") from exc


def write_csv(records: Sequence[TripRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        write_csv_fp(records, fp)


def write_csv_fp(records: Sequence[TripRecord], fp: IO[str]) -> None:
    with_household = any(r.household_id is not None for r in records)
    columns = list(CSV_COLUMNS) + ([HOUSEHOLD_COLUMN] if with_household else [])
    writer = csv.DictWriter(fp, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for record in records:
        row = record.as_row()
        if with_household:
            row.setdefault(HOUSEHOLD_COLUMN, "")
        writer.writerow(row)


# ----------------------------------------------------------------------
# Synthetic populations
# ----------------------------------------------------------------------


def _validate_distribution(name: str, table: Mapping, allowed: Sequence[str]) -> None:
    if not isinstance(table, Mapping) or not table:
        raise InvalidSpec(f"{name}: not a non-empty object of probabilities")
    unknown = [k for k in table if k not in allowed]
    if unknown:
        raise InvalidSpec(f"{name}: unknown categories {unknown}")
    if not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 0 for v in table.values()
    ):
        raise InvalidSpec(f"{name}: a probability is negative or not a number")
    total = sum(table.values())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise InvalidSpec(f"{name}: probabilities sum to {total}, not 1")


def _read_only(value):
    """``value`` with each nested mapping copied into a read-only view."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _read_only(v) for k, v in value.items()})
    return value


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground-truth generator description with known conditionals.

    Checked when built, and then read-only: its tables become read-only
    views, so an edit raises at once instead of bypassing the check. The
    JSON file holds one key per field, in declaration order.
    """

    spec_version: str = field(default=SPEC_VERSION, kw_only=True)  # first key in the file
    population: int
    seed: int
    marginals: Mapping[str, Mapping[str, float]]
    conditioned_on: str
    mode_conditionals: Mapping[str, Mapping[str, float]]
    duration_conditionals: Mapping[str, Mapping[str, float]]

    def __post_init__(self):
        if self.spec_version != SPEC_VERSION:
            raise InvalidSpec(f"unsupported spec_version {self.spec_version!r}")
        for name in ("population", "seed"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise InvalidSpec(f"{name} must be an integer >= 0, got {value!r}")
        objects = (self.marginals, self.mode_conditionals, self.duration_conditionals)
        if not all(isinstance(obj, Mapping) for obj in objects):
            raise InvalidSpec("marginals and conditionals must be objects")
        if self.marginals.keys() != INPUT_CATEGORIES.keys():
            raise InvalidSpec(f"marginals must name exactly the columns {list(INPUT_CATEGORIES)}")
        for column, allowed in INPUT_CATEGORIES.items():
            _validate_distribution(f"marginals[{column}]", self.marginals[column], allowed)
        if not isinstance(self.conditioned_on, str) or self.conditioned_on not in INPUT_CATEGORIES:
            raise InvalidSpec(f"conditioned_on {self.conditioned_on!r} is not an input column")
        buckets = INPUT_CATEGORIES[self.conditioned_on]
        support = [k for k, v in self.marginals[self.conditioned_on].items() if v > 0]
        for label, tables, allowed in (
            ("mode_conditionals", self.mode_conditionals, PRIMARY_MODES),
            ("duration_conditionals", self.duration_conditionals, DURATION_BINS),
        ):
            missing = [b for b in support if b not in tables]
            unknown = [b for b in tables if b not in buckets]
            if missing or unknown:
                raise InvalidSpec(f"{label}: missing buckets {missing}, unknown buckets {unknown}")
            for bucket, table in tables.items():
                _validate_distribution(f"{label}[{bucket}]", table, allowed)
        for f in fields(self):
            object.__setattr__(self, f.name, _read_only(getattr(self, f.name)))

    def to_json(self, fp: IO[str]) -> None:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        json.dump(obj, fp, indent=2, default=dict)
        fp.write("\n")

    @classmethod
    def from_json(cls, fp: IO[str]) -> "SyntheticSpec":
        """Read a spec file; a missing key or a failed check raises InvalidSpec."""
        try:
            obj = decode_json(fp.read())
            return cls(**{f.name: obj[f.name] for f in fields(cls)})
        except (KeyError, TypeError, ValueError) as exc:  # also bad JSON and text encoding
            raise InvalidSpec(f"{type(exc).__name__}: {exc}") from exc


def draw_column(rng: np.random.Generator, table: Mapping[str, float], size: int, allowed) -> np.ndarray:
    """``size`` categories drawn from ``table``'s weights, renormalized.

    Categories are taken in ``allowed`` (schema) order, which keeps the draw
    sequence independent of the table's dict order.
    """
    cats = [c for c in allowed if c in table]
    probs = np.array([table[c] for c in cats], dtype=float)
    probs = probs / probs.sum()
    idx = rng.choice(len(cats), size=size, p=probs)
    return np.array(cats, dtype=object)[idx]


def draw_columns(
    rng: np.random.Generator, spec: SyntheticSpec, names: Sequence[str], size: int
) -> dict[str, np.ndarray]:
    """``draw_column`` of each named input column's marginal in ``spec``, in ``names`` order."""
    return {name: draw_column(rng, spec.marginals[name], size, INPUT_CATEGORIES[name]) for name in names}


def generate_synthetic(
    spec: SyntheticSpec,
    size: Optional[int] = None,
    seed: Optional[int] = None,
) -> list[TripRecord]:
    """Seeded, reproducible sampling from the spec's marginals/conditionals."""
    n = spec.population if size is None else size
    rng = substream(spec.seed if seed is None else seed, "synthetic")
    columns = draw_columns(rng, spec, tuple(INPUT_CATEGORIES), n)

    buckets = columns[spec.conditioned_on]
    modes = np.empty(n, dtype=object)
    durations = np.empty(n, dtype=object)
    for bucket in INPUT_CATEGORIES[spec.conditioned_on]:
        mask = buckets == bucket
        count = int(mask.sum())
        if count == 0:
            continue
        modes[mask] = draw_column(rng, spec.mode_conditionals[bucket], count, PRIMARY_MODES)
        durations[mask] = draw_column(
            rng, spec.duration_conditionals[bucket], count, DURATION_BINS
        )

    return [
        TripRecord(
            profile=profile,
            trip_purpose=columns["trip_purpose"][i],
            start_time=int(columns["start_time"][i]),
            primary_mode=modes[i],
            duration_minutes=durations[i],
        )
        for i, profile in enumerate(profiles_from_columns(columns))
    ]


def profiles_from_columns(columns: Mapping[str, np.ndarray]) -> list[AgentProfile]:
    """One profile per row of the drawn ``PROFILE_FIELDS`` columns."""
    return [AgentProfile(*row) for row in zip(*(columns[name] for name in PROFILE_FIELDS))]


def split_reference_validation(
    records: Sequence[TripRecord],
    n_ref: int,
    n_val: int,
    seed: int,
) -> tuple[list[TripRecord], list[TripRecord]]:
    """Disjoint seeded random subsets of exact sizes (reference, validation)."""
    if n_ref < 0 or n_val < 0:
        raise ValueError("subset sizes must be >= 0")
    if n_ref + n_val > len(records):
        raise NotEnoughRecords(
            f"need {n_ref}+{n_val} records, have {len(records)}"
        )
    perm = substream(seed, "split").permutation(len(records))
    reference = [records[i] for i in perm[:n_ref]]
    validation = [records[i] for i in perm[n_ref : n_ref + n_val]]
    return reference, validation


# ----------------------------------------------------------------------
# Bundled default spec
# ----------------------------------------------------------------------


def default_synthetic_spec(population: int = 10000, seed: int = 0) -> SyntheticSpec:
    """Desk-scale stand-in for a real trip dataset.

    Mode and duration depend strongly on vehicle availability (for example
    P(private_auto | three_plus) = 0.7) while the other attributes are
    independent, so conditional structure is recoverable by construction.
    """
    marginals = {
        "age_group": {
            "Under 18": 0.08, "18-24": 0.12, "25-34": 0.22, "35-44": 0.18,
            "45-54": 0.15, "55-64": 0.13, "65+": 0.12,
        },
        "income_group": {
            "Under $10k": 0.06, "$10k-$50k": 0.22, "$50k-$100k": 0.30,
            "$100k-$150k": 0.20, "$150k-$200k": 0.12, "$200k-$300k": 0.07,
            "$300k+": 0.03,
        },
        "employment_status": {
            "under_16": 0.05, "not_in_labor_force": 0.15,
            "unemployed": 0.05, "employed": 0.75,
        },
        "household_size": {
            "1": 0.28, "2": 0.32, "3": 0.16, "4": 0.14,
            "5": 0.06, "6": 0.02, "7": 0.01, "8": 0.01,
        },
        "available_vehicles": {
            "zero": 0.18, "one": 0.32, "two": 0.30,
            "three_plus": 0.15, "unknown_num_vehicles": 0.05,
        },
        "education": {
            "no_school": 0.02, "k_12": 0.08, "high_school": 0.25,
            "bachelors_degree": 0.35, "advanced_degree": 0.20, "some_college": 0.10,
        },
        "trip_purpose": {
            "eat": 0.10, "work": 0.25, "home": 0.25, "school": 0.06,
            "shop": 0.12, "maintenance": 0.06, "social": 0.08,
            "recreation": 0.06, "other_activity_type": 0.02,
        },
        "start_time": {
            "0": 0.005, "1": 0.005, "2": 0.005, "3": 0.005, "4": 0.01, "5": 0.02,
            "6": 0.04, "7": 0.08, "8": 0.10, "9": 0.07, "10": 0.04, "11": 0.04,
            "12": 0.06, "13": 0.04, "14": 0.04, "15": 0.05, "16": 0.07, "17": 0.10,
            "18": 0.07, "19": 0.05, "20": 0.04, "21": 0.03, "22": 0.02, "23": 0.01,
        },
    }
    mode_conditionals = {
        "zero": {
            "walking": 0.30, "biking": 0.12, "auto_passenger": 0.08,
            "public_transit": 0.40, "private_auto": 0.02,
            "on_demand_auto": 0.05, "other_travel_mode": 0.03,
        },
        "one": {
            "walking": 0.15, "biking": 0.07, "auto_passenger": 0.08,
            "public_transit": 0.20, "private_auto": 0.45,
            "on_demand_auto": 0.03, "other_travel_mode": 0.02,
        },
        "two": {
            "walking": 0.08, "biking": 0.04, "auto_passenger": 0.10,
            "public_transit": 0.10, "private_auto": 0.65,
            "on_demand_auto": 0.02, "other_travel_mode": 0.01,
        },
        "three_plus": {
            "walking": 0.05, "biking": 0.02, "auto_passenger": 0.12,
            "public_transit": 0.06, "private_auto": 0.70,
            "on_demand_auto": 0.03, "other_travel_mode": 0.02,
        },
        "unknown_num_vehicles": {
            "walking": 0.18, "biking": 0.06, "auto_passenger": 0.10,
            "public_transit": 0.25, "private_auto": 0.35,
            "on_demand_auto": 0.04, "other_travel_mode": 0.02,
        },
    }
    duration_conditionals = {
        "zero": {"0-10": 0.10, "10-20": 0.22, "20-30": 0.28, "30-40": 0.20, "40-50": 0.12, "50-60": 0.08},
        "one": {"0-10": 0.18, "10-20": 0.28, "20-30": 0.24, "30-40": 0.15, "40-50": 0.10, "50-60": 0.05},
        "two": {"0-10": 0.22, "10-20": 0.30, "20-30": 0.22, "30-40": 0.14, "40-50": 0.08, "50-60": 0.04},
        "three_plus": {"0-10": 0.25, "10-20": 0.30, "20-30": 0.20, "30-40": 0.13, "40-50": 0.08, "50-60": 0.04},
        "unknown_num_vehicles": {"0-10": 0.18, "10-20": 0.26, "20-30": 0.24, "30-40": 0.16, "40-50": 0.10, "50-60": 0.06},
    }
    return SyntheticSpec(
        population=population,
        seed=seed,
        marginals=marginals,
        conditioned_on="available_vehicles",
        mode_conditionals=mode_conditionals,
        duration_conditionals=duration_conditionals,
    )


def hour_conditioned_spec(population: int = 10050, seed: int = 0) -> SyntheticSpec:
    """Population whose choices depend strongly on trip start hour.

    Mode and duration are conditioned on start_time with well-separated
    hours and concentrated two-option conditionals, so the structure is
    both strong and recoverable from a 50-record reference sample.
    Profile attributes are near-constant: they carry no choice signal
    here. Start-hour proximity is the retrieval pipeline's sharpest
    edge-weight signal, which makes this corpus a sensitive probe of the
    whole retrieve-and-score path.
    """
    marginals = {
        "age_group": {"25-34": 0.9, "35-44": 0.1},
        "income_group": {"$50k-$100k": 0.9, "$10k-$50k": 0.1},
        "employment_status": {"employed": 0.9, "not_in_labor_force": 0.1},
        "household_size": {"2": 0.9, "4": 0.1},
        "available_vehicles": {"one": 0.9, "two": 0.1},
        "education": {"bachelors_degree": 0.9, "high_school": 0.1},
        "trip_purpose": {"work": 0.7, "shop": 0.3},
        "start_time": {"8": 0.25, "12": 0.25, "17": 0.25, "21": 0.25},
    }
    mode_conditionals = {
        "8": {"private_auto": 0.7, "public_transit": 0.3},
        "12": {"walking": 0.7, "auto_passenger": 0.3},
        "17": {"public_transit": 0.6, "private_auto": 0.4},
        "21": {"on_demand_auto": 0.6, "auto_passenger": 0.4},
    }
    duration_conditionals = {
        "8": {"20-30": 0.7, "30-40": 0.3},
        "12": {"0-10": 0.7, "10-20": 0.3},
        "17": {"30-40": 0.6, "40-50": 0.4},
        "21": {"10-20": 0.6, "0-10": 0.4},
    }
    return SyntheticSpec(
        population=population,
        seed=seed,
        marginals=marginals,
        conditioned_on="start_time",
        mode_conditionals=mode_conditionals,
        duration_conditionals=duration_conditionals,
    )
