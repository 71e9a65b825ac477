"""Categorical data schema for trip records.

All traveler and trip attributes are categorical. The category lists below
are the single source of truth for validation, CSV column order, synthetic
generation, and the two output choice sets (transportation mode and trip
duration bin).

Every value type checks its own fields when it is built, so a value that
exists is valid: an out-of-category field raises SchemaViolation from
``__post_init__``, and no caller re-checks it. An hour has one rule,
``check_hour``: an ``int`` 0..23, not a bool. Trip records, queries,
day-plan entries and traffic tallies share it, and ``HOURS`` is the one
map from hour text to that int. A desire (trip purpose and start hour)
has one rule, ``check_desire``. Only the builder ``CityModel`` has a
``validate()``, because its rules span many ``add_*`` calls. Every JSON
input is read with ``decode_json``. Every JSON output file is written by
``write_json`` (sorted keys, two-space indent, one final newline; only a
``SyntheticSpec`` keeps declaration order), every CSV by ``write_csv_rows``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from typing import IO, Iterable, Iterator, Optional, Sequence

from .errors import SchemaViolation

AGE_GROUPS = ("Under 18", "18-24", "25-34", "35-44", "45-54", "55-64", "65+")
INCOME_GROUPS = (
    "Under $10k",
    "$10k-$50k",
    "$50k-$100k",
    "$100k-$150k",
    "$150k-$200k",
    "$200k-$300k",
    "$300k+",
)
EMPLOYMENT_STATUSES = ("under_16", "not_in_labor_force", "unemployed", "employed")
HOUSEHOLD_SIZES = ("1", "2", "3", "4", "5", "6", "7", "8")
AVAILABLE_VEHICLES = ("zero", "one", "two", "three_plus", "unknown_num_vehicles")
EDUCATION_LEVELS = (
    "no_school",
    "k_12",
    "high_school",
    "bachelors_degree",
    "advanced_degree",
    "some_college",
)
TRIP_PURPOSES = (
    "eat",
    "work",
    "home",
    "school",
    "shop",
    "maintenance",
    "social",
    "recreation",
    "other_activity_type",
)
START_TIMES = tuple(str(h) for h in range(24))
HOURS = {text: hour for hour, text in enumerate(START_TIMES)}  # hour text -> int
PRIMARY_MODES = (
    "walking",
    "biking",
    "auto_passenger",
    "public_transit",
    "private_auto",
    "on_demand_auto",
    "other_travel_mode",
)
DURATION_BINS = ("0-10", "10-20", "20-30", "30-40", "40-50", "50-60")

# Column name -> allowed categories, in canonical CSV order.
INPUT_CATEGORIES: dict[str, tuple[str, ...]] = {
    "age_group": AGE_GROUPS,
    "income_group": INCOME_GROUPS,
    "employment_status": EMPLOYMENT_STATUSES,
    "household_size": HOUSEHOLD_SIZES,
    "available_vehicles": AVAILABLE_VEHICLES,
    "education": EDUCATION_LEVELS,
    "trip_purpose": TRIP_PURPOSES,
    "start_time": START_TIMES,
}
OUTPUT_CATEGORIES: dict[str, tuple[str, ...]] = {
    "primary_mode": PRIMARY_MODES,
    "duration_minutes": DURATION_BINS,
}

CSV_COLUMNS = tuple(INPUT_CATEGORIES) + tuple(OUTPUT_CATEGORIES)
HOUSEHOLD_COLUMN = "household_id"  # optional link column for relative_of edges

# How far from 1 the sum of a probability table may be and still count as 1.
SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ChoiceCategorySet:
    """Named, ordered set of candidate option keys for one choice dimension.

    ``members`` is the options as a frozenset, for membership tests.
    """

    name: str
    options: tuple[str, ...]
    members: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.options:
            raise ValueError(f"choice set {self.name!r} has no options")
        object.__setattr__(self, "members", frozenset(self.options))
        if len(self.members) != len(self.options):
            raise ValueError(f"choice set {self.name!r} has duplicate options")

    def __contains__(self, option: str) -> bool:
        return option in self.members

    def __len__(self) -> int:
        return len(self.options)

    def __iter__(self) -> Iterator[str]:
        return iter(self.options)


BUNDLED_CHOICE_SETS = {n: ChoiceCategorySet(n, options) for n, options in OUTPUT_CATEGORIES.items()}
PRIMARY_MODE_SET = BUNDLED_CHOICE_SETS["primary_mode"]
DURATION_SET = BUNDLED_CHOICE_SETS["duration_minutes"]


@dataclass(frozen=True)
class AgentProfile:
    """Demographic attributes of one traveler, all categorical."""

    age_group: str
    income_group: str
    employment_status: str
    household_size: str
    available_vehicles: str
    education: str

    def __post_init__(self):
        for name in PROFILE_FIELDS:
            value = getattr(self, name)
            if value not in INPUT_CATEGORIES[name]:
                raise SchemaViolation(-1, name, value)

    def as_dict(self) -> dict[str, str]:
        return {name: getattr(self, name) for name in PROFILE_FIELDS}


PROFILE_FIELDS = tuple(f.name for f in fields(AgentProfile))


def is_number(value) -> bool:
    """The rule of city and spec numbers: an int or a float (numpy's ``float64`` too), not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_hour(column: str, hour) -> None:
    """The hour rule: SchemaViolation naming ``column`` unless ``hour`` is an int 0..23."""
    if not (type(hour) is int and 0 <= hour <= 23):
        raise SchemaViolation(-1, column, hour)


def check_desire(trip_purpose, start_time) -> None:
    """The purpose-and-hour rule of trip records and queries: SchemaViolation if broken."""
    if trip_purpose not in TRIP_PURPOSES:
        raise SchemaViolation(-1, "trip_purpose", trip_purpose)
    check_hour("start_time", start_time)


@dataclass(frozen=True)
class TripRecord:
    """One observed trip: traveler profile, trip context, and the two choices."""

    profile: AgentProfile
    trip_purpose: str
    start_time: int
    primary_mode: str
    duration_minutes: str
    household_id: Optional[str] = None

    def __post_init__(self):
        check_desire(self.trip_purpose, self.start_time)
        for name, allowed in OUTPUT_CATEGORIES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise SchemaViolation(-1, name, value)
        household = self.household_id  # None, or an id that a trip CSV can carry
        if household is not None and not (
            isinstance(household, str) and household and household == household.strip()
        ):
            raise SchemaViolation(-1, HOUSEHOLD_COLUMN, household)

    def as_row(self) -> dict[str, str]:
        row = self.profile.as_dict()
        for column in CSV_COLUMNS[len(PROFILE_FIELDS):]:  # the trip's own columns
            row[column] = str(getattr(self, column))
        if self.household_id is not None:
            row[HOUSEHOLD_COLUMN] = self.household_id
        return row


def _float_sized_int(text: str) -> int:
    if math.isinf(float(text)):
        raise ValueError(f"the integer {text[:12]}... of {len(text)} digits does not fit a float")
    return int(text)


def decode_json(text: str):
    """``json.loads(text)``, except that an integer literal no float can hold raises ValueError."""
    return json.loads(text, parse_int=_float_sized_int)


def write_json(fp: IO[str], obj: dict) -> None:
    """Write ``obj`` with sorted keys and a two-space indent, then a newline."""
    json.dump(obj, fp, indent=2, sort_keys=True)
    fp.write("\n")


def write_csv_rows(fp: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then each row as CSV lines, each ending in one newline."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
