import csv
import dataclasses
import hashlib
import io
import json
import random

import pytest

from preference_chain.errors import (
    DataError,
    InvalidSpec,
    MissingColumn,
    NotEnoughRecords,
    SchemaViolation,
)
from preference_chain.ingest import (
    SyntheticSpec,
    default_synthetic_spec,
    generate_synthetic,
    hour_conditioned_spec,
    read_csv,
    split_reference_validation,
    write_csv,
    write_csv_fp,
)
from preference_chain.schema import (
    CSV_COLUMNS,
    HOUSEHOLD_COLUMN,
    INPUT_CATEGORIES,
    OUTPUT_CATEGORIES,
    PROFILE_FIELDS,
    START_TIMES,
    AgentProfile,
    ChoiceCategorySet,
    TripRecord,
)

from tests.conftest import make_record

_GOLDEN = """\
age_group,income_group,employment_status,household_size,available_vehicles,education,trip_purpose,start_time,primary_mode,duration_minutes
25-34,$50k-$100k,employed,2,one,bachelors_degree,work,8,private_auto,10-20
65+,Under $10k,not_in_labor_force,1,zero,high_school,shop,14,walking,0-10
Under 18,$10k-$50k,under_16,4,two,k_12,school,7,auto_passenger,20-30
"""


def test_read_golden_fixture(tmp_path):
    path = tmp_path / "trips.csv"
    path.write_text(_GOLDEN)
    records = read_csv(path)
    assert len(records) == 3
    first = records[0]
    assert first.profile.age_group == "25-34"
    assert first.trip_purpose == "work"
    assert first.start_time == 8
    assert first.primary_mode == "private_auto"
    assert first.duration_minutes == "10-20"
    assert first.household_id is None
    assert records[1].profile.available_vehicles == "zero"
    assert records[2].start_time == 7


def test_csv_round_trip_byte_exact(tmp_path):
    src = tmp_path / "trips.csv"
    src.write_text(_GOLDEN)
    records = read_csv(src)
    out = tmp_path / "copy.csv"
    write_csv(records, out)
    assert out.read_text() == _GOLDEN
    assert read_csv(out) == records


def test_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    lines = _GOLDEN.splitlines()
    header = ",".join(c for c in CSV_COLUMNS if c != "primary_mode")
    body = [",".join(line.split(",")[:8] + line.split(",")[9:]) for line in lines[1:]]
    path.write_text("\n".join([header] + body) + "\n")
    with pytest.raises(MissingColumn):
        read_csv(path)


def test_schema_violation_carries_one_based_row(tmp_path):
    path = tmp_path / "bad.csv"
    bad = _GOLDEN.replace("walking", "hovercraft")
    path.write_text(bad)
    with pytest.raises(SchemaViolation) as err:
        read_csv(path)
    assert err.value.row == 2
    assert err.value.column == "primary_mode"
    assert err.value.value == "hovercraft"


def test_schema_violation_first_data_row_is_one(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(_GOLDEN.replace("private_auto", "teleport"))
    with pytest.raises(SchemaViolation) as err:
        read_csv(path)
    assert err.value.row == 1


def test_bad_start_time_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(_GOLDEN.replace(",8,", ",24,"))
    with pytest.raises(SchemaViolation) as err:
        read_csv(path)
    assert err.value.column == "start_time"


@pytest.mark.parametrize(
    "mode", [b"walking\xff", b"w" * 131_073], ids=["not-utf8", "field-over-csv-limit"]
)
def test_unreadable_row_names_the_file_and_line(tmp_path, mode):
    path = tmp_path / "bad.csv"
    path.write_bytes(_GOLDEN.encode("utf-8").replace(b"walking", mode))
    with pytest.raises(DataError, match=r"bad\.csv, line 3: "):
        read_csv(path)


def test_household_column_round_trip(tmp_path):
    records = [
        make_record(household_id="h1"),
        make_record(age_group="45-54", household_id=None),
    ]
    path = tmp_path / "hh.csv"
    write_csv(records, path)
    text = path.read_text()
    assert text.splitlines()[0].endswith(",household_id")
    back = read_csv(path)
    assert back[0].household_id == "h1"
    assert back[1].household_id is None


def test_household_column_omitted_when_unused():
    buf = io.StringIO()
    write_csv_fp([make_record()], buf)
    assert "household_id" not in buf.getvalue().splitlines()[0]


@pytest.mark.parametrize("household", ["", " ", " h1 ", "h1\n", 7, b"h1"])
def test_a_household_id_no_trip_csv_can_carry_is_rejected(household):
    """An empty or padded id would not survive ``write_csv`` then ``read_csv``."""
    with pytest.raises(SchemaViolation) as err:
        make_record(household_id=household)
    assert (err.value.row, err.value.column, err.value.value) == (-1, "household_id", household)


def test_every_accepted_household_id_survives_a_round_trip(tmp_path):
    records = [make_record(household_id=h) for h in ("h1", "h 1", "h\n1", "h1", None)]
    path = tmp_path / "hh.csv"
    write_csv(records, path)
    assert read_csv(path) == records


def test_a_utf8_byte_order_mark_is_skipped_and_not_counted(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + _GOLDEN.encode("utf-8"))
    plain = tmp_path / "plain.csv"
    plain.write_text(_GOLDEN)
    assert read_csv(path) == read_csv(plain)
    path.write_bytes(b"\xef\xbb\xbf" + _GOLDEN.encode("utf-8").replace(b"walking", b"walking\xff"))
    with pytest.raises(DataError, match=r"bom\.csv, line 3: not UTF-8"):
        read_csv(path)


def test_equal_profiles_read_from_one_file_are_one_object(tmp_path):
    first = _GOLDEN.splitlines()[1]
    padded = " , ".join(first.split(",")).replace("work , 8", "shop , 9")  # same profile, padded
    path = tmp_path / "trips.csv"
    path.write_text(_GOLDEN + padded + "\n")
    records = read_csv(path)
    assert records[3].profile is records[0].profile
    assert (records[3].trip_purpose, records[3].start_time) == ("shop", 9)
    assert len({id(r.profile) for r in records}) == 3


# ----------------------------------------------------------------------
# read_csv against its csv.DictReader reference
# ----------------------------------------------------------------------


def _record_from_row(row, index):
    """The TripRecord of one ``csv.DictReader`` row, as ``read_csv`` once built it."""
    values = {}
    for column in CSV_COLUMNS:
        if column not in row or row[column] is None:
            raise SchemaViolation(index, column, None, "missing value")
        values[column] = row[column].strip()
    start_raw = values["start_time"]
    if start_raw not in START_TIMES:
        raise SchemaViolation(index, "start_time", start_raw)
    household = row.get(HOUSEHOLD_COLUMN)
    if household is not None:
        household = household.strip() or None
    try:
        return TripRecord(
            profile=AgentProfile(*(values[f] for f in PROFILE_FIELDS)),
            trip_purpose=values["trip_purpose"],
            start_time=int(start_raw),
            primary_mode=values["primary_mode"],
            duration_minutes=values["duration_minutes"],
            household_id=household,
        )
    except SchemaViolation as exc:
        raise SchemaViolation(index, exc.column, exc.value) from None


def _dictreader_read_csv(path):
    """``read_csv`` as written with ``csv.DictReader``: the reference of the oracle test."""
    with open(path, "rb") as fp:
        data = fp.read()
    try:
        reader = csv.DictReader(io.StringIO(data.decode("utf-8"), newline=""))
        header = reader.fieldnames or []
        for column in CSV_COLUMNS:
            if column not in header:
                raise MissingColumn(column)
        return [_record_from_row(row, i) for i, row in enumerate(reader, start=1)]
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}, line {line}: not UTF-8: {exc.reason}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}, line {reader.reader.line_num}: {exc}") from exc


_ORACLE_CATEGORIES = {**INPUT_CATEGORIES, **OUTPUT_CATEGORIES}
_ORACLE_BAD_CELLS = ("", " ", "teleport", "24", "+5", "wo\nrk", "8.0")


def _oracle_cell(rng, name) -> str:
    if name in _ORACLE_CATEGORIES:
        return rng.choice(_ORACLE_CATEGORIES[name][:3])  # few profiles, so they repeat
    if name == HOUSEHOLD_COLUMN:
        return rng.choice(("h1", "h2", "", " h1 ", "h\n2"))
    return rng.choice(("note", "a,b", "x\ny", ""))


def _oracle_trip_csv(rng) -> bytes:
    """A small trip CSV, broken at random in the ways ``read_csv`` has rules for."""
    header = list(CSV_COLUMNS) + [HOUSEHOLD_COLUMN] * (rng.random() < 0.4)
    if rng.random() < 0.3:
        rng.shuffle(header)
    if rng.random() < 0.2:  # a repeated name: its last cell is read
        header.insert(rng.randrange(len(header) + 1), rng.choice(header))
    if rng.random() < 0.1:
        header.remove(rng.choice(CSV_COLUMNS))
    if rng.random() < 0.15:
        header.insert(rng.randrange(len(header) + 1), rng.choice(("note", "")))
    rows = [[] if rng.random() < 0.05 else header]  # [] is a blank header line
    for _ in range(rng.randrange(7)):
        if rng.random() < 0.15:
            rows.append([])  # a blank line
        row = [_oracle_cell(rng, name) for name in header]
        if rng.random() < 0.3:
            i = rng.randrange(len(row))
            row[i] = rng.choice((" ", "\t", "  ")) + row[i] + rng.choice(("", " "))
        if rng.random() < 0.06:
            row[rng.randrange(len(row))] = rng.choice(_ORACLE_BAD_CELLS)
        if rng.random() < 0.1:
            row = row[: rng.randrange(len(row))]  # short, perhaps to one empty cell
        if rng.random() < 0.1:
            row += ["extra"] * rng.randrange(1, 3)
        if rng.random() < 0.02:
            row[rng.randrange(len(row))] = "w" * (csv.field_size_limit() + 1)
        rows.append(row)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    data = buffer.getvalue().encode("utf-8")
    if rng.random() < 0.05:
        i = rng.randrange(len(data) + 1)
        data = data[:i] + b"\xff" + data[i:]
    return data


def _outcome(read, path):
    try:
        return read(path)
    except DataError as exc:
        return type(exc), str(exc)


def test_read_csv_matches_its_dictreader_reference_on_seeded_files(tmp_path):
    """400 seeded files: the same records, or the same exception type and message."""
    rng = random.Random(33)
    path = tmp_path / "trips.csv"
    seen = set()
    for case in range(400):
        path.write_bytes(_oracle_trip_csv(rng))
        expected = _outcome(_dictreader_read_csv, path)
        assert _outcome(read_csv, path) == expected, (case, path.read_bytes())
        seen.add(expected[0] if isinstance(expected, tuple) else len(expected) > 0)
        if isinstance(expected, tuple) and expected[0] is DataError:
            seen.add(expected[1].split(": ")[1][:10])
    # every path of the reader was taken: records, none, each error
    assert {True, False, MissingColumn, SchemaViolation, "not UTF-8", "field larg"} <= seen


# ----------------------------------------------------------------------
# synthetic generation
# ----------------------------------------------------------------------


def test_generate_deterministic_and_valid():
    spec = default_synthetic_spec()
    a = generate_synthetic(spec, size=200, seed=5)
    b = generate_synthetic(spec, size=200, seed=5)
    c = generate_synthetic(spec, size=200, seed=6)
    assert a == b
    assert a != c
    for record in a:
        # rebuilding runs the schema checks again: any out-of-category value raises
        dataclasses.replace(record, profile=dataclasses.replace(record.profile))


def test_generate_zero_size():
    assert generate_synthetic(default_synthetic_spec(), size=0, seed=0) == []


def test_generated_conditional_matches_spec_lln():
    spec = default_synthetic_spec()
    records = generate_synthetic(spec, size=10000, seed=0)
    bucket = [r for r in records if r.profile.available_vehicles == "three_plus"]
    assert len(bucket) > 1000  # marginal 0.15 of 10k
    share = sum(r.primary_mode == "private_auto" for r in bucket) / len(bucket)
    assert share == pytest.approx(0.70, abs=0.02)


def test_generated_marginal_matches_spec_lln():
    records = generate_synthetic(default_synthetic_spec(), size=10000, seed=1)
    share = sum(r.profile.employment_status == "employed" for r in records) / len(records)
    assert share == pytest.approx(0.75, abs=0.02)


def test_hour_conditioned_spec_structure_lln():
    from preference_chain.ingest import hour_conditioned_spec

    spec = hour_conditioned_spec()
    assert spec.conditioned_on == "start_time"
    records = generate_synthetic(spec, size=10000, seed=2)
    assert {r.start_time for r in records} == {8, 12, 17, 21}
    morning = [r for r in records if r.start_time == 8]
    share = sum(r.primary_mode == "private_auto" for r in morning) / len(morning)
    assert share == pytest.approx(0.70, abs=0.02)
    noon = [r for r in records if r.start_time == 12]
    share = sum(r.duration_minutes == "0-10" for r in noon) / len(noon)
    assert share == pytest.approx(0.70, abs=0.02)


@pytest.mark.parametrize("options", [(), ("walk", "bike", "walk")], ids=["empty", "repeated"])
def test_a_choice_set_needs_distinct_options(options):
    with pytest.raises(ValueError, match="choice set 'mode' has"):
        ChoiceCategorySet("mode", options)


def test_spec_validation_failures():
    spec = default_synthetic_spec()
    age = spec.marginals["age_group"]

    without_age = {k: v for k, v in spec.marginals.items() if k != "age_group"}
    with pytest.raises(InvalidSpec):
        dataclasses.replace(spec, marginals=without_age)

    over_one = {**spec.marginals, "age_group": {**age, "25-34": age["25-34"] + 0.5}}  # sum != 1
    with pytest.raises(InvalidSpec):
        dataclasses.replace(spec, marginals=over_one)

    unknown = {**spec.marginals, "age_group": {**age, "middle-aged": 0.0}}  # unknown category
    with pytest.raises(InvalidSpec):
        dataclasses.replace(spec, marginals=unknown)

    # bucket with positive marginal
    without_one = {k: v for k, v in spec.mode_conditionals.items() if k != "one"}
    with pytest.raises(InvalidSpec):
        dataclasses.replace(spec, mode_conditionals=without_one)

    with pytest.raises(InvalidSpec):
        dataclasses.replace(spec, spec_version="99")

    with pytest.raises(InvalidSpec, match="seed"):
        dataclasses.replace(spec, seed=-1)


def test_spec_keeps_no_unread_entries():
    spec = default_synthetic_spec()
    with pytest.raises(InvalidSpec, match="exactly the columns"):
        dataclasses.replace(spec, marginals={**spec.marginals, "colour": "red"})
    with pytest.raises(InvalidSpec, match="bogus"):
        dataclasses.replace(spec, mode_conditionals={**spec.mode_conditionals, "bogus": [1, "x"]})
    with pytest.raises(InvalidSpec):
        dataclasses.replace(
            spec,
            mode_conditionals={**spec.mode_conditionals, "bogus": [1, "x"]},
            marginals={**spec.marginals, "colour": "red"},
        )
    # a table for a bucket outside the support is checked too
    hourly = hour_conditioned_spec()
    with pytest.raises(InvalidSpec, match=r"duration_conditionals\[3\]"):
        dataclasses.replace(
            hourly, duration_conditionals={**hourly.duration_conditionals, "3": {"0-10": 2.0}}
        )


def test_a_probability_too_large_for_a_float_is_an_invalid_spec():
    """The per-value check keeps an int no float can hold from the table's sum."""
    spec = default_synthetic_spec()

    def huge(table):
        first = next(iter(table))
        return {k: 10**400 if k == first else 0 for k in table}

    marginals = {**spec.marginals, "age_group": huge(spec.marginals["age_group"])}
    with pytest.raises(InvalidSpec, match=r"marginals\[age_group\]: .* above 1 "):
        dataclasses.replace(spec, marginals=marginals)
    bucket = next(iter(spec.mode_conditionals))
    conditionals = {**spec.mode_conditionals, bucket: huge(spec.mode_conditionals[bucket])}
    with pytest.raises(InvalidSpec, match=rf"mode_conditionals\[{bucket}\]: .* above 1 "):
        dataclasses.replace(spec, mode_conditionals=conditionals)


def test_spec_json_round_trip():
    spec = dataclasses.replace(default_synthetic_spec(), population=500, seed=42)
    buf = io.StringIO()
    spec.to_json(buf)
    buf.seek(0)
    loaded = SyntheticSpec.from_json(buf)
    assert loaded == spec
    # generated data agrees too
    assert generate_synthetic(loaded, size=50, seed=loaded.seed) == generate_synthetic(spec, size=50, seed=42)


def test_spec_json_malformed():
    with pytest.raises(InvalidSpec):
        SyntheticSpec.from_json(io.StringIO(json.dumps({"population": 5})))


@pytest.mark.parametrize(
    "factory,digest",
    [
        (default_synthetic_spec, "50e9d8f1b9876172cd1c4b1773fc898523e918e3f6bc6e56f2c2a98b81f7ed72"),
        (hour_conditioned_spec, "5ffcd27bb32fea2fb67a38c0cb3e7408f85a89c4a8d366d01fb5a3764a5a102b"),
    ],
    ids=["default", "hour-conditioned"],
)
def test_bundled_spec_json_bytes_are_pinned(factory, digest):
    buffer = io.StringIO()
    factory().to_json(buffer)
    assert hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest() == digest
    assert next(iter(json.loads(buffer.getvalue()))) == "spec_version"


def test_spec_tables_are_read_only():
    spec = default_synthetic_spec()
    with pytest.raises(AttributeError):
        spec.mode_conditionals.pop("one")
    with pytest.raises(TypeError):
        spec.marginals["age_group"]["18-24"] = -5.0
    with pytest.raises(TypeError):
        spec.duration_conditionals["one"] = {"0-10": 1.0}
    assert generate_synthetic(spec, size=100, seed=0) == generate_synthetic(default_synthetic_spec(), size=100, seed=0)
    # a replaced spec is checked and built again from the read-only tables
    reseeded = dataclasses.replace(spec, seed=3)
    assert reseeded.marginals == spec.marginals and len(generate_synthetic(reseeded, size=10, seed=3)) == 10
    # the caller's tables are copied, so editing them later changes nothing
    marginals = {name: dict(table) for name, table in spec.marginals.items()}
    built = dataclasses.replace(spec, marginals=marginals)
    marginals["age_group"]["18-24"] = -5.0
    assert built.marginals["age_group"]["18-24"] == spec.marginals["age_group"]["18-24"]


# ----------------------------------------------------------------------
# reference/validation split
# ----------------------------------------------------------------------


def test_split_sizes_disjoint_and_seeded():
    records = generate_synthetic(default_synthetic_spec(), size=100, seed=2)
    ref, val = split_reference_validation(records, 30, 50, seed=9)
    assert len(ref) == 30
    assert len(val) == 50
    ids = {id(r) for r in ref} | {id(r) for r in val}
    assert len(ids) == 80  # no record object appears twice

    ref2, val2 = split_reference_validation(records, 30, 50, seed=9)
    assert ref2 == ref and val2 == val
    ref3, _ = split_reference_validation(records, 30, 50, seed=10)
    assert ref3 != ref


def test_split_not_enough_records():
    records = generate_synthetic(default_synthetic_spec(), size=10, seed=3)
    with pytest.raises(NotEnoughRecords):
        split_reference_validation(records, 8, 5, seed=0)
    with pytest.raises(ValueError):
        split_reference_validation(records, -1, 5, seed=0)


def test_profile_fields_are_the_profile_columns_in_order():
    assert PROFILE_FIELDS == tuple(f.name for f in dataclasses.fields(AgentProfile))
    assert PROFILE_FIELDS == tuple(INPUT_CATEGORIES)[:6] == CSV_COLUMNS[:6]
