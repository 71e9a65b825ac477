import dataclasses
import hashlib
import io
import json

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
from preference_chain.schema import CSV_COLUMNS

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
    assert generate_synthetic(default_synthetic_spec(), size=0) == []


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


def test_spec_json_round_trip():
    spec = default_synthetic_spec(population=500, seed=42)
    buf = io.StringIO()
    spec.to_json(buf)
    buf.seek(0)
    loaded = SyntheticSpec.from_json(buf)
    assert loaded == spec
    # generated data agrees too
    assert generate_synthetic(loaded, size=50) == generate_synthetic(spec, size=50)


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
    assert generate_synthetic(spec, size=100) == generate_synthetic(default_synthetic_spec(), size=100)
    # a replaced spec is checked and built again from the read-only tables
    reseeded = dataclasses.replace(spec, seed=3)
    assert reseeded.marginals == spec.marginals and len(generate_synthetic(reseeded, size=10)) == 10
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
