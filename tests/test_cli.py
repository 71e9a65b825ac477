"""Command-line workflows end to end: happy paths, reruns, exit codes."""

import copy
import csv
import hashlib
import io
import json
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from preference_chain import config as config_module
from preference_chain.behavior_graph import EdgeKind, NodeKind, build_from_records
from preference_chain.city import DEFAULT_MODE_SPEEDS, CityModel, grid_city
from preference_chain.config import RunConfig
from preference_chain.cli import main
from preference_chain.embedding import RemoteEmbedder
from preference_chain.ingest import default_synthetic_spec, read_csv, write_csv, write_csv_fp
from preference_chain.schema import INPUT_CATEGORIES, OUTPUT_CATEGORIES, START_TIMES
from tests.conftest import make_record
from tests.test_embedding import _FakeResponse


def run(argv):
    return main([str(a) for a in argv])


def write_agent(path, **overrides):
    obj = {
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
    obj.update(overrides)
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


@pytest.fixture
def trips_csv(tmp_path):
    path = tmp_path / "trips.csv"
    assert run(["gen-synth", "--size", 60, "--out", path]) == 0
    return path


# ----------------------------------------------------------------------
# gen-synth
# ----------------------------------------------------------------------


def test_gen_synth_writes_valid_csv(tmp_path, capsys):
    out = tmp_path / "trips.csv"
    assert run(["gen-synth", "--size", 25, "--out", out]) == 0
    assert "wrote 25 records" in capsys.readouterr().out
    assert len(read_csv(out)) == 25


def test_gen_synth_deterministic_per_seed(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert run(["gen-synth", "--size", 30, "--seed", 5, "--out", a]) == 0
    assert run(["gen-synth", "--size", 30, "--seed", 5, "--out", b]) == 0
    assert run(["--seed", 6, "gen-synth", "--size", 30, "--out", c]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_synth_custom_spec_file(tmp_path):
    from tests.conftest import recovery_spec

    spec_path = tmp_path / "spec.json"
    with open(spec_path, "w", encoding="utf-8") as fp:
        recovery_spec().to_json(fp)
    out = tmp_path / "trips.csv"
    assert run(["gen-synth", "--spec", spec_path, "--size", 40, "--out", out]) == 0
    records = read_csv(out)
    assert len(records) == 40
    assert {r.start_time for r in records} <= {8, 12, 17, 21}


def test_gen_synth_spec_seed_draws_unless_seed_flag(tmp_path):
    """A spec's own seed draws the records; --seed on the command line wins."""
    import dataclasses

    outs = {}
    for seed in (0, 42):
        spec_path = tmp_path / f"spec{seed}.json"
        with open(spec_path, "w", encoding="utf-8") as fp:
            dataclasses.replace(default_synthetic_spec(), seed=seed).to_json(fp)
        for flags in ([], ["--seed", 5]):
            out = tmp_path / f"trips{seed}-{len(flags)}.csv"
            argv = ["gen-synth", "--spec", spec_path, "--size", 30, "--out", out]
            assert run(argv + flags) == 0
            outs[seed, bool(flags)] = out.read_bytes()
    assert outs[0, False] != outs[42, False]
    assert outs[0, True] == outs[42, True]


def test_gen_synth_requires_out(capsys):
    assert run(["gen-synth", "--size", 5]) == 2
    assert "config error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# build-graph
# ----------------------------------------------------------------------


def test_build_graph_snapshot_round_trip(tmp_path, trips_csv, capsys):
    snapshot = tmp_path / "graph.csv"
    assert run(["build-graph", "--reference", trips_csv, "--out", snapshot]) == 0
    out = capsys.readouterr().out
    assert "nodes" in out and "edges" in out
    assert snapshot.read_bytes() == _trip_csv_text(read_csv(trips_csv)).encode("utf-8")
    again = tmp_path / "graph2.csv"
    assert run(["build-graph", "--reference", trips_csv, "--out", again]) == 0
    assert snapshot.read_bytes() == again.read_bytes()


def test_build_graph_missing_reference(tmp_path, capsys):
    code = run(["build-graph", "--reference", tmp_path / "nope.csv", "--out", tmp_path / "g"])
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_build_graph_empty_reference(tmp_path, trips_csv, capsys):
    header = trips_csv.read_text(encoding="utf-8").splitlines()[0]
    empty = tmp_path / "empty.csv"
    empty.write_text(header + "\n", encoding="utf-8")
    assert run(["build-graph", "--reference", empty, "--out", tmp_path / "g"]) == 3
    assert "data error" in capsys.readouterr().err


def test_build_graph_broken_reference(tmp_path, trips_csv, capsys):
    lines = trips_csv.read_text(encoding="utf-8").splitlines()
    row = lines[1].split(",")
    row[8] = "teleport"  # primary_mode column
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join([lines[0], ",".join(row)]) + "\n", encoding="utf-8")
    assert run(["build-graph", "--reference", broken, "--out", tmp_path / "g"]) == 3
    assert capsys.readouterr().err == (
        "data error: --reference: row 1, column 'primary_mode': invalid value 'teleport'\n"
    )


# ----------------------------------------------------------------------
# predict
# ----------------------------------------------------------------------


def test_predict_identity_mock_echoes_prior(tmp_path, trips_csv, capsys):
    agent = write_agent(tmp_path / "agent.json")
    result_path = tmp_path / "result.json"
    code = run(["predict", "--agent", agent, "--reference", trips_csv, "--out", result_path])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    saved = json.loads(result_path.read_text(encoding="utf-8"))
    assert printed == saved
    for name in ("primary_mode", "duration_minutes"):
        entry = saved[name]
        assert entry["prior"] == entry["posterior"]
        assert entry["source"] == "llm_accepted"
        assert sum(entry["prior"].values()) == pytest.approx(1.0, abs=1e-9)


# The reference of each pinned stdout that is not ``predict_reference.csv``.
# Its households give the graph relative_of edges, which no other pinned
# output has (see ``test_the_household_fixture_scores_relatives``).
_PINNED_REFERENCES = {"predict_stdout_households.json": "predict_reference_households.csv"}


@pytest.mark.parametrize(
    "pipeline,expected",
    [
        (None, "predict_stdout.json"),
        (
            {"k": 2, "max_path_edges": 3, "depth": 2, "epsilon": 0.01, "tau": 2.0, "blend": 0.5},
            "predict_stdout_knobs.json",
        ),
        (None, "predict_stdout_households.json"),
    ],
)
def test_predict_stdout_is_pinned(tmp_path, capsys, pipeline, expected):
    data = Path(__file__).parent / "data"
    agent = write_agent(tmp_path / "agent.json", context="light rain")
    reference = _PINNED_REFERENCES.get(expected, "predict_reference.csv")
    argv = ["predict", "--agent", agent, "--reference", data / reference]
    if pipeline is not None:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"pipeline": pipeline}), encoding="utf-8")
        argv = ["--config", config] + argv
    assert run(argv) == 0
    assert capsys.readouterr().out == (data / expected).read_text(encoding="utf-8")


def test_the_household_fixture_scores_relatives():
    """The household fixture is ``predict_reference.csv`` plus a seeded
    ``household_id``; its relative_of edges change the pinned prediction."""
    data = Path(__file__).parent / "data"
    plain = read_csv(data / "predict_reference.csv")
    households = read_csv(data / "predict_reference_households.csv")
    assert [replace(r, household_id=None) for r in households] == plain
    rng = random.Random(0)
    assert [r.household_id for r in households] == [f"h{rng.randrange(len(plain) // 3)}" for _ in plain]
    graph = build_from_records(households)
    assert any(e.kind == EdgeKind.RELATIVE_OF for e in graph.edges())
    pinned = {name: (data / name).read_text(encoding="utf-8") for name in (
        "predict_stdout.json", "predict_stdout_households.json"
    )}
    assert pinned["predict_stdout.json"] != pinned["predict_stdout_households.json"]


def test_a_huge_depth_stops_where_the_search_runs_out(tmp_path):
    """Without households nothing lies past depth 2, so depth 10**9 prints the
    pinned depth-3 prediction. The search stops once both frontiers are empty;
    10**9 empty rounds would outlast the timeout."""
    data = Path(__file__).parent / "data"
    agent = write_agent(tmp_path / "agent.json", context="light rain")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"pipeline": {"depth": 10**9}}), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in ("PC_LLM_URL", "PC_EMBED_URL")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["--config", config, "predict", "--agent", agent, "--reference", data / "predict_reference.csv"]
    done = subprocess.run(
        [sys.executable, "-m", "preference_chain", *map(str, argv)],
        env=env, capture_output=True, encoding="utf-8", timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (data / "predict_stdout.json").read_text(encoding="utf-8")


def test_predict_from_graph_snapshot(tmp_path, trips_csv, capsys):
    """build-graph writes a trip CSV that --reference reads: same prediction, same bytes."""
    snapshot = tmp_path / "graph.csv"
    assert run(["build-graph", "--reference", trips_csv, "--out", snapshot]) == 0
    agent = write_agent(tmp_path / "agent.json")
    out_direct = tmp_path / "direct.json"
    out_snap = tmp_path / "snap.json"
    capsys.readouterr()
    assert run(["predict", "--agent", agent, "--reference", trips_csv, "--out", out_direct]) == 0
    printed = capsys.readouterr().out
    assert run(["predict", "--agent", agent, "--reference", snapshot, "--out", out_snap]) == 0
    assert capsys.readouterr().out == printed
    assert out_direct.read_bytes() == out_snap.read_bytes()


def test_predict_invalid_agents(tmp_path, trips_csv, capsys):
    missing_field = tmp_path / "a1.json"
    obj = json.loads(write_agent(tmp_path / "tmp.json").read_text())
    del obj["profile"]["education"]
    missing_field.write_text(json.dumps(obj), encoding="utf-8")
    assert run(["predict", "--agent", missing_field, "--reference", trips_csv]) == 3

    bad_hour = write_agent(tmp_path / "a2.json", start_time=24)
    assert run(["predict", "--agent", bad_hour, "--reference", trips_csv]) == 3

    bool_hour = write_agent(tmp_path / "a4.json", start_time=True)  # bool is an int subtype
    assert run(["predict", "--agent", bool_hour, "--reference", trips_csv]) == 3

    bad_purpose = write_agent(tmp_path / "a5.json", trip_purpose="flying")
    capsys.readouterr()
    assert run(["predict", "--agent", bad_purpose, "--reference", trips_csv]) == 3
    # an agent file has no data rows, so its error names none
    assert capsys.readouterr().err == "data error: --agent: column 'trip_purpose': invalid value 'flying'\n"

    no_profile = tmp_path / "a9.json"
    no_profile.write_text(json.dumps({"trip_purpose": "work", "start_time": 8}), encoding="utf-8")
    assert run(["predict", "--agent", no_profile, "--reference", trips_csv]) == 3
    assert capsys.readouterr().err == (
        "data error: --agent: column 'profile': invalid value None (missing profile object)\n"
    )

    bad_context = write_agent(tmp_path / "a6.json", context=5)
    assert run(["predict", "--agent", bad_context, "--reference", trips_csv]) == 3

    for name, text in (("a7.json", "{oops"), ("a8.json", "[1, 2]")):
        (tmp_path / name).write_text(text, encoding="utf-8")
        assert run(["predict", "--agent", tmp_path / name, "--reference", trips_csv]) == 3

    bad_category = write_agent(tmp_path / "a3.json")
    obj = json.loads(bad_category.read_text())
    obj["profile"]["age_group"] = "17"
    bad_category.write_text(json.dumps(obj), encoding="utf-8")
    assert run(["predict", "--agent", bad_category, "--reference", trips_csv]) == 3

    assert run(["predict", "--agent", tmp_path / "absent.json", "--reference", trips_csv]) == 2
    capsys.readouterr()


def test_predict_scores_each_prior_once(tmp_path, trips_csv, capsys, monkeypatch):
    from preference_chain import pipeline

    calls = {"prior_distribution": 0, "calibrate": 0}

    def counted(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, wrapper)

    counted("prior_distribution")
    counted("calibrate")
    agent = write_agent(tmp_path / "agent.json")
    assert run(["predict", "--agent", agent, "--reference", trips_csv]) == 0
    capsys.readouterr()
    # one of each per choice set: primary_mode and duration_minutes
    assert calls == {"prior_distribution": 2, "calibrate": 2}


def test_an_edit_after_a_query_exits_3(tmp_path, trips_csv, capsys, monkeypatch):
    from preference_chain import pipeline

    predict_all = pipeline.PreferenceChain.predict_all

    def predict_then_edit(chain, agent):
        results = predict_all(chain, agent)
        chain.graph.add_node(NodeKind.PERSON, "a person added after a query")
        return results

    monkeypatch.setattr(pipeline.PreferenceChain, "predict_all", predict_then_edit)
    agent = write_agent(tmp_path / "agent.json")
    assert run(["predict", "--agent", agent, "--reference", trips_csv]) == 3
    assert "data error: a behavior graph cannot gain a node" in capsys.readouterr().err


# ----------------------------------------------------------------------
# evaluate / sweep
# ----------------------------------------------------------------------


def test_evaluate_writes_reports(tmp_path, trips_csv, capsys):
    validation = tmp_path / "val.csv"
    assert run(["gen-synth", "--size", 30, "--seed", 2, "--out", validation]) == 0
    out = tmp_path / "eval"
    code = run(
        ["evaluate", "--reference", trips_csv, "--validation", validation,
         "--baselines", "--out", out]
    )
    assert code == 0
    assert "mean kld" in capsys.readouterr().out
    with open(out / "report.csv", encoding="utf-8") as fp:
        rows = list(csv.DictReader(fp))
    predictors = {row["predictor"] for row in rows}
    assert predictors == {"chain", "uniform", "marginal"}
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert set(report) == {"chain", "uniform", "marginal"}
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "evaluate"
    assert manifest["n_reference"] == 60 and manifest["n_validation"] == 30


def test_evaluate_opens_each_trip_csv_once(tmp_path, trips_csv, monkeypatch):
    import builtins

    validation = tmp_path / "val.csv"
    assert run(["gen-synth", "--size", 20, "--seed", 3, "--out", validation]) == 0
    opened = []
    real_open = builtins.open

    def counted_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted_open)
    argv = ["evaluate", "--reference", trips_csv, "--validation", validation, "--out", tmp_path / "e"]
    assert run(argv) == 0
    assert opened.count(str(trips_csv)) == 1
    assert opened.count(str(validation)) == 1


def test_evaluate_rerun_is_byte_identical(tmp_path, trips_csv):
    validation = tmp_path / "val.csv"
    assert run(["gen-synth", "--size", 20, "--seed", 3, "--out", validation]) == 0
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert run(["evaluate", "--reference", trips_csv, "--validation", validation, "--out", out]) == 0
        outs.append((out / "report.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_writes_rows(tmp_path, trips_csv, capsys):
    out = tmp_path / "sweep"
    code = run(
        ["sweep", "--reference", trips_csv, "--sizes", "5,10", "--seeds", 2,
         "--n-validation", 20, "--out", out]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,seed,metric,value"
    assert len(lines) == 1 + 2 * 2 * 2
    capsys.readouterr()


def test_sweep_rejects_bad_sizes(tmp_path, trips_csv, capsys):
    assert run(["sweep", "--reference", trips_csv, "--sizes", "ten", "--out", tmp_path / "s"]) == 2
    assert run(["sweep", "--reference", trips_csv, "--sizes", "", "--out", tmp_path / "s"]) == 2
    # pool too small for sizes + validation -> data error
    assert run(
        ["sweep", "--reference", trips_csv, "--sizes", "50", "--n-validation", 50,
         "--out", tmp_path / "s"]
    ) == 3
    assert not (tmp_path / "s").exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--seeds", -1],
        ["sweep", "--sizes", "10,-5"],
        ["sweep", "--n-validation", -20],
        ["sweep", "--n-validation", 0],
        ["gen-synth", "--size", -3],
    ],
    ids=["seeds", "sizes", "n-validation", "n-validation-zero", "size"],
)
def test_negative_sizes_and_counts_exit_2(tmp_path, trips_csv, capsys, argv):
    """The exit-code corpus for sizes and counts out of range: config errors, no output."""
    if argv[0] == "sweep":  # valid values first; the bad one overrides its flag
        argv = ["sweep", "--reference", trips_csv, "--sizes", "5", "--n-validation", 20] + argv[1:]
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "sweep", "simulate"])
def test_out_that_is_a_file_exits_2(tmp_path, trips_csv, capsys, command):
    """An --out that names an existing file is a config error before any work."""
    out = tmp_path / "taken"
    out.write_text("keep\n", encoding="utf-8")
    argv = {
        "evaluate": ["evaluate", "--reference", trips_csv, "--validation", trips_csv],
        "sweep": ["sweep", "--reference", trips_csv, "--sizes", "5", "--n-validation", 20],
        "simulate": ["simulate", "--reference", trips_csv, "--agents", 1],
    }[command]
    assert run(argv + ["--out", out]) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("case", ["directory", "no-parent"])
@pytest.mark.parametrize("command", ["gen-synth", "build-graph", "predict"])
def test_out_file_that_cannot_be_written_exits_2(
    tmp_path, trips_csv, capsys, monkeypatch, command, case
):
    """An --out file that is a directory, or lies in none, is a config error before any work."""
    from preference_chain import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work done before --out was checked")

    monkeypatch.setattr(cli, "generate_synthetic", no_work)
    monkeypatch.setattr(cli, "build_from_records", no_work)
    agent = write_agent(tmp_path / "agent.json")
    target = tmp_path / "target"
    target.mkdir()
    out = target if case == "directory" else target / "missing" / "out.txt"
    argv = {
        "gen-synth": ["gen-synth", "--size", 5],
        "build-graph": ["build-graph", "--reference", trips_csv],
        "predict": ["predict", "--agent", agent, "--reference", trips_csv],
    }[command]
    assert run(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert "config error: --out" in captured.err and captured.out == ""
    assert list(target.iterdir()) == []


def test_simulate_checks_out_before_building_the_graph(tmp_path, trips_csv, capsys, monkeypatch):
    from preference_chain import cli

    def no_work(*args, **kwargs):
        raise AssertionError("graph built before --out was checked")

    monkeypatch.setattr(cli, "build_from_records", no_work)
    out = tmp_path / "taken"
    out.write_text("keep\n", encoding="utf-8")
    assert run(["simulate", "--reference", trips_csv, "--agents", 1, "--out", out]) == 2
    assert "is not a directory" in capsys.readouterr().err


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def test_simulate_outputs_and_conservation(tmp_path, trips_csv, capsys):
    city_path = tmp_path / "city.json"
    grid_city(width=5, height=5, pois_per_category=2, seed=0).save(city_path)
    out = tmp_path / "sim"
    code = run(
        ["simulate", "--city", city_path, "--reference", trips_csv, "--agents", 3, "--out", out]
    )
    assert code == 0
    assert "traversals" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["agents"] == 3
    with open(out / "edge_tally.csv", encoding="utf-8") as fp:
        total = sum(int(row["count"]) for row in csv.DictReader(fp))
    assert total == summary["edge_traversals"]


def test_simulate_rerun_identical_and_tally_comparison(tmp_path, trips_csv, capsys):
    city_path = tmp_path / "city.json"
    grid_city(width=4, height=4, pois_per_category=2, seed=1).save(city_path)
    first = tmp_path / "s1"
    second = tmp_path / "s2"
    base = ["simulate", "--city", city_path, "--reference", trips_csv, "--agents", 2]
    assert run(base + ["--out", first]) == 0
    assert run(base + ["--out", second]) == 0
    assert (first / "edge_tally.csv").read_bytes() == (second / "edge_tally.csv").read_bytes()
    assert (first / "poi_tally.csv").read_bytes() == (second / "poi_tally.csv").read_bytes()

    compared = tmp_path / "s3"
    code = run(base + ["--reference-tally", first / "edge_tally.csv", "--out", compared])
    assert code == 0
    summary = json.loads((compared / "summary.json").read_text(encoding="utf-8"))
    assert summary["flow_kld"] == pytest.approx(0.0, abs=1e-6)  # same run against itself
    capsys.readouterr()


def test_outputs_do_not_depend_on_the_string_hash_seed(tmp_path, trips_csv):
    validation = tmp_path / "val.csv"
    assert run(["gen-synth", "--size", 20, "--seed", 3, "--out", validation]) == 0
    city_path = tmp_path / "city.json"
    grid_city(width=4, height=4, pois_per_category=2, seed=1).save(city_path)
    env = {k: v for k, v in os.environ.items() if k not in ("PC_LLM_URL", "PC_EMBED_URL")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    commands = {
        "evaluate": ["--reference", trips_csv, "--validation", validation, "--baselines"],
        "simulate": ["--city", city_path, "--reference", trips_csv, "--agents", 3],
    }
    runs = []
    for hash_seed in ("1", "2"):
        cwd = tmp_path / f"hash-{hash_seed}"  # outputs go to a relative path, printed alike
        cwd.mkdir()
        printed = []
        for command, argv in commands.items():
            done = subprocess.run(
                [sys.executable, "-m", "preference_chain", command, *map(str, argv),
                 "--out", f"out/{command}"],
                cwd=cwd,
                env=dict(env, PYTHONHASHSEED=hash_seed),
                capture_output=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            printed.append(done.stdout)
        out = cwd / "out"
        files = {
            p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()
        }
        runs.append((printed, files))
    assert {"evaluate/report.csv", "simulate/edge_tally.csv"} <= runs[0][1].keys()
    assert runs[0] == runs[1]


# sha256 of every file the commands in test_cli_output_bytes_are_pinned write;
# for a manifest.json, of its text with "version" and "config_hash" blanked.
_CLI_DIGESTS = {
    "evaluate/manifest.json": "4923a4b0ef40f477cb21ff715f53ecb89ce01263df9363105f8275b903a68d2a",
    "evaluate/report.csv": "24ff2641c6dbaa4a86dd73c8b22ef8454c3dbf5d38a4b4fb4503887a020e2ef5",
    "evaluate/report.json": "650095bb63e747df5c44c843c556124215b5d676e059eeaeb45a3a1f5afa8083",
    "graph.csv": "834e685b173b4683d4d85182e952dd739e348b84e175968b2dc61df2d1fc9d62",
    "predict.json": "7e67a59e170d9cab85a178064282222789c5824ec3c926bf69ce30e54c4b4c37",
    "reference-day/edge_tally.csv": "b52a2963457864cfb10c7f7aa16f9dc8ac99c55c48b619ef4d53c1da488ba4dc",
    "reference-day/manifest.json": "5dba58418e3b9a9bd1f685aeca517113711fc8384e7466ad7cb18518d6a4e356",
    "reference-day/poi_tally.csv": "2d7391e68fe00f484d905d0605d9395b0ec5e56ae2960095ffa6d9c1c570b94c",
    "reference-day/summary.json": "c811d1e1c1b5e310098690c27d554122586c155853ed58b8970d034f3516d011",
    "simulate/edge_tally.csv": "be813490a4e33f781f37876158d74c664797607c9a471ca3ed256707f86d01cd",
    "simulate/manifest.json": "c3a88c671bed71fdb465ab3a6d4dfb45d36253d9aa2486aee19ccf39407b6ca7",
    "simulate/poi_tally.csv": "c8f04d6bc9d9777f58f527ea650cf8785553218487210086bdca0cd2cf9b3201",
    "simulate/summary.json": "6933afecbe2f14b102d9f6ce9a49e942c59c9d8508c5bedf534ec89da730cc94",
    "sweep/manifest.json": "ae3bb182e9be2e09e6ed0fd38dbe3e70fad2a5ea7c486af53c3ad8998fc31f41",
    "sweep/sweep.csv": "25b993d7e2e364985ad3c43e18eab102e25df86a69f431f62cf2721db41e30cf",
    "trips.csv": "834e685b173b4683d4d85182e952dd739e348b84e175968b2dc61df2d1fc9d62",
    "val.csv": "9c1e0cbae3bfb5abfce11356d8509d43a173ff67a95b975a6cb89abe596dab4a",
}


def test_cli_output_bytes_are_pinned(tmp_path, capsys):
    """Each command's output files, byte for byte, on small seeded inputs."""
    out = tmp_path / "out"
    out.mkdir()
    trips, validation = out / "trips.csv", out / "val.csv"
    city = tmp_path / "city.json"
    grid_city(width=4, height=4, pois_per_category=2, seed=1).save(city)
    simulate = ["simulate", "--city", city, "--reference", trips, "--agents", 3]
    commands = [
        ["gen-synth", "--size", 200, "--seed", 3, "--out", trips],
        ["gen-synth", "--size", 40, "--seed", 4, "--out", validation],
        ["evaluate", "--reference", trips, "--validation", validation, "--baselines",
         "--out", out / "evaluate"],
        ["sweep", "--reference", trips, "--sizes", "10,50", "--seeds", 2,
         "--n-validation", 100, "--out", out / "sweep"],
        simulate + ["--seed", 1, "--out", out / "reference-day"],
        simulate + ["--reference-tally", out / "reference-day" / "edge_tally.csv",
                    "--out", out / "simulate"],
        ["build-graph", "--reference", trips, "--out", out / "graph.csv"],
        ["predict", "--agent", write_agent(tmp_path / "agent.json"), "--reference", trips,
         "--out", out / "predict.json"],
    ]
    for argv in commands:
        assert run(argv) == 0, argv
    capsys.readouterr()
    digests = {}
    for p in sorted(out.rglob("*")):
        if not p.is_file():
            continue
        data = p.read_bytes()
        if p.name == "manifest.json":
            manifest = json.loads(data)
            assert data.decode("utf-8") == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            manifest.update(version="", config_hash="")
            data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
        digests[p.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    assert digests == _CLI_DIGESTS


def test_simulate_errors(tmp_path, trips_csv, capsys):
    assert run(
        ["simulate", "--city", tmp_path / "nope.json", "--reference", trips_csv,
         "--out", tmp_path / "s"]
    ) == 2
    assert run(
        ["simulate", "--reference", trips_csv, "--agents", 0, "--out", tmp_path / "s"]
    ) == 2
    assert not (tmp_path / "s").exists()
    capsys.readouterr()


_CITY = {
    "nodes": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": 100.0, "y": 0.0}],
    "edges": [{"u": 0, "v": 1, "length": 100.0}],
    "pois": [{"id": "work-0", "category": "work", "node": 1}],
}


def _written_json(write) -> dict:
    """The JSON document that ``write`` writes to a text stream, decoded."""
    buffer = io.StringIO()
    write(buffer)
    return json.loads(buffer.getvalue())


def _broken_city(mutate) -> str:
    """A copy of the valid two-node ``_CITY`` after ``mutate``, as JSON text."""
    obj = json.loads(json.dumps(_CITY))
    mutate(obj)
    return json.dumps(obj)


def _nan_speed_city() -> str:
    """The simulate test's grid city with every speed NaN, as JSON text."""
    obj = _written_json(grid_city(width=3, height=3, pois_per_category=1).to_json)
    obj["speeds"] = {mode: math.nan for mode in obj["speeds"]}
    return json.dumps(obj)


def _grid_city_json(mutate) -> str:
    """The simulate test's grid city after ``mutate``, as JSON text."""
    obj = _written_json(grid_city(width=3, height=3, pois_per_category=1).to_json)
    mutate(obj)
    return json.dumps(obj)


def _grid_city_with_edge_lengths(length: float) -> str:
    """The simulate test's grid city with every edge ``length`` meters long, as JSON."""
    obj = _written_json(grid_city(width=3, height=3, pois_per_category=1).to_json)
    for edge in obj["edges"]:
        edge["length"] = length
    return json.dumps(obj)


def _trip_csv_text(records) -> str:
    """``records`` as the text of a trip CSV, as ``write_csv`` writes it."""
    buffer = io.StringIO()
    write_csv_fp(records, buffer)
    return buffer.getvalue()


def _trip_csv(mode: bytes) -> bytes:
    """A one-record trip CSV whose primary_mode field holds ``mode``."""
    text = _trip_csv_text([make_record(primary_mode="walking")])
    return text.encode("utf-8").replace(b"walking", mode)


def _broken_spec(mutate=None, **fields) -> str:
    """The bundled synthetic spec with ``fields`` replaced, then ``mutate``d, as JSON."""
    obj = _written_json(default_synthetic_spec().to_json)
    obj.update(fields)
    if mutate is not None:
        mutate(obj)
    return json.dumps(obj)


@pytest.mark.parametrize(
    "kind,text",
    [
        pytest.param("reference", "{oops\n", id="reference-not-a-trip-csv"),
        pytest.param("reference", _trip_csv(b"teleport").decode("utf-8"), id="reference-unknown-mode"),
        pytest.param("reference", _trip_csv_text([]), id="reference-no-records"),
        pytest.param("reference", _trip_csv(b"walking\xff"), id="reference-not-utf8"),
        pytest.param("validation", _trip_csv(b"teleport").decode("utf-8"), id="validation-unknown-mode"),
        pytest.param("city", "{oops", id="city-bad-json"),
        pytest.param("city", "[1, 2]", id="city-root-a-list"),
        pytest.param("city", _nan_speed_city(), id="city-nan-speed"),
        pytest.param("city", _broken_city(lambda c: c.pop("edges")), id="city-missing-key"),
        pytest.param(
            "city", _broken_city(lambda c: c["edges"][0].update(length=0)), id="city-zero-length"
        ),
        pytest.param("city", _grid_city_with_edge_lengths(math.inf), id="city-infinite-lengths"),
        pytest.param("city", _grid_city_with_edge_lengths(1e-13), id="city-lengths-below-tie"),
        pytest.param(
            "city",
            _broken_city(lambda c: c["nodes"].append({"id": 2, "x": 0.0, "y": 9.0})),
            id="city-disconnected",
        ),
        pytest.param(
            "city", _broken_city(lambda c: c["pois"][0].update(id=7)), id="city-poi-id-number"
        ),
        pytest.param(
            "city", _broken_city(lambda c: c["pois"][0].update(id=None)), id="city-poi-id-null"
        ),
        pytest.param(
            "city",
            _broken_city(lambda c: c["pois"].append({"id": "work-0", "category": "work", "node": 0})),
            id="city-poi-id-repeated",
        ),
        pytest.param(
            "city",
            _broken_city(lambda c: c.update(speeds={**DEFAULT_MODE_SPEEDS, "walking": True})),
            id="city-speed-bool",
        ),
        pytest.param(
            "city",
            _grid_city_json(lambda c: c.update(speeds={"walking": 80.0})),
            id="city-speeds-partial",
        ),
        pytest.param(
            "city",
            _grid_city_json(lambda c: c.update(speeds={m: math.inf for m in c["speeds"]})),
            id="city-speed-infinite",
        ),
        pytest.param(
            "city",
            _grid_city_json(lambda c: c["nodes"].append({"id": 4, "x": 999.0, "y": 999.0})),
            id="city-node-id-repeated",
        ),
        pytest.param(
            "city",
            _grid_city_json(lambda c: c["nodes"][1].update(id=True)),
            id="city-node-id-bool",
        ),
        pytest.param(
            "city",
            _grid_city_json(lambda c: c["nodes"][0].update(id="0x")),
            id="city-node-id-string",
        ),
        pytest.param(
            "city",
            _grid_city_json(lambda c: c["nodes"][0].update(x="12")),
            id="city-node-x-string",
        ),
        pytest.param(
            "city",
            _grid_city_json(lambda c: c["pois"][0].update(node=True)),
            id="city-poi-node-bool",
        ),
        pytest.param(
            "city",
            _grid_city_json(lambda c: c["pois"][0].update(node=1.0)),
            id="city-poi-node-float",
        ),
        pytest.param(
            "city",
            _grid_city_json(lambda c: c["edges"][0].update(v=float(c["edges"][0]["v"]))),
            id="city-edge-end-float",
        ),
        pytest.param(
            "city",
            _grid_city_json(lambda c: c["edges"][0].update(length=True)),
            id="city-edge-length-bool",
        ),
        pytest.param("tally", "edge,count\n0-1,3\n", id="tally-missing-column"),
        pytest.param("tally", "edge,hour,count\n0-1,24,3\n", id="tally-hour-24"),
        pytest.param("tally", "edge,hour,count\n0-1,8,3\n1-2,8,-1\n", id="tally-negative-count"),
        pytest.param("tally", "edge,hour,count\n0-1,99,3\n", id="tally-hour-99"),
        pytest.param("tally", "edge,hour,count\n0-1,+5,3\n", id="tally-hour-plus"),
        pytest.param("tally", "edge,hour,count\n0-1,\uff15,3\n", id="tally-hour-fullwidth"),
        pytest.param("tally", "edge,hour,count\n0-1,8,5_0\n", id="tally-count-underscore"),
        pytest.param("tally", "edge,hour,count\n0-1,8,+5\n", id="tally-count-plus"),
        pytest.param("tally", "edge,hour,count\n", id="tally-header-only"),
        pytest.param("tally", "edge,hour,count\n0-1,8,0\n", id="tally-zero-total"),
        pytest.param("agent", "{oops", id="agent-bad-json"),
        pytest.param("agent", "[1, 2]", id="agent-not-an-object"),
        pytest.param("agent", json.dumps({"profile": {}}), id="agent-empty-profile"),
        pytest.param("spec", "{oops", id="spec-bad-json"),
        pytest.param("spec", _broken_spec(marginals=[1, 2]), id="spec-marginals-a-list"),
        pytest.param("spec", _broken_spec(population="10"), id="spec-population-string"),
        pytest.param("spec", _broken_spec(population=5.5), id="spec-population-float"),
        pytest.param("spec", _broken_spec(population=True), id="spec-population-bool"),
        pytest.param(
            "spec",
            _broken_spec(lambda s: s["marginals"]["age_group"].update({"25-34": "0.12"})),
            id="spec-probability-string",
        ),
        pytest.param(
            "spec",
            _broken_spec(lambda s: s["marginals"].update(age_group=["25-34", "65+"])),
            id="spec-marginal-list",
        ),
        pytest.param(
            "spec",
            _broken_spec(lambda s: s["marginals"].update(colour={"red": 1.0})),
            id="spec-unknown-marginal-column",
        ),
        pytest.param(
            "spec",
            _broken_spec(lambda s: s["mode_conditionals"].update(bogus={"walking": 1.0})),
            id="spec-unknown-conditional-bucket",
        ),
    ],
)
def test_bad_input_files_exit_3(tmp_path, trips_csv, capsys, kind, text):
    bad = tmp_path / "bad"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    city = tmp_path / "city.json"
    grid_city(width=3, height=3, pois_per_category=1).save(city)
    out = tmp_path / "s"
    simulate = ["simulate", "--reference", trips_csv, "--agents", 1, "--out", out]
    argv = {
        "reference": ["predict", "--agent", write_agent(tmp_path / "agent.json"), "--reference",
                      bad, "--out", out],
        "city": simulate + ["--city", bad],
        "tally": simulate + ["--city", city, "--reference-tally", bad],
        "spec": ["gen-synth", "--spec", bad, "--out", out],
        "validation": ["evaluate", "--reference", trips_csv, "--validation", bad, "--out", out],
        "agent": ["predict", "--agent", bad, "--reference", trips_csv, "--out", out],
    }[kind]
    assert run(argv) == 3
    flag = "--reference-tally" if kind == "tally" else f"--{kind}"
    assert f"data error: {flag}: " in capsys.readouterr().err  # each file's error names its flag
    assert not out.exists()


@pytest.mark.parametrize(
    "flag",
    ["--reference", "--validation", "--agent", "--spec", "--city", "--reference-tally", "--config"],
)
def test_an_input_file_may_start_with_a_utf8_byte_order_mark(tmp_path, trips_csv, capsys, flag):
    """Spreadsheets save UTF-8 with a byte order mark; each input reads as if it had none."""
    city = tmp_path / "city.json"
    grid_city(width=3, height=3, pois_per_category=1).save(city)
    simulate = ["simulate", "--reference", trips_csv, "--agents", 2, "--out", tmp_path / "out"]
    assert run(simulate + ["--city", city]) == 0
    capsys.readouterr()
    inputs = {
        "--reference": trips_csv.read_bytes(),
        "--validation": trips_csv.read_bytes(),
        "--agent": write_agent(tmp_path / "agent.json").read_bytes(),
        "--spec": _broken_spec(population=30).encode("utf-8"),
        "--city": city.read_bytes(),
        "--reference-tally": (tmp_path / "out" / "edge_tally.csv").read_bytes(),
        "--config": b'{"pipeline": {"k": 5}}',
    }
    target, out = tmp_path / "input", tmp_path / "out"
    argv = {
        "--reference": ["predict", "--agent", tmp_path / "agent.json", "--reference", target],
        "--validation": ["evaluate", "--reference", trips_csv, "--validation", target, "--out", out],
        "--agent": ["predict", "--agent", target, "--reference", trips_csv],
        "--spec": ["gen-synth", "--spec", target, "--out", out / "trips.csv"],
        "--city": simulate + ["--city", target],
        "--reference-tally": simulate + ["--city", city, "--reference-tally", target],
        "--config": ["predict", "--config", target, "--agent", tmp_path / "agent.json",
                     "--reference", trips_csv],
    }[flag]

    def outputs(data: bytes):
        target.write_bytes(data)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        assert run(argv) == 0
        return capsys.readouterr().out, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert outputs(b"\xef\xbb\xbf" + inputs[flag]) == outputs(inputs[flag])


def test_a_city_file_with_a_byte_order_mark_loads_as_simulate_reads_it(tmp_path, trips_csv, monkeypatch):
    from preference_chain import cli

    path = tmp_path / "city.json"
    grid_city(width=3, height=3, pois_per_category=1).save(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    read = []
    make_agents = cli.make_agents
    monkeypatch.setattr(cli, "make_agents", lambda p, city, s: read.append(city) or make_agents(p, city, s))
    assert run(["simulate", "--city", path, "--reference", trips_csv, "--agents", 1,
                "--out", tmp_path / "out"]) == 0

    def text(city):
        fp = io.StringIO()
        city.to_json(fp)
        return fp.getvalue()

    assert text(CityModel.load(path)) == text(read[0])


_HUGE = "1" + "0" * 400  # an integer literal no float can hold


def _with_huge(text: str) -> bytes:
    """``text`` with each ``"HUGE"`` string replaced by the bare literal ``_HUGE``, as UTF-8."""
    return text.replace('"HUGE"', _HUGE).encode("utf-8")


@pytest.mark.parametrize(
    "kind,payload,code",
    [
        pytest.param("config", _with_huge('{"pipeline": {"epsilon": "HUGE"}}'), 2,
                     id="config-huge-epsilon"),
        pytest.param("config", b'{"pipeline": {"k": 5}}\xff', 2, id="config-not-utf8"),
        pytest.param(
            "city",
            _with_huge(_grid_city_json(lambda c: c["edges"][0].update(length="HUGE"))),
            3,
            id="city-huge-edge-length",
        ),
        pytest.param("spec", _with_huge(_broken_spec(population="HUGE")), 3,
                     id="spec-huge-population"),
        pytest.param(
            "spec",
            _with_huge(_broken_spec(lambda s: s["marginals"]["age_group"].update({"65+": "HUGE"}))),
            3,
            id="spec-huge-probability",
        ),
        pytest.param("reference", _trip_csv(b"walking\xff"), 3, id="reference-not-utf8"),
        pytest.param("reference", _trip_csv(b"w" * 131_073), 3, id="reference-field-over-csv-limit"),
        pytest.param("reference", None, 2, id="reference-directory"),
    ],
)
def test_undecodable_huge_or_directory_inputs_exit_with_their_code(
    tmp_path, trips_csv, capsys, kind, payload, code
):
    """Each of these inputs once escaped as a traceback with exit 1."""
    bad = tmp_path / "bad"
    if payload is None:
        bad.mkdir()
    else:
        bad.write_bytes(payload)
    out = tmp_path / "out"
    argv = {
        "config": ["predict", "--config", bad, "--agent", write_agent(tmp_path / "agent.json"),
                   "--reference", trips_csv, "--out", out],
        "city": ["simulate", "--city", bad, "--reference", trips_csv, "--agents", 1, "--out", out],
        "spec": ["gen-synth", "--spec", bad, "--out", out],
        "reference": ["build-graph", "--reference", bad, "--out", out],
    }[kind]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert ("config error" if code == 2 else "data error") in err
    assert not out.exists()


_FUZZ_VALUES = (True, False, None, "7", 7, 7.5, -1, 0, 1e308, [], {})


def _leaves(obj, path=()):
    """The path of each scalar in ``obj``, within the first three entries of each list."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        for index, value in enumerate(obj[:3]):
            yield from _leaves(value, path + (index,))
    else:
        yield path


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def _admits(kind, path, old, new) -> bool:
    """Whether a field's documented rule admits ``new`` in place of its valid ``old``.

    Each field admits its own JSON type; a config URL, model or path is a
    string or null.
    """
    if kind == "config" and (path[0] == "paths" or path[-1].endswith(("_url", "_model"))):
        return _json_type(new) in ("str", "NoneType")
    return _json_type(new) == _json_type(old)


def test_seeded_fuzz_of_one_leaf_of_each_json_input(tmp_path, trips_csv, capsys):
    """A valid input document with one leaf replaced, in 500 seeded in-process calls.

    The documents are those the code writes itself, so a new field is
    fuzzed with no new case. No call may raise (exit 1 with a traceback),
    and a value of a type its field does not admit exits 2 or 3.
    """
    documents = {
        "spec": _written_json(default_synthetic_spec().to_json),
        "city": _written_json(grid_city(width=3, height=3, pois_per_category=1).to_json),
        "config": RunConfig().to_dict(),
        "agent": json.loads(write_agent(tmp_path / "agent.json").read_text(encoding="utf-8")),
    }
    bad = tmp_path / "bad.json"
    argv = {
        "spec": ["gen-synth", "--spec", bad, "--size", 5, "--out", tmp_path / "trips-out.csv"],
        "city": ["simulate", "--city", bad, "--reference", trips_csv, "--agents", 1,
                 "--out", tmp_path / "day"],
        "config": ["predict", "--config", bad, "--agent", tmp_path / "agent.json",
                   "--reference", trips_csv],
        "agent": ["predict", "--agent", bad, "--reference", trips_csv],
    }
    for kind, document in documents.items():
        bad.write_text(json.dumps(document), encoding="utf-8")
        assert run(argv[kind]) == 0, kind
    cases = [
        (kind, path, value)
        for kind, document in documents.items()
        for path in _leaves(document)
        for value in _FUZZ_VALUES
    ]
    for kind, path, value in random.Random(0).sample(cases, 500):
        document = copy.deepcopy(documents[kind])
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        old, parent[path[-1]] = parent[path[-1]], value
        bad.write_text(json.dumps(document), encoding="utf-8")
        try:
            code = run(argv[kind])
        except Exception as exc:
            pytest.fail(f"{kind} {path} = {value!r} raised {exc!r}")
        allowed = (0, 2, 3, 4) if _admits(kind, path, old, value) else (2, 3)
        assert code in allowed, (kind, path, value, code)
    assert "Traceback" not in capsys.readouterr().err


_CSV_FUZZ_VALUES = (
    "", " ", "true", "null", "7", "-1", "7.5", "+5", "5_0", "\uff15", "1e3", "nan",
    "7" * 200_000, "7,5",
)


def _csv_rows(path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fp:
        return list(csv.reader(fp))


def _csv_cell_runs(flag, column, value) -> bool:
    """Whether a data cell of ``column`` holding ``value`` reads, by the documented rules.

    A trip cell reads when its stripped value is a category of its column;
    a tally hour is one of START_TIMES and a count ASCII digits, after
    ``strip()``; a tally edge is any value the csv module reads.
    """
    if len(value) > csv.field_size_limit():
        return False
    if flag != "--reference-tally":
        return value.strip() in {**INPUT_CATEGORIES, **OUTPUT_CATEGORIES}[column]
    if column == "count":
        return value.strip().isascii() and value.strip().isdigit()
    return column == "edge" or value.strip() in START_TIMES


def test_seeded_fuzz_of_one_cell_of_each_csv_input(tmp_path, trips_csv, capsys):
    """A valid trip or tally CSV with one cell replaced or dropped, in about 330 in-process calls.

    The files are those the code writes itself. A header cell or a
    dropped cell exits 3; a data cell exits 0 exactly when its column's
    rule admits it (``_csv_cell_runs``), else 3 naming the flag. No call
    may raise (exit 1 with a traceback).
    """
    small = tmp_path / "small.csv"
    write_csv(read_csv(trips_csv)[:5], small)
    city = tmp_path / "city.json"
    grid_city(width=3, height=3, pois_per_category=1).save(city)
    simulate = ["simulate", "--city", city, "--reference", trips_csv, "--agents"]
    assert run(simulate + [2, "--out", tmp_path / "day"]) == 0
    bad = tmp_path / "bad.csv"
    argv = {
        "--reference": ["predict", "--agent", write_agent(tmp_path / "agent.json"),
                        "--reference", bad],
        "--validation": ["evaluate", "--reference", trips_csv, "--validation", bad,
                         "--out", tmp_path / "eval"],
        "--reference-tally": simulate + [1, "--reference-tally", bad, "--out", tmp_path / "sim"],
    }
    documents = {
        "--reference": _csv_rows(small),
        "--validation": _csv_rows(small),
        "--reference-tally": _csv_rows(tmp_path / "day" / "edge_tally.csv"),
    }

    def write(rows):
        with open(bad, "w", encoding="utf-8", newline="") as fp:
            csv.writer(fp, lineterminator="\n").writerows(rows)

    for flag, rows in documents.items():
        write(rows)
        assert run(argv[flag]) == 0, flag
    cases = [
        (flag, row, column, value, row > 0 and value is not None
         and _csv_cell_runs(flag, rows[0][column], value))
        for flag, rows in documents.items()
        for row in range(len(rows))
        for column in range(len(rows[0]))
        for value in _CSV_FUZZ_VALUES + (None,)  # None drops the cell
    ]
    # Few values are admitted outside the tally's edge column, so each of those always runs.
    always = [c for c in cases if c[-1] and documents[c[0]][0][c[2]] != "edge"]
    rest = [c for c in cases if c not in always]
    capsys.readouterr()
    for flag, row, column, value, runs in always + random.Random(0).sample(rest, 300):
        rows = copy.deepcopy(documents[flag])
        if value is None:
            del rows[row][column]
        else:
            rows[row][column] = value
        write(rows)
        try:
            code = run(argv[flag])
        except Exception as exc:
            pytest.fail(f"{flag} row {row} column {column} = {value!r:.20} raised {exc!r}")
        err = capsys.readouterr().err
        assert code == (0 if runs else 3), (flag, row, column, f"{value!r:.20}", code, err)
        if not runs:
            assert f"data error: {flag}: " in err, err
        assert "Traceback" not in err


# ----------------------------------------------------------------------
# config plumbing and provider failures
# ----------------------------------------------------------------------


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert run(["--config", bad, "gen-synth", "--size", 1, "--out", tmp_path / "x"]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"nonsense": {}}), encoding="utf-8")
    assert run(["gen-synth", "--config", unknown, "--size", 1, "--out", tmp_path / "x"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "section",
    [
        {"providers": {"mock_llm": "false"}},
        {"generation": {"top_p": float("nan")}},
        {"generation": {"temperature": float("inf")}},
        {"generation": {"top_k": "lots"}},
        {"generation": {"repeat_penalty": -3}},
        {"paths": {"reference_csv": 5}},
        {"paths": {"graph_file": "graph.csv"}},
        {"pipeline": {"blend": True}},
    ],
    ids=["mock-llm-string", "top-p-nan", "temperature-inf", "top-k-string", "repeat-penalty",
         "path-number", "graph-file-key", "blend-bool"],
)
def test_bad_config_field_exits_2(tmp_path, trips_csv, capsys, section):
    """Each config section checks its own fields: a bad one exits 2 before any prediction."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps(section), encoding="utf-8")
    agent = write_agent(tmp_path / "agent.json")
    reference = [] if "paths" in section else ["--reference", trips_csv]
    assert run(["predict", "--config", config, "--agent", agent] + reference) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""
    if "paths" in section:  # the section's own check, not a file it names
        assert "no such file" not in captured.err


def test_config_paths_section_supplies_reference(tmp_path, trips_csv):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"paths": {"reference_csv": str(trips_csv)}}), encoding="utf-8"
    )
    out = tmp_path / "graph.csv"
    assert run(["build-graph", "--config", config, "--out", out]) == 0
    assert out.exists()


_PATH_FLAGS = [
    ("build-graph", "--reference", "reference_csv"),
    ("predict", "--reference", "reference_csv"),
    ("evaluate", "--reference", "reference_csv"),
    ("sweep", "--reference", "reference_csv"),
    ("simulate", "--reference", "reference_csv"),
    ("evaluate", "--validation", "validation_csv"),
    ("simulate", "--city", "city_file"),
    ("evaluate", "--out", "out_dir"),
    ("sweep", "--out", "out_dir"),
    ("simulate", "--out", "out_dir"),
]


@pytest.mark.parametrize(
    "command,flag,key", _PATH_FLAGS, ids=[f"{c}{f[1:]}" for c, f, _ in _PATH_FLAGS]
)
def test_a_path_flag_beats_the_config_file(tmp_path, trips_csv, capsys, command, flag, key):
    """A config ``paths`` value that would fail loses to its flag: same exit 0, same stdout."""
    city = tmp_path / "city.json"
    grid_city(width=3, height=3, pois_per_category=1).save(city)
    out = tmp_path / "out"
    argv = {
        "build-graph": ["--reference", trips_csv, "--out", tmp_path / "graph.csv"],
        "predict": ["--agent", write_agent(tmp_path / "agent.json"), "--reference", trips_csv],
        "evaluate": ["--reference", trips_csv, "--validation", trips_csv, "--out", out],
        "sweep": ["--reference", trips_csv, "--sizes", "5,10", "--seeds", 1,
                  "--n-validation", 10, "--out", out],
        "simulate": ["--reference", trips_csv, "--city", city, "--agents", 1, "--out", out],
    }[command]
    if key == "out_dir":
        failing = tmp_path / "taken"
        failing.write_text("keep\n", encoding="utf-8")
    else:
        failing = tmp_path / "missing.csv"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"paths": {key: str(failing)}}), encoding="utf-8")
    assert run([command] + argv) == 0
    printed = capsys.readouterr().out
    assert run([command, "--config", config] + argv) == 0
    assert capsys.readouterr().out == printed
    without_flag = argv[:argv.index(flag)] + argv[argv.index(flag) + 2:]
    assert run([command, "--config", config] + without_flag) == 2  # the config value is read
    assert str(failing) in capsys.readouterr().err
    # An empty flag is given, not unset: it exits 2 even when the config value would run.
    config.write_text(json.dumps({"paths": {key: str(argv[argv.index(flag) + 1])}}), encoding="utf-8")
    assert run([command, "--config", config] + without_flag) == 0
    capsys.readouterr()
    empty = argv[:argv.index(flag) + 1] + [""] + argv[argv.index(flag) + 2:]
    assert run([command, "--config", config] + empty) == 2
    assert f"config error: {flag} is empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flag", [("gen-synth", "--spec"), ("gen-synth", "--out"), ("build-graph", "--out"),
                     ("predict", "--out"), ("simulate", "--reference-tally")],
)
def test_an_empty_path_flag_without_a_config_value_exits_2(tmp_path, trips_csv, capsys, command, flag):
    """A flag with no config key is used only when given, and given empty it exits 2."""
    argv = {
        "gen-synth": ["--size", 5, "--out", tmp_path / "trips-out.csv"],
        "build-graph": ["--reference", trips_csv, "--out", tmp_path / "graph.csv"],
        "predict": ["--agent", write_agent(tmp_path / "agent.json"), "--reference", trips_csv,
                    "--out", tmp_path / "prediction.json"],
        "simulate": ["--reference", trips_csv, "--agents", 1, "--out", tmp_path / "day"],
    }[command]
    if flag in argv:
        argv = argv[:argv.index(flag)] + argv[argv.index(flag) + 2:]
    assert run([command] + argv + [flag, ""]) == 2
    assert f"config error: {flag} is empty" in capsys.readouterr().err
    assert {path.name for path in tmp_path.iterdir()} <= {"trips.csv", "agent.json"}  # no output


def test_the_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    """Each ``prefchain`` line of the README's CLI quick start exits 0, in order, in one directory.

    A heredoc writes its file; any other shell line fails the test, so
    the block stays one that this test runs in full.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start (CLI)", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = iter(block.replace("\\\n", " ").splitlines())
    monkeypatch.chdir(tmp_path)
    commands = set()
    for line in lines:
        words = shlex.split(line, comments=True)
        if words[:2] == ["cat", ">"] and words[3:] == ["<<EOF"]:  # shlex drops the quotes of 'EOF'
            body = []
            for body_line in lines:
                if body_line == "EOF":
                    break
                body.append(body_line + "\n")
            (tmp_path / words[2]).write_text("".join(body), encoding="utf-8")
        elif words:
            assert words[0] == "prefchain", line
            assert main(words[1:]) == 0, (line, capsys.readouterr().err)
            commands.add(words[1])
    assert commands == {"gen-synth", "build-graph", "predict", "evaluate", "sweep", "simulate"}


def test_the_readme_library_quick_start_runs(capsys):
    """The README's library quick start runs as written, importing from the package top."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start (library)", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "from preference_chain import (" in block
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_quick_start"})
    assert capsys.readouterr().out.rstrip().endswith("llm_accepted")


def test_unreachable_embed_provider_exits_4(tmp_path, trips_csv, capsys):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {"providers": {"mock_embed": False, "embed_url": "http://127.0.0.1:9/api/embed"}}
        ),
        encoding="utf-8",
    )
    agent = write_agent(tmp_path / "agent.json")
    code = run(["predict", "--config", config, "--agent", agent, "--reference", trips_csv])
    assert code == 4
    assert "provider error" in capsys.readouterr().err


class _EmbedSession:
    """Answers every embedding request with ``reply(call number)``."""

    def __init__(self, reply):
        self.reply = reply
        self.calls = 0

    def post(self, url, json=None, timeout=None):
        self.calls += 1
        return _FakeResponse({"embedding": self.reply(self.calls)})


@pytest.mark.parametrize(
    "reply",
    [lambda call: [0.0] * 8, lambda call: [1.0] * (8 if call == 1 else 9)],
    ids=["zero-vector", "mixed-lengths"],
)
def test_uncomparable_embeddings_exit_4(tmp_path, trips_csv, capsys, monkeypatch, reply):
    session = _EmbedSession(reply)
    monkeypatch.setattr(
        config_module,
        "RemoteEmbedder",
        lambda url, model: RemoteEmbedder(url, model, session=session),
    )
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"providers": {"mock_embed": False, "embed_url": "http://embed.invalid/api"}}),
        encoding="utf-8",
    )
    agent = write_agent(tmp_path / "agent.json")
    code = run(["predict", "--config", config, "--agent", agent, "--reference", trips_csv])
    assert code == 4
    assert "provider error" in capsys.readouterr().err
    assert session.calls > 0


def test_env_override_switches_provider(tmp_path, trips_csv, capsys, monkeypatch):
    monkeypatch.setenv("PC_EMBED_URL", "http://127.0.0.1:9/api/embed")
    agent = write_agent(tmp_path / "agent.json")
    assert run(["predict", "--agent", agent, "--reference", trips_csv]) == 4
    # --mock-embed forces the offline embedder back on
    assert run(["predict", "--mock-embed", "--agent", agent, "--reference", trips_csv]) == 0
    capsys.readouterr()
