"""Command-line workflows end to end: happy paths, reruns, exit codes."""

import csv
import json
from pathlib import Path

import pytest

from preference_chain import config as config_module
from preference_chain.behavior_graph import BehaviorGraph
from preference_chain.city import grid_city
from preference_chain.cli import main
from preference_chain.embedding import RemoteEmbedder
from preference_chain.ingest import read_csv
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


def test_gen_synth_requires_out(capsys):
    assert run(["gen-synth", "--size", 5]) == 2
    assert "config error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# build-graph
# ----------------------------------------------------------------------


def test_build_graph_snapshot_round_trip(tmp_path, trips_csv, capsys):
    snapshot = tmp_path / "graph.jsonl"
    assert run(["build-graph", "--reference", trips_csv, "--out", snapshot]) == 0
    out = capsys.readouterr().out
    assert "nodes" in out and "edges" in out
    graph = BehaviorGraph.load(snapshot)
    assert sorted(graph.choice_sets) == ["duration_minutes", "primary_mode"]
    again = tmp_path / "graph2.jsonl"
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
    assert "data error" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "pipeline,expected",
    [
        (None, "predict_stdout.json"),
        (
            {"k": 2, "max_path_edges": 3, "depth": 2, "epsilon": 0.01, "tau": 2.0, "blend": 0.5},
            "predict_stdout_knobs.json",
        ),
    ],
)
def test_predict_stdout_is_pinned(tmp_path, capsys, pipeline, expected):
    data = Path(__file__).parent / "data"
    agent = write_agent(tmp_path / "agent.json", context="light rain")
    argv = ["predict", "--agent", agent, "--reference", data / "predict_reference.csv"]
    if pipeline is not None:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"pipeline": pipeline}), encoding="utf-8")
        argv = ["--config", config] + argv
    assert run(argv) == 0
    assert capsys.readouterr().out == (data / expected).read_text(encoding="utf-8")


def test_predict_from_graph_snapshot(tmp_path, trips_csv):
    snapshot = tmp_path / "graph.jsonl"
    assert run(["build-graph", "--reference", trips_csv, "--out", snapshot]) == 0
    agent = write_agent(tmp_path / "agent.json")
    out_direct = tmp_path / "direct.json"
    out_snap = tmp_path / "snap.json"
    assert run(["predict", "--agent", agent, "--reference", trips_csv, "--out", out_direct]) == 0
    assert run(["predict", "--agent", agent, "--graph", snapshot, "--out", out_snap]) == 0
    assert json.loads(out_direct.read_text()) == json.loads(out_snap.read_text())


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
    assert run(["predict", "--agent", bad_purpose, "--reference", trips_csv]) == 3

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
    capsys.readouterr()


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


def test_simulate_errors(tmp_path, trips_csv, capsys):
    assert run(
        ["simulate", "--city", tmp_path / "nope.json", "--reference", trips_csv,
         "--out", tmp_path / "s"]
    ) == 2
    assert run(
        ["simulate", "--reference", trips_csv, "--agents", 0, "--out", tmp_path / "s"]
    ) == 2
    capsys.readouterr()


_CITY = {
    "nodes": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": 100.0, "y": 0.0}],
    "edges": [{"u": 0, "v": 1, "length": 100.0}],
    "pois": [{"id": "work-0", "category": "work", "node": 1}],
}


def _broken_city(mutate) -> str:
    """A copy of the valid two-node ``_CITY`` after ``mutate``, as JSON text."""
    obj = json.loads(json.dumps(_CITY))
    mutate(obj)
    return json.dumps(obj)


@pytest.mark.parametrize(
    "kind,text",
    [
        pytest.param("graph", "{oops\n", id="graph-bad-json"),
        pytest.param("graph", '{"t": "node", "id": 0, "kind": "Person"}\n', id="graph-missing-key"),
        pytest.param(
            "graph",
            '{"t": "node", "id": 0, "kind": "Robot", "label": "x", "attributes": {}}\n',
            id="graph-unknown-node-kind",
        ),
        pytest.param(
            "graph",
            '{"t": "node", "id": 5, "kind": "Person", "label": "x", "attributes": {}}\n',
            id="graph-ids-start-at-5",
        ),
        pytest.param("city", "{oops", id="city-bad-json"),
        pytest.param("city", _broken_city(lambda c: c.pop("edges")), id="city-missing-key"),
        pytest.param(
            "city", _broken_city(lambda c: c["edges"][0].update(length=0)), id="city-zero-length"
        ),
        pytest.param(
            "city",
            _broken_city(lambda c: c["nodes"].append({"id": 2, "x": 0.0, "y": 9.0})),
            id="city-disconnected",
        ),
        pytest.param("tally", "edge,count\n0-1,3\n", id="tally-missing-column"),
        pytest.param("tally", "edge,hour,count\n0-1,24,3\n", id="tally-hour-24"),
    ],
)
def test_bad_input_files_exit_3(tmp_path, trips_csv, capsys, kind, text):
    bad = tmp_path / "bad"
    bad.write_text(text, encoding="utf-8")
    city = tmp_path / "city.json"
    grid_city(width=3, height=3, pois_per_category=1).save(city)
    simulate = ["simulate", "--reference", trips_csv, "--agents", 1, "--out", tmp_path / "s"]
    argv = {
        "graph": ["predict", "--agent", write_agent(tmp_path / "agent.json"), "--graph", bad],
        "city": simulate + ["--city", bad],
        "tally": simulate + ["--city", city, "--reference-tally", bad],
    }[kind]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "data error" in err and kind in err


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


def test_config_paths_section_supplies_reference(tmp_path, trips_csv):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"paths": {"reference_csv": str(trips_csv)}}), encoding="utf-8"
    )
    out = tmp_path / "graph.jsonl"
    assert run(["build-graph", "--config", config, "--out", out]) == 0
    assert out.exists()


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
