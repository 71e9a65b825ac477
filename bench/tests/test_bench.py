"""Self-tests of the benchmark: it measures what the CLI writes, its guards
fire, and its health ratios read right.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from preference_chain import cli  # noqa: E402
from preference_chain.llm_remodel import ScriptedMockLlm  # noqa: E402


@pytest.fixture(autouse=True)
def offline_providers(monkeypatch):
    monkeypatch.delenv("PC_LLM_URL", raising=False)
    monkeypatch.delenv("PC_EMBED_URL", raising=False)


def _one_pass(workload, root):
    workload.prepare(root)
    return workload.run(workload.setup(root))


def test_eval_artefact_equals_cli_report(tmp_path):
    workload = workloads.EvalLargeRef(seed=0)
    got = _one_pass(workload, tmp_path)
    code = cli.main(
        [
            "--seed", "0", "evaluate",
            "--reference", str(tmp_path / "reference.csv"),
            "--validation", str(tmp_path / "validation.csv"),
            "--out", str(tmp_path / "cli"),
        ]
    )
    assert code == 0
    assert (tmp_path / "cli" / "report.csv").read_bytes() == got.artefacts["report.csv"]
    pinned = json.loads(bench.DIGESTS.read_text())["eval-large-ref"]["0"]
    assert bench.digests_of(got.artefacts) == pinned


def test_sweep_artefact_equals_cli_sweep(tmp_path):
    workload = workloads.SweepSmallRef(
        seed=3, pool_size=150, sizes=(10, 40), sweep_seeds=(0, 1), n_validation=60
    )
    got = _one_pass(workload, tmp_path)
    code = cli.main(
        [
            "--seed", "3", "sweep",
            "--reference", str(tmp_path / "pool.csv"),
            "--sizes", "10,40", "--seeds", "2", "--n-validation", "60",
            "--out", str(tmp_path / "cli"),
        ]
    )
    assert code == 0
    assert (tmp_path / "cli" / "sweep.csv").read_bytes() == got.artefacts["sweep.csv"]


def test_city_artefacts_equal_cli_simulate(tmp_path):
    workload = workloads.CityDay(seed=4, n_reference=120, n_agents=12, grid=8)
    got = _one_pass(workload, tmp_path)
    code = cli.main(
        [
            "--seed", "4", "simulate",
            "--city", str(tmp_path / "city.json"),
            "--reference", str(tmp_path / "reference.csv"),
            "--agents", "12",
            "--out", str(tmp_path / "cli"),
        ]
    )
    assert code == 0
    for name in ("edge_tally.csv", "poi_tally.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == got.artefacts[name]
    assert got.problems == []


class _SlowHostGauge(bench.Gauge):
    """Reads as a host at half the nominal speed, without spending the time."""

    def sample(self) -> float:
        self.samples.append(2 * bench.GAUGE_NOMINAL_S)
        self.last = bench.process_time()
        return self.samples[-1]


def test_times_are_scaled_to_the_nominal_gauge(tmp_path):
    workload = workloads.EvalLargeRef(seed=0, n_reference=150, n_validation=30)
    workload.prepare(tmp_path)
    probe = bench.QueryProbe(gauge=_SlowHostGauge())
    with probe.installed():
        passes, metrics, extra = bench.measure(workload, tmp_path, 0.01, probe)
    raw = extra["unscaled"]
    assert probe.attempted >= bench.MIN_QUERIES and probe.failed == 0
    assert len(probe.gauge_index) == probe.attempted
    for name in ("setup_s", "query_p50_ms", "query_p99_ms"):
        assert metrics[name] == pytest.approx(raw[name] / 2)
    assert metrics["throughput_per_s"] == pytest.approx(raw["throughput_per_s"] * 2)
    assert all(each.artefacts == passes[0].artefacts for each in passes)


class _EvalExpectingRouting(workloads.EvalLargeRef):
    expected_boundaries = workloads.EvalLargeRef.expected_boundaries + ("city.dijkstra",)


def test_coverage_guard_fails_a_boundary_with_no_calls(tmp_path):
    workload = _EvalExpectingRouting(seed=0, n_reference=150, n_validation=30)
    workload.prepare(tmp_path)
    probe = bench.QueryProbe()
    with probe.installed():
        _, metrics, _, problems = bench.measure_traced(
            workload, tmp_path, probe, tmp_path / "spans.jsonl"
        )
    assert problems == ["boundary city.dijkstra recorded no call"]
    assert metrics["city.dijkstra.calls"] == 0
    assert metrics["retrieval.top_k_similar.calls"] > 0


def test_garbage_llm_reads_as_fallback_not_failure(tmp_path):
    workload = workloads.EvalLargeRef(
        seed=0,
        n_reference=150,
        n_validation=30,
        llm_factory=lambda: ScriptedMockLlm(["I cannot answer that."]),
    )
    workload.prepare(tmp_path)
    probe = bench.QueryProbe()
    with probe.installed():
        passes, metrics, _, problems = bench.measure_traced(
            workload, tmp_path, probe, tmp_path / "spans.jsonl"
        )
    assert problems == []
    assert probe.attempted > 0 and probe.failed == 0  # error_rate = 0
    assert metrics["llm_remodel.accepted_ratio"] == 0.0
    fallbacks = metrics["llm_remodel.fallback_prior"] + metrics["llm_remodel.degenerate_uniform"]
    assert fallbacks == pytest.approx(1.0)
    assert passes[0].artefacts == passes[1].artefacts


def test_self_time_subtracts_direct_children():
    trace = tracer.Tracer()
    trace.spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["d", 5.0, 6.0, 0, None],
    ]
    assert trace.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_restores_every_boundary():
    before = [getattr(owner, attribute) for _, owner, attribute, _ in tracer.BOUNDARIES]
    with tracer.Tracer().installed():
        during = [getattr(owner, attribute) for _, owner, attribute, _ in tracer.BOUNDARIES]
    after = [getattr(owner, attribute) for _, owner, attribute, _ in tracer.BOUNDARIES]
    assert after == before
    assert all(d is not b for d, b in zip(during, before))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert declared == list(bench.END_TO_END)
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_digests_pinned_for_two_seeds_per_workload():
    pinned = json.loads(bench.DIGESTS.read_text())
    for name in workloads.WORKLOADS:
        assert "0" in pinned[name] and len(pinned[name]) >= 2
