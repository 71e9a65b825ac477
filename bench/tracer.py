"""Spans and counts recorded at the library's module boundaries.

The benchmark wraps the public functions that callers look up at run
time (``pipeline.top_k_similar``, ``city.dijkstra``, ...) with recording
wrappers, so the library itself carries no tracing code. Spans are kept in
memory as ``[name, start, end, parent, info]`` and written out when the run
ends; per-layer metrics are derived from them afterwards. Times are CPU
time of the process, like the benchmark's other times.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from contextlib import contextmanager
from time import process_time

from preference_chain import (
    behavior_graph,
    city,
    embedding,
    evaluate,
    ingest,
    mobility_sim,
    pipeline,
)

# Span fields.
NAME, START, END, PARENT, INFO = range(5)


def _subgraph_size(args, kwargs, result):
    return (result.node_count(), sum(len(edges) for edges in result.out_edges.values()))


def _searched_graph(args, kwargs, result):
    # The graph object itself, not its id: holding it keeps ids from being
    # reused, so the first search of each fresh graph can be told apart.
    return args[0]


def _degenerate(args, kwargs, result):
    return result.degenerate


def _calibration_source(args, kwargs, result):
    return result.source.value


def _person_count(args, kwargs, result):
    return len(result.nodes_of_kind(behavior_graph.NodeKind.PERSON))


def _record_count(args, kwargs, result):
    return len(args[1])


# (span name, owner, attribute, observer). The owner is the module or class
# whose attribute the caller looks up, so the wrapper sits where the call
# actually resolves. An observer turns (args, kwargs, result) into the span's
# ``info`` field. One name may appear under several owners.
BOUNDARIES = (
    ("ingest.read_csv", ingest, "read_csv", None),
    ("behavior_graph.build_from_records", behavior_graph, "build_from_records", _person_count),
    ("behavior_graph.build_from_records", evaluate, "build_from_records", _person_count),
    ("retrieval.top_k_similar", pipeline, "top_k_similar", _searched_graph),
    ("retrieval.extract_subgraph", pipeline, "extract_subgraph", _subgraph_size),
    ("preference.prior_distribution", pipeline, "prior_distribution", _degenerate),
    ("llm_remodel.calibrate", pipeline, "calibrate", _calibration_source),
    ("embedding.hash_embed", embedding, "hash_embed", None),
    ("pipeline.predict_all", pipeline.PreferenceChain, "predict_all", None),
    ("evaluate.chain_predictions", evaluate, "chain_predictions", _record_count),
    ("evaluate.evaluate_predictions", evaluate, "evaluate_predictions", None),
    ("evaluate.sweep_reference_sizes", evaluate, "sweep_reference_sizes", None),
    ("city.dijkstra", city, "dijkstra", None),
    ("city.search_pois", mobility_sim, "search_pois", None),
    ("city.shortest_path", mobility_sim, "shortest_path", None),
    ("city.nearest_poi", mobility_sim, "nearest_poi", None),
    ("mobility_sim.TrafficTally.merge", mobility_sim.TrafficTally, "merge", None),
    ("mobility_sim.simulate_agent", mobility_sim, "simulate_agent", None),
    ("mobility_sim.run_day", mobility_sim, "run_day", None),
)

# Boundaries that are only counted: they run too often for a span each.
COUNTED = (("embedding.embed", embedding.HashEmbedder, "embed"),)

# Per-layer metrics as (name, unit), in report order.
PER_LAYER = (
    ("retrieval.top_k_similar.calls", "count"),
    ("retrieval.top_k_similar.busy_s", "s"),
    ("retrieval.top_k_similar.p50_us", "us"),
    ("retrieval.index_build_s", "s"),
    ("retrieval.extract_subgraph.calls", "count"),
    ("retrieval.extract_subgraph.busy_s", "s"),
    ("retrieval.extract_subgraph.p50_us", "us"),
    ("retrieval.subgraph_nodes_mean", "count"),
    ("retrieval.subgraph_edges_mean", "count"),
    ("preference.prior_distribution.calls", "count"),
    ("preference.prior_distribution.busy_s", "s"),
    ("preference.prior_distribution.p50_us", "us"),
    ("preference.degenerate_ratio", "ratio"),
    ("llm_remodel.calibrate.calls", "count"),
    ("llm_remodel.calibrate.busy_s", "s"),
    ("llm_remodel.calibrate.p50_us", "us"),
    ("llm_remodel.accepted_ratio", "ratio"),
    ("llm_remodel.fallback_prior", "ratio"),
    ("llm_remodel.degenerate_uniform", "ratio"),
    ("embedding.embed.calls", "count"),
    ("embedding.hash_embed.calls", "count"),
    ("embedding.hash_embed.busy_s", "s"),
    ("embedding.cache_hit_ratio", "ratio"),
    ("behavior_graph.build_from_records.calls", "count"),
    ("behavior_graph.build_from_records.busy_s", "s"),
    ("behavior_graph.persons", "count"),
    ("ingest.read_csv.busy_s", "s"),
    ("pipeline.predict_all.calls", "count"),
    ("pipeline.predict_all.busy_s", "s"),
    ("pipeline.predict_all.self_s", "s"),
    ("evaluate.chain_predictions.busy_s", "s"),
    ("evaluate.evaluate_predictions.busy_s", "s"),
    ("evaluate.memo_hit_ratio", "ratio"),
    ("city.dijkstra.calls", "count"),
    ("city.dijkstra.busy_s", "s"),
    ("city.dijkstra.p50_us", "us"),
    ("city.search_pois.calls", "count"),
    ("city.search_pois.busy_s", "s"),
    ("city.shortest_path.calls", "count"),
    ("city.shortest_path.busy_s", "s"),
    ("city.nearest_poi.calls", "count"),
    ("mobility_sim.TrafficTally.merge.calls", "count"),
    ("mobility_sim.TrafficTally.merge.busy_s", "s"),
    ("mobility_sim.simulate_agent.calls", "count"),
    ("mobility_sim.simulate_agent.self_s", "s"),
    ("mobility_sim.poi_fallback_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self):
        self.origin = process_time()
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name, fn, observe=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, None]
            spans.append(span)
            open_spans.append(index)
            span[START] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = process_time()
                open_spans.pop()
            if observe is not None:
                span[INFO] = observe(args, kwargs, result)
            return result

        return traced

    def count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore."""
        saved = []
        try:
            for name, owner, attribute, observe in BOUNDARIES:
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original, observe))
            for name, owner, attribute in COUNTED:
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.count(name, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def calls(self, name: str) -> int:
        if name in self.counts:
            return self.counts[name]
        return sum(1 for span in self.spans if span[NAME] == name)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the tracer's creation."""
        with open(path, "w", encoding="utf-8") as fp:
            for name, start, end, parent, info in self.spans:
                span = {
                    "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "parent": parent,
                    "info": info,
                }
                # Objects kept as info (the graph a top-k call searched) are written as null.
                fp.write(json.dumps(span, default=lambda _: None) + "\n")


def missing_boundaries(tracer: Tracer, expected) -> list[str]:
    """Expected boundaries that recorded no call: the coverage guard."""
    return [name for name in expected if tracer.calls(name) == 0]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric, derived from the recorded spans and counts."""
    durations: dict[str, list[float]] = {}
    infos: dict[str, list] = {}
    for span in tracer.spans:
        durations.setdefault(span[NAME], []).append(span[END] - span[START])
        infos.setdefault(span[NAME], []).append(span[INFO])
    own = self_time_by_name(tracer)
    calls = tracer.calls

    def busy(name):
        return math.fsum(durations.get(name, ()))

    def p50_us(name):
        values = durations.get(name)
        return statistics.median(values) * 1e6 if values else 0.0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    # The first top-k call on each fresh graph builds its person index.
    index_build = 0.0
    seen_graphs = set()
    for span in tracer.spans:
        if span[NAME] == "retrieval.top_k_similar" and id(span[INFO]) not in seen_graphs:
            seen_graphs.add(id(span[INFO]))
            index_build += span[END] - span[START]

    # Memo hits: records handed to chain_predictions minus the predict_all
    # calls it made directly.
    memo_records = 0
    memo_queries = 0
    chain_spans = {
        i for i, span in enumerate(tracer.spans) if span[NAME] == "evaluate.chain_predictions"
    }
    for i in chain_spans:
        memo_records += tracer.spans[i][INFO]
    for span in tracer.spans:
        if span[NAME] == "pipeline.predict_all" and span[PARENT] in chain_spans:
            memo_queries += 1

    sizes = infos.get("retrieval.extract_subgraph", [])
    sources = infos.get("llm_remodel.calibrate", [])
    n_calibrate = len(sources)
    embeds = calls("embedding.embed")

    values = {
        "retrieval.top_k_similar.calls": calls("retrieval.top_k_similar"),
        "retrieval.top_k_similar.busy_s": busy("retrieval.top_k_similar"),
        "retrieval.top_k_similar.p50_us": p50_us("retrieval.top_k_similar"),
        "retrieval.index_build_s": index_build,
        "retrieval.extract_subgraph.calls": calls("retrieval.extract_subgraph"),
        "retrieval.extract_subgraph.busy_s": busy("retrieval.extract_subgraph"),
        "retrieval.extract_subgraph.p50_us": p50_us("retrieval.extract_subgraph"),
        "retrieval.subgraph_nodes_mean": mean([s[0] for s in sizes]),
        "retrieval.subgraph_edges_mean": mean([s[1] for s in sizes]),
        "preference.prior_distribution.calls": calls("preference.prior_distribution"),
        "preference.prior_distribution.busy_s": busy("preference.prior_distribution"),
        "preference.prior_distribution.p50_us": p50_us("preference.prior_distribution"),
        "preference.degenerate_ratio": _ratio(
            sum(1 for d in infos.get("preference.prior_distribution", []) if d),
            calls("preference.prior_distribution"),
        ),
        "llm_remodel.calibrate.calls": n_calibrate,
        "llm_remodel.calibrate.busy_s": busy("llm_remodel.calibrate"),
        "llm_remodel.calibrate.p50_us": p50_us("llm_remodel.calibrate"),
        "llm_remodel.accepted_ratio": _ratio(sources.count("llm_accepted"), n_calibrate),
        "llm_remodel.fallback_prior": _ratio(sources.count("fallback_prior"), n_calibrate),
        "llm_remodel.degenerate_uniform": _ratio(sources.count("degenerate_uniform"), n_calibrate),
        "embedding.embed.calls": embeds,
        "embedding.hash_embed.calls": calls("embedding.hash_embed"),
        "embedding.hash_embed.busy_s": busy("embedding.hash_embed"),
        "embedding.cache_hit_ratio": _ratio(embeds - calls("embedding.hash_embed"), embeds),
        "behavior_graph.build_from_records.calls": calls("behavior_graph.build_from_records"),
        "behavior_graph.build_from_records.busy_s": busy("behavior_graph.build_from_records"),
        "behavior_graph.persons": mean(infos.get("behavior_graph.build_from_records", [])),
        "ingest.read_csv.busy_s": busy("ingest.read_csv"),
        "pipeline.predict_all.calls": calls("pipeline.predict_all"),
        "pipeline.predict_all.busy_s": busy("pipeline.predict_all"),
        "pipeline.predict_all.self_s": own.get("pipeline.predict_all", 0.0),
        "evaluate.chain_predictions.busy_s": busy("evaluate.chain_predictions"),
        "evaluate.evaluate_predictions.busy_s": busy("evaluate.evaluate_predictions"),
        "evaluate.memo_hit_ratio": _ratio(memo_records - memo_queries, memo_records),
        "city.dijkstra.calls": calls("city.dijkstra"),
        "city.dijkstra.busy_s": busy("city.dijkstra"),
        "city.dijkstra.p50_us": p50_us("city.dijkstra"),
        "city.search_pois.calls": calls("city.search_pois"),
        "city.search_pois.busy_s": busy("city.search_pois"),
        "city.shortest_path.calls": calls("city.shortest_path"),
        "city.shortest_path.busy_s": busy("city.shortest_path"),
        "city.nearest_poi.calls": calls("city.nearest_poi"),
        "mobility_sim.TrafficTally.merge.calls": calls("mobility_sim.TrafficTally.merge"),
        "mobility_sim.TrafficTally.merge.busy_s": busy("mobility_sim.TrafficTally.merge"),
        "mobility_sim.simulate_agent.calls": calls("mobility_sim.simulate_agent"),
        "mobility_sim.simulate_agent.self_s": own.get("mobility_sim.simulate_agent", 0.0),
        # A search that finds nothing in range falls back to the nearest POI.
        "mobility_sim.poi_fallback_ratio": _ratio(
            calls("city.nearest_poi"), calls("city.search_pois")
        ),
        "trace.overhead_s": overhead_s,
    }
    return values


def self_time_by_name(tracer: Tracer) -> dict[str, float]:
    """Total self time per span name, largest first."""
    totals: dict[str, float] = {}
    for span, self_time in zip(tracer.spans, tracer.self_times()):
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + self_time
    return dict(sorted(totals.items(), key=lambda item: -item[1]))
