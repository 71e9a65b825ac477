"""Build a behavior graph from reference trips and look around inside it.

Every reference trip becomes a person node (deduplicated by profile)
connected to desire nodes (one per trip purpose the person pursued) and
intention nodes (one per concrete choice option). Agent-side edges are
finalized later, at query time, so the stored graph is query-independent
and can be snapshotted to disk.

Run:  python demos/01_build_behavior_graph.py
"""

import tempfile
from pathlib import Path

from preference_chain.behavior_graph import BehaviorGraph, NodeKind, build_from_records
from preference_chain.ingest import default_synthetic_spec, generate_synthetic

records = generate_synthetic(default_synthetic_spec(), size=40, seed=0)
print(f"reference sample: {len(records)} trips")
print(f"  first record: {records[0].profile.age_group}, {records[0].trip_purpose} "
      f"at {records[0].start_time}:00 -> {records[0].primary_mode}, "
      f"{records[0].duration_minutes} min\n")

graph = build_from_records(records)
persons = graph.nodes_of_kind(NodeKind.PERSON)
desires = graph.nodes_of_kind(NodeKind.DESIRE)
intentions = graph.nodes_of_kind(NodeKind.INTENTION)
print(f"graph: {graph.node_count()} nodes, {graph.edge_count()} edges")
print(f"  {len(persons)} persons (deduplicated from {len(records)} trips)")
print(f"  {len(desires)} desires, {len(intentions)} intentions")
print(f"  registered choice sets: {sorted(graph.choice_sets)}\n")

# Walk one person's outgoing edges: want_to -> desire, then choose_to -> intention.
person = persons[0]
print(f"person {person.id} ({person.label!r}):")
for edge in graph.out_edges[person.id]:
    target = graph.node(edge.target)
    print(f"  --{edge.kind.value}/{edge.weight:.3f}--> {target.kind.value} {target.label!r}")
    if target.kind == NodeKind.DESIRE:
        for nxt in graph.out_edges[target.id][:3]:
            choice = graph.node(nxt.target)
            print(f"      --{nxt.kind.value}/{nxt.weight:.3f}--> {choice.label!r}")

# Snapshots round-trip byte-for-byte, so builds are reproducible artifacts.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "graph.jsonl"
    graph.save(path)
    reloaded = BehaviorGraph.load(path)
    print(f"\nsnapshot: {path.stat().st_size} bytes, "
          f"reloaded {reloaded.node_count()} nodes, {reloaded.edge_count()} edges")
