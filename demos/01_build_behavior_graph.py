"""Build a behavior graph from reference trips and look around inside it.

Every reference trip becomes a person node (deduplicated by profile)
connected to desire nodes (one per trip purpose the person pursued) and
intention nodes (one per concrete choice option). Each node keeps its
out-edges as typed adjacency lists (``graph.desires``, ``graph.relatives``,
``graph.intentions``); ``graph.edges()`` builds edge records on read.
Agent-side edges are finalized later, at query time, so the graph is
query-independent and is stored as the trip CSV it was built from.

Run:  python demos/01_build_behavior_graph.py
"""

import tempfile
from pathlib import Path

from preference_chain.behavior_graph import NodeKind, build_from_records
from preference_chain.ingest import default_synthetic_spec, generate_synthetic, read_csv, write_csv

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
print(f"  choice sets (the schema's): {sorted(graph.choice_sets)}\n")

# Walk one person's typed adjacency lists: its desires (want_to), each
# desire's intentions (choose_to) and its relatives (relative_of). The graph
# stores no edge objects, and only relative_of edges keep a weight: the
# want_to and choose_to weights depend on the query and are finalized then.
person = persons[0]
print(f"person {person.id} ({person.label!r}):")
for desire_id in graph.desires[person.id]:
    print(f"  --want_to--> Desire {graph.node(desire_id).label!r}")
    for intention_id in graph.intentions[desire_id][:3]:
        choice = graph.node(intention_id)
        print(f"      --choose_to--> {choice.choice_set} {choice.label!r}")
for relative_id, weight in graph.relatives[person.id]:
    print(f"  --relative_of/{weight:.3f}--> Person {relative_id}")

# The build is deterministic, so a graph is stored as its trip CSV:
# building from the records read back gives the same graph.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "graph.csv"
    write_csv(records, path)
    rebuilt = build_from_records(read_csv(path))
    same = rebuilt.nodes == graph.nodes and list(rebuilt.edges()) == list(graph.edges())
    print(f"\ntrip CSV: {path.stat().st_size} bytes, "
          f"rebuilt {rebuilt.node_count()} nodes, {rebuilt.edge_count()} edges, same graph: {same}")
