"""Synthetic city: planar street graph, POIs, travel speeds, routing.

A small undirected street network with meter-valued edge lengths, a table
of POIs (each attached to a street node and tagged with one trip-purpose
category), and a per-mode speed table. Routing is plain Dijkstra with
deterministic tie-breaking, and POI search returns every POI of a category
reachable within the time budget implied by a (mode, duration bin) pair.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import IO

from .errors import DataError, UnknownCategory, UnknownNode
from .rng import substream
from .schema import DURATION_BINS, TRIP_PURPOSES

# Meters per minute. Order-of-magnitude defaults, not calibrated data.
DEFAULT_MODE_SPEEDS: dict[str, float] = {
    "walking": 80.0,
    "biking": 250.0,
    "public_transit": 400.0,
    "private_auto": 500.0,
    "auto_passenger": 500.0,
    "on_demand_auto": 500.0,
    "other_travel_mode": 80.0,
}


def duration_upper_minutes(duration_bin: str) -> int:
    """Upper bound of a duration bin in minutes ("0-10" -> 10)."""
    if duration_bin not in DURATION_BINS:
        raise UnknownCategory(f"unknown duration bin {duration_bin!r}")
    return int(duration_bin.split("-")[1])


@dataclass(frozen=True)
class Poi:
    id: str
    category: str
    node: int


def edge_id(u: int, v: int) -> str:
    """Canonical undirected edge name "u-v" with u < v."""
    return f"{u}-{v}" if u < v else f"{v}-{u}"


@dataclass
class CityModel:
    positions: dict[int, tuple[float, float]] = field(default_factory=dict)
    adjacency: dict[int, list[tuple[int, float]]] = field(default_factory=dict)
    pois: dict[str, Poi] = field(default_factory=dict)
    speeds: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MODE_SPEEDS))

    def add_node(self, node: int, x: float, y: float) -> int:
        self.positions[node] = (float(x), float(y))
        self.adjacency.setdefault(node, [])
        return node

    def add_edge(self, u: int, v: int, length: float) -> None:
        for node in (u, v):
            if node not in self.positions:
                raise UnknownNode(f"no street node {node}")
        if not length > 0:  # also rejects NaN
            raise ValueError("edge length must be positive")
        self.adjacency[u].append((v, float(length)))
        self.adjacency[v].append((u, float(length)))

    def add_poi(self, poi_id: str, category: str, node: int) -> Poi:
        if node not in self.positions:
            raise UnknownNode(f"POI {poi_id!r} references missing node {node}")
        poi = Poi(poi_id, category, node)
        self.pois[poi_id] = poi
        return poi

    def node_count(self) -> int:
        return len(self.positions)

    def edge_ids(self) -> list[str]:
        seen = set()
        for u, neighbors in self.adjacency.items():
            for v, _ in neighbors:
                seen.add(edge_id(u, v))
        return sorted(seen)

    def speed(self, mode: str) -> float:
        value = self.speeds.get(mode)
        if value is None or value <= 0:
            raise UnknownCategory(f"no positive speed for mode {mode!r}")
        return value

    def pois_of_category(self, category: str) -> list[Poi]:
        found = [p for p in self.pois.values() if p.category == category]
        if not found:
            raise UnknownCategory(f"no POI of category {category!r}")
        return sorted(found, key=lambda p: p.id)

    def validate(self) -> "CityModel":
        if not self.positions:
            raise ValueError("city has no street nodes")
        for mode, speed in self.speeds.items():
            if speed <= 0:
                raise ValueError(f"speed for {mode!r} must be > 0")
        # connectivity: every node reachable from the smallest id
        start = min(self.positions)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v, _ in self.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != len(self.positions):
            raise ValueError("street graph is not connected")
        return self

    # ------------------------------------------------------------------
    # JSON snapshot
    # ------------------------------------------------------------------

    def to_json(self, fp: IO[str]) -> None:
        edges = []
        for name in self.edge_ids():
            u, v = (int(s) for s in name.split("-"))
            length = next(l for t, l in self.adjacency[u] if t == v)
            edges.append({"u": u, "v": v, "length": length})
        obj = {
            "nodes": [
                {"id": n, "x": self.positions[n][0], "y": self.positions[n][1]}
                for n in sorted(self.positions)
            ],
            "edges": edges,
            "pois": [
                {"id": p.id, "category": p.category, "node": p.node}
                for p in sorted(self.pois.values(), key=lambda p: p.id)
            ],
            "speeds": {m: self.speeds[m] for m in sorted(self.speeds)},
        }
        json.dump(obj, fp, indent=2, sort_keys=True)
        fp.write("\n")

    @classmethod
    def from_json(cls, fp: IO[str]) -> "CityModel":
        """Read a city snapshot; malformed input raises DataError or UnknownNode."""
        try:
            obj = json.load(fp)
            if not isinstance(obj, dict):
                raise ValueError("the root must be a JSON object")
            city = cls(speeds=dict(obj.get("speeds") or DEFAULT_MODE_SPEEDS))
            for node in obj["nodes"]:
                city.add_node(node["id"], node["x"], node["y"])
            for edge in obj["edges"]:
                city.add_edge(edge["u"], edge["v"], edge["length"])
            for poi in obj["pois"]:
                city.add_poi(poi["id"], poi["category"], poi["node"])
            return city.validate()
        except (KeyError, TypeError, ValueError) as exc:  # also bad JSON and street graphs
            raise DataError(f"city snapshot: {type(exc).__name__}: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            self.to_json(fp)

    @classmethod
    def load(cls, path) -> "CityModel":
        with open(path, "r", encoding="utf-8") as fp:
            return cls.from_json(fp)


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


def dijkstra(city: CityModel, source: int) -> tuple[dict[int, float], dict[int, int]]:
    """Distances and predecessor map from one source node.

    Heap entries are (distance, node) so equal-distance pops resolve by
    node id, making predecessor trees deterministic.
    """
    if source not in city.positions:
        raise UnknownNode(f"no street node {source}")
    dist = {source: 0.0}
    prev: dict[int, int] = {}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, length in city.adjacency[u]:
            nd = d + length
            old = dist.get(v)
            # strict improvement or same-distance lower-id parent
            if old is None or nd < old - 1e-12 or (abs(nd - old) <= 1e-12 and u < prev.get(v, u + 1)):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, prev


def shortest_path(city: CityModel, source: int, target: int) -> tuple[float, list[int]]:
    """(distance, node sequence source..target); identical endpoints give [source]."""
    if target not in city.positions:
        raise UnknownNode(f"no street node {target}")
    if source == target:
        return 0.0, [source]
    dist, prev = dijkstra(city, source)
    if target not in dist:
        raise UnknownNode(f"node {target} unreachable from {source}")
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return dist[target], path


def search_pois(
    city: CityModel,
    from_node: int,
    category: str,
    mode: str,
    duration_bin: str,
) -> list[str]:
    """POIs of a category within speed(mode) x bin-upper-bound meters.

    Sorted by shortest-path distance ascending, ties by POI id. Empty when
    nothing is in range; the caller falls back to the nearest POI.
    """
    candidates = city.pois_of_category(category)
    radius = city.speed(mode) * duration_upper_minutes(duration_bin)
    dist, _ = dijkstra(city, from_node)
    in_range = [
        (dist[p.node], p.id)
        for p in candidates
        if p.node in dist and dist[p.node] <= radius
    ]
    in_range.sort()
    return [poi_id for _, poi_id in in_range]


def nearest_poi(city: CityModel, from_node: int, category: str) -> str:
    """Closest POI of the category regardless of range; ties by POI id."""
    candidates = city.pois_of_category(category)
    dist, _ = dijkstra(city, from_node)
    return min((dist[p.node], p.id) for p in candidates if p.node in dist)[1]


# ----------------------------------------------------------------------
# Synthetic grid city
# ----------------------------------------------------------------------


def grid_city(
    width: int = 20,
    height: int = 20,
    spacing: float = 100.0,
    pois_per_category: int = 8,
    seed: int = 0,
) -> CityModel:
    """Rectangular street grid with seeded random POI placement.

    Node ids are row-major; every purpose category other than "home" gets
    ``pois_per_category`` POIs at random street nodes ("home" locations
    are plain nodes, not POIs).
    """
    if width < 2 or height < 2:
        raise ValueError("grid must be at least 2x2")
    city = CityModel()
    for r in range(height):
        for c in range(width):
            city.add_node(r * width + c, c * spacing, r * spacing)
    for r in range(height):
        for c in range(width):
            node = r * width + c
            if c + 1 < width:
                city.add_edge(node, node + 1, spacing)
            if r + 1 < height:
                city.add_edge(node, node + width, spacing)
    rng = substream(seed, "city-pois")
    n_nodes = width * height
    for category in (c for c in TRIP_PURPOSES if c != "home"):
        nodes = rng.choice(n_nodes, size=min(pois_per_category, n_nodes), replace=False)
        for i, node in enumerate(sorted(int(n) for n in nodes)):
            city.add_poi(f"{category}-{i}", category, node)
    return city.validate()
