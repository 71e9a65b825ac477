"""Synthetic city: planar street graph, POIs, travel speeds, routing.

A small undirected street network with meter-valued edge lengths, a table
of POIs (each attached to a street node and tagged with one trip-purpose
category), and a per-mode speed table. ``dijkstra`` gives deterministic
shortest-path trees; ``search_pois``, ``nearest_poi`` and ``shortest_path``
read them through a ``_TreeCache`` on the city. With one exact edge length,
POI distances come from the POIs' trees, and a route from a node with no
kept tree stops at its target.
"""

from __future__ import annotations

import heapq
import math
import sys
from array import array
from dataclasses import dataclass, field
from typing import IO, Optional

from .errors import DataError, UnknownCategory, UnknownNode
from .rng import substream
from .schema import DURATION_BINS, PRIMARY_MODES, TRIP_PURPOSES, decode_json, is_number, write_json

# Distances within this many meters tie in ``dijkstra``, and the lower node
# id then wins the predecessor of a node not yet settled. ``add_edge``
# rejects edges this short.
TIE_TOLERANCE = 1e-12

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

GRID_SPACING = 100.0  # meters between neighbouring nodes of a ``grid_city``


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


class ShortestPathTree:
    """One search result as two sequences over the city's node index.

    ``dist[i]`` and ``prev[i]`` belong to node ``nodes[i]``: the distance
    from the source, inf where unreachable, and the predecessor's index,
    -1 at the source and where unreachable.
    """

    __slots__ = ("source", "index", "nodes", "dist", "prev")

    def __init__(
        self, source: int, index: dict[int, int], nodes: list[int], dist: array, prev: array
    ):
        self.source, self.index, self.nodes = source, index, nodes
        self.dist, self.prev = dist, prev

    def distance(self, node: int) -> Optional[float]:
        """Distance from the source, None when unreachable."""
        i = self.index.get(node)
        if i is None or self.dist[i] == math.inf:
            return None
        return self.dist[i]

    def path(self, target: int) -> list[int]:
        """Node sequence source..target; the target must be reachable."""
        path = [target]
        i = self.prev[self.index[target]]
        while i >= 0:
            path.append(self.nodes[i])
            i = self.prev[i]
        path.reverse()
        return path


class _TreeCache:
    """The street graph in index form and the shortest-path trees over it.

    The index lists node ids in sorted order; the graph is built on the
    first routing call. Trees rooted at POI nodes, where most trips start,
    stay until the cache is dropped. On a heap-search city the latest tree
    from any other node stays in one slot, so the POI search and the route
    of one trip share a ``dijkstra`` run.
    """

    def __init__(self):
        self.graph = None  # (index, nodes, adjacency by index, step), set in one assignment
        self.kept: dict[int, ShortestPathTree] = {}
        self.last: Optional[ShortestPathTree] = None

    def street_graph(self, city: "CityModel"):
        graph = self.graph
        if graph is None:
            nodes = sorted(city.positions)
            index = {node: i for i, node in enumerate(nodes)}
            adjacency = [[(index[v], length) for v, length in city.adjacency[u]] for u in nodes]
            lengths = {length for edges in adjacency for _, length in edges}
            step = min(lengths, default=None)  # the one length, if the level search is exact
            exact = len(lengths) == 1 and step % 1 == 0 and step * len(nodes) < 2**53
            graph = self.graph = (index, nodes, adjacency, step if exact else None)
        return graph

    def tree(self, city: "CityModel", source: int) -> ShortestPathTree:
        found = self.kept.get(source)
        if found is not None:
            return found
        last = self.last  # one read: another thread may refill the slot
        if last is not None and last.source == source:
            return last
        tree = dijkstra(city, source)
        if any(poi.node == source for poi in city.pois.values()):
            self.kept[source] = tree
        else:
            self.last = tree
        return tree


@dataclass
class CityModel:
    positions: dict[int, tuple[float, float]] = field(default_factory=dict)
    adjacency: dict[int, list[tuple[int, float]]] = field(default_factory=dict)
    pois: dict[str, Poi] = field(default_factory=dict)
    speeds: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MODE_SPEEDS))
    # node index and shortest-path trees read by the routing functions;
    # dropped whenever the street graph changes through add_node or add_edge.
    # Editing positions or adjacency directly bypasses the drop, and routing
    # then reads the old index and stale trees.
    _trees: _TreeCache = field(
        default_factory=_TreeCache, init=False, repr=False, compare=False
    )

    def add_node(self, node: int, x: float, y: float) -> None:
        if type(node) is not int or node in self.positions:
            raise ValueError(f"street node id {node!r} is not an int or already present")
        for value in (x, y):
            if not is_number(value) or not abs(value) <= sys.float_info.max:
                raise ValueError(f"street node {node}: coordinate {value!r} is not a finite number")
        self.positions[node] = (float(x), float(y))
        self.adjacency.setdefault(node, [])
        self._trees = _TreeCache()

    def add_edge(self, u: int, v: int, length: float) -> None:
        for node in (u, v):
            if type(node) is not int or node not in self.positions:  # True and 1.0 hash as 1
                raise UnknownNode(f"no street node {node!r}")
        if not is_number(length) or not TIE_TOLERANCE < length <= sys.float_info.max:
            raise ValueError(
                f"edge length must be finite and above {TIE_TOLERANCE} m, got {length!r}"
            )
        self.adjacency[u].append((v, float(length)))
        self.adjacency[v].append((u, float(length)))
        self._trees = _TreeCache()

    def add_poi(self, poi_id: str, category: str, node: int) -> Poi:
        if not (isinstance(poi_id, str) and poi_id and isinstance(category, str)):
            raise ValueError(f"POI id must be a non-empty string, category a string: {poi_id!r}")
        if poi_id in self.pois:
            raise ValueError(f"repeated POI id {poi_id!r}")
        if type(node) is not int or node not in self.positions:
            raise UnknownNode(f"POI {poi_id!r} references missing node {node!r}")
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
        if self.speeds.keys() != set(PRIMARY_MODES):
            raise ValueError(f"speeds must name exactly the modes {list(PRIMARY_MODES)}")
        for mode, speed in self.speeds.items():
            if not is_number(speed) or not 0 < speed <= sys.float_info.max:
                raise ValueError(f"speed for {mode!r} must be a finite number > 0, got {speed!r}")
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
        # one record per add_edge, which stores an edge in both lists and a
        # loop twice in one; sorted by edge_id, parallel edges in call order
        edges = []
        for u, neighbors in self.adjacency.items():
            loops = [length for v, length in neighbors if v == u]
            edges += [(edge_id(u, u), u, u, length) for length in loops[::2]]
            edges += [(edge_id(u, v), u, v, length) for v, length in neighbors if u < v]
        edges.sort(key=lambda edge: edge[0])
        obj = {
            "nodes": [
                {"id": n, "x": self.positions[n][0], "y": self.positions[n][1]}
                for n in sorted(self.positions)
            ],
            "edges": [{"u": u, "v": v, "length": length} for _, u, v, length in edges],
            "pois": [
                {"id": p.id, "category": p.category, "node": p.node}
                for p in sorted(self.pois.values(), key=lambda p: p.id)
            ],
            "speeds": {m: self.speeds[m] for m in sorted(self.speeds)},
        }
        write_json(fp, obj)

    @classmethod
    def from_json(cls, fp: IO[str]) -> "CityModel":
        """Read a city snapshot; malformed input raises DataError."""
        try:
            obj = decode_json(fp.read())
            if not isinstance(obj, dict):
                raise ValueError("the root must be a JSON object")
            city = cls(speeds=dict(obj.get("speeds", DEFAULT_MODE_SPEEDS)))
            for node in obj["nodes"]:
                city.add_node(node["id"], node["x"], node["y"])
            for edge in obj["edges"]:
                city.add_edge(edge["u"], edge["v"], edge["length"])
            for poi in obj["pois"]:
                city.add_poi(poi["id"], poi["category"], poi["node"])
            return city.validate()
        except (KeyError, TypeError, ValueError, UnknownNode) as exc:  # bad JSON, street graphs
            raise DataError(f"city snapshot: {type(exc).__name__}: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            self.to_json(fp)

    @classmethod
    def load(cls, path) -> "CityModel":
        with open(path, "r", encoding="utf-8-sig") as fp:  # past any byte order mark
            return cls.from_json(fp)


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


def dijkstra(city: CityModel, source: int) -> ShortestPathTree:
    """The shortest-path tree from one source node, by one of two searches.

    The heap search pops (distance, index) entries, and the index sorts
    node ids, so equal-distance pops resolve by node id. A settled node is
    final: no neighbour relaxes it again, not even when an edge adds nothing
    to a far distance (1e6 + 1e-11 == 1e6), so every predecessor was settled
    before its node, the tree is acyclic and the source has no predecessor.

    When every edge has one integer length L and L x node count < 2**53,
    sums are exact and levels differ by at least 1 m, so the heap search
    makes each node's parent its lowest-index neighbour one level closer.
    The level search builds that tree without a heap: it expands each level
    in ascending index order and keeps each node's first discoverer. Given a
    target, it stops once the target is labelled, as ``shortest_path`` asks;
    every node of its route was labelled earlier, so the route is the full
    tree's. Both fill Python lists, which the interpreter indexes faster than
    arrays; ``dijkstra``'s trees, which may be kept, get them as arrays.
    """
    if source not in city.positions:
        raise UnknownNode(f"no street node {source}")
    index, nodes, adjacency, step = city._trees.street_graph(city)
    if step is None:
        dist, prev = _heap_search(adjacency, index[source])
    else:
        dist, prev = _level_search(adjacency, index[source], step, -1)  # the full tree
    return ShortestPathTree(source, index, nodes, array("d", dist), array("i", prev))


def _heap_search(adjacency: list, s: int) -> tuple[list[float], list[int]]:
    pop, push, tie = heapq.heappop, heapq.heappush, TIE_TOLERANCE
    dist = [math.inf] * len(adjacency)
    prev = [-1] * len(adjacency)
    done = [False] * len(adjacency)
    dist[s] = 0.0
    heap = [(0.0, s)]
    while heap:
        d, u = pop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, length in adjacency[u]:
            if done[v]:
                continue
            nd = d + length
            old = dist[v]
            # strict improvement or same-distance lower-id parent
            if nd < old - tie or (abs(nd - old) <= tie and u < prev[v]):
                dist[v] = nd
                prev[v] = u
                push(heap, (nd, v))
    return dist, prev


def _level_search(
    adjacency: list, s: int, step: float, target: int
) -> tuple[list[float], list[int]]:
    inf = math.inf
    dist = [inf] * len(adjacency)
    prev = [-1] * len(adjacency)
    dist[s] = d = 0.0
    level = [] if s == target else [s]
    while level:
        d += step
        found = []
        for u in level:
            for v, _ in adjacency[u]:
                if dist[v] == inf:
                    dist[v] = d
                    prev[v] = u
                    if v == target:
                        return dist, prev
                    found.append(v)
        found.sort()
        level = found
    return dist, prev


def shortest_path(city: CityModel, source: int, target: int) -> tuple[float, list[int]]:
    """(distance, node sequence source..target); identical endpoints give [source]."""
    if target not in city.positions:
        raise UnknownNode(f"no street node {target}")
    trees = city._trees
    index, nodes, adjacency, step = trees.street_graph(city)
    if step is None or source in trees.kept or source not in index:
        tree = trees.tree(city, source)
    else:  # a level search that stops at the target and is not cached
        dist, prev = _level_search(adjacency, index[source], step, index[target])
        tree = ShortestPathTree(source, index, nodes, dist, prev)
    distance = tree.distance(target)
    if distance is None:
        raise UnknownNode(f"node {target} unreachable from {source}")
    return distance, tree.path(target)


def _pois_by_distance(city: CityModel, from_node: int, category: str) -> list[tuple[float, str]]:
    """(shortest-path distance, POI id) of each reachable POI of the category, nearest first."""
    candidates = city.pois_of_category(category)
    trees = city._trees
    if trees.street_graph(city)[3] is None:
        tree = trees.tree(city, from_node)
        found = [(tree.distance(p.node), p.id) for p in candidates]
    elif from_node not in city.positions:
        raise UnknownNode(f"no street node {from_node}")
    else:  # from the POIs' kept trees: edges run both ways and sums are exact
        found = [(trees.tree(city, p.node).distance(from_node), p.id) for p in candidates]
    return sorted(pair for pair in found if pair[0] is not None)


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
    radius = city.speed(mode) * duration_upper_minutes(duration_bin)
    return [poi_id for d, poi_id in _pois_by_distance(city, from_node, category) if d <= radius]


def nearest_poi(city: CityModel, from_node: int, category: str) -> str:
    """Closest POI of the category regardless of range; ties by POI id. UnknownNode,
    naming both, when none is reachable (streets that ``validate()`` rejects)."""
    by_distance = _pois_by_distance(city, from_node, category)
    if not by_distance:
        raise UnknownNode(f"no POI of category {category!r} reachable from node {from_node}")
    return by_distance[0][1]


# ----------------------------------------------------------------------
# Synthetic grid city
# ----------------------------------------------------------------------


def grid_city(
    width: int = 20,
    height: int = 20,
    pois_per_category: int = 8,
    seed: int = 0,
) -> CityModel:
    """Rectangular street grid of ``GRID_SPACING`` m blocks with seeded random POI placement.

    Node ids are row-major; every purpose category other than "home" gets
    ``pois_per_category`` POIs at random street nodes ("home" locations
    are plain nodes, not POIs).
    """
    if width < 2 or height < 2:
        raise ValueError("grid must be at least 2x2")
    city = CityModel()
    for r in range(height):
        for c in range(width):
            city.add_node(r * width + c, c * GRID_SPACING, r * GRID_SPACING)
    for r in range(height):
        for c in range(width):
            node = r * width + c
            if c + 1 < width:
                city.add_edge(node, node + 1, GRID_SPACING)
            if r + 1 < height:
                city.add_edge(node, node + width, GRID_SPACING)
    rng = substream(seed, "city-pois")
    n_nodes = width * height
    for category in (c for c in TRIP_PURPOSES if c != "home"):
        nodes = rng.choice(n_nodes, size=min(pois_per_category, n_nodes), replace=False)
        for i, node in enumerate(sorted(int(n) for n in nodes)):
            city.add_poi(f"{category}-{i}", category, node)
    return city.validate()
