"""Street-network model: routing, POI search, grid construction, snapshots."""

import heapq
import io
import json
import math
import re
import sys
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from preference_chain import city as city_module
from preference_chain.city import (
    DEFAULT_MODE_SPEEDS,
    TIE_TOLERANCE,
    CityModel,
    Poi,
    dijkstra,
    duration_upper_minutes,
    edge_id,
    grid_city,
    nearest_poi,
    search_pois,
    shortest_path,
)
from preference_chain.errors import DataError, UnknownCategory, UnknownNode
from preference_chain.schema import DURATION_BINS, TRIP_PURPOSES


def line_city():
    """0 -100- 1 -200- 2 -100- 3 -300- 4, shops at both ends, work at 3."""
    city = CityModel()
    for i in range(5):
        city.add_node(i, i * 100.0, 0.0)
    city.add_edge(0, 1, 100.0)
    city.add_edge(1, 2, 200.0)
    city.add_edge(2, 3, 100.0)
    city.add_edge(3, 4, 300.0)
    city.add_poi("shop-a", "shop", 0)
    city.add_poi("shop-b", "shop", 4)
    city.add_poi("work-0", "work", 3)
    return city.validate()


# ----------------------------------------------------------------------
# basics
# ----------------------------------------------------------------------


def test_edge_id_canonical_order():
    assert edge_id(3, 7) == "3-7"
    assert edge_id(7, 3) == "3-7"
    assert edge_id(0, 10) == "0-10"


def test_duration_upper_minutes_all_bins():
    expected = {"0-10": 10, "10-20": 20, "20-30": 30, "30-40": 40, "40-50": 50, "50-60": 60}
    for bin_name in DURATION_BINS:
        assert duration_upper_minutes(bin_name) == expected[bin_name]


def test_duration_upper_minutes_unknown_bin():
    with pytest.raises(UnknownCategory):
        duration_upper_minutes("60+")


def test_add_edge_requires_known_nodes_and_positive_length():
    city = CityModel()
    city.add_node(0, 0.0, 0.0)
    with pytest.raises(UnknownNode):
        city.add_edge(0, 1, 50.0)
    city.add_node(1, 1.0, 0.0)
    for length in (0.0, -1.0, 1e-13, TIE_TOLERANCE, math.nan, math.inf, 10**400):
        with pytest.raises(ValueError):
            city.add_edge(0, 1, length)
    assert city.adjacency == {0: [], 1: []}
    city.add_edge(0, 1, 2 * TIE_TOLERANCE)
    tree = dijkstra(city, 0)
    assert (list(tree.dist), list(tree.prev)) == ([0.0, 2 * TIE_TOLERANCE], [-1, 0])


def test_add_poi_requires_known_node():
    city = CityModel()
    city.add_node(0, 0.0, 0.0)
    with pytest.raises(UnknownNode):
        city.add_poi("shop-0", "shop", 99)


@pytest.mark.parametrize(
    "poi_id,category",
    [(7, "shop"), (None, "shop"), ("", "shop"), ("shop-1", None), ("shop-0", "shop")],
    ids=["int-id", "null-id", "empty-id", "null-category", "repeated-id"],
)
def test_add_poi_requires_a_new_string_id_and_a_string_category(poi_id, category):
    city = CityModel()
    city.add_node(0, 0.0, 0.0)
    city.add_poi("shop-0", "shop", 0)
    with pytest.raises(ValueError):
        city.add_poi(poi_id, category, 0)
    assert list(city.pois) == ["shop-0"]


def test_add_node_rejects_a_boolean_or_repeated_id():
    city = CityModel()
    city.add_node(1, 0.0, 0.0)
    for node in (1, 1.0, True, False):
        with pytest.raises(ValueError):
            city.add_node(node, 9.0, 9.0)
    assert city.positions == {1: (0.0, 0.0)}


def test_add_node_takes_an_int_id_and_finite_number_coordinates():
    city = CityModel()
    city.add_node(0, 3, -2.5)
    bad = [
        ("0x", 12.0, 3.0),
        (np.int64(1), 12.0, 3.0),
        (1, "12", 3),
        (1, 12.0, None),
        (1, True, 0.0),
        (1, math.nan, 0.0),
        (1, 0.0, -math.inf),
        (1, 10**400, 0.0),
    ]
    for node, x, y in bad:
        with pytest.raises(ValueError):
            city.add_node(node, x, y)
    assert city.positions == {0: (3.0, -2.5)}


def test_a_numpy_float_is_a_number_and_a_bool_or_a_string_is_not():
    """Coordinates, lengths and speeds follow ``schema.is_number``, as spec probabilities do."""
    city = CityModel()
    city.add_node(0, 0.0, 0.0)
    city.add_node(1, np.float64(1.0), np.float64(0.0))
    city.add_edge(0, 1, np.float64(100.0))
    city.speeds["walking"] = np.float64(80.0)
    assert city.validate() is city
    assert city.positions[1] == (1.0, 0.0) and city.adjacency[0] == [(1, 100.0)]
    for bad in (True, "12"):
        with pytest.raises(ValueError, match=re.escape(f"street node 2: coordinate {bad!r} is not a finite number")):
            city.add_node(2, bad, 0.0)
        with pytest.raises(ValueError, match=re.escape(f"edge length must be finite and above 1e-12 m, got {bad!r}")):
            city.add_edge(0, 1, bad)
        city.speeds["walking"] = bad
        with pytest.raises(ValueError, match=re.escape(f"speed for 'walking' must be a finite number > 0, got {bad!r}")):
            city.validate()


def test_edge_ends_and_poi_nodes_are_int_ids_and_lengths_numbers():
    """``True`` and ``1.0`` hash as node 1, so only the type tells them apart."""
    city = CityModel()
    city.add_node(0, 0.0, 0.0)
    city.add_node(1, 1.0, 0.0)
    for u, v in ((0, 1.0), (True, 0), (0, np.int64(1))):
        with pytest.raises(UnknownNode):
            city.add_edge(u, v, 50.0)
    for length in (True, "50"):
        with pytest.raises(ValueError):
            city.add_edge(0, 1, length)
    for node in (True, 1.0, np.int64(1)):
        with pytest.raises(UnknownNode):
            city.add_poi("work-0", "work", node)
    assert (city.adjacency, city.pois) == ({0: [], 1: []}, {})
    city.add_edge(0, 1, 50)
    assert city.add_poi("work-0", "work", 1) == Poi("work-0", "work", 1)


def test_the_speed_table_names_exactly_the_modes():
    """Only a snapshot without "speeds" takes the defaults; an empty table is an error."""
    buffer = io.StringIO()
    line_city().to_json(buffer)
    obj = json.loads(buffer.getvalue())
    obj.pop("speeds")
    assert CityModel.from_json(io.StringIO(json.dumps(obj))).speeds == DEFAULT_MODE_SPEEDS
    for speeds in ({}, {"walking": 80.0}, {**DEFAULT_MODE_SPEEDS, "hovercraft": 900.0}):
        obj["speeds"] = speeds
        with pytest.raises(DataError, match="exactly the modes"):
            CityModel.from_json(io.StringIO(json.dumps(obj)))


def test_speed_lookup_and_unknown_mode():
    city = line_city()
    assert city.speed("walking") == 80.0
    assert city.speed("private_auto") == 500.0
    with pytest.raises(UnknownCategory):
        city.speed("hovercraft")


def test_pois_of_category_sorted_and_missing():
    city = line_city()
    assert [p.id for p in city.pois_of_category("shop")] == ["shop-a", "shop-b"]
    with pytest.raises(UnknownCategory):
        city.pois_of_category("recreation")


def test_validate_rejects_disconnected_graph():
    city = CityModel()
    city.add_node(0, 0.0, 0.0)
    city.add_node(1, 1.0, 0.0)
    city.add_node(2, 2.0, 0.0)
    city.add_edge(0, 1, 10.0)
    with pytest.raises(ValueError, match="not connected"):
        city.validate()


def test_validate_rejects_empty_city_and_bad_speed():
    with pytest.raises(ValueError, match="^city has no street nodes$"):
        CityModel().validate()
    city = line_city()
    for speed in (0.0, math.nan, True, "80", math.inf):
        city.speeds["walking"] = speed
        with pytest.raises(ValueError):
            city.validate()
    city.speeds["walking"] = 80
    city.validate()


# ----------------------------------------------------------------------
# routing: hand oracle on the line city
# ----------------------------------------------------------------------


def test_line_city_distances_from_middle():
    tree = dijkstra(line_city(), 2)
    dist = {node: tree.distance(node) for node in range(5)}
    assert dist == {2: 0.0, 1: 200.0, 3: 100.0, 0: 300.0, 4: 400.0}


def test_line_city_path_reconstruction():
    distance, path = shortest_path(line_city(), 2, 4)
    assert distance == 400.0
    assert path == [2, 3, 4]
    distance, path = shortest_path(line_city(), 4, 0)
    assert distance == 700.0
    assert path == [4, 3, 2, 1, 0]


def test_shortest_path_same_node_is_zero_length():
    assert shortest_path(line_city(), 2, 2) == (0.0, [2])


def test_routing_unknown_nodes():
    city = line_city()
    with pytest.raises(UnknownNode):
        dijkstra(city, 99)
    with pytest.raises(UnknownNode, match="^no street node 99$"):
        shortest_path(city, 0, 99)


def test_unreachable_target_raises():
    city = CityModel()
    city.add_node(0, 0.0, 0.0)
    city.add_node(1, 1.0, 0.0)
    with pytest.raises(UnknownNode, match="unreachable"):
        shortest_path(city, 0, 1)


# ----------------------------------------------------------------------
# routing: Floyd-Warshall oracle on random graphs
# ----------------------------------------------------------------------


def _floyd_warshall(n, edges):
    """All-pairs distances computed without any routing code under test."""
    inf = float("inf")
    d = [[inf] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0.0
    for u, v, w in edges:
        d[u][v] = min(d[u][v], w)
        d[v][u] = min(d[v][u], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    return d


def _random_city(rng, n):
    city = CityModel()
    for i in range(n):
        city.add_node(i, float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
    edges = []
    # random spanning tree first so the graph is connected
    for v in range(1, n):
        u = int(rng.integers(0, v))
        w = float(rng.integers(1, 100))
        city.add_edge(u, v, w)
        edges.append((u, v, w))
    for _ in range(n):
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        w = float(rng.integers(1, 100))
        city.add_edge(u, v, w)
        edges.append((u, v, w))
    return city.validate(), edges


def test_dijkstra_matches_floyd_warshall_on_random_graphs():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        city, edges = _random_city(rng, n)
        oracle = _floyd_warshall(n, edges)
        for source in range(n):
            tree = dijkstra(city, source)
            for target in range(n):
                assert tree.distance(target) == pytest.approx(oracle[source][target], abs=1e-9)


def _reference_dijkstra(city, source):
    """The dict-based Dijkstra the tree form replaced: (distances, predecessors)."""
    dist = {source: 0.0}
    prev = {}
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
            if old is None or nd < old - TIE_TOLERANCE or (
                abs(nd - old) <= TIE_TOLERANCE and u < prev.get(v, u + 1)
            ):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, prev


def _tied_random_city(rng, lengths=(1.0, 2.0, 3.0)):
    """Scattered ids (some negative), given lengths (1-3 m), parallel edges, loops, an island."""
    n = int(rng.integers(6, 30))
    ids = sorted(int(x) for x in rng.choice(np.arange(-60, 60), size=n + 2, replace=False))
    rng.shuffle(ids)
    city = CityModel()
    for node in ids:
        city.add_node(node, float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
    main, island = ids[:n], ids[n:]
    for k in range(1, n):
        city.add_edge(main[int(rng.integers(0, k))], main[k], lengths[int(rng.integers(0, 3))])
    for _ in range(2 * n):
        u, v = (main[int(i)] for i in rng.integers(0, n, size=2))  # u == v is a loop
        city.add_edge(u, v, lengths[int(rng.integers(0, 3))])
    city.add_edge(island[0], island[1], lengths[0])
    return city


def _rounded_random_city(rng):
    """The random city with lengths 0.1-0.3 m, where sums tie only after rounding.

    0.1 + 0.2 and 0.3 differ by 5.6e-17, inside the tie tolerance.
    """
    return _tied_random_city(rng, lengths=(0.1, 0.2, 0.3))


def _uniform_random_city(rng):
    """The random city with every length 7 m, which the level search routes."""
    return _tied_random_city(rng, lengths=(7.0, 7.0, 7.0))


def _tied_grid_city(rng):
    width, height = (int(x) for x in rng.integers(2, 7, size=2))
    return grid_city(width=width, height=height, pois_per_category=1)


def _searches(monkeypatch):
    """The names of the searches run from now on, in call order; a level
    search given a target (``shortest_path``'s) is "_level_search to a target"."""
    ran = []
    for name in ("_heap_search", "_level_search"):
        def recorded(*args, search=getattr(city_module, name), name=name):
            ran.append(name if args[3:] in [(), (-1,)] else f"{name} to a target")
            return search(*args)

        monkeypatch.setattr(city_module, name, recorded)
    return ran


@pytest.mark.parametrize(
    "build,search",
    [
        (_tied_random_city, "_heap_search"),
        (_tied_grid_city, "_level_search"),
        (_rounded_random_city, "_heap_search"),
        (_uniform_random_city, "_level_search"),
    ],
    ids=["random", "grid", "rounded", "uniform"],
)
def test_tree_equals_the_dict_reference_exactly(build, search, monkeypatch):
    ran = _searches(monkeypatch)
    rng = np.random.default_rng(31)
    unreachable = 0
    for _ in range(25):
        city = build(rng)
        for source in city.positions:
            tree = dijkstra(city, source)
            dist, prev = _reference_dijkstra(city, source)
            unreachable += len(city.positions) - len(dist)
            for node in city.positions:
                assert tree.distance(node) == dist.get(node)  # exact, None if unreachable
                if node in dist:
                    path = [node]
                    while path[-1] != source:
                        path.append(prev[path[-1]])
                    assert tree.path(node) == path[::-1]
    # only the random cities have an island
    assert (unreachable > 0) == (build is not _tied_grid_city)
    assert set(ran) == {search}


def _tree_bytes(dist, prev):
    return array("d", dist).tobytes(), array("i", prev).tobytes()


def test_level_search_trees_equal_the_heap_search_byte_for_byte(monkeypatch):
    """Uniform integer lengths on random cities (islands, loops, parallel edges) and a grid."""
    ran = _searches(monkeypatch)
    rng = np.random.default_rng(37)
    cities = [_tied_random_city(rng, lengths=(length,) * 3) for length in (1.0, 3.0, 100.0) * 12]
    cities.append(grid_city(width=13, height=7, pois_per_category=1))
    for city in cities:
        index, nodes, adjacency, _ = city._trees.street_graph(city)
        for source in nodes:
            tree = dijkstra(city, source)
            heap = city_module._heap_search(adjacency, index[source])
            assert _tree_bytes(tree.dist, tree.prev) == _tree_bytes(*heap), source
    assert ran.count("_level_search") == sum(c.node_count() for c in cities)
    assert ran.count("_heap_search") == ran.count("_level_search")  # the direct calls only


def _two_lengths(rng):
    city = _tied_random_city(rng, lengths=(5.0, 5.0, 5.0))
    u, v = sorted(city.positions)[:2]
    city.add_edge(u, v, 6.0)
    return city


def _huge_uniform(rng):
    """Four nodes in a ring of 2**52 m edges: a 2-edge path is 2**53, past exact sums."""
    city = CityModel()
    for node in range(4):
        city.add_node(node, float(node), 0.0)
    for node in range(4):
        city.add_edge(node, (node + 1) % 4, 2.0**52)
    return city


def _no_edges(rng):
    city = CityModel()
    for node in (4, -2, 9):
        city.add_node(node, float(node), 0.0)
    return city


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: _tied_random_city(rng, lengths=(0.1, 0.1, 0.1)),
        _huge_uniform,
        _two_lengths,
        _no_edges,
    ],
    ids=["non-integer-uniform", "too-long-uniform", "mixed", "no-edges"],
)
def test_cities_without_one_exact_integer_length_take_the_heap_search(build, monkeypatch):
    ran = _searches(monkeypatch)
    city = build(np.random.default_rng(41))
    for source in city.positions:
        dist, prev = _reference_dijkstra(city, source)
        tree = dijkstra(city, source)
        assert {n: tree.distance(n) for n in dist} == dist
        assert {n: tree.path(n)[-2] for n in prev} == prev
    assert ran == ["_heap_search"] * city.node_count()


def test_edge_below_the_float_spacing_leaves_the_tree_acyclic():
    """1e6 + 1e-11 == 1e6, so node 1 ties node 3 after 3 is settled; 3 keeps its parent."""
    city = CityModel()
    for node in (1, 3, 5):
        city.add_node(node, float(node), 0.0)
    city.add_edge(5, 3, 1e6)
    city.add_edge(3, 1, 1e-11)
    tree = dijkstra(city, 5)
    for start in range(len(tree.nodes)):  # a bounded walk: a cycle fails, never hangs
        i = start
        for _ in range(len(tree.nodes)):
            if i < 0:
                break
            i = tree.prev[i]
        assert i < 0, f"predecessor cycle through {tree.nodes[start]}: {list(tree.prev)}"
    assert list(tree.prev) == [1, 2, -1]
    assert shortest_path(city, 5, 1) == (1e6, [5, 3, 1])
    assert city._trees.street_graph(city)[3] is None  # two lengths: the heap search


def test_trees_are_arrays_also_when_kept(monkeypatch):
    """Trees hold 12 bytes per node; the POI trees stay for the city's lifetime."""
    city = line_city()
    trees = []
    dijkstra_once = city_module.dijkstra

    def recorded(city, source):
        trees.append(dijkstra_once(city, source))
        return trees[-1]

    monkeypatch.setattr(city_module, "dijkstra", recorded)
    trees.append(dijkstra(city, 2))
    search_pois(city, 3, "shop", "walking", "0-10")  # work-0 sits at node 3
    search_pois(city, 2, "shop", "walking", "0-10")  # fills the one other slot
    search_pois(city, 3, "shop", "walking", "0-10")  # the kept tree, no new run
    assert [tree.source for tree in trees] == [2, 3, 2]
    grid = grid_city(width=3, height=3, pois_per_category=1)  # routed level by level
    search_pois(grid, grid.pois["work-0"].node, "shop", "walking", "0-10")
    shop = grid.pois["shop-0"].node  # the search reads the shop's tree, not work-0's
    assert shop != grid.pois["work-0"].node
    assert [tree.source for tree in trees[3:]] == [shop]
    assert grid._trees.kept == {shop: trees[-1]}
    for tree in trees:
        assert (tree.dist.typecode, tree.prev.typecode) == ("d", "i")


def test_shortest_path_edges_exist_and_sum_to_distance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        city, _ = _random_city(rng, n)
        source, target = (int(x) for x in rng.choice(n, size=2, replace=False))
        distance, path = shortest_path(city, source, target)
        assert path[0] == source and path[-1] == target
        total = 0.0
        for u, v in zip(path, path[1:]):
            lengths = [l for t, l in city.adjacency[u] if t == v]
            assert lengths, f"path uses missing edge {u}-{v}"
            total += min(lengths)
        assert total == pytest.approx(distance, abs=1e-9)


def test_dijkstra_deterministic_on_tied_grid():
    city = grid_city(width=3, height=3, pois_per_category=1, seed=0)
    first = shortest_path(city, 0, 8)
    for _ in range(3):
        assert shortest_path(city, 0, 8) == first
    assert first[0] == 400.0
    assert len(first[1]) == 5


# ----------------------------------------------------------------------
# POI search
# ----------------------------------------------------------------------


def test_search_pois_radius_is_speed_times_bin_upper():
    # walking 80 m/min x 10 min = 800 m: both shops are within range of node 2
    assert search_pois(line_city(), 2, "shop", "walking", "0-10") == ["shop-a", "shop-b"]


def test_search_pois_sorted_by_distance():
    # from node 0: shop-a at 0 m, shop-b at 700 m
    assert search_pois(line_city(), 0, "shop", "walking", "0-10") == ["shop-a", "shop-b"]
    # from node 4 the order flips
    assert search_pois(line_city(), 4, "shop", "walking", "0-10") == ["shop-b", "shop-a"]


def test_search_pois_respects_tight_budget():
    city = line_city()
    city.speeds["walking"] = 30.0  # radius 300 m: shop-b (400 m from node 2) drops out
    assert search_pois(city, 2, "shop", "walking", "0-10") == ["shop-a"]
    city.speeds["walking"] = 20.0  # radius 200 m: nothing within range of node 2
    assert search_pois(city, 2, "shop", "walking", "0-10") == []


def test_search_pois_ties_broken_by_id():
    city = line_city()
    city.add_poi("shop-0", "shop", 0)  # same node as shop-a, same distance
    assert search_pois(city, 2, "shop", "walking", "0-10") == [
        "shop-0",
        "shop-a",
        "shop-b",
    ]


def test_search_pois_unknown_inputs():
    city = line_city()
    with pytest.raises(UnknownCategory):
        search_pois(city, 2, "recreation", "walking", "0-10")
    with pytest.raises(UnknownCategory):
        search_pois(city, 2, "shop", "hovercraft", "0-10")
    with pytest.raises(UnknownCategory):
        search_pois(city, 2, "shop", "walking", "never")


def test_nearest_poi_ignores_budget():
    city = line_city()
    city.speeds["walking"] = 1.0
    assert nearest_poi(city, 2, "shop") == "shop-a"
    assert nearest_poi(city, 4, "shop") == "shop-b"
    assert nearest_poi(city, 0, "work") == "work-0"


def test_nearest_poi_with_no_reachable_poi_raises_unknown_node():
    city = line_city()
    city.add_node(5, 900.0, 0.0)  # an island: the city no longer validates
    with pytest.raises(UnknownNode, match=r"no POI of category 'shop' reachable from node 5"):
        nearest_poi(city, 5, "shop")
    assert search_pois(city, 5, "shop", "walking", "0-10") == []


# ----------------------------------------------------------------------
# routing cache: cached trees against a fresh city for every call
# ----------------------------------------------------------------------


def _fresh(city):
    """A copy of the city's streets and POIs that holds no routing trees."""
    return CityModel(
        positions=dict(city.positions),
        adjacency={u: list(neighbors) for u, neighbors in city.adjacency.items()},
        pois=dict(city.pois),
        speeds=dict(city.speeds),
    )


def _outcome(query, city, *args):
    """("returned", result) or ("raised", type, message) for one query."""
    try:
        return "returned", query(city, *args)
    except UnknownNode as exc:  # an unknown node, an unreachable target or no reachable POI
        return "raised", type(exc), str(exc)


def _tied_grid(rng):
    return grid_city(width=6, height=5, pois_per_category=2, seed=11)


def _random_lengths(rng):
    city, _ = _random_city(rng, 30)
    for i, node in enumerate(rng.choice(30, size=8, replace=False)):
        category = ("shop", "work")[i % 2]
        city.add_poi(f"{category}-{i}", category, int(node))
    return city


@pytest.mark.parametrize("build", [_tied_grid, _random_lengths], ids=["tied-grid", "random"])
def test_shortest_path_on_four_threads_equals_serial(build):
    serial_city = build(np.random.default_rng(7))
    nodes = sorted(serial_city.positions)
    rng = np.random.default_rng(8)
    routes = [tuple(int(n) for n in rng.choice(nodes, size=2)) for _ in range(300)]
    serial = [shortest_path(serial_city, a, b) for a, b in routes]
    shared = build(np.random.default_rng(7))  # no tree cached yet
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so interleavings vary
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda r: shortest_path(shared, *r), routes, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


@pytest.mark.parametrize("build", [_tied_grid, _random_lengths], ids=["tied-grid", "random"])
def test_cached_routing_equals_a_fresh_city(build, monkeypatch):
    rng = np.random.default_rng(2024)
    city = build(rng)
    runs = {"cached": 0, "fresh": 0}
    dijkstra_once = city_module.dijkstra
    side = "cached"

    def counted(city, source):
        runs[side] += 1
        return dijkstra_once(city, source)

    monkeypatch.setattr(city_module, "dijkstra", counted)
    categories = sorted({p.category for p in city.pois.values()})
    island = max(city.positions) + 1
    city.add_node(island, -50.0, -50.0)  # unreachable until an edge reaches it
    unknown = island + 1000
    edge_length = 100.0 if build is _tied_grid else None
    errors = set()
    source = min(city.positions)
    for step in range(400):
        roll = rng.random()
        nodes = sorted(city.positions)
        if roll < 0.03:
            new = max(nodes) + 1
            city.add_node(new, float(rng.uniform(0, 500)), float(rng.uniform(0, 500)))
            continue
        if roll < 0.06 and step > 200:
            u, v = (int(x) for x in rng.choice(nodes, size=2, replace=False))
            city.add_edge(u, v, edge_length or float(rng.integers(1, 100)))
            continue
        if roll < 0.09:
            node = int(rng.choice(nodes))
            city.add_poi(f"extra-{step}", categories[step % len(categories)], node)
            continue
        if rng.random() < 0.5:  # a new origin; otherwise the trip's origin again
            source = int(rng.choice(nodes + [island, unknown]))
        category = categories[int(rng.integers(len(categories)))]
        kind = int(rng.integers(3))
        if kind == 0:
            mode = sorted(DEFAULT_MODE_SPEEDS)[int(rng.integers(len(DEFAULT_MODE_SPEEDS)))]
            duration = DURATION_BINS[int(rng.integers(len(DURATION_BINS)))]
            query, args = search_pois, (source, category, mode, duration)
        elif kind == 1:
            query, args = nearest_poi, (source, category)
        else:
            target = int(rng.choice(nodes + [island, unknown]))
            query, args = shortest_path, (source, target)
        side = "cached"
        cached = _outcome(query, city, *args)
        side = "fresh"
        fresh = _outcome(query, _fresh(city), *args)
        assert cached == fresh, (step, query.__name__, args)
        if fresh[0] == "raised":
            errors.add(fresh[2])
    # the walk met an unknown node and an unreachable target, and the cache saved runs
    assert f"no street node {unknown}" in errors
    assert any("unreachable" in message for message in errors)
    assert runs["cached"] < runs["fresh"]


# ----------------------------------------------------------------------
# one exact step: POI distances from the POIs' trees, routes that stop
# at their target, each against the source's own full tree
# ----------------------------------------------------------------------


def _uniform_cities_with_pois():
    """The level-search oracle's 36 seeded cities, with two POI categories, and a grid.

    A POI may share its node with another or sit on the random cities' island.
    """
    rng = np.random.default_rng(37)
    cities = [_tied_random_city(rng, lengths=(length,) * 3) for length in (1.0, 3.0, 100.0) * 12]
    for city in cities:
        for i, node in enumerate(rng.choice(sorted(city.positions), size=6)):
            category = ("shop", "work")[i % 2]
            city.add_poi(f"{category}-{i}", category, int(node))
    cities.append(grid_city(width=13, height=7, pois_per_category=3))
    return cities


def test_uniform_poi_search_equals_reading_the_source_tree(monkeypatch):
    ran = _searches(monkeypatch)
    cities = _uniform_cities_with_pois()
    unreachable = 0
    for city in cities:
        step = city._trees.street_graph(city)[3]
        city.speeds["walking"] = step  # a radius of 10, 20, ... steps by duration bin
        for source in sorted(city.positions):
            tree = dijkstra(city, source)
            for category in sorted({p.category for p in city.pois.values()}):
                pois = city.pois_of_category(category)
                found = [(tree.distance(p.node), p.id) for p in pois]
                expected = sorted(pair for pair in found if pair[0] is not None)  # exact floats
                unreachable += len(found) - len(expected)
                assert city_module._pois_by_distance(city, source, category) == expected
                for duration in DURATION_BINS:
                    radius = step * duration_upper_minutes(duration)
                    in_range = [poi_id for d, poi_id in expected if d <= radius]
                    assert search_pois(city, source, category, "walking", duration) == in_range
                message = f"no POI of category {category!r} reachable from node {source}"
                nearest = ("returned", expected[0][1]) if expected else ("raised", UnknownNode, message)
                assert _outcome(nearest_poi, city, source, category) == nearest
        assert city._trees.last is None  # no tree from a non-POI node is cached
    assert unreachable > 0
    # besides the source trees, one full tree per POI node and per city
    poi_nodes = sum(len({p.node for p in city.pois.values()}) for city in cities)
    assert ran == ["_level_search"] * len(ran)
    assert len(ran) == sum(city.node_count() for city in cities) + poi_nodes


def _expected_route(trees, source, target):
    """``_outcome(shortest_path, ...)`` as read from the source's full tree."""
    for node in (target, source):
        if node not in trees:
            return "raised", UnknownNode, f"no street node {node}"
    distance = trees[source].distance(target)
    if distance is None:
        return "raised", UnknownNode, f"node {target} unreachable from {source}"
    return "returned", (distance, trees[source].path(target))


def test_uniform_routes_equal_the_full_tree(monkeypatch):
    """Every (source, target) pair, an unknown node on either end and source == target."""
    ran = _searches(monkeypatch)
    for city in _uniform_cities_with_pois():
        nodes = sorted(city.positions)
        trees = {source: dijkstra(city, source) for source in nodes}  # dijkstra caches nothing
        ends = nodes + [max(nodes) + 1]
        poi_nodes = {p.node for p in city.pois.values()}
        for keep in (False, True):
            if keep:  # the POI search keeps the POI trees, and routes from POI nodes read them
                for category in {p.category for p in city.pois.values()}:
                    city_module._pois_by_distance(city, max(poi_nodes), category)
            ran.clear()
            for source in ends:
                for target in ends:
                    expected = _expected_route(trees, source, target)
                    assert _outcome(shortest_path, city, source, target) == expected
            sources = len(nodes) - len(poi_nodes) * keep  # those that stop at each target
            assert ran == ["_level_search to a target"] * sources * len(nodes)
        assert set(city._trees.kept) == poi_nodes and city._trees.last is None


def test_the_level_search_stops_once_the_target_is_labelled():
    """It labels every node closer than the target, none farther, each as the full tree does."""
    grid = grid_city(width=13, height=7, pois_per_category=1)
    _, nodes, adjacency, step = grid._trees.street_graph(grid)
    for s in range(len(nodes)):
        full_dist, full_prev = city_module._level_search(adjacency, s, step, -1)
        for t in range(len(nodes)):
            dist, prev = city_module._level_search(adjacency, s, step, t)
            for i, d in enumerate(dist):
                if d < math.inf:
                    assert (d, prev[i]) == (full_dist[i], full_prev[i]) and d <= dist[t]
                else:
                    assert full_dist[i] >= dist[t]


def test_mixed_length_poi_search_reads_the_source_tree(monkeypatch):
    ran = _searches(monkeypatch)
    city = line_city()  # lengths 100, 200 and 300 m: the heap search
    assert search_pois(city, 2, "shop", "walking", "0-10") == ["shop-a", "shop-b"]
    assert ran == ["_heap_search"] and city._trees.last.source == 2 and not city._trees.kept
    assert shortest_path(city, 2, 4) == (400.0, [2, 3, 4])  # the same tree: no new search
    assert ran == ["_heap_search"]
    assert shortest_path(city, 1, 4) == (600.0, [1, 2, 3, 4])
    assert ran == ["_heap_search"] * 2 and city._trees.last.source == 1


# ----------------------------------------------------------------------
# grid city
# ----------------------------------------------------------------------


def test_grid_city_shape():
    city = grid_city(width=4, height=3, pois_per_category=2, seed=1)
    assert city.node_count() == 12
    # edges: horizontal 3 per row x 3 rows + vertical 4 per column x 2 = 9 + 8
    assert len(city.edge_ids()) == 17
    assert city.positions[0] == (0.0, 0.0)
    assert city.positions[5] == (100.0, 100.0)  # row 1, col 1: 100 m blocks
    assert {length for edges in city.adjacency.values() for _, length in edges} == {100.0}


def test_grid_city_pois_cover_all_nonhome_purposes():
    city = grid_city(width=5, height=5, pois_per_category=3, seed=2)
    categories = {p.category for p in city.pois.values()}
    assert categories == set(TRIP_PURPOSES) - {"home"}
    for category in categories:
        assert len(city.pois_of_category(category)) == 3


def test_grid_city_deterministic_and_seed_sensitive():
    a = grid_city(width=6, height=6, seed=3)
    b = grid_city(width=6, height=6, seed=3)
    c = grid_city(width=6, height=6, seed=4)
    assert {p.id: p.node for p in a.pois.values()} == {p.id: p.node for p in b.pois.values()}
    assert {p.id: p.node for p in a.pois.values()} != {p.id: p.node for p in c.pois.values()}


def test_grid_city_rejects_degenerate_size():
    with pytest.raises(ValueError):
        grid_city(width=1, height=5)


# ----------------------------------------------------------------------
# JSON snapshot
# ----------------------------------------------------------------------


def test_city_json_round_trip_byte_identical():
    city = grid_city(width=4, height=4, pois_per_category=2, seed=5)
    first = io.StringIO()
    city.to_json(first)
    reloaded = CityModel.from_json(io.StringIO(first.getvalue()))
    second = io.StringIO()
    reloaded.to_json(second)
    assert first.getvalue() == second.getvalue()


def test_city_json_preserves_contents():
    city = line_city()
    buffer = io.StringIO()
    city.to_json(buffer)
    obj = json.loads(buffer.getvalue())
    assert [n["id"] for n in obj["nodes"]] == [0, 1, 2, 3, 4]
    assert {(e["u"], e["v"], e["length"]) for e in obj["edges"]} == {
        (0, 1, 100.0),
        (1, 2, 200.0),
        (2, 3, 100.0),
        (3, 4, 300.0),
    }
    assert obj["speeds"] == DEFAULT_MODE_SPEEDS
    reloaded = CityModel.from_json(io.StringIO(buffer.getvalue()))
    assert reloaded.pois["shop-b"] == Poi("shop-b", "shop", 4)
    assert dijkstra(reloaded, 2).dist == dijkstra(city, 2).dist


def test_city_save_load_files(tmp_path):
    city = grid_city(width=3, height=3, pois_per_category=1, seed=6)
    path = tmp_path / "city.json"
    city.save(path)
    reloaded = CityModel.load(path)
    assert reloaded.positions == city.positions
    assert reloaded.edge_ids() == city.edge_ids()


def test_city_json_keeps_parallel_edges_and_loops():
    city = line_city()
    city.add_edge(0, 1, 10.0)  # a second, shorter 0-1 street
    city.add_edge(1, 0, 5.0)
    city.add_edge(2, 2, 7.0)
    city.add_node(-1, -100.0, 0.0)  # added last, its edge sorts first: "-1-4" < "0-1"
    city.add_edge(4, -1, 20.0)
    buffer = io.StringIO()
    city.to_json(buffer)
    edges = json.loads(buffer.getvalue())["edges"]
    assert [(e["u"], e["v"], e["length"]) for e in edges] == [
        (-1, 4, 20.0),
        (0, 1, 100.0),
        (0, 1, 10.0),
        (0, 1, 5.0),
        (1, 2, 200.0),
        (2, 2, 7.0),
        (2, 3, 100.0),
        (3, 4, 300.0),
    ]
    assert sum(e["u"] == e["v"] == 2 for e in edges) == 1
    reloaded = CityModel.from_json(io.StringIO(buffer.getvalue()))
    assert shortest_path(city, 0, 1) == shortest_path(reloaded, 0, 1) == (5.0, [0, 1])
    assert {u: sorted(n) for u, n in reloaded.adjacency.items()} == {
        u: sorted(n) for u, n in city.adjacency.items()
    }
    again = io.StringIO()
    reloaded.to_json(again)
    assert again.getvalue() == buffer.getvalue()


def test_city_with_negative_node_ids_saves_and_reloads(tmp_path):
    city = CityModel()
    for node in (-12, -1, 0, 3):
        city.add_node(node, float(node), 0.0)
    city.add_edge(-12, -1, 11.0)
    city.add_edge(0, -1, 1.0)
    city.add_edge(3, -12, 40.0)
    city.add_poi("shop-0", "shop", -12)
    path = tmp_path / "city.json"
    city.save(path)
    reloaded = CityModel.load(path)
    assert reloaded.positions == city.positions
    assert reloaded.edge_ids() == city.edge_ids() == ["-1-0", "-12--1", "-12-3"]
    for source in city.positions:
        for target in city.positions:
            assert shortest_path(reloaded, source, target) == shortest_path(city, source, target)
    assert nearest_poi(reloaded, 0, "shop") == "shop-0"
