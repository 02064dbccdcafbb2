"""Graph type, statistics, and girth."""

import json
from pathlib import Path

import pytest

import zforce as zf
from zforce.graph import Graph, bit_list, bits, mask_of, reachable

ROOT = Path(__file__).resolve().parents[1]


def test_mask_helpers_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert bit_list(0b101001) == [0, 3, 5]
    assert list(bits(0)) == []


def test_graph_validation_rejects_asymmetry_and_loops():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError, match="loop"):
        Graph(1, (0b1,))
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, (0b100, 0b000))
    with pytest.raises(ValueError, match="^vertex 1 has a neighbor out of range$"):
        Graph(3, (0b000, 0b1000, 0b000))  # bit n, the first one past the last vertex
    with pytest.raises(ValueError, match="^vertex 0 has a neighbor out of range$"):
        Graph(3, (-1, 0b000, 0b000))
    assert Graph(3, (0b100, 0b000, 0b001)).degrees == (1, 0, 1)  # bit n - 1 is a vertex
    with pytest.raises(ValueError):
        Graph(0, ())


@pytest.mark.parametrize("call, message", [
    (lambda: Graph(2, (0,)), "^adjacency has 1 rows for n=2$"),
    (lambda: Graph.from_edges(3, [(0, 0)]), "^loop at vertex 0$"),
    (lambda: Graph.from_edges(3, [(0, 5)]), r"^edge \(0,5\) out of range for n=3$"),
    (lambda: zf.petersen().induced(0), "^induced subgraph needs at least one vertex$"),
], ids=["short_adjacency", "edge_list_loop", "edge_out_of_range", "empty_induced"])
def test_graph_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_asymmetry_names_the_first_one_way_edge():
    # 2 lists 0 but 0 does not list 2: an edge to an earlier vertex only.
    with pytest.raises(ValueError, match="^asymmetric edge 2-0$"):
        Graph(3, (0b010, 0b101, 0b011))
    # Both kinds: 1-0 comes before 1-2 in vertex order.
    with pytest.raises(ValueError, match="^asymmetric edge 1-0$"):
        Graph(3, (0b000, 0b101, 0b000))


def test_construction_leaves_neighbors_uncomputed():
    g = zf.petersen()
    assert "neighbors" not in vars(g)
    assert g.neighbors[0] == (7, 8, 9)


def test_from_edges_builds_symmetric_adjacency():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.adj[1] >> 0 & 1 and g.adj[2] >> 1 & 1 and not g.adj[0] >> 2 & 1
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.degrees == (1, 2, 1, 0)


def test_degree_statistics_k4():
    g = zf.complete(4)
    assert g.max_degree() == g.min_degree() == 3
    assert g.is_regular() == 3
    assert zf.is_connected(g)


def test_g1_degrees_match_construction():
    g = zf.g1()
    assert g.max_degree() == 3 and g.min_degree() == 2


def test_two_disjoint_edges_not_connected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not zf.is_connected(g)
    assert len(g.components) == 2


def bfs_components(g):
    """Components by a plain per-vertex BFS over neighbor lists."""
    label = [-1] * g.n
    comps = []
    for root in range(g.n):
        if label[root] != -1:
            continue
        label[root] = len(comps)
        queue, comp = [root], 0
        while queue:
            v = queue.pop()
            comp |= 1 << v
            for u in bit_list(g.adj[v]):
                if label[u] == -1:
                    label[u] = label[root]
                    queue.append(u)
        comps.append(comp)
    return comps


def test_components_match_a_bfs_split(random_corpus):
    graphs = []
    for i, g in enumerate(random_corpus[:150]):
        graphs.append(g)
        # Padded with isolated vertices, and beside a copy of itself.
        graphs.append(Graph(g.n + 1 + i % 3, g.adj + (0,) * (1 + i % 3)))
        graphs.append(Graph(2 * g.n, g.adj + tuple(row << g.n for row in g.adj)))
    for g in graphs:
        want = bfs_components(g)
        assert g.components == tuple(want)
        assert zf.is_connected(g) == (len(want) == 1)


def test_bounds_report_finds_the_components_once(random_corpus, monkeypatch):
    from zforce import graph
    real = graph.reachable
    for g in random_corpus[:20] + [zf.generate("petersen")]:
        g = Graph(g.n, g.adj)  # a fresh copy, nothing cached yet
        calls = []

        def counted(h, start, within=None):
            calls.append(h)
            return real(h, start, within)

        with monkeypatch.context() as patch:
            patch.setattr(graph, "reachable", counted)
            zf.bounds_report(g, zf.zero_forcing_number(g))
        assert sum(h is g for h in calls) <= 1


def test_complement_involution():
    g = zf.generate("petersen")
    assert g.complement().complement() == g


def test_reachable_within_a_mask_matches_the_induced_subgraph(random_corpus):
    for i, g in enumerate(random_corpus[:100]):
        mask = g.full_mask & ~(1 << (i % g.n)) & ~(1 << (3 * i % g.n))
        start = (mask & -mask).bit_length() - 1
        labels = bit_list(mask)
        want = mask_of(labels[v] for v in bits(reachable(g.induced(mask), 0)))
        assert reachable(g, start, mask) == want


def test_induced_relabels():
    g = zf.cycle(5)
    sub = g.induced(mask_of([1, 2, 3]))
    assert sub.edges() == [(0, 1), (1, 2)]


# -- girth -------------------------------------------------------------------


def girth_oracle(g: Graph):
    """Independent check: for every edge, shortest alternative path."""
    best = None
    for u, v in g.edges():
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for x in frontier:
                for y in bit_list(g.adj[x]):
                    if (x, y) in ((u, v), (v, u)) or y in dist:
                        continue
                    dist[y] = dist[x] + 1
                    nxt.append(y)
            frontier = nxt
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def test_girth_simple_cases():
    assert zf.cycle(7).girth == 7
    assert zf.path(5).girth is None
    assert zf.complete(4).girth == 3
    assert zf.complete_bipartite(2, 2).girth == 4


def test_girth_petersen_is_five():
    assert zf.generate("petersen").girth == 5
    assert girth_oracle(zf.generate("petersen")) == 5


def test_girth_matches_oracle_on_corpus(random_corpus):
    for g in random_corpus[:150]:
        assert g.girth == girth_oracle(g)


def test_cached_girth_matches_a_fresh_bfs(random_corpus, cubic_g5_corpus):
    for g in random_corpus[:100] + cubic_g5_corpus[:10]:
        first = g.girth
        assert g.girth == first == girth_oracle(g)


def test_girth_cache_leaves_equality_and_hash_alone():
    g = zf.generate("petersen")
    twin = Graph(g.n, g.adj)
    assert g.girth == 5
    assert "girth" in vars(g) and "girth" not in vars(twin)
    assert g == twin and hash(g) == hash(twin)
    assert len({g, twin}) == 1


def test_forest_iff_girth_infinite(random_corpus):
    for g in random_corpus[:150]:
        is_forest = g.edge_count() == g.n - len(g.components)
        assert (g.girth is None) == is_forest


def test_shortest_cycle_is_shortest_and_real(random_corpus):
    for g in random_corpus[:100]:
        target = g.girth
        cyc = g.shortest_cycle
        if target is None:
            assert cyc is None
            continue
        assert len(cyc) == target
        assert len(set(cyc)) == target
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert g.adj[a] >> b & 1


def shortest_cycle_reference(g: Graph):
    """The two-pass search: the girth first, then a second BFS from each
    root in turn until a walk of that length meets only at the root."""
    target = g.girth
    if target is None:
        return None
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for v in queue:
                if 2 * dist[v] >= target:
                    continue
                for u in g.neighbors[v]:
                    if dist[u] == -1:
                        dist[u] = dist[v] + 1
                        parent[u] = v
                        nxt.append(u)
                    elif parent[v] != u and parent[u] != v and dist[v] + dist[u] + 1 == target:
                        left, right = [v], [u]
                        while parent[left[-1]] != -1:
                            left.append(parent[left[-1]])
                        while parent[right[-1]] != -1:
                            right.append(parent[right[-1]])
                        if len(set(left) & set(right)) == 1:  # meet only at the root
                            return tuple(left[::-1] + right[:-1])
            queue = nxt
    raise AssertionError("shortest cycle not reconstructed")


def construct_pool() -> list[Graph]:
    """The 126 cubic girth-5 graphs (n = 36..100) of the benchmark's construct pool."""
    pool = json.loads((ROOT / "perfbench" / "data" / "construct.json").read_text())
    return [zf.parse_graph6(entry["graph6"]) for entry in pool["graphs"]]


def test_shortest_cycle_matches_the_two_pass_search(random_corpus, cubic_tf_corpus,
                                                    cubic_g5_corpus, named_graphs):
    sparse = [zf.random_gnp(n, 3 / n, n) for n in range(30, 201, 10)]
    for g in (random_corpus + cubic_tf_corpus + cubic_g5_corpus + list(named_graphs.values())
              + construct_pool() + sparse):
        assert g.shortest_cycle == shortest_cycle_reference(g)
