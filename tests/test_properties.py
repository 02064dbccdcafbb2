"""Property tests: the exact solver and its budget intervals against the
brute force oracle and the bound catalog, the random-order set against its definition, the
graph6 round trip and the decoder against the per-byte reference, the
girth against the least edge detour, the closure laws and the solver's
restart from a stalled set, and the shortcuts of the construct path
against the direct computations they skip."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import zforce as zf  # noqa: E402
from test_codec import reference_parse_graph6  # noqa: E402
from test_exact import assert_sound  # noqa: E402
from test_graph import girth_oracle  # noqa: E402
from test_heuristics import meets_seed_rule, pattern_candidates  # noqa: E402
from zforce.bounds import bounds_report  # noqa: E402
from zforce.forcing import closure_core  # noqa: E402
from zforce.heuristics import (  # noqa: E402
    _augmentation,
    _futile_seeds,
    find_extension_subgraph,
)
from zforce.ratmath import log_budget  # noqa: E402


@st.composite
def small_graphs(draw, max_n: int = 9) -> zf.Graph:
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return zf.Graph.from_edges(n, [e for e, keep in zip(pairs, present) if keep])


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_solver_matches_oracle_with_a_forcing_witness(g):
    res = zf.zero_forcing_number(g)
    assert res.value == zf.brute_force_oracle(g).value
    assert res.witness.bit_count() == res.value
    assert zf.is_zero_forcing_set(g, res.witness)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_budget_intervals_contain_the_oracle_value(data):
    g = data.draw(small_graphs(max_n=10))
    full = zf.zero_forcing_number(g).nodes_explored
    budget = data.draw(st.integers(min_value=0, max_value=full + 3))
    z = zf.brute_force_oracle(g).value
    res = zf.zero_forcing_number(g, budget)
    assert_sound(g, res, z)
    assert res.complete or budget < full
    assert res.nodes_explored == min(budget, full)
    # Sound ends never put a correct proven entry on the wrong side.
    assert bounds_report(g, res).violations == ()


@st.composite
def graphs_with_orders(draw) -> tuple[zf.Graph, list[int]]:
    g = draw(small_graphs(max_n=10))
    return g, draw(st.permutations(range(g.n)))


@st.composite
def sparse_graphs(draw) -> zf.Graph:
    n = draw(st.integers(min_value=1, max_value=70))
    ends = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.sets(st.tuples(ends, ends), max_size=3 * n))
    return zf.Graph.from_edges(n, [(u, v) for u, v in pairs if u != v])


def last_placed_neighbor_set(g: zf.Graph, order: list[int]) -> int:
    """Skip w iff w is the last-placed neighbor of a vertex placed before it."""
    pos = {v: i for i, v in enumerate(order)}
    skipped = 0
    for v in range(g.n):
        nbrs = zf.bit_list(g.adj[v])
        if nbrs:
            last = max(nbrs, key=pos.__getitem__)
            if pos[v] < pos[last]:
                skipped |= 1 << last
    return g.full_mask ^ skipped


@settings(max_examples=300, deadline=None)
@given(graphs_with_orders())
def test_permutation_to_set_is_the_last_placed_neighbor_rule_and_forces(case):
    g, order = case
    z = zf.permutation_to_set(g, order)
    assert z == last_placed_neighbor_set(g, order)
    assert zf.is_zero_forcing_set(g, z)


@settings(max_examples=300, deadline=None)
@given(sparse_graphs())
def test_graph6_round_trip(g):
    assert zf.parse_graph6(zf.to_graph6(g)) == g


def decoded(parse, text: str):
    """The graph, or the error message and offset, that ``parse`` gives."""
    try:
        return parse(text)
    except zf.Graph6Error as exc:
        return str(exc), exc.offset


@st.composite
def graph6_like_text(draw) -> str:
    """A graph6 code with a few bytes replaced, inserted or deleted, behind
    an optional header and whitespace."""
    n = draw(st.integers(min_value=1, max_value=70))
    p = draw(st.sampled_from([0.0, 0.1, 0.5]))
    chars = list(zf.to_graph6(zf.random_gnp(n, p, draw(st.integers(0, 999)))))
    alphabet = [chr(b) for b in range(63, 127)] + [" ", "\t", "!", "\x7f", "\xe9", ">"]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(chars)))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "last"]))
        if edit == "insert":
            chars.insert(i, draw(st.sampled_from(alphabet)))
        elif chars:
            i = len(chars) - 1 if edit == "last" else min(i, len(chars) - 1)  # last: the padding byte
            if edit == "delete":
                del chars[i]
            else:
                chars[i] = draw(st.sampled_from(alphabet))
    head = draw(st.sampled_from(["", " ", ">>graph6<<", "\t>>graph6<<", ">>graph6<< "]))
    return head + "".join(chars) + draw(st.sampled_from(["", "\n", "  "]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(graph6_like_text(), st.text(alphabet="?@AB_~ !>", max_size=12)))
def test_decoder_matches_the_per_byte_reference(text):
    assert decoded(zf.parse_graph6, text) == decoded(reference_parse_graph6, text)


@st.composite
def forests_with_chords(draw) -> zf.Graph:
    """Up to 40 vertices: each joins an earlier one or starts a new tree,
    then a few chords; shrinks towards forests and disconnected graphs."""
    n = draw(st.integers(min_value=1, max_value=40))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=-1, max_value=v - 1))
        if parent >= 0:
            edges.add((parent, v))
    ends = st.integers(min_value=0, max_value=n - 1)
    chords = draw(st.lists(st.tuples(ends, ends), max_size=n))
    edges |= {(min(u, v), max(u, v)) for u, v in chords if u != v}
    return zf.Graph.from_edges(n, sorted(edges))


@settings(max_examples=300, deadline=None)
@given(st.one_of(forests_with_chords(), small_graphs(max_n=12)))
def test_girth_is_the_least_edge_detour(g):
    assert g.girth == girth_oracle(g)


@st.composite
def graphs_with_subsets(draw) -> tuple[zf.Graph, int, int]:
    g = draw(small_graphs(max_n=10))
    sub = st.integers(min_value=0, max_value=g.full_mask)
    small, extra = draw(sub), draw(sub)
    return g, small, small | extra


@settings(max_examples=300, deadline=None)
@given(graphs_with_subsets())
def test_closure_is_monotone_idempotent_and_traced(case):
    g, small, large = case
    closed = zf.closure_mask(g, small)
    assert small & ~closed == 0
    assert zf.closure_mask(g, closed) == closed
    assert closed & ~zf.closure_mask(g, large) == 0
    trace = zf.closure(g, small)
    assert trace.closure == closed
    assert zf.trace_violation(g, trace) is None


@settings(max_examples=300, deadline=None)
@given(small_graphs(max_n=10), st.data())
def test_closure_restarts_from_the_stalled_set(g, data):
    # The exact solver recloses s | U from stalled | U, not from s | U:
    # the stalled set holds every vertex of s that still has an unfilled
    # neighbour, so both starts reach the same closure and stalled set.
    x = data.draw(st.integers(min_value=0, max_value=g.full_mask))
    s, stalled = closure_core(g.adj, x, x)
    for v in range(g.n):
        u = (g.adj[v] | 1 << v) & ~s
        if u:
            assert closure_core(g.adj, s | u, stalled | u) == closure_core(g.adj, s | u, s | u)


@st.composite
def graphs_with_a_triangle(draw) -> zf.Graph:
    g = draw(small_graphs(max_n=10).filter(lambda g: g.n >= 3))
    return zf.Graph.from_edges(g.n, g.edges() + [(0, 1), (1, 2), (0, 2)])


@st.composite
def graphs_with_a_four_cycle(draw) -> zf.Graph:
    """Bipartite (even against odd labels) with the 4-cycle 0-1-2-3 planted."""
    n = draw(st.integers(min_value=4, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u + v) % 2]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, present) if keep]
    return zf.Graph.from_edges(n, edges + [(0, 1), (1, 2), (2, 3), (0, 3)])


def _far_apart(adj: list[set[int]], a: int, b: int) -> bool:
    """True when b is not within distance 3 of a."""
    frontier, seen = {a}, {a}
    for _ in range(3):
        frontier = {w for v in frontier for w in adj[v]} - seen
        if b in frontier:
            return False
        seen |= frontier
    return True


@st.composite
def graphs_of_girth_five(draw) -> zf.Graph:
    """Random edges, each kept only if it closes no cycle shorter than 5."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = draw(st.permutations([(u, v) for u in range(n) for v in range(u + 1, n)]))
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs[: draw(st.integers(min_value=0, max_value=len(pairs)))]:
        if _far_apart(adj, u, v):
            adj[u].add(v)
            adj[v].add(u)
    return zf.Graph.from_edges(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


GRAPH_CLASSES = {
    "triangle": (graphs_with_a_triangle(), lambda gir: gir == 3),
    "four_cycle": (graphs_with_a_four_cycle(), lambda gir: gir == 4),
    "girth_five": (graphs_of_girth_five(), lambda gir: gir is None or gir >= 5),
}


def direct_vertex_probability(g: zf.Graph, u: int) -> Fraction:
    """Inclusion-exclusion over the subsets I of N(u), on Python sets."""
    nbrs = zf.bit_list(g.adj[u])
    total = Fraction(0)
    for k in range(len(nbrs) + 1):
        for chosen in combinations(nbrs, k):
            covered = {u}
            for w in chosen:
                covered |= {w, *zf.bit_list(g.adj[w])}
            total += Fraction((-1) ** k, len(covered))
    return total


@pytest.mark.parametrize("kind", sorted(GRAPH_CLASSES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_memoised_vertex_probability_matches_direct_inclusion_exclusion(kind, data):
    strategy, girth_ok = GRAPH_CLASSES[kind]
    g = data.draw(strategy)
    assert girth_ok(g.girth)
    for u in range(g.n):
        assert zf.vertex_probability(g, u) == direct_vertex_probability(g, u)
    assert zf.expected_size(g) == sum(direct_vertex_probability(g, u) for u in range(g.n))


@pytest.mark.parametrize("kind", sorted(GRAPH_CLASSES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_seeds_skipped_as_futile_fail_the_certificate(kind, data):
    g = data.draw(GRAPH_CLASSES[kind][0].filter(lambda g: g.max_degree() >= 3))
    d = g.max_degree()
    for v in range(g.n):
        if not _futile_seeds(g, d, v):
            continue
        for u in zf.bit_list(g.adj[v]):
            z0 = g.closed_neighborhood(v) & ~(1 << u)
            assert zf.closure_mask(g, z0) == g.closed_neighborhood(v)
            assert not meets_seed_rule(g, z0)


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=10))
def test_neighbors_are_the_adjacency_rows_and_stay_out_of_eq_and_hash(g):
    assert [list(row) for row in g.neighbors] == [zf.bit_list(m) for m in g.adj]
    twin = zf.Graph(g.n, g.adj)
    assert "neighbors" in vars(g) and "neighbors" not in vars(twin)
    assert g == twin and hash(g) == hash(twin)
    assert twin.neighbors == g.neighbors


@st.composite
def subcubic_girth5_with_closed_sets(draw) -> tuple[zf.Graph, int]:
    """A connected graph of maximum degree <= 3 and girth >= 5, and the
    closure of a closed neighborhood grown by a few adjacent vertices.

    The graph starts as the generalized Petersen graph GP(m, 2), is
    randomized by double edge swaps that keep it cubic with girth >= 5,
    and loses a few edges where that keeps it connected, which leaves
    vertices of degree 1 and 2."""
    m = draw(st.integers(min_value=12, max_value=30))
    n = 2 * m
    adj: list[set[int]] = [set() for _ in range(n)]

    def link(u, v, present=True):
        (adj[u].add if present else adj[u].discard)(v)
        (adj[v].add if present else adj[v].discard)(u)

    for i in range(m):
        link(i, (i + 1) % m)
        link(i, m + i)
        link(m + i, m + (i + 2) % m)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    for _ in range(4 * n):
        a, c = rng.sample(range(n), 2)
        b, d = rng.choice(sorted(adj[a])), rng.choice(sorted(adj[c]))
        if len({a, b, c, d}) < 4 or d in adj[a] or b in adj[c]:
            continue
        link(a, b, False)
        link(c, d, False)
        if _far_apart(adj, a, d):
            link(a, d)
            if _far_apart(adj, c, b):
                link(c, b)
                continue
            link(a, d, False)
        link(a, b)
        link(c, d)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    assume(zf.is_connected(zf.Graph.from_edges(n, edges)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        keep = edges[:]
        keep.remove(rng.choice(edges))
        if zf.is_connected(zf.Graph.from_edges(n, keep)):
            edges = keep
    g = zf.Graph.from_edges(n, edges)
    grown = g.closed_neighborhood(rng.randrange(n))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        fringe = [w for w in range(n) if g.adj[w] & grown and not grown >> w & 1]
        grown |= 1 << rng.choice(fringe)
    return g, zf.closure_mask(g, grown)


@settings(max_examples=100, deadline=None)
@given(subcubic_girth5_with_closed_sets())
def test_level_search_finds_the_least_extension_subgraph(case):
    # the drawn closed set, then the sets the subcubic construction
    # visits from it
    g, f = case
    assume(f.bit_count() >= 3)
    for _ in range(10):
        if not any(g.degrees[v] >= 2 for v in zf.bits(g.full_mask ^ f)):
            break
        least = min(pattern_candidates(g, f, log_budget(g.n) + 1), default=None)
        if least is None:
            with pytest.raises(AssertionError, match="order cap"):
                find_extension_subgraph(g, f)
            break
        h = find_extension_subgraph(g, f)
        assert (h.kind, h.path, h.cycle) == least[2:]
        try:
            f = zf.closure_mask(g, f | _augmentation(g, f, h))
        except AssertionError:  # a pattern without the private neighbors it needs
            break
