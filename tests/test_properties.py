"""Property tests: the exact solver against the brute force oracle, the
random-order set against its definition, and the graph6 round trip."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import zforce as zf  # noqa: E402


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
