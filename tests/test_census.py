"""Exhaustive census of the connected graphs with n <= 7.

Every connected graph on n vertices has a vertex whose removal leaves
it connected (a leaf of a spanning tree), so extending each connected
graph on n-1 vertices by one vertex with every non-empty neighborhood
reaches every connected graph on n vertices.  Duplicates are removed by
a canonical form: colour refinement, then the least adjacency code over
every order that keeps the refined colour classes in place.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

import zforce as zf

# OEIS A001349: connected graphs on n = 1..7 unlabeled vertices.
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]


def refined_cells(g: zf.Graph) -> list[list[int]]:
    """Colour classes of 1-WL refinement, in an isomorphism-invariant order."""
    colour = [0] * g.n
    count = 1
    while True:
        signature = [(colour[v], tuple(sorted(colour[u] for u in g.neighbors[v])))
                     for v in range(g.n)]
        names = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        colour = [names[sig] for sig in signature]
        if len(names) == count:
            break
        count = len(names)
    cells: list[list[int]] = [[] for _ in range(count)]
    for v in range(g.n):
        cells[colour[v]].append(v)
    return cells


def canonical_code(g: zf.Graph) -> tuple[int, ...]:
    """Least relabelled adjacency over the orders that keep the cells."""
    best = None
    for parts in product(*(permutations(cell) for cell in refined_cells(g))):
        order = [v for part in parts for v in part]
        position = {v: i for i, v in enumerate(order)}
        code = tuple(sum(1 << position[u] for u in g.neighbors[v]) for v in order)
        if best is None or code < best:
            best = code
    return best


def connected_graphs(max_n: int) -> list[list[zf.Graph]]:
    """All connected graphs with 1..max_n vertices, one per isomorphism class."""
    levels = [[zf.Graph(1, (0,))]]
    for n in range(2, max_n + 1):
        found: dict[tuple[int, ...], zf.Graph] = {}
        for g in levels[-1]:
            for nbrs in range(1, 1 << (n - 1)):
                rows = [row | (nbrs >> v & 1) << (n - 1) for v, row in enumerate(g.adj)]
                h = zf.Graph(n, tuple(rows + [nbrs]))
                found.setdefault(canonical_code(h), h)
        levels.append(list(found.values()))
    return levels


@pytest.fixture(scope="module")
def levels() -> list[list[zf.Graph]]:
    return connected_graphs(len(CONNECTED_COUNTS))


@pytest.fixture(scope="module")
def census(levels) -> list[zf.Graph]:
    return [g for level in levels for g in level]


def test_census_counts_match_oeis(levels, census):
    assert [len(level) for level in levels] == CONNECTED_COUNTS
    assert all(zf.is_connected(g) for g in census)


def test_census_has_no_proven_violation_and_theorem_1_iff(census):
    tags = Counter()
    for g in census:
        report = zf.bounds_report(g, zf.zero_forcing_number(g))
        assert report.exact.complete
        assert report.violations == ()
        d, n = g.max_degree(), g.n
        if d >= 3:
            above = Fraction(report.exact.value) > Fraction((d - 2) * n, d - 1)
            tag = zf.exceptional_tag(g)
            assert above == (tag is not None), zf.to_graph6(g)
            if tag is not None:
                tags[tag] += 1
    # K4..K7, K_{3,3}, K_{2,3} and K_{3,4}, g1, g2 and the subdivided K_{3,3}
    E = zf.ExceptionalGraph
    assert tags == {E.COMPLETE: 4, E.BALANCED_BIPARTITE: 1, E.OFFSET_BIPARTITE: 2,
                    E.SPORADIC_5: 1, E.SPORADIC_7: 1, E.SUBDIVIDED_K33: 1}


def test_census_greedy_meets_its_claim(census):
    for g in census:
        if g.max_degree() < 3:
            continue
        res = zf.greedy_ratio_zfs(g)  # find_seed raises if it leaves its phases
        assert zf.is_zero_forcing_set(g, res.zfs)
        assert res.size <= res.bound_claim
        if res.method != "exceptional":
            d = g.max_degree()
            assert res.bound_claim == Fraction((d - 2) * g.n, d - 1)
