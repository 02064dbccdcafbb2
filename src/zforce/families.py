"""Named graph families, random graph models, and small recognizers."""

from __future__ import annotations

import random
from enum import Enum
from itertools import combinations

from .graph import Graph, bit_list, girth, is_connected, mask_of


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph needs both sides nonempty")
    left = (1 << a) - 1
    right = ((1 << b) - 1) << a
    return Graph(a + b, tuple(right if v < a else left for v in range(a + b)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def petersen() -> Graph:
    """Kneser construction: 2-subsets of a 5-set, adjacent iff disjoint."""
    pairs = list(combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = [
        (index[p], index[q])
        for p, q in combinations(pairs, 2)
        if not set(p) & set(q)
    ]
    g = Graph.from_edges(10, edges)
    assert g.is_regular() == 3
    return g


def heawood() -> Graph:
    """14-cycle plus chords i -> i+5 at even i (LCF [5,-5]^7)."""
    edges = [(v, (v + 1) % 14) for v in range(14)]
    edges += [(v, (v + 5) % 14) for v in range(0, 14, 2)]
    g = Graph.from_edges(14, edges)
    assert g.is_regular() == 3
    return g


# The sporadic graphs of order 5 and 7 that, together with the three
# complete/bipartite families below, are the only connected graphs of
# maximum degree >= 3 whose zero forcing number exceeds (D-2)n/(D-1).
# The abstract lists two sporadic graphs; an exhaustive check of every
# connected graph with n <= 8 finds a third, K_{3,3} with one edge
# subdivided (graph6 FsPpo, Z = 4 > 7/2), so it is recognized as well.

_G1_EDGES = [(4, 2), (2, 3), (2, 1), (3, 1), (3, 4), (4, 0), (0, 1)]


def g1() -> Graph:
    """Order-5 exception: K4 minus an edge, its degree-2 pair joined by a path."""
    g = Graph.from_edges(5, _G1_EDGES)
    assert sorted(g.degrees) == [2, 3, 3, 3, 3]
    return g


def g2() -> Graph:
    """Order-7 4-regular exception: complement of a triangle plus a 4-cycle."""
    parts = Graph.from_edges(
        7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
    )
    g = parts.complement()
    assert g.is_regular() == 4 and g.edge_count() == 14
    return g


def subdivided_k33() -> Graph:
    """Order-7 exception: K_{3,3} with the edge 2-5 subdivided by vertex 6."""
    edges = [(a, b) for a in range(3) for b in range(3, 6) if (a, b) != (2, 5)]
    g = Graph.from_edges(7, edges + [(2, 6), (6, 5)])
    assert sorted(g.degrees) == [2, 3, 3, 3, 3, 3, 3]
    return g


_FAMILIES = {
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "cycle": (cycle, 1),
    "path": (path, 1),
    "petersen": (petersen, 0),
    "heawood": (heawood, 0),
    "g1": (g1, 0),
    "g2": (g2, 0),
    "subdivided_k33": (subdivided_k33, 0),
}


def family_names() -> list[str]:
    return sorted(_FAMILIES)


def generate(name: str, *params: int) -> Graph:
    """Build a named family member, e.g. generate("complete", 4)."""
    try:
        builder, arity = _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(family_names())}") from None
    if len(params) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


# -- random models -------------------------------------------------------


def _stream_seed(tag: int, *parts: int) -> int:
    # int-only mixing keeps the stream independent of hash randomization
    out = tag
    for part in parts:
        out = (out << 64) + part
    return out


def _shuffle(items: list, getrandbits) -> None:
    """Shuffle ``items`` in place, drawing exactly as ``Random.shuffle`` does
    from the generator of ``getrandbits``, but without its per-draw calls."""
    for i in range(len(items) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi sample: each pair is an edge with probability p."""
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1 and 0 <= p <= 1")
    rng = random.Random(_stream_seed(0x6E70, n, seed))
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def random_regular(n: int, r: int, seed: int, *, min_girth: int | None = None,
                   max_tries: int = 10000) -> Graph:
    """Uniform-ish r-regular sample via the pairing model.

    Pairings producing loops or parallel edges are rejected wholesale and
    redrawn, as are samples below the requested girth.
    """
    if n < 1 or r < 0 or r >= n:
        raise ValueError("need 0 <= r < n")
    if n * r % 2:
        raise ValueError("n * r must be even")
    rng = random.Random(_stream_seed(0x7067, n, r, seed))
    stubs0 = [v for v in range(n) for _ in range(r)]
    for _ in range(max_tries):
        stubs = stubs0[:]
        _shuffle(stubs, rng.getrandbits)
        rows = [0] * n
        for u, v in zip(stubs[::2], stubs[1::2]):
            if u == v or rows[u] >> v & 1:
                break
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            g = Graph(n, tuple(rows))
            if min_girth is None or (girth(g) or n + 1) >= min_girth:
                return g
    raise ValueError(f"no simple {r}-regular sample for n={n} within {max_tries} tries")


# -- recognizers ----------------------------------------------------------


class ExceptionalGraph(Enum):
    """The connected graphs with Z(G) > (D-2)n/(D-1), D >= 3.

    The abstract names five; ``SUBDIVIDED_K33`` is a sixth, found by an
    exhaustive check of all connected graphs with n <= 8.
    """

    COMPLETE = "complete"                      # K_{D+1}
    BALANCED_BIPARTITE = "balanced_bipartite"  # K_{D,D}
    OFFSET_BIPARTITE = "offset_bipartite"      # K_{D-1,D}
    SPORADIC_5 = "g1"
    SPORADIC_7 = "g2"
    SUBDIVIDED_K33 = "subdivided_k33"


def complete_bipartite_parts(g: Graph) -> tuple[int, int] | None:
    """(a, b) with a <= b if g is a complete bipartite graph, else None."""
    side_a = mask_of(v for v in range(g.n) if g.adj[v] == g.adj[0])
    side_b = g.full_mask ^ side_a
    if not side_b:
        return None
    if g.adj[0] != side_b:
        return None
    if any(g.adj[v] != side_a for v in bit_list(side_b)):
        return None
    a, b = side_a.bit_count(), side_b.bit_count()
    return (a, b) if a <= b else (b, a)


def exceptional_tag(g: Graph) -> ExceptionalGraph | None:
    """Classify g against the exceptional graphs (None otherwise).

    Only meaningful for connected graphs with maximum degree >= 3.
    """
    d = g.max_degree()
    if d < 3 or not is_connected(g):
        return None
    if g.n == d + 1 and g.edge_count() == g.n * (g.n - 1) // 2:
        return ExceptionalGraph.COMPLETE
    parts = complete_bipartite_parts(g)
    if parts == (d, d):
        return ExceptionalGraph.BALANCED_BIPARTITE
    if parts == (d - 1, d):
        return ExceptionalGraph.OFFSET_BIPARTITE
    # Degrees [2,3,3,3,3] leave complement degrees [2,1,1,1,1] on 3 edges: P3 + K2.
    if g.n == 5 and sorted(g.degrees) == [2, 3, 3, 3, 3]:
        return ExceptionalGraph.SPORADIC_5
    # A 2-regular complement on 7 vertices is C7 or, if disconnected, C3 + C4.
    if g.n == 7 and g.is_regular() == 4 and not is_connected(g.complement()):
        return ExceptionalGraph.SPORADIC_7
    # Smoothing the degree-2 vertex must leave K_{3,3}; adjacent neighbors leave 8 edges.
    if (g.n == 7 and sorted(g.degrees) == [2, 3, 3, 3, 3, 3, 3]
            and complete_bipartite_parts(_smoothed(g, g.degrees.index(2))) == (3, 3)):
        return ExceptionalGraph.SUBDIVIDED_K33
    return None


def _smoothed(g: Graph, w: int) -> Graph:
    """g with the degree-2 vertex w deleted and its two neighbors joined."""
    joined = Graph.from_edges(g.n, g.edges() + [g.neighbors[w]])
    return joined.induced(g.full_mask ^ 1 << w)
