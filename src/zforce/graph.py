"""Immutable graph type with bitmask vertex sets.

Vertices are dense integer indices 0..n-1.  Throughout the package a
"vertex set" is a plain Python int used as a bitmask: bit v is set iff
vertex v is a member.  Ints give O(1) union/intersection/complement and
hardware popcounts, which the forcing engine and the exact solver lean
on heavily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

VertexSet = int  # bitmask alias used in signatures for readability


def mask_of(vertices: Iterable[int]) -> VertexSet:
    """Build a bitmask from an iterable of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: VertexSet) -> Iterator[int]:
    """Yield the vertex indices of a bitmask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: VertexSet) -> list[int]:
    """Sorted list of the vertices in a bitmask."""
    return list(bits(mask))


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph.

    ``adj[v]`` is the open neighborhood of v as a bitmask.  Instances are
    immutable value types: hashable, safe to share between workers, and
    every derived quantity is a pure function of the fields.  Costly
    invariants (``components``, ``neighbors``, ``girth``,
    ``shortest_cycle``) are cached in the instance ``__dict__`` on first
    use, and nothing else is kept there; the cache takes no part in
    equality or hashing.
    """

    n: int
    adj: tuple[int, ...]
    degrees: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for n={self.n}")
        adj = self.adj
        for v, row in enumerate(adj):
            if row >> self.n:  # a bit at n or above, or a negative row
                raise ValueError(f"vertex {v} has a neighbor out of range")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(adj):
            bit = 1 << v
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not adj[u] & bit:
                    raise ValueError(f"asymmetric edge {v}-{u}")
                row ^= low
        object.__setattr__(self, "degrees", tuple(row.bit_count() for row in adj))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n  # a loop sets its own bit, which __post_init__ rejects
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    # -- basic views ---------------------------------------------------

    @property
    def full_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                out.append((u, u + 1 + v))
        return out

    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def closed_neighborhood(self, v: int) -> VertexSet:
        return self.adj[v] | (1 << v)

    # -- degree statistics ---------------------------------------------

    def max_degree(self) -> int:
        return max(self.degrees)

    def min_degree(self) -> int:
        return min(self.degrees)

    def is_regular(self) -> int | None:
        """The common degree r if the graph is regular, else None."""
        r = self.degrees[0]
        return r if all(d == r for d in self.degrees) else None

    # -- derived graphs -------------------------------------------------

    def complement(self) -> "Graph":
        full = self.full_mask
        return Graph(self.n, tuple((full ^ row) & ~(1 << v) for v, row in enumerate(self.adj)))

    def induced(self, mask: VertexSet) -> "Graph":
        """Induced subgraph on ``mask``; its vertex i is ``bit_list(mask)[i]``."""
        keep = bit_list(mask)
        if not keep:
            raise ValueError("induced subgraph needs at least one vertex")
        index = {v: i for i, v in enumerate(keep)}
        rows = [mask_of(index[u] for u in bits(self.adj[v] & mask)) for v in keep]
        return Graph(len(keep), tuple(rows))

    # -- cached invariants ---------------------------------------------

    @cached_property
    def components(self) -> tuple[VertexSet, ...]:
        """Connected components as bitmasks, ordered by smallest vertex (cached)."""
        comps = []
        remaining = self.full_mask
        while remaining:
            comp = reachable(self, (remaining & -remaining).bit_length() - 1)
            comps.append(comp)
            remaining ^= comp
        return tuple(comps)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """``neighbors[v]`` holds the neighbors of v in ascending order (cached).

        Loops over a fixed adjacency row iterate this tuple instead of
        peeling the bits of ``adj[v]`` on every visit.  Rows are built
        from lists: ``tuple()`` of a generator over-allocates and shrinks,
        and the shrunk tuples pile up on CPython's per-length free lists
        (0.4 MB more peak heap over a 550-graph ``verify`` batch on
        CPython 3.11).
        """
        return tuple([tuple(bit_list(row)) for row in self.adj])

    @cached_property
    def girth(self) -> int | None:
        """Length of a shortest cycle, or None for forests (cached).

        A breadth-first search from each root in turn, with its layers
        kept as bitmasks and confined to the vertices not yet used as
        roots: a shortest cycle lies there when rooted at its least
        vertex.  At depth d an edge inside the frontier closes a cycle of
        at most 2d + 1, and a vertex reached from two frontier vertices
        one of at most 2d + 2 (each is a closed walk through the root
        whose tree paths part at some vertex).  Rooted on a shortest
        cycle, the search meets that cycle's length at its antipode, so
        the least bound over all roots is the girth.  A root stops once
        its next bound, 2d + 1, cannot beat the best so far.
        """
        adj = self.adj
        best = self.n + 1  # longer than any cycle
        allowed = self.full_mask
        for root in range(self.n):
            seen = 1 << root
            allowed ^= seen
            if (adj[root] & allowed).bit_count() < 2:
                continue  # no cycle through root in what is left
            frontier = seen
            depth = 0
            while frontier and 2 * depth + 1 < best:
                once = twice = inner = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    row = adj[low.bit_length() - 1]
                    inner |= row & frontier
                    reach = row & allowed & ~seen
                    twice |= once & reach
                    once |= reach
                if inner or twice:  # at most best, as 2 * depth + 1 < best
                    best = 2 * depth + (1 if inner else 2)
                    break
                seen |= once
                frontier = once
                depth += 1
        return None if best > self.n else best

    @cached_property
    def shortest_cycle(self) -> tuple[int, ...] | None:
        """A shortest cycle as a vertex tuple, or None for forests (cached).

        Knowing the girth, runs a BFS from each root in turn until a
        non-tree edge closes a walk of that length; that walk is the
        cycle, since its two root paths meet only at the root: a second
        shared vertex would close a shorter cycle.  Among shortest cycles
        the first one met from the smallest root is kept.
        """
        target = self.girth
        if target is None:
            return None
        neighbors = self.neighbors
        for root in range(self.n):
            dist = [-1] * self.n
            parent = [-1] * self.n
            dist[root] = 0
            queue = [root]
            while queue:
                nxt = []
                for v in queue:
                    if 2 * dist[v] >= target:
                        continue
                    for u in neighbors[v]:
                        if dist[u] == -1:
                            dist[u] = dist[v] + 1
                            parent[u] = v
                            nxt.append(u)
                        elif parent[v] != u and parent[u] != v and dist[v] + dist[u] + 1 == target:
                            left, right = _root_path(parent, v), _root_path(parent, u)
                            return tuple(left[::-1] + right[:-1])
                queue = nxt
        raise AssertionError("shortest cycle not reconstructed")


def reachable(g: Graph, start: int, within: VertexSet | None = None) -> VertexSet:
    """Vertices reachable from ``start`` (bitmask), by fixpoint expansion.

    With ``within``, walks only inside that vertex set, as in the induced
    subgraph on it, without building that subgraph.
    """
    allowed = g.full_mask if within is None else within
    seen = 1 << start
    frontier = seen
    adj = g.adj
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & allowed & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    return len(g.components) == 1


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for forests.

    Computed once per graph and cached on it, so repeated calls on the
    same instance cost nothing.
    """
    return g.girth


def shortest_cycle(g: Graph) -> list[int] | None:
    """A shortest cycle as a vertex list, or None for forests.

    Deterministic: among shortest cycles the first one met from the
    smallest root is returned.  Computed on first request, from the
    girth, and cached on the graph.
    """
    cyc = g.shortest_cycle
    return None if cyc is None else list(cyc)


def _root_path(parent: list[int], v: int) -> list[int]:
    path = [v]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path
