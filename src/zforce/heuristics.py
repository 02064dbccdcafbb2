"""Constructive zero forcing set procedures.

Four routes to a small zero forcing set, each with a checkable size
guarantee:

* ``greedy_extend`` grows a seed set into a full set of size at most
  (D-2)n/(D-1), never breaking the seed ratio along the way.
* ``find_seed`` produces such a seed for every connected graph of
  maximum degree D >= 3 apart from six exceptional graphs, where it
  raises ``ValueError``.  ``greedy_ratio_zfs`` returns a known minimum
  set on those, which it tags itself, and the two steps on the rest.
* ``random_zfs`` draws sets from random vertex orders; the exact
  expected size of such a set, an upper bound for the zero forcing
  number, is the bound catalog's ``expected_size``.
* ``subcubic_girth5_zfs`` beats n/2 by a logarithmic margin on connected
  subcubic graphs of girth at least 5, by repeatedly locating a minimal
  extension subgraph straddling the filled boundary and augmenting along
  it.

Each result holds only the set and the size its method claims; the set
is the replayable witness, and ``closure(g, res.zfs)`` is its forcing
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random

from .exact import zero_forcing_number
from .families import ExceptionalGraph, _shuffle, _stream_seed, exceptional_tag
from .forcing import (
    _check_subset,
    _permutation_to_set,
    closure,
    closure_core,
    is_zero_forcing_set,
)
from .graph import Graph, VertexSet, bit_list, bits, is_connected, mask_of, reachable
from .ratmath import fraction_json, log_budget, running_ratio_ok, subcubic_girth5_value


@dataclass(frozen=True)
class HeuristicResult:
    """A zero forcing set together with the guarantee its method promises."""

    zfs: VertexSet
    method: str
    bound_claim: Fraction

    @property
    def size(self) -> int:
        return self.zfs.bit_count()

    def to_json_dict(self, g: Graph) -> dict:
        """The forcing certificate of ``zfs`` on g, the graph it was built
        for, with the method, size and claim, and g's exceptional tag for
        the "exceptional" method."""
        out = closure(g, self.zfs).to_json_dict()
        out["method"] = self.method
        out["size"] = self.size
        out["bound_claim"] = fraction_json(self.bound_claim)
        if self.method == "exceptional":
            out["exceptional"] = exceptional_tag(g).value
        return out


# -- seeds and the ratio greedy ------------------------------------------


def _ratio_degree(g: Graph) -> int:
    """D, once g meets the hypothesis of the (D-2)n/(D-1) construction:
    connected, with D >= 3."""
    d = g.max_degree()
    if d < 3 or not is_connected(g):
        raise ValueError("the ratio construction needs a connected graph of maximum degree >= 3")
    return d


def _check_subcubic(g: Graph) -> None:
    """Raise ValueError unless g meets the hypothesis of the subcubic
    girth-5 construction: connected, with D = 3 and girth >= 5 (a forest
    counts)."""
    if g.max_degree() != 3 or not is_connected(g) or (g.girth or 5) < 5:
        raise ValueError("the subcubic construction needs a connected graph "
                         "of maximum degree 3 and girth >= 5")


def _seed_closure(g: Graph, d: int, z: VertexSet, add: VertexSet,
                  filled: VertexSet = 0, boundary: VertexSet = 0) -> tuple[VertexSet, VertexSet] | None:
    """The closure of filled | add and its stalled boundary if z, the set
    that closure starts from, meets the seed rule; else None.

    The seed rule, checked here only: z is non-empty, |closure| * (D-2) >=
    |z| * (D-1), and no closure vertex is isolated inside the closure.
    Together they guarantee the greedy extension lands at (D-2)n/(D-1).
    ``filled`` is a closure already known to keep the rule, with
    ``boundary`` its stalled vertices: the closure restarts from them
    plus ``add``, and only the vertices it newly fills are tested for
    isolation, since an old vertex keeps the filled neighbor it had.
    """
    adj = g.adj
    grown, stalled = closure_core(adj, filled | add, boundary | add)
    if not z or grown.bit_count() * (d - 2) < z.bit_count() * (d - 1):
        return None
    if any(not adj[w] & grown for w in bits(grown & ~filled)):
        return None
    return grown, stalled


def _closed_union(g: Graph, vertices) -> VertexSet:
    m = 0
    for v in vertices:
        m |= g.closed_neighborhood(v)
    return m


def _girth5_seed(g: Graph, cyc: tuple[int, ...]) -> VertexSet:
    """Seed construction along a shortest cycle of length >= 5.

    Phase 1 of ``find_seed`` succeeds whenever some degree is at most
    D-2, so here every degree is at least D-1.  The cycle has no chord,
    so a cycle vertex of degree >= 3 has an off-cycle neighbor; a cycle
    vertex of degree 2 forces D = 3; and not every cycle vertex has
    degree 2, else the cycle is the whole connected graph and D = 2.
    """
    glen = len(cyc)
    cmask = mask_of(cyc)
    if all(g.degrees[v] >= 3 for v in cyc):
        # Keep every closed cycle neighborhood, dropping one private
        # off-cycle neighbor per cycle vertex; each gets forced back.
        drop = 0
        for v in cyc:
            off = g.adj[v] & ~cmask
            drop |= off & -off
        return _closed_union(g, cyc) & ~drop
    deg3 = [i for i, v in enumerate(cyc) if g.degrees[v] == 3]
    if len(deg3) <= glen - 2:
        # The first degree-3 vertex and the cycle successor of every
        # degree-3 vertex: the whole cycle then forces around, shedding
        # one off-cycle neighbor per degree-3 vertex.
        z0 = 1 << cyc[deg3[0]]
        for i in deg3:
            z0 |= 1 << cyc[(i + 1) % glen]
        return z0
    # Exactly one degree-2 vertex: the cycle minus its successor.
    j = next(i for i, v in enumerate(cyc) if g.degrees[v] == 2)
    return cmask & ~(1 << cyc[(j + 1) % glen])


def _short_girth_candidates(g: Graph, cyc: tuple[int, ...]):
    """Seed candidates for girth 3 or 4, mirroring every shape the ratio
    argument ever uses: subsets of the cycle, and unions of at most four
    closed neighborhoods (cycle vertices plus at most one vertex within
    distance one) minus a small excluded set."""
    for size in range(1, len(cyc) + 1):
        for sub in combinations(cyc, size):
            yield mask_of(sub)
    cmask = mask_of(cyc)
    fringe = 0
    for v in cyc:
        fringe |= g.adj[v]
    fringe &= ~cmask
    cores: list[tuple[int, ...]] = []
    for size in range(1, min(4, len(cyc)) + 1):
        cores.extend(combinations(cyc, size))
    extended = [core + (w,) for core in cores if len(core) <= 3 for w in bits(fringe)]
    for keep in cores + extended:
        union = _closed_union(g, keep)
        members = bit_list(union)
        for xsize in range(0, min(len(keep) + 1, len(members)) + 1):
            for drop in combinations(members, xsize):
                cand = union & ~mask_of(drop)
                if cand:
                    yield cand


def _futile_seeds(g: Graph, d: int, v: int) -> bool:
    """True when every seed N[v] - u provably fails the ratio test.

    v forces u at once.  Without triangles no neighbor of v is adjacent
    to another, so a neighbor of degree >= 3 keeps two unfilled
    neighbors and the closure stalls at N[v].  Then |closure| * (D-2) =
    (deg v + 1)(D-2) < deg(v)(D-1) = |seed| * (D-1) whenever
    deg v >= D-1.
    """
    degrees = g.degrees
    return (degrees[v] >= d - 1
            and all(degrees[w] >= 3 for w in g.neighbors[v])
            and (g.girth or 4) >= 4)


def _seed_candidates(g: Graph, d: int):
    """The seed candidates, in the order ``find_seed`` tries them."""
    degrees, neighbors = g.degrees, g.neighbors
    for v in sorted(range(g.n), key=lambda v: (degrees[v], v)):
        if not _futile_seeds(g, d, v):
            closed = g.closed_neighborhood(v)
            for u in neighbors[v]:
                yield closed & ~(1 << u)
    cyc = g.shortest_cycle
    if cyc is None:  # min degree >= 2 here, so a cycle must exist
        raise AssertionError("connected graph with all degrees >= 2 has a cycle")
    if len(cyc) >= 5:
        yield _girth5_seed(g, cyc)
    else:
        yield from _short_girth_candidates(g, cyc)


def find_seed(g: Graph) -> VertexSet:
    """A seed set meeting the seed rule.

    Returns the first candidate that meets the rule, trying in order:
    each closed neighborhood minus one neighbor, lowest degree first and
    provably futile ones skipped (always enough when some degree is at
    most D-2); then the shortest-cycle construction for girth at least
    5, or a structured family around the shortest cycle for girth 3 and
    4.  The six exceptional graphs have no seed and raise ``ValueError``.
    Every other connected graph with D >= 3 admits a seed, and a census
    of every connected graph with n <= 8 finds one among these
    candidates (the test suite repeats it for n <= 7).  A graph that
    gets past them raises ``AssertionError``.
    """
    d = _ratio_degree(g)
    tag = exceptional_tag(g)
    if tag is not None:
        raise ValueError(f"the exceptional graph {tag.value} has no seed")
    for z0 in _seed_candidates(g, d):
        if _seed_closure(g, d, z0, z0) is not None:
            return z0
    raise AssertionError("no structured seed; graph should be exceptional")


def greedy_extend(g: Graph, z0: VertexSet) -> HeuristicResult:
    """Grow a seed z0 to a zero forcing set of size <= (D-2)n/(D-1).

    z0 must meet the seed rule of ``_seed_closure``; else ``ValueError``.
    Each round picks the smallest closure vertex with neighbors both
    inside and outside, adds all but the smallest outside neighbor, and
    recloses; the seed rule is rechecked every round.  No closure vertex
    is isolated, so the vertices with neighbors both inside and outside
    are the boundary the closure reports as stalled; each round restarts
    the closure from that boundary plus the added vertices.
    """
    d = _ratio_degree(g)
    _check_subset(g, z0)
    start = _seed_closure(g, d, z0, z0)
    if start is None:
        raise ValueError("greedy extension needs a seed meeting the seed rule")
    filled, boundary = start
    z, adj, full = z0, g.adj, g.full_mask
    while filled != full:
        v = (boundary & -boundary).bit_length() - 1
        out = adj[v] & ~filled
        if not out & (out - 1):
            raise AssertionError("closure left a vertex with one unfilled neighbor")
        add = out ^ (out & -out)  # keep the smallest outside neighbor out
        z |= add
        grown = _seed_closure(g, d, z, add, filled, boundary)
        if grown is None:
            raise AssertionError("greedy extension broke the seed rule: "
                                 "the ratio, or an isolated closure vertex")
        filled, boundary = grown
    return HeuristicResult(
        zfs=z,
        method="greedy",
        bound_claim=Fraction((d - 2) * g.n, d - 1),
    )


def _exceptional_witness(g: Graph, tag: ExceptionalGraph) -> VertexSet:
    if tag is ExceptionalGraph.COMPLETE:
        return (1 << g.max_degree()) - 1
    if tag in (ExceptionalGraph.BALANCED_BIPARTITE, ExceptionalGraph.OFFSET_BIPARTITE):
        # Leave out vertex 0 and its least neighbour, one from each side.
        return g.full_mask ^ 1 ^ (g.adj[0] & -g.adj[0])
    return zero_forcing_number(g).witness  # the sporadic graphs are tiny


def greedy_ratio_zfs(g: Graph) -> HeuristicResult:
    """``find_seed`` then ``greedy_extend``; the (D-2)n/(D-1) bound.

    On the six exceptional graphs, tagged here, the bound is unattainable
    and ``find_seed`` raises, so the known minimum witness for that
    family is returned instead, with method "exceptional"; its JSON names
    the tag.
    """
    tag = exceptional_tag(g)
    if tag is None:
        return greedy_extend(g, find_seed(g))
    witness = _exceptional_witness(g, tag)
    if not is_zero_forcing_set(g, witness):
        raise AssertionError(f"bad exceptional witness for {tag}")
    return HeuristicResult(
        zfs=witness,
        method="exceptional",
        bound_claim=Fraction(witness.bit_count()),
    )


# -- the randomized construction ------------------------------------------


def random_zfs(g: Graph, trials: int, seed: int = 0) -> HeuristicResult:
    """Best zero forcing set among ``trials`` random vertex orders.

    Each trial shuffles the vertices with its own deterministic
    substream of ``seed`` and keeps the set induced by the order; the
    smallest result wins, ties broken by lexicographic vertex list, so
    the outcome is reproducible regardless of evaluation order.  The
    claim is the mean trial size, which the kept set never exceeds; the
    exact expectation it estimates is ``bounds.expected_size``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    best, best_size = g.full_mask, g.n  # every trial set is at most this
    total = 0
    base = list(range(g.n))
    for t in range(trials):
        order = base[:]
        _shuffle(order, Random(_stream_seed(0x5AF0, seed, t)).getrandbits)
        z = _permutation_to_set(g, order)  # a shuffled range: no check needed
        size = z.bit_count()
        total += size
        # Of two sets of one size, the smaller sorted vertex list holds the
        # least vertex of their symmetric difference.
        d = z ^ best
        if size < best_size or size == best_size and z & d & -d:
            best, best_size = z, size
    return HeuristicResult(
        zfs=best,
        method="random",
        bound_claim=Fraction(total, trials),
    )


# -- extension subgraphs and the subcubic girth-5 algorithm ----------------


@dataclass(frozen=True)
class ExtensionSubgraph:
    """A minimal path/cycle pattern straddling the filled boundary.

    kind "a": path into the unfilled region ending at a degree-2 vertex;
    "b": likewise ending at a degree-1 vertex (length at least 2);
    "c": path between two filled vertices, interior unfilled;
    "d": cycle through one filled vertex, rest unfilled;
    "e": path from a filled vertex to a fully unfilled cycle.
    """

    kind: str
    path: tuple[int, ...]
    cycle: tuple[int, ...]

    @property
    def vertex_set(self) -> VertexSet:
        return mask_of(self.path) | mask_of(self.cycle)


def _least_pattern(g: Graph, f: VertexSet, boundary: VertexSet) -> ExtensionSubgraph:
    """``find_extension_subgraph`` past its checks, given the filled
    vertices of f with two or more unfilled neighbors (``boundary``).

    The least extension subgraph up to the order cap, under the key
    (order, unfilled count, kind, path, cycle).  Walks the simple paths
    that leave a vertex of ``boundary`` into the unfilled region one
    level at a time, level L holding the paths of L vertices.  A pattern
    of order k closes on a path of k vertices (kinds a, b, d, e) or of
    k - 1 vertices (kind c), so scanning level k - 1 yields the kinds a,
    b and c of order k, and scanning level k the kinds d and e.  At one
    order a kind c pattern has one unfilled vertex fewer than the others,
    and a, b sort before d, e, so the rank c < a < b < d < e orders the
    candidates of one order as the full key does, and a candidate of kind
    a, b or c ends the search before level k is scanned.  Only the level
    being scanned and the next are held, and the next is built only while
    no candidate of its order is pending.
    """
    degrees, neighbors = g.degrees, g.neighbors
    cap_order = log_budget(g.n) + 1  # 2*log2(n) + 1
    level = [((v,), 1 << v) for v in bits(boundary)]
    pending: list = []  # kinds a, b and c of the next order, as (rank, kind, path, cycle)
    for order in range(1, cap_order + 1):
        if pending:
            return ExtensionSubgraph(*min(pending)[1:])
        closing: list = []  # kinds d and e of this order
        grow = order < cap_order
        next_level = []
        for path, on_path in level:
            f0, x = path[0], path[-1]
            prev = path[-2] if order > 1 else -1
            for y in neighbors[x]:
                if y == prev:
                    continue
                if f >> y & 1:
                    if y == f0:  # order >= 3: at order 2, f0 is prev
                        closing.append((3, "d", (), path))
                    elif order >= 2 and grow:
                        pending.append((0, "c", path + (y,), ()))
                elif on_path >> y & 1:  # y is unfilled, so it is not f0
                    j = path.index(y)
                    closing.append((4, "e", path[: j + 1], path[j:]))
                elif grow:
                    deg = degrees[y]
                    if deg == 2:
                        pending.append((1, "a", path + (y,), ()))
                    elif deg == 1 and order >= 2:
                        pending.append((2, "b", path + (y,), ()))
                    elif not pending:  # else the search ends before the next level
                        next_level.append((path + (y,), on_path | 1 << y))
        if closing:
            return ExtensionSubgraph(*min(closing)[1:])
        level = next_level
    raise AssertionError("no extension subgraph within the order cap")


def find_extension_subgraph(g: Graph, f: VertexSet) -> ExtensionSubgraph:
    """Minimum-order extension subgraph for the filled set f.

    Ties are broken by fewest unfilled vertices, then lexicographically,
    so the result is deterministic.  The search runs level by level over
    the paths leaving the filled boundary, up to order 2*log2(n) + 1, and
    stops at the first order that holds a candidate.  Requires the
    hypothesis of ``subcubic_girth5_zfs`` on g, f a closure inducing a
    connected subgraph of order at least 3, and an unfilled vertex of
    degree at least 2.
    Minimality gives every vertex the augmentation rules name a private
    neighbor.
    """
    _check_subcubic(g)
    _check_subset(g, f)
    closed, boundary = closure_core(g.adj, f, f)  # boundary: stalled vertices of f
    if closed != f:
        raise ValueError("f must be closed under forcing")
    if f.bit_count() < 3 or reachable(g, (f & -f).bit_length() - 1, f) != f:
        raise ValueError("f must induce a connected subgraph of order >= 3")
    r = g.full_mask ^ f
    if not any(g.degrees[v] >= 2 for v in bits(r)):
        raise ValueError("the unfilled region has no vertex of degree >= 2")
    return _least_pattern(g, f, boundary)


def _augmentation(g: Graph, f: VertexSet, h: ExtensionSubgraph) -> VertexSet:
    """Vertices to add for one extension step, by pattern kind.

    Each rule fills the pattern by a forcing chain and spills onto the
    private neighbors of the vertices it names, gaining at least
    2 * cost + 1 vertices.  A vertex's private neighbor is its one
    neighbor outside the pattern and outside f.  The named vertices are
    path[0], which is filled, and interior path or cycle vertices, which
    have degree 3 because the search extends paths only through them.
    """
    adj, path, cyc = g.adj, h.path, h.cycle
    spill = ~h.vertex_set & ~f

    def private(vertices) -> VertexSet:
        out = 0
        for v in vertices:
            p = adj[v] & spill
            if not p or p & (p - 1):
                raise AssertionError(f"pattern {h.kind} lacks the private neighbor of vertex {v}")
            out |= p
        return out

    if h.kind == "a":
        vk, prev = path[-1], path[-2]
        u = (adj[vk] ^ (1 << prev)).bit_length() - 1  # the other neighbor
        if f >> u & 1:
            if len(path) != 2:
                raise AssertionError("filled-capped pattern should have one edge")
            return 1 << vk
        return private(path[:-1])
    if h.kind == "b":
        if len(path) == 3:
            return 1 << path[-1]
        return 1 << path[-1] | private(path[:-3])
    if h.kind == "c":
        return private(path[:-2])
    if h.kind == "d":
        return 1 << cyc[-1] | private(cyc[1:-2])
    if h.kind == "e":
        return private(path[:-1]) | 1 << cyc[-1] | private(cyc[1:-2])
    raise AssertionError(f"unknown pattern kind {h.kind!r}")


def subcubic_girth5_zfs(g: Graph) -> HeuristicResult:
    """Zero forcing set of size <= n/2 - n/(24*log2(n)+6) + 2.

    Requires a connected graph with maximum degree exactly 3 and girth at
    least 5.  Starts from one closed neighborhood minus a vertex, then
    repeatedly augments along a minimal extension subgraph while the
    unfilled region still contains a vertex of degree at least 2; every
    augmentation is checked against its cost and gain contract.  Finally
    one of the two unfilled neighbors of each boundary vertex is added,
    which forces the remaining pendants.
    """
    _check_subcubic(g)
    n = g.n
    v = next(v for v in range(n) if g.degrees[v] == 3)
    u = (g.adj[v] & -g.adj[v]).bit_length() - 1
    z = g.closed_neighborhood(v) ^ (1 << u)
    adj = g.adj
    filled, boundary = closure_core(adj, z, z)
    if reachable(g, v, filled) != filled:
        raise AssertionError("the first closure is disconnected")
    # Each closure is checked connected as it is made, and the loop runs
    # while the unfilled region has a vertex of degree >= 2; with the
    # check on g above, that is every precondition of the pattern search.
    branching = mask_of([w for w in range(n) if g.degrees[w] >= 2])
    while branching & ~filled:
        pattern = _least_pattern(g, filled, boundary)
        add = _augmentation(g, filled, pattern)
        if add & filled:
            raise AssertionError("augmentation re-added filled vertices")
        cost = add.bit_count()
        new_filled, boundary = closure_core(adj, filled | add, boundary | add)
        gain = (new_filled & ~filled).bit_count()
        if cost > log_budget(n):
            raise AssertionError(f"augmentation cost {cost} above 2*log2({n})")
        if gain < 2 * cost + 1:
            raise AssertionError(f"augmentation gained {gain} < {2 * cost + 1}")
        if reachable(g, (new_filled & -new_filled).bit_length() - 1, new_filled) != new_filled:
            raise AssertionError("augmentation disconnected the closure")
        z |= add
        filled = new_filled
        if not running_ratio_ok(n, z.bit_count(), filled.bit_count()):
            raise AssertionError("augmentation broke the running ratio")
    for w in bits(boundary):
        out = adj[w] & ~filled
        if out.bit_count() != 2:
            raise AssertionError("boundary vertex without exactly two pendants")
        z |= out & -out
    if not is_zero_forcing_set(g, z):
        raise AssertionError("finishing step failed to force the graph")
    return HeuristicResult(
        zfs=z,
        method="subcubic",
        bound_claim=subcubic_girth5_value(n),
    )
