"""Exact zero forcing number at desk scale: a wavefront search.

This is the "wavefront" algorithm of Butler, Grout et al.'s minimum-rank
library, as benchmarked by Brimkov, Fast and Hicks ("Computational
approaches for zero forcing and related problems", EJOR 2019): Dijkstra's
algorithm over sets closed under the forcing rule, starting from the
empty set.  From a closed set S, every vertex v whose closed
neighbourhood has a part U outside S gives one step, to the closure of
S | U.  When v has an unfilled neighbour w the step costs |U| - 1: fill
U except w and let v force w.  Otherwise U = {v} and the step costs 1.
A zero forcing set of size k yields a path of cost at most k, and a path
of cost c yields a zero forcing set of size c, so Z(G) is the cost at
which the full vertex set is first popped.  Each closed set's record
carries a zero forcing set of its cost that reaches it, so the full set's
record holds the witness.  ``brute_force_oracle`` stays deliberately
independent, as the check on this solver.

Each component is searched in place, on the graph's own bitmasks.  A
budget stop gives the same result shape: its lower end is the least
frontier cost or, if larger, the catalog's proven lower end for the
component (``bounds_report(...).proven_lower``), and its witness the set
recorded for the full set if it was pushed, else the component minus
one vertex; the upper end is that set's size.

Three savings cut the work; the witness is still a minimum set.
Dominance: while S is expanded, a step whose U lies inside the closure T
of a step already run from S, at a cost no higher than its own, is
skipped before its closure runs.  Closure is monotone, so the skipped
step reaches a subset of T; and from a superset the same vertex costs no
more and reaches a superset, so finishing from T is never dearer.
Restart: each closed set keeps the stalled set ``closure_core`` returned
for it (its vertices with two or more unfilled neighbours), and a step
recloses from stalled | U instead of S | U.  Reuse: each solve maps
every step input S | U that ran a closure to that closure, one int per
closure that ran; closed sets are found in the records.  A step whose
input is mapped, or is itself closed, reads the closure's stalled set
from its record and runs no closure.  A closure depends only on its
input, and the stalled set is always the closure's vertices with two or
more unfilled neighbours, so the search goes as it would without
reuse.  ``nodes_explored`` counts the closures that ran: a skipped or
reused step is neither counted nor charged to the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations

from .forcing import closure_core
from .graph import Graph, VertexSet, bit_list, mask_of


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact computation: lower <= Z <= upper.

    ``witness`` is always a zero forcing set, and ``upper`` is its size.
    ``complete`` holds iff lower == upper, and then ``value`` is Z and
    the witness a minimum set; otherwise ``value`` is None.
    ``nodes_explored`` counts closure invocations.
    """

    value: int | None
    witness: VertexSet
    nodes_explored: int
    lower: int

    @property
    def upper(self) -> int:
        return self.witness.bit_count()

    @property
    def complete(self) -> bool:
        return self.lower == self.upper


def _solve_component(g: Graph, comp: VertexSet, limit: int | None) -> tuple[int, VertexSet, int]:
    """(lower, witness, closures run) for the connected component ``comp``:
    Z and a minimum witness when settled, else the stop's interval as in
    the module docstring, after ``limit`` closures.

    Each closed set keeps one record: its cost, a zero forcing set of that
    cost that reaches it, and its stalled set.  A step by v adds U minus
    v's least unfilled neighbour (U itself when v has none) to the parent's
    set.  Steps cost at least 1, so an expanded set's record is final.
    """
    adj, verts = g.adj, bit_list(comp)
    nbhd = [(v, adj[v] | 1 << v) for v in verts]  # closed neighbourhoods
    records = {0: (0, 0, 0)}  # closed set -> (cost, forcing set reaching it, stalled set)
    closed = {}  # input a closure ran on in this solve -> its closure
    heap = [(0, 0, 0)]  # (cost, insertion order, closed set)
    pushed = 1
    used = 0
    while heap:
        cost, _, s = heappop(heap)
        s_cost, zfs, stalled = records[s]
        if s_cost < cost:
            continue  # a cheaper entry for s was already expanded
        if s == comp:
            return cost, zfs, used
        reached = []  # (closure, cost) of each step run from s
        outside = ~s
        for v, nv in nbhd:
            u = nv & outside
            if not u:
                continue
            nbrs = adj[v] & u
            new_cost = cost + (u.bit_count() - 1 if nbrs else 1)
            for t, t_cost in reached:
                if not u & ~t and t_cost <= new_cost:
                    break  # dominated: that step reached a superset, no dearer
            else:
                start = s | u
                t = start if start in records else closed.get(start)
                if t is None:
                    if used == limit:
                        from .bounds import bounds_report  # loaded only by a stop

                        # Steps cost at least 1, so nothing unsettled costs less.
                        lower = min(heap[0][0], cost + 1) if heap else cost + 1
                        sub = g if comp == g.full_mask else g.induced(comp)
                        lower = max(lower, bounds_report(sub).proven_lower)
                        # Else all but the highest vertex (a neighbour forces it),
                        # or the whole of a single-vertex component.
                        return lower, (records[comp][1] if comp in records
                                       else comp ^ 1 << verts[-1] or comp), used
                    used += 1
                    t, t_stalled = closure_core(adj, start, stalled | u)
                    closed[start] = t
                else:
                    t_stalled = records[t][2]
                reached.append((t, new_cost))
                if t not in records or new_cost < records[t][0]:
                    records[t] = (new_cost, zfs | u ^ (nbrs & -nbrs), t_stalled)
                    heappush(heap, (new_cost, pushed, t))
                    pushed += 1
    raise AssertionError("the full component is always reachable")  # pragma: no cover


def zero_forcing_number(g: Graph, budget: int | None = None) -> ExactResult:
    """Z(G) within [lower, upper], with a zero forcing set of size upper.

    Disconnected graphs decompose: forcing never crosses components, so
    the bounds are sums over components and the witness the union.
    ``budget`` caps the number of closure invocations and must be at
    least 0; ``nodes_explored`` counts the closures that ran.  Without a
    stop, or once the two ends meet, the result is complete: ``value`` is
    Z and the witness a minimum zero forcing set.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    used = lower = witness = 0
    for comp in g.components:
        # After a stop no budget is left: later components stop at once with
        # their proven lower end and all but one vertex as witness.
        sub_lower, sub_witness, ran = _solve_component(
            g, comp, None if budget is None else budget - used)
        used += ran
        lower += sub_lower
        witness |= sub_witness
    return ExactResult(lower if lower == witness.bit_count() else None, witness, used, lower)


def brute_force_oracle(g: Graph) -> ExactResult:
    """Plain enumeration of all subsets by cardinality, zero pruning.

    Deliberately independent of the pruned solver; used to validate it.
    """
    if g.n > 12:
        raise ValueError("the brute force oracle is limited to n <= 12")
    full = g.full_mask
    explored = 0
    for k in range(0, g.n + 1):
        for combo in combinations(range(g.n), k):
            z = mask_of(combo)
            explored += 1
            if closure_core(g.adj, z, z)[0] == full:
                return ExactResult(k, z, explored, k)
    raise AssertionError("unreachable")  # pragma: no cover
