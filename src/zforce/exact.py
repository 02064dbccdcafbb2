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
which the full vertex set is first popped.  The witness is rebuilt from
the parent links of that path.  ``brute_force_oracle`` stays deliberately
independent, as the check on this solver.

Two savings cut the work; the witness is still a minimum set.
Dominance: while S is expanded, a step whose U lies inside the closure T
of a step already run from S, at a cost no higher than its own, is
skipped before its closure runs.  Closure is monotone, so the skipped
step reaches a subset of T; and from a superset the same vertex costs no
more and reaches a superset, so finishing from T is never dearer.
Restart: each closed set keeps the stalled set ``closure_core`` returned
for it (its vertices that still have unfilled neighbours), and a step
recloses from stalled | U instead of S | U.  ``nodes_explored`` still
counts the closures that ran, so its values fall: a skipped step is
neither counted nor charged to the budget.  A ceiling prune (skip every
step as dear as a full set already pushed) would save far more; it waits
until the benchmark's peak RSS measures the program and not the
harness's stored outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations

from .forcing import closure_core
from .graph import Graph, VertexSet, bits, components, girth, mask_of


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact computation.

    ``value``/``witness`` are set when ``complete``; otherwise only the
    interval [lower, upper] is known and ``value`` is None.
    ``nodes_explored`` counts closure invocations.
    """

    value: int | None
    witness: VertexSet | None
    nodes_explored: int
    complete: bool
    lower: int
    upper: int


def _component_lower_bound(g: Graph) -> int:
    """The proven girth-degree bound where it applies, else Z >= delta
    (and >= 1, for an isolated vertex)."""
    # Imported here: only a budget stop needs it, and with it fractions and
    # decimal, which an unbudgeted solve then never loads.
    from .ratmath import GIRTH_DEGREE_PROVEN, lower_girth_degree

    gir, delta = girth(g), g.min_degree()
    if gir in GIRTH_DEGREE_PROVEN and delta >= 2:
        return int(lower_girth_degree(gir, delta))
    return max(delta, 1)


def _witness(adj: tuple[int, ...], links: dict, s: VertexSet) -> VertexSet:
    """Replay the parent links back from s; each step adds U minus one neighbour."""
    witness = 0
    while s:
        _, prev, v = links[s]
        u = (adj[v] | 1 << v) & ~prev
        nbrs = adj[v] & u
        witness |= u ^ (nbrs & -nbrs)  # nbrs == 0 leaves U = {v}
        s = prev
    return witness


def _solve_connected(g: Graph, limit: int | None) -> tuple[int, int, VertexSet | None, int]:
    """(lower, upper, witness, closures run).  Settled: lower == upper == Z
    and a minimum witness.  Stopped after ``limit`` closures: witness None,
    lower the least frontier cost, upper the least cost at which the full
    set was pushed (its parent-link path is a zero forcing set of that
    size), or n - 1 while it was not."""
    n, adj, full = g.n, g.adj, g.full_mask
    links = {0: (0, 0, -1)}  # closed set -> (cost, parent closed set, vertex)
    heap = [(0, 0, 0, 0)]  # (cost, insertion order, closed set, its stalled set)
    pushed = 1
    used = 0
    while heap:
        cost, _, s, stalled = heappop(heap)
        if links[s][0] < cost:
            continue  # a cheaper entry for s was already expanded
        if s == full:
            return cost, cost, _witness(adj, links, s), used
        reached = []  # (closure, cost) of each step run from s
        for v in range(n):
            u = (adj[v] | 1 << v) & ~s
            if not u:
                continue
            new_cost = cost + (u.bit_count() - 1 if adj[v] & u else 1)
            for t, t_cost in reached:
                if not u & ~t and t_cost <= new_cost:
                    break  # dominated: that step reached a superset, no dearer
            else:
                if used == limit:
                    # Steps cost at least 1, so nothing unsettled costs less.
                    lower = min(heap[0][0], cost + 1) if heap else cost + 1
                    upper = links[full][0] if full in links else max(n - 1, 1)
                    return lower, upper, None, used
                used += 1
                t, t_stalled = closure_core(adj, s | u, stalled | u)
                reached.append((t, new_cost))
                if t not in links or new_cost < links[t][0]:
                    links[t] = (new_cost, s, v)
                    heappush(heap, (new_cost, pushed, t, t_stalled))
                    pushed += 1
    raise AssertionError("the full vertex set is always reachable")  # pragma: no cover


def zero_forcing_number(g: Graph, budget: int | None = None) -> ExactResult:
    """Exact Z(G) with a minimum witness, or a flagged interval on budget stop.

    Disconnected graphs decompose: forcing never crosses components, so
    the number is the sum over components and the witness the union.
    ``budget`` caps the number of closure invocations and must be at
    least 0; when it runs out the result carries the interval proven so
    far instead of a value, and ``nodes_explored`` counts the closures
    that ran.  A stopped component's upper end is the cost of the
    cheapest full set pushed so far, else n - 1; the result stays
    incomplete even where the two ends meet.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    used = lower = upper = witness = 0
    complete = True
    comps = components(g)
    for comp in comps:
        # A connected graph is its own component; skip the relabelled copy.
        sub, labels = (g, range(g.n)) if len(comps) == 1 else g.induced(comp)
        sub_lower, sub_upper, sub_witness, ran = _solve_connected(
            sub, None if budget is None else budget - used)
        used += ran
        upper += sub_upper
        if sub_witness is None:
            # After a stop no budget is left: later components return cost 1
            # and keep their static bound.
            complete = False
            lower += max(sub_lower, _component_lower_bound(sub))
        else:
            witness |= mask_of(labels[i] for i in bits(sub_witness))
            lower += sub_lower
    if complete:
        return ExactResult(lower, witness, used, True, lower, upper)
    return ExactResult(None, None, used, False, lower, upper)


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
                return ExactResult(k, z, explored, True, k, k)
    raise AssertionError("unreachable")  # pragma: no cover
