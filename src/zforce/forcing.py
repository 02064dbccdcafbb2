"""The zero-forcing dynamics.

A filled vertex with exactly one unfilled neighbor fills ("forces") that
neighbor.  ``closure_mask`` runs the process to its fixpoint as fast as
possible; ``closure`` additionally records a replayable trace, applying
the force with the smallest (forcer, forced) pair whenever several are
available so traces are reproducible across runs and platforms.

All operations are pure functions over an immutable Graph; per-call
working state is local, so concurrent use on a shared graph is safe.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import Graph, VertexSet, bit_list, bits


@dataclass(frozen=True)
class ForcingStep:
    forcer: int
    forced: int


@dataclass(frozen=True)
class ForcingTrace:
    """A certified closure computation: initial set, forces, final set."""

    initial: VertexSet
    steps: tuple[ForcingStep, ...]
    closure: VertexSet

    def to_json_dict(self) -> dict:
        return {
            "initial": bit_list(self.initial),
            "steps": [[s.forcer, s.forced] for s in self.steps],
            "closure": bit_list(self.closure),
        }


def _check_subset(g: Graph, z: VertexSet) -> None:
    if z < 0 or z & ~g.full_mask:
        raise ValueError("vertex set contains out-of-range vertices")


def closure_core(adj: tuple[int, ...], filled: int, pending: int) -> tuple[int, int]:
    """Fixpoint of the forcing rule from ``filled``.

    ``pending`` must contain every filled vertex that could still have an
    unfilled neighbor; pass ``filled`` itself when unsure.  Returns the
    closure and the set of filled vertices that still have two or more
    unfilled neighbors (useful to restart cheaply after adding vertices).
    """
    while True:
        progress = 0
        stalled = 0
        while pending:  # the loop of bits(), inlined: this is the solver's hot path
            low = pending & -pending
            pending ^= low
            un = adj[low.bit_length() - 1] & ~filled
            if not un:
                continue
            if un & (un - 1):
                stalled |= low
            else:
                progress |= un
        if not progress:
            return filled, stalled
        filled |= progress
        pending = stalled | progress


def closure_mask(g: Graph, z: VertexSet) -> VertexSet:
    """The closure of z as a bitmask, checked and untraced: what
    ``is_zero_forcing_set`` runs."""
    _check_subset(g, z)
    return closure_core(g.adj, z, z)[0]


def closure(g: Graph, z: VertexSet) -> ForcingTrace:
    """Run the forcing process from z and record the forcing sequence.

    The closure set is independent of the order in which available forces
    fire; only the recorded steps depend on the smallest-pair tie-break.
    """
    _check_subset(g, z)
    adj = g.adj
    neighbors = g.neighbors
    filled = z
    counts = [ (adj[v] & ~filled).bit_count() for v in range(g.n) ]
    heap: list[tuple[int, int]] = []
    for v in bits(filled):
        if counts[v] == 1:
            heapq.heappush(heap, (v, (adj[v] & ~filled).bit_length() - 1))
    steps: list[ForcingStep] = []
    while heap:
        v, u = heapq.heappop(heap)
        if filled >> u & 1:
            continue  # stale entry; u was forced by someone smaller
        steps.append(ForcingStep(v, u))
        filled |= 1 << u
        for w in neighbors[u]:
            counts[w] -= 1
            if counts[w] == 1 and filled >> w & 1:
                heapq.heappush(heap, (w, (adj[w] & ~filled).bit_length() - 1))
        if counts[u] == 1:
            heapq.heappush(heap, (u, (adj[u] & ~filled).bit_length() - 1))
    return ForcingTrace(z, tuple(steps), filled)


def is_zero_forcing_set(g: Graph, z: VertexSet) -> bool:
    """True iff the closure of z is the whole vertex set."""
    return closure_mask(g, z) == g.full_mask


def trace_violation(g: Graph, trace: ForcingTrace) -> str | None:
    """Replay a trace; None if valid, else a diagnostic for the first fault.

    A step is valid when both its vertices are in range, its forcer is
    filled and the forced vertex is the forcer's unique unfilled neighbor
    at that moment.  At the end no vertex of the closure may have exactly
    one unfilled neighbor, and the closure field must match the replayed
    set.
    """
    try:
        _check_subset(g, trace.initial)
    except ValueError:
        return "initial set out of range"
    filled = trace.initial
    for i, step in enumerate(trace.steps):
        if not (0 <= step.forcer < g.n and 0 <= step.forced < g.n):
            return f"step {i}: vertex out of range"
        if not filled >> step.forcer & 1:
            return f"step {i}: forcer {step.forcer} is not filled"
        un = g.adj[step.forcer] & ~filled
        if un != 1 << step.forced:
            return (f"step {i}: {step.forced} is not the unique unfilled "
                    f"neighbor of {step.forcer}")
        filled |= 1 << step.forced
    if filled != trace.closure:
        return "closure field does not match the replayed steps"
    for v in bits(filled):
        un = g.adj[v] & ~filled
        if un and not un & (un - 1):
            return f"terminal condition fails: {v} can still force"
    return None


def permutation_to_set(g: Graph, order: list[int]) -> VertexSet:
    """Zero forcing set induced by a linear order of the vertices.

    A vertex is skipped (left out of the set) iff it is the last-placed
    neighbor of a vertex placed before it.  One sweep from the last
    position back to the first decides this.  With ``seen`` the vertices
    after w together with their neighbors, w is skipped iff
    ``adj[w] & ~seen`` is non-empty: such a neighbor v is placed before w
    and has no neighbor after w, so w is its last-placed neighbor; and
    conversely.  That is O(1) bit operations per vertex.  The result is
    always a zero forcing set: replaying the order left to right, each
    skipped vertex is forced by the earlier vertex that vouched for it.
    """
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertex set")
    return _permutation_to_set(g, order)


def _permutation_to_set(g: Graph, order: list[int]) -> VertexSet:
    """``permutation_to_set`` for an order known to be a permutation."""
    adj = g.adj
    seen = skipped = 0
    for w in reversed(order):
        if adj[w] & ~seen:
            skipped |= 1 << w
        seen |= adj[w] | 1 << w
    return g.full_mask ^ skipped
