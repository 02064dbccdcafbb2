"""Forcing dynamics: closure, traces, permutation rule."""

import random
from itertools import combinations, permutations

import pytest

import zforce as zf
from zforce.forcing import ForcingStep, ForcingTrace, closure, closure_mask, permutation_to_set
from zforce.graph import bit_list, mask_of


def naive_closure(g: zf.Graph, z: int) -> int:
    """Obviously-correct fixpoint loop over python sets."""
    adj = [set(bit_list(row)) for row in g.adj]
    filled = set(bit_list(z))
    changed = True
    while changed:
        changed = False
        for v in list(filled):
            un = adj[v] - filled
            if len(un) == 1:
                filled |= un
                changed = True
    return mask_of(filled)


def test_path_propagates_from_endpoint():
    g = zf.path(3)
    trace = closure(g, 0b001)
    assert trace.closure == 0b111
    assert trace.steps == (ForcingStep(0, 1), ForcingStep(1, 2))


def test_cycle_stalls_on_single_vertex():
    g = zf.cycle(4)
    trace = closure(g, 0b0001)
    assert trace.closure == 0b0001 and trace.steps == ()


def test_k33_needs_four():
    g = zf.complete_bipartite(3, 3)
    for combo in combinations(range(6), 3):
        assert not zf.is_zero_forcing_set(g, mask_of(combo))
    assert zf.is_zero_forcing_set(g, mask_of([0, 1, 3, 4]))


def test_k4_three_suffice_two_do_not():
    g = zf.complete(4)
    assert zf.is_zero_forcing_set(g, 0b0111)
    assert not zf.is_zero_forcing_set(g, 0b0011)
    assert zf.is_zero_forcing_set(g, g.full_mask)


def test_empty_set_and_single_vertex_graph():
    assert closure(zf.path(3), 0).closure == 0
    assert zf.is_zero_forcing_set(zf.path(1), 0b1)


def test_out_of_range_set_rejected():
    with pytest.raises(ValueError):
        closure(zf.path(3), 0b1000)


def test_closure_matches_naive_on_corpus(random_corpus):
    rng = random.Random(42)
    for g in random_corpus[:120]:
        z = rng.getrandbits(g.n)
        assert closure_mask(g, z) == naive_closure(g, z)
        assert closure(g, z).closure == naive_closure(g, z)


def test_monotone_and_idempotent(random_corpus):
    rng = random.Random(7)
    for g in random_corpus[:80]:
        small = rng.getrandbits(g.n)
        big = small | rng.getrandbits(g.n)
        cs, cb = closure_mask(g, small), closure_mask(g, big)
        assert cs & ~cb == 0
        assert closure_mask(g, cs) == cs


def test_closure_set_independent_of_application_order(random_corpus):
    # the trace's tie-break fixes the step order; randomized application
    # must land on the same closure set
    rng = random.Random(99)
    for g in random_corpus[:40]:
        z = rng.getrandbits(g.n)
        expected = closure_mask(g, z)
        for _ in range(3):
            filled = z
            while True:
                options = [
                    (v, g.adj[v] & ~filled)
                    for v in bit_list(filled)
                    if (g.adj[v] & ~filled).bit_count() == 1
                ]
                if not options:
                    break
                v, u = options[rng.randrange(len(options))]
                filled |= u
            assert filled == expected


def test_trace_smallest_pair_tiebreak():
    # two forces available at the start: (0,4) beats (1,2) on C5
    trace = closure(zf.cycle(5), 0b00011)
    assert trace.steps[0] == ForcingStep(0, 4)
    assert trace.steps == (ForcingStep(0, 4), ForcingStep(1, 2), ForcingStep(2, 3))


def test_verify_trace_accepts_closure_output(random_corpus):
    rng = random.Random(5)
    for g in random_corpus[:80]:
        trace = closure(g, rng.getrandbits(g.n))
        assert zf.trace_violation(g, trace) is None


def test_verify_trace_rejects_swapped_steps():
    g = zf.path(3)
    good = closure(g, 0b001)
    bad = ForcingTrace(good.initial, good.steps[::-1], good.closure)
    assert "not filled" in zf.trace_violation(g, bad)


def test_verify_trace_rejects_wrong_closure_field():
    g = zf.path(3)
    good = closure(g, 0b001)
    assert zf.trace_violation(g, ForcingTrace(good.initial, good.steps, 0b011)) == (
        "closure field does not match the replayed steps")


def test_verify_trace_rejects_premature_stop():
    g = zf.path(3)
    # stopping after one step leaves vertex 1 able to force
    assert "terminal" in zf.trace_violation(
        g, ForcingTrace(0b001, (ForcingStep(0, 1),), 0b011))


def test_verify_trace_rejects_out_of_range_step_vertices():
    g = zf.path(3)
    for step in (ForcingStep(0, -1), ForcingStep(-1, 1), ForcingStep(0, 3), ForcingStep(3, 1)):
        trace = ForcingTrace(0b001, (step,), 0b011)
        assert zf.trace_violation(g, trace) == "step 0: vertex out of range"


def test_verify_trace_rejects_forged_initial_sets_and_forces():
    g = zf.path(3)
    # vertex 3 does not exist
    trace = ForcingTrace(0b1001, (ForcingStep(0, 1), ForcingStep(1, 2)), 0b111)
    assert zf.trace_violation(g, trace) == "initial set out of range"
    # the filled middle vertex has two unfilled neighbors, so it forces neither
    trace = ForcingTrace(0b010, (ForcingStep(1, 0),), 0b011)
    assert zf.trace_violation(g, trace) == "step 0: 0 is not the unique unfilled neighbor of 1"


def test_hand_built_c5_trace_verifies():
    g = zf.cycle(5)
    by_hand = ForcingTrace(
        0b00011,
        (ForcingStep(0, 4), ForcingStep(1, 2), ForcingStep(2, 3)),
        0b11111,
    )
    assert zf.trace_violation(g, by_hand) is None
    assert closure(g, 0b00011) == by_hand


def test_trace_json_shape():
    payload = closure(zf.path(3), 0b001).to_json_dict()
    assert payload == {"initial": [0], "steps": [[0, 1], [1, 2]], "closure": [0, 1, 2]}


# -- the random-order rule ----------------------------------------------------


def quadratic_rule(g: zf.Graph, order: list[int]) -> int:
    """Literal translation of the suffix-uniqueness rule, as an oracle."""
    n = g.n
    z = 0
    for i in range(n):
        suffix = set(order[i:])
        unique_for_someone = False
        for j in range(i):
            within = [w for w in bit_list(g.adj[order[j]]) if w in suffix]
            if within == [order[i]]:
                unique_for_someone = True
                break
        if not unique_for_someone:
            z |= 1 << order[i]
    return z


def test_permutation_rule_examples():
    g = zf.path(3)
    assert permutation_to_set(g, [0, 1, 2]) == 0b001
    k2 = zf.complete(2)
    assert permutation_to_set(k2, [0, 1]) == 0b01
    assert permutation_to_set(k2, [1, 0]) == 0b10


def test_permutation_rule_rejects_non_permutation():
    with pytest.raises(ValueError):
        permutation_to_set(zf.path(3), [0, 1, 1])


def with_isolated_vertex(g: zf.Graph, at: int) -> zf.Graph:
    """g with a new isolated vertex labelled ``at``; later labels move up."""
    def shift(v: int) -> int:
        return v + (v >= at)
    return zf.Graph.from_edges(g.n + 1, [(shift(u), shift(v)) for u, v in g.edges()])


def test_permutation_rule_matches_quadratic_oracle(random_corpus):
    rng = random.Random(11)
    for g in random_corpus[:60]:
        order = list(range(g.n))
        rng.shuffle(order)
        assert permutation_to_set(g, order) == quadratic_rule(g, order)
    # An isolated vertex is nobody's last-placed neighbor, so it is always
    # kept, wherever it sits in the order.
    graphs = [zf.Graph(n, (0,) * n) for n in range(1, 5)]
    graphs.append(with_isolated_vertex(with_isolated_vertex(zf.path(4), 0), 3))
    graphs += [with_isolated_vertex(g, rng.randrange(g.n + 1)) for g in random_corpus[:60]]
    for g in graphs:
        isolated = mask_of(v for v in range(g.n) if not g.adj[v])
        for _ in range(5):
            order = list(range(g.n))
            rng.shuffle(order)
            z = permutation_to_set(g, order)
            assert z == quadratic_rule(g, order)
            assert z & isolated == isolated


def test_permutation_sets_always_force_exhaustive_small(random_corpus):
    for g in [zf.path(4), zf.cycle(5), zf.complete(4)]:
        for order in permutations(range(g.n)):
            assert zf.is_zero_forcing_set(g, permutation_to_set(g, list(order)))


def test_permutation_sets_always_force_randomized(random_corpus):
    rng = random.Random(13)
    for g in random_corpus[:80]:
        for _ in range(20):
            order = list(range(g.n))
            rng.shuffle(order)
            assert zf.is_zero_forcing_set(g, permutation_to_set(g, order))


def test_c5_exhaustive_best_is_two():
    g = zf.cycle(5)
    best = min(
        permutation_to_set(g, list(p)).bit_count()
        for p in permutations(range(5))
    )
    assert best == 2
