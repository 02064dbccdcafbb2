"""Exact solver against the unpruned oracle and known values."""

import dataclasses
import random

import pytest

import zforce as zf
from zforce.graph import bit_list, mask_of


def test_named_exact_values():
    assert zf.zero_forcing_number(zf.complete(4)).value == 3
    assert zf.zero_forcing_number(zf.complete(5)).value == 4
    assert zf.zero_forcing_number(zf.complete(6)).value == 5
    assert zf.zero_forcing_number(zf.complete_bipartite(3, 3)).value == 4
    assert zf.zero_forcing_number(zf.complete_bipartite(4, 4)).value == 6
    assert zf.zero_forcing_number(zf.complete_bipartite(2, 3)).value == 3
    assert zf.zero_forcing_number(zf.complete_bipartite(3, 4)).value == 5
    assert zf.zero_forcing_number(zf.g1()).value == 3
    assert zf.zero_forcing_number(zf.g2()).value == 5


def test_paths_force_from_one_endpoint():
    for n in range(1, 13):
        assert zf.zero_forcing_number(zf.path(n)).value == 1


def test_cycles_need_two():
    for n in range(3, 9):
        assert zf.zero_forcing_number(zf.cycle(n)).value == 2
    assert zf.brute_force_oracle(zf.cycle(6)).value == 2


def test_witness_is_valid_and_minimal(random_corpus):
    from itertools import combinations
    for g in random_corpus[:40]:
        res = zf.zero_forcing_number(g)
        assert res.complete and res.lower == res.upper == res.value
        assert res.witness.bit_count() == res.value
        assert zf.is_zero_forcing_set(g, res.witness)
        if res.value > 1:
            for combo in combinations(range(g.n), res.value - 1):
                assert not zf.is_zero_forcing_set(g, mask_of(combo))


def test_oracle_agreement_named(named_graphs):
    for name, g in named_graphs.items():
        if g.n <= 12:
            assert (zf.zero_forcing_number(g).value
                    == zf.brute_force_oracle(g).value), name


def test_oracle_rejects_large():
    with pytest.raises(ValueError):
        zf.brute_force_oracle(zf.heawood())


def test_disconnected_graphs_decompose():
    g = zf.Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
    # path component needs 1, triangle needs 2, isolated vertex needs 1
    res = zf.zero_forcing_number(g)
    assert res.value == 4
    assert zf.is_zero_forcing_set(g, res.witness)
    assert res.value == zf.brute_force_oracle(g).value


def test_connected_graph_is_solved_without_relabelling(random_corpus, monkeypatch):
    # Every component is solved in place, and neither a full solve nor a
    # budget stop (whose catalog report is made on the graph itself)
    # builds an induced copy; with an isolated vertex added the witness
    # gains it.
    plain = [(g, zf.zero_forcing_number(g).witness) for g in random_corpus[:40]]

    def no_copy(self, mask):
        raise AssertionError("induced copy of a connected graph")

    with monkeypatch.context() as patch:
        patch.setattr(zf.Graph, "induced", no_copy)
        for g, witness in plain:
            assert zf.zero_forcing_number(g).witness == witness
            padded = zf.Graph(g.n + 1, g.adj + (0,))
            assert zf.zero_forcing_number(padded).witness == witness | 1 << g.n
        stop = zf.zero_forcing_number(zf.generate("petersen"), 3)
        assert (stop.lower, stop.upper, stop.nodes_explored) == (5, 9, 3)


def test_edgeless_needs_everything():
    g = zf.Graph(4, (0, 0, 0, 0))
    assert zf.zero_forcing_number(g).value == 4


def test_edge_implies_not_all_needed(random_corpus):
    for g in random_corpus[:60]:
        if g.edge_count():
            assert zf.zero_forcing_number(g).value <= g.n - 1


def assert_sound(g, res, z):
    """The interval holds Z, its witness forces g at size upper, and the
    result is complete exactly when the two ends meet, with value Z."""
    assert res.lower <= z <= res.upper, res
    assert res.witness.bit_count() == res.upper
    assert zf.is_zero_forcing_set(g, res.witness)
    assert res.complete == (res.lower == res.upper) == (res.value is not None)
    if res.complete:
        assert res.value == z


def test_budget_interval_flagged():
    g = zf.generate("petersen")
    res = zf.zero_forcing_number(g, budget=3)
    assert not res.complete and res.value is None
    assert_sound(g, res, 5)
    assert res.nodes_explored == 3


def test_upper_end_and_completeness_derive_from_the_stored_fields():
    assert [f.name for f in dataclasses.fields(zf.ExactResult)] == [
        "value", "witness", "nodes_explored", "lower"]
    open_res = zf.ExactResult(None, 0b1111, 0, 3)
    assert (open_res.upper, open_res.complete) == (4, False)
    closed = dataclasses.replace(open_res, value=4, lower=4)
    assert (closed.upper, closed.complete) == (4, True)


def test_lower_bound_seed_counts():
    # the wavefront settles Petersen after 46 closures; more would mean a
    # dominated step or an already-closed set is closed again
    res = zf.zero_forcing_number(zf.generate("petersen"))
    assert res.value == 5
    assert res.nodes_explored == 46


def test_each_set_is_closed_at_most_once_per_solve(random_corpus, monkeypatch):
    # Within one solve the memo keeps only the inputs a closure ran on, and
    # a closed set is found among the search records: so no input is closed
    # twice, no closed set is closed again, and nodes_explored counts exactly
    # the closures that ran.  A reused set reads its stalled set from its
    # record, which is sound because the stalled set closure_core returns is
    # always the closure's vertices with two or more unfilled neighbours;
    # and every restart from a stalled set still reaches the full closure.
    calls = []
    real = zf.exact.closure_core

    def recording(adj, filled, pending):
        closed, stalled = real(adj, filled, pending)
        calls.append((adj, filled, closed, stalled))
        return closed, stalled

    monkeypatch.setattr(zf.exact, "closure_core", recording)
    petersen, heawood = zf.generate("petersen"), zf.heawood()
    solves = [(g, None) for g in [petersen, heawood] + random_corpus[::5]]
    solves += [(petersen, 16), (heawood, 39)] + [(g, 5) for g in random_corpus[1::50]]
    for g, budget in solves:
        calls.clear()
        res = zf.zero_forcing_number(g, budget)
        assert res.nodes_explored == len(calls)
        inputs = [filled for _, filled, _, _ in calls]
        assert len(set(inputs)) == len(inputs)
        returned = set()
        for adj, filled, closed, stalled in calls:
            assert filled not in returned
            returned.add(closed)
            assert closed == real(adj, filled, filled)[0]
            assert stalled == mask_of(v for v in bit_list(closed)
                                      if (adj[v] & ~closed).bit_count() >= 2)


def _disjoint_union(*graphs):
    adj, offset = [], 0
    for g in graphs:
        adj.extend(a << offset for a in g.adj)
        offset += g.n
    return zf.Graph(offset, tuple(adj))


def test_every_budget_gives_a_sound_interval(random_corpus):
    # On a disjoint union the budget left over passes from one component to
    # the next, and a stop leaves the later components their static bounds.
    named = [zf.generate("petersen"), zf.path(5), zf.cycle(6), zf.complete(4)]
    parts = [(g,) for g in named + random_corpus[:20]]
    parts += [(zf.generate("petersen"), zf.complete(4), zf.path(3)),
              (zf.path(3), zf.generate("petersen"))]
    parts += [tuple(random_corpus[i:i + 2]) for i in range(0, 20, 2)]
    for graphs in parts:
        g = _disjoint_union(*graphs)
        z = sum(zf.brute_force_oracle(h).value for h in graphs)
        full = zf.zero_forcing_number(g).nodes_explored
        for budget in range(0, full + 1):
            res = zf.zero_forcing_number(g, budget)
            assert res.nodes_explored == budget  # only the closures that ran
            assert_sound(g, res, z)
            assert res.complete or budget < full


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="budget"):
        zf.zero_forcing_number(zf.path(3), budget=-1)


def test_budget_stop_reports_the_frontier_cost():
    # K1,4 with its centre last is a tree, so the static bound is
    # delta = 1; a lower end of 3 = Z one closure short of the end comes
    # from the search frontier, and the full set already pushed closes the
    # interval
    g = zf.complete_bipartite(4, 1)
    assert zf.bounds_report(g).proven_lower == 1
    full = zf.zero_forcing_number(g).nodes_explored
    assert full == 14
    res = zf.zero_forcing_number(g, full - 1)
    assert res.complete and res.lower == res.upper == res.value == 3
    assert_sound(g, res, 3)


def _static_lower_reference(g):
    """The budget stop's own rule before it read the catalog: the
    girth-degree bound at girth 3 to 6 with minimum degree >= 2, else
    Z >= max(delta, 1)."""
    gir, delta = g.girth, g.min_degree()
    if gir in (3, 4, 5, 6) and delta >= 2:
        return (gir - 2) * (delta - 2) + 2
    return max(delta, 1)


def test_proven_lower_is_the_old_static_rule(random_corpus, cubic_tf_corpus, cubic_g5_corpus,
                                             named_graphs):
    # A budget stop takes the catalog's proven lower end, so no interval moves
    # as long as that end is the rule the stop used before.  The named graphs
    # hold the six exceptional graphs, Petersen and Heawood.
    graphs = random_corpus + cubic_tf_corpus + cubic_g5_corpus + list(named_graphs.values())
    graphs += [zf.cycle(n) for n in range(3, 10)] + [zf.path(n) for n in range(1, 10)]
    graphs += [zf.complete_bipartite(a, b) for a in range(1, 6) for b in range(a, 6)]
    for g in graphs + [_disjoint_union(g, zf.path(1)) for g in graphs]:
        assert zf.bounds_report(g).proven_lower == _static_lower_reference(g), zf.to_graph6(g)


@pytest.mark.parametrize("d", [12, 20])
def test_budget_stop_settles_balanced_complete_bipartite(d):
    # Unbudgeted, K_{D,D} closes nearly every subset of one side; at a budget
    # the pushed full set (cost 2D - 2) meets the girth-degree bound at
    # girth 4, 2(D - 2) + 2, so the stop is complete.
    res = zf.zero_forcing_number(zf.complete_bipartite(d, d), 200)
    assert res.complete and res.value == 2 * d - 2


@pytest.mark.parametrize("name, z, budget", [("petersen", 5, 16), ("heawood", 6, 39)])
def test_budget_stop_upper_end_is_the_pushed_full_set(name, z, budget):
    # Once the full set has been pushed at cost c, its parent-link path is
    # a zero forcing set of size c, so a stop reports c as the upper end
    # with that path as witness; before that the upper end is n - 1.
    g = zf.generate(name)
    res = zf.zero_forcing_number(g, budget)
    assert res.nodes_explored == budget < zf.zero_forcing_number(g).nodes_explored
    assert res.complete and (res.lower, res.upper, res.value) == (z, z, z)
    assert_sound(g, res, z)
    start = zf.zero_forcing_number(g, 0)
    assert not start.complete and start.upper == g.n - 1
    assert_sound(g, start, z)


def test_deterministic_witness(random_corpus):
    for g in random_corpus[:20]:
        a = zf.zero_forcing_number(g)
        b = zf.zero_forcing_number(g)
        assert a.witness == b.witness


def test_petersen_value_via_unpruned_oracle():
    assert zf.brute_force_oracle(zf.generate("petersen")).value == 5


def test_metamorphic_relations_above_the_oracle_reach():
    """Checks that hold at any order, run at n = 13..20, past the n <= 12
    that ``brute_force_oracle`` reaches: deleting an edge or a vertex
    moves Z by at most one (Edholm, Hogben, Huynh, LaGrange and Row,
    Linear Algebra Appl. 436, 2012), a relabelling keeps Z, every witness
    forces, and a witness of G - v plus v forces G."""

    def solved(h):
        res = zf.zero_forcing_number(h)
        assert res.complete and zf.closure_mask(h, res.witness) == h.full_mask
        return res.value, res.witness

    for i in range(40):
        n = 13 + i % 8
        g = zf.random_gnp(n, (0.15, 0.2, 0.3, 0.45)[i % 4], 7000 + i)
        rng = random.Random(i)
        z, _ = solved(g)
        perm = rng.sample(range(n), n)
        assert solved(zf.Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()]))[0] == z
        edges = g.edges()
        for e in rng.sample(edges, min(2, len(edges))):
            assert abs(solved(zf.Graph.from_edges(n, [f for f in edges if f != e]))[0] - z) <= 1
        for v in rng.sample(range(n), 2):
            rest = g.full_mask ^ 1 << v
            z_v, w_v = solved(g.induced(rest))
            assert abs(z_v - z) <= 1
            keep = bit_list(rest)  # vertex i of the induced graph is keep[i]
            lifted = mask_of(keep[i] for i in bit_list(w_v))
            assert zf.closure_mask(g, lifted | 1 << v) == g.full_mask
