"""Exact solver against the unpruned oracle and known values."""

import pytest

import zforce as zf
from zforce.graph import mask_of


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
    # A connected graph is solved in place; with an isolated vertex added
    # it goes through the relabelled copy, and the witness must agree.
    plain = [(g, zf.zero_forcing_number(g).witness) for g in random_corpus[:40]]

    def no_copy(self, mask):
        raise AssertionError("induced copy of a connected graph")

    with monkeypatch.context() as patch:
        patch.setattr(zf.Graph, "induced", no_copy)
        for g, witness in plain:
            assert zf.zero_forcing_number(g).witness == witness
    for g, witness in plain:
        padded = zf.Graph(g.n + 1, g.adj + (0,))
        assert zf.zero_forcing_number(padded).witness == witness | 1 << g.n


def test_edgeless_needs_everything():
    g = zf.Graph(4, (0, 0, 0, 0))
    assert zf.zero_forcing_number(g).value == 4


def test_edge_implies_not_all_needed(random_corpus):
    for g in random_corpus[:60]:
        if g.edge_count():
            assert zf.zero_forcing_number(g).value <= g.n - 1


def test_budget_interval_flagged():
    g = zf.generate("petersen")
    res = zf.zero_forcing_number(g, budget=3)
    assert not res.complete
    assert res.value is None and res.witness is None
    assert res.lower <= 5 <= res.upper
    assert res.nodes_explored >= 3


def test_lower_bound_seed_counts():
    # the wavefront settles Petersen after 65 closures; more would mean
    # that dominated steps are run again
    res = zf.zero_forcing_number(zf.generate("petersen"))
    assert res.value == 5
    assert res.nodes_explored == 65


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
            assert res.lower <= z <= res.upper, (budget, res)
            assert res.complete == (res.value is not None) == (budget == full)
            if res.complete:
                assert res.value == z and zf.is_zero_forcing_set(g, res.witness)
            else:
                assert res.witness is None


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="budget"):
        zf.zero_forcing_number(zf.path(3), budget=-1)


def test_budget_stop_reports_the_frontier_cost():
    # K1,4 is a tree, so the static bound is delta = 1; a lower end of
    # 3 = Z one closure short of the end comes from the search frontier
    g = zf.complete_bipartite(1, 4)
    full = zf.zero_forcing_number(g).nodes_explored
    assert full == 27
    res = zf.zero_forcing_number(g, full - 1)
    assert not res.complete and res.lower == 3 and res.upper == 3
    assert res.witness is None


@pytest.mark.parametrize("name, z, budget", [("petersen", 5, 16), ("heawood", 6, 39)])
def test_budget_stop_upper_end_is_the_pushed_full_set(name, z, budget):
    # Once the full set has been pushed at cost c, its parent-link path is
    # a zero forcing set of size c, so a stop reports c as the upper end;
    # before that the upper end is n - 1.
    g = zf.generate(name)
    res = zf.zero_forcing_number(g, budget)
    assert not res.complete and res.witness is None
    assert (res.lower, res.upper) == (z, z)
    assert zf.zero_forcing_number(g, 0).upper == g.n - 1


def test_deterministic_witness(random_corpus):
    for g in random_corpus[:20]:
        a = zf.zero_forcing_number(g)
        b = zf.zero_forcing_number(g)
        assert a.witness == b.witness


def test_petersen_value_via_unpruned_oracle():
    assert zf.brute_force_oracle(zf.generate("petersen")).value == 5
