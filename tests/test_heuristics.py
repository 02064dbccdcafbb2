"""Seeds, greedy extension, randomized sets, extension patterns."""

import dataclasses
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import zforce as zf
from test_bounds import subcubic_size_ok
from test_forcing import with_isolated_vertex
from zforce import forcing, heuristics
from zforce.families import _shuffle, _stream_seed
from zforce.graph import bit_list, bits, mask_of
from zforce.heuristics import (
    ExtensionSubgraph,
    _augmentation,
    find_extension_subgraph,
    find_seed,
    greedy_extend,
    greedy_ratio_zfs,
    subcubic_girth5_zfs,
)
from zforce.ratmath import log_budget


def meets_seed_rule(g, z0):
    """The seed rule, stated apart from the code under test: z0 is
    non-empty, |closure| * (D-2) >= |z0| * (D-1), and no closure vertex
    is isolated inside the closure."""
    d = g.max_degree()
    f = zf.closure_mask(g, z0)
    return (z0 != 0 and f.bit_count() * (d - 2) >= z0.bit_count() * (d - 1)
            and all(g.adj[v] & f for v in bits(f)))


def test_seed_rule_rejects_a_petersen_neighbourhood_seed():
    g = zf.generate("petersen")
    z0 = g.closed_neighborhood(0) ^ (g.adj[0] & -g.adj[0])
    f = zf.closure_mask(g, z0)
    assert f == g.closed_neighborhood(0)  # no isolated vertex, but ...
    assert f.bit_count() * (3 - 2) < z0.bit_count() * (3 - 1)  # ... 4 filled over 3 seeds
    assert not meets_seed_rule(g, z0)
    with pytest.raises(ValueError, match="seed rule"):
        greedy_extend(g, z0)


def test_low_degree_seed_always_works(random_corpus):
    for g in random_corpus:
        d = g.max_degree()
        low = [v for v in range(g.n) if g.degrees[v] <= d - 2 and g.degrees[v] >= 1]
        if not low or not zf.is_connected(g):
            continue
        v = low[0]
        u = (g.adj[v] & -g.adj[v]).bit_length() - 1
        z0 = g.closed_neighborhood(v) ^ (1 << u)
        assert meets_seed_rule(g, z0)
        greedy_extend(g, z0)


def test_find_seed_petersen_uses_cycle_construction():
    g = zf.generate("petersen")
    z0 = find_seed(g)
    assert meets_seed_rule(g, z0)
    # single closed neighborhoods can never satisfy the ratio on a cubic
    # girth-5 graph, so the seed must span a shortest cycle
    assert z0.bit_count() > 3


# Subcubic graphs of girth >= 5 in which no single closed neighbourhood
# minus a vertex is a seed, and the shortest cycle has degree-2 vertices:
# the Heawood graph with its seven chords subdivided, and two graphs found
# by searching random cubic graphs with some edges deleted or subdivided.
# Keyed by graph6, the value is the number of degree-2 vertices on the
# shortest cycle.
DEGREE_2_CYCLE_SEEDS = {
    "ThCGGC@?G?_@?@_?o_@A?AC?AC?@AA?O?OA?": 1,
    "IA_a^ASK?": 1,
    "N?E@IP_cCAG_A_K??E?": 2,
}


def test_girth5_seed_with_degree_2_cycle_vertices():
    for code, degree_2 in DEGREE_2_CYCLE_SEEDS.items():
        g = zf.parse_graph6(code)
        assert g.max_degree() == 3 and g.girth >= 5
        assert not any(meets_seed_rule(g, g.closed_neighborhood(v) & ~(1 << u))
                       for v in range(g.n) for u in g.neighbors[v])
        cyc = g.shortest_cycle
        assert sum(g.degrees[v] == 2 for v in cyc) == degree_2
        z0 = find_seed(g)
        assert z0 == heuristics._girth5_seed(g, cyc) and meets_seed_rule(g, z0)
        res = greedy_ratio_zfs(g)
        assert zf.is_zero_forcing_set(g, res.zfs) and res.size <= g.n // 2, code


def test_skipping_futile_seeds_changes_no_seed(random_corpus, cubic_tf_corpus, cubic_g5_corpus):
    # Every single-vertex seed of a cubic girth-5 graph is futile ...
    for g in cubic_g5_corpus:
        assert all(heuristics._futile_seeds(g, 3, v) for v in range(g.n))
    # ... and skipping such seeds leaves every search result as it was.
    graphs = [g for g in random_corpus[:200] + cubic_tf_corpus + cubic_g5_corpus
              if zf.exceptional_tag(g) is None]
    found = [find_seed(g) for g in graphs]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heuristics, "_futile_seeds", lambda g, d, v: False)
        assert [find_seed(g) for g in graphs] == found


def test_find_seed_tags_exceptions():
    # The message names the tag; greedy_ratio_zfs handles these graphs itself.
    for g, name in ((zf.complete(4), "complete"), (zf.complete_bipartite(3, 3), "balanced_bipartite"),
                    (zf.complete_bipartite(2, 3), "offset_bipartite"), (zf.g1(), "g1"),
                    (zf.g2(), "g2"), (zf.subdivided_k33(), "subdivided_k33")):
        with pytest.raises(ValueError, match=f"^the exceptional graph {name} has no seed$"):
            find_seed(g)


def test_ratio_construction_rejects_graphs_outside_its_hypothesis():
    # A claw beside an edge (disconnected, D = 3) and C5 (connected, D = 2).
    claw_and_edge = zf.Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
    for g in (claw_and_edge, zf.cycle(5)):
        for construct in (find_seed, lambda g: greedy_extend(g, 1), greedy_ratio_zfs):
            with pytest.raises(ValueError, match="^the ratio construction needs a connected "
                                                 "graph of maximum degree >= 3$"):
                construct(g)


def test_find_seed_valid_on_corpus_without_full_fallback(random_corpus):
    for g in random_corpus:
        if zf.exceptional_tag(g) is not None:
            continue
        assert meets_seed_rule(g, find_seed(g))


def test_find_seed_fails_loudly_past_its_structured_phases(monkeypatch):
    # On the cube (cubic, girth 4) every single-vertex seed is futile, so
    # with no girth-3/4 candidate the search has nothing left to try.
    cube = zf.Graph.from_edges(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
    assert meets_seed_rule(cube, find_seed(cube))
    monkeypatch.setattr(heuristics, "_short_girth_candidates", lambda g, cyc: iter(()))
    with pytest.raises(AssertionError, match="no structured seed"):
        find_seed(cube)


def test_greedy_extend_requires_valid_certificate():
    g = zf.generate("petersen")
    for bad in (0, 1 << 0):
        assert not meets_seed_rule(g, bad)
        with pytest.raises(ValueError, match="seed rule"):
            greedy_extend(g, bad)
    for out_of_range in (-1, 1 << g.n):
        with pytest.raises(ValueError, match="out-of-range"):
            greedy_extend(g, out_of_range)


def test_greedy_extend_noop_when_seed_already_forces():
    g = zf.path(4)
    # max degree below 3 is outside the greedy contract
    with pytest.raises(ValueError, match="maximum degree"):
        greedy_extend(g, 1)
    star = zf.complete_bipartite(1, 3)
    z0 = mask_of([2, 3])
    assert meets_seed_rule(star, z0) and zf.closure_mask(star, z0) == star.full_mask
    res = greedy_extend(star, z0)
    assert res.zfs == mask_of([2, 3])  # loop body never runs


def test_greedy_meets_ratio_bound_on_corpus(random_corpus, exact_z):
    for g in random_corpus[:150]:
        if zf.exceptional_tag(g) is not None:
            continue
        res = greedy_ratio_zfs(g)
        d = g.max_degree()
        assert zf.is_zero_forcing_set(g, res.zfs)
        assert res.size <= (d - 2) * g.n // (d - 1)
        assert res.size >= exact_z(g)
        assert res.bound_claim == Fraction((d - 2) * g.n, d - 1)


def test_greedy_ratio_zfs_on_exceptions_returns_minimum(named_graphs):
    for name, want in [("K4", 3), ("K33", 4), ("K23", 3), ("g1", 3), ("g2", 5),
                       ("subdivided_k33", 4), ("K5", 4), ("K44", 6), ("K34", 5)]:
        g = named_graphs[name]
        res = greedy_ratio_zfs(g)
        assert res.method == "exceptional" and zf.exceptional_tag(g) is not None
        assert res.size == want, name
        assert zf.is_zero_forcing_set(g, res.zfs)


def test_random_seed_fuzz_greedy(random_corpus):
    # criterion: 1000 random valid seeds, all extended within the bound
    rng = random.Random(2024)
    ran = 0
    idx = 0
    while ran < 1000:
        g = random_corpus[idx % len(random_corpus)]
        idx += 1
        if zf.exceptional_tag(g) is not None:
            continue
        v = rng.randrange(g.n)
        if not g.adj[v]:
            continue
        nbrs = bit_list(g.adj[v])
        u = nbrs[rng.randrange(len(nbrs))]
        z0 = g.closed_neighborhood(v) ^ (1 << u)
        if rng.random() < 0.3:
            z0 |= 1 << rng.randrange(g.n)
        if not meets_seed_rule(g, z0):
            continue
        res = greedy_extend(g, z0)  # internal checks assert the invariant
        d = g.max_degree()
        assert zf.is_zero_forcing_set(g, res.zfs)
        assert res.size <= (d - 2) * g.n // (d - 1)
        ran += 1
    assert ran == 1000


def reference_greedy_set(g, z):
    """The greedy extension recomputed in full every round: the
    closure of the whole filled set, and a scan for the smallest closure
    vertex with neighbors both inside and outside."""
    filled = zf.closure_mask(g, z)
    while filled != g.full_mask:
        v = next(v for v in bits(filled) if g.adj[v] & filled and g.adj[v] & ~filled)
        out = g.adj[v] & ~filled
        add = out ^ (out & -out)
        z |= add
        filled = zf.closure_mask(g, filled | add)
    return z


def test_greedy_extend_matches_the_full_recompute_loop(random_corpus, cubic_tf_corpus,
                                                     cubic_g5_corpus):
    rng = random.Random(7)
    checked = 0
    for g in random_corpus + cubic_tf_corpus + cubic_g5_corpus:
        if zf.exceptional_tag(g) is not None:
            continue
        seeds = [find_seed(g)]
        for _ in range(3):  # random valid seeds start from other closures
            v = rng.randrange(g.n)
            u = bit_list(g.adj[v])[rng.randrange(g.degrees[v])]
            seeds.append(g.closed_neighborhood(v) ^ (1 << u) | 1 << rng.randrange(g.n))
        for z0 in seeds:
            if meets_seed_rule(g, z0):
                assert greedy_extend(g, z0).zfs == reference_greedy_set(g, z0)
                checked += 1
    assert checked >= 600


def test_greedy_ratio_zfs_is_find_seed_then_greedy_extend(cubic_g5_corpus, monkeypatch):
    real_seed, real_extend = find_seed, greedy_extend
    calls = []
    monkeypatch.setattr(heuristics, "find_seed", lambda g: calls.append("seed") or real_seed(g))
    monkeypatch.setattr(heuristics, "greedy_extend",
                        lambda g, z0: calls.append("extend") or real_extend(g, z0))
    for g in cubic_g5_corpus[:5]:
        calls.clear()
        res = greedy_ratio_zfs(g)
        assert calls == ["seed", "extend"]
        copy = zf.Graph(g.n, g.adj)
        assert res.zfs == real_extend(copy, real_seed(copy)).zfs
    calls.clear()
    assert greedy_ratio_zfs(zf.complete(4)).method == "exceptional"
    assert calls == []


def test_constructions_keep_nothing_but_invariants_on_the_graph(cubic_g5_corpus):
    from functools import cached_property
    cached = {name for name, attr in vars(zf.Graph).items() if isinstance(attr, cached_property)}
    allowed = {"n", "adj", "degrees"} | cached
    for g in cubic_g5_corpus[:4]:
        greedy_ratio_zfs(g)
        subcubic_girth5_zfs(g)
        zf.random_zfs(g, 4, 0)
        zf.expected_size(g)
        zf.bounds_report(g, zf.zero_forcing_number(g))
        assert set(vars(g)) <= allowed


def test_greedy_extend_rejects_a_seed_whose_closure_isolates_a_vertex():
    g = zf.generate("petersen")
    far = next(v for v in range(g.n) if not g.closed_neighborhood(0) >> v & 1)
    z0 = mask_of([0, far])  # two vertices, neither can force
    assert zf.closure_mask(g, z0) == z0
    assert not meets_seed_rule(g, z0)
    with pytest.raises(ValueError, match="seed rule"):
        greedy_extend(g, z0)
    # A seed that meets the ratio: the hub 0 forces the path 4-5-6, which
    # stalls at 7 and 8, the two neighbours of the seed vertex 9.
    g = zf.Graph.from_edges(10, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6),
                                 (6, 7), (6, 8), (9, 7), (9, 8)])
    z0 = mask_of([0, 1, 2, 3, 9])
    f = zf.closure_mask(g, z0)
    assert f == mask_of([0, 1, 2, 3, 4, 5, 6, 9])
    assert f.bit_count() * (4 - 2) >= z0.bit_count() * (4 - 1)
    assert not g.adj[9] & f and not meets_seed_rule(g, z0)
    with pytest.raises(ValueError, match="seed rule"):
        greedy_extend(g, z0)


def test_greedy_extend_rejects_a_full_closure_that_misses_the_ratio():
    # The closure is already everything, with no vertex isolated, yet the
    # seed is too large for the ratio: the result would break the bound.
    petersen = zf.generate("petersen")
    star = zf.complete_bipartite(1, 3)
    for g, z0 in ((petersen, petersen.full_mask ^ 1), (star, star.full_mask)):
        assert zf.closure_mask(g, z0) == g.full_mask
        assert z0.bit_count() > Fraction((g.max_degree() - 2) * g.n, g.max_degree() - 1)
        assert not meets_seed_rule(g, z0)
        with pytest.raises(ValueError, match="seed rule"):
            greedy_extend(g, z0)


def test_greedy_extend_checks_newly_filled_vertices_for_isolation(cubic_g5_corpus,
                                                                   monkeypatch):
    # A closure that hands back a stray vertex with no filled neighbor
    # must trip the no-isolated check of the round that produced it.
    g = max(cubic_g5_corpus, key=lambda g: g.n)
    z0 = find_seed(g)
    real = heuristics.closure_core
    strays = []

    def leaky(adj, filled, pending):
        closed, stalled = real(adj, filled, pending)
        if filled != z0 and not strays:  # the first round's reclose
            stray = next(v for v in range(g.n) if not (adj[v] | 1 << v) & closed)
            strays.append(stray)
            closed |= 1 << stray
        return closed, stalled

    monkeypatch.setattr(heuristics, "closure_core", leaky)
    with pytest.raises(AssertionError, match="isolated"):
        greedy_extend(g, z0)
    assert strays


# -- randomized construction ---------------------------------------------


def test_random_zfs_k2():
    res = zf.random_zfs(zf.complete(2), trials=5, seed=1)
    assert res.size == 1
    assert res.bound_claim == 1


def test_random_zfs_deterministic():
    g = zf.generate("petersen")
    a = zf.random_zfs(g, trials=50, seed=9)
    b = zf.random_zfs(g, trials=50, seed=9)
    assert a.zfs == b.zfs and a.bound_claim == b.bound_claim
    c = zf.random_zfs(g, trials=50, seed=10)
    assert (a.zfs, a.bound_claim) != (c.zfs, c.bound_claim)


def test_random_zfs_keeps_the_least_size_then_vertex_list(random_corpus, cubic_g5_corpus):
    # random_zfs draws its orders with _shuffle; they must be Random.shuffle's, on
    # the smallest graphs and around isolated vertices too.  A single trial
    # leaves no choice, so it pins the first draw of each graph exactly.
    small = [zf.Graph(1, (0,)), zf.complete(2), zf.Graph(2, (0, 0)),
             with_isolated_vertex(zf.generate("petersen"), 4)]
    for g in small + random_corpus[:40] + cubic_g5_corpus[:5]:
        sets = []
        for t in range(32):
            order = list(range(g.n))
            random.Random(_stream_seed(0x5AF0, 3, t)).shuffle(order)
            sets.append(zf.permutation_to_set(g, order))
        best = min(sets, key=lambda z: (z.bit_count(), bit_list(z)))
        res = zf.random_zfs(g, trials=32, seed=3)
        assert res.zfs == best
        assert res.bound_claim == Fraction(sum(z.bit_count() for z in sets), 32)
        assert zf.random_zfs(g, trials=1, seed=3).zfs == sets[0]


def test_shuffle_draws_as_random_shuffle():
    # Same order and same generator state after, for every length around
    # the powers of two where the bit length of the draw steps down.
    for n in range(70):
        for seed in range(3):
            want, got = list(range(n)), list(range(n))
            reference, rng = random.Random(seed), random.Random(seed)
            reference.shuffle(want)
            _shuffle(got, rng.getrandbits)
            assert got == want and rng.getstate() == reference.getstate(), (n, seed)


def regular_by_random_shuffle(n, r, seed, min_girth, max_tries):
    """random_regular's pairing loop as it was written with Random.shuffle:
    the reference for its draws and its error messages."""
    if n < 1 or r < 0 or r >= n:
        raise ValueError("need 0 <= r < n")
    if n * r % 2:
        raise ValueError("n * r must be even")
    rng = random.Random(_stream_seed(0x7067, n, r, seed))
    stubs0 = [v for v in range(n) for _ in range(r)]
    for _ in range(max_tries):
        stubs = stubs0[:]
        rng.shuffle(stubs)
        rows = [0] * n
        for u, v in zip(stubs[::2], stubs[1::2]):
            if u == v or rows[u] >> v & 1:
                break
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            g = zf.Graph(n, tuple(rows))
            if min_girth is None or (g.girth or n + 1) >= min_girth:
                return g
    raise ValueError(f"no simple {r}-regular sample for n={n} within {max_tries} tries")


def test_random_regular_draws_as_random_shuffle():
    for n in range(1, 19):
        for r in range(5):
            for seed, min_girth in ((0, None), (1, 4), (2, 5)):
                try:
                    want = regular_by_random_shuffle(n, r, seed, min_girth, 40)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                        zf.random_regular(n, r, seed, min_girth=min_girth, max_tries=40)
                else:
                    assert zf.random_regular(n, r, seed, min_girth=min_girth, max_tries=40) == want


def test_random_zfs_requires_trials():
    with pytest.raises(ValueError):
        zf.random_zfs(zf.complete(2), trials=0)


def test_random_zfs_c5_finds_optimum():
    res = zf.random_zfs(zf.cycle(5), trials=200, seed=0)
    assert res.size == 2


def test_random_zfs_weak_expectation_bound(random_corpus):
    for g in random_corpus[:8]:
        res = zf.random_zfs(g, trials=10_000, seed=4)
        assert res.size <= res.bound_claim
        assert zf.is_zero_forcing_set(g, res.zfs)


def test_random_zfs_single_trial_claims_its_own_size(random_corpus):
    # One trial's mean is its size, so the claim holds exactly; the exact
    # expectation can sit below one draw (7 against 3161/504 here).
    g = zf.parse_graph6("IKoz_EOWO")
    res = zf.random_zfs(g, 1, 1)
    assert res.size == res.bound_claim == 7
    assert zf.expected_size(g) == Fraction(3161, 504)
    for g in random_corpus:
        for s in range(3):
            res = zf.random_zfs(g, 1, s)
            assert res.size <= res.bound_claim == res.size


# -- exact expectation ------------------------------------------------------


def test_expected_size_examples():
    assert zf.expected_size(zf.complete(2)) == 1
    for n in (5, 6, 7, 9):
        assert zf.expected_size(zf.cycle(n)) == Fraction(8 * n, 15)
    assert zf.expected_size(zf.generate("petersen")) == Fraction(81, 14)


def test_expected_size_is_upper_bound(random_corpus, exact_z):
    for g in random_corpus[:120]:
        assert zf.expected_size(g) >= exact_z(g)


def test_expected_size_is_the_sum_of_vertex_probabilities(random_corpus, cubic_g5_corpus):
    # one probability per key: sorted neighbor degrees at girth >= 5 and on
    # forests, the union sizes otherwise
    trees = [zf.path(7), zf.complete_bipartite(1, 5),
             zf.Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)])]
    pruned = [zf.Graph.from_edges(g.n, g.edges()[::2] + g.edges()[1::4]) for g in cubic_g5_corpus]
    # vertices 3 and 5 share their sorted union sizes but not their signature
    mixed = [zf.parse_graph6(r"Hiq\v^R")]
    for g in random_corpus[:100] + cubic_g5_corpus + trees + pruned + mixed:
        per_vertex = sum((zf.vertex_probability(g, u) for u in range(g.n)), Fraction(0))
        assert zf.expected_size(g) == per_vertex


def test_expected_size_degree_cap():
    with pytest.raises(ValueError):
        zf.vertex_probability(zf.complete_bipartite(1, 21), 0)
    with pytest.raises(ValueError, match="degree <= 20"):
        zf.expected_size(zf.complete_bipartite(1, 21))


def test_isolated_vertex_probability_one():
    g = zf.Graph.from_edges(3, [(0, 1)])
    assert zf.vertex_probability(g, 2) == 1
    # an isolated vertex's union sizes (1,) are a K2 vertex's neighbor
    # degrees: the memo of one graph must not answer for the other
    triangle_and_k1 = zf.Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert triangle_and_k1.girth == 3
    assert zf.expected_size(triangle_and_k1) == 3
    assert zf.expected_size(zf.complete(2)) == 1


# -- extension subgraphs -----------------------------------------------------


def pattern_candidates(g, f, cap_order):
    """Reference for the extension search: yield (order, r_count, kind,
    path, cycle) for every extension subgraph of order <= cap_order, by
    DFS over the simple paths leaving each boundary vertex of f."""
    boundary = [v for v in bits(f) if g.adj[v] & ~f]
    for f0 in boundary:
        path = [f0]
        on_path = 1 << f0

        def walk():
            nonlocal on_path
            x = path[-1]
            prev = path[-2] if len(path) > 1 else -1
            for y in bits(g.adj[x]):
                if y == prev:
                    continue
                if f >> y & 1:
                    if y == f0:
                        if len(path) >= 3 and len(path) <= cap_order:
                            yield (len(path), len(path) - 1, "d", (), tuple(path))
                    elif len(path) >= 2 and len(path) + 1 <= cap_order:
                        yield (len(path) + 1, len(path) - 1, "c", tuple(path) + (y,), ())
                    continue
                if on_path >> y & 1:
                    j = path.index(y)
                    if j >= 1 and len(path) <= cap_order:
                        yield (len(path), len(path) - 1, "e",
                               tuple(path[: j + 1]), tuple(path[j:]))
                    continue
                path.append(y)
                on_path |= 1 << y
                deg = g.degrees[y]
                if deg == 2 and len(path) <= cap_order:
                    yield (len(path), len(path) - 1, "a", tuple(path), ())
                if deg == 1 and len(path) >= 3 and len(path) <= cap_order:
                    yield (len(path), len(path) - 1, "b", tuple(path), ())
                if len(path) < cap_order:
                    yield from walk()
                path.pop()
                on_path ^= 1 << y

        yield from walk()


def _start_state(g):
    v = next(v for v in range(g.n) if g.degrees[v] == 3)
    u = (g.adj[v] & -g.adj[v]).bit_length() - 1
    return zf.closure_mask(g, g.closed_neighborhood(v) ^ (1 << u))


def test_extension_subgraph_petersen_shape():
    g = zf.generate("petersen")
    f = _start_state(g)
    h = find_extension_subgraph(g, f)
    assert h.kind in "abcde"
    assert h.vertex_set.bit_count() <= 7  # 2*log2(10) + 1 rounds down to 7
    assert h.vertex_set & f  # anchored on the filled boundary


def test_extension_subgraph_pendant_path_type_a():
    # spider: center 2 with three legs; fill one leg, the stalled center
    # is the boundary and the shortest probe ends at a degree-2 vertex
    g = zf.Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)])
    f = zf.closure_mask(g, mask_of([0, 1, 2]))
    assert f == mask_of([0, 1, 2])
    h = find_extension_subgraph(g, f)
    assert h.kind == "a"
    assert h.path == (2, 3)
    assert h.cycle == ()


def test_extension_subgraph_cycle_through_boundary_type_d():
    # single-boundary filled chain 0-1-2; the 5-cycle 2-3-4-5-6 runs
    # through the boundary, and everything unfilled nearby has degree 3,
    # so no path pattern can undercut the cycle
    g = zf.Graph.from_edges(13, [
        (0, 1), (1, 2), (2, 3), (2, 6), (3, 4), (4, 5), (5, 6), (3, 7),
        (4, 8), (5, 9), (6, 10), (7, 9), (7, 10), (8, 10), (8, 11),
        (9, 11), (11, 12),
    ])
    assert g.max_degree() == 3 and g.girth == 5
    f = mask_of([0, 1, 2])
    assert zf.closure_mask(g, f) == f
    h = find_extension_subgraph(g, f)
    assert h.kind == "d"
    assert h.cycle == (2, 3, 4, 5, 6)
    assert h.path == ()


def test_extension_subgraph_remote_cycle_type_e():
    # single boundary whose two arms enter a large cubic girth-5 region
    # five steps apart; a 5-cycle sits right behind one arm, so the
    # cheapest pattern is a one-edge path plus that cycle
    g6 = ("dg??P??@?O????A?E??????O?A??O?_GC@?O??A???_?C@?@?_???@_?AO?_B?"
          "?_??OAO?C?A?_??O?KG????_??A?C?K??C@??G?@???C??D??@")
    g = zf.parse_graph6(g6)
    assert g.max_degree() == 3 and g.girth == 5
    f = mask_of([0, 1, 2])
    assert zf.closure_mask(g, f) == f
    h = find_extension_subgraph(g, f)
    assert h.kind == "e"
    assert h.path[-1] == h.cycle[0]
    assert len(h.cycle) == 5


def test_search_by_increasing_order_matches_the_full_cap(cubic_g5_corpus):
    # every closed set the subcubic construction visits, compared with the
    # minimum over all candidates up to the order cap
    calls = 0
    for g in cubic_g5_corpus:
        filled = _start_state(g)
        while any(g.degrees[w] >= 2 for w in bits(g.full_mask ^ filled)):
            h = find_extension_subgraph(g, filled)
            _, _, kind, path, cyc = min(pattern_candidates(g, filled, log_budget(g.n) + 1))
            assert (h.kind, h.path, h.cycle) == (kind, path, cyc)
            filled = zf.closure_mask(g, filled | _augmentation(g, filled, h))
            calls += 1
    assert calls >= len(cubic_g5_corpus)


def test_augmentation_names_a_vertex_without_one_private_neighbor():
    # hand-built kind-a patterns that the search would not pick: in the
    # spider the interior vertex 3 has no neighbor outside the pattern and
    # f (the search stops at its degree-2 neighbor first); in the claw
    # with a tail the filled vertex 0 has two
    spider = zf.Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 7), (2, 5), (5, 6)])
    claw = zf.Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5)])
    for g, f, path, v in ((spider, mask_of([0, 1, 2]), (2, 3, 4), 3),
                          (claw, 1 << 0, (0, 1, 4), 0)):
        with pytest.raises(AssertionError,
                           match=f"^pattern a lacks the private neighbor of vertex {v}$"):
            _augmentation(g, f, ExtensionSubgraph("a", path, ()))


def test_extension_subgraph_preconditions():
    g = zf.generate("petersen")
    not_closed = g.closed_neighborhood(0) ^ (g.adj[0] & -g.adj[0])
    with pytest.raises(ValueError, match="closed"):
        find_extension_subgraph(g, not_closed)
    with pytest.raises(ValueError):
        find_extension_subgraph(zf.complete(5), zf.closure_mask(zf.complete(5), 0b111))
    with pytest.raises(ValueError, match="connected subgraph"):
        find_extension_subgraph(g, 1 << 0 | 1 << 7)
    # a closed spider body whose unfilled vertices are all leaves
    tree = zf.Graph.from_edges(10, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7),
                                    (3, 8), (3, 9)])
    with pytest.raises(ValueError, match="^the unfilled region has no vertex of degree >= 2$"):
        find_extension_subgraph(tree, 0b1111)


def test_subcubic_zfs_petersen():
    res = subcubic_girth5_zfs(zf.generate("petersen"))
    assert zf.is_zero_forcing_set(zf.generate("petersen"), res.zfs)
    assert res.size <= 6  # floor of the n=10 bound
    assert res.method == "subcubic"


def test_subcubic_zfs_contract_on_corpus(cubic_g5_corpus, exact_z):
    for g in cubic_g5_corpus:
        res = subcubic_girth5_zfs(g)  # per-step contracts assert internally
        assert zf.is_zero_forcing_set(g, res.zfs)
        assert subcubic_size_ok(g.n, res.size)
        assert res.size <= g.n - 1
        if g.n <= 12:
            assert res.size >= exact_z(g)


# Subcubic graphs of girth >= 5 whose runs take the rarer steps: an
# augmentation of kind b along a path of three vertices, one along more,
# one of kind e, and the finishing step that adds one pendant of each
# boundary vertex.  The first is the tree 0-1 0-4 0-5 1-2 1-7 2-3 2-6: the
# start {0, 4, 5} fills {0, 1, 4, 5}, and the path 1-2-3 to the leaf 3 is
# filled by adding 3 alone, which forces 2.  The others were found by
# searching random cubic girth-5 graphs, some with edges deleted and
# pendant paths attached.
RARE_SUBCUBIC_STEPS = {
    "Gha@A?": "b3",
    "O?iE?gGKB??L@COGa??C?": "b",
    "g???_O??_?C?????c?A??????@[O???__?_?@O_C???A?_?_a????G????G??`@??O?@?CG??_???A?O???"
    "CC??_???_AO?`?O??G?@@????O?AO?B???_G???CC@@?C???": "e",
    "P@?@?WC_AO`CCOT?GC@?G?C?": "pendant",
}


def test_subcubic_zfs_takes_its_rarer_steps_within_the_bound(monkeypatch):
    patterns, closures = [], []

    def augmentation(g, f, h):
        patterns.append(h)
        return _augmentation(g, f, h)

    def closure_core(adj, z, stalled):
        closures.append(forcing.closure_core(adj, z, stalled))
        return closures[-1]

    monkeypatch.setattr(heuristics, "_augmentation", augmentation)
    monkeypatch.setattr(heuristics, "closure_core", closure_core)
    for code, step in RARE_SUBCUBIC_STEPS.items():
        g = zf.parse_graph6(code)
        patterns.clear()
        res = subcubic_girth5_zfs(g)  # per-step contracts assert internally
        assert zf.is_zero_forcing_set(g, res.zfs) and subcubic_size_ok(g.n, res.size), code
        if step == "b3":
            assert patterns == [ExtensionSubgraph("b", (1, 2, 3), ())]
            assert res.zfs == mask_of([0, 3, 4, 5])
        elif step == "b":
            assert any(h.kind == "b" and len(h.path) > 3 for h in patterns)
        elif step == "e":
            assert any(h.kind == "e" for h in patterns)
        else:
            assert closures[-1][0] != g.full_mask  # the last augmentation left pendants


def test_subcubic_zfs_on_trees_with_degree_three():
    # girth is infinite, so the precondition holds vacuously
    g = zf.Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)])
    res = subcubic_girth5_zfs(g)
    assert zf.is_zero_forcing_set(g, res.zfs)


def test_subcubic_zfs_preconditions():
    petersen = zf.generate("petersen")
    two_petersens = zf.Graph.from_edges(
        20, petersen.edges() + [(u + 10, v + 10) for u, v in petersen.edges()])
    message = ("^the subcubic construction needs a connected graph "
               "of maximum degree 3 and girth >= 5$")
    # max degree 2, girth 3, girth 4, disconnected
    for g in (zf.cycle(6), zf.complete(4), zf.complete_bipartite(3, 3), two_petersens):
        with pytest.raises(ValueError, match=message):
            subcubic_girth5_zfs(g)
        with pytest.raises(ValueError, match=message):
            find_extension_subgraph(g, zf.closure_mask(g, g.closed_neighborhood(0)))


# -- traces ------------------------------------------------------------------


def test_traces_certify_every_construction(random_corpus, cubic_tf_corpus, cubic_g5_corpus,
                                           named_graphs):
    exceptional = [named_graphs[name] for name in ("K4", "K33", "K23", "g1", "g2", "subdivided_k33")]
    for g in random_corpus + cubic_tf_corpus + cubic_g5_corpus + exceptional:
        results = [zf.random_zfs(g, 8, 1)]
        if zf.is_connected(g):
            results.append(greedy_ratio_zfs(g))
        if g in cubic_g5_corpus:
            results.append(subcubic_girth5_zfs(g))
        for res in results:
            trace = zf.closure(g, res.zfs)
            assert trace.initial == res.zfs
            assert trace.closure == g.full_mask
            assert zf.trace_violation(g, trace) is None
            payload = res.to_json_dict(g)
            assert {key: payload[key] for key in ("initial", "steps", "closure")} == trace.to_json_dict()


def test_constructions_run_the_traced_closure_only_when_read(monkeypatch, named_graphs):
    real = forcing.closure
    calls = []

    def counted(g, z):
        calls.append(z)
        return real(g, z)

    # The package itself resolves zforce.closure in zforce.forcing; setting
    # the name on it would leave a stale binding behind after the undo.
    for name, module in list(sys.modules.items()):
        if name.startswith("zforce.") and vars(module).get("closure") is real:
            monkeypatch.setattr(module, "closure", counted)
    pet, k33 = zf.generate("petersen"), named_graphs["K33"]
    built = [(pet, greedy_ratio_zfs(pet)), (k33, greedy_ratio_zfs(k33)),
             (pet, subcubic_girth5_zfs(pet)), (pet, zf.random_zfs(pet, 8, 0))]
    assert calls == []
    for g, res in built:
        res.to_json_dict(g)  # the certificate is built from the graph given
    assert calls == [res.zfs for _, res in built]
    # A result holds its set and its claim, not the graph.
    assert [f.name for f in dataclasses.fields(heuristics.HeuristicResult)] == [
        "zfs", "method", "bound_claim"]


# -- outputs on a fixed batch ------------------------------------------------


def construct_line(g: zf.Graph) -> str:
    """The greedy, subcubic (outside the exceptional graphs) and random-order
    sets with their traces, and the exact expected size, as one JSON line."""
    record = {"greedy": greedy_ratio_zfs(g).to_json_dict(g)}
    if zf.exceptional_tag(g) is None:
        record["subcubic"] = subcubic_girth5_zfs(g).to_json_dict(g)
    record["random"] = zf.random_zfs(g, 32, 0).to_json_dict(g)
    e = zf.expected_size(g)
    record["expected_size"] = [e.numerator, e.denominator]
    return json.dumps(record) + "\n"


def test_construct_output_is_byte_identical_on_the_fixed_batch():
    # tests/data/construct_batch.g6: the first three construct-pool graphs of
    # each order 36..100 step 8, the 30 graphs of the cubic girth-5 corpus,
    # then K4, K3,3, K2,3, g1, g2 and the subdivided K3,3.  The expected
    # lines are kept byte for byte: a change to them must be stated on purpose.
    data = Path(__file__).resolve().parent / "data"
    codes = (data / "construct_batch.g6").read_text().split()
    expected = (data / "construct_batch.jsonl").read_text().splitlines(keepends=True)
    assert len(codes) == len(expected) == 63
    for code, want in zip(codes, expected):
        assert construct_line(zf.parse_graph6(code)) == want, code
