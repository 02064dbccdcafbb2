"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (visible with -s or -v),
and every tolerance is pinned here, not deferred.
"""

import json
import random
import time
from fractions import Fraction
from itertools import permutations

import zforce as zf
from test_bounds import TYPE_PROBABILITIES, classify, subcubic_size_ok
from test_heuristics import meets_seed_rule
from zforce.cli import main as cli_main
from zforce.graph import bit_list
from zforce.heuristics import greedy_extend, greedy_ratio_zfs, subcubic_girth5_zfs
from zforce.ratmath import girth5_regular_factor


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_named_exact_values():
    cases = [
        (zf.complete(4), 3),
        (zf.complete(5), 4),
        (zf.complete_bipartite(3, 3), 4),
        (zf.complete_bipartite(2, 3), 3),
        (zf.g1(), 3),
        (zf.g2(), 5),
    ]
    for g, want in cases:
        start = time.monotonic()
        assert zf.zero_forcing_number(g).value == want
        assert time.monotonic() - start < 1.0
    for n in range(1, 13):
        assert zf.zero_forcing_number(zf.path(n)).value == 1
    start = time.monotonic()
    assert zf.brute_force_oracle(zf.generate("petersen")).value == 5
    assert zf.zero_forcing_number(zf.generate("petersen")).value == 5
    assert time.monotonic() - start < 60.0
    _report(1, "named exact values match, each under the time cap")


def test_criterion_02_ratio_bound_iff(random_corpus, named_graphs, exact_z):
    pool = random_corpus + [g for g in named_graphs.values()]
    assert len(random_corpus) >= 500
    checked = 0
    for g in pool:
        if not zf.is_connected(g) or g.max_degree() < 3:
            continue
        d, n = g.max_degree(), g.n
        if zf.exceptional_tag(g) is None:
            z = exact_z(g) if n <= 12 else None
            if z is not None:
                assert z <= (d - 2) * n // (d - 1)
            res = greedy_ratio_zfs(g)
            assert zf.is_zero_forcing_set(g, res.zfs)
            assert res.size <= (d - 2) * n // (d - 1)
        else:
            assert Fraction(exact_z(g)) > Fraction((d - 2) * n, d - 1)
        checked += 1
    assert checked >= 500
    for g in (zf.complete(4), zf.complete_bipartite(3, 3),
              zf.complete_bipartite(2, 3), zf.g1(), zf.g2(), zf.subdivided_k33()):
        d, n = g.max_degree(), g.n
        assert Fraction(exact_z(g)) > Fraction((d - 2) * n, d - 1)
    _report(2, f"ratio bound holds with witnesses on {checked} graphs; "
               "all six exceptions violate it")


def _subdivide(g):
    edges = g.edges()
    out = []
    nxt = g.n
    for u, v in edges:
        out += [(u, nxt), (nxt, v)]
        nxt += 1
    return zf.Graph.from_edges(nxt, out)


def test_criterion_03_girth_lower_sandwich(random_corpus, cubic_g5_corpus, exact_z):
    pool = random_corpus + [zf.cycle(5), zf.cycle(6), zf.heawood()]
    pool += [g for g in cubic_g5_corpus if g.n <= 16]
    # subdividing a triangle-rich graph gives girth 6 at minimum degree 2
    pool += [_subdivide(zf.complete(4)), _subdivide(zf.complete(5))]
    for seed in range(60):
        try:
            pool.append(zf.random_regular((12, 14, 16)[seed % 3], 3, seed + 1000,
                                          min_girth=5, max_tries=150))
        except ValueError:
            continue
    checked = 0
    for g in pool:
        gir = g.girth
        if gir not in (5, 6) or g.min_degree() < 2 or g.n > 16:
            continue
        bound = (gir - 2) * (g.min_degree() - 2) + 2
        assert bound <= exact_z(g)
        checked += 1
    pet = zf.generate("petersen")
    assert exact_z(pet) == 5 == (5 - 2) * (3 - 2) + 2
    assert checked >= 15
    _report(3, f"girth lower bound below exact Z on {checked} graphs; "
               "equality on the 10-vertex 3-regular girth-5 graph")


def test_criterion_04_random_order_sets(random_corpus, exact_z):
    # Bound once: each package attribute lookup imports through __getattr__.
    permutation_to_set, is_zero_forcing_set = zf.permutation_to_set, zf.is_zero_forcing_set
    for g in random_corpus:
        if g.n == 6:
            for order in permutations(range(6)):
                z = permutation_to_set(g, list(order))
                assert is_zero_forcing_set(g, z)
    rng = random.Random(20250808)
    for g in random_corpus:
        if g.n > 6:
            order = list(range(g.n))
            for _ in range(1000):
                rng.shuffle(order)
                z = permutation_to_set(g, order)
                assert is_zero_forcing_set(g, z)
    pet = zf.generate("petersen")
    assert zf.expected_size(pet) == Fraction(81, 14)
    trials = 100_000
    total = 0
    total_sq = 0
    base = list(range(10))
    for t in range(trials):
        order = base[:]
        random.Random(900_000_000 + t).shuffle(order)
        size = permutation_to_set(pet, order).bit_count()
        total += size
        total_sq += size * size
    mean = total / trials
    var = total_sq / trials - mean * mean
    stderr = (var / trials) ** 0.5
    assert abs(mean - 81 / 14) <= 4 * stderr, (mean, stderr)
    for g in random_corpus:
        if g.n <= 12:
            assert zf.expected_size(g) >= exact_z(g)
    _report(4, f"random-order sets always force; empirical mean {mean:.4f} "
               f"within 4 stderr of 81/14; expectation dominates exact Z")


def test_criterion_05_regular_factor_constants():
    assert girth5_regular_factor(3) == Fraction(81, 140)
    assert girth5_regular_factor(4) == Fraction(2048, 3315)
    assert girth5_regular_factor(5) == Fraction(15625, 24024)
    for r in range(4, 51):
        assert girth5_regular_factor(r) < Fraction(r - 2, r - 1)
    _report(5, "product constants exact; factor beats (r-2)/(r-1) for r=4..50")


def test_criterion_06_cubic_trianglefree_types(cubic_tf_corpus, exact_z):
    assert len(cubic_tf_corpus) >= 50
    for g in cubic_tf_corpus:
        total = Fraction(0)
        for u in range(g.n):
            t = classify(g, u)
            assert 1 <= t.index <= 7
            assert t.probability == TYPE_PROBABILITIES[t.index]
            total += t.probability
        assert total == zf.expected_size(g)
        if g.n <= 12:
            assert exact_z(g) <= total
    _report(6, f"all vertices of {len(cubic_tf_corpus)} cubic triangle-free "
               "graphs classified; type sums equal the exact expectation")


def test_criterion_07_subcubic_girth5_algorithm(cubic_g5_corpus):
    assert len(cubic_g5_corpus) >= 30
    assert all(g.n <= 30 for g in cubic_g5_corpus)
    for g in cubic_g5_corpus:
        res = subcubic_girth5_zfs(g)  # per-step contracts assert inside
        assert zf.is_zero_forcing_set(g, res.zfs)
        assert subcubic_size_ok(g.n, res.size)
    _report(7, f"log-improved construction valid and within bound on "
               f"{len(cubic_g5_corpus)} cubic girth-5 graphs")


def test_criterion_08_greedy_from_random_seeds(random_corpus):
    rng = random.Random(88)
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
        z0 = g.closed_neighborhood(v) ^ (1 << nbrs[rng.randrange(len(nbrs))])
        if rng.random() < 0.25:
            z0 |= 1 << rng.randrange(g.n)
        if not meets_seed_rule(g, z0):
            continue
        res = greedy_extend(g, z0)  # ratio + no-isolated checked per round
        d = g.max_degree()
        assert zf.is_zero_forcing_set(g, res.zfs)
        assert res.size <= (d - 2) * g.n // (d - 1)
        ran += 1
    _report(8, "greedy extension kept the seed invariant and the size bound "
               "across 1000 random valid seeds")


def test_criterion_09_solver_agrees_with_oracle(random_corpus, named_graphs, exact_z):
    count = 0
    for g in random_corpus + list(named_graphs.values()):
        if g.n <= 12:
            assert exact_z(g) == zf.brute_force_oracle(g).value
            count += 1
    assert count >= 500
    _report(9, f"pruned solver equals the unpruned oracle on {count} graphs")


def test_criterion_10_conjecture_hunt(random_corpus, cubic_tf_corpus,
                                      cubic_g5_corpus, named_graphs,
                                      tmp_path, capsys):
    cubic = [g for g in random_corpus + cubic_tf_corpus + cubic_g5_corpus
             + list(named_graphs.values())
             if g.is_regular() == 3 and zf.is_connected(g)]
    assert len(cubic) >= 60
    batch = tmp_path / "cubic.g6"
    batch.write_text("\n".join(zf.to_graph6(g) for g in cubic) + "\n")
    code = cli_main(["verify", str(batch), "--exact-limit", "12"])
    out = capsys.readouterr().out
    summary = json.loads(out.splitlines()[-1])
    assert code == 0
    assert summary["violations"] == 0
    assert summary["conjecture_counterexamples"] == 0
    # independent of the CLI: check the predicate against exact values
    for g in cubic:
        if g.n <= 12:
            assert 3 * zf.zero_forcing_number(g).value <= g.n + 6
    _report(10, f"no n/3 + 2 counterexample among {len(cubic)} connected "
                "cubic graphs")
