"""Workload inputs, built from the run's seed.

``verify_exact`` and ``verify_bounds`` are drawn afresh from the seed with
the package's own random models, as a user would draw a batch.  The
``exact_hard`` and ``construct`` inputs come from pools under ``data/``,
made once from the seed commit together with reference answers (see
``make_pools.py``): ``exact_hard`` relabels every pool graph with a seeded
permutation, which keeps Z and changes the solver's search order, and
``construct`` takes a seeded sample of each order, so that its set sizes
can be held to the seed commit's sizes graph by graph.

Every builder returns (graph6 line, reference) pairs, the reference being
the pool entry or None; the package sees only the graph6 lines.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle

WORKLOADS = ("verify_exact", "verify_bounds", "exact_hard", "construct")
DATA = Path(__file__).resolve().parent / "data"
SEED_STRIDE = 1_000_003  # keeps the generator seeds of two run seeds apart


def verify_exact(zf, seed: int, toy: bool) -> list[tuple[str, None]]:
    """The tests/conftest.py random corpus, then cubic triangle-free graphs."""
    count, cubic = (40, 5) if toy else (500, 50)
    lines = []
    s = base = seed * SEED_STRIDE
    while len(lines) < count:
        n = 4 + s % 9
        g = zf.random_gnp(n, 0.18 + 0.07 * (s % 8), s)
        s += 1
        if zf.is_connected(g) and g.max_degree() >= 3:
            lines.append((graph6_of(g), None))
    s = base
    while len(lines) < count + cubic:
        try:
            g = zf.random_regular((8, 10, 12, 14, 16)[s % 5], 3, s, min_girth=4, max_tries=100)
        except ValueError:
            pass
        else:
            lines.append((graph6_of(g), None))
        s += 1
    return lines


def verify_bounds(zf, seed: int, toy: bool) -> list[tuple[str, None]]:
    """Orders 30..200: sparse G(n, 3/n) and cubic girth >= 4 graphs drawn
    from the seed, and two cubic girth-5 graphs of each order 36..100 from
    the construct pool (drawing those afresh would make set-up time swing
    with the rejection sampler's luck)."""
    rng = random.Random(seed)
    lines = []
    s = seed * SEED_STRIDE
    for n in range(30, 61, 10) if toy else range(30, 201, 10):
        lines.append((graph6_of(zf.random_gnp(n, 3 / n, s)), None))
        lines.append((graph6_of(zf.random_regular(n, 3, s, min_girth=4)), None))
        s += 1
    by_order = construct_pool_by_order()
    for n in sorted(by_order)[:2] if toy else sorted(by_order):
        lines += [(e["graph6"], None) for e in rng.sample(by_order[n], 2)]
    return lines


def exact_hard(zf, seed: int, toy: bool) -> list[tuple[str, dict]]:
    """Every pool graph under a seeded relabelling."""
    rng = random.Random(seed)
    pool = load_pool("exact_hard")
    if toy:
        pool = sorted(pool, key=lambda e: e["closures"])[:3]
    lines = []
    for entry in pool:
        n, adj = oracle.decode_graph6(entry["graph6"])
        perm = list(range(n))
        rng.shuffle(perm)
        lines.append((oracle.encode_graph6(n, oracle.relabel(n, adj, perm)), entry))
    return lines


# Nine orders, so that the median call falls inside one order's cluster;
# a run samples CONSTRUCT_PER_ORDER of the pool's graphs of each order.
CONSTRUCT_ORDERS = range(36, 101, 8)
CONSTRUCT_POOL_PER_ORDER, CONSTRUCT_PER_ORDER = 14, 10
RANDOM_TRIALS, RANDOM_SEED = 32, 0  # the random_zfs call of construct


def construct(zf, seed: int, toy: bool) -> list[tuple[str, dict]]:
    """A seeded sample of CONSTRUCT_PER_ORDER pool graphs of each order."""
    rng = random.Random(seed)
    by_order = construct_pool_by_order()
    orders = sorted(by_order)[:2] if toy else sorted(by_order)
    per_order = 1 if toy else CONSTRUCT_PER_ORDER
    return [(e["graph6"], e) for n in orders for e in rng.sample(by_order[n], per_order)]


BUILDERS = {
    "verify_exact": verify_exact,
    "verify_bounds": verify_bounds,
    "exact_hard": exact_hard,
    "construct": construct,
}


def load_pool(name: str) -> list[dict]:
    with open(DATA / f"{name}.json", encoding="ascii") as handle:
        return json.load(handle)["graphs"]


def construct_pool_by_order() -> dict[int, list[dict]]:
    by_order: dict[int, list[dict]] = {}
    for entry in load_pool("construct"):
        by_order.setdefault(entry["n"], []).append(entry)
    return by_order


def graph6_of(g) -> str:
    return oracle.encode_graph6(g.n, list(g.adj))


def describe(lines: list[str]) -> dict:
    """Graph count, order and edge ranges, and the degree mix of a batch."""
    orders, edges, degree_mix = [], [], {}
    for line in lines:
        n, adj = oracle.decode_graph6(line)
        orders.append(n)
        edges.append(sum(a.bit_count() for a in adj) // 2)
        for a in adj:
            degree_mix[a.bit_count()] = degree_mix.get(a.bit_count(), 0) + 1
    return {
        "graphs": len(lines),
        "n_range": [min(orders), max(orders)],
        "edge_range": [min(edges), max(edges)],
        "edges_total": sum(edges),
        "degree_mix": {str(d): degree_mix[d] for d in sorted(degree_mix)},
    }
