"""Shared graph corpora, built deterministically from fixed seeds."""

from __future__ import annotations

import pytest

import zforce as zf


def build_random_corpus(count: int = 500) -> list[zf.Graph]:
    """Connected graphs with max degree >= 3 and n <= 12."""
    graphs = []
    seed = 0
    while len(graphs) < count:
        n = 4 + seed % 9
        p = 0.18 + 0.07 * (seed % 8)
        g = zf.random_gnp(n, p, seed)
        seed += 1
        if zf.is_connected(g) and g.max_degree() >= 3:
            graphs.append(g)
    return graphs


def has_k33_component(g: zf.Graph) -> bool:
    return any(
        zf.complete_bipartite_parts(g.induced(c)) == (3, 3)
        for c in g.components
        if c.bit_count() == 6
    )


def build_cubic_trianglefree_corpus(count: int = 50) -> list[zf.Graph]:
    graphs = []
    seed = 0
    while len(graphs) < count:
        n = (8, 10, 12, 14, 16)[seed % 5]
        try:
            g = zf.random_regular(n, 3, seed, min_girth=4, max_tries=100)
        except ValueError:
            seed += 1
            continue
        seed += 1
        if not has_k33_component(g):
            graphs.append(g)
    return graphs


def build_cubic_girth5_corpus(count: int = 30) -> list[zf.Graph]:
    graphs = [zf.generate("petersen"), zf.heawood()]
    seed = 0
    sizes = (14, 16, 18, 20, 22, 24, 26, 28, 30)
    while len(graphs) < count:
        n = sizes[seed % len(sizes)]
        try:
            g = zf.random_regular(n, 3, seed, min_girth=5, max_tries=300)
        except ValueError:
            seed += 1
            continue
        seed += 1
        if zf.is_connected(g):
            graphs.append(g)
    return graphs


def named_graph_map() -> dict[str, zf.Graph]:
    out = {
        "K2": zf.complete(2),
        "K3": zf.complete(3),
        "K4": zf.complete(4),
        "K5": zf.complete(5),
        "K6": zf.complete(6),
        "K13": zf.complete_bipartite(1, 3),
        "K23": zf.complete_bipartite(2, 3),
        "K33": zf.complete_bipartite(3, 3),
        "K34": zf.complete_bipartite(3, 4),
        "K44": zf.complete_bipartite(4, 4),
        "petersen": zf.generate("petersen"),
        "heawood": zf.heawood(),
        "g1": zf.g1(),
        "g2": zf.g2(),
        "subdivided_k33": zf.subdivided_k33(),
    }
    for n in range(3, 9):
        out[f"C{n}"] = zf.cycle(n)
    for n in range(1, 9):
        out[f"P{n}"] = zf.path(n)
    return out


@pytest.fixture(scope="session")
def random_corpus() -> list[zf.Graph]:
    return build_random_corpus()


@pytest.fixture(scope="session")
def cubic_tf_corpus() -> list[zf.Graph]:
    return build_cubic_trianglefree_corpus()


@pytest.fixture(scope="session")
def cubic_g5_corpus() -> list[zf.Graph]:
    return build_cubic_girth5_corpus()


@pytest.fixture(scope="session")
def named_graphs() -> dict[str, zf.Graph]:
    return named_graph_map()


@pytest.fixture(scope="session")
def exact_z():
    """Memoized exact zero forcing number, shared across the session."""
    cache: dict[zf.Graph, int] = {}

    def solve(g: zf.Graph) -> int:
        if g not in cache:
            cache[g] = zf.zero_forcing_number(g).value
        return cache[g]

    return solve
