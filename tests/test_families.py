"""Named families, random models, and recognizers."""

from itertools import permutations

import pytest

import zforce as zf
from zforce.families import ExceptionalGraph, complete_bipartite_parts


def test_generate_dispatch_and_arity():
    assert zf.generate("complete", 4).edge_count() == 6
    with pytest.raises(ValueError, match="unknown family"):
        zf.generate("hypercube")
    with pytest.raises(ValueError, match="parameter"):
        zf.generate("cycle")
    with pytest.raises(ValueError):
        zf.generate("cycle", 2)


def test_complete_bipartite_girth_four():
    for a in range(2, 5):
        for b in range(2, 5):
            assert zf.girth(zf.complete_bipartite(a, b)) == 4


def test_petersen_shape():
    g = zf.generate("petersen")
    assert g.n == 10 and g.is_regular() == 3 and zf.girth(g) == 5


def test_heawood_shape():
    g = zf.heawood()
    assert g.n == 14 and g.is_regular() == 3 and zf.girth(g) == 6


def test_g1_shape():
    g = zf.g1()
    assert g.n == 5 and g.edge_count() == 7
    assert sorted(g.degrees) == [2, 3, 3, 3, 3]


def test_g2_shape_and_complement_structure():
    g = zf.g2()
    assert g.n == 7 and g.edge_count() == 14 and g.is_regular() == 4
    comp = g.complement()
    # complement must be a disjoint triangle plus a 4-cycle
    comps = comp.components
    sizes = sorted(c.bit_count() for c in comps)
    assert sizes == [3, 4]
    for c in comps:
        sub = comp.induced(c)
        assert sub.is_regular() == 2
        assert zf.girth(sub) == sub.n


def test_subdivided_k33_shape_and_value():
    g = zf.generate("subdivided_k33")
    assert g.n == 7 and g.edge_count() == 10 and g.max_degree() == 3
    assert zf.exceptional_tag(zf.parse_graph6("FsPpo")) is ExceptionalGraph.SUBDIVIDED_K33
    # Z = 4 exceeds (D-2)n/(D-1) = 7/2, so the graph is exceptional
    assert zf.brute_force_oracle(g).value == 4


def test_random_gnp_deterministic_and_seed_sensitive():
    a = zf.random_gnp(10, 0.4, seed=5)
    b = zf.random_gnp(10, 0.4, seed=5)
    c = zf.random_gnp(10, 0.4, seed=6)
    assert a == b
    assert a != c


def test_random_regular_is_simple_and_regular():
    for seed in range(10):
        g = zf.random_regular(12, 3, seed)
        assert g.is_regular() == 3


def test_random_regular_girth_filter():
    g = zf.random_regular(16, 3, seed=1, min_girth=5)
    assert (zf.girth(g) or 99) >= 5


def test_random_regular_rejects_bad_params():
    with pytest.raises(ValueError, match="even"):
        zf.random_regular(5, 3, seed=0)
    with pytest.raises(ValueError):
        zf.random_regular(4, 4, seed=0)
    with pytest.raises(ValueError, match="tries"):
        zf.random_regular(8, 3, seed=0, min_girth=7, max_tries=3)


@pytest.mark.parametrize("call, message", [
    (lambda: zf.complete(0), "^complete graph needs n >= 1$"),
    (lambda: zf.complete_bipartite(0, 2), "^complete bipartite graph needs both sides nonempty$"),
    (lambda: zf.path(0), "^path needs n >= 1$"),
    (lambda: zf.random_gnp(3, 1.5, 0), "^need n >= 1 and 0 <= p <= 1$"),
], ids=["complete", "complete_bipartite", "path", "random_gnp"])
def test_family_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_complete_bipartite_recognizer():
    assert complete_bipartite_parts(zf.complete_bipartite(2, 3)) == (2, 3)
    assert complete_bipartite_parts(zf.complete_bipartite(4, 4)) == (4, 4)
    assert complete_bipartite_parts(zf.cycle(4)) == (2, 2)
    assert complete_bipartite_parts(zf.cycle(5)) is None
    # every vertex shares vertex 0's (empty) neighborhood: no second side
    assert complete_bipartite_parts(zf.Graph(3, (0, 0, 0))) is None
    assert complete_bipartite_parts(zf.complete(3)) is None


def relabellings(g: zf.Graph):
    for perm in permutations(range(g.n)):
        yield zf.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_sporadic_tags_hold_under_every_relabelling():
    for g, tag in ((zf.g1(), ExceptionalGraph.SPORADIC_5),
                   (zf.g2(), ExceptionalGraph.SPORADIC_7),
                   (zf.subdivided_k33(), ExceptionalGraph.SUBDIVIDED_K33)):
        assert all(zf.exceptional_tag(h) is tag for h in relabellings(g))
    assert zf.exceptional_tag(zf.cycle(5)) is None
    assert zf.exceptional_tag(zf.cycle(7).complement()) is None


def test_exceptional_tags():
    assert zf.exceptional_tag(zf.complete(4)) is ExceptionalGraph.COMPLETE
    assert zf.exceptional_tag(zf.complete(6)) is ExceptionalGraph.COMPLETE
    assert zf.exceptional_tag(zf.complete_bipartite(3, 3)) is ExceptionalGraph.BALANCED_BIPARTITE
    assert zf.exceptional_tag(zf.complete_bipartite(2, 3)) is ExceptionalGraph.OFFSET_BIPARTITE
    assert zf.exceptional_tag(zf.g1()) is ExceptionalGraph.SPORADIC_5
    assert zf.exceptional_tag(zf.g2()) is ExceptionalGraph.SPORADIC_7
    assert zf.exceptional_tag(zf.subdivided_k33()) is ExceptionalGraph.SUBDIVIDED_K33
    assert zf.exceptional_tag(zf.parse_graph6("FsPpo")) is ExceptionalGraph.SUBDIVIDED_K33
    assert zf.exceptional_tag(zf.generate("petersen")) is None
    assert zf.exceptional_tag(zf.complete_bipartite(2, 4)) is None
    assert zf.exceptional_tag(zf.cycle(6)) is None  # max degree below 3


def test_other_4regular_order7_graph_is_not_sporadic():
    # complement of C7 is the only other 4-regular graph on 7 vertices
    other = zf.cycle(7).complement()
    assert other.is_regular() == 4
    assert zf.exceptional_tag(other) is None
