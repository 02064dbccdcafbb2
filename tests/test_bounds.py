"""Bound formulas, vertex classification, and the report."""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

import zforce as zf
from zforce.bounds import bounds_report, lower_girth_degree
from zforce.ratmath import (
    girth5_regular_factor,
    harmonic,
    log2_overestimate,
    log_budget,
    running_ratio_ok,
    subcubic_girth5_value,
)

#: The seven distance-2 neighborhood shapes a vertex of a cubic
#: triangle-free graph (no K_{3,3} component) can have, keyed by their
#: exact inclusion probability under the random-order construction.
TYPE_PROBABILITIES: dict[int, Fraction] = {
    1: Fraction(81, 140),
    2: Fraction(149, 252),
    3: Fraction(5, 8),
    4: Fraction(171, 280),
    5: Fraction(101, 168),
    6: Fraction(269, 420),
    7: Fraction(17, 28),
}

_PROBABILITY_TO_TYPE = {p: i for i, p in TYPE_PROBABILITIES.items()}


class VertexType(NamedTuple):
    index: int
    probability: Fraction


def classify(g, u) -> VertexType:
    """Type 1..7 of a vertex in a cubic triangle-free graph.

    The seven types have pairwise distinct inclusion probabilities, so
    the exact probability identifies the type.  A probability outside
    the table signals a precondition violation (triangle, non-cubic
    vertex nearby, or a K_{3,3} component).
    """
    p = zf.vertex_probability(g, u)
    index = _PROBABILITY_TO_TYPE.get(p)
    if index is None:
        raise ValueError(
            f"vertex {u} has inclusion probability {p}, outside the seven "
            "cubic triangle-free types; check for triangles, degrees != 3, "
            "or a K_3,3 component"
        )
    return VertexType(index, p)


def subcubic_size_ok(n: int, size: int) -> bool:
    """Exact check of size <= n/2 - n/(24*log2(n)+6) + 2, no rounding.

    Rearranges to an integer power comparison: with t = size - 2 and
    s = n - 2t, the inequality holds iff s > 0 and either 3s >= n or
    n**(12s) >= 2**(n - 3s).
    """
    if n < 4:
        raise ValueError("the subcubic bound needs n >= 4")
    t = size - 2
    if t < 0:
        return True
    s = n - 2 * t
    if s <= 0:
        return False
    if 3 * s >= n:
        return True
    return n ** (12 * s) >= 1 << (n - 3 * s)


def entry_of(g, name):
    return next(e for e in bounds_report(g).entries if e.name == name)


def test_degree_ratio_values():
    assert entry_of(zf.complete(4), "degree_ratio").value == 3
    assert entry_of(zf.generate("petersen"), "degree_ratio").value == Fraction(15, 2)
    assert entry_of(zf.cycle(6), "degree_ratio").value == 4
    p2 = entry_of(zf.path(2), "degree_ratio")
    assert not p2.applicable and p2.value is None
    assert p2.reason == "needs connected, max degree >= 2"


def test_degree_refined_values():
    assert entry_of(zf.cycle(6), "degree_refined").value == 2  # cycles are extremal
    assert entry_of(zf.complete_bipartite(4, 4), "degree_refined").value == 6
    assert entry_of(zf.complete(4), "degree_refined").value == 3


def test_noncomplete_values():
    assert entry_of(zf.generate("petersen"), "noncomplete").value == Fraction(20, 3)
    assert entry_of(zf.complete_bipartite(3, 3), "noncomplete").value == 4


def test_girth_degree_lower_values():
    assert lower_girth_degree(5, 3) == 5
    assert lower_girth_degree(6, 3) == 6
    assert lower_girth_degree(5, 2) == 2
    with pytest.raises(ValueError):
        lower_girth_degree(2, 3)


def test_harmonic_values():
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(5) == Fraction(137, 60)


def test_regular_factor_values():
    assert girth5_regular_factor(3) == Fraction(81, 140)
    assert girth5_regular_factor(4) == Fraction(2048, 3315)
    assert girth5_regular_factor(5) == Fraction(15625, 24024)
    assert girth5_regular_factor(2) == Fraction(8, 15)


def test_regular_factor_below_refined_ratio():
    for r in range(4, 51):
        assert girth5_regular_factor(r) < Fraction(r - 2, r - 1)
    assert girth5_regular_factor(3) > Fraction(1, 2)  # r=3 goes the other way


def test_log2_overestimate_certified():
    import math
    for n in (3, 5, 6, 7, 10, 100, 1000, 12345):
        lg = log2_overestimate(n)
        assert 0 <= float(lg) - math.log2(n) < 1e-9
    for k in range(1, 12):
        assert log2_overestimate(1 << k) == k


def test_log2_overestimate_exact_direction_at_low_precision(monkeypatch):
    # at 16 fractional bits the certificate is checkable with plain ints
    monkeypatch.setattr(zf.ratmath, "LOG2_FRAC_BITS", 16)
    for n in (3, 5, 10, 42, 63):
        lg = log2_overestimate(n)
        assert (lg * (1 << 16)).denominator == 1  # a 16-bit dyadic
        assert n ** lg.denominator <= 2 ** lg.numerator


@pytest.mark.parametrize("call, message", [
    (lambda: harmonic(-1), "^harmonic number needs r >= 0$"),
    (lambda: lower_girth_degree(5, 1), "^needs minimum degree >= 2$"),
    (lambda: girth5_regular_factor(-1), "^regular factor needs r >= 0$"),
    (lambda: log2_overestimate(0), "^log2 needs n >= 1$"),
    (lambda: subcubic_girth5_value(3), "^the subcubic bound needs n >= 4$"),
], ids=["harmonic", "girth_degree_delta", "regular_factor", "log2", "subcubic_value"])
def test_ratmath_argument_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_log_budget_is_the_largest_c_with_two_to_the_c_within_n_squared():
    for n in range(1, 2001):
        c = log_budget(n)
        assert 2 ** c <= n * n < 2 ** (c + 1), n


@pytest.mark.parametrize("n, z_size, closure_size, ok", [
    (10, 2, 0, True),    # t = |Z| - 2 <= 0: holds whatever |F|
    (10, 3, 2, False),   # m = 2|F| - 4t = 0
    (10, 5, 3, False),   # m < 0
    (2, 5, 7, False),    # m = 2: 2**2 < 2**3, so 3/7 > 1/2 - 1/10
    (2, 5, 8, True),     # m = 4: 2**4 >= 2**3, so 3/8 <= 1/2 - 1/10
], ids=["small_set", "zero_margin", "negative_margin", "power_fails", "power_holds"])
def test_running_ratio_ok_branches(n, z_size, closure_size, ok):
    assert running_ratio_ok(n, z_size, closure_size) is ok


def test_subcubic_value_examples():
    import math
    assert subcubic_girth5_value(4) == Fraction(4) - Fraction(2, 27)
    v = float(subcubic_girth5_value(10))
    assert abs(v - (5 - 10 / (24 * math.log2(10) + 6) + 2)) < 1e-6
    # powers of two evaluate exactly
    assert subcubic_girth5_value(16) == Fraction(10) - Fraction(8, 51)


def test_subcubic_size_check_matches_value():
    for n in (4, 7, 10, 16, 25, 30):
        v = subcubic_girth5_value(n)
        for size in range(0, n + 1):
            # the dyadic overestimate is far tighter than the gap between
            # an integer and the irrational bound, so both tests agree
            assert subcubic_size_ok(n, size) == (size <= v)


def test_conjecture_predicate():
    # Z <= n/3 + 2 is 3Z <= n + 6 in integers; Petersen holds at Z = 5
    # and fails at Z = 6, K_4 holds at Z = 3
    for g in (zf.complete(4), zf.generate("petersen"), zf.complete_bipartite(3, 3)):
        bound = entry_of(g, "third_plus_two").value
        for z in range(g.n + 1):
            assert (z <= bound) == (3 * z <= g.n + 6)


# -- vertex types -------------------------------------------------------------


def test_probabilities_pairwise_distinct():
    assert len(set(TYPE_PROBABILITIES.values())) == 7


def test_petersen_vertices_all_type_one():
    g = zf.generate("petersen")
    for u in range(10):
        t = classify(g, u)
        assert t.index == 1 and t.probability == Fraction(81, 140)


@pytest.mark.parametrize("name", ["petersen", "K4"])  # girth >= 5 key, union-size key
@pytest.mark.parametrize("outside", ["-1", "n"])
def test_vertex_probability_rejects_a_vertex_out_of_range(name, outside):
    g = zf.petersen() if name == "petersen" else zf.complete(4)
    u = -1 if outside == "-1" else g.n
    with pytest.raises(ValueError, match=rf"^vertex {u} out of range for n={g.n}$"):
        zf.vertex_probability(g, u)


def type_counts(g):
    """How many vertices of each type 1..7 the graph has, vertex by vertex."""
    counts = {i: 0 for i in TYPE_PROBABILITIES}
    for u in range(g.n):
        counts[classify(g, u).index] += 1
    return counts


def test_cube_vertices_all_type_seven():
    q3 = zf.Graph.from_edges(8, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5),
                                 (2, 3), (2, 6), (3, 7), (4, 5), (4, 6),
                                 (5, 7), (6, 7)])
    counts = type_counts(q3)
    assert counts == {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 8}
    assert entry_of(q3, "cubic_trianglefree").value == zf.expected_size(q3)


def test_type_four_and_six_witnesses():
    # twin-pattern gadget pair: vertex 0 sees one triple-shared and one
    # double-shared second neighbor (type 6); others realize types 1, 4
    def gadget(base):
        u, a, b, c, w, s1, s3 = range(base, base + 7)
        return [(u, a), (u, b), (u, c), (w, a), (w, b), (w, c),
                (s1, a), (s1, b), (s3, c)]
    g = zf.Graph.from_edges(14, gadget(0) + gadget(7) + [(5, 13), (6, 12), (6, 13)])
    assert g.is_regular() == 3 and g.girth == 4
    assert classify(g, 0).index == 6
    assert classify(g, 0).probability == Fraction(269, 420)
    counts = type_counts(g)
    assert counts[6] == 8 and counts[4] == 4 and counts[1] == 2
    # the worked identity for type 4
    assert TYPE_PROBABILITIES[4] == 1 - Fraction(3, 4) + Fraction(1, 5) + Fraction(2, 7) - Fraction(1, 8)


def test_k33_vertex_rejected():
    g = zf.complete_bipartite(3, 3)
    with pytest.raises(ValueError, match="outside the seven"):
        classify(g, 0)


def test_triangle_vertex_rejected():
    with pytest.raises(ValueError):
        classify(zf.complete(4), 0)


# -- graph-level entries ------------------------------------------------------


def test_exception_free_entry():
    pet = entry_of(zf.generate("petersen"), "exception_free")
    assert pet.applicable and pet.value == 5
    k33 = entry_of(zf.complete_bipartite(3, 3), "exception_free")
    assert not k33.applicable and "balanced_bipartite" in k33.reason
    g1 = entry_of(zf.g1(), "exception_free")
    assert not g1.applicable


def test_report_tags_each_graph_once(named_graphs, random_corpus, monkeypatch):
    from zforce import bounds
    graphs = list(named_graphs.values()) + random_corpus[:50]
    reports = [bounds_report(g) for g in graphs]
    tags = []
    connectivity = []

    def counted(g):
        tags.append(g)
        return zf.exceptional_tag(g)

    def counted_connected(g):
        connectivity.append(g)
        return zf.is_connected(g)

    monkeypatch.setattr(bounds, "exceptional_tag", counted)
    monkeypatch.setattr(bounds, "is_connected", counted_connected)
    for g, report in zip(graphs, reports):
        tags.clear()
        connectivity.clear()
        assert bounds_report(g) == report
        assert len(tags) == 1
        assert len(connectivity) == 1


def test_regular_girth5_entry():
    pet = entry_of(zf.generate("petersen"), "regular_girth5")
    assert pet.applicable and pet.value == Fraction(81, 14)
    c7 = entry_of(zf.cycle(7), "regular_girth5")
    assert c7.applicable and c7.value == Fraction(56, 15)
    k4 = entry_of(zf.complete(4), "regular_girth5")
    assert not k4.applicable
    path = entry_of(zf.path(4), "regular_girth5")
    assert not path.applicable  # not regular


def test_cubic_trianglefree_entry(cubic_tf_corpus):
    k33 = entry_of(zf.complete_bipartite(3, 3), "cubic_trianglefree")
    assert not k33.applicable
    petersen_edges = zf.generate("petersen").edges()
    k33_and_petersen = zf.Graph.from_edges(
        16, zf.complete_bipartite(3, 3).edges() + [(u + 6, v + 6) for u, v in petersen_edges])
    assert entry_of(k33_and_petersen, "cubic_trianglefree").reason == "a component is K_3,3"
    pet = entry_of(zf.generate("petersen"), "cubic_trianglefree")
    assert pet.applicable and pet.value == Fraction(81, 14)
    for g in cubic_tf_corpus[:10]:
        entry = entry_of(g, "cubic_trianglefree")
        assert entry.applicable
        assert entry.value == zf.expected_size(g)


def test_type_census_matches_the_per_vertex_definitions(cubic_tf_corpus, cubic_g5_corpus):
    # the entry, taken from expected_size, must equal the seven-type census
    large = [zf.random_regular(n, 3, n, min_girth=4) for n in range(30, 201, 10)]
    assert sum(g.girth == 4 for g in large) >= 10
    for g in cubic_tf_corpus + cubic_g5_corpus + large:
        types = [classify(g, u) for u in range(g.n)]
        assert all(t.probability == TYPE_PROBABILITIES[t.index] for t in types)
        census = sum(count * TYPE_PROBABILITIES[i] for i, count in type_counts(g).items())
        per_vertex = sum((t.probability for t in types), Fraction(0))
        assert entry_of(g, "cubic_trianglefree").value == census == per_vertex


def test_report_invariants_on_named(named_graphs):
    for name, g in named_graphs.items():
        if g.n > 12:
            continue
        report = bounds_report(g, zf.zero_forcing_number(g))
        assert report.violations == (), name
        assert report.conjecture_flags == (), name


def test_report_sandwich_on_corpus(random_corpus):
    for g in random_corpus[:120]:
        report = bounds_report(g, zf.zero_forcing_number(g))
        assert report.violations == ()


@pytest.mark.parametrize("lower, upper, violations, flags", [
    (6, 9, ("exception_free", "regular_girth5", "cubic_trianglefree"), ("third_plus_two",)),
    (3, 4, ("girth_degree",), ()),
    (5, 5, (), ()),
])
def test_sandwich_checks_both_ends_of_the_interval(lower, upper, violations, flags):
    # An upper entry is judged against the lower end and a lower entry
    # against the upper end, whether or not the interval has closed.
    fake = zf.ExactResult(lower if lower == upper else None, (1 << upper) - 1, 0, lower)
    report = bounds_report(zf.generate("petersen"), fake)
    assert (report.violations, report.conjecture_flags) == (violations, flags)
    assert report.exact is fake


def test_report_takes_an_interval_and_no_solver_options():
    g = zf.generate("petersen")
    for options in ({"with_exact": True}, {"budget": 3}):
        with pytest.raises(TypeError):
            bounds_report(g, **options)
    assert bounds_report(g).exact is None


def test_report_json_shape():
    c5 = zf.cycle(5)
    payload = bounds_report(c5, zf.zero_forcing_number(c5)).to_json_dict(c5)
    assert payload["stats"]["girth"] == 5
    assert payload["exact"]["value"] == 2
    names = {e["name"] for e in payload["entries"]}
    assert {"degree_ratio", "degree_refined", "exception_free",
            "regular_girth5", "girth_degree", "third_plus_two"} <= names
    p3 = zf.path(3)
    forest = bounds_report(p3).to_json_dict(p3)
    assert forest["stats"]["girth"] == "inf"


def test_report_keeps_only_what_it_decides():
    # The graph's statistics are read from the graph when the report is
    # rendered, not copied onto the report.
    assert [f.name for f in dataclasses.fields(zf.BoundReport)] == [
        "entries", "exact", "violations", "conjecture_flags"]


def test_report_identity_regular_equals_expectation(cubic_g5_corpus):
    for g in cubic_g5_corpus[:8]:
        report = bounds_report(g)
        entry = {e.name: e for e in report.entries}["regular_girth5"]
        assert entry.value == zf.expected_size(g)


def test_report_json_is_byte_identical_on_the_fixed_batch():
    # tests/data/bounds_batch.jsonl: one report per graph of
    # tests/data/verify_batch.g6 that parses, exact value attached up to
    # n = 12.  The batch reaches every reason string of the ten entries,
    # both girth_degree statuses and the info key; a change to any entry
    # must be stated on purpose.
    data = Path(__file__).resolve().parent / "data"
    lines = []
    for line in (data / "verify_batch.g6").read_text().splitlines():
        try:
            g = zf.parse_graph6(line)
        except ValueError:
            continue
        exact = zf.zero_forcing_number(g) if g.n <= 12 else None
        lines.append(json.dumps(bounds_report(g, exact).to_json_dict(g)) + "\n")
    assert len(lines) == 104
    assert "".join(lines) == (data / "bounds_batch.jsonl").read_text()
