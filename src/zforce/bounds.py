"""Catalog of zero forcing bounds with exact rational values.

Every entry carries its applicability predicate and a proven/conjectured
status, so a verifier can treat proven violations as defects and
conjectured violations as discoveries.  All values are Fractions; the
command line renders decimals but no comparison ever goes through a
float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactResult
from .families import ExceptionalGraph, exceptional_tag
from .graph import Graph, girth, is_connected
from .heuristics import expected_size, vertex_probability
from .ratmath import (
    GIRTH_DEGREE_PROVEN,
    fraction_json,
    girth5_regular_factor,
    harmonic,
    lower_girth_degree,
    subcubic_girth5_value,
)

PROVEN = "proven"
CONJECTURED = "conjectured"

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


@dataclass(frozen=True)
class VertexType:
    index: int
    probability: Fraction


@dataclass(frozen=True)
class BoundEntry:
    name: str
    kind: str  # "upper" | "lower"
    value: Fraction | None  # None when not applicable
    applicable: bool
    reason: str
    status: str  # "proven" | "conjectured"
    source: str

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "value": None if self.value is None else fraction_json(self.value),
            "applicable": self.applicable,
            "reason": self.reason,
            "status": self.status,
            "source": self.source,
        }


# -- closed-form bound values ----------------------------------------------


def upper_degree_ratio(n: int, d: int) -> Fraction:
    """d*n/(d+1) for connected graphs of maximum degree d >= 2."""
    if d < 2:
        raise ValueError("needs maximum degree >= 2")
    return Fraction(d * n, d + 1)


def upper_degree_refined(n: int, d: int) -> Fraction:
    """((d-2)*n + 2)/(d-1), tight on complete and balanced bipartite graphs."""
    if d < 2:
        raise ValueError("needs maximum degree >= 2")
    return Fraction((d - 2) * n + 2, d - 1)


def upper_noncomplete(n: int, d: int) -> Fraction:
    """(d-1)*n/d for connected, max degree d >= 3, not complete on d+1."""
    if d < 3:
        raise ValueError("needs maximum degree >= 3")
    return Fraction((d - 1) * n, d)


# -- vertex classification -------------------------------------------------


def classify_vertex(g: Graph, u: int) -> VertexType:
    """Type 1..7 of a vertex in a cubic triangle-free graph.

    The seven types have pairwise distinct inclusion probabilities, so
    the exact probability identifies the type.  A probability outside
    the table signals a precondition violation (triangle, non-cubic
    vertex nearby, or a K_{3,3} component).
    """
    p = vertex_probability(g, u)
    index = _PROBABILITY_TO_TYPE.get(p)
    if index is None:
        raise ValueError(
            f"vertex {u} has inclusion probability {p}, outside the seven "
            "cubic triangle-free types; check for triangles, degrees != 3, "
            "or a K_3,3 component"
        )
    return VertexType(index, p)


def _has_k33_component(g: Graph) -> bool:
    # The caller has checked that g is cubic and triangle-free.  The only
    # cubic graphs on six vertices are K_3,3 and the prism, which has
    # triangles, so a six-vertex component is K_3,3.
    return any(comp.bit_count() == 6 for comp in g.components)


# -- the full report ---------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    n: int
    max_degree: int
    min_degree: int
    girth: int | None
    connected: bool
    regular: int | None
    entries: tuple[BoundEntry, ...]
    exact: ExactResult | None
    violations: tuple[str, ...]
    conjecture_flags: tuple[str, ...]
    info: dict

    def to_json_dict(self) -> dict:
        return {
            "stats": {
                "n": self.n,
                "max_degree": self.max_degree,
                "min_degree": self.min_degree,
                "girth": "inf" if self.girth is None else self.girth,
                "connected": self.connected,
                "regular": self.regular,
            },
            "entries": [e.to_json_dict() for e in self.entries],
            "exact": None if self.exact is None else {
                "value": self.exact.value,
                "complete": self.exact.complete,
                "lower": self.exact.lower,
                "upper": self.exact.upper,
            },
            "violations": list(self.violations),
            "conjecture_flags": list(self.conjecture_flags),
            "info": self.info,
        }


def bounds_report(g: Graph, exact: ExactResult | None = None) -> BoundReport:
    """Evaluate every catalog bound on g; check them against ``exact`` if given.

    The caller passes the interval: ``exact`` is an ExactResult whose
    ends [lower, upper] hold Z(g), such as ``zero_forcing_number(g,
    budget)``.  The catalog never solves.  An applicable upper entry below
    the lower end or lower entry above the upper end is on the wrong side
    of Z: in ``violations`` if proven (an implementation defect by
    construction), in ``conjecture_flags`` if conjectured (a discovery).
    """
    n, d = g.n, g.max_degree()
    delta = g.min_degree()
    gir = girth(g)
    girth5 = gir is None or gir >= 5
    conn = is_connected(g)
    r = g.is_regular()
    tag = exceptional_tag(g)
    entries = []

    def entry(name, kind, status, source, reason, value):
        # An entry applies when it has no reason not to; only then is its
        # value computed.
        ok = not reason
        entries.append(BoundEntry(name, kind, value() if ok else None, ok, reason, status, source))

    entry("degree_ratio", "upper", PROVEN, "d*n/(d+1) for connected graphs",
          "" if conn and d >= 2 else "needs connected, max degree >= 2",
          lambda: upper_degree_ratio(n, d))
    entry("degree_refined", "upper", PROVEN, "((d-2)n+2)/(d-1) for connected graphs",
          "" if conn and d >= 2 else "needs connected, max degree >= 2",
          lambda: upper_degree_refined(n, d))
    entry("noncomplete", "upper", PROVEN, "(d-1)n/d for connected non-complete graphs",
          "" if conn and d >= 3 and tag is not ExceptionalGraph.COMPLETE
          else "needs connected, max degree >= 3, and not the complete graph",
          lambda: upper_noncomplete(n, d))
    entry("exception_free", "upper", PROVEN, "(d-2)n/(d-1) outside six exceptional graphs",
          "needs connected, max degree >= 3" if not conn or d < 3
          else f"exceptional graph: {tag.value}" if tag is not None else "",
          lambda: Fraction((d - 2) * n, d - 1))
    entry("subcubic_girth5", "upper", PROVEN, "n/2 - n/(24 log2 n + 6) + 2",
          "" if conn and d == 3 and girth5 else "needs connected, max degree 3, girth >= 5",
          lambda: subcubic_girth5_value(n))
    entry("regular_girth5", "upper", PROVEN, "prod(1 - 1/(ri+1)) * n for r-regular, girth >= 5",
          "graph is not regular" if r is None else "" if girth5 else f"girth {gir} < 5",
          lambda: girth5_regular_factor(r) * n)
    entry("cubic_trianglefree", "upper", PROVEN, "sum of type probabilities, cubic triangle-free",
          "graph is not cubic" if r != 3
          else "graph has a triangle" if gir == 3
          else "a component is K_3,3" if _has_k33_component(g) else "",
          lambda: expected_size(g))
    entry("girth_degree", "lower", PROVEN if gir in GIRTH_DEGREE_PROVEN else CONJECTURED,
          "(g-2)(delta-2)+2 for finite girth, min degree >= 2",
          "" if gir is not None and delta >= 2 else "needs a cycle and minimum degree >= 2",
          lambda: lower_girth_degree(gir, delta))
    entry("third_plus_two", "upper", CONJECTURED, "n/3 + 2 for connected subcubic graphs",
          "" if conn and d == 3 else "needs connected, max degree 3",
          lambda: Fraction(n, 3) + 2)

    info: dict = {}
    if r is not None and r >= 1 and girth5:
        first_order = (1 - harmonic(r) / r) * n
        info["regular_first_order"] = {
            **fraction_json(first_order),
            "note": "(1 - H_r/r) n, informational: one-sided only asymptotically",
        }

    violations = []
    flags = []
    if exact is not None:
        for e in entries:
            if e.value is None:
                continue
            if e.value < exact.lower if e.kind == "upper" else e.value > exact.upper:
                (violations if e.status == PROVEN else flags).append(e.name)
    return BoundReport(
        n, d, delta, gir, conn, r,
        tuple(entries), exact, tuple(violations), tuple(flags), info,
    )
