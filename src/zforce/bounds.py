"""Catalog of zero forcing bounds with exact rational values.

Every entry carries its applicability predicate and a proven/conjectured
status, so a verifier can treat proven violations as defects and
conjectured violations as discoveries.  A report holds only the
entries and what they decided against an exact interval; its JSON reads
the graph's statistics from the graph.  All values are Fractions; the
command line renders decimals but no comparison ever goes through a
float.  The module also holds the exact expected size of the
random-order zero forcing set, ``expected_size``, the value of the
``cubic_trianglefree`` entry.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil
from typing import TYPE_CHECKING

from .families import ExceptionalGraph, exceptional_tag
from .graph import Graph, is_connected
from .ratmath import (
    fraction_json,
    girth5_regular_factor,
    harmonic,
    lower_girth_degree,
    subcubic_girth5_value,
)

if TYPE_CHECKING:  # the catalog runs no solve; the callers that do import it
    from .exact import ExactResult

PROVEN = "proven"
CONJECTURED = "conjectured"

#: The girths at which ``lower_girth_degree`` is a proven lower bound.
GIRTH_DEGREE_PROVEN = frozenset({3, 4, 5, 6})


@dataclass(frozen=True)
class BoundEntry:
    name: str
    kind: str  # "upper" | "lower"
    value: Fraction | None  # None when not applicable
    reason: str  # empty when applicable
    status: str  # "proven" | "conjectured"
    source: str

    @property
    def applicable(self) -> bool:
        return self.value is not None

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


# -- the random-order expectation ------------------------------------------


def vertex_probability(g: Graph, u: int) -> Fraction:
    """P[u ends up in the random-order set], by inclusion-exclusion.

    Sums (-1)^|I| / |{u} + union of closed neighborhoods over I| over all
    subsets I of u's neighborhood; exact rational arithmetic throughout.
    The sum depends only on how many subsets of each parity give each
    union size, so its value is memoised on that signature.  Without
    triangles and 4-cycles the closed neighborhoods of u's neighbors meet
    only in u, the size for I is 1 + the sum of their degrees, and the
    value is memoised on the sorted neighbor degrees alone.  A vertex
    outside 0..n-1 raises ``ValueError``.
    """
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range for n={g.n}")
    probability, [key] = _probability_keys(g, [u])
    return probability(key)


def _probability_keys(g: Graph, vertices: Sequence[int]):
    """(probability of a key, the key of each vertex): what a vertex's
    inclusion probability depends on.  The key is the sorted neighbor
    degrees at girth >= 5 or on a forest, the union sizes otherwise; the
    two kinds go to separate memos, since an isolated vertex's union
    sizes (1,) are also a K2 vertex's neighbor degrees."""
    degrees = g.degrees
    if max(degrees[u] for u in vertices) > 20:
        raise ValueError("inclusion-exclusion limited to degree <= 20")
    neighbors = g.neighbors
    if (g.girth or 5) >= 5:
        return _probability_from_degrees, [tuple(sorted([degrees[v] for v in neighbors[u]]))
                                           for u in vertices]
    adj = g.adj
    keys = []
    for u in vertices:
        # |{u} + N[I]| for each subset I of u's neighbors, indexed by subset
        unions = [1 << u]
        for v in neighbors[u]:
            closed = adj[v] | 1 << v
            unions += [m | closed for m in unions]
        keys.append(tuple([m.bit_count() for m in unions]))
    return _probability_from_sizes, keys


def _probability_from_sizes(sizes: Sequence[int]) -> Fraction:
    """The inclusion-exclusion sum for union sizes indexed by subset,
    memoised on its signature: the sorted (size, signed count) pairs."""
    coeff: dict[int, int] = {}
    for s, size in enumerate(sizes):
        coeff[size] = coeff.get(size, 0) + (-1 if s.bit_count() & 1 else 1)
    return _probability_from_signature(tuple(sorted(coeff.items())))


@lru_cache(maxsize=4096)
def _probability_from_signature(signature: tuple[tuple[int, int], ...]) -> Fraction:
    return sum((Fraction(c, size) for size, c in signature), Fraction(0))


@lru_cache(maxsize=4096)
def _probability_from_degrees(degrees: tuple[int, ...]) -> Fraction:
    sizes = [1] * (1 << len(degrees))
    for s in range(1, len(sizes)):
        low = s & -s
        sizes[s] = sizes[s ^ low] + degrees[low.bit_length() - 1]
    return _probability_from_sizes(sizes)


def expected_size(g: Graph) -> Fraction:
    """Exact expected size of the random-order zero forcing set.

    This double sum is itself an upper bound for the zero forcing
    number, by the first moment principle.  Vertices sharing the key of
    ``vertex_probability`` share its value, so each key adds its
    probability once, times its count.
    """
    probability, keys = _probability_keys(g, range(g.n))
    return sum((count * probability(key) for key, count in Counter(keys).items()), Fraction(0))


# -- the full report ---------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """The catalog's entries on one graph and what they decided."""

    entries: tuple[BoundEntry, ...]
    exact: ExactResult | None
    violations: tuple[str, ...]
    conjecture_flags: tuple[str, ...]

    @property
    def proven_lower(self) -> int:
        """The largest applicable proven lower entry, rounded up: a lower
        end for Z, always there since ``min_degree`` always applies."""
        return max(ceil(e.value) for e in self.entries
                   if e.kind == "lower" and e.status == PROVEN and e.applicable)

    def to_json_dict(self, g: Graph) -> dict:
        """The report with the statistics and informational values of g,
        the graph it was made for."""
        gir, r = g.girth, g.is_regular()
        info: dict = {}
        if r is not None and r >= 1 and (gir or 5) >= 5:
            info["regular_first_order"] = {
                **fraction_json((1 - harmonic(r) / r) * g.n),
                "note": "(1 - H_r/r) n, informational: one-sided only asymptotically",
            }
        return {
            "stats": {
                "n": g.n,
                "max_degree": g.max_degree(),
                "min_degree": g.min_degree(),
                "girth": "inf" if gir is None else gir,
                "connected": is_connected(g),
                "regular": r,
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
            "info": info,
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
    n, d, delta = g.n, g.max_degree(), g.min_degree()
    gir = g.girth
    girth5 = gir is None or gir >= 5
    conn = is_connected(g)
    r = g.is_regular()
    tag = exceptional_tag(g)
    entries = []

    def entry(name, kind, status, source, reason, value):
        # An entry applies when it has no reason not to; only then is its
        # value computed.
        entries.append(BoundEntry(name, kind, None if reason else value(), reason, status, source))

    entry("degree_ratio", "upper", PROVEN, "d*n/(d+1) for connected graphs",
          "" if conn and d >= 2 else "needs connected, max degree >= 2",
          lambda: Fraction(d * n, d + 1))
    entry("degree_refined", "upper", PROVEN, "((d-2)n+2)/(d-1) for connected graphs",
          "" if conn and d >= 2 else "needs connected, max degree >= 2",
          lambda: Fraction((d - 2) * n + 2, d - 1))
    entry("noncomplete", "upper", PROVEN, "(d-1)n/d for connected non-complete graphs",
          "" if conn and d >= 3 and tag is not ExceptionalGraph.COMPLETE
          else "needs connected, max degree >= 3, and not the complete graph",
          lambda: Fraction((d - 1) * n, d))
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
    # The only cubic graphs on six vertices are K_3,3 and the prism, which
    # has triangles, so in a cubic triangle-free graph a six-vertex
    # component is K_3,3.
    entry("cubic_trianglefree", "upper", PROVEN, "sum of type probabilities, cubic triangle-free",
          "graph is not cubic" if r != 3
          else "graph has a triangle" if gir == 3
          else "a component is K_3,3" if any(c.bit_count() == 6 for c in g.components) else "",
          lambda: expected_size(g))
    entry("girth_degree", "lower", PROVEN if gir in GIRTH_DEGREE_PROVEN else CONJECTURED,
          "(g-2)(delta-2)+2 for finite girth, min degree >= 2",
          "" if gir is not None and delta >= 2 else "needs a cycle and minimum degree >= 2",
          lambda: lower_girth_degree(gir, delta))
    entry("min_degree", "lower", PROVEN, "max(delta, 1): a first force needs delta filled vertices",
          "", lambda: Fraction(max(delta, 1)))
    entry("third_plus_two", "upper", CONJECTURED, "n/3 + 2 for connected subcubic graphs",
          "" if conn and d == 3 else "needs connected, max degree 3",
          lambda: Fraction(n, 3) + 2)

    violations = []
    flags = []
    if exact is not None:
        for e in entries:
            if e.value is None:
                continue
            if e.value < exact.lower if e.kind == "upper" else e.value > exact.upper:
                (violations if e.status == PROVEN else flags).append(e.name)
    return BoundReport(tuple(entries), exact, tuple(violations), tuple(flags))
