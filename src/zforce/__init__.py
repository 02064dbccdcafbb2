"""zforce: a zero forcing toolkit.

Simulate the forcing process, compute exact zero forcing numbers at desk
scale, construct small zero forcing sets, and verify upper and lower
bounds with exact rational arithmetic.

Importing the package loads none of its submodules.  Each public name is
looked up in the submodule that defines it on every access (PEP 562), so
that submodule is imported on first use, and a name rebound there, by a
test's monkeypatch for instance, shows through ``zforce.<name>`` too.
"""

from importlib import import_module as _import_module

_SOURCES = {
    "graph": (
        "Graph", "VertexSet", "bit_list", "bits", "girth",
        "is_connected", "mask_of", "shortest_cycle",
    ),
    "codec": (
        "Graph6Error", "parse_edge_list", "parse_graph6", "to_dot",
        "to_edge_list", "to_graph6",
    ),
    "families": (
        "ExceptionalGraph", "complete", "complete_bipartite",
        "complete_bipartite_parts", "cycle", "exceptional_tag", "g1", "g2",
        "generate", "heawood", "path", "petersen", "random_gnp",
        "random_regular", "subdivided_k33",
    ),
    "forcing": (
        "ForcingStep", "ForcingTrace", "closure", "closure_mask",
        "is_zero_forcing_set", "permutation_to_set", "trace_violation",
    ),
    "exact": ("ExactResult", "brute_force_oracle", "zero_forcing_number"),
    "heuristics": (
        "ExtensionSubgraph", "HeuristicResult", "find_extension_subgraph",
        "find_seed", "greedy_extend", "greedy_ratio_zfs", "random_zfs",
        "subcubic_girth5_zfs",
    ),
    "bounds": (
        "BoundEntry", "BoundReport", "bounds_report", "expected_size",
        "vertex_probability",
    ),
    "ratmath": (
        "girth5_regular_factor", "harmonic", "log2_overestimate",
        "lower_girth_degree", "subcubic_girth5_value",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SOURCES:  # a submodule not imported yet, as in zforce.heuristics
        return _import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCES) | set(__all__))
