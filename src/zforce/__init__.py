"""zforce: a zero forcing toolkit.

Simulate the forcing process, compute exact zero forcing numbers at desk
scale, construct small zero forcing sets, and verify upper and lower
bounds with exact rational arithmetic.
"""

from .graph import (
    Graph,
    VertexSet,
    bit_list,
    bits,
    components,
    girth,
    is_connected,
    mask_of,
    shortest_cycle,
)
from .codec import (
    Graph6Error,
    parse_edge_list,
    parse_graph6,
    to_dot,
    to_edge_list,
    to_graph6,
)
from .families import (
    ExceptionalGraph,
    complete,
    complete_bipartite,
    complete_bipartite_parts,
    cycle,
    exceptional_tag,
    g1,
    g2,
    generate,
    heawood,
    path,
    petersen,
    random_gnp,
    random_regular,
    subdivided_k33,
)
from .forcing import (
    ForcingStep,
    ForcingTrace,
    closure,
    closure_mask,
    is_zero_forcing_set,
    permutation_to_set,
    trace_violation,
    verify_trace,
)
from .exact import ExactResult, brute_force_oracle, zero_forcing_number
from .heuristics import (
    ExtensionSubgraph,
    HeuristicResult,
    expected_size,
    find_extension_subgraph,
    find_seed,
    greedy_extend,
    greedy_ratio_zfs,
    random_zfs,
    subcubic_girth5_zfs,
    vertex_probability,
)
from .bounds import (
    BoundEntry,
    BoundReport,
    TYPE_PROBABILITIES,
    VertexType,
    bounds_report,
    classify_vertex,
    lower_girth_degree,
    upper_degree_ratio,
    upper_degree_refined,
    upper_noncomplete,
)
from .ratmath import (
    girth5_regular_factor,
    harmonic,
    log2_overestimate,
    subcubic_girth5_value,
    subcubic_size_ok,
)

__version__ = "0.1.0"
