"""Monochromatic subgraph counting and multiplicity search on two-colored K_n.

No submodule is imported until one of its names is first read: the
package's ``__getattr__`` (PEP 562) imports the module that owns the name
and caches the value here, so ``import ramseykit`` and a CLI command load
only the layers they use.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name, under the submodule that defines it
_EXPORTS = {
    "coloring": ("BLUE", "RED", "EdgeColoring", "canonical_key", "split_coloring"),
    "counting": (
        "Pattern",
        "count_cliques",
        "count_cycles",
        "count_in_view",
        "count_mono",
        "count_paths",
        "count_stars",
        "formula_split_paths",
        "parse_pattern",
        "total_copies_in_complete",
    ),
    "errors": ("CapabilityError", "DomainError", "InvalidSpecError"),
    "formulas": ("MultiplicityValue", "RamseyValue", "conjectured_m", "m_star", "r_cycle", "r_path"),
    "graph": ("SimpleGraph",),
    "regularity": (
        "BoundReport",
        "DichotomyVerdict",
        "ExtremalVerdict",
        "PairAnnotation",
        "ReducedGraph",
        "RegularityResult",
        "SampleVerdict",
        "VertexPartition",
        "build_reduced",
        "dense_bipartite_bound",
        "degree_deviation_check",
        "dichotomy_classify",
        "dirac_check",
        "endpoint_path_bound",
        "eps_regular_exact",
        "eps_regular_sample",
        "extremal_detect",
        "pair_density",
        "rooted_path_bound",
        "verify_count_bounds",
    ),
    "search": (
        "MinimizationResult",
        "SearchConfig",
        "anneal_min",
        "canonical_graph_reps",
        "exhaustive_min",
        "ramsey_via_search",
        "threshold_multiplicity",
    ),
    "structure": (
        "DisjointPathCert",
        "disjoint_short_paths",
        "erdos_gallai_max_edges",
        "konig_edge_bound_check",
        "max_matching",
        "verify_erdos_gallai",
        "well_connected_check",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    return value
