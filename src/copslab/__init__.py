"""copslab: pursuit-evasion on graphs without long induced paths.

A cop team that hunts along a growing induced path, an exact retrograde
game solver as ground truth, robber adversaries of graded strength, and a
CLI for corpus-scale verification and counterexample search.

The public names below are imported from their modules on first use, so
`import copslab.solver` loads the solver and the graph module alone, not the
strategy.
"""

import importlib

_EXPORTS = {
    "engine": ("GameTrace", "Outcome", "StrategyError", "play"),
    "generators": (
        "complete_graph",
        "connected_ptfree_graph",
        "cycle_graph",
        "generate",
        "gnp_random_graph",
        "path_graph",
        "petersen_graph",
        "star_graph",
    ),
    "graphs": (
        "Graph",
        "GraphFormatError",
        "encode_graph6",
        "format_edge_list",
        "parse_edge_list",
        "parse_graph6",
        "shortest_path_within",
    ),
    "gyarfas": ("GyarfasCop", "NotPtFreeError", "analyze_strategy"),
    "induced": ("is_pt_free", "longest_induced_path_order", "verify_induced_path"),
    "robbers": ("GreedyRobber", "OptimalRobber", "RandomRobber"),
    "solver": ("SolveResult", "SolverBudgetError", "SolverTable", "cop_number", "solve"),
    "verify": ("verify_theorem_bound",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
