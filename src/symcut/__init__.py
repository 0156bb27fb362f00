"""symcut: minimum bipartitions of monotone consistent symmetric set functions.

Given lax-oracle access to a symmetric set function d on a finite ground
set (a procedure returning min(tau, d(S, T))), find a nontrivial S
minimizing d(S, V\\S). Covers global minimum cuts of weighted graphs and
hypergraphs and minimization of symmetric submodular functions, with
exhaustive brute-force verification for small instances.

The top level holds the library API: the solver, the built-in oracles and
their instances, instance files, and the checks against enumeration. The
machinery behind the solver (partitions, order builders, queues, the
per-round checks) lives in its submodules.
"""

from .brute import brute_min_bipartition, check_consistent, check_monotone, pair_values
from .driver import MinimizeConfig, RoundStats, RunStats, optimal_set
from .instances import (ParseError, gen_random_graph, gen_random_hypergraph,
                        load_instance, parse_graph, parse_hypergraph,
                        parse_table, write_graph, write_hypergraph,
                        write_table)
from .oracles import (ConnectivityOracle, GraphCutOracle, Hypergraph,
                      HypergraphCutOracle, InstanceError, LaxOracle,
                      SetFunctionTable, WeightedGraph, graph_cut_table)
from .values import INF, values_equal
from .verify import verify_oracle, verify_table

__version__ = "0.1.0"

__all__ = [
    "INF", "values_equal",
    "LaxOracle", "InstanceError", "WeightedGraph", "GraphCutOracle", "Hypergraph",
    "HypergraphCutOracle", "SetFunctionTable", "ConnectivityOracle",
    "graph_cut_table",
    "MinimizeConfig", "RunStats", "RoundStats", "optimal_set",
    "brute_min_bipartition", "pair_values", "check_monotone", "check_consistent",
    "ParseError", "parse_graph", "write_graph", "parse_hypergraph",
    "write_hypergraph", "parse_table", "write_table", "load_instance",
    "gen_random_graph", "gen_random_hypergraph",
    "verify_oracle", "verify_table",
]
