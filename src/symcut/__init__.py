"""symcut: minimum bipartitions of monotone consistent symmetric set functions.

Given lax-oracle access to a symmetric set function d on a finite ground
set (a procedure returning min(tau, d(S, T))), find a nontrivial S
minimizing d(S, V\\S). Covers global minimum cuts of weighted graphs and
hypergraphs and minimization of symmetric submodular functions, with
exhaustive brute-force verification for small instances.
"""

from .brute import (BruteResult, CheckResult, brute_lambda,
                    brute_min_bipartition, check_consistent, check_monotone,
                    check_symmetric_submodular, verify_lax_back_order)
from .driver import (MinimizeConfig, RoundRecord, RunStats, contract_round,
                     optimal_set)
from .instances import (ParseError, gen_random_graph, gen_random_hypergraph,
                        load_instance, parse_graph, parse_hypergraph,
                        parse_table, write_graph, write_hypergraph,
                        write_table)
from .oracles import (ConnectivityOracle, GraphCutOracle, Hypergraph,
                      HypergraphCutOracle, InducedOracle, InstanceError,
                      LaxOracle, SetFunctionTable, TableOracle, ThresholdedOracle,
                      WeightedGraph, complete_table, graph_cut_table)
from .order import LaxBackOrder, lax_back_order_queue, lax_back_order_scan
from .partition import Partition
from .queues import BucketQueue, HeapQueue
from .values import INF, values_equal
from .verify import (VerifyEntry, VerifyReport, check_contraction_record,
                     check_order_record, check_separation_triangle,
                     named_configs, verify_oracle, verify_table)

__version__ = "0.1.0"

__all__ = [
    "INF", "values_equal",
    "Partition",
    "LaxOracle", "InstanceError", "WeightedGraph", "GraphCutOracle", "Hypergraph",
    "HypergraphCutOracle", "SetFunctionTable", "ConnectivityOracle",
    "TableOracle", "complete_table", "ThresholdedOracle", "InducedOracle",
    "graph_cut_table",
    "HeapQueue", "BucketQueue",
    "LaxBackOrder", "lax_back_order_scan", "lax_back_order_queue",
    "MinimizeConfig", "RunStats", "RoundRecord", "contract_round", "optimal_set",
    "BruteResult", "CheckResult", "brute_min_bipartition", "brute_lambda",
    "check_monotone", "check_consistent", "check_symmetric_submodular",
    "verify_lax_back_order",
    "ParseError", "parse_graph", "write_graph", "parse_hypergraph",
    "write_hypergraph", "parse_table", "write_table", "load_instance",
    "gen_random_graph", "gen_random_hypergraph",
    "VerifyEntry", "VerifyReport", "named_configs", "verify_oracle",
    "verify_table", "check_order_record", "check_contraction_record",
    "check_separation_triangle",
]
