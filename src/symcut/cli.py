"""Command-line front end.

Subcommands:
  mincut    minimum cut / bipartition of a graph or hypergraph file
  minimize  nontrivial minimizer of an explicit symmetric submodular f
  verify    run all configurations against brute force plus the property suite
  gen       emit a seeded random graph instance

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict

from .brute import (MAX_ENUM, MAX_TABLE_CHECK, brute_min_bipartition,
                    table_submodular, table_symmetric)
from .driver import MinimizeConfig, optimal_set
from .instances import gen_random_graph, load_instance, parse_table, write_graph
from .oracles import ConnectivityOracle, GraphCutOracle, HypergraphCutOracle
from .values import format_value, mask_of, values_equal
from .verify import verify_oracle, verify_table


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared: do not change it."""
    parser = argparse.ArgumentParser(
        prog="symcut",
        description="Minimum bipartitions of monotone consistent symmetric set functions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mincut", help="minimum cut of a graph or hypergraph file")
    p.add_argument("path")
    p.add_argument("--kind", choices=["graph", "hypergraph"], default=None)
    _add_algorithm_flag(p)
    p.add_argument("--builder", choices=["scan", "queue"], default="scan")
    p.add_argument("--queue", choices=["heap", "bucket"], default="heap",
                   help="priority queue of --builder queue; the scan builder uses none")
    p.add_argument("--check", action="store_true",
                   help=f"re-verify the result against enumeration (n <= {MAX_ENUM})")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(func=cmd_mincut)

    p = sub.add_parser("minimize", help="minimize an explicit symmetric submodular f")
    p.add_argument("--table", required=True, help="set-function table file")
    _add_algorithm_flag(p)
    p.add_argument("--check", action="store_true")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("verify", help="verify against brute force and the property suite")
    p.add_argument("path", nargs="?", default=None)
    p.add_argument("--kind", choices=["graph", "hypergraph", "table"], default=None)
    p.add_argument("--random", type=int, default=0, metavar="COUNT",
                   help="verify COUNT seeded random graphs instead of a file")
    p.add_argument("--nmin", type=int, default=3)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--p", type=float, default=0.6)
    p.add_argument("--wmax", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit a seeded random graph instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--wmax", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--connected", action="store_true")
    p.set_defaults(func=cmd_gen)
    return parser


def _add_algorithm_flag(p):
    p.add_argument("--algorithm", choices=["laxback", "maxback"], default="laxback")


def _canonical_side(best, n):
    """Smaller side of the bipartition; ties go to the side with vertex 0."""
    other = set(range(n)) - best
    if len(best) < len(other):
        return best
    if len(other) < len(best):
        return other
    return best if min(best) < min(other) else other


def _emit_report(args, report):
    if args.as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    ids = ",".join(str(v) for v in report["set"])
    print(f"lambda={format_value(report['lambda'])} S={{{ids}}}")
    stats = report["stats"]
    print(f"rounds: {stats['rounds']}")
    print(f"oracle_calls: {stats['oracle_calls']}")
    print(f"joins_per_round: {stats['joins_per_round']}")
    if "f_value" in report:
        print(f"f(S): {format_value(report['f_value'])}")
    print(f"wall_ns: {report['wall_ns']}")


def cmd_mincut(args):
    kind, instance = load_instance(_read(args.path), args.kind)
    if kind == "table":
        print("error: table instances go through the 'minimize' subcommand",
              file=sys.stderr)
        return 2
    oracle = (GraphCutOracle(instance) if kind == "graph"
              else HypergraphCutOracle(instance))
    config = MinimizeConfig(algorithm=args.algorithm, order_builder=args.builder,
                            queue_kind=args.queue)
    return _solve_and_report(args, config, oracle, {
        "kind": kind, "n": instance.n, "m": instance.m,
        "integer_weights": instance.integer_weights})


def cmd_minimize(args):
    """Minimize a table's f on the scan builder: ConnectivityOracle is not keyed."""
    table = parse_table(_read(args.table))
    symmetric = table_symmetric(table)
    submodular = table_submodular(table) if table.n <= MAX_TABLE_CHECK else "unchecked"
    if not symmetric or not submodular:
        print("error: table is not a symmetric submodular function "
              f"(symmetric={symmetric}, submodular={submodular})", file=sys.stderr)
        return 2
    return _solve_and_report(args, MinimizeConfig(algorithm=args.algorithm),
                             ConnectivityOracle(table), {"kind": "table", "n": table.n},
                             table)


def _solve_and_report(args, config, oracle, instance, table=None):
    """Solve with `config`, print the report, return the exit code.

    With a `table` the report adds f(S) and --check enumerates f; otherwise
    --check enumerates the oracle's bipartitions (n <= brute.MAX_ENUM).
    """
    n = instance["n"]
    start = time.perf_counter_ns()
    best, value, stats = optimal_set(oracle, n, config)
    wall = time.perf_counter_ns() - start
    side = _canonical_side(best, n)
    report = {
        "instance": instance,
        "config": asdict(config),
        "lambda": value,
        "set": sorted(v + 1 for v in side),
        "stats": asdict(stats),
        "wall_ns": wall,
    }
    if table is not None:
        report["f_value"] = table.table_values[mask_of(side)]
    if args.check and table is None and n > MAX_ENUM:
        report["check"] = {"ran": False, "ok": None,
                           "reason": "instance too large to enumerate"}
    elif args.check:
        if table is not None:
            what, got, expected = "f(S)", report["f_value"], min(table.table_values[1:-1])
        else:
            what, got, expected = "value", value, brute_min_bipartition(oracle, n).value
        ok = values_equal(got, expected)
        report["check"] = {"ran": True, "ok": ok, "expected": expected}
        if not ok:
            _emit_report(args, report)
            print(f"error: {what} {got} != enumerated {expected}", file=sys.stderr)
            return 1
    _emit_report(args, report)
    return 0


def cmd_verify(args):
    jobs = []
    if args.random < 0:
        print("error: --random COUNT must be nonnegative", file=sys.stderr)
        return 2
    if args.random:
        if not 2 <= args.nmin <= args.nmax:
            print("error: need 2 <= nmin <= nmax", file=sys.stderr)
            return 2
        for i in range(args.random):
            n = args.nmin + i % (args.nmax - args.nmin + 1)
            graph = gen_random_graph(n, args.p, args.wmax, seed=args.seed + i,
                                     connected=True)
            jobs.append((f"random[{i}] n={n}", "graph", graph))
    elif args.path:
        kind, instance = load_instance(_read(args.path), args.kind)
        if instance.n < 2:
            print("error: need at least two elements", file=sys.stderr)
            return 2
        jobs.append((args.path, kind, instance))
    else:
        print("error: give an instance path or --random COUNT", file=sys.stderr)
        return 2

    failures = 0
    for label, kind, instance in jobs:
        if kind == "table":
            if instance.n > MAX_TABLE_CHECK:
                print(f"error: {label}: table too large to verify exhaustively "
                      f"(n <= {MAX_TABLE_CHECK})", file=sys.stderr)
                return 2
            report = verify_table(instance)
        else:
            oracle_cls = GraphCutOracle if kind == "graph" else HypergraphCutOracle
            report = verify_oracle(oracle_cls(instance), instance.n)
        for entry in report.entries:
            mark = "ok  " if entry.ok else "FAIL"
            detail = f"  ({entry.detail})" if entry.detail and not entry.ok else ""
            print(f"[{mark}] {label}: {entry.name}{detail}")
            if not entry.ok:
                failures += 1
    print(f"verify: {'all checks passed' if not failures else f'{failures} checks failed'}")
    return 0 if failures == 0 else 1


def cmd_gen(args):
    graph = gen_random_graph(args.n, args.p, args.wmax, seed=args.seed,
                             connected=args.connected)
    sys.stdout.write(write_graph(graph))
    return 0


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
