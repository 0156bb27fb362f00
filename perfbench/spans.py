"""Per-layer tracing from the benchmark side.

While a :class:`Tracer` is installed, symcut's public entry points are
replaced by timing wrappers; nothing inside the package changes. Coarse
boundaries open a span (name, start, end, parent, operation id):

  cli                   ``symcut.cli.main`` (the operation on ``cli-scan``)
  driver                ``optimal_set`` (the operation on library workloads)
  order.queue/.scan     one order build
  oracles.tracker_init  ``key_tracker`` (one per queue order)
  driver.contract       ``contract_round``
  instances.parse       ``load_instance`` / ``parse_table``

Hot calls (oracle ``eval``, tracker ``advance``, queue operations,
``Partition.join``/``members``, bucket-queue construction) only add a
count and their summed time to the innermost open span. A span's self time
is its duration minus its child spans and the hot calls charged to it.
``Partition.class_of`` is not wrapped: it runs inside the trackers' inner
loops, and its cost stays in the caller's self time.

The oracle proxy is put in place by the ``optimal_set`` wrapper, which the
CLI also goes through, so every eval and tracker of both paths is covered
without touching the oracle constructors.
"""

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter_ns

from symcut import cli, driver, order, partition, queues
from symcut.values import INF

NS_PER_MS = 1e6


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "counts", "ns")

    def __init__(self, sid, name, parent, op):
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.counts = {}
        self.ns = {}
        self.end = None
        self.start = perf_counter_ns()


class Tracer:
    """Spans of every traced operation, kept in memory until written out."""

    def __init__(self):
        self.spans = []
        self.ops = 0
        self._stack = []
        self.last_queue = None
        self._patches = self._build_patches()

    # -- recording ---------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.ops)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = perf_counter_ns()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def hot(self, key, ns):
        """Charge one call of `key` taking `ns` to the innermost open span."""
        span = self._stack[-1]
        span.counts[key] = span.counts.get(key, 0) + 1
        span.ns[key] = span.ns.get(key, 0) + ns

    def bump(self, key, amount):
        counts = self._stack[-1].counts
        counts[key] = counts.get(key, 0) + amount

    def next_operation(self):
        """Start a new benchmark operation; the spans it opens share its id."""
        self.ops += 1

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        saved = [(module, name, getattr(module, name))
                 for module, name, _ in self._patches]
        for module, name, replacement in self._patches:
            setattr(module, name, replacement)
        try:
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def _build_patches(self):
        tracer = self
        real_optimal_set = driver.optimal_set

        def traced_optimal_set(oracle, n, config=None, observer=None):
            span = tracer.open("driver")
            try:
                return real_optimal_set(_OracleProxy(tracer, oracle), n, config, observer)
            finally:
                tracer.close(span)

        real_main = cli.main

        def traced_main(argv=None):
            span = tracer.open("cli")
            try:
                return real_main(argv)
            finally:
                tracer.close(span)

        real_contract = driver.contract_round

        def traced_contract(part, lax_order, tau):
            span = tracer.open("driver.contract")
            try:
                joins = real_contract(part, lax_order, tau)
                tracer.bump("joins", joins)
                return joins
            finally:
                tracer.close(span)

        return [
            (driver, "optimal_set", traced_optimal_set),
            (cli, "optimal_set", traced_optimal_set),
            (cli, "main", traced_main),
            (cli, "load_instance", self._spanned("instances.parse", cli.load_instance)),
            (cli, "parse_table", self._spanned("instances.parse", cli.parse_table)),
            (driver, "lax_back_order_scan",
             self._order_builder("order.scan", driver.lax_back_order_scan)),
            (driver, "lax_back_order_queue",
             self._order_builder("order.queue", driver.lax_back_order_queue)),
            (driver, "contract_round", traced_contract),
            (driver, "Partition", _traced_partition(self, partition.Partition)),
            (order, "HeapQueue", _traced_queue(self, queues.HeapQueue, "queues.heap")),
            (order, "BucketQueue", _traced_queue(self, queues.BucketQueue, "queues.bucket")),
        ]

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    def _order_builder(self, name, fn):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                lax_order, ops = fn(*args, **kwargs)
                self.bump("classes", len(lax_order.order))
                queue = self.last_queue
                if isinstance(queue, queues.BucketQueue):
                    self.bump("queues.bucket.scan_steps", queue.scan_steps)
                    self.bump("queues.bucket.raise_steps", queue.raise_steps)
                return lax_order, ops
            finally:
                self.last_queue = None
                self.close(span)
        return wrapper

    # -- results -----------------------------------------------------------

    def layer_metrics(self):
        """Per-operation layer metrics as {name: (value, unit)}."""
        ops = self.ops
        covered = defaultdict(int)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        self_ns = Counter()
        spans = Counter()
        counts = Counter()
        hot_ns = Counter()
        for span in self.spans:
            self_ns[span.name] += (span.end - span.start - covered[span.id]
                                   - sum(span.ns.values()))
            spans[span.name] += 1
            counts.update(span.counts)
            hot_ns.update(span.ns)

        builds = spans["order.queue"] + spans["order.scan"]
        evals = counts["oracles.eval"]
        heap = ("queues.heap.insert", "queues.heap.update_key", "queues.heap.del_max")
        bucket = ("queues.bucket.insert", "queues.bucket.update_key",
                  "queues.bucket.del_max")

        def per_op(total):
            return total / ops

        def ms(total_ns):
            return total_ns / NS_PER_MS / ops

        return {
            "driver.rounds": (per_op(builds), "count"),
            "driver.joins_per_round": (_ratio(counts["joins"], builds), "count"),
            "driver.self_ms": (ms(self_ns["driver"]), "ms"),
            "driver.contract_ms": (ms(self_ns["driver.contract"]), "ms"),
            "order.classes_per_build": (_ratio(counts["classes"], builds), "count"),
            "order.queue_self_ms": (ms(self_ns["order.queue"]), "ms"),
            "order.scan_self_ms": (ms(self_ns["order.scan"]), "ms"),
            "oracles.eval_calls": (per_op(evals), "count"),
            "oracles.eval_ms": (ms(hot_ns["oracles.eval"]), "ms"),
            "oracles.eval_reach_frac": (_ratio(counts["oracles.eval_reached"], evals),
                                        "ratio"),
            "oracles.tracker_init_calls": (per_op(spans["oracles.tracker_init"]), "count"),
            "oracles.tracker_init_ms": (ms(self_ns["oracles.tracker_init"]), "ms"),
            "oracles.advance_calls": (per_op(counts["oracles.advance"]), "count"),
            "oracles.advance_ms": (ms(hot_ns["oracles.advance"]), "ms"),
            "oracles.keys_changed": (per_op(counts["oracles.keys_changed"]), "count"),
            "queues.heap.ops": (per_op(sum(counts[k] for k in heap)), "count"),
            "queues.heap.update_calls": (per_op(counts["queues.heap.update_key"]), "count"),
            "queues.heap.ms": (ms(sum(hot_ns[k] for k in heap)), "ms"),
            "queues.bucket.ops": (per_op(sum(counts[k] for k in bucket)), "count"),
            "queues.bucket.ms": (ms(sum(hot_ns[k] for k in bucket)), "ms"),
            "queues.bucket.init_ms": (ms(hot_ns["queues.bucket.init"]), "ms"),
            "queues.bucket.scan_steps": (per_op(counts["queues.bucket.scan_steps"]), "count"),
            "queues.bucket.raise_steps": (per_op(counts["queues.bucket.raise_steps"]),
                                          "count"),
            "partition.join_calls": (per_op(counts["partition.join"]), "count"),
            "partition.join_ms": (ms(hot_ns["partition.join"]), "ms"),
            "partition.members_calls": (per_op(counts["partition.members"]), "count"),
            "partition.members_ms": (ms(hot_ns["partition.members"]), "ms"),
            "instances.parse_ms": (ms(self_ns["instances.parse"]), "ms"),
            "cli.self_ms": (ms(self_ns["cli"]), "ms"),
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "name": span.name, "op": span.op,
                    "parent": span.parent, "start_ns": span.start,
                    "end_ns": span.end, "counts": span.counts, "ns": span.ns,
                }, sort_keys=True) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


class _OracleProxy:
    """Times ``eval`` and hands out timed key trackers."""

    def __init__(self, tracer, base):
        self._tracer = tracer
        self._base = base
        self.keyed = getattr(base, "keyed", False)
        self.integer_valued = getattr(base, "integer_valued", False)
        self.value_bound = getattr(base, "value_bound", None)

    def eval(self, left, right, tau=INF):
        start = perf_counter_ns()
        value = self._base.eval(left, right, tau)
        self._tracer.hot("oracles.eval", perf_counter_ns() - start)
        if value >= tau:
            self._tracer.bump("oracles.eval_reached", 1)
        return value

    def key_tracker(self, part, first):
        span = self._tracer.open("oracles.tracker_init")
        try:
            inner = self._base.key_tracker(part, first)
        finally:
            self._tracer.close(span)
        return _TrackerProxy(self._tracer, inner)


class _TrackerProxy:
    """Times ``advance``; ``keys`` and ``pop`` are the tracker's own."""

    def __init__(self, tracer, inner):
        self._tracer = tracer
        self._advance = inner.advance
        self.keys = inner.keys
        self.pop = inner.pop

    def advance(self, appended):
        start = perf_counter_ns()
        changed = self._advance(appended)
        self._tracer.hot("oracles.advance", perf_counter_ns() - start)
        self._tracer.bump("oracles.keys_changed", len(changed))
        return changed


def _traced_partition(tracer, base):
    class TracedPartition(base):
        def join(self, dst, src):
            start = perf_counter_ns()
            super().join(dst, src)
            tracer.hot("partition.join", perf_counter_ns() - start)

        def members(self, label):
            start = perf_counter_ns()
            result = super().members(label)
            tracer.hot("partition.members", perf_counter_ns() - start)
            return result

    return TracedPartition


def _traced_queue(tracer, base, prefix):
    insert_key = f"{prefix}.insert"
    update_key = f"{prefix}.update_key"
    del_max_key = f"{prefix}.del_max"
    init_key = f"{prefix}.init"

    class TracedQueue(base):
        def __init__(self, *args):
            start = perf_counter_ns()
            super().__init__(*args)
            tracer.hot(init_key, perf_counter_ns() - start)
            tracer.last_queue = self

        def insert(self, v, key):
            start = perf_counter_ns()
            super().insert(v, key)
            tracer.hot(insert_key, perf_counter_ns() - start)

        def update_key(self, v, key):
            start = perf_counter_ns()
            super().update_key(v, key)
            tracer.hot(update_key, perf_counter_ns() - start)

        def del_max(self):
            start = perf_counter_ns()
            result = super().del_max()
            tracer.hot(del_max_key, perf_counter_ns() - start)
            return result

    return TracedQueue
