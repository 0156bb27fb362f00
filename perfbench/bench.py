"""Closed-loop measurement of one workload.

One process, one client, no threads. A run sets the workload up several
times, for at least two seconds (``setup_s`` is the median), warms up on
the first instance of each family, then solves whole passes until the time
is up. A pass solves every instance once, families interleaved and
configurations (heap and bucket queue on the library workloads)
alternating from one instance to the next; a block of passes runs every
instance under every configuration once, and a run measures whole blocks,
so every instance and configuration weighs the same.

The speed probe (``speed.py``) runs between every two operations and
between set-ups; every end-to-end time is scaled by the probes on either
side of it, so drift in the machine's speed cancels out.

With tracing on, untraced and traced blocks alternate, about half the time
each: the untraced ones give the baseline for ``trace.overhead_frac`` and
the traced ones the per-layer metrics. Count metrics come from whole traced
blocks only, so they repeat exactly for a given seed.

Operations are checked after the timed loop, once per distinct outcome
and weighted by how often it occurred; ``peak_rss_mb`` is read before.
"""

import gc
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter, perf_counter_ns

from check import ReferenceCache, check_outcome
from spans import Tracer
from speed import Probe, scaled
from workloads import WORKLOADS

# set-up is repeated at least this often and for at least this long
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# a percentile is reported as meaningful only with this many samples beyond it
TAIL_SAMPLES = 10


def run_pass(workload, instances, positions, index, samples, outcomes, probe,
             tracer=None):
    """Solve each given instance once, under one configuration.

    Pass `index` gives the instance at step k the configuration
    ``configs[(index + k) % len(configs)]``: configurations alternate from
    one instance to the next, and ``len(configs)`` successive passes (a
    block) run every instance under every configuration once, so slow drift
    in machine speed hits every configuration alike. Appends each
    operation's time, scaled by the probes run before and after it, to
    `samples` and counts its decoded outcome, or the exception that ended
    it, in `outcomes`; identical outcomes share one entry, so memory does
    not grow with run length.
    """
    configs = workload.configs
    before = probe.run()
    for step, position in enumerate(positions):
        config = configs[(index + step) % len(configs)]
        start = perf_counter_ns()
        if tracer is not None:
            tracer.next_operation()
        try:
            raw = workload.solve(instances[position], config)
        except Exception as exc:  # a failed operation is counted, not fatal
            raw = exc
        raw_ns = perf_counter_ns() - start
        after = probe.run()
        samples.append(scaled(raw_ns, before, after))
        before = after
        try:
            outcome = raw if isinstance(raw, Exception) else workload.decode(
                instances[position], raw)
        except Exception as exc:  # a malformed answer is a failed operation too
            outcome = exc
        outcomes[position, outcome] += 1


def measure(workload, instances, seconds, trace, probe):
    """Warm up, then run whole blocks of passes for `seconds` of wall time.

    With `trace`, untraced and traced blocks alternate, ending on a traced
    one. Returns (untraced samples, traced samples, tracer or None, outcome
    counts of every operation); samples are scaled times in ns.
    """
    block = len(workload.configs)
    outcomes = Counter()
    firsts = {}
    for position, instance in enumerate(instances):
        firsts.setdefault(instance.family, position)
    # every code path once, untimed
    for index in range(block):
        run_pass(workload, instances, list(firsts.values()), index, [], outcomes, probe)

    everything = range(len(instances))
    untraced, traced = [], []
    tracer = Tracer() if trace else None
    cycle = 2 * block if trace else block
    start = perf_counter()
    passes = 0
    while perf_counter() - start < seconds or passes % cycle:
        if trace and passes % cycle >= block:
            with tracer.installed():
                run_pass(workload, instances, everything, passes, traced, outcomes,
                         probe, tracer)
        else:
            run_pass(workload, instances, everything, passes, untraced, outcomes, probe)
        passes += 1
    return untraced, traced, tracer, outcomes


def check_all(instances, outcomes, cache):
    """Count failed operations; return (failed, the first few reasons)."""
    failed = 0
    reasons = []
    for (position, outcome), count in outcomes.items():
        instance = instances[position]
        if isinstance(outcome, Exception):
            reason = f"raised {outcome!r}"
        else:
            reason = check_outcome(instance, outcome, cache.get(instance))
        if reason is not None:
            failed += count
            reasons.append(f"{instance.params}: {reason}")
    return failed, reasons[:5]


def run(name, seed, seconds, trace, outdir):
    """Measure one workload; returns (summary line, result object)."""
    workload = WORKLOADS[name]
    outdir.mkdir(parents=True, exist_ok=True)
    workdir = outdir / "files" / name
    probe = Probe()
    setups = []
    instances = None
    before = probe.run()
    start = perf_counter()
    while len(setups) < SETUP_REPEATS or perf_counter() - start < SETUP_SECONDS:
        # never hold two copies: ru_maxrss and the collector would see both
        instances = None
        gc.collect()
        setup_start = perf_counter_ns()
        instances = workload.setup(seed, workdir)
        raw_ns = perf_counter_ns() - setup_start
        after = probe.run()
        setups.append(scaled(raw_ns, before, after) / 1e9)
        before = after

    untraced, traced, tracer, outcomes = measure(workload, instances, seconds, trace,
                                                 probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    cache = ReferenceCache(outdir / "references.json")
    failed, reasons = check_all(instances, outcomes, cache)
    attempted = sum(outcomes.values())
    for reason in reasons:
        print(f"check failed: {reason}", file=sys.stderr)

    samples_ms = [ns / 1e6 for ns in untraced]
    p50 = statistics.median(samples_ms)
    probe_ms = statistics.median(probe.times) / 1e6
    summary = (f"workload={name} seed={seed} instances={len(instances)} "
               f"samples={len(samples_ms)} attempted={attempted} failed={failed} "
               f"setups={len(setups)} probe_ms={probe_ms:.4g}")
    if trace:
        metrics = tracer.layer_metrics()
        traced_p50 = statistics.median(traced) / 1e6
        metrics["trace.overhead_frac"] = (traced_p50 / p50 - 1, "ratio")
        tracer.write(outdir / f"trace-{name}-seed{seed}.jsonl")
        summary += f" traced_ops={tracer.ops}"
    else:
        p90 = statistics.quantiles(samples_ms, n=10)[-1]
        beyond = sum(1 for s in samples_ms if s > p90)
        summary += f" beyond_p90={beyond}"
        if beyond < TAIL_SAMPLES:
            summary += " warning=p90_has_fewer_than_10_samples_beyond_it"
        metrics = {
            "solve_ms_p50": (p50, "ms"),
            "solve_ms_p90": (p90, "ms"),
            "solves_per_s": (len(samples_ms) / (sum(samples_ms) / 1e3), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return summary, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
