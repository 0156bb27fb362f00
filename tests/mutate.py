"""Mutation suite: every mutant must fail the tier-1 tests named for it.

Run from anywhere, with the test extra installed:

    python tests/mutate.py            # every mutant
    python tests/mutate.py NAME ...   # only these

It copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and runs pytest there: pytest's ``pythonpath = ["src"]`` puts the
tree's own ``src/`` ahead of ``PYTHONPATH``, so a mutated package must sit
in the copy. It first runs every named test on the unmutated copy, which
must pass. Then each mutant makes one literal replacement in one file of
the copy, runs its tests in a subprocess with a timeout, and restores the
file. A replacement whose text does not occur exactly once is an error,
so a mutant the code has outgrown cannot pass as killed. Each mutant is
reported as killed, survived or timed out; the exit status is 0 only when
all are killed. Hypothesis runs with a fixed seed, so a run repeats.

The file is not named ``test_*``, so pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300  # seconds per pytest run
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--hypothesis-seed=0"]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = [
    # a tracker's advance leaves the appended class among the keys
    Mutant("advance-keeps-the-appended-class", "src/symcut/oracles.py",
           "        keys.pop(appended, None)\n        for c, w in self._adjacency",
           "        for c, w in self._adjacency",
           ("tests/test_oracles.py",)),
    # the retired-label log drops the label of a partition's second join
    Mutant("log-drops-a-label", "src/symcut/partition.py",
           "        self.retired.append(src)\n",
           "        if self.class_count != self.n - 2:\n"
           "            self.retired.append(src)\n",
           ("tests/test_quotient.py", "tests/test_partition_properties.py")),
    # the log window starts one join late
    Mutant("log-window-off-by-one", "src/symcut/partition.py",
           "return self.retired[self.n - count:]",
           "return self.retired[self.n - count + 1:]",
           ("tests/test_replay.py",)),
    # a replay that reaches the structural end stops one class before it
    Mutant("replay-stops-one-class-early", "src/symcut/order.py",
           "        if end is None:\n            end = stop\n",
           "        if end is None:\n            end = stop - 1\n",
           ("tests/test_replay.py", "tests/test_resume.py")),
    # after a run's first join, the next class reaching tau starts a new run
    Mutant("run-split-after-its-first-join", "src/symcut/driver.py",
           "            head = labels[j - 1]  # a new run\n",
           "            head = labels[j - 1]  # a new run\n"
           "        elif head == labels[j - 2]:\n"
           "            head, last = labels[j], j\n"
           "            continue\n",
           ("tests/test_paper_claim.py",)),
    # a round whose last key lowered tau joins only the pairs settled at the old one
    Mutant("settled-walked-under-a-lowered-tau", "src/symcut/driver.py",
           "    if tau == order.threshold:\n",
           "    if True:\n",
           ("tests/test_order_facts.py",)),
    # the symmetry check compares float values exactly
    Mutant("symmetry-check-compares-exactly", "src/symcut/brute.py",
           "        if not values_equal(_full_eval(oracle, s, full ^ s),\n"
           "                            _full_eval(oracle, full ^ s, s)):\n",
           "        if _full_eval(oracle, s, full ^ s) != _full_eval(oracle, full ^ s, s):\n",
           ("tests/test_verify.py",)),
    # tau is never lowered after the singleton probes
    Mutant("tau-never-lowered", "src/symcut/driver.py",
           "        if last_key < tau:\n",
           "        if last_key < tau and best is None:\n",
           ("tests/test_driver.py",)),
    # a resume sums the hyperedges before the last class without marking them
    Mutant("resume-drops-the-hit-marks", "src/symcut/oracles.py",
           "                        if hit is not None:\n"
           "                            hit[e] = True\n",
           "",
           ("tests/test_resume.py",)),
    # a resumed graph key adds the class's own row entry, not the prefix class's
    Mutant("resume-adds-the-own-row-entry", "src/symcut/oracles.py",
           "weights.append((p, d, adjacency[d][c]))",
           "weights.append((p, d, adjacency[c][d]))",
           ("tests/test_resume.py",)),
    # a resume sums the weights of the replayed prefix's last class too
    Mutant("resume-sums-through-the-last-replayed-class", "src/symcut/oracles.py",
           "first.position, end - 1, self._hit",
           "first.position, end, self._hit",
           ("tests/test_replay.py", "tests/test_resume.py")),
    # a resume leaves the replayed prefix's last class out of its keys
    Mutant("resume-drops-the-last-replayed-class", "src/symcut/order.py",
           "[c for c in order[end - 1:] if c not in joined]",
           "[c for c in order[end:] if c not in joined]",
           ("tests/test_replay.py", "tests/test_resume.py")),
    # a hypergraph's weights at one position go in descending id order
    Mutant("hypergraph-ties-by-descending-id", "src/symcut/oracles.py",
           "                weights.append((p, e, w))\n        weights.sort()\n",
           "                weights.append((p, e, w))\n"
           "        weights.sort(key=lambda t: (t[0], -t[1]))\n",
           ("tests/test_resume.py",)),
    # tied heads are not broken by label: the first to reach the key stays best
    Mutant("heads-tie-without-labels", "src/symcut/order.py",
           "if key > best_key or (key == best_key and h < best_head):",
           "if key > best_key:",
           ("tests/test_resume.py",)),
    # the replay is not capped where a class the joins left alone settles
    Mutant("settled-cap-skipped", "src/symcut/order.py",
           "    if settled and settled[0] < stop:\n        stop = settled[0]\n",
           "",
           ("tests/test_replay.py", "tests/test_resume.py")),
    # the builder's settled positions miss the last ready append of each batch
    Mutant("settled-misses-a-ready-append", "src/symcut/order.py",
           "            settled.append(len(order))\n",
           "            if ready:\n                settled.append(len(order))\n",
           ("tests/test_order_facts.py",)),
    # a resumed build's position map keeps the labels the joins retired
    Mutant("position-keeps-a-joined-label", "src/symcut/order.py",
           "        for x in partition.retired_since(len(previous.order)):\n"
           "            del position[x]\n",
           "",
           ("tests/test_order_facts.py",)),
    # any order the builder made counts as made on this partition
    Mutant("built-on-any-partition", "src/symcut/order.py",
           "made[1]() is partition",
           "made[1]() is not None",
           ("tests/test_order_facts.py",)),
    # any order the builder made counts as made for this oracle
    Mutant("made-for-any-oracle", "src/symcut/order.py",
           "made[0] is oracle and ",
           "",
           ("tests/test_replay.py",)),
    # the head test lets a class that ties with the best head's key pass,
    # whatever its label
    Mutant("head-ties-skipped", "src/symcut/order.py",
           "min(keys[lo:hi], default=INF) <= best_key",
           "min(keys[lo:hi], default=INF) < best_key",
           ("tests/test_replay.py",)),
    # the class of 0 is no head, so a replay after it grew reads stale keys
    Mutant("first-class-excepted-from-heads", "src/symcut/order.py",
           "    heads = {class_of(x) for x in joined}\n",
           "    heads = {class_of(x) for x in joined}\n    heads.discard(order[0])\n",
           ("tests/test_replay.py",)),
    # a tracker that replays nothing starts at the order's first label,
    # which a join may have retired
    Mutant("tracker-starts-at-a-retired-first-class", "src/symcut/oracles.py",
           "first = partition.class_of(first.order[0])",
           "first = first.order[0]",
           ("tests/test_replay.py",)),
    # an order built at another threshold is replayed too
    Mutant("gate-ignores-threshold", "src/symcut/order.py",
           "previous.made_for(oracle, partition)\n            and previous.threshold == tau)",
           "previous.made_for(oracle, partition))",
           ("tests/test_replay.py",)),
    # a queue build counts one update_key call it never made
    Mutant("queue-build-counts-one-update-too-many", "src/symcut/order.py",
           "    updates = 0\n",
           "    updates = 1\n",
           ("tests/test_work_counts.py",)),
    # a scan build counts one eval it never made
    Mutant("scan-build-counts-one-eval-too-many", "src/symcut/order.py",
           "    calls = 0\n",
           "    calls = 1\n",
           ("tests/test_work_counts.py",)),
    # a graph's singleton value leaves out the last weight of its row
    Mutant("singleton-sum-drops-last-weight", "src/symcut/oracles.py",
           "            for w in row.values():\n                total += w\n",
           "            for w in list(row.values())[:-1]:\n                total += w\n",
           ("tests/test_oracles.py::test_singleton_values_are_the_singleton_evals",)),
    # the seed's witness is the highest label among the least singleton values
    Mutant("seed-ties-to-highest-label", "src/symcut/driver.py",
           "best = frozenset((values.index(tau),))",
           "best = frozenset((len(values) - 1 - values[::-1].index(tau),))",
           ("tests/test_driver.py",)),
    # the driver returns the final value unchecked, a NaN included
    Mutant("final-value-unchecked", "src/symcut/driver.py",
           "    value = finite_key(oracle.eval(best, universe - best, INF), sorted(best),\n"
           "                       \"the returned set\")\n",
           "    value = oracle.eval(best, universe - best, INF)\n",
           ("tests/test_driver.py",)),
    # a graph's bulk read takes any text whose tokens fit the count, whatever its lines
    Mutant("graph-rejoin-unchecked", "src/symcut/instances.py",
           '    if "".join(joined) != text:\n        return None\n',
           "",
           ("tests/test_format_properties.py::test_graph_bulk_read_matches_the_line_walk",)),
    # the table template ends each line with a space, so no text matches it
    Mutant("table-template-without-line-breaks", "src/symcut/instances.py",
           'f"{m} %s\\n"',
           'f"{m} %s "',
           ("tests/test_format_properties.py::test_table_writer_output_is_read_in_bulk",)),
    # verify compares the result set's value with the driver's, a second
    # evaluation of the same set, instead of with the run's final tau
    Mutant("attains-compares-value-with-itself", "src/symcut/verify.py",
           "values_equal(attained, tau)",
           "values_equal(attained, value)",
           ("tests/test_verify.py",)),
    # a union of classes without element 0 reads the entry of its own mask,
    # not that of its complement
    Mutant("union-read-ignores-the-side-of-0", "src/symcut/verify.py",
           "values[(u if u & 1 else full ^ u) >> 1]",
           "values[u >> 1]",
           ("tests/test_properties.py::"
            "test_least_unions_read_from_the_table_equal_a_direct_enumeration",)),
    # the order walk stops at its first domination failure, so a later
    # wrong key goes unreported
    Mutant("order-walk-stops-at-first-domination", "src/symcut/brute.py",
           "        if dominated is not None and inexact is not None:\n",
           "        if dominated is not None:\n",
           ("tests/test_brute.py::"
            "test_lax_back_order_check_reports_each_first_failure_after_the_other",)),
    # each wrong key replaces the witness of the one before it
    Mutant("stored-key-witness-is-the-last-wrong-key", "src/symcut/brute.py",
           "if inexact is None and not values_equal(keys[i], own):",
           "if not values_equal(keys[i], own):",
           ("tests/test_brute.py::"
            "test_lax_back_order_check_reports_each_first_failure_after_the_other",)),
]


def run_pytest(copy, tests):
    """Run `tests` in `copy`: 'passed', 'failed' or 'timed out', and the seconds taken."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        result = subprocess.run([*PYTEST, *tests], cwd=copy, env=env, timeout=TIMEOUT,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timed out", time.perf_counter() - start
    return ("passed" if result.returncode == 0 else "failed"), time.perf_counter() - start


def mutate(copy, mutant):
    """Apply `mutant` to `copy`; return the file's original text."""
    path = copy / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name}: its text occurs {count} times "
                         f"in {mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return text


def main(names):
    known = {m.name for m in MUTANTS}
    unknown = sorted(set(names) - known)
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    mutants = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="symcut-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        tests = sorted({t for m in mutants for t in m.tests})
        status, seconds = run_pytest(copy, tests)
        if status != "passed":
            raise SystemExit(f"the unmutated copy {status} its tests ({seconds:.1f} s)")
        print(f"unmutated copy passed {len(tests)} test files in {seconds:.1f} s")
        survivors = 0
        for mutant in mutants:
            original = mutate(copy, mutant)
            try:
                status, seconds = run_pytest(copy, mutant.tests)
            finally:
                (copy / mutant.path).write_text(original, encoding="utf-8")
            verdict = {"failed": "killed", "passed": "survived"}.get(status, status)
            survivors += verdict != "killed"
            print(f"{verdict:9} {mutant.name:44} {seconds:6.1f} s  {' '.join(mutant.tests)}",
                  flush=True)
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
