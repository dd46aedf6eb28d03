"""Dense headroom kernel vs validation-tree walk: the perf headline.

Three measurements back the kernel's claim sheet, all written to
``BENCH_kernel.json`` for the CI gate:

* **Admission headroom latency** -- per-probe p50/p99 for the tree
  walk's superset enumeration vs the kernel's single ``H`` lookup, at
  paper-scale group sizes.  The gated headline: dense admission p99 is
  >= 10x lower at ``N_k >= 14`` (in practice it is orders of magnitude
  lower; 10x is the regression floor, not the observation).
* **Update cost vs |T|** -- cone masks touched per insert is exactly
  ``2^{N_k - |T|}`` (deterministic, gated exactly), so *larger* matched
  sets are *cheaper* to absorb -- the inverse of the tree walk's cost
  shape.
* **Crossover vs N_k** -- end-to-end insert+revalidate streams for both
  engines across group sizes, with byte-identical verdicts asserted and
  the verdict-parity flag gated exactly.

Set ``REPRO_BENCH_SMOKE=1`` to shrink probe counts for CI smoke runs
(the group sizes stay the same: the quantities gated exactly are
deterministic in N, and the 10x floor needs paper scale to be
meaningful).
"""

import os
import time

from repro.core.grouping import GroupStructure
from repro.core.incremental import GroupSlice
from repro.core.kernel import KERNEL_DENSE, KERNEL_TREE, DenseHeadroomKernel
from repro.validation.capacity import headroom as tree_headroom
from repro.validation.limits import DEFAULT_KERNEL_CAP
from repro.validation.tree import ValidationTree
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Group sizes for the admission-latency comparison, with per-size probe
#: counts (each probe timed individually).  14 is the paper scale the
#: acceptance floor is pinned at; 18 shows the gap widening.  Probe
#: counts shrink as N grows because the *tree* side's superset
#: enumeration is exponential in N -- the dense side would happily take
#: millions.
ADMISSION_PROBES = (
    {10: 200, 14: 200} if SMOKE else {10: 1000, 14: 500, 18: 60}
)
#: Records preloaded before probing (admission against live state).
PRELOAD = 40
#: Fixed N for the update-cost sweep; |T| sweeps 1..N.
UPDATE_N = 12
UPDATE_SET_SIZES = (1, 2, 4, 8, 12)
#: Group sizes for the end-to-end crossover stream.
CROSSOVER_SIZES = (4, 8, 12) if SMOKE else (4, 8, 12, 16)
CROSSOVER_STREAM = 120 if SMOKE else 400
SEED = 0


def _rng_state(seed):
    """Tiny deterministic LCG so probe sets do not depend on stdlib
    ``random`` (keeps the gated deterministic quantities bit-stable)."""
    state = seed * 2654435761 % (1 << 32)
    while True:
        state = (1103515245 * state + 12345) % (1 << 31)
        yield state


def _member_sets(n, count, seed, max_size=3):
    """Deterministic stream of small member sets over a size-n group
    (small sets = the expensive case for the tree walk's cone)."""
    rng = _rng_state(seed)
    sets = []
    for _ in range(count):
        size = 1 + next(rng) % max_size
        members = sorted({1 + next(rng) % n for _ in range(size)})
        sets.append(tuple(members))
    return sets


def _mask(members):
    mask = 0
    for member in members:
        mask |= 1 << (member - 1)
    return mask


def _aggregates(n, seed):
    rng = _rng_state(seed + 17)
    return [300 + next(rng) % 900 for _ in range(n)]


def _percentiles(samples):
    ordered = sorted(samples)
    def pick(q):
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return pick(0.50), pick(0.99)


def test_admission_headroom_latency(report, kernel_bench_json):
    """Single H-lookup admission vs superset-enumerating tree walk."""
    sections = {}
    lines = [
        f"admission headroom latency: dense H-lookup vs tree walk "
        f"({PRELOAD} preloaded records)",
        "",
        "  N_k | tree p50   | tree p99   | dense p50  | dense p99  | p99 speedup",
        "  ----+------------+------------+------------+------------+------------",
    ]
    for n, probe_count in ADMISSION_PROBES.items():
        aggregates = _aggregates(n, SEED)
        kernel = DenseHeadroomKernel(aggregates)
        tree = ValidationTree()
        for members in _member_sets(n, PRELOAD, SEED + 1):
            kernel.insert(_mask(members), 2)
            tree.insert_set(members, 2)
        probes = _member_sets(n, probe_count, SEED + 2)

        tree_samples = []
        dense_samples = []
        expected = []
        for members in probes:
            mask = _mask(members)
            started = time.perf_counter()
            value = tree_headroom(tree, aggregates, mask)
            tree_samples.append(time.perf_counter() - started)
            expected.append(value)
        for position, members in enumerate(probes):
            mask = _mask(members)
            started = time.perf_counter()
            value = kernel.headroom(mask)
            dense_samples.append(time.perf_counter() - started)
            assert value == expected[position], (
                f"headroom diverged at N={n}, probe {members}"
            )

        tree_p50, tree_p99 = _percentiles(tree_samples)
        dense_p50, dense_p99 = _percentiles(dense_samples)
        speedup_p99 = tree_p99 / dense_p99
        lines.append(
            f"  {n:3d} | {tree_p50 * 1e6:7.1f} us | {tree_p99 * 1e6:7.1f} us"
            f" | {dense_p50 * 1e6:7.1f} us | {dense_p99 * 1e6:7.1f} us"
            f" | {speedup_p99:9.0f}x"
        )
        # The acceptance floor: >= 10x lower admission p99 at paper
        # scale.  Observed ratios are far higher; 10x only trips when
        # the fast path stops being a table lookup.
        if n >= 14:
            assert speedup_p99 >= 10, (
                f"dense admission p99 should be >= 10x lower at N={n}, "
                f"got {speedup_p99:.1f}x"
            )
        sections[str(n)] = {
            "probes": probe_count,
            "tree_p50": tree_p50,
            "tree_p99": tree_p99,
            "dense_p50": dense_p50,
            "dense_p99": dense_p99,
            "speedup_p99": speedup_p99,
        }
    report("kernel_admission_latency", "\n".join(lines))
    kernel_bench_json(
        "kernel_admission", {"smoke": SMOKE, "sizes": sections}
    )


def test_update_cost_vs_set_size(report, kernel_bench_json):
    """Cone updates shrink as 2^(N-|T|): big sets are cheap inserts."""
    aggregates = _aggregates(UPDATE_N, SEED)
    lines = [
        f"incremental update cost vs matched-set size (N_k = {UPDATE_N})",
        "",
        "  |T| | cone masks touched | predicted 2^(N-|T|)",
        "  ----+--------------------+--------------------",
    ]
    sections = {}
    for set_size in UPDATE_SET_SIZES:
        kernel = DenseHeadroomKernel(aggregates)
        members = tuple(range(1, set_size + 1))
        touched = kernel.insert(_mask(members), 1)
        predicted = 1 << (UPDATE_N - set_size)
        assert touched == predicted, (
            f"cone size off at |T|={set_size}: {touched} != {predicted}"
        )
        kernel.check_invariants()
        lines.append(f"  {set_size:3d} | {touched:18d} | {predicted:18d}")
        sections[str(set_size)] = {"masks_touched": touched}
    report("kernel_update_cost", "\n".join(lines))
    kernel_bench_json(
        "kernel_update_cost",
        {"smoke": SMOKE, "n": UPDATE_N, "set_sizes": sections},
    )


def test_crossover_vs_group_size(report, kernel_bench_json):
    """End-to-end insert+revalidate streams: identical verdicts, the
    dense engine pulling ahead as N_k grows."""
    lines = [
        f"end-to-end crossover: {CROSSOVER_STREAM}-record streams, "
        f"revalidate every 8 records",
        "",
        "  N_k | tree total | dense total | speedup | verdicts",
        "  ----+------------+-------------+---------+---------",
    ]
    sections = {}
    for n in CROSSOVER_SIZES:
        aggregates = _aggregates(n, SEED + n)
        structure = GroupStructure((frozenset(range(1, n + 1)),), n)
        stream = _member_sets(n, CROSSOVER_STREAM, SEED + 3)
        totals = {}
        verdict_streams = {}
        for kernel_name, kernel_cap in (
            (KERNEL_TREE, 0),
            (KERNEL_DENSE, DEFAULT_KERNEL_CAP),
        ):
            gslice = GroupSlice(structure, aggregates, 0, kernel_cap=kernel_cap)
            assert gslice.kernel_name == kernel_name
            verdicts = []
            started = time.perf_counter()
            for position, members in enumerate(stream):
                slack = gslice.headroom(members)
                if slack >= 2:
                    gslice.insert(members, 2)
                    verdicts.append("A")
                else:
                    verdicts.append("r")
                if position % 8 == 7:
                    report_obj, _ = gslice.revalidate()
                    verdicts.append("V" if report_obj.is_valid else "x")
            totals[kernel_name] = time.perf_counter() - started
            verdict_streams[kernel_name] = "".join(verdicts)
        identical = (
            verdict_streams[KERNEL_TREE] == verdict_streams[KERNEL_DENSE]
        )
        assert identical, f"verdict streams diverged at N={n}"
        speedup = totals[KERNEL_TREE] / totals[KERNEL_DENSE]
        lines.append(
            f"  {n:3d} | {totals[KERNEL_TREE] * 1e3:7.2f} ms "
            f"| {totals[KERNEL_DENSE] * 1e3:8.2f} ms "
            f"| {speedup:6.1f}x | identical"
        )
        sections[str(n)] = {
            "tree_s": totals[KERNEL_TREE],
            "dense_s": totals[KERNEL_DENSE],
            "speedup": speedup,
            "identical": identical,
        }
    report("kernel_crossover", "\n".join(lines))
    kernel_bench_json(
        "kernel_crossover",
        {"smoke": SMOKE, "stream": CROSSOVER_STREAM, "sizes": sections},
    )
