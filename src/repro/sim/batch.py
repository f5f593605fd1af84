"""Batched epoch engine: set-partitioned, bit-identical to the event engine.

MorphCache only reconfigures at epoch boundaries, so within one epoch the
topology, search orders and latencies are frozen.  The event engine
(:func:`repro.sim.engine.run_epoch`) still pays a per-access Python dispatch
through ``system.access`` and ``CoreTimingModel.account``; this module
resolves the same epoch as a small number of array operations plus one
specialised kernel loop, and produces **bit-identical** results — the same
hit/miss decisions, the same stamps and LRU orders, the same statistics,
ACFVs and ``cycles`` floats, pinned by the golden-determinism fixtures and
the differential suite (``tests/sim/test_batch_equivalence.py``).

Why reordering is sound — the set-partition argument (DESIGN.md §7):

1. Stamps are positional.  The hierarchy increments its stamp counter once
   per access regardless of outcome, so access ``g`` of the round-robin
   interleave always receives stamp ``base + 1 + g``.  The batch engine
   reserves the whole range up front (:meth:`CacheHierarchy.advance_stamp`)
   and hands each access its stamp explicitly.

2. Every structure a reference can touch shares its low ``line`` bits.
   With power-of-two set counts the smallest level's index bits are a
   subset of every level's index bits, so a reference, its LRU victims
   (same set per level), its L1 dirty write-back target (same L1 set),
   inclusion back-invalidations (same set at the lower levels) and
   coherence invalidations (same line) all agree on
   ``line & (partition_sets - 1)``.  Each cache set at every level is
   therefore wholly owned by one partition.

3. Hence resolving partition 0's subsequence (in its original global
   order), then partition 1's, … performs exactly the same operations on
   exactly the same per-set state in exactly the same per-set order as the
   fully interleaved stream.  Per-core/per-slice counters are integer sums
   (order-free); observer effects are gated to order-free ones (ACFV
   ``on_hit`` is a bitwise OR; see :func:`_observer_order_free`).

4. Timing sums exactly.  ``cycles`` accumulates dyadic rationals on a
   coarse grid whenever ``issue_width`` is a power of two and the hidden
   off-chip fraction is a multiple of 2**-8 (the defaults), so any
   regrouping of the sum is exact — ``CoreTimingModel.account_summary``
   reproduces the scalar loop bit for bit.  Configurations outside that
   envelope fall back to order-preserving accounting.

Kernels:

- **private** — all-private LRU topologies (``_private_fast`` on every
  core): the hottest benchmark path.  A single tight loop with the slice
  probes inlined, per-core integer counters instead of per-access stat
  increments and no per-access timing calls; ≥3× the event engine
  (BENCH_batch.json).
- **merged / shared** — LRU topologies with multi-slice groups (the
  configurations MorphCache's merge decisions create, including under
  faults): the slice-group kernel (:mod:`repro.sim.group_kernel`, loaded
  on the first merged or shared epoch).  Sets are
  partitioned at the slice-*group* level — the set-partition argument
  holds unchanged because every slice of a group is probed at the same
  set index — and the per-access probe of every group slice is replaced
  by one aggregate ``line -> slice`` residency map per multi-slice group
  (:meth:`CacheHierarchy.group_line_index`), built by a single scan,
  cached across epochs and maintained incrementally by the kernel's own
  fills/evictions/back-invalidations/lazy invalidations.  The ``shared``
  tag is the fully-shared special case (one L2 group spanning the
  machine); mechanically the same kernel.
- **general** — anything else (PLRU, order-sensitive observers,
  timing-inexact configurations): the real access path driven in global
  order with batched timing.
- **event fallback** — systems without a batchable hierarchy (PIPP, DSR,
  UCP) run the event engine unchanged; :func:`run_epoch_batch` reports
  which path it took.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.caches.cache import Entry
from repro.caches.hierarchy import CacheHierarchy, HierarchyObserver, L2, L3
from repro.core.acfv import AcfvBank
from repro.cpu.cmp import CmpSystem
from repro.cpu.core_model import CoreTimingModel
from repro.obs import metrics as obs_metrics
from repro.sim.engine import run_epoch

#: Tags returned by :func:`run_epoch_batch` naming the path taken.
PRIVATE_PERCORE = "batch-private-percore"
PRIVATE_KERNEL = "batch-private"
MERGED_KERNEL = "batch-merged"
SHARED_KERNEL = "batch-shared"
GENERAL_KERNEL = "batch-general"
EVENT_FALLBACK = "event"


def _record_tier(tag: str) -> str:
    """Count the dispatch tier taken (once per epoch; off-path cost is one
    flag check, within the <2% tracing-off budget)."""
    reg = obs_metrics.REGISTRY
    if reg.enabled:
        reg.counter("repro_batch_epochs_total",
                    "Epochs resolved by the batch engine, by dispatch tier",
                    labels=("tier",)).labels(tier=tag).inc()
    return tag


def batch_unsupported(system) -> Optional[str]:
    """Why ``system`` cannot be batched this epoch, or None if it can.

    Only a plain :class:`~repro.cpu.cmp.CmpSystem` (MorphCache or a static
    topology) exposes the hierarchy the kernels operate on; the PIPP/DSR/
    UCP baselines implement the access protocol with their own organisations
    and run on the event engine.
    """
    if type(system) is not CmpSystem:
        label = getattr(system, "label", type(system).__name__)
        return f"scheme {label!r} does not expose a batchable hierarchy"
    if not isinstance(system.hierarchy, CacheHierarchy):
        return "system.hierarchy is not a CacheHierarchy"
    return None


def run_epoch_batch(system, traces: Dict[int, object],
                    timers: Dict[int, CoreTimingModel],
                    n_accesses: int) -> str:
    """Drive one epoch like :func:`~repro.sim.engine.run_epoch`, batched.

    Drop-in replacement: same signature, same post-state, same timer
    contents, bit for bit.  Returns the path taken
    (``batch-private-percore``, ``batch-private``, ``batch-merged``,
    ``batch-shared``, ``batch-general`` or ``event`` for the fallback),
    which the tests and benchmarks assert on.
    """
    if batch_unsupported(system) is not None:
        run_epoch(system, traces, timers, n_accesses)
        return _record_tier(EVENT_FALLBACK)
    active = list(traces)
    if not active or n_accesses <= 0:
        return _record_tier(GENERAL_KERNEL)
    hier = system.hierarchy
    gap_sums = {core: int(traces[core].gaps[:n_accesses].sum())
                for core in active}
    order_free = _observer_order_free(hier)

    if (hier.all_private_fast
            and order_free
            and _private_timing_exact(hier, timers, active, gap_sums,
                                      n_accesses)):
        if _percore_applicable(hier, traces, active, n_accesses):
            _run_private_percore(hier, timers, traces, active, n_accesses,
                                 gap_sums)
            _mark_percore_clean(hier)
            return _record_tier(PRIVATE_PERCORE)
        lines, writes, cores = _interleave(traces, active, n_accesses)
        _run_private_kernel(hier, timers, active, n_accesses,
                            lines, writes, cores, gap_sums)
        return _record_tier(PRIVATE_KERNEL)
    if (order_free
            and hier.config.replacement == "lru"
            and _group_timing_exact(hier, timers, active, gap_sums,
                                    n_accesses)):
        from repro.sim.group_kernel import run_group_kernel

        lines, writes, cores = _interleave(traces, active, n_accesses)
        run_group_kernel(hier, timers, active, n_accesses,
                         lines, writes, cores, gap_sums)
        # Fully shared (one L2 group spanning the machine) is the paper's
        # "(cores:1:1)" end of the spectrum; anything else multi-slice is
        # a merged topology.  The distinction is observability only.
        if len(hier._l2_groups) == 1:
            return _record_tier(SHARED_KERNEL)
        return _record_tier(MERGED_KERNEL)
    lines, writes, cores = _interleave(traces, active, n_accesses)
    _run_general(system, timers, traces, active, n_accesses,
                 lines, writes, cores)
    return _record_tier(GENERAL_KERNEL)


# -- epoch materialisation ---------------------------------------------------

def _interleave(traces, active: List[int],
                n_accesses: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The deterministic round-robin global interleave, as arrays.

    Access ``i`` of core rank ``r`` lands at global index ``i * k + r`` —
    exactly the order the event engine's nested loop visits.  Strided
    assignment keeps this at numpy speed with no ``tolist`` round trip.
    """
    k = len(active)
    total = n_accesses * k
    lines = np.empty(total, dtype=np.int64)
    writes = np.empty(total, dtype=bool)
    for rank, core in enumerate(active):
        trace = traces[core]
        lines[rank::k] = trace.lines[:n_accesses]
        writes[rank::k] = trace.writes[:n_accesses]
    cores = np.tile(np.asarray(active, dtype=np.int64), n_accesses)
    return lines, writes, cores


def _observer_order_free(hier: CacheHierarchy) -> bool:
    """Whether the installed observer commutes across partitions.

    The base observer's hooks are no-ops; an :class:`AcfvBank` with no
    eviction-time clearing only ever ORs bits in on hits, so the final
    vectors are independent of cross-partition order.  Any other observer
    (or clear-on-evict banks, where a cross-partition hash collision could
    interleave a set and a clear of the same bit differently) routes the
    epoch to the order-preserving general kernel.
    """
    observer = hier.observer
    if type(observer) is HierarchyObserver:
        return True
    if type(observer) is AcfvBank:
        return not observer.clear_levels
    return False


def _private_timing_exact(hier, timers, active, gap_sums,
                          n_accesses: int) -> bool:
    """Whether every active timer admits exact order-free summation."""
    lat = hier.config.latency
    max_latency = max(lat.l1_hit, lat.l2_local_hit, lat.l3_local_hit,
                      lat.memory) + lat.coherence_invalidate
    for core in active:
        timer = timers[core]
        bound = timer.cycles + gap_sums[core] + n_accesses * max_latency + 1
        if not timer.batch_summation_exact(bound):
            return False
    return True


def _group_timing_exact(hier, timers, active, gap_sums,
                        n_accesses: int) -> bool:
    """The exactness check for the group kernel: its latency bound must
    additionally cover remote merged hits (distance span, bus-fault
    penalty), which :meth:`CacheHierarchy.max_access_latency` folds in."""
    max_latency = hier.max_access_latency()
    for core in active:
        timer = timers[core]
        bound = timer.cycles + gap_sums[core] + n_accesses * max_latency + 1
        if not timer.batch_summation_exact(bound):
            return False
    return True


# -- the per-core kernel (no shared lines) -----------------------------------
#
# Under an all-private topology an access by core ``c`` touches only core
# ``c``'s slices — *except* through lines that more than one core has ever
# referenced: the L1 directory entry of such a line can carry foreign
# holders, so a write (coherence invalidation) or an eviction
# (back-invalidation) by one core can reach into another core's L1.  When
# no line is shared — the overwhelmingly common case for multiprogrammed
# mixes, whose address spaces are disjoint by construction — the cores are
# fully independent and each trace can run back-to-back in its own tight
# loop (no interleave, no partition sort, stamps by arithmetic), which is
# the fastest path in the engine.
#
# Sharedness is *verified*, not assumed: a full scan of the resident state
# builds a line -> owner map (cached on the hierarchy, invalidated whenever
# the stamp, groups or fault sets changed outside this kernel), and each
# epoch's trace lines are checked against it.  Any conflict — two owners
# for a line, a multi-holder directory entry, a trace touching a foreign
# line, a multi-slice L3 cover under faults — falls back to the partition
# kernel, which handles sharing exactly.

_PERCORE_ATTR = "_batch_percore_state"


def _percore_marker(hier: CacheHierarchy) -> tuple:
    """Fingerprint of everything that can move state outside this kernel.

    The stamp advances on every access (any engine), and group/fault
    changes cover reconfiguration repair, which mutates state without
    consuming stamps.  Repair only *removes* entries, so a stale owner map
    can never hide new sharing — at worst it fails a check conservatively.
    """
    return (hier._stamp,
            tuple(hier._l2_groups), tuple(hier._l3_groups),
            frozenset(hier.disabled_slices(L2)),
            frozenset(hier.disabled_slices(L3)))


#: Granularity of the slot-level ownership fast path, in line-address bits.
#: Synthetic workloads place each thread's private region in its own
#: ``1 << 40``-aligned stride (and shared regions far above), so after the
#: first epoch a core's whole trace usually falls inside one slot it already
#: owns outright — an O(1) min/max check instead of a per-line scan.  The
#: constant is a heuristic only; correctness never depends on alignment.
_SLOT_BITS = 40


def _scan_owners(hier: CacheHierarchy) -> Optional[Tuple[Dict[int, int],
                                                         Dict[int, int]]]:
    """Build resident line -> owner (and slot -> owner) maps, or None.

    Fills always stamp the accessing core as ``owner`` under a private
    topology, so two residencies of one line under different owners (or a
    multi-holder directory entry) prove the line was referenced by more
    than one core.  A slot maps to a core only while *every* recorded line
    in it belongs to that core (-1 marks a slot shared between cores).
    """
    owners: Dict[int, int] = {}
    slots: Dict[int, int] = {}
    for slices in (hier.l1s, hier.l2s, hier.l3s):
        for slice_ in slices:
            for ways in slice_._data:
                for entry in ways:
                    if owners.setdefault(entry.line, entry.owner) != entry.owner:
                        return None
    for line, holders in hier._l1_directory.items():
        if len(holders) > 1:
            return None
        for holder in holders:
            if owners.setdefault(line, holder) != holder:
                return None
    for line, owner in owners.items():
        slot = line >> _SLOT_BITS
        if slots.setdefault(slot, owner) != owner:
            slots[slot] = -1
    return owners, slots


def _percore_applicable(hier: CacheHierarchy, traces, active: List[int],
                        n_accesses: int) -> bool:
    """Whether this epoch can run core-by-core, committing trace ownership.

    On success the epoch's new lines are recorded in the cached owner map
    (the kernel preserves the no-sharing invariant, so the cache stays
    valid).  On failure nothing is recorded as clean — the next epoch
    rescans.
    """
    if any(len(cover) != 1 for cover in hier._l3_group_of):
        return False
    # Singleton L2 groups give the kernel strict per-slice inclusion
    # (L1 ⊆ own L2 slice ⊆ own L3 slice), which it exploits to skip
    # back-invalidation probes; fault-merged groups use the partition
    # kernel instead.
    if any(len(group) != 1 for group in hier._l2_group_of):
        return False
    state = getattr(hier, _PERCORE_ATTR, None)
    if state is None or state["marker"] != _percore_marker(hier):
        state = {"marker": None, "maps": _scan_owners(hier)}
        setattr(hier, _PERCORE_ATTR, state)
    maps = state["maps"]
    if maps is None:
        return False
    owners, slots = maps
    get = owners.get
    slot_get = slots.get
    for core in active:
        arr = traces[core].lines[:n_accesses]
        lo = int(arr.min())
        hi = int(arr.max())
        slot = lo >> _SLOT_BITS
        if hi >> _SLOT_BITS == slot and slot_get(slot) == core:
            # Every line of the epoch falls in a slot whose recorded lines
            # all belong to this core already — nothing new to commit.
            continue
        for line in set(arr.tolist()):
            owner = get(line)
            if owner is None:
                owners[line] = core
                line_slot = line >> _SLOT_BITS
                if slots.setdefault(line_slot, core) != core:
                    slots[line_slot] = -1
            elif owner != core:
                # Shared line (or a stale claim on a long-dead one):
                # conservative fallback; the partition kernel is exact.
                return False
    return True


def _mark_percore_clean(hier: CacheHierarchy) -> None:
    """Record that the cached owner map matches the post-epoch state."""
    state = getattr(hier, _PERCORE_ATTR)
    state["marker"] = _percore_marker(hier)


def _run_private_percore(hier: CacheHierarchy, timers, traces,
                         active: List[int], n_accesses: int,
                         gap_sums: Dict[int, int]) -> None:
    """All-private epoch with no shared lines: one tight loop per core.

    Bit-identical to the event engine because, with every line referenced
    by exactly one core, *no* operation of one core's access can read or
    write another core's structures — the global round-robin order is then
    equivalent to any per-core grouping.  Stamps remain positional
    (access ``i`` of rank ``r`` gets ``base + 1 + i*k + r``), and the
    coherence branches are provably dead: a multi-holder set cannot exist,
    so writes only set the dirty bit exactly as the event path would.

    The L1 directory is *reconstructed* rather than maintained per access:
    under the gate a core's directory entries are exactly
    ``{line: {core}}`` for its resident L1 lines, nothing reads the
    directory during the epoch (both coherence reads are dead), and the
    back-invalidation probe "is the victim in some L1?" is answered by the
    L1 index itself — so deleting the entries that left the L1 and adding
    fresh ``{core}`` singletons for the ones that joined, once per core,
    yields the identical final directory.  Statistics and timing flush per
    core from integer counts, as in the partition kernel.
    """
    config = hier.config
    k = len(active)
    base = hier.advance_stamp(n_accesses * k)
    m1 = config.l1.sets - 1
    m2 = config.l2_slice.sets - 1
    m3 = config.l3_slice.sets - 1
    w1 = config.l1.ways
    w2 = config.l2_slice.ways
    w3 = config.l3_slice.ways
    lat = config.latency
    lat_l1, lat_l2, lat_l3 = lat.l1_hit, lat.l2_local_hit, lat.l3_local_hit
    lat_mem = lat.memory
    directory = hier._l1_directory
    notify_hit = hier._notify_hit
    on_hit = hier.observer.on_hit
    new_entry = Entry
    core_stats = hier.stats.cores
    l2_stats = hier._l2_slice_stats
    l3_stats = hier._l3_slice_stats

    for rank, core in enumerate(active):
        trace = traces[core]
        lines_list = trace.lines[:n_accesses].tolist()
        writes_list = trace.writes[:n_accesses].tolist()
        l1x = hier.l1s[core]._index
        l1d = hier.l1s[core]._data
        l2x = hier.l2s[core]._index
        l2d = hier.l2s[core]._data
        l3x = hier.l3s[core]._index
        l3d = hier.l3s[core]._data
        # Directory reconstruction (see docstring): remember what is in
        # this L1 now, fix the directory up after the loop.
        old_resident = {ln for bucket in l1x for ln in bucket}
        # Insertion counts need no loop counters: every L3/mem resolution
        # fills L2 (ins2 == cl3 + cmem) and every mem resolution fills L3
        # (ins3 == cmem).
        # cl3 is derived at flush (cl3 = n - cl1 - cl2 - cmem): the L3-hit
        # branch is the most-executed one, so it carries no counter at all.
        cl1 = cl2 = cmem = evi2 = evi3 = 0
        stamp = base + rank + 1 - k

        for line, write in zip(lines_list, writes_list):
            stamp += k
            set1 = line & m1
            bucket1 = l1x[set1]
            if line in bucket1:
                entry = bucket1[line]
                entry.stamp = stamp
                del bucket1[line]
                bucket1[line] = entry
                cl1 += 1
                if write:
                    entry.dirty = True
                continue

            set2 = line & m2
            bucket2 = l2x[set2]
            if line in bucket2:
                entry = bucket2[line]
                entry.stamp = stamp
                del bucket2[line]
                bucket2[line] = entry
                cl2 += 1
                if notify_hit:
                    on_hit(L2, core, core, line)
            else:
                set3 = line & m3
                bucket3 = l3x[set3]
                entry = bucket3.get(line)
                if entry is not None:
                    entry.stamp = stamp
                    del bucket3[line]
                    bucket3[line] = entry
                    if notify_hit:
                        on_hit(L3, core, core, line)
                else:
                    cmem += 1
                    ways3 = l3d[set3]
                    if len(ways3) >= w3:
                        for v_line in bucket3:
                            break
                        victim = bucket3.pop(v_line)
                        ways3.remove(victim)
                        victim.line = line
                        victim.owner = core
                        victim.dirty = write
                        victim.stamp = stamp
                        ways3.append(victim)
                        bucket3[line] = victim
                        evi3 += 1
                        # Inclusion: the L3 cover is this core alone (gate).
                        # Strict per-slice inclusion (singleton L2 group)
                        # means a victim absent from the L2 slice cannot be
                        # in the L1 either; the directory entry, if any, is
                        # exactly {core} and gets rebuilt at flush.
                        v_set2 = v_line & m2
                        ve = l2x[v_set2].pop(v_line, None)
                        if ve is not None:
                            l2d[v_set2].remove(ve)
                            evi2 += 1
                            v_set1 = v_line & m1
                            ve = l1x[v_set1].pop(v_line, None)
                            if ve is not None:
                                l1d[v_set1].remove(ve)
                    else:
                        entry = new_entry(line, core, write, stamp)
                        ways3.append(entry)
                        bucket3[line] = entry

                ways2 = l2d[set2]
                if len(ways2) >= w2:
                    for v_line in bucket2:
                        break
                    victim = bucket2.pop(v_line)
                    ways2.remove(victim)
                    victim.line = line
                    victim.owner = core
                    victim.dirty = write
                    victim.stamp = stamp
                    ways2.append(victim)
                    bucket2[line] = victim
                    evi2 += 1
                    v_set1 = v_line & m1
                    ve = l1x[v_set1].pop(v_line, None)
                    if ve is not None:
                        l1d[v_set1].remove(ve)
                else:
                    entry = new_entry(line, core, write, stamp)
                    ways2.append(entry)
                    bucket2[line] = entry

            # Fill L1.  The victim's holder set is exactly {core} (no
            # sharing), so the discard-then-empty-delete of the event path
            # collapses to a plain delete — deferred to the flush, along
            # with the fresh singleton insert for the filled line.
            ways1 = l1d[set1]
            if len(ways1) >= w1:
                for v_line in bucket1:
                    break
                victim = bucket1.pop(v_line)
                ways1.remove(victim)
                if victim.dirty:
                    # Inclusion guarantees the L2 copy exists (a KeyError
                    # here would mean the gate's invariant was violated).
                    l2x[v_line & m2][v_line].dirty = True
                victim.line = line
                victim.owner = core
                victim.dirty = write
                victim.stamp = stamp
                entry = victim
            else:
                entry = new_entry(line, core, write, stamp)
            ways1.append(entry)
            bucket1[line] = entry

        # Directory fix-up: entries whose lines left this L1 disappear,
        # lines that joined get fresh {core} singletons, survivors keep
        # their (value-identical) sets — exactly the event engine's final
        # directory for this core.
        new_resident = {ln for bucket in l1x for ln in bucket}
        for ln in old_resident - new_resident:
            del directory[ln]
        for ln in new_resident - old_resident:
            directory[ln] = {core}

        # Per-core flush: counters into stats, one exact timing reduction.
        cl3 = n_accesses - cl1 - cl2 - cmem
        core_stats[core].add_access_counts(
            accesses=n_accesses, l1_hits=cl1, l2_local_hits=cl2,
            l3_local_hits=cl3, memory_accesses=cmem,
            memory_cycles=cmem * lat_mem)
        stats2 = l2_stats[core]
        stats2.hits += cl2
        stats2.misses += cl3 + cmem
        stats2.insertions += cl3 + cmem
        stats2.evictions += evi2
        stats3 = l3_stats[core]
        stats3.hits += cl3
        stats3.misses += cmem
        stats3.insertions += cmem
        stats3.evictions += evi3
        timer = timers[core]
        ml = timer.memory_latency
        latency_sum = cl1 * lat_l1 + cl2 * lat_l2 + cl3 * lat_l3 \
            + cmem * lat_mem
        offchip = (cl1 * int(lat_l1 >= ml) + cl2 * int(lat_l2 >= ml)
                   + cl3 * int(lat_l3 >= ml) + cmem * int(lat_mem >= ml))
        timer.account_summary(n_accesses, gap_sums[core], latency_sum,
                              offchip)


# -- access rows in partition order -----------------------------------------

#: Rows per Python-list chunk in :func:`_partitioned_rows`.
_ROW_CHUNK = 1024


def _partitioned_rows(lines: np.ndarray, writes: np.ndarray,
                      cores: np.ndarray, base: int, part_mask: int):
    """The epoch's ``(line, write, core, stamp)`` rows in partition order.

    Rows are stable-sorted by ``line & part_mask``, so each partition keeps
    its global order, and carry their positional stamp ``base + 1 + g``.
    They are gathered and converted to Python lists one chunk at a time:
    the kernels' transient memory is bounded by the chunk, not the epoch,
    and chunking leaves the row order untouched.
    """
    order = np.argsort(lines & part_mask, kind="stable")
    return chain.from_iterable(
        zip(lines[rows].tolist(), writes[rows].tolist(),
            cores[rows].tolist(), (rows + (base + 1)).tolist())
        for rows in (order[i:i + _ROW_CHUNK]
                     for i in range(0, len(order), _ROW_CHUNK)))


# -- the all-private kernel --------------------------------------------------

def _run_private_kernel(hier: CacheHierarchy, timers, active: List[int],
                        n_accesses: int, lines: np.ndarray,
                        writes: np.ndarray, cores: np.ndarray,
                        gap_sums: Dict[int, int]) -> None:
    """Set-partitioned resolution of an all-private LRU epoch.

    Semantically identical to ``CacheHierarchy._access_private`` driven in
    global order, with the whole access *and fill* chain inlined into one
    loop: the probes and recency updates are the same dict operations, the
    fills/evictions/back-invalidations mutate the same lockstep structures
    the hierarchy's own ``_fill_private``/``_fill_l1_private``/
    ``_back_invalidate`` would (entry recycling included), and per-core
    integer counts replace per-access stat and timer updates (flushed once
    at the end; integer sums commute and the timing decomposition is exact,
    see module docstring).  Observer ``on_fill``/``on_evict`` calls are
    elided outright: the kernel only runs under :func:`_observer_order_free`,
    where both hooks are no-ops (``AcfvBank.on_fill`` never counts fills and
    ``on_evict`` returns immediately with ``clear_levels`` empty).
    """
    config = hier.config
    n_cores = config.cores
    base = hier.advance_stamp(len(lines))

    rows = _partitioned_rows(lines, writes, cores, base,
                             hier.partition_sets - 1)

    l1s, l2s, l3s = hier.l1s, hier.l2s, hier.l3s
    l1_idx = [s._index for s in l1s]
    l2_idx = [s._index for s in l2s]
    l3_idx = [s._index for s in l3s]
    l1_data = [s._data for s in l1s]
    l2_data = [s._data for s in l2s]
    l3_data = [s._data for s in l3s]
    m1 = config.l1.sets - 1
    m2 = config.l2_slice.sets - 1
    m3 = config.l3_slice.sets - 1
    w1 = config.l1.ways
    w2 = config.l2_slice.ways
    w3 = config.l3_slice.ways
    # With sibling slices fault-disabled a core can be private-fast while
    # its L3 group still covers several L2 slices; inclusion then sweeps
    # them all, exactly as _back_invalidate does.
    l3_cover = [hier._l3_group_of[c] for c in range(n_cores)]
    directory = hier._l1_directory
    notify_hit = hier._notify_hit
    on_hit = hier.observer.on_hit
    inval_others = hier._invalidate_other_l1s
    new_entry = Entry

    lat = config.latency
    lat_l1, lat_l2, lat_l3 = lat.l1_hit, lat.l2_local_hit, lat.l3_local_hit
    lat_mem, coh = lat.memory, lat.coherence_invalidate

    c_l1 = [0] * n_cores
    c_l2 = [0] * n_cores
    c_l3 = [0] * n_cores
    c_mem = [0] * n_cores
    ins2 = [0] * n_cores
    evi2 = [0] * n_cores
    ins3 = [0] * n_cores
    evi3 = [0] * n_cores
    lat_extra = [0] * n_cores
    off_extra = [0] * n_cores
    # Off-chip-threshold crossings a coherence penalty can cause, per core
    # and hit level (0 in any realistic configuration; kept exact anyway).
    hc1 = [0] * n_cores
    hc2 = [0] * n_cores
    hc3 = [0] * n_cores
    hcm = [0] * n_cores
    for core in active:
        ml = timers[core].memory_latency
        hc1[core] = int(lat_l1 + coh >= ml) - int(lat_l1 >= ml)
        hc2[core] = int(lat_l2 + coh >= ml) - int(lat_l2 >= ml)
        hc3[core] = int(lat_l3 + coh >= ml) - int(lat_l3 >= ml)
        hcm[core] = int(lat_mem + coh >= ml) - int(lat_mem >= ml)

    for line, write, core, stamp in rows:
        # L1 probe (recency-dict hit), as in _access_private.
        set1 = line & m1
        bucket1 = l1_idx[core][set1]
        entry = bucket1.get(line)
        if entry is not None:
            entry.stamp = stamp
            del bucket1[line]
            bucket1[line] = entry
            c_l1[core] += 1
            if write:
                entry.dirty = True
                holders = directory.get(line)
                if holders is not None and len(holders) > 1:
                    lat_extra[core] += inval_others(core, line)
                    off_extra[core] += hc1[core]
            continue

        # L2 probe.
        bucket2 = l2_idx[core][line & m2]
        entry = bucket2.get(line)
        if entry is not None:
            entry.stamp = stamp
            del bucket2[line]
            bucket2[line] = entry
            c_l2[core] += 1
            hc_level = hc2
            if notify_hit:
                on_hit(L2, core, core, line)
        else:
            # L3 probe.
            bucket3 = l3_idx[core][line & m3]
            entry = bucket3.get(line)
            if entry is not None:
                entry.stamp = stamp
                del bucket3[line]
                bucket3[line] = entry
                c_l3[core] += 1
                hc_level = hc3
                if notify_hit:
                    on_hit(L3, core, core, line)
            else:
                # Main memory; fill L3 (inlined _fill_private, observer
                # fill/evict hooks elided — no-ops under the gate).
                c_mem[core] += 1
                hc_level = hcm
                ways3 = l3_data[core][line & m3]
                if len(ways3) >= w3:
                    victim = next(iter(bucket3.values()))
                    v_line = victim.line
                    ways3.remove(victim)
                    del bucket3[v_line]
                    victim.line = line
                    victim.owner = core
                    victim.dirty = write
                    victim.stamp = stamp
                    ways3.append(victim)
                    bucket3[line] = victim
                    ins3[core] += 1
                    evi3[core] += 1
                    # Inclusion (_back_invalidate at L3): drop the victim
                    # from every covered L2 slice, then from the L1s.
                    v_set2 = v_line & m2
                    for cov in l3_cover[core]:
                        ve = l2_idx[cov][v_set2].pop(v_line, None)
                        if ve is not None:
                            l2_data[cov][v_set2].remove(ve)
                            evi2[cov] += 1
                    holders = directory.get(v_line)
                    if holders:
                        v_set1 = v_line & m1
                        for hc in list(holders):
                            ve = l1_idx[hc][v_set1].pop(v_line, None)
                            if ve is not None:
                                l1_data[hc][v_set1].remove(ve)
                        del directory[v_line]
                else:
                    entry = new_entry(line, core, write, stamp)
                    ways3.append(entry)
                    bucket3[line] = entry
                    ins3[core] += 1

            # Fill L2 (both the L3-hit and memory paths).
            ways2 = l2_data[core][line & m2]
            if len(ways2) >= w2:
                victim = next(iter(bucket2.values()))
                v_line = victim.line
                ways2.remove(victim)
                del bucket2[v_line]
                victim.line = line
                victim.owner = core
                victim.dirty = write
                victim.stamp = stamp
                ways2.append(victim)
                bucket2[line] = victim
                ins2[core] += 1
                evi2[core] += 1
                # Inclusion (_back_invalidate at L2): L1 holders only.
                holders = directory.get(v_line)
                if holders:
                    v_set1 = v_line & m1
                    for hc in list(holders):
                        ve = l1_idx[hc][v_set1].pop(v_line, None)
                        if ve is not None:
                            l1_data[hc][v_set1].remove(ve)
                    del directory[v_line]
            else:
                entry = new_entry(line, core, write, stamp)
                ways2.append(entry)
                bucket2[line] = entry
                ins2[core] += 1

        # Fill L1 (every non-L1-hit path; inlined _fill_l1_private).
        ways1 = l1_data[core][set1]
        if len(ways1) >= w1:
            victim = next(iter(bucket1.values()))
            v_line = victim.line
            del bucket1[v_line]
            ways1.remove(victim)
            holders = directory.get(v_line)
            if holders is not None:
                holders.discard(core)
                if not holders:
                    del directory[v_line]
            if victim.dirty:
                l2e = l2_idx[core][v_line & m2].get(v_line)
                if l2e is not None:
                    l2e.dirty = True
            victim.line = line
            victim.owner = core
            victim.dirty = write
            victim.stamp = stamp
            entry = victim
        else:
            entry = new_entry(line, core, write, stamp)
        ways1.append(entry)
        bucket1[line] = entry
        holders = directory.get(line)
        if holders is None:
            directory[line] = {core}
        else:
            holders.add(core)

        if write:
            holders = directory.get(line)
            if holders is not None and len(holders) > 1:
                lat_extra[core] += inval_others(core, line)
                off_extra[core] += hc_level[core]

    # Flush: integer sums into the real stats, one exact reduction per timer.
    core_stats = hier.stats.cores
    l2_stats = hier._l2_slice_stats
    l3_stats = hier._l3_slice_stats
    for c in range(n_cores):
        if ins2[c] or evi2[c]:
            stats = l2_stats[c]
            stats.insertions += ins2[c]
            stats.evictions += evi2[c]
        if ins3[c] or evi3[c]:
            stats = l3_stats[c]
            stats.insertions += ins3[c]
            stats.evictions += evi3[c]
    for core in active:
        n1, n2, n3, nm = c_l1[core], c_l2[core], c_l3[core], c_mem[core]
        core_stats[core].add_access_counts(
            accesses=n_accesses, l1_hits=n1, l2_local_hits=n2,
            l3_local_hits=n3, memory_accesses=nm,
            memory_cycles=nm * lat_mem)
        l2_stats[core].add_probe_counts(hits=n2, misses=n3 + nm)
        l3_stats[core].add_probe_counts(hits=n3, misses=nm)
        timer = timers[core]
        ml = timer.memory_latency
        latency_sum = (n1 * lat_l1 + n2 * lat_l2 + n3 * lat_l3
                       + nm * lat_mem + lat_extra[core])
        offchip = (n1 * int(lat_l1 >= ml) + n2 * int(lat_l2 >= ml)
                   + n3 * int(lat_l3 >= ml) + nm * int(lat_mem >= ml)
                   + off_extra[core])
        timer.account_summary(n_accesses, gap_sums[core], latency_sum,
                              offchip)


# -- the general kernel ------------------------------------------------------

def _run_general(system, timers, traces, active: List[int], n_accesses: int,
                 lines: np.ndarray, writes: np.ndarray,
                 cores: np.ndarray) -> None:
    """Any-topology epoch: real access path in global order, batched timing.

    Merged groups, fault-disabled slices, PLRU and order-sensitive
    observers all take this path.  It performs exactly the event engine's
    access calls in exactly the event engine's order (so it is trivially
    bit-identical in cache state), and defers only the timing to
    ``account_batch`` — whose per-core latency sequences preserve the
    per-core access order, making even its non-exact scalar fallback
    reproduce the event engine's rounding sequence.
    """
    access = system.access
    latencies: Dict[int, List[int]] = {core: [] for core in active}
    appends = {core: latencies[core].append for core in active}
    append_list = [appends.get(c) for c in range(max(active) + 1)]
    for line, write, core in zip(lines.tolist(), writes.tolist(),
                                 cores.tolist()):
        append_list[core](access(core, line, write))
    for core in active:
        timers[core].account_batch(traces[core].gaps[:n_accesses],
                                   latencies[core])
