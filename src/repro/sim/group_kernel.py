"""The slice-group batch kernel: merged and shared LRU epochs.

The configurations MorphCache's merge decisions create — multi-slice L2/L3
groups, up to one fully-shared group spanning the machine — used to run on
the general kernel at ~event-engine speed, because each access probed every
slice of its group through the full Python access path.  The group kernel
closes that gap with one idea: a *group-level aggregate residency map*.

Within an epoch the topology is frozen, so for each multi-slice group a
single scan builds ``line -> holding slice`` (with a side map for the
duplicate copies a merge leaves behind).  A group probe then becomes one
dict lookup instead of O(group size) slice probes, and every mutation the
kernel performs — fills, evictions, inclusion back-invalidations, lazy
invalidations — updates the map incrementally, so it stays exact.  The
maps are cached on the hierarchy across epochs under the same fingerprint
the per-core kernel uses (stamp + groups + fault sets): steady-state
epochs pay no scan at all.

Bit-identity rests on the same set-partition argument as the private
kernel, *lifted to slice groups* (DESIGN.md §7): all slices of a group are
probed at one set index per level, the group-wide LRU victim search reads
only that set in each slice, back-invalidation and the dirty write-back
stay on the victim's (subset) index bits, and lazy invalidation picks its
winner by maximum stamp — stamps are unique, so the choice is order-free.
Everything latency-relevant is precomputed per epoch (per-core × per-slice
hit latency tables honouring ``charge_remote_latency``, the segmented-bus
distance span and any bus-fault penalty), and timing flushes through one
exact reduction per core, gated by
:func:`repro.sim.batch._group_timing_exact`.

This module loads on the first merged or shared epoch the batch engine
dispatches (:func:`repro.sim.batch.run_epoch_batch`), so runs that stay
private never compile it.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.caches.cache import Entry
from repro.caches.hierarchy import CacheHierarchy, L2, L3
from repro.sim.batch import _partitioned_rows, _percore_marker

_GROUP_ATTR = "_batch_group_state"


def _group_state(hier: CacheHierarchy) -> dict:
    """Cached aggregate residency maps for every multi-slice group.

    Rebuilt (one scan of the resident state via
    :meth:`CacheHierarchy.group_line_index`) whenever the fingerprint shows
    state moved outside this kernel: any access through any engine advances
    the stamp, and reconfiguration/fault repair changes the group tuples or
    disabled sets.  Mutating slice contents behind the hierarchy's back
    (directly calling ``CacheSlice.flush`` etc.) is outside the contract.
    """
    state = getattr(hier, _GROUP_ATTR, None)
    if state is None or state["marker"] != _percore_marker(hier):
        maps = {}
        for level, groups in ((L2, hier._l2_groups), (L3, hier._l3_groups)):
            for group in groups:
                if len(group) > 1:
                    maps[(level, group)] = hier.group_line_index(level, group)
        state = {"marker": None, "maps": maps}
        setattr(hier, _GROUP_ATTR, state)
    return state


def _mark_group_clean(hier: CacheHierarchy) -> None:
    """Record that the cached residency maps match the post-epoch state."""
    getattr(hier, _GROUP_ATTR)["marker"] = _percore_marker(hier)


def _group_index_remove(index: Dict[int, int], dups: Dict[int, set],
                        line: int, slice_id: int) -> None:
    """Drop one slice's copy of ``line`` from a group residency map.

    A duplicated line whose holder count falls to one collapses back into
    the plain index (its ``dups`` entry disappears), so the maps stay
    canonical: ``dups`` holds exactly the lines marked ``-1`` in ``index``.
    """
    prev = index.get(line)
    if prev == slice_id:
        del index[line]
    elif prev == -1:
        holders = dups[line]
        holders.discard(slice_id)
        if len(holders) == 1:
            index[line] = holders.pop()
            del dups[line]


def run_group_kernel(hier: CacheHierarchy, timers, active: List[int],
                     n_accesses: int, lines: np.ndarray, writes: np.ndarray,
                     cores: np.ndarray, gap_sums: Dict[int, int]) -> None:
    """Set-partitioned resolution of a merged/shared LRU epoch.

    Semantically identical to ``CacheHierarchy.access`` driven in global
    order: group probes resolve through the aggregate residency maps (one
    dict lookup instead of probing every slice), hits replay ``touch`` on
    the winning slice, duplicate copies replay lazy invalidation (freshest
    stamp wins, dirtiness folds into the winner), fills replay
    ``_fill_group`` placement (local slice if its set has room, else first
    slice in search order with room, else the group-wide LRU victim) with
    ``_back_invalidate`` inlined, and L1 handling replays ``_fill_l1`` —
    including its first-in-search-order dirty write-back.  Per-core and
    per-slice integer counters flush once at the end, and timing flushes
    through one exact reduction per core (the dispatch gate verified
    exactness against the worst-case latency bound).  Observer
    ``on_fill``/``on_evict`` are elided — no-ops under
    :func:`repro.sim.batch._observer_order_free` — and ``on_hit`` fires
    exactly where the event path would.
    """
    state = _group_state(hier)
    maps = state["maps"]

    config = hier.config
    n_cores = config.cores
    base = hier.advance_stamp(len(lines))

    rows = _partitioned_rows(lines, writes, cores, base,
                             hier.partition_sets - 1)

    l1_idx = [s.set_buckets() for s in hier.l1s]
    l1_data = [s.way_lists() for s in hier.l1s]
    l2_idx = [s.set_buckets() for s in hier.l2s]
    l2_data = [s.way_lists() for s in hier.l2s]
    l3_idx = [s.set_buckets() for s in hier.l3s]
    l3_data = [s.way_lists() for s in hier.l3s]
    m1 = config.l1.sets - 1
    m2 = config.l2_slice.sets - 1
    m3 = config.l3_slice.sets - 1
    w1 = config.l1.ways
    w2 = config.l2_slice.ways
    w3 = config.l3_slice.ways

    ord2 = hier._l2_binding.orders
    ord3 = hier._l3_binding.orders
    grp3 = hier._l3_group_of
    # Per-core group views: the residency maps for multi-slice groups, or
    # the single probe target for singleton groups (-1 when the core's only
    # slice is fault-disabled, i.e. its search order is empty).
    gi2 = [maps.get((L2, g)) for g in hier._l2_group_of]
    gi3 = [maps.get((L3, g)) for g in grp3]
    d2 = [ord2[c][0] if (gi2[c] is None and ord2[c]) else -1
          for c in range(n_cores)]
    d3 = [ord3[c][0] if (gi3[c] is None and ord3[c]) else -1
          for c in range(n_cores)]

    lat = config.latency
    lat_l1 = lat.l1_hit
    lat_mem = lat.memory
    charge = hier.charge_remote_latency
    hop = lat.distance_cycles_per_hop
    bus = hier.bus_penalty

    def _hit_latencies(local_hit: int, merged_hit: int) -> List[List[int]]:
        # lat[core][slice]: what _lookup_group charges for a hit served by
        # ``slice`` on behalf of ``core`` — statics run flat local
        # latencies, morphcache pays merged + bus span + fault penalty.
        if not charge:
            return [[local_hit] * n_cores for _ in range(n_cores)]
        return [[local_hit if s == c
                 else merged_hit + max(0, (abs(s - c) - 1) * hop) + bus
                 for s in range(n_cores)]
                for c in range(n_cores)]

    lat2 = _hit_latencies(lat.l2_local_hit, lat.l2_merged_hit)
    lat3 = _hit_latencies(lat.l3_local_hit, lat.l3_merged_hit)

    c_l1 = [0] * n_cores
    c_l2l = [0] * n_cores
    c_l2r = [0] * n_cores
    c_l3l = [0] * n_cores
    c_l3r = [0] * n_cores
    c_mem = [0] * n_cores
    hit2 = [0] * n_cores
    miss2 = [0] * n_cores
    ins2 = [0] * n_cores
    evi2 = [0] * n_cores
    lazy2 = [0] * n_cores
    hit3 = [0] * n_cores
    miss3 = [0] * n_cores
    ins3 = [0] * n_cores
    evi3 = [0] * n_cores
    lazy3 = [0] * n_cores
    lat_sum = [0] * n_cores
    off = [0] * n_cores
    ml = [0] * n_cores
    for core in active:
        ml[core] = timers[core].memory_latency

    directory = hier._l1_directory
    notify_hit = hier._notify_hit
    on_hit = hier.observer.on_hit
    inval_others = hier._invalidate_other_l1s
    new_entry = Entry

    def fill_l1(core: int, line: int, write: bool, stamp: int) -> None:
        # _fill_l1 inlined (entry recycling included; value-identical).
        set1 = line & m1
        ways = l1_data[core][set1]
        bucket = l1_idx[core][set1]
        if len(ways) >= w1:
            victim = next(iter(bucket.values()))
            v_line = victim.line
            del bucket[v_line]
            ways.remove(victim)
            holders = directory.get(v_line)
            if holders is not None:
                holders.discard(core)
                if not holders:
                    del directory[v_line]
            if victim.dirty:
                # The write-back lands on the *first* copy in search order
                # (same set, hence same partition) — not the freshest one;
                # _fill_l1 probes in order and stops at the first hit.
                v_set2 = v_line & m2
                for s in ord2[core]:
                    l2e = l2_idx[s][v_set2].get(v_line)
                    if l2e is not None:
                        l2e.dirty = True
                        break
            victim.line = line
            victim.owner = core
            victim.dirty = write
            victim.stamp = stamp
            entry = victim
        else:
            entry = new_entry(line, core, write, stamp)
        ways.append(entry)
        bucket[line] = entry
        holders = directory.get(line)
        if holders is None:
            directory[line] = {core}
        else:
            holders.add(core)

    def fill_l2(core: int, line: int, write: bool, stamp: int):
        # _fill_group at L2 with insert inlined and the residency map
        # maintained; returns the slice filled, or None (group offline).
        o = ord2[core]
        if not o:
            return None
        set2 = line & m2
        target = -1
        for s in o:
            if len(l2_data[s][set2]) < w2:
                target = s
                break
        if target < 0:
            oldest = None
            for s in o:
                cand = next(iter(l2_idx[s][set2].values()))
                if oldest is None or cand.stamp < oldest:
                    oldest = cand.stamp
                    target = s
        ways = l2_data[target][set2]
        bucket = l2_idx[target][set2]
        g = gi2[target]
        if len(ways) >= w2:
            victim = next(iter(bucket.values()))
            v_line = victim.line
            ways.remove(victim)
            del bucket[v_line]
            victim.line = line
            victim.owner = core
            victim.dirty = write
            victim.stamp = stamp
            ways.append(victim)
            bucket[line] = victim
            ins2[target] += 1
            evi2[target] += 1
            if g is not None:
                index, dups = g
                _group_index_remove(index, dups, v_line, target)
                index[line] = target
            # _back_invalidate at L2: only the L1 holders must go.
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
            ways.append(entry)
            bucket[line] = entry
            ins2[target] += 1
            if g is not None:
                g[0][line] = target
        return target

    def fill_l3(core: int, line: int, write: bool, stamp: int):
        # _fill_group at L3; its back-invalidation additionally sweeps the
        # covered L2 slices (same subset index bits, same partition).
        o = ord3[core]
        if not o:
            return None
        set3 = line & m3
        target = -1
        for s in o:
            if len(l3_data[s][set3]) < w3:
                target = s
                break
        if target < 0:
            oldest = None
            for s in o:
                cand = next(iter(l3_idx[s][set3].values()))
                if oldest is None or cand.stamp < oldest:
                    oldest = cand.stamp
                    target = s
        ways = l3_data[target][set3]
        bucket = l3_idx[target][set3]
        g = gi3[target]
        if len(ways) >= w3:
            victim = next(iter(bucket.values()))
            v_line = victim.line
            ways.remove(victim)
            del bucket[v_line]
            victim.line = line
            victim.owner = core
            victim.dirty = write
            victim.stamp = stamp
            ways.append(victim)
            bucket[line] = victim
            ins3[target] += 1
            evi3[target] += 1
            if g is not None:
                index, dups = g
                _group_index_remove(index, dups, v_line, target)
                index[line] = target
            v_set2 = v_line & m2
            for cov in grp3[target]:
                ve = l2_idx[cov][v_set2].pop(v_line, None)
                if ve is not None:
                    l2_data[cov][v_set2].remove(ve)
                    evi2[cov] += 1
                    gcov = gi2[cov]
                    if gcov is not None:
                        _group_index_remove(gcov[0], gcov[1], v_line, cov)
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
            ways.append(entry)
            bucket[line] = entry
            ins3[target] += 1
            if g is not None:
                g[0][line] = target
        return target

    for line, write, core, stamp in rows:
        # L1 probe (recency-dict hit).
        set1 = line & m1
        bucket1 = l1_idx[core][set1]
        entry = bucket1.get(line)
        if entry is not None:
            entry.stamp = stamp
            del bucket1[line]
            bucket1[line] = entry
            c_l1[core] += 1
            latency = lat_l1
            if write:
                entry.dirty = True
                holders = directory.get(line)
                if holders is not None and len(holders) > 1:
                    latency += inval_others(core, line)
            lat_sum[core] += latency
            if latency >= ml[core]:
                off[core] += 1
            continue

        # L2 group probe through the aggregate residency map (singleton
        # groups probe their one slice directly).
        win = -1
        g = gi2[core]
        if g is None:
            s = d2[core]
            if s >= 0:
                e2 = l2_idx[s][line & m2].get(line)
                if e2 is not None:
                    win = s
        else:
            index, dups = g
            s = index.get(line, -2)
            if s >= 0:
                e2 = l2_idx[s][line & m2][line]
                win = s
            elif s == -1:
                # Duplicate copies from a merge: lazy invalidation.  The
                # freshest copy wins (stamps are unique, so max-by-stamp
                # is order-free), the rest vanish, dirtiness folds in.
                copies = sorted(
                    ((l2_idx[ds][line & m2][line], ds) for ds in dups[line]),
                    key=lambda it: it[0].stamp, reverse=True)
                e2, win = copies[0]
                for de, ds in copies[1:]:
                    del l2_idx[ds][line & m2][line]
                    l2_data[ds][line & m2].remove(de)
                    lazy2[ds] += 1
                    if de.dirty:
                        e2.dirty = True
                index[line] = win
                del dups[line]
        if win >= 0:
            e2.stamp = stamp
            b = l2_idx[win][line & m2]
            del b[line]
            b[line] = e2
            hit2[win] += 1
            if win == core:
                c_l2l[core] += 1
            else:
                c_l2r[core] += 1
            if notify_hit:
                on_hit(L2, win, core, line)
            latency = lat2[core][win]
            fill_l1(core, line, write, stamp)
            if write:
                holders = directory.get(line)
                if holders and (len(holders) > 1 or core not in holders):
                    latency += inval_others(core, line)
            lat_sum[core] += latency
            if latency >= ml[core]:
                off[core] += 1
            continue
        miss2[core] += 1

        # L3 group probe.
        win = -1
        g = gi3[core]
        if g is None:
            s = d3[core]
            if s >= 0:
                e3 = l3_idx[s][line & m3].get(line)
                if e3 is not None:
                    win = s
        else:
            index, dups = g
            s = index.get(line, -2)
            if s >= 0:
                e3 = l3_idx[s][line & m3][line]
                win = s
            elif s == -1:
                copies = sorted(
                    ((l3_idx[ds][line & m3][line], ds) for ds in dups[line]),
                    key=lambda it: it[0].stamp, reverse=True)
                e3, win = copies[0]
                for de, ds in copies[1:]:
                    del l3_idx[ds][line & m3][line]
                    l3_data[ds][line & m3].remove(de)
                    lazy3[ds] += 1
                    if de.dirty:
                        e3.dirty = True
                index[line] = win
                del dups[line]
        if win >= 0:
            e3.stamp = stamp
            b = l3_idx[win][line & m3]
            del b[line]
            b[line] = e3
            hit3[win] += 1
            if win == core:
                c_l3l[core] += 1
            else:
                c_l3r[core] += 1
            if notify_hit:
                on_hit(L3, win, core, line)
            latency = lat3[core][win]
            if fill_l2(core, line, write, stamp) is not None:
                fill_l1(core, line, write, stamp)
            if write:
                holders = directory.get(line)
                if holders and (len(holders) > 1 or core not in holders):
                    latency += inval_others(core, line)
            lat_sum[core] += latency
            if latency >= ml[core]:
                off[core] += 1
            continue
        miss3[core] += 1

        # Main memory; fills cascade only while the parent level succeeded
        # (a fully-offline group skips the lower levels too — inclusion).
        c_mem[core] += 1
        latency = lat_mem
        if fill_l3(core, line, write, stamp) is not None:
            if fill_l2(core, line, write, stamp) is not None:
                fill_l1(core, line, write, stamp)
        if write:
            holders = directory.get(line)
            if holders and (len(holders) > 1 or core not in holders):
                latency += inval_others(core, line)
        lat_sum[core] += latency
        if latency >= ml[core]:
            off[core] += 1

    # Flush: integer sums into the real stats, one exact reduction per timer.
    core_stats = hier.stats.cores
    l2_stats = hier._l2_slice_stats
    l3_stats = hier._l3_slice_stats
    for c in range(n_cores):
        if hit2[c] or miss2[c]:
            l2_stats[c].add_probe_counts(hits=hit2[c], misses=miss2[c])
        if ins2[c] or evi2[c] or lazy2[c]:
            stats = l2_stats[c]
            stats.insertions += ins2[c]
            stats.evictions += evi2[c]
            stats.lazy_invalidations += lazy2[c]
        if hit3[c] or miss3[c]:
            l3_stats[c].add_probe_counts(hits=hit3[c], misses=miss3[c])
        if ins3[c] or evi3[c] or lazy3[c]:
            stats = l3_stats[c]
            stats.insertions += ins3[c]
            stats.evictions += evi3[c]
            stats.lazy_invalidations += lazy3[c]
    for core in active:
        core_stats[core].add_access_counts(
            accesses=n_accesses, l1_hits=c_l1[core],
            l2_local_hits=c_l2l[core], l2_remote_hits=c_l2r[core],
            l3_local_hits=c_l3l[core], l3_remote_hits=c_l3r[core],
            memory_accesses=c_mem[core], memory_cycles=c_mem[core] * lat_mem)
        timers[core].account_summary(n_accesses, gap_sums[core],
                                     lat_sum[core], off[core])
    _mark_group_clean(hier)
