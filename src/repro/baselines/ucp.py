"""Utility-based cache partitioning (UCP), Qureshi & Patt, MICRO 2006.

The paper cites UCP ([20]) as the canonical shared-cache partitioning
scheme PIPP improves upon; it is included here as an additional comparator
and as the ablation point between "plain shared LRU" and "PIPP's
pseudo-partitioning": UCP enforces *strict* way quotas from the same UMON +
lookahead machinery PIPP uses, instead of PIPP's insertion/promotion
approximation.

The shared cache keeps one priority list per set (LRU order); on an
insertion that overflows a set, the victim is the LRU line of whichever
core currently *exceeds* its allocated quota (falling back to the global
LRU line when nobody does).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.baselines.pipp import UtilityMonitor, lookahead_partition
from repro.caches.cache import CacheSlice
from repro.config import MachineConfig


class UcpCache:
    """A shared cache with strict utility-derived way partitions."""

    def __init__(self, sets: int, ways: int, n_cores: int) -> None:
        if sets & (sets - 1):
            raise ValueError("sets must be a power of two")
        self.sets = sets
        self.ways = ways
        self.n_cores = n_cores
        self._set_mask = sets - 1
        # Each set: list of (line, owner), index 0 = LRU.
        self._data: List[List[Tuple[int, int]]] = [[] for _ in range(sets)]
        # Cache-wide residency index, line -> owner, kept in lockstep with
        # ``_data`` by ``fill`` (a line is resident at most once).
        self._owner: Dict[int, int] = {}
        self.monitors = [UtilityMonitor(sets, ways) for _ in range(n_cores)]
        base = max(1, ways // n_cores)
        self.allocations = [base] * n_cores
        self.hits = 0
        self.misses = 0

    def lookup(self, core: int, line: int) -> bool:
        """Probe (and monitor); LRU-promote on hit."""
        self.monitors[core].observe(line)
        owner = self._owner.get(line)
        if owner is None:
            self.misses += 1
            return False
        entries = self._data[line & self._set_mask]
        entry = (line, owner)
        entries.remove(entry)
        entries.append(entry)
        self.hits += 1
        return True

    def fill(self, core: int, line: int) -> Optional[int]:
        """Install at MRU; evict from an over-quota core when full.

        The line must not be resident (callers fill only after a
        :meth:`lookup` miss), so every line appears at most once in the
        cache.  Returns the evicted line, if any.
        """
        entries = self._data[line & self._set_mask]
        victim = None
        if len(entries) >= self.ways:
            victim = self._evict(entries)
            del self._owner[victim]
        entries.append((line, core))
        self._owner[line] = core
        return victim

    def _evict(self, entries: List[Tuple[int, int]]) -> int:
        counts: Dict[int, int] = {}
        for _line, owner in entries:
            counts[owner] = counts.get(owner, 0) + 1
        over_quota = {owner for owner, count in counts.items()
                      if count > self.allocations[owner]}
        for position, (line, owner) in enumerate(entries):
            if owner in over_quota:
                entries.pop(position)
                return line
        return entries.pop(0)[0]

    def repartition(self) -> List[int]:
        """Recompute strict quotas from the UMON curves (epoch hook)."""
        curves = [monitor.utility_curve() for monitor in self.monitors]
        self.allocations = lookahead_partition(curves, self.ways)
        for monitor in self.monitors:
            monitor.reset()
        return list(self.allocations)

    def occupancy_of(self, core: int) -> int:
        """Lines currently held by one core (test/diagnostic helper)."""
        return sum(1 for entries in self._data
                   for _line, owner in entries if owner == core)


class UcpSystem:
    """A CMP with UCP-partitioned shared L2 and L3 (engine protocol)."""

    label = "ucp"

    def __init__(self, config: MachineConfig, seed: int = 0) -> None:
        self.config = config
        n = config.cores
        self.l1s = [CacheSlice(config.l1.sets, config.l1.ways, "lru", i)
                    for i in range(n)]
        self.l2 = UcpCache(config.l2_slice.sets, config.l2_slice.ways * n, n)
        self.l3 = UcpCache(config.l3_slice.sets, config.l3_slice.ways * n, n)
        self._memory_accesses = {core: 0 for core in range(n)}
        self._stamp = 0

    def access(self, core: int, line: int, write: bool) -> int:
        self._stamp += 1
        lat = self.config.latency
        l1 = self.l1s[core]
        entry = l1.lookup(line)
        if entry is not None:
            l1.touch(entry, self._stamp)
            return lat.l1_hit
        if self.l2.lookup(core, line):
            l1.insert(line, core, write, self._stamp)
            return lat.l2_local_hit
        if self.l3.lookup(core, line):
            self.l2.fill(core, line)
            l1.insert(line, core, write, self._stamp)
            return lat.l3_local_hit
        self._memory_accesses[core] += 1
        self.l3.fill(core, line)
        self.l2.fill(core, line)
        l1.insert(line, core, write, self._stamp)
        return lat.memory

    def end_epoch(self) -> str:
        self.l2.repartition()
        self.l3.repartition()
        return self.label

    def miss_counts(self) -> Dict[int, int]:
        return dict(self._memory_accesses)
