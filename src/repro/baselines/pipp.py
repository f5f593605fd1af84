"""Promotion/Insertion Pseudo-Partitioning (PIPP), Xie & Loh, ISCA 2009.

The paper's Figure 17 compares MorphCache against "PIPP extended to both L2
and L3 caches": a single shared cache at each level, pseudo-partitioned
among the 16 cores.  This module implements PIPP from scratch:

- each shared cache keeps its sets as explicit priority lists (index 0 is
  evicted first);
- a per-core *utility monitor* (UMON) samples sets with shadow
  fully-associative LRU tags and counts hits per stack position;
- at every epoch the *lookahead* algorithm (from utility-based cache
  partitioning) converts the utility curves into target allocations
  ``pi_i`` summing to the associativity;
- core ``i``'s incoming lines are inserted at priority position ``pi_i``;
  hits promote a line by one position with probability ``p_prom`` (3/4);
- stream-detected cores (misses overwhelmingly dominate hits in the UMON)
  insert at position 1 and promote with probability 1/128, so streams
  cannot flush the cache.

The shared cache at each level uses the merged-all organisation of the
substrate (same sets as one slice, 16x the ways), which is what a
monolithic shared cache of that capacity looks like to the replacement
policy, and is exactly the structure PIPP's per-way partitioning needs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import MachineConfig
from repro.caches.cache import CacheSlice

#: PIPP constants from the original paper.
PROMOTION_PROBABILITY = 0.75
STREAM_PROMOTION_PROBABILITY = 1.0 / 128.0
STREAM_INSERT_POSITION = 1
#: A core is stream-classified when its UMON hit total is below this
#: fraction of its accesses.
STREAM_HIT_THRESHOLD = 0.02


class UtilityMonitor:
    """Per-core shadow-tag LRU monitor over sampled sets (UMON-DSS).

    Maintains, for each sampled set, a fully-associative-within-set LRU
    stack of the core's own recent lines, and counts hits per stack
    position.  The position histogram is the marginal-utility curve the
    lookahead partitioner consumes.
    """

    def __init__(self, sets: int, ways: int, sample_every: int = 4) -> None:
        if sets <= 0 or ways <= 0 or sample_every <= 0:
            raise ValueError("sets, ways and sample_every must be positive")
        self.ways = ways
        self.sample_every = sample_every
        self._set_mask = sets - 1
        self._stacks: Dict[int, List[int]] = {
            s: [] for s in range(0, sets, sample_every)
        }
        self.position_hits = [0] * ways
        self.accesses = 0
        self.misses = 0

    def observe(self, line: int) -> None:
        """Feed one of the owning core's references."""
        set_index = line & self._set_mask
        stack = self._stacks.get(set_index)
        if stack is None:
            return
        self.accesses += 1
        try:
            position = stack.index(line)
        except ValueError:
            position = -1
        if position >= 0:
            # Stack distance from the MRU end (0 = MRU).
            distance = len(stack) - 1 - position
            self.position_hits[distance] += 1
            stack.pop(position)
            stack.append(line)
        else:
            self.misses += 1
            stack.append(line)
            if len(stack) > self.ways:
                stack.pop(0)

    def utility_curve(self) -> List[int]:
        """Cumulative hits obtainable with 1..ways allocated ways."""
        curve = []
        total = 0
        for hits in self.position_hits:
            total += hits
            curve.append(total)
        return curve

    @property
    def is_streaming(self) -> bool:
        """True when almost nothing in the monitored window was reused."""
        if self.accesses == 0:
            return False
        hits = self.accesses - self.misses
        return hits < STREAM_HIT_THRESHOLD * self.accesses

    def reset(self) -> None:
        self.position_hits = [0] * self.ways
        self.accesses = 0
        self.misses = 0


def lookahead_partition(curves: Sequence[Sequence[int]], total_ways: int,
                        minimum: int = 1) -> List[int]:
    """Greedy lookahead allocation of ``total_ways`` across cores.

    Each core's ``curves[i][w - 1]`` is the hits it would get with ``w``
    ways.  Every core receives at least ``minimum`` way(s); the remainder is
    handed out by maximum marginal utility per way, considering blocks of
    ways at once (the "lookahead" that handles convex utility curves).

    Each round scores every core's candidate blocks with numpy and keeps
    the first maximum (``argmax``); across cores the first strictly greater
    gain wins, so ties resolve exactly as a scan over (core, extra) in
    order would.  The gains equal Python's ``int / int`` bit for bit while
    hit counts stay below 2**53 (both operands convert to float64 exactly,
    and IEEE division is correctly rounded).
    """
    n = len(curves)
    if n == 0:
        raise ValueError("need at least one core")
    if total_ways < n * minimum:
        raise ValueError("not enough ways for the minimum allocation")
    alloc = [minimum] * n
    remaining = total_ways - n * minimum
    arrays = [np.asarray(curve) for curve in curves]
    blocks = np.arange(1, total_ways + 1, dtype=np.int64)

    while remaining > 0:
        best_core, best_extra, best_gain = -1, 1, -1.0
        for core in range(n):
            have = alloc[core]
            curve = arrays[core]
            max_extra = min(remaining, len(curve) - have)
            if max_extra <= 0:
                continue
            now = curve[have - 1] if have > 0 else 0
            gains = (curve[have:have + max_extra] - now) / blocks[:max_extra]
            extra = int(gains.argmax())
            gain = float(gains[extra])
            if gain > best_gain:
                best_core, best_extra, best_gain = core, extra + 1, gain
        if best_core < 0 or best_gain <= 0:
            # No one benefits: spread the remainder round-robin.
            for core in range(n):
                if remaining == 0:
                    break
                if alloc[core] < len(curves[core]):
                    alloc[core] += 1
                    remaining -= 1
            if remaining > 0:
                alloc[0] += remaining
                remaining = 0
            break
        alloc[best_core] += best_extra
        remaining -= best_extra
    return alloc


class PippCache:
    """One shared cache level managed by PIPP."""

    def __init__(self, sets: int, ways: int, n_cores: int,
                 seed: int = 0) -> None:
        if sets & (sets - 1):
            raise ValueError("sets must be a power of two")
        self.sets = sets
        self.ways = ways
        self.n_cores = n_cores
        self._set_mask = sets - 1
        # Each set is a priority list: index 0 = next victim, -1 = highest.
        self._data: List[List[Tuple[int, int]]] = [[] for _ in range(sets)]
        # Cache-wide residency index, line -> owner, kept in lockstep with
        # ``_data`` by ``fill`` (a line is resident at most once).
        self._owner: Dict[int, int] = {}
        self._rng = random.Random(seed)
        self.monitors = [UtilityMonitor(sets, ways) for _ in range(n_cores)]
        base = max(1, ways // n_cores)
        self.partitions = [base] * n_cores
        self.hits = 0
        self.misses = 0

    # -- the PIPP access path -------------------------------------------------

    def lookup(self, core: int, line: int) -> bool:
        """Probe (and monitor) the cache; promotes on hit.  True if hit."""
        self.monitors[core].observe(line)
        owner = self._owner.get(line)
        if owner is None:
            self.misses += 1
            return False
        self.hits += 1
        entries = self._data[line & self._set_mask]
        self._promote(entries, entries.index((line, owner)), owner)
        return True

    def _promote(self, entries: List[Tuple[int, int]], position: int,
                 owner: int) -> None:
        probability = (STREAM_PROMOTION_PROBABILITY
                       if self.monitors[owner].is_streaming
                       else PROMOTION_PROBABILITY)
        if position < len(entries) - 1 and self._rng.random() < probability:
            entries[position], entries[position + 1] = (
                entries[position + 1], entries[position]
            )

    def fill(self, core: int, line: int) -> Optional[int]:
        """Install a line at the core's insertion position.

        The line must not be resident (callers fill only after a
        :meth:`lookup` miss), so every line appears at most once in the
        cache.  Returns the evicted line, if any.
        """
        entries = self._data[line & self._set_mask]
        victim = None
        if len(entries) >= self.ways:
            victim = entries.pop(0)[0]
            del self._owner[victim]
        if self.monitors[core].is_streaming:
            position = min(STREAM_INSERT_POSITION, len(entries))
        else:
            position = min(self.partitions[core], len(entries))
        entries.insert(position, (line, core))
        self._owner[line] = core
        return victim

    def contains(self, line: int) -> bool:
        return line in self._owner

    # -- epoch boundary ---------------------------------------------------------

    def repartition(self) -> List[int]:
        """Recompute target allocations from the UMON curves (epoch hook)."""
        curves = [monitor.utility_curve() for monitor in self.monitors]
        self.partitions = lookahead_partition(curves, self.ways)
        for monitor in self.monitors:
            monitor.reset()
        return list(self.partitions)


class PippSystem:
    """A CMP with PIPP-managed shared L2 and L3 (the Figure 17 comparator).

    Implements the engine protocol (``access`` / ``end_epoch`` /
    ``miss_counts``).  Latencies are the flat shared-cache latencies of the
    Section 4 methodology.
    """

    label = "pipp"

    def __init__(self, config: MachineConfig, seed: int = 0) -> None:
        self.config = config
        n = config.cores
        self.l1s = [CacheSlice(config.l1.sets, config.l1.ways, "lru", i)
                    for i in range(n)]
        self.l2 = PippCache(config.l2_slice.sets, config.l2_slice.ways * n,
                            n, seed=seed)
        self.l3 = PippCache(config.l3_slice.sets, config.l3_slice.ways * n,
                            n, seed=seed + 1)
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
