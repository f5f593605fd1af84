"""Dynamic Spill-Receive (DSR), Qureshi, HPCA 2009.

The paper's Figure 17 compares MorphCache against "managing per-core
private caches at each level using dynamic spill receive".  DSR keeps every
slice private but lets each cache learn, via set dueling, whether it is a
*spiller* (its evicted lines are forwarded into another cache) or a
*receiver* (it accepts other caches' spills):

- each slice dedicates a few sampled sets to "always spill" and a few to
  "always receive"; a per-slice PSEL saturating counter is decremented on
  misses in spill-sample sets and incremented on misses in receive-sample
  sets (a miss is a vote against the sample's policy), and follower sets
  spill while PSEL is above its midpoint ``PSEL_INIT``, i.e. while the
  receive samples are missing more;
- on a local miss, the peer slices are probed in slice order for a copy (a
  snoop, paying the remote latency); a level-wide set of resident lines
  skips the probe when no slice holds the line;
- when a spiller evicts a line, the line is installed into a randomly
  chosen receiver slice (receivers sacrifice capacity, which set dueling
  only lets happen when it pays off globally).

Applied independently at L2 and L3, matching the paper's multi-level
extension.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Set

from repro.caches.cache import CacheSlice
from repro.config import MachineConfig

#: Set-dueling constants (SDMs of 1/8 of sets each side, 10-bit PSEL).
PSEL_MAX = 1023
PSEL_INIT = PSEL_MAX // 2


class DsrLevel:
    """One cache level (L2 or L3) of per-core slices under DSR."""

    def __init__(self, sets: int, ways: int, n_slices: int,
                 replacement: str = "lru", seed: int = 0) -> None:
        self.n_slices = n_slices
        self.sets = sets
        self.slices = [CacheSlice(sets, ways, replacement, i)
                       for i in range(n_slices)]
        self._rng = random.Random(seed)
        self.psel = [PSEL_INIT] * n_slices
        # Sampled sets: sets with index % 8 == 0 always spill, % 8 == 1
        # always receive; the rest follow PSEL.
        self._sample_mod = 8 if sets >= 8 else max(2, sets)
        self.spills = 0
        self.remote_hits = 0
        # Level-wide residency index: the lines some slice holds, kept in
        # lockstep with the slices by ``fill``.  A line is held by at most
        # one slice, since ``fill`` follows a level-wide miss and a spill
        # moves the victim's only copy.
        self._resident: Set[int] = set()

    # -- policy resolution ---------------------------------------------------

    def _set_role(self, slice_id: int, set_index: int) -> str:
        """Spill/receive role of one set of one slice."""
        phase = set_index % self._sample_mod
        if phase == 0:
            return "spill"
        if phase == 1:
            return "receive"
        return "spill" if self.psel[slice_id] > PSEL_INIT else "receive"

    def is_spiller(self, slice_id: int) -> bool:
        """The follower-set policy this slice currently uses."""
        return self.psel[slice_id] > PSEL_INIT

    # -- access path -----------------------------------------------------------

    def lookup(self, core: int, line: int, stamp: int) -> Optional[str]:
        """Probe the level; returns "local", "remote" or None.

        A local miss updates the set-dueling PSEL and probes the peers.
        """
        local = self.slices[core]
        entry = local.lookup(line)
        if entry is not None:
            local.touch(entry, stamp)
            return "local"
        set_index = line & (self.sets - 1)
        phase = set_index % self._sample_mod
        if phase == 0:  # miss in an always-spill sample
            self.psel[core] = max(0, self.psel[core] - 1)
        elif phase == 1:  # miss in an always-receive sample
            self.psel[core] = min(PSEL_MAX, self.psel[core] + 1)
        if line not in self._resident:
            return None
        for peer_id, peer in enumerate(self.slices):
            if peer_id == core:
                continue
            entry = peer.lookup(line)
            if entry is not None:
                peer.touch(entry, stamp)
                self.remote_hits += 1
                return "remote"
        return None

    def fill(self, core: int, line: int, write: bool, stamp: int) -> None:
        """Install into the core's own slice, spilling the victim if the
        set's role says so.

        The line must not be resident in the level (callers fill only after
        a :meth:`lookup` miss), as :meth:`CacheSlice.insert` requires of
        the local slice and a spill requires of the receiver.
        """
        local = self.slices[core]
        victim = local.insert(line, core, write, stamp)
        self._resident.add(line)
        if victim is None:
            return
        self._resident.discard(victim.line)
        set_index = victim.line & (self.sets - 1)
        if self._set_role(core, set_index) != "spill":
            return
        receivers = [
            peer_id for peer_id in range(self.n_slices)
            if peer_id != core and not self.is_spiller(peer_id)
        ]
        if not receivers:
            return
        target = self._rng.choice(receivers)
        # The spilled line keeps its owner; a second-level spill chain is
        # not allowed (the receiving slice's victim dies quietly).
        displaced = self.slices[target].insert(
            victim.line, victim.owner, victim.dirty, stamp)
        self._resident.add(victim.line)
        if displaced is not None:
            self._resident.discard(displaced.line)
        self.spills += 1

    def contains(self, line: int) -> bool:
        return line in self._resident


class DsrSystem:
    """A CMP with DSR-managed private L2 and L3 (the Figure 17 comparator).

    Implements the engine protocol.  Local hits pay the flat private-cache
    latencies; spilled lines found in a peer slice pay the merged/remote
    latency (the snoop and transfer cost).
    """

    label = "dsr"

    def __init__(self, config: MachineConfig, seed: int = 0) -> None:
        self.config = config
        n = config.cores
        self.l1s = [CacheSlice(config.l1.sets, config.l1.ways, "lru", i)
                    for i in range(n)]
        self.l2 = DsrLevel(config.l2_slice.sets, config.l2_slice.ways, n,
                           config.replacement, seed=seed)
        self.l3 = DsrLevel(config.l3_slice.sets, config.l3_slice.ways, n,
                           config.replacement, seed=seed + 1)
        self._memory_accesses = {core: 0 for core in range(n)}
        self._stamp = 0

    def access(self, core: int, line: int, write: bool) -> int:
        self._stamp += 1
        stamp = self._stamp
        lat = self.config.latency
        l1 = self.l1s[core]
        entry = l1.lookup(line)
        if entry is not None:
            l1.touch(entry, stamp)
            return lat.l1_hit
        where = self.l2.lookup(core, line, stamp)
        if where is not None:
            l1.insert(line, core, write, stamp)
            return lat.l2_local_hit if where == "local" else lat.l2_merged_hit
        where = self.l3.lookup(core, line, stamp)
        if where is not None:
            self.l2.fill(core, line, write, stamp)
            l1.insert(line, core, write, stamp)
            return lat.l3_local_hit if where == "local" else lat.l3_merged_hit
        self._memory_accesses[core] += 1
        self.l3.fill(core, line, write, stamp)
        self.l2.fill(core, line, write, stamp)
        l1.insert(line, core, write, stamp)
        return lat.memory

    def end_epoch(self) -> str:
        return self.label

    def miss_counts(self) -> Dict[int, int]:
        return dict(self._memory_accesses)
