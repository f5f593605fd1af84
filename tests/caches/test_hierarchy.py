"""Tests for the three-level inclusive hierarchy with merged groups."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.hierarchy import CacheHierarchy, HierarchyObserver
from repro.config import TINY


def private_topology(n=16):
    return [(i,) for i in range(n)]


def make_hierarchy(**kwargs):
    return CacheHierarchy(TINY, **kwargs)


class RecordingObserver(HierarchyObserver):
    def __init__(self):
        self.events = []

    def on_hit(self, level, slice_id, core, tag):
        self.events.append(("hit", level, slice_id, core, tag))

    def on_fill(self, level, slice_id, core, tag):
        self.events.append(("fill", level, slice_id, core, tag))

    def on_evict(self, level, slice_id, tag, owner=-1):
        self.events.append(("evict", level, slice_id, owner, tag))


class TestAccessPath:
    def test_cold_access_goes_to_memory(self):
        h = make_hierarchy()
        result = h.access(0, 0x1000)
        assert result.level == "mem"
        assert result.latency == TINY.latency.memory

    def test_second_access_hits_l1(self):
        h = make_hierarchy()
        h.access(0, 0x1000)
        result = h.access(0, 0x1000)
        assert result.level == "l1"
        assert result.latency == TINY.latency.l1_hit

    def test_l2_hit_after_l1_invalidation(self):
        h = make_hierarchy()
        h.access(0, 0x1000)
        h.l1s[0].invalidate(0x1000)
        result = h.access(0, 0x1000)
        assert result.level == "l2"
        assert result.latency == TINY.latency.l2_local_hit

    def test_l3_hit_after_l2_invalidation(self):
        h = make_hierarchy()
        h.access(0, 0x1000)
        h.l1s[0].invalidate(0x1000)
        h.l2s[0].invalidate(0x1000)
        result = h.access(0, 0x1000)
        assert result.level == "l3"
        assert result.latency == TINY.latency.l3_local_hit

    def test_fill_installs_at_all_levels(self):
        h = make_hierarchy()
        h.access(3, 0x2000)
        assert 0x2000 in h.l1s[3]
        assert 0x2000 in h.l2s[3]
        assert 0x2000 in h.l3s[3]

    def test_stats_count_accesses(self):
        h = make_hierarchy()
        for _ in range(3):
            h.access(5, 0x42)
        stats = h.stats.cores[5]
        assert stats.accesses == 3
        assert stats.memory_accesses == 1
        assert stats.l1_hits == 2


class TestMergedGroups:
    def merged_pair(self):
        h = make_hierarchy()
        l2 = [(0, 1)] + private_topology()[2:]
        l3 = [(0, 1)] + private_topology()[2:]
        h.set_topology(l2, l3)
        return h

    def test_remote_hit_pays_merged_latency(self):
        h = self.merged_pair()
        h.access(1, 0x3000)  # fills slice 1
        h.l1s[0].flush()
        result = h.access(0, 0x3000)
        assert result.level == "l2"
        assert result.remote
        assert result.latency == TINY.latency.l2_merged_hit

    def test_static_mode_charges_local_latency_for_remote_hit(self):
        h = CacheHierarchy(TINY, charge_remote_latency=False)
        h.set_topology([(0, 1)] + private_topology()[2:],
                       [(0, 1)] + private_topology()[2:])
        h.access(1, 0x3000)
        result = h.access(0, 0x3000)
        assert result.remote
        assert result.latency == TINY.latency.l2_local_hit

    def test_group_capacity_is_summed(self):
        """A merged pair holds twice the lines of one slice in a set."""
        h = self.merged_pair()
        ways = TINY.l2_slice.ways
        sets = TINY.l2_slice.sets
        # Fill 2*ways lines of the same L2 set from core 0.
        lines = [s * sets for s in range(2 * ways)]
        for line in lines:
            h.access(0, line)
        resident = set(h.l2s[0].resident_lines()) | set(h.l2s[1].resident_lines())
        assert set(lines) <= resident

    def test_private_slice_cannot_hold_group_capacity(self):
        h = make_hierarchy()
        ways = TINY.l2_slice.ways
        sets = TINY.l2_slice.sets
        lines = [s * sets for s in range(2 * ways)]
        for line in lines:
            h.access(0, line)
        assert h.l2s[0].occupancy() <= TINY.l2_slice.lines

    def test_topology_must_partition(self):
        h = make_hierarchy()
        with pytest.raises(ValueError):
            h.set_topology([(0,)], private_topology())

    def test_l2_group_must_be_inside_l3_group(self):
        h = make_hierarchy()
        bad_l2 = [(0, 1)] + private_topology()[2:]
        with pytest.raises(ValueError):
            h.set_topology(bad_l2, private_topology())


class TestLazyInvalidation:
    def test_duplicates_resolved_on_hit(self):
        """After a merge, duplicate copies collapse to one on first touch."""
        h = make_hierarchy()
        # Same line cached privately by both cores (different address
        # spaces would never do this, but threads sharing memory do).
        h.access(0, 0x5000)
        h.access(1, 0x5000)
        # Merge the two slices; both L2 slices may hold a copy.
        h.set_topology([(0, 1)] + private_topology()[2:],
                       [(0, 1)] + private_topology()[2:])
        copies = int(0x5000 in h.l2s[0]) + int(0x5000 in h.l2s[1])
        if copies == 2:
            h.l1s[0].flush()
            h.access(0, 0x5000)
            copies_after = int(0x5000 in h.l2s[0]) + int(0x5000 in h.l2s[1])
            assert copies_after == 1
            total_lazy = sum(s.lazy_invalidations
                             for s in h.stats.l2_slices.values())
            assert total_lazy >= 1


class TestInclusion:
    def test_l3_eviction_back_invalidates_l2_and_l1(self):
        h = make_hierarchy()
        sets3 = TINY.l3_slice.sets
        ways3 = TINY.l3_slice.ways
        # Fill one L3 set beyond capacity from core 0.
        lines = [s * sets3 for s in range(ways3 + 1)]
        for line in lines:
            h.access(0, line)
        h.check_inclusion()

    def test_inclusion_after_random_traffic(self):
        import random
        rng = random.Random(7)
        h = make_hierarchy()
        for _ in range(3000):
            h.access(rng.randrange(16), rng.randrange(2000), rng.random() < 0.3)
        h.check_inclusion()

    def test_inclusion_after_merges_and_splits(self):
        import random
        rng = random.Random(9)
        h = make_hierarchy()
        topologies = [
            (private_topology(), private_topology()),
            ([(0, 1)] + private_topology()[2:], [(0, 1)] + private_topology()[2:]),
            ([(0, 1), (2, 3)] + private_topology()[4:],
             [(0, 1, 2, 3)] + private_topology()[4:]),
            (private_topology(), [(0, 1)] + private_topology()[2:]),
            (private_topology(), private_topology()),
        ]
        for l2, l3 in topologies:
            for _ in range(800):
                h.access(rng.randrange(16), rng.randrange(1500), rng.random() < 0.3)
            h.set_topology(l2, l3)
            h.check_inclusion()

    def test_repair_evicts_orphans_on_split(self):
        h = make_hierarchy()
        h.set_topology([(0, 1)] + private_topology()[2:],
                       [(0, 1)] + private_topology()[2:])
        # Force core 0 to overflow into slice 1.
        sets = TINY.l2_slice.sets
        ways = TINY.l2_slice.ways
        for s in range(2 * ways):
            h.access(0, s * sets)
        # Split back to private: core 0's lines in slice 1 are orphans.
        h.set_topology(private_topology(), private_topology())
        h.check_inclusion()
        for entry in h.l2s[1].entries():
            assert entry.owner == 1


def _state(h):
    """Everything a topology install could change, as comparable values."""
    slices = [[(e.line, e.owner, e.dirty, e.stamp) for e in c.entries()]
              for c in h.l1s + h.l2s + h.l3s]
    directory = {line: set(cores) for line, cores in h._l1_directory.items()}
    return slices, directory, copy.deepcopy(h.stats)


def _traffic(h, seed, n=3000):
    rng = random.Random(seed)
    for _ in range(n):
        h.access(rng.randrange(16), rng.randrange(1500), rng.random() < 0.3)


MERGED_L2 = [(0, 1), (2, 3)] + private_topology()[4:]
MERGED_L3 = [(0, 1, 2, 3)] + private_topology()[4:]


class TestReinstallIsNoop:
    def test_same_grouping_changes_nothing(self):
        observer = RecordingObserver()
        h = CacheHierarchy(TINY, observer=observer)
        h.set_topology(MERGED_L2, MERGED_L3)
        _traffic(h, seed=3)
        before, events = _state(h), len(observer.events)
        # Lists instead of tuples: equality is by value, not by type.
        h.set_topology([list(g) for g in MERGED_L2],
                       [list(g) for g in MERGED_L3])
        assert _state(h) == before
        assert len(observer.events) == events

    def test_same_grouping_skips_the_repair_scan(self, monkeypatch):
        h = make_hierarchy()
        h.set_topology(MERGED_L2, MERGED_L3)
        monkeypatch.setattr(h, "_repair_after_reconfiguration",
                            lambda: pytest.fail("repair ran on a no-op"))
        h.set_topology(MERGED_L2, MERGED_L3)

    def test_changed_grouping_still_repairs(self):
        observer = RecordingObserver()
        h = CacheHierarchy(TINY, observer=observer)
        h.set_topology(MERGED_L2, MERGED_L3)
        _traffic(h, seed=4)
        assert any(e.owner != 1 for e in h.l2s[1].entries())
        observer.events.clear()
        h.set_topology(private_topology(), private_topology())
        assert all(e.owner == 1 for e in h.l2s[1].entries())
        assert any(e[0] == "evict" for e in observer.events)
        h.check_inclusion()

    def test_fault_then_same_grouping_matches_full_repair(self):
        # A slice fault repairs inside set_faulted_slices; the following
        # same-grouping install must leave exactly what a forced repair
        # would.
        systems = []
        for _ in range(2):
            h = make_hierarchy()
            h.set_topology(MERGED_L2, MERGED_L3)
            _traffic(h, seed=5)
            h.set_faulted_slices("l3", {1})
            h.set_topology(MERGED_L2, MERGED_L3)
            systems.append(h)
        systems[1]._repair_after_reconfiguration()
        assert _state(systems[0]) == _state(systems[1])
        systems[0].check_inclusion()
        assert systems[0].l3s[1].occupancy() == 0

    def test_topology_counter_counts_real_installs_only(self):
        from repro.obs import REGISTRY

        REGISTRY.reset()
        REGISTRY.enable()
        try:
            h = make_hierarchy()  # the initial private install
            h.set_topology(private_topology(), private_topology())
            h.set_topology(MERGED_L2, MERGED_L3)
            h.set_topology(MERGED_L2, MERGED_L3)
            installs = REGISTRY.get("repro_topology_changes_total").value
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        assert installs == 2


class TestCoherence:
    def test_write_invalidates_other_l1_copies(self):
        h = make_hierarchy()
        h.set_topology([(0, 1)] + private_topology()[2:],
                       [(0, 1)] + private_topology()[2:])
        h.access(0, 0x7000)
        h.access(1, 0x7000)  # now both L1s hold it
        assert 0x7000 in h.l1s[0]
        assert 0x7000 in h.l1s[1]
        h.access(0, 0x7000, write=True)
        assert 0x7000 not in h.l1s[1]
        assert h.stats.cores[0].coherence_invalidations >= 1

    def test_dirty_l1_eviction_marks_l2_copy(self):
        h = make_hierarchy()
        h.access(0, 0x100, write=True)
        l1 = h.l1s[0]
        # Evict the dirty line from L1 by filling its set.
        sets1 = TINY.l1.sets
        line = 0x100
        for k in range(1, TINY.l1.ways + 1):
            h.access(0, line + k * sets1)
        if line not in l1:
            entry = h.l2s[0].lookup(line)
            assert entry is not None and entry.dirty


class TestObserver:
    def test_events_fire_in_order(self):
        observer = RecordingObserver()
        h = CacheHierarchy(TINY, observer=observer)
        h.access(0, 0x123)
        kinds = [e[0] for e in observer.events]
        assert kinds.count("fill") == 2  # l3 then l2
        h.l1s[0].flush()
        observer.events.clear()
        h.access(0, 0x123)
        assert ("hit", "l2", 0, 0, 0x123) in observer.events


@given(st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 500), st.booleans()),
    min_size=50, max_size=400,
))
@settings(max_examples=20, deadline=None)
def test_property_inclusion_invariant(accesses):
    """Inclusion holds under arbitrary interleaved traffic."""
    h = CacheHierarchy(TINY)
    h.set_topology(
        [(0, 1), (2, 3)] + [(i,) for i in range(4, 16)],
        [(0, 1, 2, 3)] + [(i,) for i in range(4, 16)],
    )
    for core, line, write in accesses:
        h.access(core, line, write)
    h.check_inclusion()
