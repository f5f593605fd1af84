"""Property tests for the baselines' partitioner and residency indexes.

- :func:`lookahead_partition` must return exactly what the original
  pure-Python greedy scan returns (kept verbatim below as the reference)
  for any non-decreasing utility curves, ties and all-flat curves included.
- After any stream of accesses (lookup, then fill on a miss, as the
  systems drive them), PIPP's and UCP's ``line -> owner`` index equals one
  rebuilt from the per-set priority lists, and DSR's set of resident
  lines equals the lines the slices actually hold, each in one slice.  Every lookup must also
  agree with a scan of the cache contents made just before it.
"""

from hypothesis import given, settings, strategies as st

from repro.baselines.dsr import PSEL_INIT, PSEL_MAX, DsrLevel
from repro.baselines.pipp import PippCache, lookahead_partition
from repro.baselines.ucp import UcpCache


def reference_lookahead_partition(curves, total_ways, minimum=1):
    """The original scalar implementation, kept as the oracle."""
    n = len(curves)
    if n == 0:
        raise ValueError("need at least one core")
    if total_ways < n * minimum:
        raise ValueError("not enough ways for the minimum allocation")
    alloc = [minimum] * n
    remaining = total_ways - n * minimum

    def gain(core: int, extra: int) -> float:
        have = alloc[core]
        curve = curves[core]
        now = curve[have - 1] if have > 0 else 0
        then = curve[min(have + extra, len(curve)) - 1]
        return (then - now) / extra

    while remaining > 0:
        best_core, best_extra, best_gain = -1, 1, -1.0
        for core in range(n):
            max_extra = min(remaining, len(curves[core]) - alloc[core])
            for extra in range(1, max_extra + 1):
                g = gain(core, extra)
                if g > best_gain:
                    best_core, best_extra, best_gain = core, extra, g
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


def _cumulative(increments, scale):
    curve, total = [], 0
    for step in increments:
        total += step * scale
        curve.append(total)
    return curve


@st.composite
def partition_problems(draw):
    """Non-decreasing curves (ties common, sometimes all flat) and a budget."""
    minimum = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 16))
    total_ways = draw(st.integers(n * minimum, 256))
    same_length = draw(st.booleans())
    shared_length = draw(st.integers(1, total_ways))
    flat = draw(st.booleans()) and draw(st.booleans())
    # Small steps make equal gains (ties) common; a large scale checks the
    # division stays exact for big hit counts (still below 2**53).
    scale = draw(st.sampled_from([1, 1, 3, 2**40 + 1]))
    curves = []
    for _ in range(n):
        length = (shared_length if same_length
                  else draw(st.integers(1, total_ways)))
        steps = st.just(0) if flat else st.integers(0, 3)
        increments = draw(st.lists(steps, min_size=length, max_size=length))
        curves.append(_cumulative(increments, scale))
    return curves, total_ways, minimum


@settings(max_examples=150, deadline=None)
@given(partition_problems())
def test_lookahead_matches_reference(problem):
    curves, total_ways, minimum = problem
    assert (lookahead_partition(curves, total_ways, minimum)
            == reference_lookahead_partition(curves, total_ways, minimum))


def test_lookahead_tie_between_cores_goes_to_the_first():
    # Both cores gain 3 hits from one more way; the in-order scan keeps the
    # first.  (A tie between two block sizes of one core cannot change the
    # result: the rest of the longer block averages the same gain, so the
    # core takes it next round.)
    curves = [[0, 3], [3, 6]]
    assert (lookahead_partition(curves, 3)
            == reference_lookahead_partition(curves, 3) == [2, 1])


# -- residency indexes ---------------------------------------------------------

SETS = 4
LINES = st.integers(0, 4 * SETS * 6)  # several lines contend for each set


def _accesses(n_cores):
    return st.lists(st.tuples(st.integers(0, n_cores - 1), LINES),
                    min_size=1, max_size=300)


def _rebuilt_owner_index(cache):
    pairs = [pair for entries in cache._data for pair in entries]
    index = dict(pairs)
    assert len(index) == len(pairs), "a line is resident twice"
    return index


def _drive_shared(cache, accesses, repartition_every):
    for step, (core, line) in enumerate(accesses, 1):
        resident = any(entry_line == line
                       for entry_line, _ in cache._data[line & (SETS - 1)])
        assert (line in cache._owner) == resident
        assert cache.lookup(core, line) == resident
        if not resident:
            cache.fill(core, line)
        if step % repartition_every == 0:
            cache.repartition()
    assert cache._owner == _rebuilt_owner_index(cache)


@settings(max_examples=80, deadline=None)
@given(_accesses(4), st.integers(5, 60), st.integers(0, 2**16))
def test_pipp_owner_index_matches_contents(accesses, repartition_every, seed):
    cache = PippCache(sets=SETS, ways=6, n_cores=4, seed=seed)
    _drive_shared(cache, accesses, repartition_every)


@settings(max_examples=80, deadline=None)
@given(_accesses(4), st.integers(5, 60))
def test_ucp_owner_index_matches_contents(accesses, repartition_every):
    cache = UcpCache(sets=SETS, ways=6, n_cores=4)
    _drive_shared(cache, accesses, repartition_every)


#: DSR accesses as (core, set, tag): four of the eight sets (both sample
#: sets and two followers) and six tags per set, so the one-way slices
#: evict, spill and displace receivers' lines within a few accesses.
DSR_ACCESSES = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 5)),
    min_size=10, max_size=300)


@settings(max_examples=80, deadline=None)
@given(DSR_ACCESSES,
       st.lists(st.sampled_from([0, PSEL_INIT, PSEL_MAX]),
                min_size=4, max_size=4),
       st.integers(0, 2**16))
def test_dsr_resident_set_matches_slices(accesses, psel, seed):
    # The drawn PSELs start some slices as receivers so spills happen.
    level = DsrLevel(sets=8, ways=1, n_slices=4, seed=seed)
    level.psel = list(psel)
    for stamp, (core, set_index, tag) in enumerate(accesses, 1):
        line = tag * 8 + set_index
        holders = [i for i, s in enumerate(level.slices) if line in s]
        expected = ("local" if core in holders
                    else "remote" if holders else None)
        assert level.contains(line) == bool(holders)
        assert level.lookup(core, line, stamp) == expected
        if expected is None:
            level.fill(core, line, False, stamp)
    held = [line for s in level.slices for line in s.resident_lines()]
    assert len(held) == len(set(held)), "a line is held by two slices"
    assert level._resident == set(held)
