import math
import random
from bisect import bisect_left
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from layerws import (DuplicateKeyError, MissingKeyError, ReferenceStructure,
                     UnifiedBoundTracker, WorkingSetTracker, lg)
from layerws.harness import verify_structure


def test_lg_values():
    assert lg(0) == 1.0
    assert lg(2) == 2.0
    assert lg(14) == 4.0
    with pytest.raises(ValueError):
        lg(-1)


def filled(keys):
    ref = ReferenceStructure()
    for k in keys:
        ref.insert(k)
    return ref


def sizes(ref):
    """Keys per level, counted in the key -> level map; the queues agree."""
    counts = Counter(ref.level_of.values())
    out = tuple(counts[j] for j in range(1, ref.levels + 1))
    assert out == tuple(len(q) for q in ref.level_queues)
    return out


# -- shift ---------------------------------------------------------------------

def test_shift_to_self_is_noop():
    ref = filled(range(5))
    before = ref.snapshot()
    ref.shift(2, 2)
    assert ref.snapshot() == before


def test_shift_down_moves_oldest():
    ref = filled([1, 2, 3, 4, 5])  # levels (4, 1)
    assert sizes(ref) == (4, 1)
    oldest = ref.level_queues[0][-1]
    ref.shift(1, 2)
    assert sizes(ref) == (3, 2)
    assert ref.level_queues[1][0] == oldest  # arrives as the youngest below


def test_shift_up_moves_youngest():
    ref = filled([1, 2, 3, 4, 5])
    ref.shift(1, 2)  # (3, 2)
    youngest_below = ref.level_queues[1][0]
    ref.shift(2, 1)
    assert sizes(ref) == (4, 1)
    assert ref.level_queues[0][0] == youngest_below


def test_multi_level_shift_up_moves_one_per_level():
    ref = filled(range(21))  # levels (4, 16, 1)
    moved = [q[0] for q in ref.level_queues[1:]]
    del ref.level_of[ref.level_queues[0].pop(0)]  # make room
    ref.shift(3, 1)
    assert sizes(ref) == (4, 16, 0)
    # each level's original youngest went one level up
    assert ref.level_queues[0][0] == moved[0]
    assert ref.level_queues[1][0] == moved[1]


# -- the five-insert worked example ------------------------------------------------

def test_insert_sequence():
    ref = filled([1, 2, 3, 4, 5])
    assert ref.snapshot() == {1: [5, 4, 3, 2], 2: [1]}


def test_search_promotes():
    ref = filled([1, 2, 3, 4, 5])
    assert ref.search(1) == 2
    assert ref.snapshot() == {1: [1, 5, 4, 3], 2: [2]}


def test_search_miss_changes_nothing():
    ref = filled([1, 2, 3, 4, 5])
    before = ref.snapshot()
    assert ref.search(77) is None
    assert ref.snapshot() == before


def test_delete_removes_empty_level():
    ref = filled([1, 2, 3, 4, 5])
    ref.search(1)
    ref.delete(2)
    assert ref.levels == 1
    assert ref.snapshot() == {1: [1, 5, 4, 3]}


def test_verifier_names_a_key_queued_on_the_wrong_level():
    ref = filled([1, 2, 3, 4, 5])  # {1: [5, 4, 3, 2], 2: [1]}
    assert verify_structure(ref) == []
    ref.level_queues[1].insert(0, ref.level_queues[0].pop())  # 2 queued on level 2
    kinds = {v.kind for v in verify_structure(ref)}
    assert {"queue-chain", "layer-size"} <= kinds


def test_duplicate_and_missing():
    ref = filled([1])
    with pytest.raises(DuplicateKeyError):
        ref.insert(1)
    with pytest.raises(MissingKeyError):
        ref.delete(9)


# -- working-set numbers ---------------------------------------------------------------

def test_never_accessed_reports_set_size():
    t = WorkingSetTracker(universe=range(10))
    assert t.working_set_number(3) == 10
    assert t.working_set_number(999) == 10  # absent keys too


def test_front_of_list_is_zero():
    t = WorkingSetTracker()
    t.record_insert(5)
    t.record_access(5)
    assert t.working_set_number(5) == 0


def test_abca_counts_two():
    t = WorkingSetTracker()
    for k in ("a", "b", "c"):
        t.record_insert(k)
    assert t.working_set_number("a") == 2
    t.record_access("a")
    assert t.working_set_number("a") == 0
    assert t.working_set_number("b") == 2


def test_delete_forgets_without_touching_others():
    t = WorkingSetTracker()
    for k in (1, 2, 3):
        t.record_insert(k)
    t.record_delete(2)
    assert t.working_set_number(1) == 1  # only 3 is newer now
    assert t.working_set_number(2) == 2  # |D| for the departed key


# -- unified bound -----------------------------------------------------------------------

def test_reaccess_gives_floor_value():
    t = UnifiedBoundTracker()
    t.record_insert(10)
    assert t.unified_bound(10) == lg(0) == 1.0


def test_rank_adjacent_recent_key():
    t = UnifiedBoundTracker()
    t.record_insert(10)
    t.record_insert(11)
    t.record_access(10)
    # 11 sits one rank away from the just-touched 10
    assert t.unified_bound(11) <= lg(1) == math.log2(3)


def test_incremental_matches_naive_on_random_trace():
    rng = random.Random(9)
    t = UnifiedBoundTracker()
    present = []
    for i in range(600):
        roll = rng.random()
        if (roll < 0.3 or not present) and len(present) < 60:
            k = rng.randint(0, 99)
            while k in present:
                k = rng.randint(0, 99)
            t.record_insert(k)
            present.append(k)
        elif roll < 0.4 and len(present) > 1:
            k = present.pop(rng.randrange(len(present)))
            t.record_delete(k)
        else:
            k = present[rng.randrange(len(present))]
            t.record_access(k)
        probe = present[rng.randrange(len(present))]
        assert t.unified_bound(probe) == pytest.approx(t.naive_unified_bound(probe), abs=1e-12), \
            f"op {i} probe {probe}"


# -- ring scan edges ------------------------------------------------------------------------

def brute_unified_bound(t, key):
    """Minimum over every present key, the definition read literally."""
    keys = t.sorted_keys
    x_rank = bisect_left(keys, key)
    return lg(min(t.ws.working_set_number(y) + abs(r - x_rank)
                  for r, y in enumerate(keys)))


def assert_ring_matches(t, key):
    got = t.unified_bound(key)
    assert got == brute_unified_bound(t, key) == t.naive_unified_bound(key), key


def spread_tracker():
    t = UnifiedBoundTracker()
    for k in (10, 20, 30, 40, 50):
        t.record_insert(k)
    for k in (50, 30, 10):
        t.record_access(k)
    return t


def test_ring_scan_key_above_maximum():
    t = spread_tracker()
    assert bisect_left(t.sorted_keys, 99) == len(t.sorted_keys)
    assert_ring_matches(t, 99)
    assert_ring_matches(t, 51)


def test_ring_scan_key_below_minimum():
    t = spread_tracker()
    assert_ring_matches(t, -5)
    assert_ring_matches(t, 9)


def test_ring_scan_absent_key_between_present_keys():
    t = spread_tracker()
    for probe in (15, 25, 35, 45):
        assert_ring_matches(t, probe)


def test_ring_scan_one_key_set():
    t = UnifiedBoundTracker()
    t.record_insert(7)
    for probe in (6, 7, 8):
        assert_ring_matches(t, probe)
    t.record_insert(3)
    t.record_delete(7)
    for probe in (2, 3, 7):
        assert_ring_matches(t, probe)


def test_ring_scan_untouched_universe():
    t = UnifiedBoundTracker(range(1, 31))
    for probe in (0, 1, 15, 30, 31):
        assert_ring_matches(t, probe)
    t.record_access(12)
    for probe in (0, 11, 12, 29, 31):
        assert_ring_matches(t, probe)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("IDS"), st.integers(0, 40)),
                min_size=1, max_size=60),
       st.lists(st.integers(-3, 43), min_size=1, max_size=5))
def test_ring_scan_matches_brute_force_on_random_histories(steps, probes):
    t = UnifiedBoundTracker()
    present = set()
    for kind, k in steps:
        if kind == "I" and k not in present:
            t.record_insert(k)
            present.add(k)
        elif kind == "D" and k in present and len(present) > 1:
            t.record_delete(k)
            present.discard(k)
        elif kind == "S" and k in present:
            t.record_access(k)
    if not present:
        t.record_insert(steps[0][1])
    for probe in probes:
        assert_ring_matches(t, probe)
