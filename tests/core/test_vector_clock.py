"""Vector clock lattice laws and representation details (Section 3.2)."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.vector_clock import (BOTTOM, MutableVectorClock, VectorClock,
                                     _SteppedClock)

clocks = st.dictionaries(st.integers(min_value=0, max_value=5),
                         st.integers(min_value=0, max_value=8),
                         max_size=6).map(VectorClock)


class TestConstruction:
    def test_empty_is_bottom(self):
        assert VectorClock().is_bottom()
        assert BOTTOM.is_bottom()

    def test_zero_entries_elided(self):
        clock = VectorClock({1: 0, 2: 3})
        assert len(clock) == 1
        assert clock == VectorClock({2: 3})

    def test_lookup_of_unknown_thread_is_zero(self):
        assert VectorClock({1: 4})[99] == 0

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            VectorClock({1: -1})
        with pytest.raises(ValueError):
            MutableVectorClock({1: -2})

    def test_accepts_pairs_iterable(self):
        assert VectorClock([(1, 2), (3, 4)]) == VectorClock({1: 2, 3: 4})

    def test_repr_mentions_entries(self):
        assert "1" in repr(VectorClock({1: 2}))


class TestOrder:
    def test_bottom_leq_everything(self):
        assert BOTTOM.leq(VectorClock({1: 1, 2: 9}))

    def test_pointwise_comparison(self):
        small = VectorClock({1: 1, 2: 2})
        large = VectorClock({1: 1, 2: 3})
        assert small.leq(large)
        assert not large.leq(small)
        assert small < large

    def test_incomparable_clocks_are_parallel(self):
        left = VectorClock({1: 2})
        right = VectorClock({2: 2})
        assert left.parallel(right)
        assert right.parallel(left)

    def test_equal_clocks_not_parallel(self):
        clock = VectorClock({1: 2})
        assert not clock.parallel(VectorClock({1: 2}))

    def test_the_paper_fig3_comparisons(self):
        # ⟨3,0,1⟩ vs ⟨2,1,0⟩ incomparable; both ⊑ ⟨4,1,1⟩.
        a1 = VectorClock({0: 3, 2: 1})
        a2 = VectorClock({0: 2, 1: 1})
        a3 = VectorClock({0: 4, 1: 1, 2: 1})
        assert a1.parallel(a2)
        assert a1.leq(a3) and a2.leq(a3)

    @given(clocks, clocks)
    def test_leq_antisymmetry(self, c1, c2):
        if c1.leq(c2) and c2.leq(c1):
            assert c1 == c2

    @given(clocks, clocks, clocks)
    def test_leq_transitivity(self, c1, c2, c3):
        if c1.leq(c2) and c2.leq(c3):
            assert c1.leq(c3)


class TestJoin:
    def test_join_is_pointwise_max(self):
        joined = VectorClock({1: 2, 2: 5}) | VectorClock({1: 3, 3: 1})
        assert joined == VectorClock({1: 3, 2: 5, 3: 1})

    @given(clocks, clocks)
    def test_join_is_upper_bound(self, c1, c2):
        joined = c1.join(c2)
        assert c1.leq(joined) and c2.leq(joined)

    @given(clocks, clocks, clocks)
    def test_join_is_least_upper_bound(self, c1, c2, upper):
        if c1.leq(upper) and c2.leq(upper):
            assert c1.join(c2).leq(upper)

    @given(clocks, clocks)
    def test_join_commutes(self, c1, c2):
        assert c1.join(c2) == c2.join(c1)

    @given(clocks)
    def test_join_idempotent(self, clock):
        assert clock.join(clock) == clock

    @given(clocks)
    def test_bottom_is_identity(self, clock):
        assert BOTTOM.join(clock) == clock


class TestInc:
    def test_inc_bumps_single_component(self):
        clock = VectorClock({1: 1}).inc(1).inc(2)
        assert clock == VectorClock({1: 2, 2: 1})

    @given(clocks, st.integers(min_value=0, max_value=5))
    def test_inc_strictly_increases(self, clock, tid):
        bumped = clock.inc(tid)
        assert clock.leq(bumped)
        assert clock != bumped

    def test_inc_does_not_mutate(self):
        clock = VectorClock({1: 1})
        clock.inc(1)
        assert clock == VectorClock({1: 1})


class TestValueSemantics:
    @given(clocks)
    def test_hash_consistent_with_equality(self, clock):
        same = VectorClock(dict(clock.items()))
        assert clock == same
        assert hash(clock) == hash(same)

    def test_equality_across_mutable_and_frozen(self):
        frozen = VectorClock({1: 2})
        mutable = MutableVectorClock({1: 2})
        assert frozen == mutable
        assert mutable == frozen

    def test_mutable_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(MutableVectorClock())

    def test_to_tuple_renders_dense_form(self):
        clock = VectorClock({"m": 4, "t2": 1, "t3": 1})
        assert clock.to_tuple(["m", "t2", "t3"]) == (4, 1, 1)


class TestMutable:
    def test_join_in_place(self):
        clock = MutableVectorClock({1: 1})
        clock.join_in_place(VectorClock({2: 4}))
        assert clock == VectorClock({1: 1, 2: 4})

    def test_inc_in_place(self):
        clock = MutableVectorClock()
        clock.inc_in_place(7).inc_in_place(7)
        assert clock[7] == 2

    def test_freeze_snapshots(self):
        clock = MutableVectorClock({1: 1})
        snapshot = clock.freeze()
        clock.inc_in_place(1)
        assert snapshot == VectorClock({1: 1})
        assert clock[1] == 2

    def test_copy_is_independent(self):
        clock = MutableVectorClock({1: 1})
        other = clock.copy()
        other.inc_in_place(1)
        assert clock[1] == 1

    def test_set_component(self):
        clock = MutableVectorClock({1: 5})
        clock.set_component(1, 3)
        clock.set_component(2, 4)
        assert clock == VectorClock({1: 3, 2: 4})

    def test_set_component_zero_removes(self):
        clock = MutableVectorClock({1: 5})
        clock.set_component(1, 0)
        assert len(clock) == 0

    def test_set_component_rejects_negative(self):
        with pytest.raises(ValueError):
            MutableVectorClock().set_component(1, -1)


class TestCopyOnWriteFreeze:
    """The CoW stamping contract: O(1) snapshots, never a stale value."""

    def test_unchanged_clock_returns_the_cached_snapshot(self):
        clock = MutableVectorClock({1: 1})
        assert clock.freeze() is clock.freeze()

    def test_own_component_advance_yields_correct_view(self):
        clock = MutableVectorClock({1: 1, 2: 5})
        base = clock.freeze()
        clock.inc_in_place(1)
        stepped = clock.freeze()
        assert stepped == VectorClock({1: 2, 2: 5})
        assert (stepped[1], stepped[2], stepped[99]) == (2, 5, 0)
        assert base == VectorClock({1: 1, 2: 5})  # past stamps unharmed

    def test_stepped_view_matches_plain_clock_semantics(self):
        clock = MutableVectorClock({1: 3, 2: 1})
        clock.freeze()
        clock.inc_in_place(1)
        stepped = clock.freeze()
        plain = VectorClock({1: 4, 2: 1})
        other = VectorClock({1: 4, 3: 7})
        assert stepped == plain and plain == stepped
        assert hash(stepped) == hash(plain)
        assert len(stepped) == len(plain)
        assert not stepped.is_bottom()
        assert sorted(stepped.items()) == sorted(plain.items())
        assert stepped.leq(plain) and plain.leq(stepped)
        assert stepped.leq(other) == plain.leq(other)
        assert stepped.parallel(other) == plain.parallel(other)
        assert stepped.join(other) == plain.join(other)
        assert stepped.inc(3) == plain.inc(3)
        assert stepped.thaw() == plain.thaw()

    def test_stepped_view_pickles_as_base_and_stamp(self):
        clock = MutableVectorClock({1: 1})
        clock.freeze()
        clock.inc_in_place(1)
        stepped = clock.freeze()
        revived = pickle.loads(pickle.dumps(stepped))
        assert type(revived) is _SteppedClock
        assert revived == stepped
        assert hash(revived) == hash(stepped)
        # Stamps of one window share one base dict, and so do their
        # revived copies: pickle's memo ships the base once per dumps.
        clock.inc_in_place(1)
        first, second = pickle.loads(pickle.dumps([stepped, clock.freeze()]))
        assert first._base is second._base
        wide = MutableVectorClock({tid: 1 for tid in range(768)})
        wide.freeze()
        stamps = [wide.stamp_next(0) for _ in range(100)]
        assert len(pickle.dumps(stamps)) < 2 * len(pickle.dumps(stamps[0]))

    def test_cross_component_join_invalidates(self):
        clock = MutableVectorClock({1: 1})
        cached = clock.freeze()
        clock.join_in_place(VectorClock({2: 9}))
        assert clock.freeze() == VectorClock({1: 1, 2: 9})
        assert cached == VectorClock({1: 1})

    def test_dominated_join_keeps_the_cache(self):
        clock = MutableVectorClock({1: 5})
        cached = clock.freeze()
        clock.join_in_place(VectorClock({1: 3}))
        assert clock.freeze() is cached

    def test_set_component_invalidates(self):
        clock = MutableVectorClock({1: 2})
        snapshot = clock.freeze()
        clock.set_component(1, 9)
        assert clock.freeze() == VectorClock({1: 9})
        assert snapshot == VectorClock({1: 2})

    def test_second_component_divergence_snapshots_afresh(self):
        clock = MutableVectorClock({1: 1, 2: 1})
        clock.freeze()
        clock.inc_in_place(1)
        clock.inc_in_place(2)  # the one-delta view no longer applies
        assert clock.freeze() == VectorClock({1: 2, 2: 2})
        assert clock.stamp_next(1) == VectorClock({1: 3, 2: 2})

    def test_stamp_next_equals_inc_then_freeze(self):
        fused = MutableVectorClock({1: 1, 2: 4})
        twostep = fused.copy()
        for _ in range(3):
            stamped = fused.stamp_next(1)
            twostep.inc_in_place(1)
            assert stamped == twostep.freeze()

    def test_stamp_next_produces_distinct_stamps(self):
        clock = MutableVectorClock()
        first = clock.stamp_next(1)
        second = clock.stamp_next(1)
        assert first == VectorClock({1: 1})
        assert second == VectorClock({1: 2})
        assert first < second

    def test_freeze_copy_is_plain_and_independent(self):
        clock = MutableVectorClock({1: 1})
        snapshot = clock.freeze_copy()
        assert type(snapshot) is VectorClock
        clock.inc_in_place(1)
        assert snapshot == VectorClock({1: 1})

    @given(st.lists(st.tuples(st.sampled_from("ijsf"),
                              st.integers(min_value=0, max_value=3)),
                    max_size=40))
    def test_freeze_always_matches_a_shadow_dict(self, ops):
        # Whatever the mutation history, every freeze must equal the
        # value a plain dict would hold at that instant — and earlier
        # snapshots must never change retroactively.
        clock = MutableVectorClock()
        shadow = {}
        taken = []
        for op, tid in ops:
            if op == "i":
                clock.inc_in_place(tid)
                shadow[tid] = shadow.get(tid, 0) + 1
            elif op == "j":
                clock.join_in_place(VectorClock({tid: 5}))
                shadow[tid] = max(shadow.get(tid, 0), 5)
            elif op == "s":
                stamped = clock.stamp_next(tid)
                shadow[tid] = shadow.get(tid, 0) + 1
                taken.append((stamped, VectorClock(shadow)))
            else:
                taken.append((clock.freeze(), VectorClock(shadow)))
        taken.append((clock.freeze(), VectorClock(shadow)))
        for snapshot, expected in taken:
            assert snapshot == expected
            assert hash(snapshot) == hash(expected)
