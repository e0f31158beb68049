"""Unit tests for the dense interning layer (repro.core.intern)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    AttributeValue,
    StringInterner,
    ValueInterner,
    intersect_sorted,
)


def AV(attribute, value):
    return AttributeValue(attribute, value)


class TestValueInterner:
    def test_ids_are_dense_first_seen_order(self):
        interner = ValueInterner()
        assert interner.intern(AV("a", "x")) == 0
        assert interner.intern(AV("a", "y")) == 1
        assert interner.intern(AV("b", "x")) == 2
        # Re-interning returns the existing id.
        assert interner.intern(AV("a", "x")) == 0
        assert len(interner) == 3

    def test_lookup_does_not_assign(self):
        interner = ValueInterner()
        assert interner.lookup(AV("a", "x")) is None
        assert len(interner) == 0
        vid = interner.intern(AV("a", "x"))
        assert interner.lookup(AV("a", "x")) == vid

    def test_value_is_inverse_of_intern(self):
        interner = ValueInterner()
        pairs = [AV("a", f"v{i}") for i in range(20)]
        ids = [interner.intern(p) for p in pairs]
        assert [interner.value(vid) for vid in ids] == pairs
        assert interner.values() == pairs

    def test_contains(self):
        interner = ValueInterner()
        interner.intern(AV("a", "x"))
        assert AV("a", "x") in interner
        assert AV("a", "y") not in interner

    def test_state_roundtrip_preserves_assignment(self):
        interner = ValueInterner()
        for i in range(10):
            interner.intern(AV("attr", f"v{i}"))
        payload = interner.state_dict()

        restored = ValueInterner()
        restored.load_state(payload)
        assert len(restored) == len(interner)
        for vid in range(len(interner)):
            assert restored.value(vid) == interner.value(vid)
        # Restored interner keeps assigning past the loaded ids.
        assert restored.intern(AV("attr", "new")) == len(interner)

    def test_load_state_replaces_existing(self):
        interner = ValueInterner()
        interner.intern(AV("old", "old"))
        interner.load_state([["a", "x"], ["a", "y"]])
        assert interner.lookup(AV("old", "old")) is None
        assert interner.lookup(AV("a", "x")) == 0
        assert interner.lookup(AV("a", "y")) == 1

    def test_overflow_past_max_id(self, monkeypatch):
        # Shared table blocks store value ids as uint32; the bound is
        # lowered here so crossing it takes three values, not 2**32.
        monkeypatch.setattr("repro.core.intern.MAX_ID", 1)
        interner = ValueInterner()
        interner.intern(AV("a", "x"))
        interner.intern(AV("a", "y"))
        with pytest.raises(OverflowError):
            interner.intern(AV("a", "z"))
        assert len(interner) == 2


class TestStringInterner:
    def test_dense_ids_and_roundtrip(self):
        interner = StringInterner()
        assert interner.intern("alpha") == 0
        assert interner.intern("beta") == 1
        assert interner.intern("alpha") == 0
        assert interner.token(1) == "beta"
        assert "beta" in interner and "gamma" not in interner

        restored = StringInterner()
        restored.load_state(interner.state_dict())
        assert restored.lookup("beta") == 1
        assert len(restored) == 2


class TestIntersectSorted:
    def test_basic(self):
        assert intersect_sorted([1, 3, 5, 7], [2, 3, 4, 7, 9]) == [3, 7]

    def test_disjoint_and_empty(self):
        assert intersect_sorted([1, 2], [3, 4]) == []
        assert intersect_sorted([], [1, 2]) == []
        assert intersect_sorted([1, 2], []) == []

    def test_identical(self):
        assert intersect_sorted([1, 2, 3], [1, 2, 3]) == [1, 2, 3]

    @given(
        a=st.lists(st.integers(min_value=0, max_value=50), unique=True),
        b=st.lists(st.integers(min_value=0, max_value=50), unique=True),
    )
    def test_matches_set_intersection(self, a, b):
        a, b = sorted(a), sorted(b)
        assert intersect_sorted(a, b) == sorted(set(a) & set(b))
