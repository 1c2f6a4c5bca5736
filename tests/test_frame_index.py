"""Unit tests for repro.frame.index."""

import numpy as np
import pytest

from repro.frame import Index, MultiIndex, RangeIndex, ensure_index
from repro.frame.index import factorize, sort_positions


class TestIndex:
    def test_basic_construction(self):
        idx = Index(["a", "b", "c"], name="letters")
        assert len(idx) == 3
        assert idx.name == "letters"
        assert list(idx) == ["a", "b", "c"]

    def test_from_index_copies_name(self):
        idx = Index(Index([1, 2], name="n"))
        assert idx.name == "n"

    def test_get_loc(self):
        idx = Index(["x", "y", "z"])
        assert idx.get_loc("y") == 1
        with pytest.raises(KeyError):
            idx.get_loc("missing")

    def test_get_loc_duplicate_first_wins(self):
        idx = Index(["a", "b", "a"])
        assert idx.get_loc("a") == 0
        assert idx.has_duplicates()

    def test_get_indexer_missing_is_minus_one(self):
        idx = Index([10, 20, 30])
        out = idx.get_indexer([20, 99, 10])
        assert list(out) == [1, -1, 0]

    def test_contains(self):
        idx = Index([1, 2, 3])
        assert 2 in idx
        assert 9 not in idx

    def test_isin(self):
        idx = Index(["a", "b", "c", "d"])
        assert list(idx.isin({"b", "d"})) == [False, True, False, True]

    def test_equality(self):
        assert Index([1, 2]) == Index([1, 2])
        assert not (Index([1, 2]) == Index([2, 1]))
        assert not (Index([1, 2]) == Index([1, 2, 3]))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Index([1]))

    def test_slicing_returns_index(self):
        idx = Index([1, 2, 3, 4], name="n")
        sub = idx[1:3]
        assert isinstance(sub, Index)
        assert list(sub) == [2, 3]
        assert sub.name == "n"

    def test_boolean_mask(self):
        idx = Index([1, 2, 3])
        sub = idx[np.array([True, False, True])]
        assert list(sub) == [1, 3]

    def test_set_operations_preserve_order(self):
        a = Index([3, 1, 2, 3])
        b = Index([2, 4])
        assert list(a.intersection(b)) == [2]
        assert list(a.union(b)) == [3, 1, 2, 4]
        assert list(a.difference(b)) == [3, 1]

    def test_unique(self):
        assert list(Index([1, 2, 1, 3]).unique()) == [1, 2, 3]

    def test_take(self):
        idx = Index(["a", "b", "c"])
        assert list(idx.take([2, 0])) == ["c", "a"]

    def test_rename(self):
        assert Index([1], name="old").rename("new").name == "new"

    def test_tuples_not_flattened(self):
        idx = Index([(1, 2), (3, 4)])
        assert idx[0] == (1, 2)


class TestMultiIndex:
    def test_from_product(self):
        mi = MultiIndex.from_product([["a", "b"], [1, 2]], names=["l", "n"])
        assert len(mi) == 4
        assert mi[0] == ("a", 1)
        assert mi.names == ["l", "n"]

    def test_from_arrays(self):
        mi = MultiIndex.from_arrays([["x", "y"], [1, 2]], names=["a", "b"])
        assert mi[1] == ("y", 2)

    def test_from_arrays_mismatched_lengths(self):
        with pytest.raises(ValueError):
            MultiIndex.from_arrays([[1, 2], [1]])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex([(1, 2), (1,)])

    def test_names_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex([(1, 2)], names=["only_one"])

    def test_get_level_values(self):
        mi = MultiIndex([("a", 1), ("b", 2)], names=["k", "v"])
        assert list(mi.get_level_values("k")) == ["a", "b"]
        assert list(mi.get_level_values(1)) == [1, 2]

    def test_level_number_errors(self):
        mi = MultiIndex([("a", 1)], names=["k", "v"])
        with pytest.raises(KeyError):
            mi.level_number("nope")
        with pytest.raises(KeyError):
            mi.level_number(5)

    def test_droplevel_two_levels(self):
        mi = MultiIndex([("a", 1), ("b", 2)], names=["k", "v"])
        dropped = mi.droplevel("k")
        assert isinstance(dropped, Index)
        assert list(dropped) == [1, 2]
        assert dropped.name == "v"

    def test_droplevel_three_levels(self):
        mi = MultiIndex([("a", 1, "x"), ("b", 2, "y")], names=["k", "v", "w"])
        dropped = mi.droplevel(1)
        assert isinstance(dropped, MultiIndex)
        assert dropped[0] == ("a", "x")

    def test_set_ops_stay_multi(self):
        a = MultiIndex([("a", 1), ("b", 2)], names=["k", "v"])
        b = MultiIndex([("b", 2), ("c", 3)], names=["k", "v"])
        inter = a.intersection(b)
        assert isinstance(inter, MultiIndex)
        assert list(inter) == [("b", 2)]
        assert inter.names == ["k", "v"]

    def test_unique_level(self):
        mi = MultiIndex([("a", 1), ("a", 2), ("b", 1)], names=["k", "v"])
        assert mi.unique_level("k") == ["a", "b"]


class TestLevelPartition:
    def test_factorize_first_seen_codes_and_stable_segments(self):
        part = factorize(["b", "a", "b", "c", "a"])
        assert part.uniques == ["b", "a", "c"]
        assert list(part.codes) == [0, 1, 0, 2, 1]
        assert list(part.order) == [0, 2, 1, 4, 3]
        assert list(part.starts) == [0, 2, 4, 5]
        assert list(part.counts) == [2, 2, 1]
        assert list(part.positions("a")) == [1, 4]
        assert list(part.positions("zzz")) == []
        assert list(part.codes_of(["c", "zzz"])) == [2, -1]
        assert list(part.row_mask({"a", "zzz"})) == [
            False, True, False, False, True]

    def test_factorize_numeric_array_with_nan(self):
        # each NaN scalar of the array is its own label, as it is its
        # own dict key
        part = factorize(np.array([1.0, np.nan, 1.0, np.nan]))
        assert list(part.codes) == [0, 1, 0, 2]

    def test_factorize_empty(self):
        part = factorize([])
        assert part.uniques == [] and len(part.codes) == 0
        assert list(part.starts) == [0]

    def test_partition_is_lazy_and_cached_per_level(self):
        mi = MultiIndex([("a", 1), ("b", 1), ("a", 2)], names=["k", "v"])
        assert mi._partitions == {}  # nothing computed at construction
        by_name = mi.partition("k")
        assert mi.partition(0) is by_name
        assert mi.partition("v").uniques == [1, 2]
        assert by_name.uniques == ["a", "b"]

    def test_derived_index_gets_a_fresh_partition(self):
        mi = MultiIndex([("a", 1), ("b", 1), ("a", 2)], names=["k", "v"])
        mi.partition(0)
        sub = mi[np.array([False, True, True])]
        assert sub._partitions == {}
        assert sub.partition(0).uniques == ["b", "a"]

    def test_plain_index_partition(self):
        idx = Index(["x", "y", "x"], name="k")
        assert idx.partition("k") is idx.partition(0)
        with pytest.raises(KeyError):
            idx.partition("ghost")


class TestHelpers:
    def test_range_index(self):
        assert list(RangeIndex(3)) == [0, 1, 2]

    def test_ensure_index_none_needs_n(self):
        with pytest.raises(ValueError):
            ensure_index(None)
        assert len(ensure_index(None, n=4)) == 4

    def test_ensure_index_tuples_promote_to_multi(self):
        idx = ensure_index([("a", 1), ("b", 2)])
        assert isinstance(idx, MultiIndex)

    def test_ensure_index_passthrough(self):
        idx = Index([1])
        assert ensure_index(idx) is idx

    def test_sort_positions_heterogeneous(self):
        values = ["b", 2, "a", 1]
        order = sort_positions(values)
        sorted_vals = [values[i] for i in order]
        # ints group together and strings group together, each sorted
        assert sorted_vals.index(1) < sorted_vals.index(2)
        assert sorted_vals.index("a") < sorted_vals.index("b")

    def test_sort_positions_reverse(self):
        assert sort_positions([1, 3, 2], reverse=True) == [1, 2, 0]
