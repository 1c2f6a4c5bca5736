"""Unit tests for repro.frame.concat and repro.frame.join."""

import numpy as np
import pytest

from repro.frame import (
    DataFrame,
    Index,
    MultiIndex,
    concat_columns,
    concat_rows,
    join_on_index,
    merge,
)


class TestConcatRows:
    def test_stacks_and_unions_columns(self):
        a = DataFrame({"x": [1.0, 2.0]})
        b = DataFrame({"x": [3.0], "y": ["q"]})
        out = concat_rows([a, b])
        assert len(out) == 3
        first = out.column("y")[0]
        assert first is None or (isinstance(first, float) and np.isnan(first))
        assert out.column("y")[2] == "q"

    def test_empty_input(self):
        assert concat_rows([]).empty

    def test_multiindex_preserved(self):
        mi1 = MultiIndex([("n", 1)], names=["node", "p"])
        mi2 = MultiIndex([("n", 2)], names=["node", "p"])
        out = concat_rows([DataFrame({"v": [1.0]}, index=mi1),
                           DataFrame({"v": [2.0]}, index=mi2)])
        assert isinstance(out.index, MultiIndex)
        assert out.index.names == ["node", "p"]

    def test_numeric_concat_dtype(self):
        out = concat_rows([DataFrame({"v": [1]}), DataFrame({"v": [2.5]})])
        assert out.column("v").dtype.kind == "f"


class TestConcatColumns:
    def test_inner_join_intersects_rows(self):
        a = DataFrame({"x": [1.0, 2.0]}, index=Index(["r1", "r2"]))
        b = DataFrame({"y": [3.0, 4.0]}, index=Index(["r2", "r3"]))
        out = concat_columns([a, b], join="inner")
        assert list(out.index) == ["r2"]
        assert out.column("x")[0] == 2.0

    def test_outer_join_fills(self):
        a = DataFrame({"x": [1.0]}, index=Index(["r1"]))
        b = DataFrame({"y": [2.0]}, index=Index(["r2"]))
        out = concat_columns([a, b], join="outer")
        assert len(out) == 2
        assert np.isnan(out.column("y")[0])

    def test_keys_build_hierarchical_columns(self):
        idx = Index(["r1"])
        a = DataFrame({"time": [1.0]}, index=idx)
        b = DataFrame({"time": [2.0]}, index=idx)
        out = concat_columns([a, b], keys=["CPU", "GPU"])
        assert ("CPU", "time") in out
        assert ("GPU", "time") in out
        assert out[("GPU", "time")].values[0] == 2.0

    def test_duplicate_columns_without_keys_rejected(self):
        idx = Index(["r1"])
        a = DataFrame({"t": [1.0]}, index=idx)
        b = DataFrame({"t": [2.0]}, index=idx)
        with pytest.raises(ValueError):
            concat_columns([a, b])

    def test_keys_length_mismatch(self):
        with pytest.raises(ValueError):
            concat_columns([DataFrame(), DataFrame()], keys=["one"])

    def test_bad_join(self):
        with pytest.raises(ValueError):
            concat_columns([DataFrame(), DataFrame()], join="left")

    def test_multiindex_restored(self):
        mi = MultiIndex([("n", 1), ("n", 2)], names=["node", "p"])
        a = DataFrame({"x": [1.0, 2.0]}, index=mi)
        b = DataFrame({"y": [3.0, 4.0]}, index=mi)
        out = concat_columns([a, b])
        assert isinstance(out.index, MultiIndex)
        assert out.index.names == ["node", "p"]


class TestJoinOnIndex:
    def test_inner(self):
        left = DataFrame({"a": [1.0, 2.0]}, index=Index(["x", "y"]))
        right = DataFrame({"b": [3.0]}, index=Index(["y"]))
        out = join_on_index(left, right, how="inner")
        assert list(out.index) == ["y"]
        assert out.column("b")[0] == 3.0

    def test_left_fills_missing(self):
        left = DataFrame({"a": [1.0, 2.0]}, index=Index(["x", "y"]))
        right = DataFrame({"b": [3.0]}, index=Index(["y"]))
        out = join_on_index(left, right, how="left")
        assert len(out) == 2
        assert np.isnan(out.column("b")[0])

    def test_outer(self):
        left = DataFrame({"a": [1.0]}, index=Index(["x"]))
        right = DataFrame({"b": [2.0]}, index=Index(["y"]))
        out = join_on_index(left, right, how="outer")
        assert len(out) == 2

    def test_outer_with_an_empty_side_fills(self):
        empty = DataFrame({"a": np.array([], dtype=float),
                           "s": np.array([], dtype=object)}, index=Index([]))
        full = DataFrame({"b": [2.0, 3.0]}, index=Index(["x", "y"]))
        out = join_on_index(empty, full, how="outer")
        assert list(out.index) == ["x", "y"]
        assert np.isnan(out.column("a")).all()
        assert list(out.column("s")) == [None, None]
        assert list(out.column("b")) == [2.0, 3.0]
        out = join_on_index(full, empty, how="outer")
        assert list(out.index) == ["x", "y"]
        assert np.isnan(out.column("a")).all()

    def test_left_onto_an_empty_right_fills(self):
        left = DataFrame({"a": [1.0]}, index=Index(["x"]))
        right = DataFrame({"b": np.array([], dtype=np.int64)},
                          index=Index([]))
        out = join_on_index(left, right, how="left")
        assert list(out.index) == ["x"]
        assert out.column("a")[0] == 1.0
        assert np.isnan(out.column("b")[0])

    def test_reindex_zero_row_frame(self):
        out = DataFrame({"x": []}, index=[]).reindex(["a", "b"])
        assert list(out.index) == ["a", "b"]
        assert np.isnan(out.column("x")).all()
        names = DataFrame({"s": np.array([], dtype=object)}, index=[])
        assert list(names.reindex(["a"]).column("s")) == [None]

    def test_suffix_on_collision(self):
        left = DataFrame({"v": [1.0]}, index=Index(["x"]))
        right = DataFrame({"v": [2.0]}, index=Index(["x"]))
        out = join_on_index(left, right)
        assert "v" in out and "v_right" in out

    def test_bad_how(self):
        with pytest.raises(ValueError):
            join_on_index(DataFrame(), DataFrame(), how="cross")

    @pytest.mark.parametrize("how", ["inner", "left", "outer"])
    def test_duplicate_labels_rejected(self, how):
        dup = DataFrame({"a": [1.0, 2.0, 3.0]}, index=Index(["a", "a", "b"]))
        uniq = DataFrame({"b": [4.0, 5.0]}, index=Index(["a", "b"]))
        for left, right, side in ((dup, uniq, "left"), (uniq, dup, "right")):
            with pytest.raises(ValueError, match=f"the {side} frame "
                                                 f"repeats 'a'"):
                join_on_index(left, right, how=how)

    def test_duplicate_multiindex_labels_rejected(self):
        mi = MultiIndex([("n", 1), ("n", 2), ("n", 1)], names=["node", "p"])
        dup = DataFrame({"a": [1.0, 2.0, 3.0]}, index=mi)
        with pytest.raises(ValueError, match=r"repeats \('n', 1\)"):
            join_on_index(dup, dup.select(["a"]).rename({"a": "b"}))


class TestMerge:
    def test_inner_hash_join(self):
        left = DataFrame({"k": [1, 2, 2], "v": [10, 20, 30]})
        right = DataFrame({"k": [2, 1], "w": ["b", "a"]})
        out = merge(left, right, on="k")
        assert len(out) == 3
        assert list(out.column("w")) == ["a", "b", "b"]

    def test_left_join_fills(self):
        left = DataFrame({"k": [1, 9], "v": [10, 90]})
        right = DataFrame({"k": [1], "w": [1.5]})
        out = merge(left, right, on="k", how="left")
        assert len(out) == 2
        assert np.isnan(out.column("w")[1])

    def test_multi_key(self):
        left = DataFrame({"a": [1, 1], "b": ["x", "y"], "v": [1, 2]})
        right = DataFrame({"a": [1], "b": ["y"], "w": [9]})
        out = merge(left, right, on=["a", "b"])
        assert len(out) == 1
        assert out.column("v")[0] == 2

    def test_missing_key_errors(self):
        with pytest.raises(KeyError):
            merge(DataFrame({"a": [1]}), DataFrame({"b": [1]}), on="a")

    @pytest.mark.parametrize("how", ["outer", "right", "bogus"])
    def test_bad_how(self, how):
        left = DataFrame({"k": [1, 2], "v": [10, 20]})
        right = DataFrame({"k": [2, 3], "w": [1.0, 2.0]})
        with pytest.raises(ValueError, match="how must be inner/left"):
            merge(left, right, on="k", how=how)

    def test_shared_non_key_columns_suffixed(self):
        left = DataFrame({"k": [1], "v": [1.0]})
        right = DataFrame({"k": [1], "v": [2.0]})
        out = merge(left, right, on="k")
        assert "v_x" in out and "v_y" in out
