"""Index objects for the frame substrate.

An :class:`Index` is an immutable, ordered collection of row (or column)
labels, held in a numpy object array so heterogeneous label types
(graph nodes, ints, strings) coexist without coercion.

A :class:`MultiIndex` is an index whose labels are tuples, giving
hierarchical (multi-level) indexing — the backbone of Thicket's
*(call-tree node, profile)* row keys and *(source, metric)* column keys.
It stores each level as its distinct labels (``uniques``) and one
integer code per row.  Slicing, masking and ``take`` slice the codes and
keep the uniques; lookups, set operations, joins and concatenation map
one index's uniques onto another's once and then work on the codes in
numpy.  The tuples are built only when ``.values`` is first read, and
then cached.

:meth:`Index.partition` groups the rows of one level into a
:class:`LevelPartition` — the rows of every distinct label as one
contiguous segment of a stable ordering.  For a :class:`MultiIndex` it
is the level's own storage, renumbered to the labels its rows use in
first-seen order, plus that ordering.  It is cached on the index
object; because an index never changes after construction, the cache
never goes stale, and a frame that gets a new index gets a new (empty)
cache with it.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import itemgetter
from typing import (Any, Callable, Hashable, Iterable, Iterator, Mapping,
                    NamedTuple, Sequence)

import numpy as np

__all__ = ["Index", "MultiIndex", "RangeIndex", "LevelPartition",
           "ensure_index", "factorize", "plain_values"]


def _as_object_array(values: Iterable[Any]) -> np.ndarray:
    """Build a 1-D object array without numpy flattening tuple elements."""
    return np.fromiter(values, dtype=object)


class LevelPartition(NamedTuple):
    """Rows grouped by label: the factorization of one index level.

    ``uniques[c]`` is the label of code ``c`` (first-seen order) and
    ``codes[i]`` the code of row ``i``.  ``order`` is a stable argsort
    of ``codes``, so the rows of code ``c`` are
    ``order[starts[c]:starts[c + 1]]``, in ascending row order.
    """

    uniques: list
    codes: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    lookup: dict  # label -> code

    @property
    def counts(self) -> np.ndarray:
        """Number of rows per code."""
        return np.diff(self.starts)

    @property
    def sorted_codes(self) -> np.ndarray:
        """``codes[order]``: the code of each position of ``order``."""
        return np.repeat(np.arange(len(self.uniques)), self.counts)

    def segment(self, code: int) -> np.ndarray:
        """Row positions of code *code*, ascending."""
        return self.order[self.starts[code]:self.starts[code + 1]]

    def positions(self, label: Any) -> np.ndarray:
        """Row positions of *label* (empty if it labels no row)."""
        code = self.lookup.get(label)
        return self.order[:0] if code is None else self.segment(code)

    def codes_of(self, labels: Iterable[Any]) -> np.ndarray:
        """Code of each label; -1 for a label that labels no row."""
        labels = list(labels)
        return _lookup(self.lookup, labels, len(labels))

    def row_mask(self, keep: Iterable[Any]) -> np.ndarray:
        """Boolean row mask: True where the row's label is in *keep*."""
        keep_code = np.zeros(len(self.uniques), dtype=bool)
        codes = self.codes_of(keep)
        keep_code[codes[codes >= 0]] = True
        return keep_code[self.codes]


def _codes_of(labels: Iterable[Any]) -> tuple[list, np.ndarray]:
    """Distinct labels in first-seen order, and each label's code."""
    # one pass of objects for both steps: each pass over a numeric array
    # makes new scalars, and a NaN is found again only as the same object
    if not isinstance(labels, (list, tuple)):
        labels = list(labels)
    uniques = list(dict.fromkeys(labels))
    lookup = dict(zip(uniques, range(len(uniques))))
    return uniques, np.fromiter(map(lookup.__getitem__, labels),
                                dtype=np.intp, count=len(labels))


def _factorized(arrays: Iterable[Iterable[Any]]) -> tuple[list, list]:
    """The uniques of each array, and the codes of each array."""
    levels = [_codes_of(a) for a in arrays]
    return [u for u, _ in levels], [c for _, c in levels]


def _partition(uniques: list, codes: np.ndarray) -> LevelPartition:
    order = np.argsort(codes, kind="stable")
    starts = np.zeros(len(uniques) + 1, dtype=np.intp)
    np.cumsum(np.bincount(codes, minlength=len(uniques)), out=starts[1:])
    return LevelPartition(uniques, codes, order, starts,
                          dict(zip(uniques, range(len(uniques)))))


def factorize(labels: Iterable[Any]) -> LevelPartition:
    """Partition row positions by label (see :class:`LevelPartition`)."""
    return _partition(*_codes_of(labels))


def plain_values(values: np.ndarray) -> list:
    """A column's cells as plain Python keys: numpy scalars unwrapped,
    every NaN the one ``math.nan`` (so all NaN cells are one key)."""
    cells = values.tolist() if values.dtype.kind != "O" else [
        v.item() if isinstance(v, np.generic) else v for v in values]
    return [math.nan if isinstance(v, float) and v != v else v
            for v in cells]


# Row keys combine the level codes in mixed radix; before a level would
# push the running key past this span, the keys so far are renumbered
# densely, so no key overflows int64 whatever the number of levels.
_KEY_SPAN = 1 << 62


class _RowKeys(NamedTuple):
    """Row lookup of a :class:`MultiIndex`: one int key per distinct row."""

    lookups: list    # per level: label -> code
    squeezes: list   # per level: None, or the sorted keys renumbered before it
    keys: np.ndarray   # the distinct row keys, ascending
    first: np.ndarray  # position of the first row with each key


def _find(sorted_keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Position of each probe key in *sorted_keys*; -1 where absent."""
    pos = np.searchsorted(sorted_keys, probe)
    hit = pos < len(sorted_keys)
    hit[hit] = sorted_keys[pos[hit]] == probe[hit]
    return np.where(hit, pos, -1)


def _lookup(lookup: dict, labels: Iterable[Any], n: int) -> np.ndarray:
    """The code *lookup* gives each of the *n* labels; -1 where none."""
    return np.fromiter(map(lookup.get, labels, repeat(-1)), dtype=np.intp,
                       count=n)


def _recode(lookup: dict, uniques: list, codes: np.ndarray) -> np.ndarray:
    """*codes* into *uniques* as codes of *lookup*; -1 where it lacks
    the label."""
    return _lookup(lookup, uniques, len(uniques))[codes]


_ABSENT = object()  # a label no index holds


class Index:
    """An immutable ordered set of row labels.

    Parameters
    ----------
    values:
        Iterable of hashable labels.
    name:
        Optional name for the index (e.g. ``"profile"``).
    """

    __slots__ = ("_values", "name", "_loc_cache", "_partitions")

    def __init__(self, values: Iterable[Any], name: Hashable | None = None):
        if isinstance(values, Index):
            if name is None:
                name = values.name
            values = values.values
        self._values = _as_object_array(values)
        self.name = name
        self._loc_cache: _RowKeys | None = None
        self._partitions: dict[int, LevelPartition] = {}

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def _with_values(self, values: Iterable[Any]) -> "Index":
        """Construct a same-type index with new labels (metadata kept)."""
        return Index(values, name=self.name)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self._values[key]
        # slice / fancy / boolean indexing returns a new Index
        return self._with_values(self._values[key])

    def __eq__(self, other: object) -> bool:  # type: ignore[override]
        if not isinstance(other, Index):
            return NotImplemented
        if not self._same_kind(other):
            return Index(self) == Index(other)
        return len(self) == len(other) and all(
            (_recode(lookup, theirs, codes) == mine).all()
            for lookup, (theirs, codes), (_, mine) in zip(
                self._rows().lookups, other._levels(), self._levels()))

    def __hash__(self):  # Index is conceptually immutable but unhashable
        raise TypeError("Index objects are not hashable")

    def __repr__(self) -> str:
        labels = ", ".join(repr(v) for v in self._values[:8])
        if len(self) > 8:
            labels += ", ..."
        name = f", name={self.name!r}" if self.name is not None else ""
        return f"{type(self).__name__}([{labels}]{name})"

    # ------------------------------------------------------------------
    # levels, and lookup on their codes
    # ------------------------------------------------------------------
    def level_number(self, level: int | Hashable) -> int:
        if level in (0, self.name):
            return 0
        raise KeyError(f"level {level!r} not found")

    def _level(self, num: int) -> tuple[list, np.ndarray]:
        """A level's labels in first-seen order, and each row's code."""
        return _codes_of(self._values)

    def _same_kind(self, other: "Index") -> bool:
        """Whether *other*'s levels hold labels like this index's."""
        return (isinstance(other, MultiIndex) == isinstance(self, MultiIndex)
                and other.nlevels == self.nlevels)

    def _levels(self) -> list[tuple[list, np.ndarray]]:
        """``(uniques, codes)`` of every level."""
        part = self.partition(0)
        return [(part.uniques, part.codes)]

    def partition(self, level: int | Hashable = 0) -> LevelPartition:
        """The cached :class:`LevelPartition` of one level's labels.

        Computed on first use.  Threads racing on that first use may
        each compute it, but all of them get the one that was cached.
        """
        num = self.level_number(level)
        part = self._partitions.get(num)
        if part is None:
            part = self._partitions.setdefault(
                num, _partition(*self._level(num)))
        return part

    def _rows(self) -> _RowKeys:
        """The cached row keys (see :class:`_RowKeys`)."""
        rows = self._loc_cache
        if rows is None:
            levels = self._levels()
            key = np.zeros(len(self), dtype=np.int64)
            span, squeezes = 1, []
            for uniques, codes in levels:
                squeeze = None
                if span * len(uniques) > _KEY_SPAN:
                    squeeze, key = np.unique(key, return_inverse=True)
                    span = len(squeeze)
                squeezes.append(squeeze)
                key = key * len(uniques) + codes
                span *= len(uniques)
            keys, first = np.unique(key, return_index=True)
            rows = self._loc_cache = _RowKeys(
                [dict(zip(u, range(len(u)))) for u, _ in levels],
                squeezes, keys, first)
        return rows

    def get_indexer(self, labels: Iterable[Any]) -> np.ndarray:
        """Position of the first row with each of *labels*; -1 where no
        row has it."""
        rows = self._rows()
        if isinstance(labels, Index) and self._same_kind(labels):
            codes = [_recode(lookup, theirs, c) for lookup, (theirs, c)
                     in zip(rows.lookups, labels._levels())]
        else:
            labels = list(labels)
            codes = self._label_codes(labels, rows.lookups)
        key = np.zeros(len(labels), dtype=np.int64)
        for lookup, squeeze, code in zip(rows.lookups, rows.squeezes, codes):
            if squeeze is not None:
                key = _find(squeeze, key)
            key = np.where((key < 0) | (code < 0), -1,
                           key * len(lookup) + code)
        pos = _find(rows.keys, key)
        out = np.full(len(labels), -1, dtype=np.intp)
        hit = pos >= 0
        out[hit] = rows.first[pos[hit]]
        return out

    def _label_codes(self, labels: list, lookups: list) -> list[np.ndarray]:
        """Each level's code of each label; -1 where the level lacks it."""
        return [_lookup(lookups[0], labels, len(labels))]

    def get_loc(self, label: Any) -> int:
        """Position of *label*; raises ``KeyError`` if absent."""
        pos = int(self.get_indexer([label])[0])
        if pos < 0:
            raise KeyError(f"label {label!r} not found in index")
        return pos

    def __contains__(self, label: Any) -> bool:
        return bool(self.get_indexer([label])[0] >= 0)

    def map_labels(self, fn: Callable[[Any], Any],
                   level: int | Hashable = 0) -> list:
        """``fn(label)`` of each row's label of *level*, called once per
        distinct label."""
        part = self.partition(level)
        values = [fn(u) for u in part.uniques]
        return [values[c] for c in part.codes]

    def isin(self, labels: Iterable[Any]) -> np.ndarray:
        return Index(list(labels)).get_indexer(self) >= 0

    def duplicated(self) -> np.ndarray:
        """True at each row whose label an earlier row already has."""
        mask = np.ones(len(self), dtype=bool)
        mask[self._rows().first] = False
        return mask

    # ------------------------------------------------------------------
    # set-like operations (order-preserving)
    # ------------------------------------------------------------------
    def unique(self) -> "Index":
        return self.take(np.sort(self._rows().first))

    def intersection(self, other: "Index") -> "Index":
        mine = self.unique()
        return mine[other.get_indexer(mine) >= 0]

    def union(self, other: "Index") -> "Index":
        mine, theirs = self.unique(), other.unique()
        return mine._append(theirs[mine.get_indexer(theirs) < 0])

    def difference(self, other: "Index") -> "Index":
        mine = self.unique()
        return mine[other.get_indexer(mine) < 0]

    def _append(self, other: "Index") -> "Index":
        return self._with_values(np.concatenate([self._values, other.values]))

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def take(self, positions: Sequence[int]) -> "Index":
        return self._with_values(self._values[np.asarray(positions, dtype=np.intp)])

    def rename(self, name: Hashable) -> "Index":
        return Index(self._values, name=name)

    def tolist(self) -> list:
        return list(self.values)

    def has_duplicates(self) -> bool:
        return bool(self.duplicated().any())

    @property
    def nlevels(self) -> int:
        return 1

    def equals(self, other: "Index") -> bool:
        return self == other


class _TotalOrderKey:
    """Wrapper making heterogeneous values sortable deterministically."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_TotalOrderKey") -> bool:
        a, b = self.value, other.value
        try:
            return bool(a < b)
        except TypeError:
            return (type(a).__name__, str(a)) < (type(b).__name__, str(b))


def sort_positions(values: Sequence[Any], reverse: bool = False) -> list[int]:
    """Stable argsort tolerating heterogeneous (even uncomparable) labels."""
    return sorted(range(len(values)),
                  key=lambda i: _TotalOrderKey(values[i]),
                  reverse=reverse)


class MultiIndex(Index):
    """Hierarchical index of equal-length tuples, stored as level codes.

    Parameters
    ----------
    tuples:
        Iterable of tuples, one per row.
    names:
        Per-level names, e.g. ``("node", "profile")``.
    """

    __slots__ = ("names", "_uniques", "_codes")

    def __init__(self, tuples: Iterable[tuple], names: Sequence[Hashable] | None = None):
        tuples = list(tuples)
        widths = set(map(len, tuples))
        if len(widths) > 1:
            raise ValueError(
                f"MultiIndex tuples must share arity, got {sorted(widths)}")
        width = widths.pop() if widths else len(names or ())
        arrays = [list(map(itemgetter(i), tuples)) for i in range(width)]
        self._set(*_factorized(arrays), names)

    def _set(self, uniques: list, codes: list,
             names: Sequence[Hashable] | None) -> None:
        # a level's uniques are distinct, may hold labels no row uses,
        # and are shared between derived indexes, never mutated
        width = len(codes)
        if names is None:
            names = [None] * width
        if width and len(names) != width:
            raise ValueError(
                f"names length {len(names)} does not match tuple arity {width}"
            )
        self.names = list(names)
        self._uniques = uniques
        self._codes = codes
        self.name = None
        self._values = None
        self._loc_cache = None
        self._partitions = {}

    @classmethod
    def _from_codes(cls, uniques: list, codes: list,
                    names: Sequence[Hashable] | None) -> "MultiIndex":
        out = cls.__new__(cls)
        out._set(uniques, codes, names)
        return out

    @classmethod
    def from_product(cls, iterables: Sequence[Iterable[Any]],
                     names: Sequence[Hashable] | None = None) -> "MultiIndex":
        pools = [list(it) for it in iterables]
        tuples: list[tuple] = [()]
        for pool in pools:
            tuples = [t + (v,) for t in tuples for v in pool]
        return cls(tuples, names=names)

    @classmethod
    def from_arrays(cls, arrays: Sequence[Sequence[Any]],
                    names: Sequence[Hashable] | None = None) -> "MultiIndex":
        if arrays and len({len(a) for a in arrays}) > 1:
            raise ValueError("all arrays must be the same length")
        return cls._from_codes(*_factorized(arrays), names)

    @staticmethod
    def concat(indexes: Sequence["MultiIndex"]) -> "MultiIndex":
        """The rows of *indexes* one after another, names of the first.

        Each level's uniques are merged once; the codes are remapped
        and concatenated in numpy.
        """
        widths = {ix.nlevels for ix in indexes}
        if len(widths) > 1:
            raise ValueError(
                f"MultiIndex tuples must share arity, got {sorted(widths)}")
        uniques, codes = [], []
        for num in range(widths.pop()):
            lookup: dict[Any, int] = {}
            codes.append(np.concatenate([np.fromiter(
                (lookup.setdefault(u, len(lookup)) for u in ix._uniques[num]),
                dtype=np.intp, count=len(ix._uniques[num]))[ix._codes[num]]
                for ix in indexes]))
            uniques.append(list(lookup))
        return MultiIndex._from_codes(uniques, codes, indexes[0].names)

    # ------------------------------------------------------------------
    @property
    def nlevels(self) -> int:
        return len(self.names)

    @property
    def values(self) -> np.ndarray:
        """The row tuples, built on first read and cached."""
        if self._values is None:
            self._values = _as_object_array(zip(*(
                _as_object_array(u)[c]
                for u, c in zip(self._uniques, self._codes))))
        return self._values

    def __len__(self) -> int:
        return len(self._codes[0]) if self._codes else 0

    def _derive(self, codes: list) -> "MultiIndex":
        return MultiIndex._from_codes(self._uniques, codes, self.names)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return tuple(u[c[key]] for u, c in zip(self._uniques, self._codes))
        return self._derive([c[key] for c in self._codes])

    def take(self, positions: Sequence[int]) -> "MultiIndex":
        positions = np.asarray(positions, dtype=np.intp)
        return self._derive([c[positions] for c in self._codes])

    def level_number(self, level: int | Hashable) -> int:
        if isinstance(level, int):
            if not -self.nlevels <= level < self.nlevels:
                raise KeyError(f"level {level} out of range")
            return level % self.nlevels
        if level in self.names:
            return self.names.index(level)
        raise KeyError(f"level {level!r} not found in {self.names}")

    def _level(self, num: int) -> tuple[list, np.ndarray]:
        """The labels level *num*'s rows use, first-seen, and its codes."""
        uniques, codes = self._uniques[num], self._codes[num]
        used, first = np.unique(codes, return_index=True)
        seen = used[np.argsort(first)]
        remap = np.empty(len(uniques), dtype=np.intp)
        remap[seen] = np.arange(len(seen))
        return [uniques[c] for c in seen], remap[codes]

    def get_level_values(self, level: int | Hashable) -> Index:
        num = self.level_number(level)
        return Index(_as_object_array(self._uniques[num])[self._codes[num]],
                     name=self.names[num])

    def droplevel(self, level: int | Hashable) -> Index:
        num = self.level_number(level)
        if self.nlevels == 2:
            return self.get_level_values(1 - num)
        keep = [i for i in range(self.nlevels) if i != num]
        return MultiIndex._from_codes([self._uniques[i] for i in keep],
                                      [self._codes[i] for i in keep],
                                      [self.names[i] for i in keep])

    def rename(self, names: Sequence[Hashable]) -> "MultiIndex":  # type: ignore[override]
        return MultiIndex._from_codes(self._uniques, self._codes, list(names))

    def relabel(self, level: int | Hashable, mapping: Mapping) -> "MultiIndex":
        """This index with each label *x* of *level* replaced by
        ``mapping[x]``.

        Only the labels the rows use go through *mapping*, once each;
        the codes are kept, and labels mapped to one label merge into
        one code.
        """
        num = self.level_number(level)
        part = self.partition(num)
        new, remap = _codes_of(mapping[u] for u in part.uniques)
        uniques, codes = list(self._uniques), list(self._codes)
        uniques[num], codes[num] = new, remap[part.codes]
        return MultiIndex._from_codes(uniques, codes, self.names)

    def rank_order(self, *ranks: Mapping) -> np.ndarray:
        """Stable row order by level ranks, the first level first.

        ``ranks[i]`` maps a label of level ``i`` to an integer rank;
        labels it lacks rank after all that it has.  Equal ranks keep
        the row order.  One ``np.lexsort`` over the rank-mapped codes.
        """
        keys = [np.fromiter((rank.get(u, len(rank)) for u in uniques),
                            dtype=np.int64, count=len(uniques))[codes]
                for rank, uniques, codes in zip(ranks, self._uniques,
                                                self._codes)]
        return np.lexsort(keys[::-1])

    def unique_level(self, level: int | Hashable) -> list:
        return list(self.partition(level).uniques)

    def _levels(self) -> list[tuple[list, np.ndarray]]:
        return list(zip(self._uniques, self._codes))

    def _label_codes(self, labels: list, lookups: list) -> list[np.ndarray]:
        width = self.nlevels
        if not (set(map(type, labels)) <= {tuple}
                and set(map(len, labels)) <= {width}):
            absent = (_ABSENT,) * width
            labels = [t if isinstance(t, tuple) and len(t) == width
                      else absent for t in labels]
        return [_lookup(lookup, map(itemgetter(i), labels), len(labels))
                for i, lookup in enumerate(lookups)]

    def _append(self, other: Index) -> "MultiIndex":
        if not isinstance(other, MultiIndex):
            other = MultiIndex(list(other), names=self.names)
        return MultiIndex.concat([self, other])

    def __repr__(self) -> str:
        labels = ", ".join(repr(self[i]) for i in range(min(6, len(self))))
        if len(self) > 6:
            labels += ", ..."
        return f"MultiIndex([{labels}], names={self.names!r})"


class RangeIndex(Index):
    """Default positional index ``0..n-1``."""

    __slots__ = ()

    def __init__(self, n_or_values, name: Hashable | None = None):
        if isinstance(n_or_values, (int, np.integer)):
            values: Iterable[Any] = range(int(n_or_values))
        else:
            values = n_or_values
        super().__init__(values, name=name)


def ensure_index(obj, n: int | None = None) -> Index:
    """Coerce *obj* to an :class:`Index`.

    ``None`` becomes a :class:`RangeIndex` of length *n*.  Iterables of
    tuples become a :class:`MultiIndex`.
    """
    if obj is None:
        if n is None:
            raise ValueError("need a length to build a default index")
        return RangeIndex(n)
    if isinstance(obj, Index):
        return obj
    values = list(obj)
    if values and all(isinstance(v, tuple) for v in values):
        widths = {len(v) for v in values}
        if len(widths) == 1:
            return MultiIndex(values)
    return Index(values)
