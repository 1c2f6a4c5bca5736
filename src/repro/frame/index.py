"""Index objects for the frame substrate.

An :class:`Index` is an immutable, ordered collection of row (or column)
labels.  A :class:`MultiIndex` is an index whose labels are tuples,
giving hierarchical (multi-level) indexing — the backbone of Thicket's
*(call-tree node, profile)* row keys and *(source, metric)* column keys.

Labels are stored in a numpy object array so heterogeneous label types
(graph nodes, ints, strings) coexist without coercion.

Each level of an index can be factorized into a :class:`LevelPartition`
— the rows of every distinct label as one contiguous segment of a
stable ordering.  The partition is computed on first use and cached on
the index object; because an index never changes after construction,
the cache never goes stale, and a frame that gets a new index gets a
new (empty) cache with it.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = ["Index", "MultiIndex", "RangeIndex", "LevelPartition",
           "ensure_index", "factorize"]


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
        lookup = self.lookup
        return np.array([lookup.get(lbl, -1) for lbl in labels],
                        dtype=np.intp)

    def row_mask(self, keep: Iterable[Any]) -> np.ndarray:
        """Boolean row mask: True where the row's label is in *keep*."""
        keep_code = np.zeros(len(self.uniques), dtype=bool)
        codes = self.codes_of(keep)
        keep_code[codes[codes >= 0]] = True
        return keep_code[self.codes]


def factorize(labels: Iterable[Any]) -> LevelPartition:
    """Partition row positions by label (see :class:`LevelPartition`)."""
    lookup: dict[Any, int] = {}
    codes = np.fromiter((lookup.setdefault(v, len(lookup)) for v in labels),
                        dtype=np.intp)
    order = np.argsort(codes, kind="stable")
    starts = np.zeros(len(lookup) + 1, dtype=np.intp)
    np.cumsum(np.bincount(codes, minlength=len(lookup)), out=starts[1:])
    return LevelPartition(list(lookup), codes, order, starts, lookup)


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
            values = values._values
        self._values = _as_object_array(values)
        self.name = name
        self._loc_cache: dict[Any, int] | None = None
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
        return iter(self._values)

    def _with_values(self, values: Iterable[Any]) -> "Index":
        """Construct a same-type index with new labels (metadata kept)."""
        return Index(values, name=self.name)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self._values[key]
        # slice / fancy / boolean indexing returns a new Index
        return self._with_values(self._values[key])

    def __contains__(self, label: Any) -> bool:
        return label in self._build_loc()

    def __eq__(self, other: object) -> bool:  # type: ignore[override]
        if not isinstance(other, Index):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(a == b for a, b in zip(self._values, other._values))

    def __hash__(self):  # Index is conceptually immutable but unhashable
        raise TypeError("Index objects are not hashable")

    def __repr__(self) -> str:
        labels = ", ".join(repr(v) for v in self._values[:8])
        if len(self) > 8:
            labels += ", ..."
        name = f", name={self.name!r}" if self.name is not None else ""
        return f"{type(self).__name__}([{labels}]{name})"

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def _build_loc(self) -> dict[Any, int]:
        if self._loc_cache is None:
            self._loc_cache = {}
            for i, v in enumerate(self._values):
                # first occurrence wins for duplicate labels
                self._loc_cache.setdefault(v, i)
        return self._loc_cache

    def get_loc(self, label: Any) -> int:
        """Position of *label*; raises ``KeyError`` if absent."""
        try:
            return self._build_loc()[label]
        except KeyError:
            raise KeyError(f"label {label!r} not found in index") from None

    def get_indexer(self, labels: Iterable[Any]) -> np.ndarray:
        """Positions of *labels*; -1 for missing labels."""
        loc = self._build_loc()
        return np.array([loc.get(lbl, -1) for lbl in labels], dtype=np.intp)

    def level_number(self, level: int | Hashable) -> int:
        if level in (0, self.name):
            return 0
        raise KeyError(f"level {level!r} not found")

    def _level_labels(self, num: int) -> Iterable[Any]:
        return self._values

    def partition(self, level: int | Hashable = 0) -> LevelPartition:
        """The cached :class:`LevelPartition` of one level's labels.

        Computed on first use.  Threads racing on that first use may
        each compute it, but all of them get the one that was cached.
        """
        num = self.level_number(level)
        part = self._partitions.get(num)
        if part is None:
            part = self._partitions.setdefault(
                num, factorize(self._level_labels(num)))
        return part

    def isin(self, labels: Iterable[Any]) -> np.ndarray:
        wanted = set(labels)
        return np.fromiter(
            (v in wanted for v in self._values), dtype=bool, count=len(self)
        )

    # ------------------------------------------------------------------
    # set-like operations (order-preserving)
    # ------------------------------------------------------------------
    def unique(self) -> "Index":
        seen: dict[Any, None] = {}
        for v in self._values:
            seen.setdefault(v, None)
        return self._with_values(seen.keys())

    def intersection(self, other: "Index") -> "Index":
        other_set = set(other._values)
        return self._with_values([v for v in self.unique() if v in other_set])

    def union(self, other: "Index") -> "Index":
        seen: dict[Any, None] = {}
        for v in self._values:
            seen.setdefault(v, None)
        for v in other._values:
            seen.setdefault(v, None)
        return self._with_values(seen.keys())

    def difference(self, other: "Index") -> "Index":
        other_set = set(other._values)
        return self._with_values([v for v in self.unique() if v not in other_set])

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def take(self, positions: Sequence[int]) -> "Index":
        return self._with_values(self._values[np.asarray(positions, dtype=np.intp)])

    def rename(self, name: Hashable) -> "Index":
        return Index(self._values, name=name)

    def tolist(self) -> list:
        return list(self._values)

    def has_duplicates(self) -> bool:
        return len(self._build_loc()) != len(self)

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
    """Hierarchical index of equal-length tuples.

    Parameters
    ----------
    tuples:
        Iterable of tuples, one per row.
    names:
        Per-level names, e.g. ``("node", "profile")``.
    """

    __slots__ = ("names",)

    def __init__(self, tuples: Iterable[tuple], names: Sequence[Hashable] | None = None):
        tuples = [tuple(t) for t in tuples]
        if tuples:
            width = len(tuples[0])
            for t in tuples:
                if len(t) != width:
                    raise ValueError(
                        f"MultiIndex tuples must share arity: {width} != {len(t)}"
                    )
        else:
            width = len(names) if names else 0
        super().__init__(tuples, name=None)
        if names is None:
            names = [None] * width
        if width and len(names) != width:
            raise ValueError(
                f"names length {len(names)} does not match tuple arity {width}"
            )
        self.names = list(names)

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
        return cls(list(zip(*arrays)), names=names)

    # ------------------------------------------------------------------
    @property
    def nlevels(self) -> int:
        return len(self.names)

    def _with_values(self, values):
        return MultiIndex(values, names=self.names)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self._values[key]
        return MultiIndex(self._values[key], names=self.names)

    def take(self, positions: Sequence[int]) -> "MultiIndex":
        return MultiIndex(
            self._values[np.asarray(positions, dtype=np.intp)], names=self.names
        )

    def level_number(self, level: int | Hashable) -> int:
        if isinstance(level, int):
            if not -self.nlevels <= level < self.nlevels:
                raise KeyError(f"level {level} out of range")
            return level % self.nlevels
        if level in self.names:
            return self.names.index(level)
        raise KeyError(f"level {level!r} not found in {self.names}")

    def _level_labels(self, num: int) -> Iterable[Any]:
        return (t[num] for t in self._values)

    def get_level_values(self, level: int | Hashable) -> Index:
        num = self.level_number(level)
        return Index([t[num] for t in self._values], name=self.names[num])

    def droplevel(self, level: int | Hashable) -> Index:
        num = self.level_number(level)
        if self.nlevels == 2:
            keep = 1 - num
            return Index([t[keep] for t in self._values],
                         name=self.names[keep])
        names = [n for i, n in enumerate(self.names) if i != num]
        return MultiIndex(
            [tuple(v for i, v in enumerate(t) if i != num) for t in self._values],
            names=names,
        )

    def rename(self, names: Sequence[Hashable]) -> "MultiIndex":  # type: ignore[override]
        return MultiIndex(self._values, names=list(names))

    def unique_level(self, level: int | Hashable) -> list:
        return list(self.partition(level).uniques)

    def __repr__(self) -> str:
        labels = ", ".join(repr(v) for v in self._values[:6])
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
