"""Multidimensional cube over the fact table, with roll-up, drill-down,
slice, dice, and general aggregate queries.

A cube stores its non-empty cells in coordinate form: `codes` holds one
contiguous int64 array per axis, each entry the position in the axis's
sorted `members` of the dimension row a fact id names (row id - 1), and
`measures` holds the total, seekers and directed counts in a (3, cells)
int64 array. An absent cell is zero. The label-keyed `cells` dict is a
derived, cached view for callers that want labels; no operation reads it.

Every operation is a numpy pass over those arrays through two axis
functions: `_to_level` lifts an axis through the parent map it carries
(`CubeAxis.parent`), and `_selected` turns a member set into a per-member
mask. Roll-up, drill-down and aggregate regroup cells through `_cuboid`
(a drill-down reads the base cube's), and dice selects; a slice is a
one-member dice with the axis dropped. Grouping goes through
`warehouse.group_rows`, the kernel that also groups records into facts, so
memory follows the cell count, never the product of the axis sizes.

Each cube memoises the cuboids built from it, keyed by their (dimension,
level) pairs in axis order, so a warm aggregate reads only the few cells of
the cuboid over the axes it touches. An axis is absent or at one of at most
two levels, so one cube holds at most 3 * 3 * 2**4 = 144 cuboids and the
memo needs no eviction. Cube objects are immutable: every operation returns
a new or memoised cube and never mutates its input, and the memo only gains
equal values, so cubes are safe to share between readers.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress, islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BadLevel,
    BadQuery,
    EmptyMemberSet,
    UnknownMember,
    UnresolvedDimensionValue,
)
from .records import DIMENSIONS
from .warehouse import KEYS, StarSchema, group_rows

MEASURES = ("total", "seekers", "directed")
_LISTED = 10                # unknown members an UnknownMember error names

# Hierarchy levels per dimension, base level first. Flat dimensions have a
# single level named after the dimension itself. A hierarchy has at most two
# levels: an axis's parent map reaches the one level above its own.
LEVELS: dict[str, tuple[str, ...]] = {
    "time": ("quarter", "year"),
    "congress": ("congress", "city"),
}


def level_path(dimension: str) -> tuple[str, ...]:
    return LEVELS.get(dimension, (dimension,))


def base_level(dimension: str) -> str:
    return level_path(dimension)[0]


def result_columns(group_by: Iterable[tuple[str, str]], measure: str) -> tuple[str, ...]:
    """Each grouped dimension, as dim_level off its base level, then the measure."""
    return tuple(dimension if level == base_level(dimension) else f"{dimension}_{level}"
                 for dimension, level in group_by) + (measure,)


@dataclass(frozen=True)
class CubeAxis:
    dimension: str
    level: str
    members: tuple[str, ...]    # distinct, sorted
    # member -> parent one level up; None once no level is above
    parent: Mapping[str, str] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class AggregateQuery:
    """measure: one of total/seekers/directed.

    group_by entries: "dim" (base level) or (dim, level).
    filters: (dim, members) at the axis's current level, or (dim, level, members).
    """

    measure: str = "total"
    group_by: tuple = ()
    filters: tuple = ()


@dataclass(frozen=True)
class YearSpan:
    """The time:year members lo..hi as text, never listed: membership and size
    are arithmetic, so a wide span costs nothing until it meets an axis."""

    lo: int
    hi: int

    size = property(lambda self: max(0, self.hi - self.lo + 1))   # len() stops at sys.maxsize

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return map(str, range(self.lo, self.hi + 1))

    def __contains__(self, member: str) -> bool:
        try:
            return self.lo <= int(member) <= self.hi and str(int(member)) == member
        except ValueError:
            return False


@dataclass(frozen=True)
class ResultTable:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]     # (*group labels, measure value)


@dataclass(frozen=True, eq=False)
class Cube:
    axes: tuple[CubeAxis, ...]
    codes: np.ndarray           # (axes, cells) int64 member positions
    measures: np.ndarray        # (3, cells) int64 total, seekers, directed
    _cuboids: dict = field(default_factory=dict, init=False, repr=False)  # see _cuboid

    def __post_init__(self) -> None:
        # cubes are shared between readers and cache their cells view
        self.codes.flags.writeable = False
        self.measures.flags.writeable = False

    def axis_index(self, dimension: str) -> int:
        for i, ax in enumerate(self.axes):
            if ax.dimension == dimension:
                return i
        raise BadQuery(f"no axis for dimension {dimension!r}")

    def axis(self, dimension: str) -> CubeAxis:
        return self.axes[self.axis_index(dimension)]

    def mass(self) -> tuple[int, int, int]:
        return tuple(int(v) for v in self.measures.sum(axis=1))

    @cached_property
    def cells(self) -> dict[tuple[str, ...], tuple[int, int, int]]:
        """Label coordinates -> (total, seekers, directed), built on first use."""
        labels = [np.array(ax.members, dtype=object)[col].tolist()
                  for ax, col in zip(self.axes, self.codes)]
        coords = zip(*labels) if labels else [()] * self.measures.shape[1]
        return dict(zip(coords, map(tuple, self.measures.T.tolist())))


def build_cube(schema: StarSchema) -> Cube:
    """Base-grain cube: Time at quarter level, Address at congress level."""
    table = schema.facts.T
    axes = []
    codes = np.empty((len(DIMENSIONS), table.shape[1]), dtype=np.int64)
    for a, dim in enumerate(DIMENSIONS):
        rows = schema.dimensions[dim].rows
        members = tuple(sorted(r.natural_key for r in rows))
        path = level_path(dim)
        # a dimension row carries its parent as the attribute named after that level
        parent = {r.natural_key: r.attributes[path[1]] for r in rows} if path[1:] else None
        axes.append(CubeAxis(dim, path[0], members, parent))
        # each row's member position, read at its id - 1
        position = np.array([bisect_left(members, r.natural_key) for r in rows], dtype=np.int64)
        ids = table[a]
        if ids.size and (ids.min() < 1 or ids.max() > len(rows)):
            raise UnresolvedDimensionValue(f"fact table: dangling {dim} id")
        codes[a] = position[ids - 1]
    measures = np.ascontiguousarray(table[KEYS:])
    return Cube(tuple(axes), codes, measures)


# ---------------------------------------------------------------------------
# Axis functions


def _level_distance(dimension: str, from_level: str, to_level: str) -> int:
    path = level_path(dimension)
    if from_level not in path or to_level not in path:
        raise BadLevel(f"{dimension}: levels are {path}, got {from_level!r} -> {to_level!r}")
    return path.index(to_level) - path.index(from_level)


def _to_level(cube: Cube, idx: int, level: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The axis's sorted distinct members at `level`, and each current
    member's position among them (the identity at the axis's own level)."""
    ax = cube.axes[idx]
    steps = _level_distance(ax.dimension, ax.level, level)
    if steps == 0:
        return ax.members, np.arange(len(ax.members), dtype=np.int64)
    if steps < 0:
        raise BadLevel(f"{ax.dimension}: {level!r} is below the cube grain {ax.level!r}")
    if ax.parent is None:
        raise BadLevel(f"{ax.dimension}: cannot reach level {level!r} from {ax.level!r}")
    labels = [ax.parent[m] for m in ax.members]
    members = tuple(sorted(set(labels)))
    position = {m: i for i, m in enumerate(members)}
    return members, np.array([position[lab] for lab in labels], dtype=np.int64)


def _selected(members: Sequence[str], wanted: frozenset[str] | YearSpan,
              where: str) -> np.ndarray:
    """Per-member mask of `wanted`, which must be a non-empty subset of members.
    The error names at most _LISTED of the others, and then how many there are."""
    if not (size := wanted.size if isinstance(wanted, YearSpan) else len(wanted)):
        raise EmptyMemberSet(f"{where}: empty member set")
    mask = np.fromiter((m in wanted for m in members), dtype=bool, count=len(members))
    if missing := size - int(np.count_nonzero(mask)):     # size may pass int64
        ordered = wanted if isinstance(wanted, YearSpan) else sorted(wanted)
        listed = list(islice((m for m in ordered if m not in members), _LISTED))
        raise UnknownMember(f"{where}: no members {listed}"
                            + (f" ({missing} in all)" if missing > _LISTED else ""))
    return mask


# ---------------------------------------------------------------------------
# Cube algebra


def _cuboid(cube: Cube, pairs: tuple[tuple[str, str], ...]) -> Cube:
    """The cube grouped onto `pairs`, (dimension, level) in axis order; a lifted
    axis is at the top of its hierarchy, so it takes no parent map along."""
    if pairs not in cube._cuboids:
        axes, columns = [], []
        for dimension, level in pairs:
            idx = cube.axis_index(dimension)
            members, up = _to_level(cube, idx, level)
            ax = cube.axes[idx]
            axes.append(ax if level == ax.level else CubeAxis(dimension, level, members))
            columns.append(up[cube.codes[idx]])
        key_columns, sums = group_rows(columns, [len(a.members) for a in axes], cube.measures)
        cube._cuboids[pairs] = Cube(tuple(axes), np.array(key_columns), np.array(sums))
    return cube._cuboids[pairs]


def rollup(cube: Cube, dimension: str, to_level: str) -> Cube:
    """Regroup one axis at a coarser level; measure mass is conserved. The
    result is memoised: repeating a roll-up on one cube returns the same cube."""
    ax = cube.axis(dimension)
    if _level_distance(dimension, ax.level, to_level) < 1:
        raise BadLevel(f"{dimension}: {to_level!r} is not above {ax.level!r}")
    return _cuboid(cube, tuple((a.dimension, to_level if a is ax else a.level)
                               for a in cube.axes))


def drilldown(cube: Cube, base: Cube, dimension: str, to_level: str) -> Cube:
    """`cube` with one axis back at a finer level: the cuboid of `base` at
    `cube`'s levels, `dimension` at `to_level`, read from base's memo.

    `cube` must be a roll-up of `base` on any number of axes: base's axes,
    each holding base's members lifted to its level, and base's mass. A slice
    or a dice is not, and raises BadQuery naming the axis; a cuboid of base over
    all its axes, found in base's memo, is one without that proof.
    drilldown(rollup(c, d, L), c, d, base_level) is c.
    """
    current = cube.axis(dimension).level
    base_lvl = base.axis(dimension).level
    if _level_distance(dimension, to_level, current) < 1:
        raise BadLevel(f"{dimension}: {to_level!r} is not below {current!r}")
    if _level_distance(dimension, base_lvl, to_level) < 0:
        raise BadLevel(f"{dimension}: {to_level!r} is below the base grain {base_lvl!r}")
    own = tuple((ax.dimension, ax.level) for ax in cube.axes)
    if base._cuboids.get(own) is not cube or len(own) != len(base.axes):
        axes = {ax.dimension: ax for ax in cube.axes}
        for idx, b in enumerate(base.axes):
            ax = axes.get(b.dimension)
            if ax is None or _to_level(base, idx, ax.level)[0] != ax.members:
                raise BadQuery(f"{b.dimension}: {'sliced away' if ax is None else 'diced'}, "
                               "so the cube is not a roll-up of the base cube")
        if cube.mass() != base.mass():      # a dice that a later roll-up hid
            lifted = [b.dimension for b in base.axes if axes[b.dimension].level != b.level]
            raise BadQuery(f"{', '.join(lifted)}: diced below the cube's level, "
                           "so the cube is not a roll-up of the base cube")
    pairs = tuple((ax.dimension, to_level if ax.dimension == dimension else ax.level)
                  for ax in cube.axes)
    return base if pairs == tuple((b.dimension, b.level) for b in base.axes) else _cuboid(base, pairs)


def slice_cube(cube: Cube, dimension: str, member: str) -> Cube:
    """Fix one dimension to a single member and drop that axis: a one-member dice."""
    diced = dice(cube, [(dimension, (member,))])
    idx = cube.axis_index(dimension)
    return Cube(diced.axes[:idx] + diced.axes[idx + 1:], np.delete(diced.codes, idx, axis=0),
                diced.measures)


def dice(cube: Cube, filters: Iterable[tuple[str, Iterable[str]]]) -> Cube:
    """Restrict axes to member sets; the axes all survive."""
    masks: dict[int, np.ndarray] = {}
    for dimension, members in filters:
        idx = cube.axis_index(dimension)
        mask = _selected(cube.axes[idx].members, frozenset(members), dimension)
        if idx in masks:
            mask &= masks[idx]
            if not mask.any():
                raise EmptyMemberSet(f"{dimension}: filters intersect to nothing")
        masks[idx] = mask

    keep = np.ones(cube.codes.shape[1], dtype=bool)
    for idx, mask in masks.items():
        keep &= mask[cube.codes[idx]]
    # np.compress takes the kept columns several times faster than cube.codes[:, keep]
    axes, codes = list(cube.axes), np.compress(keep, cube.codes, axis=1)
    for idx, mask in masks.items():
        codes[idx] = (np.cumsum(mask) - 1)[codes[idx]]    # position among the kept
        axes[idx] = replace(axes[idx], members=tuple(compress(axes[idx].members, mask)))
    return Cube(tuple(axes), codes, np.compress(keep, cube.measures, axis=1))


# ---------------------------------------------------------------------------
# Aggregate queries


def normalize_query(query: AggregateQuery, levels: Mapping[str, str],
                    ) -> tuple[list[tuple[str, str]], list[tuple[str, str, frozenset[str]]]]:
    """Validate a query and spell out every level.

    levels maps each queryable dimension to its current level, which an entry
    without a level gets. Returns (group_by [(dim, level)], filters
    [(dim, level, members)]).
    """
    if query.measure not in MEASURES:
        raise BadQuery(f"unknown measure {query.measure!r}")

    def resolve(dimension: str, level: str | None) -> tuple[str, str]:
        if dimension not in levels:
            raise BadQuery(f"no axis for dimension {dimension!r}")
        if level is not None and level not in level_path(dimension):
            raise BadLevel(f"{dimension}: unknown level {level!r}")
        return dimension, level or levels[dimension]

    group_by = [resolve(*((entry, None) if isinstance(entry, str) else entry))
                for entry in query.group_by]
    if len({d for d, _ in group_by}) != len(group_by):
        raise BadQuery("duplicate group-by dimension")
    filters = []
    for entry in query.filters:
        dimension, level, members = (entry[0], None, entry[1]) if len(entry) == 2 else entry
        members = members if isinstance(members, YearSpan) else frozenset(members)
        filters.append((*resolve(dimension, level), members))
    return group_by, filters


def aggregate(cube: Cube, query: AggregateQuery) -> ResultTable:
    """Filter, group, and sum one measure.

    Row order is sorted by group labels. With an empty group_by the result is
    a single grand-total row (zero when nothing matches). It is answered from
    the memoised cuboid over only the dimensions the query groups or filters on.
    """
    group_by, filters = normalize_query(
        query, {ax.dimension: ax.level for ax in cube.axes})
    # finest level last, so it wins where a dimension is grouped and filtered
    finest = dict(sorted((entry[:2] for entry in group_by + filters),
                         key=lambda pair: -level_path(pair[0]).index(pair[1])))
    if finest:
        cube = _cuboid(cube, tuple((ax.dimension, finest[ax.dimension])
                                   for ax in cube.axes if ax.dimension in finest))

    keep = np.ones(cube.codes.shape[1], dtype=bool)
    for dimension, level, members in filters:
        idx = cube.axis_index(dimension)
        labels, up = _to_level(cube, idx, level)
        keep &= _selected(labels, members, f"{dimension}@{level}")[up][cube.codes[idx]]
    values = cube.measures[MEASURES.index(query.measure)]
    if filters:
        values = values[keep]

    columns = result_columns(group_by, query.measure)
    if not group_by:
        return ResultTable(columns, ((int(values.sum()),),))

    key_columns, group_labels = [], []
    for dimension, level in group_by:
        idx = cube.axis_index(dimension)
        labels, up = _to_level(cube, idx, level)
        codes = cube.codes[idx][keep] if filters else cube.codes[idx]
        key_columns.append(up[codes])
        group_labels.append(labels)
    groups, (sums,) = group_rows(key_columns, [len(g) for g in group_labels], [values])
    label_columns = [[labels[i] for i in col.tolist()]
                     for labels, col in zip(group_labels, groups)]
    return ResultTable(columns, tuple(zip(*label_columns, sums.tolist())))
