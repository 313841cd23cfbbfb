"""Cells, regions, and exact arm/leg statistics for skew diagrams.

Rows are indexed from the bottom starting at 1 and columns from the left
starting at 1, so the cell (i, j) sits in row i, column j. All statistics
are exact integers. Multisets are ``collections.Counter`` maps, keyed by
(arm, leg) pairs or by hook lengths; inside a rising shape an (arm, leg)
multiset can also be kept as a run map (``_rising_runs``).
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from typing import Iterable, Iterator, Mapping

from . import _EXPORTS
from .errors import (
    CellNotInSet,
    CounterexampleFound,
    EmptyField,
    EmptySet,
    IndexOutOfRange,
    NotASubset,
    NotAnInteger,
    NotContiguous,
    NotRising,
    NotWeaklyDecreasing,
    PartExceedsN,
    UnknownChoice,
    WrongLength,
)

__all__ = _EXPORTS["diagrams"]

Cell = tuple[int, int]

# {(r, c): (arm, leg)} over the cells of a region, in row-major order
StatTable = dict[Cell, tuple[int, int]]

# {(leg, arm): step}: an (arm, leg) multiset as runs of consecutive arms
# (``_rising_runs``)
RunMap = dict[tuple[int, int], int]

REGION_KINDS = ("D", "R", "T", "V", "SQ", "Tstar", "R1", "R2", "T1star", "T2star")

# each identity: its statistic, its source region and its target regions
_IDENTITIES = {
    1: ("hook", "SQ", ("R", "D")),
    2: ("al", "SQ", ("R", "D")),
    3: ("al", "T", ("Tstar",)),
}


class _Checked:
    """Base of a record whose ``__new__`` checks its fields: ``_make``, and
    so ``_replace``, build through ``__new__`` too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Partition(_Checked, namedtuple("Partition", "parts k n")):
    """Weakly decreasing integer parts, exactly ``k`` of them, each at most ``n``.

    Trailing zero parts are kept, so the length is always ``k``.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int], k: int, n: int) -> "Partition":
        parts = tuple(parts)
        for a in parts:
            _require_int(a, "part")
        _require_int(k, "bound k", 1)
        _require_int(n, "bound n", 1)
        if len(parts) != k:
            raise WrongLength(f"need exactly {k} parts, got {len(parts)}")
        if any(a < b for a, b in zip(parts, parts[1:])) or parts[-1] < 0:
            raise NotWeaklyDecreasing(f"parts must weakly decrease to 0 or more: {parts}")
        if parts[0] > n:
            raise PartExceedsN(f"part {parts[0]} exceeds bound n={n}")
        return super().__new__(cls, parts, k, n)

    @classmethod
    def from_text(cls, text: str, k: int, n: int) -> "Partition":
        """Parse comma-separated parts, padding omitted trailing zeros to length k.

        A blank text means all parts are zero; an empty field such as the
        middle one of ``"3,,1"`` is an error, and so is a field that
        ``_decimal`` rejects.
        """
        items = [piece.strip() for piece in text.split(",")] if text.strip() else []
        if "" in items:
            raise EmptyField(f"empty field in parts {text!r}")
        parts = tuple(_decimal(s, "part") for s in items)
        _require_int(k, "bound k", 1)
        if len(parts) > k:
            raise WrongLength(f"got {len(parts)} parts for k={k}")
        return cls(parts + (0,) * (k - len(parts)), k, n)

    def part(self, j: int) -> int:
        """1-indexed part access."""
        return self.parts[j - 1]

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.parts) + ")"


def _decimal(text: str, what: str = "value") -> int:
    """The one way outside text becomes an int: after stripping, an optional
    ``-`` and ASCII digits.  ``int()`` would also take ``+3``, ``1_0`` and
    non-ASCII digits such as ``١``; here they raise NotAnInteger."""
    digits = text.strip()
    if not re.fullmatch(r"-?[0-9]+", digits):
        raise NotAnInteger(f"{what} {text!r} is not a decimal integer")
    return int(digits)


def _require_int(value, what: str, low: int | None = None) -> int:
    """The one check of an integer input: an ``int`` that is not a ``bool``
    (else NotAnInteger) and, when ``low`` is given, at least ``low`` (else
    IndexOutOfRange).  Returns the value."""
    if type(value) is not int:
        raise NotAnInteger(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise IndexOutOfRange(f"{what} must be at least {low}, got {value}")
    return value


def _require_cut(p: Partition, i: int) -> None:
    if not 1 <= _require_int(i, "cut parameter i") <= p.n:
        raise IndexOutOfRange(f"cut parameter i={i} not in 1..{p.n}")


def _case(p: Partition, theorem: int | str, extra: dict | None = None) -> dict:
    """The keys that name one checked case: alpha, k, n, the identity, and
    any ``extra`` keys."""
    return {"alpha": list(p.parts), "k": p.k, "n": p.n, "theorem": theorem, **(extra or {})}


def _repro(case: dict) -> str:
    """The ``hookpair verify`` command line that rechecks a case named by
    ``_case``; a sweep's ``projective`` case is checked by ``--theorem proj``."""
    alpha = ",".join(str(a) for a in case["alpha"])
    theorem = "proj" if case["theorem"] == "projective" else case["theorem"]
    return f"hookpair verify --k {case['k']} --n {case['n']} --alpha {alpha} --theorem {theorem}"


def _counterexample(
    message: str, p: Partition, theorem: int | str, detail, extra: dict | None = None
) -> CounterexampleFound:
    """The error that reports a failed identity on p: its case is ``_case``
    plus the ``hookpair verify`` command line that rechecks it."""
    case = _case(p, theorem, extra)
    return CounterexampleFound(message, case={**case, "repro": _repro(case)}, detail=detail)


def conjugate(p: Partition) -> Partition:
    """Transpose of the partition: part j of the result counts parts of p that are >= j.

    The result has length p.n and bound p.k.
    """
    counts = tuple(sum(1 for a in p.parts if a >= j) for j in range(1, p.n + 1))
    return Partition(counts, p.n, p.k)


class CellSet:
    """Immutable finite set of lattice cells with O(log) arm/leg queries.

    Arbitrary cell sets are allowed; skew-shape validity is a property one
    can query, not a construction requirement.
    """

    __slots__ = ("_cells", "_rows", "_cols")

    def __init__(self, cells: Iterable[Cell] = ()):
        # checked before hashing, where True and 1.0 would merge with 1
        pairs = [(_require_int(r, "row", 1), _require_int(c, "column", 1)) for r, c in cells]
        frozen = frozenset(pairs)
        rows: dict[int, list[int]] = {}
        cols: dict[int, list[int]] = {}
        for r, c in sorted(frozen):
            rows.setdefault(r, []).append(c)
            cols.setdefault(c, []).append(r)
        self._cells = frozen
        self._rows = rows
        self._cols = cols

    @classmethod
    def from_row_intervals(cls, intervals: Mapping[int, tuple[int, int]]) -> "CellSet":
        """Build from {row: (col_min, col_max)}; rows with col_min > col_max are skipped."""
        cells = []
        for r, (lo, hi) in intervals.items():
            lo, hi = _require_int(lo, "column bound"), _require_int(hi, "column bound")
            cells.extend((r, c) for c in range(lo, hi + 1))
        return cls(cells)

    @property
    def cells(self) -> frozenset[Cell]:
        return self._cells

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(sorted(self._cells))

    def __len__(self) -> int:
        return len(self._cells)

    def __eq__(self, other) -> bool:
        if isinstance(other, CellSet):
            return self._cells == other._cells
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._cells)

    def __repr__(self) -> str:
        return f"CellSet({sorted(self._cells)!r})"

    def occupied_rows(self) -> list[int]:
        return sorted(self._rows)

    def row_cols(self, r: int) -> list[int]:
        """Sorted columns occupied in row r (empty list if none)."""
        return list(self._rows.get(r, ()))

    def col_rows(self, c: int) -> list[int]:
        """Sorted rows occupied in column c (empty list if none)."""
        return list(self._cols.get(c, ()))

    def _require(self, cell: Cell) -> None:
        if cell not in self._cells:
            raise CellNotInSet(f"cell {cell} not in the set")
        for value, what in zip(cell, ("row", "column")):  # True and 1.0 hash like 1
            _require_int(value, what)

    def arm(self, cell: Cell) -> int:
        """Number of cells strictly to the right of ``cell`` in its row."""
        self._require(cell)
        cols = self._rows[cell[0]]
        return len(cols) - bisect_right(cols, cell[1])

    def leg(self, cell: Cell) -> int:
        """Number of cells strictly below ``cell`` in its column."""
        self._require(cell)
        rows = self._cols[cell[1]]
        return bisect_left(rows, cell[0])

    def coleg(self, cell: Cell) -> int:
        """Number of cells strictly above ``cell`` in its column."""
        self._require(cell)
        rows = self._cols[cell[1]]
        return len(rows) - bisect_right(rows, cell[0])

    def hook(self, cell: Cell) -> int:
        return self.arm(cell) + self.leg(cell) + 1

    def is_skew_valid(self) -> bool:
        """True when every occupied row is contiguous and both edges rise with the row."""
        try:
            _check_rising([(lo, hi) for _, lo, hi in self.row_intervals()])
        except (NotContiguous, NotRising):
            return False
        return True

    def bounds(self) -> tuple[int, int, int, int]:
        """(min_row, max_row, min_col, max_col) of the occupied cells; EmptySet
        when there are none."""
        if not self._cells:
            raise EmptySet("operation needs a non-empty cell set")
        rs = [r for r, _ in self._cells]
        cs = [c for _, c in self._cells]
        return min(rs), max(rs), min(cs), max(cs)

    def translate(self, dr: int, dc: int) -> "CellSet":
        return CellSet((r + dr, c + dc) for r, c in self._cells)

    def normalize(self) -> "CellSet":
        """Translate so the minimum occupied row and column are both 1."""
        rmin, _, cmin, _ = self.bounds()
        return self.translate(1 - rmin, 1 - cmin)

    def rotate180(self) -> "CellSet":
        """Rotate half a turn inside the bounding box, then normalize."""
        _, rmax, _, cmax = self.bounds()
        return CellSet((rmax + 1 - r, cmax + 1 - c) for r, c in self._cells)

    def reflect_vertical(self) -> "CellSet":
        """Mirror left-to-right inside the bounding box, then normalize."""
        rmin, _, _, cmax = self.bounds()
        return CellSet((r - rmin + 1, cmax + 1 - c) for r, c in self._cells)

    def row_intervals(self) -> list[tuple[int, int, int]]:
        """(row, col_min, col_max) per occupied row, ascending; rows must be contiguous."""
        out = []
        for r in self.occupied_rows():
            cols = self._rows[r]
            if cols[-1] - cols[0] + 1 != len(cols):
                raise NotContiguous(f"row {r} is not contiguous")
            out.append((r, cols[0], cols[-1]))
        return out


def _region_rows(p: Partition, kind: str) -> list[tuple[int, int]]:
    """Column interval (lo, hi) of each row of a named region, bottom row first.

    Entry r-1 is row r; an empty row has lo > hi.  ``build_region`` lists the
    kinds and their rows.
    """
    if kind not in REGION_KINDS:
        raise UnknownChoice(f"unknown region kind {kind!r}")
    a = p.parts
    k, n = p.k, p.n
    a1, ak = a[0], a[-1]
    if kind == "D":
        return [(1, a[k - i]) for i in range(1, k + 1)]
    if kind == "R":
        return [(1, n)] * k
    if kind == "R1":
        return [(n - a[k - i] + 1, n) for i in range(1, k + 1)]
    if kind == "R2":
        return [(1, n - a[k - i]) for i in range(1, k + 1)]
    strip = [(a1 - a[i - 1] + 1, n + a1 - a[i - 1]) for i in range(1, k + 1)]
    if kind == "T":
        return strip
    if kind in ("SQ", "V"):
        below = strip if kind == "SQ" else [(1, 0)] * k
        return below + [(n + a1 - a[m - 1] + 1, n + a1) for m in range(1, k + 1)]
    star = _rotated_rows(strip)
    if kind == "Tstar":
        return star
    # T1star and T2star split Tstar at column n - a_k
    if kind == "T1star":
        return [(lo, min(hi, n - ak)) for lo, hi in star]
    return [(max(lo, n - ak + 1), hi) for lo, hi in star]  # T2star


def build_region(p: Partition, kind: str) -> CellSet:
    """Construct one of the named regions determined by the partition.

    Kinds and their rows (row index i counted from the bottom):

    - ``D``      row i spans columns 1 .. parts[k-i+1]
    - ``R``      the full k x n rectangle
    - ``T``      row i spans parts[1]-parts[i]+1 .. n+parts[1]-parts[i]
    - ``V``      rows k+1..2k, right-justified at column n+parts[1]
    - ``SQ``     union of T and V
    - ``Tstar``  half-turn rotation of T, rows parts[k-i+1]-parts[k]+1 .. n+parts[k-i+1]-parts[k]
    - ``R1``     right part of R, row i holds the last parts[k-i+1] columns
    - ``R2``     complementary left part of R
    - ``T1star`` columns of Tstar up to n-parts[k], per row
    - ``T2star`` columns of Tstar beyond n-parts[k], per row
    """
    return CellSet.from_row_intervals(dict(enumerate(_region_rows(p, kind), 1)))


def _check_rising(rows: list[tuple[int, int]]) -> list[int]:
    """The hi of every non-empty row, bottom row first, after checking that
    the shape given by its rows' (lo, hi) rises: lo and hi never decrease
    over the non-empty rows.  Raises NotRising otherwise.  So the returned
    row ends are sorted, and every non-empty row below a cell starts at or
    left of it."""
    his: list[int] = []
    prev_lo = prev_hi = None
    for r, (lo, hi) in enumerate(rows, 1):
        if lo > hi:
            continue
        if prev_lo is not None and (lo < prev_lo or hi < prev_hi):
            raise NotRising(
                f"row {r} spans {lo}..{hi}, below it a row spans {prev_lo}..{prev_hi}"
            )
        his.append(hi)
        prev_lo, prev_hi = lo, hi
    return his


def _leg_runs(
    rows: list[tuple[int, int]], part: list[tuple[int, int]]
) -> Iterator[tuple[int, int, int, int, int]]:
    """(r, hi, leg, c0, c1) of each run of the cells of ``part``, measured in
    the rising shape ``rows``: row by row from the bottom, left to right.
    Row r of ``part`` must lie inside row r of ``rows``, whose end is hi.

    The leg is the number of non-empty rows below whose end reaches the
    column.  Along a row it is a step function of the column: it drops by
    one past each end h of a row below, at column h + 1.  So the row splits
    into runs c0..c1 of one leg each, at most one more than the rows below
    it.  The ends come from ``_check_rising``, which raises NotRising on any
    other shape, where that count would be wrong.
    """
    ends = _check_rising(rows)
    below = 0
    for r, ((lo, hi), (lo_p, hi_p)) in enumerate(zip(rows, part), 1):
        if lo_p <= hi_p:
            # the ends below that reach lo_p, ascending
            reach = ends[bisect_left(ends, lo_p, 0, below):below]
            leg, start = len(reach), lo_p
            for h in reach:
                if h >= hi_p:
                    break
                if h >= start:
                    yield r, hi, leg, start, h
                    start = h + 1
                leg -= 1
            yield r, hi, leg, start, hi_p
        below += lo <= hi


def _rising_stats(rows: list[tuple[int, int]]) -> StatTable:
    """{(r, c): (arm, leg)} of the cells of the rising shape ``rows``, in
    row-major order: its ``_leg_runs`` cell by cell, with arm hi - c.
    """
    return {
        (r, c): (hi - c, leg)
        for r, hi, leg, c0, c1 in _leg_runs(rows, rows)
        for c in range(c0, c1 + 1)
    }


def _rising_runs(rows: list[tuple[int, int]], part: list[tuple[int, int]]) -> RunMap:
    """The (arm, leg) multiset of the cells of ``part``, measured in the
    rising shape ``rows``, as a run map.

    A ``_leg_runs`` run of leg L over arms a0..a1 is recorded as +1 at
    (L, a0) and -1 at (L, a1 + 1).  Two sums of such maps are equal exactly
    when the cells they record hold the same (arm, leg) multiset
    (``_same_runs``); the cost grows with the rows, not with their widths.
    """
    runs: RunMap = {}
    for _, hi, leg, c0, c1 in _leg_runs(rows, part):
        a0, a1 = hi - c1, hi - c0
        runs[leg, a0] = runs.get((leg, a0), 0) + 1
        runs[leg, a1 + 1] = runs.get((leg, a1 + 1), 0) - 1
    return runs


def _same_runs(left: RunMap, right: list[RunMap]) -> bool:
    """Whether the cells that the run map ``left`` records hold the same
    (arm, leg) multiset as those that the ``right`` ones record."""
    net = dict(left)
    for runs in right:
        for key, step in runs.items():
            net[key] = net.get(key, 0) - step
    return not any(net.values())


def _expand_runs(runs: RunMap) -> Counter:
    """The (arm, leg) multiset that a run map records, cell by cell."""
    steps: dict[int, list[tuple[int, int]]] = {}
    for (leg, arm), step in sorted(runs.items()):
        steps.setdefault(leg, []).append((arm, step))
    out: Counter = Counter()
    for leg, row in steps.items():
        count = 0
        for (arm, step), (next_arm, _) in zip(row, row[1:]):
            count += step
            if count:
                for a in range(arm, next_arm):
                    out[a, leg] = count
    return out


def _region_stats(p: Partition, kind: str) -> StatTable:
    """``_rising_stats`` of a whole region; NotRising for R1 and R2, whose rows fall."""
    return _rising_stats(_region_rows(p, kind))


def _rotated_rows(rows: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Rows of the half-turn rotation inside the bounding box of a shape
    whose rows are all non-empty, as ``CellSet.rotate180`` places it."""
    cmax = max(hi for _, hi in rows)
    return [(cmax + 1 - hi, cmax + 1 - lo) for lo, hi in reversed(rows)]


def _arm_slice_legs(
    rows: list[tuple[int, int]], ends: list[int], i: int, first: int = 1
) -> list[int]:
    """The legs of the arm-(i-1) cells (r, hi - i + 1), as ``arm_slice``
    picks them, of the rows from ``first`` up of a rising shape, in row
    order, where ``ends`` is what ``_check_rising(rows)`` returned.  Rows
    below ``first`` count in the legs but give no cell; a row from ``first``
    up that holds fewer than i cells raises IndexOutOfRange.

    The leg of the cell in column c = hi - i + 1 is the number of non-empty
    rows below it less those that end left of c.  The row ends are sorted
    and c never falls with the row, so one pointer that only moves forward
    counts those; it stops at the cell's own row at the latest.
    """
    below = len(ends) - len(rows) + first - 1  # the non-empty rows below row first
    left = 0
    out = []
    for lo, hi in rows[first - 1 :]:
        if hi - lo + 1 < i:
            r = first + len(out)
            raise IndexOutOfRange(f"row {r} has only {hi - lo + 1} cells, need {i}")
        c = hi - i + 1
        while ends[left] < c:
            left += 1
        out.append(below - left)
        below += 1
    return out


def _members(g: CellSet, e: CellSet | Iterable[Cell]) -> frozenset[Cell]:
    """The cells of ``e``, which must all lie in ``g`` (else NotASubset)."""
    members = e.cells if isinstance(e, CellSet) else frozenset(e)
    if not members <= g.cells:
        raise NotASubset("statistics requested for cells outside the diagram")
    return members


def al_multiset(g: CellSet, e: CellSet | Iterable[Cell]) -> Counter:
    """Multiset of (arm, leg) pairs of the cells of ``e`` measured inside ``g``."""
    return Counter((g.arm(x), g.leg(x)) for x in _members(g, e))


def hook_multiset(g: CellSet, e: CellSet | Iterable[Cell]) -> Counter:
    """Multiset of hook lengths of the cells of ``e`` measured inside ``g``."""
    return Counter(g.hook(x) for x in _members(g, e))


def _rightmost(g: CellSet, i: int) -> list[tuple[int, list[int]]]:
    """(r, its i rightmost columns) of each occupied row r of ``g``, bottom
    row first; a row with fewer than i cells raises IndexOutOfRange."""
    _require_int(i, "arm index", 1)
    out = []
    for r in g.occupied_rows():
        cols = g.row_cols(r)
        if len(cols) < i:
            raise IndexOutOfRange(f"row {r} has only {len(cols)} cells, need {i}")
        out.append((r, cols[-i:]))
    return out


def arm_slice(g: CellSet, i: int) -> CellSet:
    """Cells whose arm inside ``g`` is exactly i-1: the i-th cell from the right of each row."""
    return CellSet((r, cols[0]) for r, cols in _rightmost(g, i))


def arm_prefix(g: CellSet, i: int) -> CellSet:
    """Cells whose arm inside ``g`` is at most i-1: the i rightmost cells of each row."""
    return CellSet((r, c) for r, cols in _rightmost(g, i) for c in cols)


def multiset_to_json(m: Counter) -> list[dict]:
    """Arm/leg multiset as a sorted JSON array of {"arm", "leg", "count"} records."""
    return [
        {"arm": key[0], "leg": key[1], "count": m[key]}
        for key in sorted(k for k, v in m.items() if v)
    ]


def hook_multiset_to_json(m: Counter) -> list[dict]:
    return [{"hook": h, "count": m[h]} for h in sorted(k for k, v in m.items() if v)]


def first_multiset_difference(a: Counter, b: Counter) -> dict | None:
    """Smallest key whose multiplicities differ, or None when the multisets agree."""
    for key in sorted(set(a) | set(b)):
        if a[key] != b[key]:
            return {"key": key, "left": a[key], "right": b[key]}
    return None
