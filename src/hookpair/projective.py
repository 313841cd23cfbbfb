"""Self-conjugate-adjacent partitions, diagonal splits, and shifted strips.

This module treats the special family where the bound is one more than the
number of parts (n = k+1) and the partition has Frobenius form
(l_1, ..., l_m | l_1 - 1, ..., l_m - 1): every diagonal hook has one more
cell to the right than below.  For these, each region acquires a natural
anti-diagonal, and the main identity compares (arm, leg) pairs of the cells
on or below the diagonal of SQ with those of R plus the cells strictly above
the diagonal of D.

The proof-level machinery is also exposed: the strip T can be partially
right-justified from a shift row u, and the leg multisets of the arm-(i-1)
cells of the shifted strip and of its rotation decompose into pieces that are
either plain integer ranges or equal to the corresponding pieces of T and D.
All of it is checked by direct enumeration, never assumed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, namedtuple
from typing import Iterable, NamedTuple

from . import _EXPORTS
from .diagrams import (
    Cell,
    CellSet,
    Partition,
    _Checked,
    _arm_slice_legs,
    _check_rising,
    _counterexample,
    _expand_runs,
    _region_rows,
    _require_cut,
    _require_int,
    _rising_runs,
    _rotated_rows,
    _same_runs,
    first_multiset_difference,
)
from .errors import (
    KindWithoutDiagonal,
    NoShiftRow,
    NotWeaklyDecreasing,
    PartExceedsN,
    WrongN,
)

__all__ = _EXPORTS["projective"]


class StrictPartition(_Checked, namedtuple("StrictPartition", "parts k")):
    """A partition with distinct positive parts, largest at most k."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int], k: int) -> "StrictPartition":
        parts = tuple(parts)
        for a in parts:
            _require_int(a, "part")
        _require_int(k, "bound k", 1)
        if any(a <= b for a, b in zip(parts, parts[1:])):
            raise NotWeaklyDecreasing(f"parts must strictly decrease: {parts}")
        _require_int(min(parts, default=1), "smallest part", 1)
        if parts and parts[0] > k:
            raise PartExceedsN(f"largest part {parts[0]} exceeds the bound k={k}")
        return super().__new__(cls, parts, k)

    @property
    def m(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.parts) + ")"


class ClassBPartition(NamedTuple):
    """A bounded partition with n = k+1 whose diagonal hooks have arm
    lengths lambda_j and leg lengths lambda_j - 1."""

    alpha: Partition
    lam: StrictPartition
    m: int

    @property
    def k(self) -> int:
        return self.alpha.k

    @property
    def n(self) -> int:
        return self.alpha.n


def alpha_from_strict(l: StrictPartition) -> ClassBPartition:
    """Build the member of the family with diagonal arm lengths l.

    The first m parts are lambda_j + j; below the diagonal, row t holds one
    cell for every column c <= m whose length lambda_c + c - 1 reaches t;
    those lengths never rise with c, so these are the first columns.
    """
    lam, c = l.parts, l.m
    parts = [x + j for j, x in enumerate(lam, 1)]
    for t in range(l.m + 1, l.k + 1):
        while c and lam[c - 1] + c - 1 < t:
            c -= 1
        parts.append(c)
    alpha = Partition(tuple(parts), k=l.k, n=l.k + 1)
    return ClassBPartition(alpha, l, l.m)


def is_class_B(p: Partition) -> ClassBPartition | None:
    """Recover the Frobenius data of p, or None if p is not in the family."""
    if p.n != p.k + 1:
        raise WrongN(f"the family needs n = k+1, got n={p.n}, k={p.k}")
    m = sum(1 for j in range(1, p.k + 1) if p.part(j) >= j)
    lam_parts = tuple(p.part(j) - j for j in range(1, m + 1))
    if any(x < 1 for x in lam_parts):
        return None
    lam = StrictPartition(lam_parts, p.k)
    candidate = alpha_from_strict(lam)
    if candidate.alpha.parts != p.parts:
        return None
    return candidate


class DiagonalSpec(NamedTuple):
    """The anti-diagonal of one region: the line r+c = total, and the region
    cells that lie exactly on it."""

    kind: str
    total: int
    cells: tuple[Cell, ...]


def _diagonal_total(b: ClassBPartition, kind: str) -> int:
    if kind in ("D", "R"):
        return b.k + 1
    if kind in ("T", "SQ"):
        return b.k + b.alpha.parts[0] + 1
    if kind == "Tstar":
        return 2 * b.k + 2 - b.alpha.parts[-1]
    raise KindWithoutDiagonal(f"region {kind!r} has no diagonal")


def diagonal_spec(b: ClassBPartition, kind: str) -> DiagonalSpec:
    """The diagonal of one region, read off its rows: row r holds at most
    the cell (r, total - r) of the line."""
    total = _diagonal_total(b, kind)
    cells = tuple(
        (r, total - r)
        for r, (lo, hi) in enumerate(_region_rows(b.alpha, kind), 1)
        if lo <= total - r <= hi
    )
    return DiagonalSpec(kind, total, cells)


def split_pq(g: CellSet, kind: str, b: ClassBPartition) -> tuple[CellSet, CellSet]:
    """Split g into the cells on or below the diagonal and those above it."""
    total = _diagonal_total(b, kind)
    p_cells = [c for c in g if c[0] + c[1] <= total]
    q_cells = [c for c in g if c[0] + c[1] > total]
    return CellSet(p_cells), CellSet(q_cells)


def _cut_rows(alpha: Partition) -> list[tuple[int | None, int]]:
    """(u, s) of every cut i = 1 .. k+1, from one scan of the parts.

    The shift row u is the smallest row a with a - alpha_a >= i, the row
    whose arm-(i-1) cell first sits above the strip diagonal (None when
    there is none); the split index s is the smallest j <= k+1 with
    alpha_j <= i-1, taking alpha_(k+1) = 0.  a - alpha_a strictly
    increases, so u never decreases with i, and s never increases.
    """
    parts = alpha.parts
    k = alpha.k
    u, s = 1, k + 1
    out = []
    for i in range(1, k + 2):
        while u <= k and u - parts[u - 1] < i:
            u += 1
        while s > 1 and parts[s - 2] <= i - 1:
            s -= 1
        out.append((u if u <= k else None, s))
    return out


def _cut(b: ClassBPartition, i: int) -> tuple[int | None, int | None]:
    """(u, s) of the cut i from ``_cut_rows``, after checking that the cut
    exists; a cut past k+1 has neither."""
    _require_cut(b.alpha, i)
    table = _cut_rows(b.alpha)
    return table[i - 1] if i <= len(table) else (None, None)


def _shifted_rows(
    strip: list[tuple[int, int]], u: int, a1: int
) -> list[tuple[int, int]]:
    """Rows of T_(i): the strip rows below u, then a1+1 .. a1+k+1 from u up."""
    k = len(strip)
    return strip[: u - 1] + [(a1 + 1, a1 + k + 1)] * (k - u + 1)


def shift_Ti(b: ClassBPartition, i: int) -> tuple[CellSet, int | None]:
    """Right-justify the strip rows from the shift row up.

    Rows u..k are moved so each ends at column alpha_1 + k + 1; rows below u
    keep their position.  When no arm-(i-1) cell lies above the diagonal the
    strip is returned unchanged with u = None.
    """
    u, _ = _cut(b, i)
    rows = _region_rows(b.alpha, "T")
    if u is not None:
        rows = _shifted_rows(rows, u, b.alpha.part(1))
    return CellSet.from_row_intervals(dict(enumerate(rows, 1))), u


def _techprop(part: tuple, m: int, i: int, u: int) -> tuple[bool, ...]:
    """The four inequality pairs at cut i with shift row u, given m and
    ``part``, the parts of alpha after an infinite part 0.

    The infinite part makes the clauses that would mention it vacuously
    true (they only arise when u = 1 or u = i).
    """
    return (
        u - part[u] > i - 1 and u - 1 - part[u - 1] <= i - 1,
        u > m,
        part[u - i] >= u and part[u - i + 1] <= u,
        part[u] + i <= part[u - i] and part[u - 1] + i >= part[u - i + 1],
    )


def check_prop_techprop(b: ClassBPartition, i: int) -> dict:
    """Evaluate the four inequality pairs tied to the shift row."""
    u, _ = _cut(b, i)
    if u is None:
        raise NoShiftRow(f"no shift row exists for i={i} on alpha={b.alpha}")
    clauses = _techprop((math.inf,) + b.alpha.parts, b.m, i, u)
    return {"u": u, "parts": clauses, "all": all(clauses)}


class MDecomposition(NamedTuple):
    """Leg multisets of arm-(i-1) cells in the shifted strip, its rotation,
    and the matching parts of T and D, with the checked equalities."""

    i: int
    u: int
    s: int
    s_eff: int
    m1: Counter
    m2: Counter
    m3: Counter
    m4: Counter
    m11: Counter
    m12: Counter
    m21: Counter
    m22: Counter
    m23: Counter
    checks: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _same_legs(a, b) -> bool:
    """Whether two leg lists hold each leg equally often."""
    return sorted(a) == sorted(b)


def _row_sums(rows: list[tuple[int, int]]) -> list[int]:
    """r + hi of every row r."""
    return [r + hi for r, (_, hi) in enumerate(rows, 1)]


def _cut_legs(
    b: ClassBPartition,
    cuts: list[tuple[int, int, int]],
    strip: list[tuple[int, int]],
    dgm: list[tuple[int, int]],
) -> list[tuple[int, tuple[list[int], ...], dict[str, bool]]]:
    """(s_eff, leg lists, checks) of every cut (i, u, s) in ``cuts``, given
    the rows of T and D.

    Each leg list, m1 .. m23 in MDecomposition's order, holds the legs of
    its arm-(i-1) cells in row order, read by one ``_arm_slice_legs`` pass
    per slice.  Along a slice the column c = hi - i + 1 never falls and
    r + c strictly rises, so each piece is a run of its slice that ends
    where c or r + c passes a bound: one bisect on the row ends, or on the
    sums r + hi.  Each shape is checked to rise once, when it is built; the
    shifted strip and its rotation depend on u alone, so they are built
    once per distinct u of the call.
    """
    k = b.k
    a1 = b.alpha.parts[0]
    diag_t, diag_d = _diagonal_total(b, "T"), _diagonal_total(b, "D")
    strip_ends, dgm_ends = _check_rising(strip), _check_rising(dgm)
    strip_sums, dgm_sums = _row_sums(strip), _row_sums(dgm)
    shifted = {}
    out = []
    for i, u, s in cuts:
        if u not in shifted:
            ti = _shifted_rows(strip, u, a1)
            star = _rotated_rows(ti)
            shifted[u] = [(rows, _check_rising(rows), _row_sums(rows)) for rows in (ti, star)]
        (ti, ti_ends, ti_sums), (star, star_ends, star_sums) = shifted[u]
        s_eff = min(s, u)
        m1 = _arm_slice_legs(ti, ti_ends, i)
        j = bisect_right(ti_sums, diag_t + i - 1)
        m11, m12 = m1[:j], m1[j:]
        # no row of the rotation is empty, so its ends list every row; and
        # r <= k, so a cell with c <= k + 1 has r + c <= 2k + 1: m21 ends
        # before m23 starts
        m2 = _arm_slice_legs(star, star_ends, i)
        j21, j23 = bisect_right(star_ends, k + i), bisect_right(star_sums, 2 * k + 1 + i)
        m21, m22, m23 = m2[:j21], m2[j21:j23], m2[j23:]
        j3 = bisect_right(strip_sums, diag_t + i - 1)
        m3 = _arm_slice_legs(strip[:j3], strip_ends[:j3], i)
        # a row of D shorter than i has r + hi - i + 1 <= r <= k, never above
        # its diagonal, so m4's rows are the top ones
        first = bisect_right(dgm_sums, diag_d + i - 1) + 1
        m4 = _arm_slice_legs(dgm, dgm_ends, i, first)
        m3_sorted, m4_sorted = sorted(m3), sorted(m4)

        checks = {
            "m1_vs_m2": _same_legs(m1, m2),
            "m11_vs_m3": sorted(m11) == m3_sorted,
            "m12_range": sorted(m12) == list(range(u - s_eff, k - s_eff + 1)),
            "m21_range": sorted(m21) == list(range(0, k - s_eff + 1)),
            "m22_range": sorted(m22) == list(range(u - s_eff, i - 1)),
            "m23_vs_m4": sorted(m23) == m4_sorted,
            "m3_vs_m4_low_legs": m3_sorted == sorted(m4_sorted + list(range(0, i - 1))),
        }
        out.append((s_eff, (m1, m2, m3, m4, m11, m12, m21, m22, m23), checks))
    return out


def m_decomposition(b: ClassBPartition, i: int) -> MDecomposition:
    """Compute the decomposition and insist every equality holds."""
    u, s = _cut(b, i)
    if u is None:
        raise NoShiftRow(f"no shift row exists for i={i} on alpha={b.alpha}")
    strip, dgm = _region_rows(b.alpha, "T"), _region_rows(b.alpha, "D")
    [(s_eff, legs, checks)] = _cut_legs(b, [(i, u, s)], strip, dgm)
    bad = sorted(name for name, ok in checks.items() if not ok)
    if bad:
        raise _counterexample(
            f"leg decomposition fails for alpha={b.alpha} i={i}: {', '.join(bad)}",
            b.alpha, "proj", {"failed": bad}, {"i": i},
        )
    return MDecomposition(i, u, s, s_eff, *map(Counter, legs), checks)


def _on_or_below(rows: list[tuple[int, int]], total: int) -> list[tuple[int, int]]:
    """Each row clamped to its cells with r + c <= total."""
    return [(lo, min(hi, total - r)) for r, (lo, hi) in enumerate(rows, 1)]


def _above(rows: list[tuple[int, int]], total: int) -> list[tuple[int, int]]:
    """Each row clamped to its cells with r + c > total."""
    return [(max(lo, total - r + 1), hi) for r, (lo, hi) in enumerate(rows, 1)]


def _occupied(rows: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """(r, lo, hi) of the non-empty rows: equal lists mean equal cell sets."""
    return [(r, lo, hi) for r, (lo, hi) in enumerate(rows, 1) if lo <= hi]


def _projective_pass(b: ClassBPartition) -> tuple[dict, dict | None]:
    """The report of ``projective_report`` and, when it fails, what failed
    first: a multiset difference, else the failing checks of the first
    failing cut, else the cell comparison of the diagonal parts."""
    alpha = b.alpha
    sq = _region_rows(alpha, "SQ")
    rect = _region_rows(alpha, "R")
    strip = _region_rows(alpha, "T")
    dgm = _region_rows(alpha, "D")
    p_sq = _on_or_below(sq, _diagonal_total(b, "SQ"))
    p_t = _on_or_below(strip, _diagonal_total(b, "T"))
    p_r = _on_or_below(rect, _diagonal_total(b, "R"))
    q_d = _above(dgm, _diagonal_total(b, "D"))

    same_cells = _occupied(p_sq) == _occupied(p_t)
    sq_runs = _rising_runs(sq, p_sq)
    r_runs, d_runs = _rising_runs(rect, p_r), _rising_runs(dgm, q_d)
    identity = _same_runs(sq_runs, [r_runs, d_runs])

    # u never falls as i grows, so the cuts with a shift row come first
    table = _cut_rows(alpha)
    cuts = [(i, u, s) for i, (u, s) in enumerate(table, 1) if u is not None]
    part = (math.inf,) + alpha.parts
    per_i = []
    first_bad = None
    for (i, u, s), (_, _, checks) in zip(cuts, _cut_legs(b, cuts, strip, dgm), strict=True):
        clauses = _techprop(part, b.m, i, u)
        failed = sorted(name for name, ok in checks.items() if not ok)
        per_i.append(
            {"i": i, "u": u, "s": s, "techprop": list(clauses),
             "mChecks": "fail" if failed else "pass"}
        )
        if not all(clauses):
            failed.append("techprop")
        if failed and first_bad is None:
            first_bad = {"i": i, "failed": failed}
    for i in range(len(cuts) + 1, len(table) + 1):
        per_i.append({"i": i, "u": None, "s": None, "techprop": None, "mChecks": "skipped"})

    verdict = identity and same_cells and first_bad is None
    report = {
        "alpha": list(alpha.parts),
        "lambda": list(b.lam.parts),
        "m": b.m,
        "theorem": "pass" if verdict else "fail",
        "perI": per_i,
    }
    if verdict:
        return report, None
    detail = first_multiset_difference(
        _expand_runs(sq_runs), _expand_runs(r_runs) + _expand_runs(d_runs)
    )
    if detail is not None:
        return report, detail
    return report, first_bad or {"sameCells": False}


def projective_report(b: ClassBPartition) -> dict:
    """Check the diagonal identity and all per-i decompositions.

    The identity compares (arm, leg) pairs measured in the parent regions:
    cells of SQ on or below its diagonal against all of p(R) plus the cells
    of D above its diagonal.  Also confirms that the diagonal part of SQ
    coincides with the diagonal part of T cell for cell.  Every region is
    handled as its rows' column intervals; no cell set is built.
    """
    return _projective_pass(b)[0]


def verify_projective(b: ClassBPartition) -> dict:
    """Like projective_report but raises CounterexampleFound on failure."""
    report, detail = _projective_pass(b)
    if detail is not None:
        raise _counterexample(
            f"diagonal identity fails for alpha={b.alpha}", b.alpha, "proj", detail
        )
    return report

