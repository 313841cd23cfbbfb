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
from collections import Counter
from dataclasses import dataclass

from .diagrams import (
    Cell,
    CellSet,
    Partition,
    al_multiset,
    arm_slice,
    build_region,
    first_multiset_difference,
    multiset_eq,
    multiset_union,
)
from .errors import (
    CounterexampleFound,
    IndexOutOfRange,
    KindWithoutDiagonal,
    NoShiftRow,
    NotAnInteger,
    NotWeaklyDecreasing,
    PartExceedsN,
    WrongN,
)

__all__ = [
    "StrictPartition",
    "ClassBPartition",
    "DiagonalSpec",
    "MDecomposition",
    "alpha_from_strict",
    "is_class_B",
    "diagonal_spec",
    "split_pq",
    "shift_Ti",
    "check_prop_techprop",
    "m_decomposition",
    "projective_report",
    "verify_projective",
]


@dataclass(frozen=True)
class StrictPartition:
    """A partition with distinct positive parts, largest at most k."""

    parts: tuple[int, ...]
    k: int

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if type(self.k) is not int:
            raise NotAnInteger(f"bound k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError(f"bound k must be positive, got {self.k}")
        # one pass: the type check runs before each comparison
        prev = None
        for a in parts:
            if type(a) is not int:
                raise NotAnInteger(f"parts must be integers, got {a!r} in {parts}")
            if prev is not None and prev <= a:
                raise NotWeaklyDecreasing(
                    f"parts must strictly decrease, got {prev} before {a}"
                )
            prev = a
        if self.parts and self.parts[-1] < 1:
            raise ValueError("parts must be positive")
        if self.parts and self.parts[0] > self.k:
            raise PartExceedsN(
                f"largest part {self.parts[0]} exceeds the bound k={self.k}"
            )

    @property
    def m(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.parts) + ")"


@dataclass(frozen=True)
class ClassBPartition:
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
    cell for every column c <= m whose length lambda_c + c - 1 reaches t.
    """
    k = l.k
    parts = []
    for j in range(1, k + 1):
        if j <= l.m:
            parts.append(l.parts[j - 1] + j)
        else:
            parts.append(
                sum(1 for c in range(1, l.m + 1) if l.parts[c - 1] + c - 1 >= j)
            )
    alpha = Partition(tuple(parts), k=k, n=k + 1)
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


@dataclass(frozen=True)
class DiagonalSpec:
    """The anti-diagonal of one region: the line r+c = total, and the region
    cells that lie exactly on it."""

    kind: str
    total: int
    cells: tuple[Cell, ...]


def _diagonal_total(b: ClassBPartition, kind: str) -> int:
    k = b.k
    a1 = b.alpha.part(1)
    ak = b.alpha.part(k)
    sums = {
        "D": k + 1,
        "R": k + 1,
        "T": k + a1 + 1,
        "SQ": k + a1 + 1,
        "T_(i)": k + a1 + 1,
        "T_[i]": k + a1 + 1,
        "Tstar": 2 * k + 2 - ak,
    }
    if kind not in sums:
        raise KindWithoutDiagonal(f"region {kind!r} has no diagonal")
    return sums[kind]


def diagonal_spec(b: ClassBPartition, kind: str, g: CellSet | None = None) -> DiagonalSpec:
    total = _diagonal_total(b, kind)
    if g is None:
        g = build_region(b.alpha, kind)
    cells = tuple(sorted(c for c in g if c[0] + c[1] == total))
    return DiagonalSpec(kind, total, cells)


def split_pq(g: CellSet, kind: str, b: ClassBPartition) -> tuple[CellSet, CellSet]:
    """Split g into the cells on or below the diagonal and those above it."""
    total = _diagonal_total(b, kind)
    p_cells = [c for c in g if c[0] + c[1] <= total]
    q_cells = [c for c in g if c[0] + c[1] > total]
    return CellSet(p_cells), CellSet(q_cells)


def _shift_row(b: ClassBPartition, i: int) -> int | None:
    """Smallest row whose arm-(i-1) cell sits above the strip diagonal."""
    for a in range(1, b.k + 1):
        if a - b.alpha.part(a) >= i:
            return a
    return None


def shift_Ti(b: ClassBPartition, i: int) -> tuple[CellSet, int | None]:
    """Right-justify the strip rows from the shift row up.

    Rows u..k are moved so each ends at column alpha_1 + k + 1; rows below u
    keep their position.  When no arm-(i-1) cell lies above the diagonal the
    strip is returned unchanged with u = None.
    """
    p = b.alpha
    if not 1 <= i <= p.n:
        raise IndexOutOfRange(f"cut parameter i={i} not in 1..{p.n}")
    strip = build_region(p, "T")
    u = _shift_row(b, i)
    if u is None:
        return strip, None
    a1 = p.part(1)
    intervals = {}
    for j in range(1, p.k + 1):
        if j < u:
            intervals[j] = (a1 - p.part(j) + 1, p.n + a1 - p.part(j))
        else:
            intervals[j] = (a1 + 1, a1 + p.k + 1)
    return CellSet.from_row_intervals(intervals), u


def check_prop_techprop(b: ClassBPartition, i: int) -> dict:
    """Evaluate the four inequality pairs tied to the shift row.

    Index 0 of alpha is treated as infinity, which makes the clauses that
    would mention it vacuously true (they only arise when u = 1 or u = i).
    """
    u = _shift_row(b, i)
    if u is None:
        raise NoShiftRow(f"no shift row exists for i={i} on alpha={b.alpha}")

    def part(j: int) -> float:
        return math.inf if j == 0 else b.alpha.part(j)

    parts = (
        u - part(u) > i - 1 and u - 1 - part(u - 1) <= i - 1,
        u > b.m,
        part(u - i) >= u and part(u - i + 1) <= u,
        part(u) + i <= part(u - i) and part(u - 1) + i >= part(u - i + 1),
    )
    return {"u": u, "parts": tuple(bool(x) for x in parts), "all": all(parts)}


@dataclass(frozen=True)
class MDecomposition:
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


def _range_multiset(lo: int, hi: int) -> Counter:
    return Counter(range(lo, hi + 1))


def _compute_decomposition(b: ClassBPartition, i: int) -> MDecomposition:
    alpha = b.alpha
    k = alpha.k
    ti, u = shift_Ti(b, i)
    if u is None:
        raise NoShiftRow(f"no shift row exists for i={i} on alpha={alpha}")
    s = next(
        j for j in range(1, k + 2)
        if (alpha.part(j) if j <= k else 0) <= i - 1
    )
    s_eff = min(s, u)
    diag_t = k + alpha.part(1) + 1

    slice_ti = arm_slice(ti, i)
    m1 = Counter(ti.leg(c) for c in slice_ti)
    m11 = Counter(ti.leg(c) for c in slice_ti if c[0] + c[1] <= diag_t)
    m12 = Counter(ti.leg(c) for c in slice_ti if c[0] + c[1] > diag_t)

    star = ti.rotate180()
    slice_star = arm_slice(star, i)
    m2 = Counter(star.leg(c) for c in slice_star)
    m21 = Counter(star.leg(c) for c in slice_star if c[1] <= k + 1)
    m22 = Counter(
        star.leg(c)
        for c in slice_star
        if c[1] > k + 1 and c[0] + c[1] <= 2 * k + 2
    )
    m23 = Counter(star.leg(c) for c in slice_star if c[0] + c[1] > 2 * k + 2)

    strip = build_region(alpha, "T")
    m3 = Counter(
        strip.leg(c) for c in arm_slice(strip, i) if c[0] + c[1] <= diag_t
    )
    # rows of D shorter than i have no arm-(i-1) cell at all
    dgm = build_region(alpha, "D")
    m4 = Counter()
    for r in dgm.occupied_rows():
        cols = dgm.row_cols(r)
        if len(cols) >= i and r + cols[-i] > k + 1:
            m4[dgm.leg((r, cols[-i]))] += 1

    checks = {
        "m1_vs_m2": m1 == m2,
        "m11_vs_m3": m11 == m3,
        "m12_range": m12 == _range_multiset(u - s_eff, k - s_eff),
        "m21_range": m21 == _range_multiset(0, k - s_eff),
        "m22_range": m22 == _range_multiset(u - s_eff, i - 2),
        "m23_vs_m4": m23 == m4,
        "m3_vs_m4_low_legs": m3 == m4 + _range_multiset(0, i - 2),
    }
    return MDecomposition(
        i=i, u=u, s=s, s_eff=s_eff,
        m1=m1, m2=m2, m3=m3, m4=m4,
        m11=m11, m12=m12, m21=m21, m22=m22, m23=m23,
        checks=checks,
    )


def m_decomposition(b: ClassBPartition, i: int) -> MDecomposition:
    """Compute the decomposition and insist every equality holds."""
    dec = _compute_decomposition(b, i)
    if not dec.passed:
        bad = sorted(name for name, ok in dec.checks.items() if not ok)
        raise CounterexampleFound(
            f"leg decomposition fails for alpha={b.alpha} i={i}: {', '.join(bad)}",
            case={"alpha": list(b.alpha.parts), "k": b.k, "i": i},
            detail={"failed": bad},
        )
    return dec


def projective_report(b: ClassBPartition) -> dict:
    """Check the diagonal identity and all per-i decompositions.

    The identity compares (arm, leg) pairs measured in the parent regions:
    cells of SQ on or below its diagonal against all of p(R) plus the cells
    of D above its diagonal.  Also confirms that the diagonal part of SQ
    coincides with the diagonal part of T cell for cell.
    """
    alpha = b.alpha
    sq = build_region(alpha, "SQ")
    strip = build_region(alpha, "T")
    rect = build_region(alpha, "R")
    dgm = build_region(alpha, "D")
    p_sq, _ = split_pq(sq, "SQ", b)
    p_t, _ = split_pq(strip, "T", b)
    p_r, _ = split_pq(rect, "R", b)
    _, q_d = split_pq(dgm, "D", b)

    same_cells = p_sq == p_t
    lhs = al_multiset(sq, p_sq)
    rhs = multiset_union(al_multiset(rect, p_r), al_multiset(dgm, q_d))
    identity = multiset_eq(lhs, rhs)

    per_i = []
    all_sub = True
    for i in range(1, b.k + 2):
        u = _shift_row(b, i)
        if u is None:
            per_i.append(
                {"i": i, "u": None, "s": None, "techprop": None,
                 "mChecks": "skipped"}
            )
            continue
        tech = check_prop_techprop(b, i)
        dec = _compute_decomposition(b, i)
        ok = tech["all"] and dec.passed
        all_sub = all_sub and ok
        per_i.append(
            {
                "i": i,
                "u": u,
                "s": dec.s,
                "techprop": list(tech["parts"]),
                "mChecks": "pass" if dec.passed else "fail",
            }
        )

    verdict = identity and same_cells and all_sub
    return {
        "alpha": list(alpha.parts),
        "lambda": list(b.lam.parts),
        "m": b.m,
        "theorem": "pass" if verdict else "fail",
        "perI": per_i,
    }


def verify_projective(b: ClassBPartition) -> dict:
    """Like projective_report but raises CounterexampleFound on failure."""
    report = projective_report(b)
    if report["theorem"] != "pass":
        alpha = b.alpha
        sq = build_region(alpha, "SQ")
        rect = build_region(alpha, "R")
        dgm = build_region(alpha, "D")
        p_sq, _ = split_pq(sq, "SQ", b)
        p_r, _ = split_pq(rect, "R", b)
        _, q_d = split_pq(dgm, "D", b)
        lhs = al_multiset(sq, p_sq)
        rhs = multiset_union(al_multiset(rect, p_r), al_multiset(dgm, q_d))
        raise CounterexampleFound(
            f"diagonal identity fails for alpha={alpha}",
            case={"alpha": list(alpha.parts), "k": b.k},
            detail=first_multiset_difference(lhs, rhs),
        )
    return report
