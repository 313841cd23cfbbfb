"""Arm/leg preserving cell maps between the regions of a bounded partition.

The central map ``phi`` sends the strip T onto its rotation T*: the cell with
arm i-1 in row j goes to the cell with arm i-1 of T* in row P_i(j), where P_i
is the up/down pairing of the lattice path at cut i.  Three elementary maps
``zeta_1/2/3`` then move V and the two halves of T* onto the rectangle halves
and onto D, and ``psi`` composes them into a single bijection from SQ onto
the disjoint union of R and D.

Every map can be certified: a certificate records, cell by cell, the (arm,
leg) pair at the source and at the image, measured in the ambient regions,
plus bijectivity bookkeeping.  ``verify_theorem`` checks the three multiset
identities both ways (direct enumeration and certificate) and raises
CounterexampleFound on any discrepancy.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping, NamedTuple

from . import _EXPORTS
from .diagrams import (
    Cell,
    Partition,
    StatTable,
    _IDENTITIES,
    _case,
    _counterexample,
    _region_rows,
    _region_stats,
    _require_int,
    build_region,
    first_multiset_difference,
    hook_multiset_to_json,
    multiset_to_json,
)
from .dyck import _pairings
from .errors import (
    CellNotInSet,
    CellNotInT,
    DuplicateSource,
    UnknownChoice,
)

__all__ = _EXPORTS["bijections"]


class MapEntry(NamedTuple):
    source: Cell
    target: Cell
    target_tag: str
    al: tuple[int, int]


class CellMap:
    """An injective cell-to-cell map with per-entry target tags."""

    def __init__(self, source_tag: str, entries: Iterable[MapEntry]):
        self.source_tag = source_tag
        self.entries = tuple(sorted(entries, key=lambda e: e.source))
        self._by_source = {e.source: e for e in self.entries}
        if len(self._by_source) != len(self.entries):
            raise DuplicateSource("duplicate source cell in map")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._by_source

    def __getitem__(self, cell: Cell) -> MapEntry:
        return self._by_source[cell]

    def sources(self) -> set[Cell]:
        return set(self._by_source)

    def to_json(self) -> list[dict]:
        return [
            {
                "from": list(e.source),
                "to": list(e.target),
                "target": e.target_tag,
                "al": list(e.al),
            }
            for e in self.entries
        ]


def rot_T(p: Partition, x: Cell) -> Cell:
    """Rotate a cell of T by 180 degrees inside T's bounding box.

    The image always lies in T*, and applying the rotation twice returns the
    original cell.
    """
    strip = build_region(p, "T")
    if x not in strip:
        raise CellNotInT(f"cell {x} is not in the strip of {p}")
    r, c = _require_int(x[0], "row"), _require_int(x[1], "column")  # True and 1.0 hash like 1
    return (p.k + 1 - r, p.n + p.part(1) - p.part(p.k) + 1 - c)


def _phi(p: Partition, stats: StatTable) -> list[MapEntry]:
    """phi_map's entries, each (arm, leg) read from a stat table holding T:
    at cut i, x_j = (j, hi_j - i + 1) goes to (P, hi*_P - i + 1) in T*, with
    P = P_i(j) from ``_pairings``.

    SQ's table serves too: SQ is T with V stacked above it, so a strip cell
    has the same arm and leg in both.
    """
    ends = [hi for _, hi in _region_rows(p, "T")]
    star_ends = [hi for _, hi in _region_rows(p, "Tstar")]
    entries = []
    for i, pairing in _pairings(p):
        for j, (hi, P) in enumerate(zip(ends, pairing), 1):
            x = (j, hi - i + 1)
            entries.append(MapEntry(x, (P, star_ends[P - 1] - i + 1), "Tstar", stats[x]))
    return entries


def phi_map(p: Partition) -> CellMap:
    """The strip bijection T -> T*.

    For each cut i, the arm-(i-1) cells of T are matched through the lattice
    path pairing: the one in row j is sent to the arm-(i-1) cell of T* in row
    P_i(j).  Equivalently the target is the 180-degree rotation, within the
    bounding box of the arm-prefix at cut i, of the rightmost cell of T in
    row k+1-P_i(j).
    """
    return CellMap("T", _phi(p, _region_stats(p, "T")))


def _zeta1(p: Partition, sq: StatTable) -> list[MapEntry]:
    """zeta_map kind 1's entries, with (arm, leg) read from SQ's stat table.

    V's column c holds rows k+1 .. k+L, where L counts the V rows that start
    at or before c, and R1's column c - a_1 holds rows k+1-L .. k; so the
    match from the top sends (r, c) to (r - L, c - a_1).
    """
    a1 = p.part(1)
    v_starts = [lo for lo, _ in _region_rows(p, "V")[p.k :]]
    entries = []
    for c in range(p.n + 1, p.n + a1 + 1):
        L = sum(lo <= c for lo in v_starts)
        for r in range(p.k + 1, p.k + L + 1):
            entries.append(MapEntry((r, c), (r - L, c - a1), "R", sq[r, c]))
    return entries


def _star_image(
    p: Partition, star_rows: list[tuple[int, int]], y: Cell
) -> tuple[Cell, str]:
    """The image of a cell y of T* under zeta_2 or zeta_3, with its tag.

    star_rows are T*'s rows.  A cell in T*1 (c <= n - a_k) is left-justified
    into R2; any other cell is translated onto D by n - a_k.  Raises
    CellNotInSet when y is not in T*.
    """
    r, c = y
    # a row outside 1..k is empty; tested before indexing, where
    # star_rows[-1] would silently stand in for row 0
    lo, hi = star_rows[r - 1] if 1 <= r <= p.k else (1, 0)
    if not lo <= c <= hi:
        raise CellNotInSet(f"cell {y} is not in T*")
    cut = p.n - p.parts[-1]
    if c <= cut:
        return (r, c - lo + 1), "R"
    return (r, c - cut), "D"


def zeta_map(p: Partition, kind: int) -> CellMap:
    """One of the three elementary region maps.

    kind 1: V -> R1, matching the t-th cell from the top of the j-th column
    from the left on each side (the column lengths agree).  kind 2: T*1 -> R2
    by the per-row shift that left-justifies the row.  kind 3: T*2 -> D by a
    single horizontal translation.  Arm/leg entries are recorded in the
    ambient regions (SQ for kind 1, T* for kinds 2 and 3).
    """
    if _require_int(kind, "zeta kind") == 1:
        return CellMap("V", _zeta1(p, _region_stats(p, "SQ")))
    if kind not in (2, 3):
        raise UnknownChoice(f"zeta kind must be 1, 2 or 3, got {kind!r}")
    source_tag, tag = ("T1star", "R") if kind == 2 else ("T2star", "D")
    star_rows = _region_rows(p, "Tstar")
    entries = []
    for y, al in _region_stats(p, "Tstar").items():
        target, target_tag = _star_image(p, star_rows, y)
        if target_tag == tag:
            entries.append(MapEntry(y, target, tag, al))
    return CellMap(source_tag, entries)


def _psi(p: Partition, sq: StatTable, phi: Iterable[MapEntry]) -> CellMap:
    """psi_map from phi's entries, each (arm, leg) read from SQ's stat table.

    A strip cell's phi image in T* is followed by zeta_2 or zeta_3.
    """
    star_rows = _region_rows(p, "Tstar")
    entries = _zeta1(p, sq)
    for e in phi:
        target, tag = _star_image(p, star_rows, e.target)
        entries.append(MapEntry(e.source, target, tag, e.al))
    return CellMap("SQ", entries)


def psi_map(p: Partition) -> CellMap:
    """The composed bijection SQ -> R (disjoint union) D.

    V-cells go through zeta_1 into the right half of the rectangle.  Strip
    cells go through phi into T*; images landing in the left half T*1 are
    shifted into R2, the rest are translated onto D.
    """
    sq = _region_stats(p, "SQ")
    return _psi(p, sq, _phi(p, sq))


class CertRecord(NamedTuple):
    source: Cell
    target: Cell
    target_tag: str
    source_stat: tuple[int, ...]
    target_stat: tuple[int, ...]


class BijectionCertificate(NamedTuple):
    """Cell-level evidence that a map is bijective and statistic preserving."""

    records: tuple[CertRecord, ...]
    verdict: bool
    failures: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "verdict": "pass" if self.verdict else "fail",
            "entries": [
                {
                    "from": list(r.source),
                    "to": list(r.target),
                    "target": r.target_tag,
                    "sourceStat": list(r.source_stat),
                    "targetStat": list(r.target_stat),
                }
                for r in self.records
            ],
            "failures": list(self.failures),
        }

    def hook_view(self) -> BijectionCertificate:
        """The hook certificate of the map, read off this (arm, leg) one.

        The hook of a cell is arm + leg + 1 in every region, so each statistic
        (a, l) becomes (a + l + 1,), a stat-mismatch whose hooks agree is dropped
        and the others carry hooks; every other failure is the same for both
        statistics.  Failures keep their order, and the verdict is recomputed.
        """
        # tuple.__new__ skips the named tuple's Python-level __new__
        records = tuple(
            tuple.__new__(CertRecord, (source, target, tag, (a + l + 1,), (b + m + 1,)))
            for source, target, tag, (a, l), (b, m) in self.records
        )
        failures = []
        for f in self.failures:
            if f["kind"] == "stat-mismatch":
                (a, l), (b, m) = f["sourceStat"], f["targetStat"]
                if a + l == b + m:
                    continue
                f = {**f, "sourceStat": [a + l + 1], "targetStat": [b + m + 1]}
            failures.append(f)
        return BijectionCertificate(records, not failures, tuple(failures))


def _multiset(tables: Iterable[StatTable]) -> Counter:
    """(arm, leg) pairs of every cell of the tables, counted."""
    return Counter(al for t in tables for al in t.values())


def _hook_image(al: Counter) -> Counter:
    """The hooks of an (arm, leg) multiset: each pair (a, l) counts as a + l + 1."""
    hooks: Counter = Counter()
    for (arm, leg), count in al.items():
        hooks[arm + leg + 1] += count
    return hooks


def build_certificate(
    cmap: CellMap, source: StatTable, targets: Mapping[str, StatTable]
) -> BijectionCertificate:
    """Check a CellMap against expected domain, image, and statistics.

    Each side is one stat table {cell: (arm, leg)}: its keys are the expected
    cells, and its values their statistics measured in the ambient region.
    targets maps each tag to its table.  The certificate fails if the domain
    differs from source's keys, if two entries share a target, if the tagged
    images do not exactly cover their table's keys, or if any entry changes
    its (arm, leg) pair.  The hook certificate is the result's ``hook_view()``.
    """
    failures: list[dict] = []
    records: list[CertRecord] = []

    domain = cmap.sources()
    if domain != source.keys():
        failures.append(
            {
                "kind": "domain-mismatch",
                "missing": sorted(source.keys() - domain),
                "extra": sorted(domain - source.keys()),
            }
        )

    seen: dict[tuple[str, Cell], Cell] = {}
    for e in cmap:
        key = (e.target_tag, e.target)
        if key in seen:
            failures.append(
                {
                    "kind": "not-injective",
                    "target": [e.target_tag, list(e.target)],
                    "sources": [list(seen[key]), list(e.source)],
                }
            )
        seen[key] = e.source

        if e.target_tag not in targets:
            failures.append({"kind": "unknown-target-tag", "tag": e.target_tag})
            continue
        image = targets[e.target_tag]
        if e.source not in source or e.target not in image:
            failures.append(
                {
                    "kind": "off-region",
                    "from": list(e.source),
                    "to": [e.target_tag, list(e.target)],
                }
            )
            continue
        s_stat, t_stat = source[e.source], image[e.target]
        records.append(CertRecord(e.source, e.target, e.target_tag, s_stat, t_stat))
        if s_stat != t_stat:
            failures.append(
                {
                    "kind": "stat-mismatch",
                    "from": list(e.source),
                    "to": [e.target_tag, list(e.target)],
                    "sourceStat": list(s_stat),
                    "targetStat": list(t_stat),
                }
            )

    for tag, image in targets.items():
        missed = image.keys() - {cell for t, cell in seen if t == tag}
        if missed:
            failures.append(
                {"kind": "image-incomplete", "tag": tag, "missing": sorted(missed)}
            )

    return BijectionCertificate(tuple(records), not failures, tuple(failures))


def _witnesses(p: Partition, which: Iterable[int]) -> Iterator[tuple]:
    """(statistic, left multiset, right multiset, certificate) of each identity
    in ``which``, in its order: each region measured once, phi built once (from
    SQ's stat table when SQ is needed: a strip cell has the same arm and leg in
    T as in SQ) and psi once, from phi's entries.  A source region's two (arm,
    leg) multisets and certificate are made once, for its first identity, and
    identity 1 reads their hook image."""
    specs = [_IDENTITIES[w] for w in which]
    kinds = dict.fromkeys(kind for _, source, targets in specs for kind in (source, *targets))
    stats = {kind: _region_stats(p, kind) for kind in kinds}
    phi = _phi(p, stats["SQ" if "SQ" in stats else "T"])
    maps = {"T": CellMap("T", phi)} if "T" in stats else {}
    if "SQ" in stats:
        maps["SQ"] = _psi(p, stats["SQ"], phi)
    del phi  # only identity 3 keeps phi's entries beside psi's
    found = {}  # source region -> (left, right, certificate)
    for stat, source, targets in specs:
        if source not in found:  # identities 1 and 2 both read SQ's
            cert = build_certificate(maps[source], stats[source], {t: stats[t] for t in targets})
            found[source] = _multiset([stats[source]]), _multiset(map(stats.get, targets)), cert
        left, right, cert = found[source]
        if stat == "hook":
            left, right, cert = _hook_image(left), _hook_image(right), cert.hook_view()
        yield stat, left, right, cert


def theorem_report(p: Partition, which: int) -> dict:
    """Verify one of the three multiset identities, both ways.

    which=1: hooks of SQ against hooks of R plus D.  which=2: the same with
    (arm, leg) pairs.  which=3: (arm, leg) pairs of T against T*.  The report
    contains the enumerated multisets, their first difference if any, and the
    matching bijection certificate (psi for 1 and 2, phi for 3).  Each region
    is measured once, into a stat table that both witnesses read.
    """
    if _require_int(which, "theorem") not in _IDENTITIES:
        raise UnknownChoice(f"theorem must be 1, 2 or 3, got {which!r}")
    ((stat, left, right, cert),) = _witnesses(p, (which,))
    to_json = multiset_to_json if stat == "al" else hook_multiset_to_json
    difference = first_multiset_difference(left, right)
    return {
        **_case(p, which),
        "oracle": {
            "left": to_json(left),
            "right": to_json(right),
            "equal": difference is None,
            "firstDifference": difference,
        },
        "certificate": cert.to_json(),
        "verdict": "pass" if difference is None and cert.verdict else "fail",
    }


def verify_theorem(p: Partition, which: int) -> dict:
    """Like theorem_report but raises CounterexampleFound on failure."""
    report = theorem_report(p, which)
    if report["verdict"] != "pass":
        detail = report["oracle"]["firstDifference"]
        if detail is None:
            fails = report["certificate"]["failures"]
            detail = fails[0] if fails else None
        raise _counterexample(
            f"identity {which} fails for alpha={p.parts} k={p.k} n={p.n}", p, which, detail
        )
    return report
