"""Shared helpers for the test suite: exhaustive enumerations and strategies."""

import sys
from collections import Counter
from itertools import combinations

from hypothesis import strategies as st

from hookpair.diagrams import CellSet, Partition, arm_slice, build_region


ACCEPTANCE_LINES: list[str] = []


def check_criterion(name: str, ok: bool, note: str = "") -> None:
    """Record one pass/fail verdict line and fail the test if not ok."""
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if note:
        line += f"  [{note}]"
    ACCEPTANCE_LINES.append(line)
    assert ok, f"acceptance criterion failed: {name}"


def strict_partitions(k):
    """Every strictly decreasing tuple with parts drawn from 1..k, incl. ()."""
    for r in range(k + 1):
        for combo in combinations(range(k, 0, -1), r):
            yield tuple(combo)


def all_partitions(k, n):
    """Every weakly decreasing k-tuple with entries in 0..n, lexicographically."""

    def gen(length, bound):
        if length == 0:
            yield ()
            return
        for first in range(bound + 1):
            for rest in gen(length - 1, first):
                yield (first,) + rest

    for parts in gen(k, n):
        yield Partition(parts, k, n)


def sweep_partitions(max_k, max_n):
    for n in range(1, max_n + 1):
        for k in range(1, max_k + 1):
            yield from all_partitions(k, n)


@st.composite
def partitions(draw, max_k=5, max_n=5):
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(1, max_n))
    parts = draw(st.lists(st.integers(0, n), min_size=k, max_size=k))
    return Partition(tuple(sorted(parts, reverse=True)), k, n)


@st.composite
def rising_shapes(draw, max_rows=8, max_step=3):
    """Rows (lo, hi), bottom row first, of a shape whose row intervals rise:
    a few empty rows at the bottom, then non-empty rows whose starts and
    ends never fall."""
    rows = [(c, c - 1) for c in draw(st.lists(st.integers(1, 4), max_size=3))]
    lo = draw(st.integers(1, max_step))
    hi = lo + draw(st.integers(0, max_step))
    for _ in range(draw(st.integers(1, max_rows))):
        rows.append((lo, hi))
        lo += draw(st.integers(0, max_step))
        hi = max(hi + draw(st.integers(0, max_step)), lo)
    return rows


cell_sets = st.sets(
    st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=20
).map(CellSet)


def count_region_builds(monkeypatch, run, function="build_region"):
    """Sorted kinds of the calls to diagrams.<function> (build_region, or
    _region_stats for stat tables) made while run() runs, from any hookpair
    module that imported it."""
    import hookpair.diagrams as dg

    original = getattr(dg, function)
    calls = []

    def counting(p, kind):
        calls.append(kind)
        return original(p, kind)

    for name, mod in list(sys.modules.items()):
        if name.startswith("hookpair") and vars(mod).get(function) is original:
            monkeypatch.setattr(mod, function, counting)
    run()
    monkeypatch.undo()
    return sorted(calls)


def hook_certificate_reference(p, cmap):
    """A hook certificate of a map SQ -> R + D measured directly: the
    certificate's (arm, leg) checking loop run over tables of hooks, each
    read off a built CellSet as (arm + leg + 1,)."""
    from hookpair.bijections import build_certificate

    sq, rect, dgm = (
        {x: (g.arm(x) + g.leg(x) + 1,) for x in g}
        for g in (build_region(p, kind) for kind in ("SQ", "R", "D"))
    )
    return build_certificate(cmap, sq, sq, {"R": (rect, rect), "D": (dgm, dgm)})


def count_cellsets(monkeypatch, run):
    """Number of CellSets constructed while run() runs."""
    made = []
    original = CellSet.__init__

    def counting(self, cells=()):
        made.append(1)
        original(self, cells)

    monkeypatch.setattr(CellSet, "__init__", counting)
    run()
    monkeypatch.undo()
    return len(made)


def count_calls(monkeypatch, module, name, run):
    """Argument tuples of the calls to module.<name> made while run() runs."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    run()
    monkeypatch.undo()
    return calls


def dyck_reference_calls(monkeypatch, run):
    """Sorted names of the reference label and path functions of
    hookpair.dyck called while run() runs, each once, from any hookpair
    module that imported them."""
    import hookpair.dyck as dk

    called = set()
    for name in ("label_cells", "build_sigma", "build_dyck", "pair_updown"):
        original = getattr(dk, name)

        def counting(*args, _name=name, _original=original):
            called.add(_name)
            return _original(*args)

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("hookpair") and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counting)
    run()
    monkeypatch.undo()
    return sorted(called)


def complement(p):
    """The partition beta in p's box with beta_i = a_1 - a_{k+1-i}."""
    a = p.parts
    return Partition(tuple(a[0] - a[p.k - i] for i in range(1, p.k + 1)), p.k, p.n)


def plant_one_arm_run(runs, arm, leg, count=1):
    """Add ``count`` cells with this (arm, leg) to a run map (remove them
    when negative), as a run of one arm."""
    runs[leg, arm] = runs.get((leg, arm), 0) + count
    runs[leg, arm + 1] = runs.get((leg, arm + 1), 0) - count


def arm_by_scan(g, cell):
    r, c = cell
    return sum(1 for rr, cc in g.cells if rr == r and cc > c)


def leg_by_scan(g, cell):
    r, c = cell
    return sum(1 for rr, cc in g.cells if cc == c and rr < r)


def coleg_by_scan(g, cell):
    r, c = cell
    return sum(1 for rr, cc in g.cells if cc == c and rr > r)


def skew_valid_by_scan(g):
    """Whether every occupied row is contiguous and each occupied row starts
    and ends at or right of every occupied row below it."""
    rows = {}
    for r, c in g.cells:
        rows.setdefault(r, set()).add(c)
    if any(max(cols) - min(cols) + 1 != len(cols) for cols in rows.values()):
        return False
    return all(
        min(rows[low]) <= min(rows[high]) and max(rows[low]) <= max(rows[high])
        for low in rows
        for high in rows
        if low < high
    )


def phi_reference_json(p):
    """phi built the direct way, as JSON: for every cut, freshly built T and
    T* rows give the labels and the targets, and each up step is matched by
    scanning for the first later down step one level higher."""
    k = p.k
    entries = []
    for i in range(1, p.n + 1):
        strip = build_region(p, "T")
        star = build_region(p, "Tstar")
        labels = [((j, strip.row_cols(j)[-i]), "x", j) for j in range(1, k + 1)]
        labels += [
            ((k + 1 - j, strip.row_cols(k + 1 - j)[-1]), "z", j)
            for j in range(1, k + 1)
        ]
        labels.sort(key=lambda lab: (lab[0][1], lab[1], lab[0][0]))
        heights = []
        y = 0
        for _, kind, _ in labels:
            heights.append(y)
            y += 1 if kind == "x" else -1
        for t, (cell, kind, j) in enumerate(labels):
            if kind != "x":
                continue
            partner = next(
                labels[u][2]
                for u in range(t + 1, len(labels))
                if labels[u][1] == "z" and heights[u] == heights[t] + 1
            )
            entries.append(
                {
                    "from": list(cell),
                    "to": [partner, star.row_cols(partner)[-i]],
                    "target": "Tstar",
                    "al": [strip.arm(cell), strip.leg(cell)],
                }
            )
    return sorted(entries, key=lambda e: e["from"])


def frobenius_parts(lam, k):
    """The k parts of the partition whose diagonal hooks have arms lam_j and
    legs lam_j - 1, read row by row off the union of those hooks, with rows
    counted from the top: hook j holds (j, j) .. (j, j + lam_j) and (j, j)
    .. (j + lam_j - 1, j)."""
    cells = set()
    for j, arm in enumerate(lam, 1):
        cells.update((j, c) for c in range(j, j + arm + 1))
        cells.update((r, j) for r in range(j, j + arm))
    return tuple(sum(1 for r, _ in cells if r == t) for t in range(1, k + 1))


def decomposition_reference(b, i):
    """u, s, s_eff and the leg multisets m1 .. m23 of cut i, built the direct
    way, or None when the cut has no shift row.

    T is built cell by cell from the parts, D likewise; the shift row is the
    lowest row whose arm-(i-1) cell lies above the strip diagonal; rows
    u..k of T move to columns a1+1 .. a1+k+1, the result is rotated with
    CellSet.rotate180, and every leg is a scan of the cells.
    """
    a = b.alpha.parts
    k = b.k
    n = k + 1
    a1 = a[0]
    diag_t, diag_d = k + a1 + 1, k + 1
    strip = CellSet(
        (r, c) for r in range(1, k + 1) for c in range(a1 - a[r - 1] + 1, n + a1 - a[r - 1] + 1)
    )
    dgm_cells = [(r, c) for r in range(1, k + 1) for c in range(1, a[k - r] + 1)]
    dgm = CellSet(dgm_cells)

    strip_slice = sorted(arm_slice(strip, i))
    above = [r for r, c in strip_slice if r + c > diag_t]
    if not above:
        return None
    u = min(above)
    s = next(j for j in range(1, k + 2) if (a[j - 1] if j <= k else 0) <= i - 1)
    s_eff = min(s, u)

    shifted = CellSet(
        [(r, c) for r, c in strip if r < u]
        + [(r, c) for r in range(u, k + 1) for c in range(a1 + 1, a1 + k + 2)]
    )
    star = shifted.rotate180()
    t_legs = [((r, c), leg_by_scan(shifted, (r, c))) for r, c in sorted(arm_slice(shifted, i))]
    s_legs = [((r, c), leg_by_scan(star, (r, c))) for r, c in sorted(arm_slice(star, i))]
    long_rows = CellSet(
        (r, c) for r, c in dgm_cells if sum(1 for rr, _ in dgm_cells if rr == r) >= i
    )
    d_slice = sorted(arm_slice(long_rows, i))

    return {
        "u": u,
        "s": s,
        "s_eff": s_eff,
        "m1": Counter(leg for _, leg in t_legs),
        "m2": Counter(leg for _, leg in s_legs),
        "m3": Counter(leg_by_scan(strip, (r, c)) for r, c in strip_slice if r + c <= diag_t),
        "m4": Counter(leg_by_scan(dgm, (r, c)) for r, c in d_slice if r + c > diag_d),
        "m11": Counter(leg for (r, c), leg in t_legs if r + c <= diag_t),
        "m12": Counter(leg for (r, c), leg in t_legs if r + c > diag_t),
        "m21": Counter(leg for (r, c), leg in s_legs if c <= k + 1),
        "m22": Counter(leg for (r, c), leg in s_legs if c > k + 1 and r + c <= 2 * k + 2),
        "m23": Counter(leg for (r, c), leg in s_legs if r + c > 2 * k + 2),
    }


def sweep_fold_reference(entries):
    """The counts per identity and the first counterexample of a sweep, read
    off the finished list of its case entries: the first failing entry plus
    the ``hookpair verify`` line that rechecks it (``--theorem proj`` for a
    member of the family), or None when every entry passes."""
    counts = dict(Counter(e["theorem"] for e in entries))
    failing = [e for e in entries if e["verdict"] == "fail"]
    if not failing:
        return counts, None
    e = failing[0]
    theorem = {"projective": "proj"}.get(e["theorem"], e["theorem"])
    alpha = ",".join(str(a) for a in e["alpha"])
    repro = f"hookpair verify --k {e['k']} --n {e['n']} --alpha {alpha} --theorem {theorem}"
    return counts, {**e, "repro": repro}
