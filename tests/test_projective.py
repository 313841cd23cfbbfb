"""Tests for the n = k+1 family: Frobenius form, diagonals, shifted strips,
and the decomposition of leg multisets."""

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hookpair.diagrams import (
    CellSet,
    Partition,
    _arm_slice_legs,
    _check_rising,
    _region_rows,
    _rising_stats,
    _rotated_rows,
    arm_slice,
    build_region,
)
from hookpair.errors import (
    CounterexampleFound,
    IndexOutOfRange,
    KindWithoutDiagonal,
    NoShiftRow,
    NotAnInteger,
    NotRising,
    NotWeaklyDecreasing,
    PartExceedsN,
    WrongN,
)
from hookpair.projective import (
    ClassBPartition,
    StrictPartition,
    alpha_from_strict,
    check_prop_techprop,
    diagonal_spec,
    is_class_B,
    m_decomposition,
    projective_report,
    shift_Ti,
    split_pq,
    verify_projective,
)

from util import (
    arm_by_scan,
    count_calls,
    count_cellsets,
    count_region_builds,
    decomposition_reference,
    frobenius_parts,
    leg_by_scan,
    plant_one_arm_run,
    rising_shapes,
    strict_partitions,
)

SMALL = alpha_from_strict(StrictPartition((4, 2), k=5))
GOLD = alpha_from_strict(StrictPartition((11, 9, 8, 5, 3, 2), k=12))


def family_members(max_k):
    for k in range(1, max_k + 1):
        for parts in strict_partitions(k):
            yield alpha_from_strict(StrictPartition(parts, k))


def sampled_members(seed, low_k, high_k, count):
    """``count`` seeded members, k spread evenly over low_k .. high_k and
    each of 1 .. k a part with probability one half."""
    rng = random.Random(seed)
    for t in range(count):
        k = low_k + (high_k - low_k) * t // (count - 1)
        parts = tuple(x for x in range(k, 0, -1) if rng.random() < 0.5)
        yield alpha_from_strict(StrictPartition(parts, k))


class TestStrictPartition:
    def test_valid(self):
        l = StrictPartition((4, 2), k=5)
        assert l.m == 2 and str(l) == "(4,2)"

    def test_empty_allowed(self):
        assert StrictPartition((), k=3).m == 0

    def test_rejects_repeats(self):
        with pytest.raises(NotWeaklyDecreasing):
            StrictPartition((3, 3), k=5)

    def test_rejects_overlarge_part(self):
        with pytest.raises(PartExceedsN):
            StrictPartition((6,), k=5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            StrictPartition((2, 0), k=5)

    @pytest.mark.parametrize("parts, k", [((0,), 3), ((2, -1), 3), ((), 0)])
    def test_non_positive_is_a_typed_error(self, parts, k):
        # these raised a bare ValueError, which HookpairError handlers missed
        with pytest.raises(IndexOutOfRange):
            StrictPartition(parts, k)

    @pytest.mark.parametrize(
        "parts, k", [((1.5,), 3), ((3, 1.0), 3), ((True,), 3), ((2,), 3.0)]
    )
    def test_rejects_non_int(self, parts, k):
        with pytest.raises(NotAnInteger):
            StrictPartition(parts, k)


class TestFrobeniusForm:
    def test_small_alpha(self):
        assert SMALL.alpha.parts == (5, 4, 2, 1, 0)
        assert SMALL.m == 2 and SMALL.n == 6

    def test_gold_alpha(self):
        assert GOLD.alpha.parts == (12, 11, 11, 9, 8, 8, 6, 4, 3, 3, 1, 0)
        assert GOLD.m == 6

    def test_empty_lambda(self):
        b = alpha_from_strict(StrictPartition((), k=3))
        assert b.alpha.parts == (0, 0, 0)

    def test_recognizer_accepts(self):
        b = is_class_B(Partition((5, 4, 2, 1, 0), k=5, n=6))
        assert b is not None
        assert b.lam.parts == (4, 2) and b.m == 2

    def test_recognizer_rejects(self):
        assert is_class_B(Partition((2, 1), k=2, n=3)) is None

    def test_recognizer_accepts_rectangle(self):
        k = 4
        b = is_class_B(Partition((k + 1,) * k, k=k, n=k + 1))
        assert b is not None
        assert b.lam.parts == tuple(k + 1 - j for j in range(1, k + 1))

    def test_members_match_their_hooks(self):
        for b in family_members(9):
            assert b.alpha.parts == frobenius_parts(b.lam.parts, b.k), b.lam

    def test_sampled_members_match_their_hooks_and_round_trip(self):
        for b in sampled_members(18, 10, 40, 40):
            assert b.alpha.parts == frobenius_parts(b.lam.parts, b.k), b.lam
            assert is_class_B(b.alpha) == b, b.lam

    def test_recognizer_needs_matching_bound(self):
        with pytest.raises(WrongN):
            is_class_B(Partition((2, 1), k=2, n=2))

    def test_round_trip_sweep(self):
        for b in family_members(6):
            back = is_class_B(b.alpha)
            assert back is not None
            assert back.lam.parts == b.lam.parts and back.m == b.m


class TestDiagonals:
    def test_diagram_diagonal_cells(self):
        spec = diagonal_spec(SMALL, "D")
        assert spec.total == 6
        assert spec.cells == ((4, 2), (5, 1))

    def test_strip_diagonal_line(self):
        spec = diagonal_spec(SMALL, "T")
        assert spec.total == 11
        assert spec.cells == ((3, 8), (4, 7), (5, 6))

    def test_split_counts_on_diagram(self):
        dgm = build_region(SMALL.alpha, "D")
        p, q = split_pq(dgm, "D", SMALL)
        assert len(p) == len(q) == 6
        assert len(p) == sum(SMALL.lam.parts)

    def test_split_counts_equal_sweep(self):
        # on or below the diagonal: one cell per diagonal hook plus its leg;
        # above: the arms; the two sides balance exactly in this family
        for b in family_members(5):
            dgm = build_region(b.alpha, "D")
            p, q = split_pq(dgm, "D", b)
            assert len(p) == len(q) == sum(b.lam.parts), b.alpha

    def test_rectangle_regions_share_diagonal(self):
        rect = build_region(SMALL.alpha, "R")
        p, q = split_pq(rect, "R", SMALL)
        assert len(p) + len(q) == len(rect)
        assert all(r + c <= 6 for r, c in p)
        assert all(r + c > 6 for r, c in q)

    def test_square_and_strip_agree_below_diagonal(self):
        for b in family_members(5):
            sq = build_region(b.alpha, "SQ")
            strip = build_region(b.alpha, "T")
            p_sq, _ = split_pq(sq, "SQ", b)
            p_t, _ = split_pq(strip, "T", b)
            assert p_sq == p_t, b.alpha

    def test_spec_matches_region_scan_sweep(self):
        for b in family_members(6):
            for kind in ("D", "R", "T", "SQ", "Tstar"):
                spec = diagonal_spec(b, kind)
                cells = sorted(x for x in build_region(b.alpha, kind) if sum(x) == spec.total)
                assert spec.cells == tuple(cells), (b.alpha, kind)

    def test_kinds_without_diagonal(self):
        v = build_region(SMALL.alpha, "V")
        with pytest.raises(KindWithoutDiagonal):
            split_pq(v, "V", SMALL)
        with pytest.raises(KindWithoutDiagonal):
            diagonal_spec(SMALL, "R1")


class TestShiftedStrip:
    def test_gold_shift_row(self):
        _, u = shift_Ti(GOLD, 5)
        assert u == 9

    def test_shift_row_oracle_sweep(self):
        # independent reading: u is the smallest row whose arm-(i-1) cell
        # sits strictly above the strip diagonal
        for b in family_members(5):
            strip = build_region(b.alpha, "T")
            total = b.k + b.alpha.part(1) + 1
            for i in range(1, b.k + 2):
                rows = sorted(
                    r for r, c in arm_slice(strip, i) if r + c > total
                )
                expected = rows[0] if rows else None
                _, u = shift_Ti(b, i)
                assert u == expected, (b.alpha, i)

    def test_rectangle_never_shifts(self):
        k = 4
        b = is_class_B(Partition((k + 1,) * k, k=k, n=k + 1))
        for i in range(1, k + 2):
            ti, u = shift_Ti(b, i)
            assert u is None
            assert ti == build_region(b.alpha, "T")

    def test_shifted_rows_form_block(self):
        ti, u = shift_Ti(SMALL, 1)
        assert u == 3
        a1 = SMALL.alpha.part(1)
        for j in range(u, SMALL.k + 1):
            assert ti.row_cols(j) == list(range(a1 + 1, a1 + SMALL.k + 2))
        for j in range(1, u):
            assert ti.row_cols(j) == build_region(SMALL.alpha, "T").row_cols(j)

    def test_shift_matches_truncated_partition(self):
        # replacing the parts from the shift row on with zeros produces the
        # same strip, and rotating gives that partition's rotated strip
        for b in family_members(5):
            for i in range(1, b.k + 2):
                ti, u = shift_Ti(b, i)
                assert ti.is_skew_valid(), (b.alpha, i)
                if u is None:
                    continue
                beta = tuple(
                    b.alpha.part(j) if j < u else 0
                    for j in range(1, b.k + 1)
                )
                trunc = Partition(beta, k=b.k, n=b.n)
                assert ti == build_region(trunc, "T"), (b.alpha, i)
                assert ti.rotate180() == build_region(trunc, "Tstar")

    def test_cut_bounds(self):
        with pytest.raises(IndexOutOfRange):
            shift_Ti(SMALL, 0)
        with pytest.raises(IndexOutOfRange):
            shift_Ti(SMALL, SMALL.n + 1)


class TestTechprop:
    def test_gold_case(self):
        report = check_prop_techprop(GOLD, 5)
        assert report["u"] == 9
        assert report["parts"] == (True, True, True, True)
        assert report["all"]

    def test_minimal_margin_case(self):
        # u lands one row past the diagonal length
        b = alpha_from_strict(StrictPartition((1,), k=2))
        report = check_prop_techprop(b, 1)
        assert report["u"] == b.m + 1
        assert report["all"]

    def test_holds_everywhere_in_sweep(self):
        for b in family_members(6):
            for i in range(1, b.k + 2):
                _, u = shift_Ti(b, i)
                if u is None:
                    continue
                assert check_prop_techprop(b, i)["all"], (b.alpha, i)

    def test_no_shift_row(self):
        k = 3
        b = is_class_B(Partition((k + 1,) * k, k=k, n=k + 1))
        with pytest.raises(NoShiftRow):
            check_prop_techprop(b, 1)


class TestCutRange:
    """Every per-cut function rejects a cut outside 1..n the same way."""

    @pytest.mark.parametrize(
        "function", [check_prop_techprop, shift_Ti, m_decomposition],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize(
        "lam, k", [((), 1), ((), 2), ((1,), 2), ((4, 2), 5), ((3, 1), 3)],
    )
    def test_cut_outside_range_rejected(self, function, lam, k):
        b = alpha_from_strict(StrictPartition(lam, k))
        for i in (-1, 0, b.n + 1):
            with pytest.raises(IndexOutOfRange, match=f"cut parameter i={i} "):
                function(b, i)

    @pytest.mark.parametrize(
        "function", [check_prop_techprop, shift_Ti, m_decomposition],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("i", [2.5, 2.0, True], ids=repr)
    def test_cut_must_be_int(self, function, i):
        # 2.0 and True used to give results, 2.5 a bare TypeError
        with pytest.raises(NotAnInteger, match="cut parameter i"):
            function(SMALL, i)

    @pytest.mark.parametrize("i", [4, 5])
    def test_cut_past_k_plus_one_has_no_shift_row(self, i):
        # ClassBPartition does not check n = k+1; cuts k+2 .. n exist but
        # no row a <= k has a - alpha_a >= i there
        b0 = alpha_from_strict(StrictPartition((2,), 2))
        b = ClassBPartition(Partition(b0.alpha.parts, k=2, n=5), b0.lam, b0.m)
        strip, u = shift_Ti(b, i)
        assert u is None
        assert strip == build_region(b.alpha, "T")
        for function in (check_prop_techprop, m_decomposition):
            with pytest.raises(NoShiftRow):
                function(b, i)


class TestRowIntervals:
    """The row-interval shapes behind the projective checks, against scans
    of the cells."""

    @staticmethod
    def assert_scan_statistics(rows, note):
        g = CellSet.from_row_intervals(dict(enumerate(rows, 1)))
        stats = _rising_stats(rows)
        assert list(stats) == list(g), note
        for x, got in stats.items():
            assert got == (arm_by_scan(g, x), leg_by_scan(g, x)), (note, x)
        return g

    def test_arm_and_leg_match_scans(self):
        import hookpair.projective as pj

        for b in family_members(6):
            p = b.alpha
            for kind in ("T", "SQ", "R", "D"):
                self.assert_scan_statistics(_region_rows(p, kind), (p, kind))
            for i in range(1, b.k + 2):
                ti, u = shift_Ti(b, i)
                if u is None:
                    continue
                rows = pj._shifted_rows(_region_rows(p, "T"), u, p.part(1))
                note = (p, i)
                assert self.assert_scan_statistics(rows, note) == ti, note
                star = _rotated_rows(rows)
                assert self.assert_scan_statistics(star, note) == ti.rotate180(), note

    def test_arm_slice_legs_match_scans(self):
        # the strip, D, and every shifted strip and its rotation; from every
        # row up from which all rows hold at least i cells
        import hookpair.projective as pj

        for b in family_members(6):
            p = b.alpha
            strip = _region_rows(p, "T")
            shapes = [strip, _region_rows(p, "D")]
            for u in sorted({u for u, _ in pj._cut_rows(p) if u is not None}):
                ti = pj._shifted_rows(strip, u, p.part(1))
                shapes += [ti, _rotated_rows(ti)]
            for rows in shapes:
                g = CellSet.from_row_intervals(dict(enumerate(rows, 1)))
                ends = _check_rising(rows)
                for i in range(1, b.k + 2):
                    long = [len(g.row_cols(r)) >= i for r in range(1, len(rows) + 1)]
                    lowest = long.index(True) + 1 if any(long) else len(rows) + 1
                    for first in range(lowest, len(rows) + 2):
                        cells = [(r, g.row_cols(r)[-i]) for r in range(first, len(rows) + 1)]
                        want = [leg_by_scan(g, x) for x in cells]
                        got = _arm_slice_legs(rows, ends, i, first)
                        assert got == want, (p, rows, i, first)

    @pytest.mark.parametrize("shape", ["strip", "D", "shifted strip", "rotation"])
    def test_falling_shapes_rejected(self, monkeypatch, shape):
        import hookpair.projective as pj

        def falling(make):
            return lambda *args: list(reversed(make(*args)))

        if shape == "shifted strip":
            monkeypatch.setattr(pj, "_shifted_rows", falling(pj._shifted_rows))
        elif shape == "rotation":
            monkeypatch.setattr(pj, "_rotated_rows", falling(pj._rotated_rows))
        else:
            kind = "T" if shape == "strip" else "D"
            original = pj._region_rows
            monkeypatch.setattr(
                pj, "_region_rows",
                lambda p, k: falling(original)(p, k) if k == kind else original(p, k),
            )
        with pytest.raises(NotRising):
            m_decomposition(SMALL, 1)
        with pytest.raises(NotRising):
            projective_report(SMALL)

    @pytest.mark.parametrize(
        "b",
        [alpha_from_strict(StrictPartition((3, 1), k=3)),
         alpha_from_strict(StrictPartition((9, 7, 4, 2), k=9))],
    )
    def test_report_builds_no_region(self, monkeypatch, b):
        built = count_region_builds(monkeypatch, lambda: projective_report(b))
        made = count_cellsets(monkeypatch, lambda: projective_report(b))
        assert built == [] and made == 0

    @given(rising_shapes(), st.integers(1, 12))
    def test_arm_slice_legs_on_rising_shapes(self, rows, i):
        # from every row; where a row from first up is short, the first
        # such row is named
        g = CellSet.from_row_intervals(dict(enumerate(rows, 1)))
        ends = _check_rising(rows)
        for first in range(1, len(rows) + 2):
            short = [(r, hi - lo + 1) for r, (lo, hi) in enumerate(rows, 1)
                     if r >= first and hi - lo + 1 < i]
            if short:
                r, w = short[0]
                with pytest.raises(IndexOutOfRange) as got:
                    _arm_slice_legs(rows, ends, i, first)
                assert str(got.value) == f"row {r} has only {w} cells, need {i}"
                continue
            cells = [(r, g.row_cols(r)[-i]) for r in range(first, len(rows) + 1)]
            want = [leg_by_scan(g, x) for x in cells]
            assert _arm_slice_legs(rows, ends, i, first) == want, (rows, i, first)

    def test_short_row_has_no_arm_slice(self):
        with pytest.raises(IndexOutOfRange, match="^row 2 has only 2 cells, need 3$"):
            _arm_slice_legs([(1, 3), (2, 3)], [3, 3], 3)


class TestMDecomposition:
    def test_gold_indices(self):
        dec = m_decomposition(GOLD, 5)
        assert dec.u == 9 and dec.s == 8 and dec.s_eff == 8
        assert dec.passed
        assert dec.m12 == Counter({1: 1, 2: 1, 3: 1, 4: 1})
        assert dec.m21 == Counter({0: 1, 1: 1, 2: 1, 3: 1, 4: 1})
        assert dec.m22 == Counter({1: 1, 2: 1, 3: 1})
        assert dec.m23 == dec.m4

    def test_small_case_with_late_split_index(self):
        # here s = 5 exceeds u = 3, and the effective boundary is u
        dec = m_decomposition(SMALL, 1)
        assert (dec.u, dec.s, dec.s_eff) == (3, 5, 3)
        assert dec.m1 == Counter({0: 3, 1: 1, 2: 1})
        assert dec.m2 == dec.m1
        assert dec.m3 == Counter({0: 2})
        assert dec.m4 == Counter({0: 2})
        assert dec.m11 == Counter({0: 2})
        assert dec.m12 == Counter({0: 1, 1: 1, 2: 1})
        assert dec.m21 == Counter({0: 1, 1: 1, 2: 1})
        assert dec.m22 == Counter()
        assert dec.m23 == Counter({0: 2})
        assert dec.passed

    def test_arm_zero_cut_has_empty_low_range(self):
        dec = m_decomposition(SMALL, 1)
        assert dec.m3 == dec.m4

    def test_all_cuts_of_small_case(self):
        for i in range(1, SMALL.k + 2):
            _, u = shift_Ti(SMALL, i)
            if u is None:
                continue
            assert m_decomposition(SMALL, i).passed, i

    def test_decomposition_sweep(self):
        for b in family_members(5):
            for i in range(1, b.k + 2):
                _, u = shift_Ti(b, i)
                if u is None:
                    continue
                dec = m_decomposition(b, i)
                assert dec.m1 == dec.m11 + dec.m12
                assert dec.m2 == dec.m21 + dec.m22 + dec.m23

    def test_missing_shift_row_raises(self):
        k = 3
        b = is_class_B(Partition((k + 1,) * k, k=k, n=k + 1))
        with pytest.raises(NoShiftRow):
            m_decomposition(b, 1)

    def test_broken_shift_detected(self, monkeypatch):
        import hookpair.projective as pj

        def unshifted(strip, u, a1):
            return list(strip)

        monkeypatch.setattr(pj, "_shifted_rows", unshifted)
        with pytest.raises(CounterexampleFound) as exc:
            m_decomposition(SMALL, 1)
        assert exc.value.detail["failed"]
        assert exc.value.case == {
            "alpha": [5, 4, 2, 1, 0], "k": 5, "n": 6, "theorem": "proj", "i": 1,
            "repro": "hookpair verify --k 5 --n 6 --alpha 5,4,2,1,0 --theorem proj",
        }


class TestArmClassLinks:
    """Per arm class of P(SQ), p(R) and q(D), read off built cell sets: the
    facts that tie the per-cut checks to the diagonal identity."""

    @staticmethod
    def arm_classes(b):
        """{kind: {arm: legs}} of P(SQ), p(R) and q(D), each cell measured
        in its whole region."""
        out = {}
        for kind, half in (("SQ", 0), ("R", 0), ("D", 1)):
            g = build_region(b.alpha, kind)
            classes = {}
            for x in split_pq(g, kind, b)[half]:
                classes.setdefault(g.arm(x), []).append(g.leg(x))
            out[kind] = classes
        return out

    def test_arms_never_exceed_k(self):
        for b in family_members(7):
            for kind, classes in self.arm_classes(b).items():
                assert max(classes, default=0) <= b.k, (b.lam, kind)

    def test_low_part_of_r_has_every_low_leg_once(self):
        for b in family_members(7):
            for arm, legs in self.arm_classes(b)["R"].items():
                assert sorted(legs) == list(range(arm)), (b.lam, arm)

    def test_shift_row_cuts_read_m3_and_m4(self):
        cuts = 0
        for b in family_members(7):
            classes = self.arm_classes(b)
            for i in range(1, b.k + 2):
                try:
                    dec = m_decomposition(b, i)
                except NoShiftRow:
                    continue
                cuts += 1
                assert Counter(classes["SQ"].get(i - 1, [])) == dec.m3, (b.lam, i)
                assert Counter(classes["D"].get(i - 1, [])) == dec.m4, (b.lam, i)
        assert cuts == 1291


class TestDecompositionKernel:
    """The cut kernel against a direct construction, and what it builds."""

    FIELDS = ("m1", "m2", "m3", "m4", "m11", "m12", "m21", "m22", "m23")

    def assert_matches_reference(self, members):
        """The number of cuts with a shift row, after checking every cut."""
        checked = 0
        for b in members:
            for i in range(1, b.k + 2):
                ref = decomposition_reference(b, i)
                if ref is None:
                    with pytest.raises(NoShiftRow):
                        m_decomposition(b, i)
                    continue
                dec = m_decomposition(b, i)
                got = {name: getattr(dec, name) for name in ("u", "s", "s_eff") + self.FIELDS}
                assert got == ref, (b.alpha, i)
                checked += 1
        return checked

    def test_matches_reference(self):
        assert self.assert_matches_reference(family_members(6)) == 522

    def test_matches_reference_on_sampled_large_members(self):
        assert self.assert_matches_reference(sampled_members(17, 7, 30, 12)) > 100

    def test_leg_lists_compare_multiplicities(self, monkeypatch):
        # m2 with its first leg read twice holds the same legs as m1 as
        # sets, one multiplicity apart
        import hookpair.projective as pj

        slices = []

        def first_leg_twice_in_m2(rows, ends, i, first=1):
            slices.append(_arm_slice_legs(rows, ends, i, first))
            legs = slices[-1]
            return legs + legs[:1] if len(slices) == 2 else legs  # m1, m2, m3, m4

        monkeypatch.setattr(pj, "_arm_slice_legs", first_leg_twice_in_m2)
        with pytest.raises(CounterexampleFound) as exc:
            m_decomposition(GOLD, 5)
        m1, m2 = slices[:2]
        assert sorted(m1) == sorted(m2) and set(m2 + m2[:1]) == set(m1)
        assert "m1_vs_m2" in exc.value.detail["failed"]

    def test_report_builds_one_shifted_strip_per_shift_row(self, monkeypatch):
        import hookpair.projective as pj

        shared = 0
        for b in [GOLD, *family_members(6)]:
            reports = []
            shifts = count_calls(
                monkeypatch, pj, "_shifted_rows", lambda: reports.append(projective_report(b))
            )
            made = count_calls(monkeypatch, pj, "MDecomposition", lambda: projective_report(b))
            us = [row["u"] for row in reports[0]["perI"] if row["u"] is not None]
            assert sorted(u for _, u, _ in shifts) == sorted(set(us)), b.alpha
            assert made == [], b.alpha
            shared += len(us) > len(set(us))
        assert shared > 0


class TestProjectiveIdentity:
    def test_small_case_passes(self):
        report = verify_projective(SMALL)
        assert report["theorem"] == "pass"
        assert report["alpha"] == [5, 4, 2, 1, 0]
        assert report["lambda"] == [4, 2]
        assert report["m"] == 2

    def test_gold_case_passes(self):
        assert verify_projective(GOLD)["theorem"] == "pass"

    def test_empty_lambda(self):
        b = alpha_from_strict(StrictPartition((), k=3))
        report = verify_projective(b)
        assert report["theorem"] == "pass"
        dgm = build_region(b.alpha, "D")
        assert len(dgm) == 0
        skipped = [row for row in report["perI"] if row["u"] is None]
        assert [row["i"] for row in skipped] == [4]

    def test_report_schema(self):
        report = projective_report(SMALL)
        assert sorted(report) == ["alpha", "lambda", "m", "perI", "theorem"]
        assert [row["i"] for row in report["perI"]] == list(range(1, 7))
        for row in report["perI"]:
            assert sorted(row) == ["i", "mChecks", "s", "techprop", "u"]
            if row["u"] is None:
                assert row["mChecks"] == "skipped"
                assert row["s"] is None and row["techprop"] is None
            else:
                assert row["mChecks"] == "pass"
                assert row["techprop"] == [True, True, True, True]

    def test_identity_sweep(self):
        for b in family_members(5):
            assert projective_report(b)["theorem"] == "pass", b.alpha

    def test_failure_names_first_difference_from_one_pass(self, monkeypatch):
        import hookpair.projective as pj

        original = pj._rising_runs
        shapes = []

        def corrupted(rows, part):
            out = original(rows, part)
            shapes.append(len(rows))
            if len(rows) == 2 * SMALL.k:  # SQ, the only region with 2k rows
                plant_one_arm_run(out, arm=-1, leg=-1)
            return out

        monkeypatch.setattr(pj, "_rising_runs", corrupted)
        with pytest.raises(CounterexampleFound) as exc:
            verify_projective(SMALL)
        assert exc.value.detail == {"key": (-1, -1), "left": 1, "right": 0}
        assert sorted(shapes) == [SMALL.k, SMALL.k, 2 * SMALL.k]

    def test_failure_names_first_failing_cut(self, monkeypatch):
        import hookpair.projective as pj

        # the multisets still agree; cuts 1 and 2 fail their range checks
        monkeypatch.setattr(pj, "_shifted_rows", lambda strip, u, a1: list(strip))
        with pytest.raises(CounterexampleFound) as exc:
            verify_projective(SMALL)
        assert exc.value.detail == {
            "i": 1, "failed": ["m12_range", "m21_range", "m22_range"],
        }
        with pytest.raises(CounterexampleFound) as dec:
            m_decomposition(SMALL, 1)
        assert dec.value.detail["failed"] == exc.value.detail["failed"]

    def test_failure_names_failing_techprop_clause(self, monkeypatch):
        import hookpair.projective as pj

        original = pj._techprop

        def clause_fails_at_cut_4(part, m, i, u):
            clauses = original(part, m, i, u)
            return (True, False, True, True) if i == 4 else clauses

        monkeypatch.setattr(pj, "_techprop", clause_fails_at_cut_4)
        with pytest.raises(CounterexampleFound) as exc:
            verify_projective(SMALL)
        assert exc.value.detail == {"i": 4, "failed": ["techprop"]}

    def test_failure_names_cell_comparison_last(self, monkeypatch):
        import hookpair.projective as pj

        # distinct objects, so the diagonal parts of SQ and T never compare equal
        monkeypatch.setattr(pj, "_occupied", lambda rows: [id(rows)])
        with pytest.raises(CounterexampleFound) as exc:
            verify_projective(SMALL)
        assert exc.value.detail == {"sameCells": False}
