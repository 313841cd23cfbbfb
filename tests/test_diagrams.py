from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hookpair.diagrams import (
    REGION_KINDS,
    CellSet,
    Partition,
    _decimal,
    _expand_runs,
    _leg_runs,
    _region_rows,
    _region_stats,
    _require_int,
    _rising_runs,
    _rising_stats,
    _same_runs,
    al_multiset,
    arm_prefix,
    arm_slice,
    build_region,
    conjugate,
    first_multiset_difference,
    hook_multiset,
    multiset_to_json,
)
from hookpair.errors import (
    CellNotInSet,
    EmptyField,
    EmptySet,
    HookpairError,
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
from util import (
    all_partitions,
    arm_by_scan,
    cell_sets,
    coleg_by_scan,
    leg_by_scan,
    partitions,
    plant_one_arm_run,
    skew_valid_by_scan,
    sweep_partitions,
)


class TestPartition:
    def test_valid(self):
        p = Partition((6, 5, 3, 1), 4, 6)
        assert p.parts == (6, 5, 3, 1)

    def test_all_zero_is_valid(self):
        assert Partition((0, 0), 2, 3).parts == (0, 0)

    def test_increasing_rejected(self):
        with pytest.raises(NotWeaklyDecreasing):
            Partition((3, 5), 2, 6)

    def test_negative_rejected(self):
        with pytest.raises(NotWeaklyDecreasing):
            Partition((2, -1), 2, 6)

    def test_part_exceeds_bound(self):
        with pytest.raises(PartExceedsN):
            Partition((7, 1), 2, 6)

    def test_wrong_length(self):
        with pytest.raises(WrongLength):
            Partition((3, 2, 1), 2, 6)

    def test_from_text_pads_zeros(self):
        p = Partition.from_text("6,5,3,1", 6, 7)
        assert p.parts == (6, 5, 3, 1, 0, 0)

    def test_from_text_too_many(self):
        with pytest.raises(WrongLength):
            Partition.from_text("1,1,1", 2, 3)

    @pytest.mark.parametrize("text", ["3,,1", ",3", "3,", " , "])
    def test_from_text_rejects_empty_field(self, text):
        with pytest.raises(EmptyField):
            Partition.from_text(text, 3, 4)

    @pytest.mark.parametrize("field", ["1_0", "+3", "٣", "１", "1.5", "x"])
    def test_from_text_rejects_non_decimal_field(self, field):
        # int() would take the first four as 10, 3, 3 and 1
        with pytest.raises(NotAnInteger) as exc:
            Partition.from_text(f"{field},1", 3, 12)
        assert repr(field) in str(exc.value)

    def test_from_text_strips_and_keeps_sign(self):
        assert Partition.from_text(" 3 , 1 ", 2, 4).parts == (3, 1)
        with pytest.raises(NotWeaklyDecreasing):
            Partition.from_text("3,-1", 2, 4)

    @pytest.mark.parametrize("k", [2.0, True, "3"], ids=repr)
    def test_from_text_bound_must_be_int(self, k):
        # padding with (0,) * (k - len(parts)) raised a bare TypeError for 2.0
        with pytest.raises(NotAnInteger, match="^bound k must be an integer"):
            Partition.from_text("1", k, 3)

    @pytest.mark.parametrize("text", ["", "  "])
    def test_from_text_blank_is_all_zero(self, text):
        assert Partition.from_text(text, 3, 4).parts == (0, 0, 0)

    @pytest.mark.parametrize(
        "parts, k, n",
        [
            ((1.5,), 1, 2),
            ((True,), 1, 1),
            ((2, False), 2, 2),
            ((2, "1"), 2, 2),
            ((1,), 1.0, 2),
            ((1,), 1, True),
        ],
    )
    def test_non_int_rejected(self, parts, k, n):
        with pytest.raises(NotAnInteger) as exc:
            Partition(parts, k, n)
        assert isinstance(exc.value, HookpairError)

    def test_conjugate_small(self):
        assert conjugate(Partition((2, 1), 2, 2)).parts == (2, 1)

    def test_conjugate_typical(self):
        q = conjugate(Partition((5, 4, 2, 1, 0), 5, 6))
        assert q.parts == (4, 3, 2, 2, 1, 0)
        assert q.k == 6 and q.n == 5

    @given(partitions())
    def test_conjugate_matches_counting(self, p):
        q = conjugate(p)
        for j in range(1, p.n + 1):
            assert q.parts[j - 1] == sum(1 for a in p.parts if a >= j)
        assert conjugate(q) == p


class TestIntegerRule:
    """``_decimal`` reads outside text and ``_require_int`` checks values."""

    @pytest.mark.parametrize("text, value", [("0", 0), ("-3", -3), (" 12 ", 12), ("007", 7)])
    def test_decimal_reads_ascii_digits(self, text, value):
        assert _decimal(text) == value

    @pytest.mark.parametrize("text", ["+3", "1_0", "١", "１", "", "-", "1.0", "0x1", "1 2"])
    def test_decimal_rejects_other_text(self, text):
        with pytest.raises(NotAnInteger, match="is not a decimal integer"):
            _decimal(text)

    def test_decimal_names_what_it_read(self):
        with pytest.raises(NotAnInteger, match="^HOOKPAIR_JOBS '1_0' "):
            _decimal("1_0", "HOOKPAIR_JOBS")

    @pytest.mark.parametrize("value", [True, False, 1.0, 2.5, "1", None])
    def test_require_int_rejects_non_int(self, value):
        with pytest.raises(NotAnInteger, match="^count must be an integer"):
            _require_int(value, "count")

    def test_require_int_lower_bound(self):
        assert _require_int(-5, "count") == -5
        assert _require_int(1, "count", 1) == 1
        with pytest.raises(IndexOutOfRange, match="^count must be at least 1, got 0$"):
            _require_int(0, "count", 1)

    @pytest.mark.parametrize("k, n", [(0, 2), (1, 0), (-1, 3)])
    def test_non_positive_partition_bounds(self, k, n):
        # these raised a bare ValueError, which HookpairError handlers missed
        with pytest.raises(IndexOutOfRange) as exc:
            Partition((0,) * max(k, 0), k, n)
        assert isinstance(exc.value, HookpairError)

    def test_arm_index_must_be_int(self):
        t = build_region(Partition((2, 1), 2, 2), "T")
        for i in (True, 1.0):
            with pytest.raises(NotAnInteger):
                arm_slice(t, i)
            with pytest.raises(NotAnInteger):
                arm_prefix(t, i)

    def test_cell_outside_quadrant(self):
        with pytest.raises(IndexOutOfRange):
            CellSet([(0, 1)])
        with pytest.raises(IndexOutOfRange):
            CellSet.from_row_intervals({1: (0, 2)})


class TestCellSet:
    def test_statistics_against_scan(self):
        g = CellSet({(1, 1), (1, 2), (2, 2), (2, 3), (4, 2)})
        for cell in g:
            assert g.arm(cell) == arm_by_scan(g, cell)
            assert g.leg(cell) == leg_by_scan(g, cell)
            assert g.coleg(cell) == coleg_by_scan(g, cell)

    @given(cell_sets)
    def test_statistics_random(self, g):
        for cell in g:
            assert g.arm(cell) == arm_by_scan(g, cell)
            assert g.leg(cell) == leg_by_scan(g, cell)
            assert g.coleg(cell) == coleg_by_scan(g, cell)
            assert g.hook(cell) == g.arm(cell) + g.leg(cell) + 1

    @given(cell_sets)
    def test_column_length_identity(self, g):
        for cell in g:
            col_len = len(g.col_rows(cell[1]))
            assert g.coleg(cell) + g.leg(cell) + 1 == col_len

    def test_missing_cell(self):
        g = CellSet({(1, 1)})
        with pytest.raises(CellNotInSet):
            g.arm((5, 5))

    def test_rotate180_l_shape(self):
        g = CellSet({(1, 1), (1, 2), (2, 2)})
        assert g.rotate180() == CellSet({(1, 1), (2, 1), (2, 2)})

    @given(cell_sets)
    def test_rotate180_involution(self, g):
        assert g.rotate180().rotate180() == g.normalize()

    @given(cell_sets)
    def test_reflect_involution(self, g):
        assert g.reflect_vertical().reflect_vertical() == g.normalize()

    def test_reflect_single_cell(self):
        assert CellSet({(3, 5)}).reflect_vertical() == CellSet({(1, 1)})

    def test_empty_transforms_rejected(self):
        empty = CellSet()
        for op in (empty.bounds, empty.rotate180, empty.reflect_vertical, empty.normalize):
            with pytest.raises(EmptySet, match="^operation needs a non-empty cell set$"):
                op()

    def test_equality_hash_and_repr(self):
        g = CellSet({(2, 1), (1, 1)})
        same = CellSet([(1, 1), (2, 1), (1, 1)])
        assert g == same and hash(g) == hash(same)
        assert g != CellSet({(1, 1)})
        # any other type is unequal, through NotImplemented
        assert g.__eq__(g.cells) is NotImplemented
        assert g != g.cells and g != [(1, 1), (2, 1)]
        assert repr(g) == "CellSet([(1, 1), (2, 1)])"

    def test_ragged_row_is_a_package_error(self):
        with pytest.raises(HookpairError) as exc:
            CellSet({(1, 1), (1, 3), (2, 2)}).row_intervals()
        assert isinstance(exc.value, NotContiguous)
        assert str(exc.value) == "row 1 is not contiguous"

    @pytest.mark.parametrize(
        "cells",
        [[(1.5, 2)], [(1, 2.0)], [(True, 1)], [(1, False)], [(1, 1), (True, 1)],
         [(1.5, 2), (True, 1)]],
    )
    def test_rejects_non_int_coordinates(self, cells):
        # True and 1.0 hash like 1, so a set would silently merge them
        with pytest.raises(NotAnInteger):
            CellSet(cells)

    @pytest.mark.parametrize("stat", ["arm", "leg", "coleg", "hook"])
    @pytest.mark.parametrize("cell", [(1.0, 1), (1, 1.0), (True, 1), (1, True)])
    def test_statistics_reject_non_int_coordinates(self, stat, cell):
        # each hashes like the member (1, 1), so it used to be measured
        g = CellSet({(1, 1), (1, 2), (2, 1)})
        with pytest.raises(NotAnInteger):
            getattr(g, stat)(cell)

    @pytest.mark.parametrize("bounds", [(1, 2.0), (1.0, 2), (True, 2), (1, "2")])
    def test_json_rejects_non_int_bounds(self, bounds):
        with pytest.raises(NotAnInteger):
            CellSet.from_row_intervals({1: bounds})

    def test_json_rejects_non_int_row(self):
        with pytest.raises(NotAnInteger):
            CellSet.from_row_intervals({1.5: (1, 2)})

    @given(cell_sets)
    def test_skew_valid_against_scan(self, g):
        assert g.is_skew_valid() == skew_valid_by_scan(g)

    @pytest.mark.parametrize(
        "cells, valid",
        [
            ({(1, 1), (1, 2), (2, 2), (2, 4)}, False),  # row 2 has a gap
            ({(1, 2), (1, 3), (2, 1), (2, 2), (2, 3)}, False),  # lo falls
            ({(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)}, False),  # hi falls
            ({(1, 1), (1, 2), (3, 2), (3, 3), (3, 4)}, True),  # empty row 2
            (set(), True),
        ],
    )
    def test_skew_valid_cases(self, cells, valid):
        g = CellSet(cells)
        assert g.is_skew_valid() is valid
        assert skew_valid_by_scan(g) is valid


class TestRegions:
    def test_t_small(self):
        t = build_region(Partition((2, 1), 2, 2), "T")
        assert t.cells == {(1, 1), (1, 2), (2, 2), (2, 3)}

    def test_d_staircase(self):
        d = build_region(Partition((6, 5, 3, 1), 4, 6), "D")
        assert len(d) == 15
        assert d.row_cols(1) == [1]
        assert d.row_cols(4) == [1, 2, 3, 4, 5, 6]

    def test_sq_cardinality_small(self):
        p = Partition((2, 1), 2, 2)
        sq = build_region(p, "SQ")
        assert len(sq) == 7
        assert sq.arm((3, 3)) == 1 and sq.leg((3, 3)) == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_region(Partition((1,), 1, 1), "Q")

    def test_unknown_kind_is_a_package_error(self):
        with pytest.raises(HookpairError) as exc:
            build_region(Partition((1,), 1, 1), "Q")
        assert isinstance(exc.value, UnknownChoice)
        assert str(exc.value) == "unknown region kind 'Q'"

    def test_cardinalities_sweep(self):
        for p in sweep_partitions(4, 4):
            sq = build_region(p, "SQ")
            r = build_region(p, "R")
            d = build_region(p, "D")
            assert len(sq) == len(r) + len(d) == p.k * p.n + sum(p.parts)
            assert len(build_region(p, "T")) == p.k * p.n
            assert len(build_region(p, "V")) == sum(p.parts)

    def test_all_regions_skew_valid_sweep(self):
        skew_kinds = ("D", "R", "T", "V", "SQ", "Tstar", "T1star", "T2star")
        for p in sweep_partitions(3, 3):
            for kind in skew_kinds:
                assert build_region(p, kind).is_skew_valid(), (p, kind)
            # R1 and R2 are mirror images of skew shapes, not skew shapes
            for kind in ("R1", "R2"):
                g = build_region(p, kind)
                if len(g):
                    assert g.reflect_vertical().is_skew_valid(), (p, kind)

    def test_split_cardinalities(self):
        p = Partition((6, 5, 3, 1), 4, 6)
        r1 = build_region(p, "R1")
        r2 = build_region(p, "R2")
        t1 = build_region(p, "T1star")
        t2 = build_region(p, "T2star")
        assert len(r1) == 15 and len(r2) == 9
        assert len(t1) == 9 and len(t2) == 15
        r = build_region(p, "R")
        assert r1.cells | r2.cells == r.cells and not (r1.cells & r2.cells)
        tstar = build_region(p, "Tstar")
        assert t1.cells | t2.cells == tstar.cells and not (t1.cells & t2.cells)

    def test_full_width_parts_empty_r2_rows(self):
        p = Partition((3, 3, 1), 3, 3)
        r2 = build_region(p, "R2")
        assert r2.row_cols(2) == [] and r2.row_cols(3) == []
        assert r2.row_cols(1) == [1, 2]


class TestRisingLeg:
    """Legs in rising shapes, read by the ``_leg_runs`` row walk."""

    @pytest.mark.parametrize(
        "rows",
        [
            [(2, 4), (1, 5)],
            [(1, 5), (2, 4)],
            [(1, 3), (3, 5), (2, 6)],
            [(3, 5), (1, 0), (2, 6)],
            [(3, 5), (4, 3), (3, 4)],
        ],
    )
    def test_falling_rows_rejected(self, rows):
        with pytest.raises(NotRising):
            _rising_stats(rows)

    def test_mirrored_rectangle_halves_rejected(self):
        p = Partition((6, 5, 3, 1), 4, 6)
        for kind in ("R1", "R2"):
            rows = _region_rows(p, kind)
            with pytest.raises(NotRising):
                _rising_stats(rows)

    def test_empty_rows_are_skipped(self):
        rows = [(1, 0), (1, 2), (9, 3), (2, 4), (5, 4), (2, 6)]
        g = CellSet.from_row_intervals(dict(enumerate(rows, 1)))
        stats = _rising_stats(rows)
        assert list(stats) == list(g)
        for (r, c), (_, leg) in stats.items():
            assert leg == leg_by_scan(g, (r, c)), (r, c)

    def test_runs_tile_rows_sweep(self):
        # the runs of each row of a part follow one another from its left
        # end to its right end, and each run's leg is that of its cells
        kinds = [kind for kind in REGION_KINDS if kind not in ("R1", "R2")]
        for p in sweep_partitions(5, 5):
            for kind in kinds:
                rows = _region_rows(p, kind)
                g = build_region(p, kind)
                legs = {x: leg_by_scan(g, x) for x in g}
                lines = line_parts(p, rows, [p.k + 1, p.k + p.part(1) + 1])
                for part in [rows] + [part for _, _, part in lines]:
                    ends = {}  # row: one past the last column its runs cover
                    for r, hi, leg, c0, c1 in _leg_runs(rows, part):
                        assert r >= max(ends, default=1) and hi == rows[r - 1][1]
                        assert c0 == ends.get(r, part[r - 1][0]) and c0 <= c1
                        ends[r] = c1 + 1
                        for c in range(c0, c1 + 1):
                            assert leg == legs[r, c], (p, kind, r, c)
                    want = {r: hi + 1 for r, (lo, hi) in enumerate(part, 1) if lo <= hi}
                    assert ends == want, (p, kind, part)


class TestRegionStats:
    """_region_stats against scans of the built region's cells."""

    KINDS = ("T", "Tstar", "SQ", "R", "D")

    @classmethod
    def assert_stats_match_scans(cls, p):
        for kind in cls.KINDS:
            g = build_region(p, kind)
            stats = _region_stats(p, kind)
            # the same cells, in row-major order
            assert list(stats) == list(g), (p, kind)
            for cell, al in stats.items():
                assert al == (arm_by_scan(g, cell), leg_by_scan(g, cell)), (p, kind, cell)

    def test_matches_scans_sweep(self):
        for p in sweep_partitions(4, 4):
            self.assert_stats_match_scans(p)

    @given(partitions(max_k=8, max_n=8))
    def test_matches_scans_sample(self, p):
        self.assert_stats_match_scans(p)

    def test_falling_regions_rejected(self):
        p = Partition((6, 5, 3, 1), 4, 6)
        for kind in ("R1", "R2"):
            with pytest.raises(NotRising):
                _region_stats(p, kind)

    def test_part_stats_match_scans_sweep(self):
        # the runs of the parts on either side of every line r + c = total,
        # measured in the whole region, cell by cell
        for p in sweep_partitions(3, 3):
            for kind in self.KINDS:
                rows = _region_rows(p, kind)
                g = build_region(p, kind)
                scanned = [(x, (arm_by_scan(g, x), leg_by_scan(g, x))) for x in g]
                for total, keep, part in line_parts(p, rows):
                    want = [(x, al) for x, al in scanned if (sum(x) <= total) is keep]
                    got = [
                        ((r, c), (hi - c, leg))
                        for r, hi, leg, c0, c1 in _leg_runs(rows, part)
                        for c in range(c0, c1 + 1)
                    ]
                    assert got == want, (p, kind, total, keep)


def line_parts(p, rows, totals=None):
    """(total, keep, part) for the part of ``rows`` on or below (keep True)
    and above (keep False) each line r + c = total, every line by default."""
    for total in totals or range(1, 2 * p.k + p.n + p.part(1) + 1):
        yield total, True, [(lo, min(hi, total - r)) for r, (lo, hi) in enumerate(rows, 1)]
        yield total, False, [(max(lo, total - r + 1), hi) for r, (lo, hi) in enumerate(rows, 1)]


class TestRunMaps:
    """Run maps against the per-cell (arm, leg) tables they stand for."""

    KINDS = ("T", "Tstar", "SQ", "R", "D", "V")

    @staticmethod
    def expected(rows, part):
        # the whole shape's table, restricted to the part's cells
        return Counter(
            al for (r, c), al in _rising_stats(rows).items()
            if part[r - 1][0] <= c <= part[r - 1][1]
        )

    def assert_lines_expand(self, p, totals=None):
        for kind in self.KINDS:
            rows = _region_rows(p, kind)
            for total, keep, part in line_parts(p, rows, totals):
                got = _expand_runs(_rising_runs(rows, part))
                assert got == self.expected(rows, part), (p, kind, total, keep)

    def test_every_line_expands_sweep(self):
        for p in sweep_partitions(4, 4):
            self.assert_lines_expand(p)

    def test_whole_regions_expand_sweep(self):
        for p in sweep_partitions(6, 6):
            for kind in self.KINDS:
                rows = _region_rows(p, kind)
                got = _expand_runs(_rising_runs(rows, rows))
                assert got == self.expected(rows, rows), (p, kind)

    @given(partitions(max_k=12, max_n=12), st.integers(0, 60))
    def test_lines_expand_sample(self, p, total):
        self.assert_lines_expand(p, [total])

    def test_identity_two_holds_on_maps_sweep(self):
        # (arm, leg) pairs of SQ against those of R and D, compared as maps
        for p in sweep_partitions(5, 5):
            sq, rect, dgm = (_region_rows(p, kind) for kind in ("SQ", "R", "D"))
            right = [_rising_runs(rect, rect), _rising_runs(dgm, dgm)]
            assert _same_runs(_rising_runs(sq, sq), right), p

    def test_moved_cell_is_caught(self):
        p = Partition((4, 2, 1), 3, 4)
        rows = _region_rows(p, "SQ")
        runs = _rising_runs(rows, rows)
        arm, leg = next(iter(_rising_stats(rows).values()))
        moved = dict(runs)
        plant_one_arm_run(moved, arm, leg, -1)
        plant_one_arm_run(moved, arm, leg + 1)
        assert not _same_runs(moved, [runs])
        want = self.expected(rows, rows)
        want[arm, leg] -= 1
        want[arm, leg + 1] += 1
        assert _expand_runs(moved) == want

    def test_run_one_arm_too_long_is_caught(self):
        p = Partition((4, 2, 1), 3, 4)
        rows = _region_rows(p, "SQ")
        runs = _rising_runs(rows, rows)
        # the last run to end: -1 at (leg, end), one past its last arm
        leg, end = max(key for key, step in runs.items() if step < 0)
        longer = dict(runs)
        longer[leg, end] += 1
        longer[leg, end + 1] = longer.get((leg, end + 1), 0) - 1
        assert not _same_runs(longer, [runs])
        want = self.expected(rows, rows)
        want[end, leg] += 1
        assert _expand_runs(longer) == want

    def test_falling_regions_rejected(self):
        p = Partition((6, 5, 3, 1), 4, 6)
        for kind in ("R1", "R2"):
            rows = _region_rows(p, kind)
            with pytest.raises(NotRising):
                _rising_runs(rows, rows)


class TestShapeIdentities:
    def test_rotate_t_gives_tstar(self):
        p = Partition((2, 1), 2, 2)
        t = build_region(p, "T")
        tstar = build_region(p, "Tstar")
        assert t.rotate180() == tstar.normalize()

    def test_sweep_identities(self):
        for p in sweep_partitions(4, 4):
            d = build_region(p, "D")
            t = build_region(p, "T")
            tstar = build_region(p, "Tstar")
            v = build_region(p, "V")
            r1 = build_region(p, "R1")
            r2 = build_region(p, "R2")
            t1 = build_region(p, "T1star")
            t2 = build_region(p, "T2star")

            assert t.rotate180() == tstar.normalize()
            ak = p.parts[-1]
            assert d.translate(0, p.n - ak) == t2
            if len(d):
                assert v.rotate180() == d.normalize()
                assert r1.reflect_vertical() == d.normalize()
            else:
                assert len(v) == 0 and len(r1) == 0 and len(t2) == 0
            if len(r2):
                assert r2.reflect_vertical() == t1.normalize()
            else:
                assert len(t1) == 0


class TestConjugation:
    """The anti-transpose maps SQ, R and D of alpha onto those of its
    conjugate and swaps arm and leg, so identities 1 and 2 at alpha and at
    conjugate(alpha) say the same thing."""

    @staticmethod
    def assert_transposed(p):
        q = conjugate(p)
        for kind in ("SQ", "R", "D"):
            g, h = build_region(p, kind), build_region(q, kind)
            swapped = Counter({(leg, arm): n for (arm, leg), n in al_multiset(h, h).items()})
            assert al_multiset(g, g) == swapped, (p, kind)
            assert hook_multiset(g, g) == hook_multiset(h, h), (p, kind)

    def test_sweep(self):
        for p in sweep_partitions(5, 5):
            self.assert_transposed(p)

    @given(partitions(max_k=12, max_n=12))
    def test_sampled(self, p):
        self.assert_transposed(p)


class TestStatisticsOnRegions:
    def test_al_t_small(self):
        p = Partition((2, 1), 2, 2)
        t = build_region(p, "T")
        assert al_multiset(t, t) == Counter({(1, 0): 1, (0, 0): 2, (1, 1): 1})

    def test_hooks_d_small(self):
        p = Partition((2, 1), 2, 2)
        d = build_region(p, "D")
        assert hook_multiset(d, d) == Counter({3: 1, 1: 2})

    def test_al_identity_small(self):
        p = Partition((2, 1), 2, 2)
        sq = build_region(p, "SQ")
        r = build_region(p, "R")
        d = build_region(p, "D")
        lhs = al_multiset(sq, sq)
        rhs = al_multiset(r, r) + al_multiset(d, d)
        assert lhs == Counter({(1, 0): 1, (0, 0): 3, (1, 1): 2, (0, 1): 1})
        assert +lhs == +rhs

    def test_restricted_multiset(self):
        p = Partition((2, 1), 2, 2)
        t = build_region(p, "T")
        assert al_multiset(t, CellSet({(2, 2)})) == Counter({(1, 1): 1})

    def test_not_a_subset(self):
        t = build_region(Partition((2, 1), 2, 2), "T")
        with pytest.raises(NotASubset):
            al_multiset(t, CellSet({(9, 9)}))
        with pytest.raises(NotASubset):
            hook_multiset(t, CellSet({(9, 9)}))

    @given(partitions(max_k=4, max_n=4))
    def test_hooks_are_image_of_al(self, p):
        g = build_region(p, "SQ")
        al = al_multiset(g, g)
        hooks = Counter()
        for (a, l), cnt in al.items():
            hooks[a + l + 1] += cnt
        assert hooks == hook_multiset(g, g)

    def test_multiset_json_sorted(self):
        m = Counter({(1, 0): 2, (0, 1): 1, (0, 0): 3})
        assert multiset_to_json(m) == [
            {"arm": 0, "leg": 0, "count": 3},
            {"arm": 0, "leg": 1, "count": 1},
            {"arm": 1, "leg": 0, "count": 2},
        ]

    def test_first_difference(self):
        a = Counter({(0, 0): 1, (1, 1): 2})
        b = Counter({(0, 0): 1, (1, 1): 1})
        assert first_multiset_difference(a, b) == {"key": (1, 1), "left": 2, "right": 1}
        assert first_multiset_difference(a, a) is None


class TestArmSliceAndPrefix:
    def test_slice_is_one_per_row(self):
        p = Partition((11, 11, 9, 8, 8, 6, 3, 1, 0), 9, 11)
        t = build_region(p, "T")
        sl = arm_slice(t, 3)
        assert len(sl) == 9
        for cell in sl:
            assert t.arm(cell) == 2

    def test_prefix_cardinality(self):
        p = Partition((11, 11, 9, 8, 8, 6, 3, 1, 0), 9, 11)
        t = build_region(p, "T")
        assert len(arm_prefix(t, 3)) == 27

    def test_slice_one_equals_prefix_one(self):
        for p in all_partitions(3, 3):
            t = build_region(p, "T")
            assert arm_slice(t, 1) == arm_prefix(t, 1)

    def test_prefix_contains_all_smaller_slices(self):
        p = Partition((3, 1, 0), 3, 4)
        t = build_region(p, "T")
        pref = arm_prefix(t, 2)
        assert arm_slice(t, 1).cells | arm_slice(t, 2).cells == pref.cells

    def test_out_of_range(self):
        t = build_region(Partition((2, 1), 2, 2), "T")
        with pytest.raises(IndexOutOfRange):
            arm_slice(t, 0)
        with pytest.raises(IndexOutOfRange):
            arm_slice(t, 3)
        with pytest.raises(IndexOutOfRange):
            arm_prefix(t, 3)
