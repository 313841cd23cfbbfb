"""Tests for the region maps, their certificates, and the identity checks."""

import shlex
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hookpair.bijections import (
    CellMap,
    CertRecord,
    MapEntry,
    build_certificate,
    phi_map,
    psi_map,
    rot_T,
    theorem_report,
    verify_theorem,
    zeta_map,
)
from hookpair.cli import main
from hookpair.diagrams import (
    CellSet,
    Partition,
    _region_rows,
    _region_stats,
    al_multiset,
    arm_slice,
    build_region,
    hook_multiset_to_json,
    multiset_to_json,
)
from hookpair.errors import (
    CellNotInSet,
    CellNotInT,
    CounterexampleFound,
    DuplicateSource,
    HookpairError,
    NotAnInteger,
    UnknownChoice,
)
from hookpair.sweep import SweepConfig, _case_entries, run_sweep

from util import (
    arm_by_scan,
    complement,
    count_calls,
    count_cellsets,
    count_region_builds,
    dyck_reference_calls,
    hook_certificate_reference,
    leg_by_scan,
    partitions,
    phi_reference_json,
    sweep_partitions,
)

BIG = Partition((11, 11, 9, 8, 8, 6, 3, 1, 0), k=9, n=11)
FIG = Partition((6, 5, 3, 1), k=4, n=6)
TWO_CELL = Partition((1, 0), k=2, n=1)


def swapped_phi(p, a, b):
    """phi with the targets of cells a and b exchanged."""
    strip = build_region(p, "T")
    swapped = {e.source: e.target for e in phi_map(p)}
    swapped[a], swapped[b] = swapped[b], swapped[a]
    return CellMap(
        "T",
        [MapEntry(s, t, "Tstar", (strip.arm(s), strip.leg(s)))
         for s, t in swapped.items()],
    )


def colliding_map():
    """Both cells of TWO_CELL's strip sent to one cell of T*."""
    return CellMap(
        "T",
        [
            MapEntry((1, 1), (1, 1), "Tstar", (0, 0)),
            MapEntry((2, 2), (1, 1), "Tstar", (0, 0)),
        ],
    )


def partial_map():
    """TWO_CELL's strip map with the cell (2, 2) left out."""
    return CellMap("T", [MapEntry((1, 1), (2, 2), "Tstar", (0, 0))])


def stray_source_map():
    """TWO_CELL's strip map with the source (2, 2) moved off the strip."""
    return CellMap(
        "T",
        [
            MapEntry((1, 1), (2, 2), "Tstar", (0, 0)),
            MapEntry((2, 1), (1, 1), "Tstar", (0, 0)),
        ],
    )


class TestRotT:
    def test_two_cell_case(self):
        p = Partition((1, 0), k=2, n=1)
        assert rot_T(p, (1, 1)) == (2, 2)
        assert rot_T(p, (2, 2)) == (1, 1)

    def test_image_is_rotated_strip(self):
        for p in sweep_partitions(4, 4):
            strip = build_region(p, "T")
            star = build_region(p, "Tstar")
            image = {rot_T(p, x) for x in strip}
            assert image == star.cells, p

    def test_involution_on_self_rotational_shape(self):
        # (2,1) with k=n=2 has T and T* occupying the same cells, so the
        # rotation can be applied twice and must return the original cell
        p = Partition((2, 1), k=2, n=2)
        for x in build_region(p, "T"):
            assert rot_T(p, rot_T(p, x)) == x

    def test_rejects_outside_cell(self):
        with pytest.raises(CellNotInT):
            rot_T(Partition((2, 1), k=2, n=2), (1, 3))

    @pytest.mark.parametrize("x", [(1.0, 1), (1, 1.0), (True, 1), (1, True)])
    def test_rejects_non_int_coordinates(self, x):
        # (1.0, 1) and (True, 1) hash like the strip cell (1, 1): the first
        # used to come back as (2.0, 2)
        with pytest.raises(NotAnInteger):
            rot_T(Partition((1, 0), k=2, n=1), x)


class TestPhi:
    def test_two_cell_map(self):
        cmap = phi_map(Partition((1, 0), k=2, n=1))
        assert {e.source: e.target for e in cmap} == {
            (1, 1): (2, 2),
            (2, 2): (1, 1),
        }

    def test_staircase_preserves_al(self):
        p = Partition((2, 1), k=2, n=2)
        strip = build_region(p, "T")
        star = build_region(p, "Tstar")
        cmap = phi_map(p)
        assert len(cmap) == 4
        seen = Counter()
        for e in cmap:
            assert (strip.arm(e.source), strip.leg(e.source)) == (
                star.arm(e.target),
                star.leg(e.target),
            )
            seen[e.al] += 1
        assert seen == Counter({(0, 0): 2, (1, 0): 1, (1, 1): 1})

    def test_rectangle_maps_slice_to_slice(self):
        p = Partition((2, 2), k=2, n=3)
        strip = build_region(p, "T")
        star = build_region(p, "Tstar")
        cmap = phi_map(p)
        for i in range(1, p.n + 1):
            src = arm_slice(strip, i).cells
            dst = arm_slice(star, i).cells
            assert {cmap[c].target for c in src} == dst

    def test_bijective_with_al_preserved_sweep(self):
        for p in sweep_partitions(4, 4):
            strip = build_region(p, "T")
            star = build_region(p, "Tstar")
            cmap = phi_map(p)
            assert cmap.sources() == strip.cells
            targets = {e.target for e in cmap}
            assert targets == star.cells, p
            for e in cmap:
                assert e.al == (star.arm(e.target), star.leg(e.target)), (p, e)

    def test_slice_lands_on_slice_sweep(self):
        for p in sweep_partitions(3, 3):
            strip = build_region(p, "T")
            star = build_region(p, "Tstar")
            cmap = phi_map(p)
            for i in range(1, p.n + 1):
                src = arm_slice(strip, i).cells
                dst = arm_slice(star, i).cells
                assert {cmap[c].target for c in src} == dst, (p, i)


def assert_complement_inverts_phi(p):
    """With beta_i = a_1 - a_{k+1-i}, T*(alpha) is T(beta), and phi_beta sends
    every phi_alpha image back to its source."""
    beta = complement(p)
    assert _region_rows(p, "Tstar") == _region_rows(beta, "T"), p
    there, back = phi_map(p), phi_map(beta)
    for x in build_region(p, "T"):
        assert back[there[x].target].target == x, (p, x)


class TestComplement:
    def test_inverts_phi_exhaustive(self):
        for p in sweep_partitions(6, 6):
            assert_complement_inverts_phi(p)

    @settings(max_examples=60, deadline=None)
    @given(partitions(max_k=25, max_n=25))
    def test_inverts_phi_sampled(self, p):
        assert_complement_inverts_phi(p)


class TestPhiReference:
    def test_matches_reference_sweep(self):
        for p in sweep_partitions(4, 4):
            assert phi_map(p).to_json() == phi_reference_json(p), p

    @given(partitions(max_k=8, max_n=8))
    def test_matches_reference_sample(self, p):
        assert phi_map(p).to_json() == phi_reference_json(p)


class TestPairingKernelCallers:
    """phi reads each cut's pairing from dyck._pairings: no report, sweep or
    map builds a label, a word or a path.  ``hookpair dyck`` still does."""

    def test_reports_sweeps_and_maps_build_no_path(self, monkeypatch):
        runs = [lambda: run_sweep(SweepConfig(max_k=3, max_n=3, theorems=("1", "2", "3")))]
        for p in (FIG, BIG, TWO_CELL):
            runs += [lambda p=p: phi_map(p), lambda p=p: psi_map(p)]
            runs += [lambda p=p, w=w: theorem_report(p, w) for w in (1, 2, 3)]
        for run in runs:
            assert dyck_reference_calls(monkeypatch, run) == []

    def test_dyck_command_builds_the_path(self, monkeypatch, capsys):
        def run():
            assert main(["dyck", "--k", "9", "--n", "11", "--alpha",
                         "11,11,9,8,8,6,3,1,0", "--i", "3"]) == 0

        called = dyck_reference_calls(monkeypatch, run)
        assert called == ["build_dyck", "build_sigma", "label_cells", "pair_updown"]
        assert capsys.readouterr().out.splitlines()[-1] == "P_3: (4, 8, 9, 5, 7, 6, 1, 3, 2)"

    def test_psi_strip_cells_follow_reference_phi(self):
        # the reference builds phi with no kernel; psi sends each strip cell
        # to zeta_2 or zeta_3 of its reference image
        for p in sweep_partitions(5, 5):
            z2, z3 = zeta_map(p, 2), zeta_map(p, 3)
            psi = psi_map(p)
            for e in phi_reference_json(p):
                target = tuple(e["to"])
                follow = z2[target] if target in z2 else z3[target]
                got = psi[tuple(e["from"])]
                assert (got.target, got.target_tag) == (
                    follow.target, follow.target_tag
                ), (p, e)


class TestRegionBuilds:
    """phi, psi and the reports measure a fixed set of regions into stat
    tables, however many cuts, and build no region."""

    NARROW = Partition((3, 2, 2, 0), k=4, n=3)
    WIDE = Partition((12, 7, 7, 0), k=4, n=12)

    def test_phi_builds_do_not_grow_with_n(self, monkeypatch):
        narrow = count_region_builds(monkeypatch, lambda: phi_map(self.NARROW))
        wide = count_region_builds(monkeypatch, lambda: phi_map(self.WIDE))
        assert narrow == wide == []
        for p in (self.NARROW, self.WIDE):
            tables = count_region_builds(monkeypatch, lambda: phi_map(p), "_region_stats")
            assert tables == ["T"], p

    def test_reports_build_each_region_once(self, monkeypatch):
        measured = {1: ["D", "R", "SQ"], 2: ["D", "R", "SQ"], 3: ["T", "Tstar"]}
        for which in (1, 2, 3):
            for p in (self.NARROW, self.WIDE):
                def report():
                    theorem_report(p, which)

                assert count_region_builds(monkeypatch, report) == [], (p, which)
                tables = count_region_builds(monkeypatch, report, "_region_stats")
                assert tables == measured[which], (p, which)

    def test_reports_construct_no_cellset(self, monkeypatch):
        for which in (1, 2, 3):
            for p in (self.NARROW, self.WIDE):
                made = count_cellsets(monkeypatch, lambda: theorem_report(p, which))
                assert made == 0, (p, which)

    def test_star_zetas_measure_tstar_once(self, monkeypatch):
        for kind in (2, 3):
            for p in (self.NARROW, self.WIDE):
                def run():
                    zeta_map(p, kind)

                assert count_region_builds(monkeypatch, run) == [], (p, kind)
                assert count_cellsets(monkeypatch, run) == 0, (p, kind)
                tables = count_region_builds(monkeypatch, run, "_region_stats")
                assert tables == ["Tstar"], (p, kind)


class TestZeta:
    def test_translation_onto_d(self):
        cmap = zeta_map(Partition((2, 1), k=2, n=2), 3)
        assert cmap[(1, 2)].target == (1, 1)
        assert cmap[(1, 2)].target_tag == "D"

    def test_column_map_sizes(self):
        cmap = zeta_map(FIG, 1)
        assert len(cmap) == 15
        assert {e.target for e in cmap} == build_region(FIG, "R1").cells

    def test_full_width_parts_leave_empty_rows(self):
        p = Partition((3, 3, 1), k=3, n=3)
        cmap = zeta_map(p, 2)
        r2 = build_region(p, "R2")
        assert {e.target for e in cmap} == r2.cells
        assert r2.row_cols(2) == [] and r2.row_cols(3) == []

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            zeta_map(FIG, 4)

    def test_unknown_kind_is_a_package_error(self):
        with pytest.raises(HookpairError) as exc:
            zeta_map(FIG, 4)
        assert isinstance(exc.value, UnknownChoice)
        assert str(exc.value) == "zeta kind must be 1, 2 or 3, got 4"

    @pytest.mark.parametrize("kind", [True, 1.0, "1"])
    def test_kind_must_be_int(self, kind):
        # True == 1, so zeta_map(p, True) used to return zeta 1
        with pytest.raises(NotAnInteger):
            zeta_map(FIG, kind)

    def test_certificates_pass_sweep(self):
        for p in sweep_partitions(4, 4):
            sq = build_region(p, "SQ")
            rect = build_region(p, "R")
            star = build_region(p, "Tstar")
            dgm = build_region(p, "D")
            cases = [
                (zeta_map(p, 1), sq, build_region(p, "V"),
                 {"R": (rect, build_region(p, "R1"))}),
                (zeta_map(p, 2), star, build_region(p, "T1star"),
                 {"R": (rect, build_region(p, "R2"))}),
                (zeta_map(p, 3), star, build_region(p, "T2star"),
                 {"D": (dgm, dgm)}),
            ]
            for cmap, ambient, members, targets in cases:
                cert = build_certificate(cmap, ambient, members, targets)
                assert cert.verdict, (p, cmap.source_tag, cert.failures)


class TestPsi:
    def test_staircase_counts(self):
        p = Partition((2, 1), k=2, n=2)
        cmap = psi_map(p)
        assert len(cmap) == 7
        by_tag = Counter(e.target_tag for e in cmap)
        assert by_tag == Counter({"R": 4, "D": 3})

    def test_figure_counts(self):
        by_tag = Counter(e.target_tag for e in psi_map(FIG))
        assert by_tag["R"] == 24
        assert by_tag["D"] == 15

    def test_zero_partition_all_rectangle(self):
        p = Partition((0, 0), k=2, n=3)
        cmap = psi_map(p)
        assert len(cmap) == 6
        assert all(e.target_tag == "R" for e in cmap)

    def test_certificate_sweep(self):
        for p in sweep_partitions(4, 4):
            sq = build_region(p, "SQ")
            targets = {
                "R": (build_region(p, "R"), build_region(p, "R")),
                "D": (build_region(p, "D"), build_region(p, "D")),
            }
            cert = build_certificate(psi_map(p), sq, sq, targets)
            assert cert.verdict, (p, cert.failures[:2])

    def test_strip_cells_follow_phi_then_zeta(self):
        # psi on a strip cell is zeta_2 or zeta_3 looked up at its phi image
        for p in list(sweep_partitions(4, 4)) + [FIG, BIG]:
            z2, z3 = zeta_map(p, 2), zeta_map(p, 3)
            psi = psi_map(p)
            for e in phi_map(p):
                follow = z2[e.target] if e.target in z2 else z3[e.target]
                got = psi[e.source]
                assert (got.target, got.target_tag) == (
                    follow.target, follow.target_tag
                ), (p, e.source)

    @pytest.mark.parametrize(
        "dr, dc, only_row",
        [
            pytest.param(0, 6, None, id="0-6"),
            pytest.param(0, -6, None, id="0--6"),
            pytest.param(4, 0, None, id="4-0"),
            pytest.param(-4, 0, None, id="-4-0"),
            # a single image, from the top row to row 0, where an index of -1
            # would read the top row's columns, and from the bottom row to k+1
            pytest.param(-FIG.k, 0, FIG.k, id="one-top-to-row-0"),
            pytest.param(FIG.k, 0, 1, id="one-bottom-to-row-k+1"),
        ],
    )
    def test_phi_image_outside_tstar_rejected(self, monkeypatch, dr, dc, only_row):
        import hookpair.bijections as bj

        good = bj._phi

        def moved(p, strip):
            entries = list(good(p, strip))
            for t, e in enumerate(entries):
                if only_row in (None, e.target[0]):
                    target = (e.target[0] + dr, e.target[1] + dc)
                    entries[t] = MapEntry(e.source, target, e.target_tag, e.al)
                    if only_row is not None:
                        break
            return entries

        monkeypatch.setattr(bj, "_phi", moved)
        with pytest.raises(CellNotInSet):
            psi_map(FIG)

    def test_json_shape(self):
        data = psi_map(Partition((1,), k=1, n=1)).to_json()
        assert data == [
            {"from": [1, 1], "to": [1, 1], "target": "D", "al": [0, 0]},
            {"from": [2, 2], "to": [1, 1], "target": "R", "al": [0, 0]},
        ]


class TestCertificateFailures:
    def test_stat_mismatch_detected(self):
        p = Partition((2, 1), k=2, n=2)
        strip = build_region(p, "T")
        star = build_region(p, "Tstar")
        bad = swapped_phi(p, (1, 1), (1, 2))
        cert = build_certificate(bad, strip, strip, {"Tstar": (star, star)})
        assert not cert.verdict
        kinds = {f["kind"] for f in cert.failures}
        assert "stat-mismatch" in kinds

    def test_duplicate_target_detected(self):
        strip = build_region(TWO_CELL, "T")
        star = build_region(TWO_CELL, "Tstar")
        cert = build_certificate(colliding_map(), strip, strip, {"Tstar": (star, star)})
        assert not cert.verdict
        kinds = {f["kind"] for f in cert.failures}
        assert "not-injective" in kinds and "image-incomplete" in kinds

    def test_image_coverage_is_counted_per_tag(self):
        # R and D share coordinates, so an image retagged from D to R at the
        # same cell still lands in R's members but leaves D's cell uncovered
        sq, rect, dgm = (_region_stats(FIG, kind) for kind in ("SQ", "R", "D"))
        entries = list(psi_map(FIG))
        j = next(j for j, e in enumerate(entries) if e.target_tag == "D")
        moved = entries[j]
        entries[j] = MapEntry(moved.source, moved.target, "R", moved.al)
        targets = {"R": (rect, rect), "D": (dgm, dgm)}
        cert = build_certificate(CellMap("SQ", entries), sq, sq, targets)
        incomplete = [f for f in cert.failures if f["kind"] == "image-incomplete"]
        assert incomplete == [{"kind": "image-incomplete", "tag": "D", "missing": [moved.target]}]

    def test_duplicate_source_is_a_package_error(self):
        entries = [
            MapEntry((1, 1), (1, 1), "Tstar", (0, 0)),
            MapEntry((1, 1), (2, 2), "Tstar", (0, 0)),
        ]
        with pytest.raises(HookpairError) as exc:
            CellMap("T", entries)
        assert isinstance(exc.value, DuplicateSource) and isinstance(exc.value, ValueError)
        assert str(exc.value) == "duplicate source cell in map"

    def test_missing_domain_detected(self):
        strip = build_region(TWO_CELL, "T")
        star = build_region(TWO_CELL, "Tstar")
        cert = build_certificate(partial_map(), strip, strip, {"Tstar": (star, star)})
        assert not cert.verdict
        assert any(f["kind"] == "domain-mismatch" for f in cert.failures)

    def test_unknown_target_tag_is_checked_no_further(self):
        # the stray entry's target is in no region, yet it is neither
        # off-region nor recorded: its tag has no row in targets
        strip = build_region(TWO_CELL, "T")
        star = build_region(TWO_CELL, "Tstar")
        cmap = CellMap(
            "T",
            [
                MapEntry((1, 1), (2, 2), "Tstar", (0, 0)),
                MapEntry((2, 2), (9, 9), "X", (0, 0)),
            ],
        )
        cert = build_certificate(cmap, strip, strip, {"Tstar": (star, star)})
        assert cert.failures == (
            {"kind": "unknown-target-tag", "tag": "X"},
            {"kind": "image-incomplete", "tag": "Tstar", "missing": [(1, 1)]},
        )
        assert [r.source for r in cert.records] == [(1, 1)]

    def test_target_outside_its_ambient_is_an_error(self):
        # a target among its tag's members but not in the tag's ambient
        # region has no statistic to compare
        strip = build_region(TWO_CELL, "T")
        star = build_region(TWO_CELL, "Tstar")
        members = CellSet([*star, (3, 3)])
        cmap = CellMap(
            "T",
            [
                MapEntry((1, 1), (3, 3), "Tstar", (0, 0)),
                MapEntry((2, 2), (1, 1), "Tstar", (0, 0)),
            ],
        )
        with pytest.raises(CellNotInSet) as exc:
            build_certificate(cmap, strip, strip, {"Tstar": (star, members)})
        assert exc.value.args == ("cell (3, 3) not in the set",)

    def test_source_outside_ambient_detected(self):
        strip = build_region(TWO_CELL, "T")
        star = build_region(TWO_CELL, "Tstar")
        cert = build_certificate(stray_source_map(), strip, strip, {"Tstar": (star, star)})
        assert not cert.verdict
        assert {"kind": "off-region", "from": [2, 1], "to": ["Tstar", [1, 1]]} in cert.failures

    @pytest.mark.parametrize(
        "p, cmap",
        [
            (Partition((2, 1), k=2, n=2),
             lambda: swapped_phi(Partition((2, 1), k=2, n=2), (1, 1), (1, 2))),
            (TWO_CELL, colliding_map),
            (TWO_CELL, partial_map),
            (TWO_CELL, stray_source_map),
        ],
        ids=["stat-mismatch", "not-injective", "domain-mismatch", "off-region"],
    )
    @pytest.mark.parametrize("stat", ["al", "hook"])
    def test_stat_tables_certify_like_cellsets(self, p, cmap, stat):
        strip, star = build_region(p, "T"), build_region(p, "Tstar")
        t_table, star_table = _region_stats(p, "T"), _region_stats(p, "Tstar")
        from_sets = certify(stat, cmap(), strip, strip, {"Tstar": (star, star)})
        from_tables = certify(
            stat, cmap(), t_table, t_table, {"Tstar": (star_table, star_table)}
        )
        assert not from_sets.verdict
        assert from_tables == from_sets

    @pytest.mark.parametrize("stat", ["al", "hook"])
    def test_stat_tables_certify_psi_like_cellsets(self, stat):
        kinds = ("SQ", "R", "D")
        sq, rect, dgm = (build_region(FIG, kind) for kind in kinds)
        sq_t, rect_t, dgm_t = (_region_stats(FIG, kind) for kind in kinds)
        cmap = psi_map(FIG)
        from_sets = certify(stat, cmap, sq, sq, {"R": (rect, rect), "D": (dgm, dgm)})
        from_tables = certify(
            stat, cmap, sq_t, sq_t, {"R": (rect_t, rect_t), "D": (dgm_t, dgm_t)}
        )
        assert from_sets.verdict and len(from_sets.records) == len(cmap)
        assert from_tables == from_sets


def certify(stat, *args):
    """build_certificate(*args), or its hook view when stat is "hook"."""
    cert = build_certificate(*args)
    return cert.hook_view() if stat == "hook" else cert


def hook_certificate(p, cmap):
    """The hook certificate of a map SQ -> R + D, from the stat tables the
    witness pass reads."""
    sq, rect, dgm = (_region_stats(p, kind) for kind in ("SQ", "R", "D"))
    return build_certificate(cmap, sq, sq, {"R": (rect, rect), "D": (dgm, dgm)}).hook_view()


def moved_target(p, cmap, pick):
    """psi's map cmap with the target of its entry number pick moved: one
    column to the right when that cell is in the same region (another cell's
    image), else off every region."""
    entries = list(cmap)
    e = entries[pick % len(entries)]
    r, c = e.target
    region = _region_stats(p, e.target_tag)
    target = (r, c + 1) if (r, c + 1) in region else (r, c + p.n + 1)
    entries[pick % len(entries)] = MapEntry(e.source, target, e.target_tag, e.al)
    return CellMap("SQ", entries)


def plant_shifted_stat(monkeypatch, kind):
    """bijections reads kind's table with its first cell of a positive leg
    measured (arm + 1, leg - 1): the pair changes and the hook does not.
    Returns the list of the cells planted so far."""
    import hookpair.bijections as bj

    original = bj._region_stats
    planted = []

    def shifted(p, region):
        table = original(p, region)
        if region == kind:
            x = next((x for x, (_, leg) in table.items() if leg > 0), None)
            if x is not None:
                arm, leg = table[x]
                table = {**table, x: (arm + 1, leg - 1)}
                planted.append(x)
        return table

    monkeypatch.setattr(bj, "_region_stats", shifted)
    return planted


def failure_positions(report):
    return [(f["kind"], f.get("from"), f.get("to")) for f in report["certificate"]["failures"]]


class TestHookView:
    """Identity 1's certificate is the hook view of psi's (arm, leg) one."""

    def test_equals_the_reference_exhaustive(self):
        for p in sweep_partitions(6, 6):
            cmap = psi_map(p)
            assert hook_certificate(p, cmap) == hook_certificate_reference(p, cmap), p

    @settings(max_examples=60, deadline=None)
    @given(partitions(max_k=20, max_n=20))
    def test_equals_the_reference_sampled(self, p):
        cmap = psi_map(p)
        view = hook_certificate(p, cmap)
        assert view.verdict and view == hook_certificate_reference(p, cmap)
        assert theorem_report(p, 1)["certificate"] == view.to_json()

    @settings(max_examples=80, deadline=None)
    @given(partitions(max_k=8, max_n=8), st.integers(0, 10**6))
    def test_equals_the_reference_on_a_moved_target(self, p, pick):
        cmap = moved_target(p, psi_map(p), pick)
        view = hook_certificate(p, cmap)
        assert not view.verdict
        assert view == hook_certificate_reference(p, cmap)

    @pytest.mark.parametrize("kind", ["R", "D"])
    def test_pair_fault_with_equal_hooks_fails_identity_2_only(self, monkeypatch, kind):
        planted = plant_shifted_stat(monkeypatch, kind)
        al = theorem_report(FIG, 2)
        assert planted and al["verdict"] == "fail"
        mismatches = [f for f in al["certificate"]["failures"] if f["kind"] == "stat-mismatch"]
        assert [f["to"] for f in mismatches] == [[kind, list(planted[0])]]
        hooks = theorem_report(FIG, 1)
        assert hooks["verdict"] == "pass" and hooks["certificate"]["failures"] == []

    @pytest.mark.parametrize("kind", ["R", "D"])
    def test_pair_fault_with_equal_hooks_in_a_box_sweep(self, monkeypatch, kind):
        has_leg = {
            (tuple(p.parts), p.k, p.n): any(leg > 0 for _, leg in _region_stats(p, kind).values())
            for p in sweep_partitions(3, 3)
        }
        plant_shifted_stat(monkeypatch, kind)
        report = run_sweep(SweepConfig(max_k=3, max_n=3, theorems=("1", "2")))
        verdicts = {(tuple(e["alpha"]), e["k"], e["n"], e["theorem"]): e["verdict"]
                    for e in report.cases}
        assert any(has_leg.values()) and not all(has_leg.values())
        for case, planted in has_leg.items():
            assert verdicts[(*case, "1")] == "pass", case
            assert verdicts[(*case, "2")] == ("fail" if planted else "pass"), case

    @pytest.mark.parametrize("pick", [0, 7, 20, 38])
    def test_moved_target_fails_both_identities_alike(self, monkeypatch, pick):
        import hookpair.bijections as bj

        good = bj._psi
        monkeypatch.setattr(bj, "_psi", lambda p, sq, phi: moved_target(p, good(p, sq, phi), pick))
        hooks, al = theorem_report(FIG, 1), theorem_report(FIG, 2)
        assert hooks["verdict"] == al["verdict"] == "fail"
        assert failure_positions(hooks) == failure_positions(al) != []

    def test_view_records_are_cert_records(self):
        cmap = psi_map(FIG)
        sq, rect, dgm = (_region_stats(FIG, kind) for kind in ("SQ", "R", "D"))
        al = build_certificate(cmap, sq, sq, {"R": (rect, rect), "D": (dgm, dgm)})
        view = hook_certificate(FIG, cmap)
        assert len(view.records) == len(al.records) == len(cmap) > 0
        for rec, pair in zip(view.records, al.records):
            assert type(rec) is CertRecord
            (a, l), (b, m) = pair.source_stat, pair.target_stat
            assert rec._asdict() == {
                "source": pair.source,
                "target": pair.target,
                "target_tag": pair.target_tag,
                "source_stat": (a + l + 1,),
                "target_stat": (b + m + 1,),
            }

    def test_psi_certified_once_per_partition(self, monkeypatch):
        import hookpair.bijections as bj

        case = ("box", ("1", "2"), FIG.parts, FIG.k, FIG.n)
        calls = count_calls(monkeypatch, bj, "build_certificate", lambda: _case_entries(case))
        assert len(calls) == 1 and calls[0][0].source_tag == "SQ"
        # identity 1 alone is certified once too, for (arm, leg) pairs
        calls = count_calls(monkeypatch, bj, "build_certificate", lambda: theorem_report(FIG, 1))
        assert [len(args) for args in calls] == [4]

    @pytest.mark.parametrize(
        "theorems, counted", [(("1", "2"), 2), (("1", "2", "3"), 4)], ids=["1-2", "1-2-3"]
    )
    def test_multisets_counted_once_per_source(self, monkeypatch, theorems, counted):
        # identities 1 and 2 read SQ's, R's and D's (arm, leg) multisets, counted once
        import hookpair.bijections as bj

        case = ("box", theorems, FIG.parts, FIG.k, FIG.n)
        calls = count_calls(monkeypatch, bj, "_multiset", lambda: _case_entries(case))
        assert len(calls) == counted
        calls = count_calls(monkeypatch, bj, "_multiset", lambda: theorem_report(FIG, 1))
        assert len(calls) == 2


class TestTheorems:
    def test_staircase_pairs_identity(self):
        report = theorem_report(Partition((2, 1), k=2, n=2), 2)
        assert report["verdict"] == "pass"
        expected = sorted(
            [
                {"arm": 0, "leg": 0, "count": 3},
                {"arm": 0, "leg": 1, "count": 1},
                {"arm": 1, "leg": 0, "count": 1},
                {"arm": 1, "leg": 1, "count": 2},
            ],
            key=lambda d: (d["arm"], d["leg"]),
        )
        assert report["oracle"]["left"] == expected
        assert report["oracle"]["right"] == expected

    def test_single_cell_hooks(self):
        report = theorem_report(Partition((1,), k=1, n=1), 1)
        assert report["verdict"] == "pass"
        assert report["oracle"]["left"] == [{"hook": 1, "count": 2}]

    def test_big_strip_identity(self):
        report = theorem_report(BIG, 3)
        assert report["verdict"] == "pass"
        assert report["oracle"]["equal"] is True
        assert report["certificate"]["verdict"] == "pass"

    def test_verify_returns_report(self):
        report = verify_theorem(Partition((2, 1), k=2, n=2), 1)
        assert report["verdict"] == "pass"

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            theorem_report(Partition((1,), k=1, n=1), 4)

    def test_unknown_theorem_is_a_package_error(self):
        with pytest.raises(HookpairError) as exc:
            theorem_report(Partition((1,), k=1, n=1), 4)
        assert isinstance(exc.value, UnknownChoice)
        assert str(exc.value) == "theorem must be 1, 2 or 3, got 4"

    @pytest.mark.parametrize("which", [True, 2.0, "2"])
    def test_theorem_must_be_int(self, which):
        # True and 2.0 used to run identities 1 and 2 and write them into the JSON
        with pytest.raises(NotAnInteger):
            theorem_report(Partition((1,), k=1, n=1), which)

    def test_counterexample_raised_on_broken_map(self, monkeypatch):
        import hookpair.bijections as bj

        p = Partition((1, 0), k=2, n=1)

        # theorem_report hands the stat table of T to the private _phi, so
        # the broken map replaces that function
        def broken(_p, _stats):
            return colliding_map()

        monkeypatch.setattr(bj, "_phi", broken)
        with pytest.raises(CounterexampleFound) as exc:
            verify_theorem(p, 3)
        assert exc.value.case["theorem"] == 3

    def test_counterexample_carries_repro_command(self, monkeypatch, capsys):
        import hookpair.bijections as bj

        monkeypatch.setattr(bj, "_phi", lambda _p, _stats: colliding_map())
        with pytest.raises(CounterexampleFound) as exc:
            verify_theorem(TWO_CELL, 3)
        repro = "hookpair verify --k 2 --n 1 --alpha 1,0 --theorem 3"
        assert exc.value.case["repro"] == repro

        # the omitted trailing zero is spelled out in the printed command
        argv = ["verify", "--k", "2", "--n", "1", "--alpha", "1", "--theorem", "3"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("counterexample: identity 3 fails")
        assert err[1:] == [f"reproduce: {repro}"]
        printed = err[1].removeprefix("reproduce: ")
        assert main(shlex.split(printed)[1:]) == 1
        assert capsys.readouterr().err.splitlines()[1:] == err[1:]

    def test_report_statistics_match_scans(self):
        # both witnesses' numbers, against scans of the built regions
        regions = {1: ("SQ", ("R", "D")), 2: ("SQ", ("R", "D")), 3: ("T", ("Tstar",))}
        for p in list(sweep_partitions(3, 3)) + [FIG]:
            for which, (src_kind, dst_kinds) in regions.items():
                hooks = which == 1

                def stat(g, cell):
                    arm, leg = arm_by_scan(g, cell), leg_by_scan(g, cell)
                    return [arm + leg + 1] if hooks else [arm, leg]

                def counted(gs):
                    keys = (stat(g, x) for g in gs for x in g)
                    if hooks:
                        return hook_multiset_to_json(Counter(h for (h,) in keys))
                    return multiset_to_json(Counter(tuple(al) for al in keys))

                src = build_region(p, src_kind)
                dst = {kind: build_region(p, kind) for kind in dst_kinds}
                report = theorem_report(p, which)
                assert report["oracle"]["left"] == counted([src]), (p, which)
                assert report["oracle"]["right"] == counted(dst.values()), (p, which)
                entries = report["certificate"]["entries"]
                assert len(entries) == len(src), (p, which)
                for e in entries:
                    assert e["sourceStat"] == stat(src, tuple(e["from"])), (p, which, e)
                    target = dst[e["target"]]
                    assert e["targetStat"] == stat(target, tuple(e["to"])), (p, which, e)

    def test_oracle_and_certificate_agree_sweep(self):
        for p in sweep_partitions(3, 3):
            for which in (1, 2, 3):
                report = theorem_report(p, which)
                assert report["oracle"]["equal"] is True, (p, which)
                assert report["certificate"]["verdict"] == "pass", (p, which)
                assert report["oracle"]["firstDifference"] is None

    def test_al_identity_small_case_direct(self):
        p = Partition((1, 1), k=2, n=2)
        sq = build_region(p, "SQ")
        rect = build_region(p, "R")
        dgm = build_region(p, "D")
        lhs = al_multiset(sq, sq)
        rhs = al_multiset(rect, rect) + al_multiset(dgm, dgm)
        assert lhs == rhs
