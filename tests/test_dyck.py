"""Tests for the label word, the lattice path, and the up/down pairing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hookpair.diagrams import Partition, _region_rows, arm_prefix, build_region
from hookpair.dyck import (
    DyckPath,
    Label,
    SigmaSequence,
    _pair_columns,
    _pairings,
    build_dyck,
    build_sigma,
    label_cells,
    pair_updown,
    pairing_tuple,
)
from hookpair.errors import IndexOutOfRange, NoMatchingDownStep, NotADyckPath, NotAnInteger

from util import complement, partitions, sweep_partitions

# Large worked case used throughout: k=9, n=11.
BIG = Partition((11, 11, 9, 8, 8, 6, 3, 1, 0), k=9, n=11)


def pairing_by_forward_scan(d: DyckPath) -> dict[int, int]:
    """Independent oracle: literally scan for the first later down step one
    level higher than each up step."""
    out = {}
    for t, (step_dir, lab) in enumerate(d.steps, start=1):
        if step_dir != 1:
            continue
        h = d.step_height(t)
        for u in range(t + 1, len(d.steps) + 1):
            du, labu = d.steps[u - 1]
            if du == -1 and d.step_height(u) == h + 1:
                out[lab.index] = labu.index
                break
        else:
            raise AssertionError(f"no partner for {lab}")
    return out


class TestLabels:
    def test_two_cell_strip(self):
        p = Partition((1, 0), k=2, n=1)
        xs, zs = label_cells(p, 1)
        assert [(lab.index, lab.cell) for lab in xs] == [(1, (1, 1)), (2, (2, 2))]
        assert [(lab.index, lab.cell) for lab in zs] == [(1, (2, 2)), (2, (1, 1))]

    def test_x_and_mirror_z_share_row(self):
        for p in sweep_partitions(4, 4):
            for i in range(1, p.n + 1):
                xs, zs = label_cells(p, i)
                for j in range(1, p.k + 1):
                    assert xs[j - 1].cell[0] == zs[p.k - j].cell[0] == j

    def test_x_cells_have_expected_arm(self):
        strip = build_region(BIG, "T")
        xs, zs = label_cells(BIG, 3)
        assert all(strip.arm(lab.cell) == 2 for lab in xs)
        assert all(strip.arm(lab.cell) == 0 for lab in zs)

    @staticmethod
    def assert_labels_read_off_strip(p, i):
        strip = build_region(p, "T")
        xs, zs = label_cells(p, i)
        rows = range(1, p.k + 1)
        assert [(lab.kind, lab.index, lab.cell) for lab in xs] == [
            ("x", j, (j, strip.row_cols(j)[-i])) for j in rows
        ]
        assert [(lab.kind, lab.index, lab.cell) for lab in zs] == [
            ("z", j, (p.k + 1 - j, strip.row_cols(p.k + 1 - j)[-1])) for j in rows
        ]

    def test_labels_match_strip_rows_sweep(self):
        for p in sweep_partitions(4, 4):
            for i in range(1, p.n + 1):
                self.assert_labels_read_off_strip(p, i)

    @given(partitions(max_k=8, max_n=8), st.data())
    def test_labels_match_strip_rows_sample(self, p, data):
        self.assert_labels_read_off_strip(p, data.draw(st.integers(1, p.n)))

    def test_cut_out_of_range(self):
        p = Partition((2, 1), k=2, n=2)
        with pytest.raises(IndexOutOfRange):
            label_cells(p, 0)
        with pytest.raises(IndexOutOfRange):
            label_cells(p, 3)

    @pytest.mark.parametrize("i", [2.5, 1.0, True])
    def test_cut_must_be_int(self, i):
        # a float cut used to give a label word for a cut that does not exist
        with pytest.raises(NotAnInteger, match="cut parameter i"):
            build_sigma(Partition((2, 1), k=2, n=3), i)


class TestSigma:
    def test_word_for_big_case(self):
        s = build_sigma(BIG, 3)
        assert str(s) == (
            "x1 x2 x3 z9 z8 x4 x5 z7 x6 z6 z5 z4 x7 x8 z3 x9 z2 z1"
        )

    def test_word_for_two_cell_strip(self):
        s = build_sigma(Partition((1, 0), k=2, n=1), 1)
        assert str(s) == "x1 z2 x2 z1"

    def test_first_label_is_x1(self):
        for p in sweep_partitions(4, 4):
            for i in range(1, p.n + 1):
                s = build_sigma(p, i)
                first = s[0]
                assert (first.kind, first.index) == ("x", 1), (p, i)

    def test_each_label_once(self):
        s = build_sigma(BIG, 5)
        names = [str(lab) for lab in s]
        assert len(names) == 18 == len(set(names))


class TestDyckPath:
    def test_alternating_path(self):
        s = build_sigma(Partition((1, 0), k=2, n=1), 1)
        d = build_dyck(s)
        assert [step[0] for step in d.steps] == [1, -1, 1, -1]
        assert d.ordinates == (0, 1, 0, 1, 0)

    def test_big_case_max_height(self):
        d = build_dyck(build_sigma(BIG, 3))
        assert d.max_height() == 3

    def test_step_heights_in_big_case(self):
        d = build_dyck(build_sigma(BIG, 3))
        by_name = {str(lab): t for t, (_, lab) in enumerate(d.steps, start=1)}
        assert d.step_height(by_name["x4"]) == 1
        assert d.step_height(by_name["z9"]) == 3

    def test_first_step_height_zero(self):
        for p in sweep_partitions(3, 3):
            for i in range(1, p.n + 1):
                d = build_dyck(build_sigma(p, i))
                assert d.step_height(1) == 0

    def test_step_counts(self):
        for p in sweep_partitions(3, 3):
            for i in range(1, p.n + 1):
                d = build_dyck(build_sigma(p, i))
                dirs = [step[0] for step in d.steps]
                assert dirs.count(1) == dirs.count(-1) == p.k

    def test_invalid_words_rejected(self):
        z = Label("z", 1, (1, 1))
        x = Label("x", 1, (1, 1))
        with pytest.raises(NotADyckPath):
            build_dyck(SigmaSequence((z, x)))
        with pytest.raises(NotADyckPath):
            build_dyck(SigmaSequence((x, x)))

    def test_step_height_bounds(self):
        d = build_dyck(build_sigma(Partition((1, 0), k=2, n=1), 1))
        with pytest.raises(IndexOutOfRange):
            d.step_height(0)
        with pytest.raises(IndexOutOfRange):
            d.step_height(5)

    def test_step_index_must_be_int(self):
        d = build_dyck(build_sigma(Partition((1, 0), k=2, n=1), 1))
        with pytest.raises(NotAnInteger):
            d.step_height(1.0)

    def test_text_rendering(self):
        d = build_dyck(build_sigma(Partition((1, 0), k=2, n=1), 1))
        assert d.render_text() == "U  D  U  D\nx1 z2 x2 z1"


class TestHeights:
    """Step heights coincide with leg and coleg statistics on the strip."""

    def test_up_heights_are_legs(self):
        for p in sweep_partitions(4, 4):
            strip = build_region(p, "T")
            for i in range(1, p.n + 1):
                inner = arm_prefix(strip, i)
                d = build_dyck(build_sigma(p, i))
                for t, (step_dir, lab) in enumerate(d.steps, start=1):
                    if step_dir == 1:
                        assert d.step_height(t) == strip.leg(lab.cell)
                        assert d.step_height(t) == inner.leg(lab.cell)

    def test_down_heights_are_colegs_plus_one(self):
        for p in sweep_partitions(4, 4):
            strip = build_region(p, "T")
            for i in range(1, p.n + 1):
                inner = arm_prefix(strip, i)
                d = build_dyck(build_sigma(p, i))
                for t, (step_dir, lab) in enumerate(d.steps, start=1):
                    if step_dir == -1:
                        assert d.step_height(t) == inner.coleg(lab.cell) + 1


class TestPairing:
    def test_big_case_golden(self):
        d = build_dyck(build_sigma(BIG, 3))
        assert pairing_tuple(pair_updown(d)) == (4, 8, 9, 5, 7, 6, 1, 3, 2)

    def test_alternating_case(self):
        d = build_dyck(build_sigma(Partition((1, 0), k=2, n=1), 1))
        assert pair_updown(d) == {1: 2, 2: 1}

    def test_nested_case(self):
        d = build_dyck(build_sigma(Partition((1, 1), k=2, n=1), 1))
        assert [step[0] for step in d.steps] == [1, 1, -1, -1]
        assert pair_updown(d) == {1: 1, 2: 2}

    def test_matches_forward_scan_oracle(self):
        for p in sweep_partitions(4, 4):
            for i in range(1, p.n + 1):
                d = build_dyck(build_sigma(p, i))
                assert pair_updown(d) == pairing_by_forward_scan(d), (p, i)

    def test_is_permutation(self):
        for p in sweep_partitions(3, 3):
            for i in range(1, p.n + 1):
                d = build_dyck(build_sigma(p, i))
                pairing = pair_updown(d)
                assert sorted(pairing) == list(range(1, p.k + 1))
                assert sorted(pairing.values()) == list(range(1, p.k + 1))

    def test_pairs_properly_nested(self):
        for p in sweep_partitions(3, 3):
            for i in range(1, p.n + 1):
                d = build_dyck(build_sigma(p, i))
                pos = {}
                for t, (step_dir, lab) in enumerate(d.steps, start=1):
                    pos[(lab.kind, lab.index)] = t
                spans = sorted(
                    (pos[("x", j)], pos[("z", pj)])
                    for j, pj in pair_updown(d).items()
                )
                for a1, b1 in spans:
                    for a2, b2 in spans:
                        assert not (a1 < a2 < b1 < b2), (p, i)

    def test_corrupt_path_detected(self):
        d = build_dyck(build_sigma(Partition((1, 0), k=2, n=1), 1))
        broken = DyckPath(tuple(reversed(d.steps)), d.ordinates)
        with pytest.raises(NoMatchingDownStep):
            pair_updown(broken)

    def test_open_up_step_detected(self):
        d = build_dyck(build_sigma(Partition((1, 1), k=2, n=1), 1))
        broken = DyckPath(d.steps[:3], d.ordinates[:4])
        with pytest.raises(NoMatchingDownStep, match="^up step x1 was never matched$"):
            pair_updown(broken)


def reference_pairings(p):
    """(i, P_i) at every cut, read off the label word and its path."""
    return [
        (i, pairing_tuple(pair_updown(build_dyck(build_sigma(p, i)))))
        for i in range(1, p.n + 1)
    ]


class TestPairingKernel:
    """_pairings reads P_i off two sorted column lists; the label word, the
    path and pair_updown are its reference."""

    def test_matches_reference_sweep(self):
        cuts = 0
        for p in sweep_partitions(6, 6):
            got = list(_pairings(p))
            assert got == reference_pairings(p), p
            cuts += len(got)
        assert cuts == 17569

    @given(partitions(max_k=20, max_n=20))
    def test_matches_reference_sample(self, p):
        assert list(_pairings(p)) == reference_pairings(p)

    def test_big_case_golden(self):
        assert dict(_pairings(BIG))[3] == (4, 8, 9, 5, 7, 6, 1, 3, 2)

    @pytest.mark.parametrize(
        "xs, zs",
        [
            pytest.param([5, 6], [1, 2], id="down-step-first"),
            pytest.param([1, 3], [2, 2], id="down-step-before-second-up"),
            pytest.param([1, 2], [3], id="up-step-left-open"),
            pytest.param([1, 9], [2], id="up-step-after-every-down"),
        ],
    )
    def test_unbalanced_columns_raise(self, xs, zs):
        with pytest.raises(NoMatchingDownStep):
            _pair_columns(xs, zs)

    def test_short_strip_row_raises(self, monkeypatch):
        # a strip row narrower than n would put some x left of its row
        import hookpair.dyck as dk

        monkeypatch.setattr(dk, "_region_rows", lambda p, kind: [(1, 3), (3, 4)])
        with pytest.raises(IndexOutOfRange):
            next(_pairings(Partition((2, 0), k=2, n=3)))

    def test_identity_tail(self):
        # from the cut a_1 - a_k + 1 on, every x column lies left of or at
        # every row end, so the word is x_1 .. x_k z_k .. z_1
        cuts = 0
        for p in sweep_partitions(6, 6):
            identity = tuple(range(1, p.k + 1))
            for i, pairing in _pairings(p):
                if i >= p.part(1) - p.part(p.k) + 1:
                    assert pairing == identity, (p, i)
                    cuts += 1
        assert cuts == 5950

    def test_complement_inverts_pairings(self):
        # with beta_i = a_1 - a_{k+1-i}, T*(alpha) is T(beta) and P_beta,i
        # undoes P_alpha,i at every cut
        for p in sweep_partitions(6, 6):
            beta = complement(p)
            assert _region_rows(p, "Tstar") == _region_rows(beta, "T"), p
            for (i, pa), (_, pb) in zip(_pairings(p), _pairings(beta)):
                assert tuple(pb[pa[j] - 1] for j in range(p.k)) == tuple(
                    range(1, p.k + 1)
                ), (p, i)
