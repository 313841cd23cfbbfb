"""Tests for the text rendering of cell sets."""

import pytest

from hookpair.diagrams import CellSet, Partition, build_region
from hookpair.errors import EmptySet
from hookpair.projective import StrictPartition, alpha_from_strict, diagonal_spec, shift_Ti
from hookpair.render import DOTTED, render_ascii


class TestRenderAscii:
    def test_single_cell(self):
        assert render_ascii(CellSet([(1, 1)])) == "□"

    def test_staircase_diagram(self):
        p = Partition((6, 5, 3, 1), k=4, n=6)
        out = render_ascii(build_region(p, "D"))
        assert out == "\n".join(
            [
                "□ □ □ □ □ □",
                "□ □ □ □ □",
                "□ □ □",
                "□",
            ]
        )

    def test_top_row_first(self):
        g = CellSet([(1, 1), (2, 1), (2, 2)])
        assert render_ascii(g) == "□ □\n□"

    def test_absolute_offsets_kept(self):
        g = CellSet([(1, 2), (1, 3)])
        assert render_ascii(g) == "  □ □"

    def test_diagonal_shading(self):
        b = alpha_from_strict(StrictPartition((1,), k=1))
        g = build_region(b.alpha, "D")
        out = render_ascii(g, diag=diagonal_spec(b, "D"))
        assert out == "■ □"

    def test_marks_take_precedence(self):
        g = CellSet([(1, 1), (1, 2)])
        assert render_ascii(g, marks=[(1, 2)]) == "□ ◉"

    def test_marks_outside_region_ignored(self):
        g = CellSet([(1, 1)])
        assert render_ascii(g, marks=[(5, 5)]) == "□"

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            render_ascii(CellSet())

    def test_shifted_strip_with_dotted_arm_cells(self):
        b = alpha_from_strict(StrictPartition((11, 9, 8, 5, 3, 2), k=12))
        shifted, u = shift_Ti(b, 5)
        assert u == 9
        marks = [(r, shifted.row_cols(r)[-5]) for r in shifted.occupied_rows()]
        art = render_ascii(shifted, marks=marks)
        assert art.count(DOTTED) == 12
        right_edges = {shifted.row_cols(r)[-1] for r in range(u, b.k + 1)}
        assert right_edges == {b.alpha.part(1) + b.k + 1}
