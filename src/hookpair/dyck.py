"""Labeled lattice paths built from the staircase strip of a partition.

For a bounded partition and a cut parameter ``i`` we place two families of
labels on the strip ``T``: the x-labels sit on the cells whose arm length is
exactly ``i - 1`` (one per row, numbered bottom to top) and the z-labels sit
on the rightmost cells (one per row, numbered top to bottom).  Reading the
labels column by column gives a word ``sigma``; replacing x by an up step and
z by a down step gives a lattice path that never dips below the axis.  The
canonical matching of up steps with down steps is the permutation computed by
:func:`pair_updown`.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import _EXPORTS
from .diagrams import Cell, Partition, _region_rows, _require_cut, _require_int
from .errors import IndexOutOfRange, NoMatchingDownStep, NotADyckPath

__all__ = _EXPORTS["dyck"]


class Label(NamedTuple):
    """One of the 2k markers placed on the strip: kind 'x' or 'z'."""

    kind: str
    index: int
    cell: Cell

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


class _Record:
    """A frozen record of the fields in ``__slots__``, compared and hashed
    by value and shown with each field named.  Not a tuple, since
    ``SigmaSequence`` iterates over its labels and ``DyckPath`` counts its
    steps: a namedtuple's ``_make``, ``_asdict`` and pickling would read
    those in place of the fields."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


class SigmaSequence(_Record):
    """The 2k labels in column order (ties: x before z, then lower row first)."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple[Label, ...]):
        object.__setattr__(self, "labels", labels)

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, t):
        return self.labels[t]

    def __str__(self) -> str:
        return " ".join(str(lab) for lab in self.labels)


class DyckPath(_Record):
    """Steps (+1 up / -1 down, one per label) and the ordinates y_0..y_2k."""

    __slots__ = ("steps", "ordinates")

    def __init__(self, steps: tuple[tuple[int, Label], ...], ordinates: tuple[int, ...]):
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "ordinates", ordinates)

    def __len__(self) -> int:
        return len(self.steps)

    def step_height(self, t: int) -> int:
        """Height of step t (1-based): the ordinate where the step starts."""
        if not 1 <= _require_int(t, "step index") <= len(self.steps):
            raise IndexOutOfRange(f"step index {t} not in 1..{len(self.steps)}")
        return self.ordinates[t - 1]

    def max_height(self) -> int:
        return max(self.ordinates)

    def to_json(self) -> dict:
        return {
            "steps": [
                {"dir": d, "kind": lab.kind, "index": lab.index}
                for d, lab in self.steps
            ]
        }

    def render_text(self) -> str:
        """Two aligned lines: U/D characters over the label names."""
        tops, bottoms = [], []
        for d, lab in self.steps:
            name = str(lab)
            tops.append(("U" if d == 1 else "D").ljust(len(name)))
            bottoms.append(name)
        return " ".join(tops).rstrip() + "\n" + " ".join(bottoms)


def label_cells(p: Partition, i: int) -> tuple[list[Label], list[Label]]:
    """Return (x-labels, z-labels) for the strip of p at cut i.

    x_j is the arm-(i-1) cell of row j, rows bottom to top; z_j is the
    rightmost cell of row k+1-j, rows top to bottom.  For i=1 the two
    families occupy the same cells.
    """
    _require_cut(p, i)
    ends = [hi for _, hi in _region_rows(p, "T")]
    xs = [Label("x", j, (j, hi - i + 1)) for j, hi in enumerate(ends, 1)]
    zs = [Label("z", j, (p.k + 1 - j, ends[-j])) for j in range(1, p.k + 1)]
    return xs, zs


def build_sigma(p: Partition, i: int) -> SigmaSequence:
    """Order all 2k labels by column, x before z in ties, lower rows first."""
    xs, zs = label_cells(p, i)
    order = sorted(xs + zs, key=lambda lab: (lab.cell[1], lab.kind, lab.cell[0]))
    return SigmaSequence(tuple(order))


def build_dyck(s: SigmaSequence) -> DyckPath:
    """Turn a sigma word into a path: x steps go up, z steps go down.

    The result is validated; a path that ends off the axis or dips below it
    raises NotADyckPath (which would indicate a construction bug, since the
    ordering rule provably yields a valid path).
    """
    steps = []
    ordinates = [0]
    y = 0
    for lab in s:
        d = 1 if lab.kind == "x" else -1
        y += d
        if y < 0:
            raise NotADyckPath(f"path dips below axis after {lab}")
        steps.append((d, lab))
        ordinates.append(y)
    if y != 0:
        raise NotADyckPath(f"path ends at ordinate {y}, expected 0")
    return DyckPath(tuple(steps), tuple(ordinates))


def pair_updown(d: DyckPath) -> dict[int, int]:
    """Match each up step with a down step; returns {x-index: z-index}.

    An up step at height h is matched with the first later down step at
    height h+1.  A single pending stack realizes exactly that rule: when a
    down step at height h+1 arrives, every up step pushed after the most
    recent unmatched one at height h has already been popped.
    """
    pairing: dict[int, int] = {}
    pending: list[Label] = []
    for step_dir, lab in d.steps:
        if step_dir == 1:
            pending.append(lab)
        else:
            if not pending:
                raise NoMatchingDownStep(f"down step {lab} has no open up step")
            pairing[pending.pop().index] = lab.index
    if pending:
        raise NoMatchingDownStep(f"up step {pending[-1]} was never matched")
    return pairing


def pairing_tuple(pairing: dict[int, int]) -> tuple[int, ...]:
    """Pairing as the tuple (P(1), ..., P(k))."""
    return tuple(pairing[j] for j in sorted(pairing))


def _pair_columns(xs: list[int], zs: list[int]) -> tuple[int, ...]:
    """P as ``pairing_tuple`` gives it for the word with x_j in column
    xs[j-1] and row r's z, z_{k+1-r}, in column zs[r-1]: both rise with the
    row, so the word is their merge, an x before a z in its column."""
    k, m = len(zs), len(xs)
    pairing = [0] * m
    stack = []
    j = 0
    for r, z in enumerate(zs):
        while j < m and xs[j] <= z:
            stack.append(j)
            j += 1
        if not stack:
            raise NoMatchingDownStep(f"down step z{k - r} has no open up step")
        pairing[stack.pop()] = k - r
    if stack or j < m:
        raise NoMatchingDownStep(f"{len(stack) + m - j} up steps were never matched")
    return tuple(pairing)


def _pairings(p: Partition) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(i, P_i) at every cut i = 1..n, with no label or path: x_j sits in
    column hi_j - i + 1 of strip row j, and row r's z at its end hi_r."""
    ends = []
    for r, (lo, hi) in enumerate(_region_rows(p, "T"), 1):
        if hi - lo + 1 < p.n:  # every row holds n cells, so each x lies in its row
            raise IndexOutOfRange(f"row {r} has only {hi - lo + 1} cells, need {p.n}")
        ends.append(hi)
    for i in range(1, p.n + 1):
        yield i, _pair_columns([hi - i + 1 for hi in ends], ends)
