"""Exception types named after the invariant they report."""

__all__ = [
    "HookpairError",
    "NotWeaklyDecreasing",
    "PartExceedsN",
    "WrongLength",
    "WrongN",
    "NotAnInteger",
    "EmptyField",
    "EmptySet",
    "NotASubset",
    "NotRising",
    "IndexOutOfRange",
    "NotADyckPath",
    "NoMatchingDownStep",
    "KindWithoutDiagonal",
    "NoShiftRow",
    "UnknownChoice",
    "NotContiguous",
    "CellNotInSet",
    "CellNotInT",
    "DuplicateSource",
    "NotInFamily",
    "CounterexampleFound",
]


class HookpairError(Exception):
    """Base class for all package errors."""


class NotWeaklyDecreasing(HookpairError, ValueError):
    """Partition parts increase somewhere or drop below zero."""


class PartExceedsN(HookpairError, ValueError):
    """A partition part is larger than the column bound n."""


class WrongLength(HookpairError, ValueError):
    """Partition does not have exactly k parts."""


class NotAnInteger(HookpairError, TypeError):
    """An integer input is not an ``int`` (``bool`` and ``float`` included),
    or its text is not an optional ``-`` and ASCII digits."""


class EmptyField(HookpairError, ValueError):
    """A comma-separated list of parts has an empty field."""


class EmptySet(HookpairError, ValueError):
    """Operation needs at least one cell."""


class CellNotInSet(HookpairError, KeyError):
    """Statistic requested for a cell outside the diagram."""


class NotASubset(HookpairError, ValueError):
    """Multiset restriction asked for cells outside the diagram."""


class NotRising(HookpairError, ValueError):
    """A shape's row intervals fall somewhere, so its legs are not one bisect."""


class IndexOutOfRange(HookpairError, ValueError):
    """An index, bound or count outside its allowed range."""


class NotADyckPath(HookpairError, ValueError):
    """Step sequence leaves the first quadrant or does not return to zero."""


class NoMatchingDownStep(HookpairError, ValueError):
    """An up step has no later down step one level higher."""


class CellNotInT(HookpairError, KeyError):
    """Rotation applied to a cell outside the strip region T."""


class WrongN(HookpairError, ValueError):
    """Projective constructions need n = k + 1."""


class KindWithoutDiagonal(HookpairError, ValueError):
    """Region kind has no defined diagonal."""


class NoShiftRow(HookpairError, ValueError):
    """No row of the strip lies above the diagonal for this arm index."""


class UnknownChoice(HookpairError, ValueError):
    """A selector names none of its allowed choices: an identity, a zeta
    kind, a statistic or a region kind."""


class NotContiguous(HookpairError, ValueError):
    """A row of a cell set has a gap, so it has no single column interval."""


class DuplicateSource(HookpairError, ValueError):
    """A cell map has two entries from one source cell."""


class NotInFamily(HookpairError, ValueError):
    """A partition asked for a diagonal construction is not in the n = k+1
    Frobenius family."""


class CounterexampleFound(HookpairError, AssertionError):
    """A verified identity failed; carries the offending case.

    The identities checked by this package are theorems, so this error
    signals an implementation bug rather than a mathematical discovery.
    """

    def __init__(self, message: str, *, case=None, detail=None):
        super().__init__(message)
        self.case = case
        self.detail = detail
