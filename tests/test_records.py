"""The record types: pickling and copying, immutability, repr text, tuple
behaviour, and the checks that ``_make`` and ``_replace`` go through."""

import copy
import pickle

import pytest

from hookpair import (
    Partition,
    StrictPartition,
    SweepConfig,
    alpha_from_strict,
    build_certificate,
    build_dyck,
    build_region,
    build_sigma,
    diagonal_spec,
    m_decomposition,
    phi_map,
    run_sweep,
)
from hookpair.errors import (
    IndexOutOfRange,
    NotAnInteger,
    NotWeaklyDecreasing,
    PartExceedsN,
    UnknownChoice,
    WrongLength,
)

P = Partition((3, 1), 2, 3)
# the worked instance of the n = k+1 family: lambda = (9, 7, 4, 2), k = 12
B = alpha_from_strict(StrictPartition((9, 7, 4, 2), 12))
CFG = SweepConfig(max_k=3, max_n=None, theorems=("projective",))


def _certificate():
    strip, star = build_region(P, "T"), build_region(P, "Tstar")
    return build_certificate(phi_map(P), strip, strip, {"Tstar": (star, star)})


SIGMA = build_sigma(P, 2)
CERT = _certificate()

# (record, one of its fields), one for every record type
RECORDS = {
    "Partition": (P, "parts"),
    "Label": (SIGMA[0], "index"),
    "SigmaSequence": (SIGMA, "labels"),
    "DyckPath": (build_dyck(SIGMA), "steps"),
    "MapEntry": (phi_map(P).entries[0], "target"),
    "CertRecord": (CERT.records[0], "source_stat"),
    "BijectionCertificate": (CERT, "verdict"),
    "StrictPartition": (B.lam, "k"),
    "ClassBPartition": (B, "alpha"),
    "DiagonalSpec": (diagonal_spec(B, "T"), "cells"),
    "MDecomposition": (m_decomposition(B, 5), "checks"),
    "SweepConfig": (CFG, "jobs"),
    "SweepReport": (run_sweep(SweepConfig(max_k=2, max_n=2, theorems=("1",))), "cases"),
}


# records with Counter or dict fields
UNHASHABLE = {"MDecomposition", "SweepReport"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_type_names(name):
    assert type(RECORDS[name][0]).__name__ == name


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_and_deepcopy_round_trip(name):
    record, _ = RECORDS[name]
    copies = [pickle.loads(pickle.dumps(record, proto))
              for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies.append(copy.deepcopy(record))
    for other in copies:
        assert type(other) is type(record)
        assert other == record and repr(other) == repr(record)
        if name not in UNHASHABLE:
            assert hash(other) == hash(record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    record, field = RECORDS[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize(
    "record, text",
    [
        (B, "ClassBPartition(alpha=Partition(parts=(10, 9, 7, 6, 4, 3, 2, 2, 1, 0, 0, 0), "
            "k=12, n=13), lam=StrictPartition(parts=(9, 7, 4, 2), k=12), m=4)"),
        (m_decomposition(B, 5),
         "MDecomposition(i=5, u=7, s=5, s_eff=5, "
         "m1=Counter({2: 3, 3: 3, 0: 1, 1: 1, 4: 1, 5: 1, 6: 1, 7: 1}), "
         "m2=Counter({2: 3, 3: 3, 0: 1, 1: 1, 4: 1, 5: 1, 6: 1, 7: 1}), "
         "m3=Counter({2: 2, 3: 2, 0: 1, 1: 1}), m4=Counter({2: 1, 3: 1}), "
         "m11=Counter({2: 2, 3: 2, 0: 1, 1: 1}), "
         "m12=Counter({2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}), "
         "m21=Counter({0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}), "
         "m22=Counter({2: 1, 3: 1}), m23=Counter({2: 1, 3: 1}), "
         "checks={'m1_vs_m2': True, 'm11_vs_m3': True, 'm12_range': True, "
         "'m21_range': True, 'm22_range': True, 'm23_vs_m4': True, "
         "'m3_vs_m4_low_legs': True})"),
        (diagonal_spec(B, "T"),
         "DiagonalSpec(kind='T', total=23, cells=((5, 18), (6, 17), (7, 16), (8, 15), "
         "(9, 14), (10, 13), (11, 12), (12, 11)))"),
        (CFG, "SweepConfig(max_k=3, max_n=None, theorems=('projective',), out=None, jobs=1)"),
        (phi_map(Partition((2, 1), 2, 2)).entries[0],
         "MapEntry(source=(1, 1), target=(1, 1), target_tag='Tstar', al=(1, 0))"),
        (build_dyck(build_sigma(Partition((2, 1), 2, 2), 1)),
         "DyckPath(steps=((1, Label(kind='x', index=1, cell=(1, 2))), "
         "(-1, Label(kind='z', index=2, cell=(1, 2))), "
         "(1, Label(kind='x', index=2, cell=(2, 3))), "
         "(-1, Label(kind='z', index=1, cell=(2, 3)))), ordinates=(0, 1, 0, 1, 0))"),
    ],
    ids=["ClassBPartition", "MDecomposition", "DiagonalSpec", "SweepConfig", "MapEntry",
         "DyckPath"],
)
def test_repr_text(record, text):
    # the text these records printed as frozen dataclasses
    assert repr(record) == text


def test_records_are_tuples_but_sigma_and_path_are_not():
    parts, k, n = P
    assert (parts, k, n) == ((3, 1), 2, 3) and P == ((3, 1), 2, 3)
    assert P._asdict() == {"parts": (3, 1), "k": 2, "n": 3}
    assert CFG == (3, None, ("projective",), None, 1)
    path = RECORDS["DyckPath"][0]
    assert not isinstance(SIGMA, tuple) and not isinstance(path, tuple)
    assert list(SIGMA) == list(SIGMA.labels) and len(path) == len(path.steps)
    assert SIGMA != (SIGMA.labels,) and path != (path.steps, path.ordinates)


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: P._replace(k=0), IndexOutOfRange),
        (lambda: P._replace(k=3), WrongLength),
        (lambda: P._replace(n=2), PartExceedsN),
        (lambda: P._replace(parts=(1, 3)), NotWeaklyDecreasing),
        (lambda: P._replace(n=True), NotAnInteger),
        (lambda: Partition._make([(1, 3), 2, 3]), NotWeaklyDecreasing),
        (lambda: B.lam._replace(k=8), PartExceedsN),
        (lambda: B.lam._replace(parts=(2, 2)), NotWeaklyDecreasing),
        (lambda: StrictPartition._make([(0,), 3]), IndexOutOfRange),
        (lambda: CFG._replace(jobs=0), IndexOutOfRange),
        (lambda: CFG._replace(theorems="projective"), UnknownChoice),
        (lambda: CFG._replace(theorems=("1",)), UnknownChoice),
        (lambda: SweepConfig._make([3, 3, ("1", "1"), None, 1]), UnknownChoice),
    ],
    ids=["partition-k", "partition-length", "partition-n", "partition-order",
         "partition-bool", "partition-make", "strict-bound", "strict-order",
         "strict-make", "sweep-jobs", "sweep-string", "sweep-no-n", "sweep-make"],
)
def test_make_and_replace_run_the_checks(make, error):
    with pytest.raises(error):
        make()


def test_replace_stores_checked_fields():
    assert P._replace(parts=[3, 2]) == Partition((3, 2), 2, 3)
    assert type(P._replace(n=4)) is Partition
    assert CFG._replace(theorems=["projective"]).theorems == ("projective",)
