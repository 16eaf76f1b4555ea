"""Value semantics shared by every public record type.

Each record is an immutable value: equal and hashed by its fields, printed
as ``Name(field=value, ...)``, closed to assignment and deletion, built from
positional or keyword arguments with the documented defaults, and carried
through pickle and copy unchanged.  Its fields live in the instance
``__dict__``, which is what ``vars`` reports.
"""

from __future__ import annotations

import copy
import pickle

import pytest

import torusbundles
from torusbundles import (
    SL2Z,
    AbelianGroup,
    ClassificationReport,
    CrossChecks,
    E2Ranks,
    IntMatrix,
    Lattice,
    RationaleEntry,
    ResidueSet,
    SweepCounterexample,
    SweepReport,
    SWPolynomial,
    TorusBundle,
)
from torusbundles._record import Record

UPPER = SL2Z(1, 1, 0, 1)
IDENTITY = SL2Z(1, 0, 0, 1)
ENTRY = RationaleEntry("no-fixed-vector", "no common fixed vector")
CHECKS = CrossChecks(True, None)
COUNTEREXAMPLE = SweepCounterexample(2, 1, 3, 5, "odd-value", "value 5 is odd")

# (type, field values, a second value differing in one field)
SAMPLES = [
    (SL2Z, dict(a=1, b=1, c=0, d=1), dict(a=1, b=2, c=0, d=1)),
    (Lattice, dict(basis=((1, 0),)), dict(basis=((0, 1),))),
    (
        TorusBundle,
        dict(genus=2, monodromy=(UPPER, IDENTITY, IDENTITY, IDENTITY), euler=(2, 0)),
        dict(genus=2, monodromy=(UPPER, IDENTITY, IDENTITY, IDENTITY), euler=(3, 0)),
    ),
    (AbelianGroup, dict(free_rank=1, invariant_factors=(2, 4)), dict(free_rank=1, invariant_factors=(2,))),
    (IntMatrix, dict(entries=((1, 2), (3, 4)), cols=2), dict(entries=((1, 2), (3, 5)), cols=2)),
    (
        E2Ranks,
        dict(rank_e00=1, rank_e01=2, rank_e02=1, rank_e10=4, rank_e11=6, rank_e20=1, rank_e21=2, rank_e22=1),
        dict(rank_e00=1, rank_e01=2, rank_e02=1, rank_e10=4, rank_e11=5, rank_e20=1, rank_e21=2, rank_e22=1),
    ),
    (RationaleEntry, dict(rule="r", statement="s"), dict(rule="r", statement="t")),
    (CrossChecks, dict(betti_oracle=True, spectral_oracle=None), dict(betti_oracle=True, spectral_oracle=True)),
    (
        ClassificationReport,
        dict(
            b1=5,
            b2=8,
            has_circle_action=True,
            fiber_class_nonzero=True,
            symplectic=True,
            rationale=(ENTRY,),
            cross_checks=CHECKS,
        ),
        dict(
            b1=5,
            b2=8,
            has_circle_action=True,
            fiber_class_nonzero=True,
            symplectic=True,
            rationale=(),
            cross_checks=CHECKS,
        ),
    ),
    (ResidueSet, dict(modulus=6, members=(0, 2, 4)), dict(modulus=6, members=(0, 3))),
    (SWPolynomial, dict(modulus=3, terms=((0, 2), (1, -1), (2, -1))), dict(modulus=3, terms=())),
    (
        SweepCounterexample,
        dict(g=2, m=1, n=3, value=5, kind="odd-value", detail="value 5 is odd"),
        dict(g=2, m=1, n=3, value=5, kind="route-disagreement", detail="value 5 is odd"),
    ),
    (
        SweepReport,
        dict(cases=4, skipped=1, all_even=False, counterexamples=(COUNTEREXAMPLE,)),
        dict(cases=4, skipped=1, all_even=False, counterexamples=()),
    ),
]

IDS = [cls.__name__ for cls, _, _ in SAMPLES]


def test_every_public_record_is_sampled():
    public = {getattr(torusbundles, name) for name in torusbundles.__all__}
    records = {value for value in public if isinstance(value, type) and issubclass(value, Record)}
    assert {cls for cls, _, _ in SAMPLES} == records


@pytest.mark.parametrize("cls, values, other", SAMPLES, ids=IDS)
def test_equality_and_hash_by_value(cls, values, other):
    record = cls(**values)
    positional = cls(*values.values())
    assert record == positional
    assert hash(record) == hash(positional)
    assert record != cls(**other)
    assert record != tuple(values.values())
    assert len({record, positional, cls(**other)}) == 2


@pytest.mark.parametrize("cls, values, other", SAMPLES, ids=IDS)
def test_unequal_across_types(cls, values, other):
    record = cls(**values)
    for other_cls, other_values, _ in SAMPLES:
        if other_cls is not cls:
            assert record != other_cls(**other_values)


def test_same_values_of_different_types_unequal():
    assert RationaleEntry(True, None) != CrossChecks(True, None)


@pytest.mark.parametrize("cls, values, other", SAMPLES, ids=IDS)
def test_repr_lists_fields_in_order(cls, values, other):
    fields = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(cls(**values)) == f"{cls.__name__}({fields})"


def test_nested_repr():
    assert repr(AbelianGroup(1, (2,))) == "AbelianGroup(free_rank=1, invariant_factors=(2,))"
    assert repr(CrossChecks(True, None)) == "CrossChecks(betti_oracle=True, spectral_oracle=None)"
    bundle = TorusBundle(2, (UPPER, IDENTITY, IDENTITY, IDENTITY), (2, 0))
    assert repr(bundle) == (
        "TorusBundle(genus=2, monodromy=(SL2Z(a=1, b=1, c=0, d=1), SL2Z(a=1, b=0, c=0, d=1), "
        "SL2Z(a=1, b=0, c=0, d=1), SL2Z(a=1, b=0, c=0, d=1)), euler=(2, 0))"
    )


@pytest.mark.parametrize("cls, values, other", SAMPLES, ids=IDS)
def test_fields_are_read_only(cls, values, other):
    record = cls(**values)
    for name, value in other.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert vars(record) == values


@pytest.mark.parametrize("cls, values, other", SAMPLES, ids=IDS)
def test_keyword_construction_and_argument_errors(cls, values, other):
    names = list(values)
    reordered = dict(reversed(values.items()))
    assert cls(**reordered) == cls(**values)
    with pytest.raises(TypeError):
        cls(**values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values.values(), **{names[0]: values[names[0]]})
    with pytest.raises(TypeError):
        cls(*values.values(), 0)


def test_defaults():
    assert AbelianGroup(3).invariant_factors == ()
    assert AbelianGroup(free_rank=3) == AbelianGroup(3, ())
    report = SweepReport(cases=2, skipped=0, all_even=True)
    assert report.counterexamples == ()
    assert report == SweepReport(2, 0, True, ())
    with pytest.raises(TypeError):
        TorusBundle(genus=2, euler=(0, 0))


@pytest.mark.parametrize("cls, values, other", SAMPLES, ids=IDS)
def test_pickle_and_copy_round_trips(cls, values, other):
    record = cls(**values)
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(clone) is cls
        assert clone == record
        assert hash(clone) == hash(record)
        assert repr(clone) == repr(record)
        with pytest.raises(AttributeError):
            setattr(clone, next(iter(values)), None)
