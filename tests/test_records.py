"""Record semantics of the package's value classes: construction with
defaults, field equality within one class, hashing and immutability of
the frozen records, repr, validation, and copies with changed fields."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import voachain
from voachain.complexes import (
    ChainElement,
    CohomologyReport,
    ComplexError,
    ConditionReport,
    ConnectionReport,
    CorrelationFunction,
    DifferentialDescriptor,
    InsertionTuple,
    ProbeComplex,
    Sphere,
    Trace,
    apply_D1,
    apply_Dn,
    connection_functional,
    element_from_insertions,
)
from voachain.elliptic import EllipticError, EllipticValue, ModularPoint, RationalKernel
from voachain.schottky import SchottkyData, SewingData, SewingError
from voachain.series import _Record
from voachain.voa import A_VECTOR, VACUUM, FockState

HANDLE = (Fraction(1), Fraction(-1), 3, "rho")
INS = InsertionTuple(((A_VECTOR, 3), (A_VECTOR, 1)))
VALUE = CorrelationFunction(0, Fraction(1, 4))

# class, positional arguments, then every field with its value
# (defaults included), and positional arguments of an unequal instance
RECORDS = [
    (FockState, ((1, 2),), {"partition": (2, 1)}, ((1, 1, 1),)),
    (ModularPoint, (2j,), {"tau": 2j, "q_order": 40}, (2j, 41)),
    (EllipticValue, (1 + 1j, 0.5), {"value": 1 + 1j, "tail_estimate": 0.5}, (1 + 1j, 0.25)),
    (RationalKernel, (2, 1), {"n": 2, "m": 1}, (1, 2)),
    (SewingData, (), {"zeta1": 1, "zeta2": -1}, (2,)),
    (SchottkyData, (1, (1, -1)), {"genus": 1, "points": (1, -1)}, (1, (2, -2))),
    (InsertionTuple, ((),), {"entries": ()}, (((A_VECTOR, 1),),)),
    (CorrelationFunction, (0, 5), {"genus": 0, "data": 5, "prefactor_exponent": Fraction(0)},
     (0, 5, Fraction(-1, 24))),
    (Sphere, (), {"handles": ()}, ((HANDLE,),)),
    (Trace, (3, (HANDLE,)), {"q_order": 3, "handles": (HANDLE,)}, (3,)),
    (ChainElement, (INS, VALUE), {"insertions": INS, "value": VALUE, "evaluator": Sphere()},
     (INS, VALUE, Trace(3))),
    (DifferentialDescriptor, (None, 3), {"state": None, "point": 3, "sewing": None},
     (None, 4)),
    (ConditionReport, ("n", 0.0, 1.0, {}), {"kind": "n", "residual": 0.0,
                                            "composition_norm": 1.0, "detail": {},
                                            "vanishes": True},
     ("g", 0.0, 1.0, {})),
    (ConnectionReport, ({}, 0.0, True, {}), {"components": {}, "G_norm": 0.0,
                                             "vanishing": True, "identification": {}},
     ({}, 1.0, False, {})),
    (ProbeComplex, (("1", "a"), 1, 2),
     {"pool": ("1", "a"), "g_max": 1, "n_max": 2, "descriptor_pool_index": 0,
      "zero_dn": False, "zero_dg": False},
     (("1", "a"), 1, 2, 1)),
    (CohomologyReport, (1, 4, 2, 2, 1, 1, False, 0),
     {"m": 1, "dim_domain": 4, "rank_dm": 2, "dim_kernel": 2, "rank_dm_minus_1": 1,
      "betti": 1, "non_complex": False, "composition_residual": 0},
     (1, 4, 2, 2, 1, None, True, 3)),
]
MUTABLE = {ChainElement, ConditionReport, ConnectionReport, CohomologyReport}
IDS = [case[0].__name__ for case in RECORDS]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_records_lists_every_record_class_of_the_package():
    # a record added, deleted or reshaped cannot leave the table stale
    for module in pkgutil.iter_modules(voachain.__path__):
        importlib.import_module(f"voachain.{module.name}")
    defined = {cls for cls in _subclasses(_Record)
               if cls.__module__.startswith("voachain.") and not cls.__name__.startswith("_")}
    assert defined == {case[0] for case in RECORDS}
    assert len(IDS) == len(set(IDS))


def fields_of(record, names):
    return {name: getattr(record, name) for name in names}


@pytest.mark.parametrize("cls, args, fields, other", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_with_defaults(cls, args, fields, other):
    by_position = cls(*args)
    assert fields_of(by_position, fields) == fields
    keywords = dict(zip(fields, args))
    by_keyword = cls(**keywords)
    assert fields_of(by_keyword, fields) == fields
    assert by_position == by_keyword
    assert not by_position != by_keyword
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    if args:
        with pytest.raises(TypeError):
            cls(*args, **{next(iter(fields)): args[0]})


@pytest.mark.parametrize("cls, args, fields, other", RECORDS, ids=IDS)
def test_equality_is_by_fields_within_one_class(cls, args, fields, other):
    record = cls(*args)
    if other is not None:
        assert record != cls(*other)
    # a record of another class, or the tuple of its own fields, is never equal
    for foreign_cls, foreign_args, _, _ in RECORDS:
        if foreign_cls is not cls:
            assert record != foreign_cls(*foreign_args)
    assert record.__eq__(tuple(fields.values())) is NotImplemented
    assert record != tuple(fields.values())


@pytest.mark.parametrize("cls, args, fields, other", RECORDS, ids=IDS)
def test_frozen_records_hash_and_refuse_assignment(cls, args, fields, other):
    record = cls(*args)
    name = next(iter(fields), None)
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, name, getattr(record, name))
        return
    assert hash(record) == hash(cls(*args))
    assert {record: 1}[cls(*args)] == 1
    if name is not None:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        assert fields_of(record, fields) == fields


@pytest.mark.parametrize("cls, args, fields, other", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal_records(cls, args, fields, other):
    record = cls(*args)
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record
        assert fields_of(twin, fields) == fields
        if cls not in MUTABLE:
            assert hash(twin) == hash(record)


@pytest.mark.parametrize("cls, args, fields, other", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, args, fields, other):
    if cls is FockState:
        return
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(*args)) == f"{cls.__name__}({body})"


def test_fock_state_keys_dicts_by_its_sorted_partition():
    state = FockState((1, 3, 2))
    assert repr(state) == "|3,2,1>" and repr(FockState(())) == "|0>"
    table = {state: "x", VACUUM: "vac"}
    assert table[FockState([2, 1, 3])] == "x"
    assert table[FockState(())] == "vac"
    assert FockState(("2", 1)).partition == (2, 1)
    assert len({FockState((1, 2)), FockState((2, 1)), FockState((2, 1))}) == 1


def test_equal_evaluators_hash_equal():
    assert hash(Sphere()) == hash(Sphere())
    assert hash(Trace(5)) == hash(Trace(5)) and Trace(5) != Trace(6)
    sewn = Trace(4, (HANDLE, (3, -3, 2, "rho2")))
    assert sewn == Trace(4, (HANDLE, (3, -3, 2, "rho2")))
    assert len({sewn, Trace(4, (HANDLE, (3, -3, 2, "rho2"))), Sphere(), Sphere()}) == 2


def test_class_attributes_are_no_fields():
    # the genus counts the handles: one property of every surface
    assert Sphere.genus is Trace.genus
    assert (Sphere().genus, Trace(3).genus) == (0, 1)
    assert Trace.prefactor_exponent == Fraction(-1, 24)
    assert Sphere().handle_points == ()
    assert Trace(3, (HANDLE, HANDLE)).genus == 3
    for extra in (lambda: Trace(3, (), 1), lambda: Sphere((), 1)):
        with pytest.raises(TypeError):
            extra()


def test_chain_element_defaults_to_the_sphere():
    elem = ChainElement(INS, VALUE)
    assert elem.evaluator == Sphere()
    assert elem.genus == 0
    # the evaluator is the one record of the surface: its genus is the element's
    assert ChainElement(INS, VALUE, Trace(3, (HANDLE,))).genus == 2


@pytest.mark.parametrize("make, error, message", [
    (lambda: FockState((2, 0)), ValueError, "partition parts must be positive"),
    (lambda: FockState((-1,)), ValueError, "partition parts must be positive"),
    (lambda: SewingData(zeta1=2, zeta2=2), SewingError, "sewing insertion points must differ"),
    (lambda: SchottkyData(0, ()), SewingError, "genus must be >= 1"),
    (lambda: SchottkyData(2, (1, -1)), SewingError, "need two points per handle"),
    (lambda: SchottkyData(1, (1, 1)), SewingError, "sewing points must be pairwise distinct"),
    (lambda: InsertionTuple(((A_VECTOR, 1), (A_VECTOR, 1))), ComplexError,
     "insertion points must be pairwise distinct"),
    (lambda: element_from_insertions(INS, -1), ComplexError, "genus must be >= 0"),
    (lambda: element_from_insertions(INS, 2), ComplexError,
     "genus-2 elements need SchottkyData of that genus"),
    (lambda: element_from_insertions(INS, 2, SchottkyData(1, (5, -5))), ComplexError,
     "genus-2 elements need SchottkyData of that genus"),
    (lambda: element_from_insertions(INS, 1, SchottkyData(1, (5, -5))), ComplexError,
     "genus-1 elements take no SchottkyData"),
    (lambda: ModularPoint(1 + 0j), EllipticError, "tau must have positive imaginary part"),
    (lambda: ModularPoint(-1j, 5), EllipticError, "tau must have positive imaginary part"),
    (lambda: ProbeComplex(("1",), -1, 2), ComplexError,
     "g_max -1 and n_max 2 must not be negative"),
    (lambda: ProbeComplex(("1",), 1, -1), ComplexError,
     "g_max 1 and n_max -1 must not be negative"),
    (lambda: ProbeComplex(("1", "a"), 1, 2, 2), ComplexError,
     "descriptor_pool_index 2 names no state of the pool"),
    (lambda: ProbeComplex(("1", "a"), 1, 2, -1), ComplexError,
     "descriptor_pool_index -1 names no state of the pool"),
], ids=["fock-zero", "fock-negative", "sewing-points", "schottky-genus",
        "schottky-count", "schottky-points", "insertion-points", "element-genus",
        "element-schottky-missing", "element-schottky-genus", "element-schottky-below-2",
        "modular-real", "modular-lower",
        "probe-g-max", "probe-n-max", "probe-index-past", "probe-index-negative"])
def test_validation_errors(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_steps_copy_element_and_value_with_new_fields():
    # a reduction step copies the element and its value: the evaluator,
    # genus and prefactor ride along, the input is untouched
    elem = element_from_insertions(InsertionTuple(((A_VECTOR, Fraction(5)),)), 1, q_order=4)
    before = (elem.insertions, elem.value, elem.evaluator)
    for step in (apply_D1, apply_Dn):
        stepped = step((A_VECTOR, Fraction(2)), elem)
        assert type(stepped) is ChainElement and stepped is not elem
        assert stepped.evaluator == elem.evaluator
        assert stepped.insertions == elem.insertions.append(A_VECTOR, Fraction(2))
        assert type(stepped.value) is CorrelationFunction
        assert (stepped.value.genus, stepped.value.prefactor_exponent) == (1, Fraction(-1, 24))
    assert (elem.insertions, elem.value, elem.evaluator) == before


def test_connection_terms_copy_values_with_new_data():
    phi = element_from_insertions(InsertionTuple(((A_VECTOR, Fraction(3)),)), 0)
    report = connection_functional(phi, (A_VECTOR, Fraction(7)), rho_order=3)
    sewing = report.components["sewing_term"]
    assert type(sewing) is CorrelationFunction
    assert (sewing.genus, sewing.prefactor_exponent) == (1, Fraction(0))
    assert sewing.data.coefficient(0) == 0
