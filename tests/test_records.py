"""The three result records, ModuliParams, CriterionReport and PWReport:
construction, value equality, hashing, repr, immutability and copying; and
the same immutability and copying for the four other value classes."""

import copy
import pickle
from fractions import Fraction

import pytest

from pwcheck.epoly import CohomologyProfile, ModuliParams
from pwcheck.filtration import Criterion, CriterionReport, FiltrationTable
from pwcheck.hitchin import PWReport
from pwcheck.laurent import BiLaurentPoly, LaurentPoly

PARAMS = {"n": 2, "g": 2, "d": 1}
PERVERSE_CHECK = {"criterion": Criterion.FIRST, "m": 3, "k": 2, "cond_i": True,
                  "cond_ii": True, "cond_iii": True, "is_k_seq": True,
                  "first_violation": None}
WEIGHT_CHECK = {"criterion": Criterion.SECOND, "m": 3, "k": 2, "cond_i": True,
                "cond_ii": False, "cond_iii": True, "is_k_seq": False,
                "first_violation": ("ii", (1,))}
PW = {"params": ModuliParams(**PARAMS), "perverse": FiltrationTable({(3, 2): 30}),
      "weight": FiltrationTable({(3, 2): 30}),
      "perverse_check": CriterionReport(**PERVERSE_CHECK),
      "weight_check": CriterionReport(**WEIGHT_CHECK), "tables_equal": True}

PARAMS_REPR = "ModuliParams(n=2, g=2, d=1)"
PERVERSE_REPR = ("CriterionReport(criterion=<Criterion.FIRST: 'first'>, m=3, k=2, "
                 "cond_i=True, cond_ii=True, cond_iii=True, is_k_seq=True, "
                 "first_violation=None)")
WEIGHT_REPR = ("CriterionReport(criterion=<Criterion.SECOND: 'second'>, m=3, k=2, "
               "cond_i=True, cond_ii=False, cond_iii=True, is_k_seq=False, "
               "first_violation=('ii', (1,)))")

# (class, field values in declaration order, exact repr)
CASES = [
    pytest.param(ModuliParams, PARAMS, PARAMS_REPR, id="params"),
    pytest.param(CriterionReport, PERVERSE_CHECK, PERVERSE_REPR, id="criterion"),
    pytest.param(CriterionReport, WEIGHT_CHECK, WEIGHT_REPR, id="criterion-failed"),
    pytest.param(PWReport, PW, (
        f"PWReport(params={PARAMS_REPR}, perverse=FiltrationTable({{(3, 2): 30}}), "
        f"weight=FiltrationTable({{(3, 2): 30}}), perverse_check={PERVERSE_REPR}, "
        f"weight_check={WEIGHT_REPR}, tables_equal=True)"), id="pw"),
]


def _changed(values):
    """The same fields with the last one given another value."""
    name = list(values)[-1]
    return {**values, name: 3 if name == "d" else not values[name]}


@pytest.mark.parametrize("cls, values, text", CASES)
def test_fields_and_construction(cls, values, text):
    record = cls(*values.values())
    for name, value in values.items():
        assert getattr(record, name) == value
    assert cls(**values) == record
    first, *rest = values
    assert cls(values[first], **{name: values[name] for name in rest}) == record
    assert repr(record) == text


def test_degree_defaults_to_one():
    assert ModuliParams(2, 2) == ModuliParams(2, 2, 1) == ModuliParams(n=2, g=2)
    assert ModuliParams(3, 2).d == 1


def test_params_have_no_wire_form():
    # to_json comes from the shared base; ModuliParams has no to_json_obj.
    with pytest.raises(AttributeError):
        ModuliParams(2, 2).to_json()


@pytest.mark.parametrize("cls, values, text", CASES)
def test_value_equality_and_hash(cls, values, text):
    record, same, other = cls(**values), cls(**values), cls(**_changed(values))
    assert record == same and not record != same and hash(record) == hash(same)
    assert record != other and not record == other
    # Same class only: the field tuple, or a record of another class,
    # is never equal.
    fields = tuple(values.values())
    assert record != fields and record.__eq__(fields) is NotImplemented
    for stranger in (ModuliParams(3, 2), CriterionReport(**WEIGHT_CHECK)):
        if type(stranger) is not cls:
            assert record != stranger and record.__eq__(stranger) is NotImplemented
    assert len({record, same, other}) == 2


@pytest.mark.parametrize("cls, values, text", CASES)
def test_wrong_argument_lists_raise_type_error(cls, values, text):
    args = list(values.values())
    with pytest.raises(TypeError):
        cls(*args[:1])
    with pytest.raises(TypeError):
        cls(*args, 0)
    with pytest.raises(TypeError):
        cls(*args, extra=0)
    with pytest.raises(TypeError):
        cls(*args, **{list(values)[0]: args[0]})


@pytest.mark.parametrize("cls, values, text", CASES)
def test_records_are_immutable(cls, values, text):
    record = cls(**values)
    for name in (*values, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    for name in values:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**values)


@pytest.mark.parametrize("cls, values, text", CASES)
def test_copy_and_pickle_round_trips(cls, values, text):
    record = cls(**values)
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == text


@pytest.mark.parametrize("cls, values, text", CASES)
def test_assignment_error_names_the_class(cls, values, text):
    record = cls(**values)
    for change in (lambda: setattr(record, "other", 0), lambda: delattr(record, list(values)[0])):
        with pytest.raises(AttributeError) as info:
            change()
        assert str(info.value) == f"{cls.__name__} is immutable"


# A builder of one value of each of the four other value classes.
VALUES = [
    pytest.param(lambda: LaurentPoly({2: 3, 0: Fraction(1, 2), -1: -1}), id="laurent"),
    pytest.param(lambda: BiLaurentPoly({(1, 0): 3, (0, -2): Fraction(1, 2)}), id="bilaurent"),
    pytest.param(lambda: FiltrationTable({(1, 2): 3, (0, 0): 1}), id="table"),
    pytest.param(lambda: CohomologyProfile({-2: 1, 3: 4}), id="profile"),
]


@pytest.mark.parametrize("make", VALUES)
def test_values_are_frozen(make):
    value, same = make(), make()
    cls = type(value)
    slots = [name for klass in cls.__mro__ for name in vars(klass).get("__slots__", ())]
    assert slots and not hasattr(value, "__dict__")
    # Neither a slot nor a new name can be set or deleted.
    for name in (*slots, "other"):
        for change in (lambda: setattr(value, name, 0), lambda: delattr(value, name)):
            with pytest.raises(AttributeError) as info:
                change()
            assert str(info.value) == f"{cls.__name__} is immutable"
    assert value == same and repr(value) == repr(same)
    # copy and pickle rebuild through the constructor.
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)
