"""The graded-dimension core shared by FiltrationTable and CohomologyProfile,
the key and value checks of the graded and polynomial constructors, and
the JSON readers, which accept only what the constructors accept."""

import pytest

from pwcheck.epoly import CohomologyProfile
from pwcheck.filtration import FiltrationTable
from pwcheck.laurent import BiLaurentPoly, LaurentPoly

# (class, cells with one zero, their repr, their JSON, a key not in the cells)
CASES = [
    pytest.param(FiltrationTable, {(1, 2): 3, (0, 0): 1, (4, 4): 0},
                 "FiltrationTable({(0, 0): 1, (1, 2): 3})", "[[0,0,1],[1,2,3]]", (2, 5),
                 id="table"),
    pytest.param(CohomologyProfile, {3: 2, 1: 5, 7: 0},
                 "CohomologyProfile({1: 5, 3: 2})", '{"1":5,"3":2}', 6,
                 id="profile"),
    # A degree may also come as the str to_json_obj writes for it.
    pytest.param(CohomologyProfile, {"-2": 1, 0: 4, "13": 0},
                 "CohomologyProfile({-2: 1, 0: 4})", '{"-2":1,"0":4}', 13,
                 id="profile-str-degrees"),
]


@pytest.mark.parametrize("cls, cells, text, wire, key", CASES)
def test_shared_core(cls, cells, text, wire, key):
    g = cls(cells)
    name = cls.__name__
    for attr in ("_c", "other"):
        with pytest.raises(AttributeError) as info:
            setattr(g, attr, {})
        assert str(info.value) == f"{name} is immutable"
    assert not hasattr(g, "__dict__")
    assert repr(g) == text
    # Zeros are dropped, so they change neither equality nor hash.
    same = cls({k: v for k, v in reversed(cells.items()) if v})
    assert g == same and hash(g) == hash(same)
    assert len(g) == 2 and g and g.total() == sum(cells.values())
    assert not cls() and not cls({key: 0}) and len(cls({key: 0})) == 0
    assert g != cls({key: 1})
    assert cls.from_json(g.to_json()) == g and g.to_json() == wire


def test_the_two_classes_never_compare_equal():
    assert FiltrationTable() != CohomologyProfile()
    assert not FiltrationTable() == CohomologyProfile()
    assert CohomologyProfile({0: 1}) != FiltrationTable({(0, 0): 1})


@pytest.mark.parametrize("cls, cells, message", [
    (FiltrationTable, {(0, 0): -1}, "value at (0, 0) must be a nonnegative int"),
    (FiltrationTable, {(1, 2): True}, "value at (1, 2) must be a nonnegative int"),
    (FiltrationTable, {(1, 2): 1.0}, "value at (1, 2) must be a nonnegative int"),
    (FiltrationTable, {(-1, 0): 1}, "cell index (-1, 0) must be a pair of nonnegative ints"),
    (FiltrationTable, {(0, "1"): -1}, "cell index (0, '1') must be a pair of nonnegative ints"),
    (CohomologyProfile, {3: -1}, "dimension at degree 3 must be a nonnegative int"),
    (CohomologyProfile, {3: True}, "dimension at degree 3 must be a nonnegative int"),
    (CohomologyProfile, {"3": "2"}, "dimension at degree 3 must be a nonnegative int"),
    # A degree is an int that is no bool, or the str to_json_obj writes.
    (CohomologyProfile, {2.5: 1}, "degree 2.5 must be an int or its decimal str"),
    (CohomologyProfile, {2.0: 3}, "degree 2.0 must be an int or its decimal str"),
    (CohomologyProfile, {True: 1}, "degree True must be an int or its decimal str"),
    (CohomologyProfile, {"2_0": 1}, "degree '2_0' must be an int or its decimal str"),
    (CohomologyProfile, {" 3": 1}, "degree ' 3' must be an int or its decimal str"),
    (CohomologyProfile, {"03": 1}, "degree '03' must be an int or its decimal str"),
    (CohomologyProfile, {"-0": 1}, "degree '-0' must be an int or its decimal str"),
    (CohomologyProfile, {2: 1, "2": 3}, "key '2' repeats the key 2"),
    (FiltrationTable, {(True, 0): 1}, "cell index (True, 0) must be a pair of nonnegative ints"),
    (FiltrationTable, {(0, False): 1}, "cell index (0, False) must be a pair of nonnegative ints"),
    # An exponent key is an exact int, or a pair of them, never rounded
    # or parsed; a zero coefficient does not excuse a bad key.
    (LaurentPoly, {2.5: 1}, "exponent key 2.5 must be an int"),
    (LaurentPoly, {2.0: 1}, "exponent key 2.0 must be an int"),
    (LaurentPoly, {True: 1}, "exponent key True must be an int"),
    (LaurentPoly, {2: 1, "2": 3}, "exponent key '2' must be an int"),
    (LaurentPoly, {2.5: 0}, "exponent key 2.5 must be an int"),
    (BiLaurentPoly, {(0.5, True): 1}, "exponent key (0.5, True) must be a pair of ints"),
    (BiLaurentPoly, {(0, False): 1}, "exponent key (0, False) must be a pair of ints"),
    (BiLaurentPoly, {(0, 0): 1, (0, "0"): 3}, "exponent key (0, '0') must be a pair of ints"),
    (BiLaurentPoly, {(0, 0, 0): 1}, "exponent key (0, 0, 0) must be a pair of ints"),
    (BiLaurentPoly, {2: 1}, "exponent key 2 must be a pair of ints"),
    (BiLaurentPoly, {(2.0, 0): 0}, "exponent key (2.0, 0) must be a pair of ints"),
])
def test_validation_messages(cls, cells, message):
    with pytest.raises(ValueError) as info:
        cls(cells)
    assert str(info.value) == message


@pytest.mark.parametrize("cls, text, error", [
    (FiltrationTable, "[[1,1.5,2.7]]", ValueError),
    (FiltrationTable, "[[1,1,2.7]]", ValueError),
    (FiltrationTable, '[[1,1,"2"]]', ValueError),
    (CohomologyProfile, '{"2":3.9}', ValueError),
    (CohomologyProfile, '{"2":"3"}', ValueError),
    (FiltrationTable, "[[true,0,1]]", ValueError),
    (FiltrationTable, "[[0,false,1]]", ValueError),
    (CohomologyProfile, '{"2_0":1}', ValueError),
    (CohomologyProfile, '{" 3":1}', ValueError),
    (CohomologyProfile, '{"2.5":1}', ValueError),
    (CohomologyProfile, '{"+2":1}', ValueError),
    (LaurentPoly, "[[0,0.5]]", TypeError),
    (BiLaurentPoly, "[[0,0,0.5]]", TypeError),
    (LaurentPoly, "[[0,true]]", TypeError),
    (BiLaurentPoly, "[[0,0,false]]", TypeError),
    (LaurentPoly, "[[2.5,1]]", ValueError),
    (LaurentPoly, "[[true,1]]", ValueError),
    (LaurentPoly, '[["2",1]]', ValueError),
    (BiLaurentPoly, "[[0.5,0,1]]", ValueError),
    (BiLaurentPoly, "[[0,true,1]]", ValueError),
    (BiLaurentPoly, '[[0,"2",1]]', ValueError),
    # The wire holds twice each exponent: a key must be an even int, and a
    # float, bool or str is refused even where its value would be even.
    (LaurentPoly, '[[1,"1"]]', ValueError),
    (LaurentPoly, '[[-3,"1"]]', ValueError),
    (LaurentPoly, '[[2.0,"1"]]', ValueError),
    (LaurentPoly, '[[false,"1"]]', ValueError),
    (BiLaurentPoly, '[[2,1,"1"]]', ValueError),
    (BiLaurentPoly, '[[1,2,"1"]]', ValueError),
    (BiLaurentPoly, '[[true,0,"1"]]', ValueError),
    (BiLaurentPoly, '[[2.0,0,"1"]]', ValueError),
    (BiLaurentPoly, '[["0",0,"1"]]', ValueError),
])
def test_json_readers_reject_what_the_constructors_reject(cls, text, error):
    with pytest.raises(error):
        cls.from_json(text)
