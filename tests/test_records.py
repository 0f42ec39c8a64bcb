"""The package's five frozen records keep one contract.

Variable, SequenceSpec, TruncatedSeries, DerivativeCheck and IdentityResult
compare, hash and print by their field tuple, refuse assignment and
deletion, and come back equal from pickle, copy and deepcopy.  Each repr is
the text the frozen dataclasses they replace printed, so no message that
shows a record changes.  A slotted class that refuses assignment cannot be
pickled the default way, so the pickle rows guard its __reduce__.
"""

import copy
import pickle

import pytest

from lahbell import (
    DerivativeCheck,
    IdentityResult,
    SequenceSpec,
    TruncatedSeries,
    Variable,
    const,
    var,
)

# (make a record, its fields by name, its repr)
RECORDS = {
    "Variable": (
        lambda: Variable("b", 7),
        {"family": "b", "index": 7},
        "Variable(family='b', index=7)",
    ),
    "SequenceSpec-explicit": (
        lambda: SequenceSpec.explicit([4, 5]),
        {"kind": "explicit", "values": (4, 5), "family": "", "fill": None},
        "SequenceSpec(kind='explicit', values=(4, 5), family='', fill=None)",
    ),
    "SequenceSpec-uniform": (
        lambda: SequenceSpec.uniform(2 * var("x1") + 1),
        {"kind": "uniform", "values": (), "family": "", "fill": 2 * var("x1") + 1},
        "SequenceSpec(kind='uniform', values=(), family='', fill=SparsePolynomial('2*x1 + 1'))",
    ),
    "TruncatedSeries": (
        lambda: TruncatedSeries(1, [const(1), var("a2")]),
        {"order": 1, "coeffs": (const(1), var("a2"))},
        "TruncatedSeries(order=1, coeffs=(SparsePolynomial('1'), SparsePolynomial('a2')))",
    ),
    "DerivativeCheck": (
        lambda: DerivativeCheck(2, 3, 3),
        {"m": 2, "series_value": 3, "partition_value": 3},
        "DerivativeCheck(m=2, series_value=3, partition_value=3)",
    ),
    "IdentityResult": (
        lambda: IdentityResult("eq23", "alpha", "n<=3", False, "n=1: 1 vs 2"),
        {
            "suite": "eq23",
            "identity": "alpha",
            "bounds": "n<=3",
            "passed": False,
            "counterexample": "n=1: 1 vs 2",
        },
        "IdentityResult(suite='eq23', identity='alpha', bounds='n<=3', passed=False, "
        "counterexample='n=1: 1 vs 2')",
    ),
}
ROWS = pytest.mark.parametrize("make, fields, text", RECORDS.values(), ids=list(RECORDS))


def _slots(record):
    """Every slot's value, Variable.code included."""
    return [getattr(record, name) for name in type(record).__slots__]


@ROWS
def test_equal_fields_give_equal_records_and_hashes(make, fields, text):
    record = make()
    assert record == make() and hash(record) == hash(make())
    assert record == type(record)(**fields) and hash(record) == hash(type(record)(**fields))
    assert not record != make()
    assert [getattr(record, name) for name in fields] == list(fields.values())


@ROWS
def test_a_record_never_equals_the_tuple_of_its_fields(make, fields, text):
    record = make()
    values = tuple(fields.values())
    assert record != values and values != record
    assert record.__eq__(values) is NotImplemented


@ROWS
def test_the_repr_is_the_dataclass_text(make, fields, text):
    assert repr(make()) == text


@ROWS
def test_assignment_and_deletion_raise(make, fields, text):
    record = make()
    for name in [*type(record).__slots__, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _slots(record) == _slots(make())


@ROWS
def test_pickle_and_copies_give_an_equal_record(make, fields, text):
    record = make()
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in protocols]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for again in copies:
        assert type(again) is type(record)
        assert again == record and hash(again) == hash(record)
        assert _slots(again) == _slots(record)
