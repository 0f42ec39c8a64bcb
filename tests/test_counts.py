"""Every count argument of the public API follows one rule: a non-bool int,
else TypeError, and not negative, else ValueError, each naming the parameter."""

import pytest

from lahbell.bell import (
    ONES,
    SequenceSpec,
    complete_bell,
    complete_lah_bell,
    complete_r_bell,
    complete_r_lah_bell,
    complete_r_lah_bell_expansion,
    incomplete_bell,
    incomplete_lah_bell,
    incomplete_r_bell,
    incomplete_r_lah_bell,
    lah_bell_polynomial,
    moments_from_cumulants,
)
from lahbell.exact_core import (
    binomial,
    factorial,
    factorials_upto,
    lah,
    lah_bell_number,
    multinomial,
    r_lah_bell_number,
    rlah,
)
from lahbell.partitions import enumerate_lambda, enumerate_pi, lah_via_pi, rlah_via_lambda
from lahbell.poly import Variable
from lahbell.series import faa_di_bruno_check, from_sequence

X = SequenceSpec.symbolic("x")
Y = SequenceSpec.symbolic("y")

# (entry, call taking keyword arguments, valid keyword arguments, count parameters)
ENTRIES = [
    ("factorial", factorial, {"n": 3}, ("n",)),
    ("factorials_upto", factorials_upto, {"m": 3}, ("m",)),
    ("binomial", binomial, {"n": 3, "k": 1}, ("n",)),
    ("multinomial", lambda part: multinomial([2, part]), {"part": 1}, ("part",)),
    ("lah", lah, {"n": 3, "k": 1}, ("n", "k")),
    ("rlah", rlah, {"n": 3, "k": 1, "r": 1}, ("n", "k", "r")),
    ("lah_bell_number", lah_bell_number, {"n": 3}, ("n",)),
    ("r_lah_bell_number", r_lah_bell_number, {"n": 3, "r": 1}, ("n", "r")),
    ("enumerate_pi", lambda **kw: list(enumerate_pi(**kw)), {"n": 3, "k": 1}, ("n", "k")),
    (
        "enumerate_lambda", lambda **kw: list(enumerate_lambda(**kw)),
        {"n": 3, "k": 1, "rho": 2}, ("n", "k", "rho"),
    ),
    ("lah_via_pi", lah_via_pi, {"n": 3, "k": 1}, ("n", "k")),
    ("rlah_via_lambda", rlah_via_lambda, {"n": 3, "k": 1, "r": 1}, ("n", "k", "r")),
    ("incomplete_bell", incomplete_bell, {"n": 3, "k": 1, "xs": X}, ("n", "k")),
    ("complete_bell", complete_bell, {"n": 3, "xs": X}, ("n",)),
    (
        "incomplete_r_bell", incomplete_r_bell,
        {"n": 3, "k": 1, "rho": 2, "a": X, "b": Y}, ("n", "k", "rho"),
    ),
    ("complete_r_bell", complete_r_bell, {"n": 3, "rho": 2, "a": X, "b": Y}, ("n", "rho")),
    ("incomplete_lah_bell", incomplete_lah_bell, {"n": 3, "k": 1, "xs": X}, ("n", "k")),
    ("complete_lah_bell", complete_lah_bell, {"n": 3, "xs": X}, ("n",)),
    (
        "incomplete_r_lah_bell", incomplete_r_lah_bell,
        {"n": 3, "k": 1, "r": 1, "a": X, "b": Y}, ("n", "k", "r"),
    ),
    (
        "complete_r_lah_bell", complete_r_lah_bell,
        {"n": 3, "r": 1, "x": 2, "a": X, "b": Y}, ("n", "r"),
    ),
    ("lah_bell_polynomial", lah_bell_polynomial, {"n": 3, "r": 1, "x": 2}, ("n", "r")),
    (
        "complete_r_lah_bell_expansion", complete_r_lah_bell_expansion,
        {"n": 3, "r": 1, "xs": X, "ys": Y}, ("n", "r"),
    ),
    ("moments_from_cumulants", moments_from_cumulants, {"kappas": [1, 2, 3], "n": 3}, ("n",)),
    (
        "from_sequence", from_sequence,
        {"spec": ONES, "kind": "ordinary", "start": 1, "order": 3}, ("start", "order"),
    ),
    ("faa_di_bruno_check", faa_di_bruno_check, {"m": 2, "order": 3}, ("m", "order")),
    ("Variable", Variable, {"family": "x", "index": 2}, ("index",)),
]

BAD_COUNTS = [
    (True, TypeError, "{} must be an int, got bool"),
    (2.0, TypeError, "{} must be an int, got float"),
    (-1, ValueError, "{} must be nonnegative"),
]

CASES = [
    pytest.param(call, {**valid, name: bad}, error, "^" + message.format(name),
                 id=f"{entry}-{name}={bad!r}")
    for entry, call, valid, names in ENTRIES
    for name in names
    for bad, error, message in BAD_COUNTS
]


@pytest.mark.parametrize("entry, call, valid, names", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_valid_counts_are_taken(entry, call, valid, names):
    call(**valid)


@pytest.mark.parametrize("call, kwargs, error, pattern", CASES)
def test_a_bad_count_is_refused_by_name(call, kwargs, error, pattern):
    with pytest.raises(error, match=pattern):
        call(**kwargs)
