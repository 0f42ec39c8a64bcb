"""Witness enumeration tests.

Oracles here rebuild each witness set exhaustively with itertools.product
and compare as sets, then check the generator's ordering separately.
"""

import hashlib
import itertools
import operator
from collections import Counter

import pytest

from lahbell import partitions
from lahbell.bell import _exponent_vectors
from lahbell.exact_core import _MEMO, _reuse, lah, rlah
from lahbell.partitions import (
    enumerate_lambda,
    enumerate_pi,
    lah_via_pi,
    rlah_via_lambda,
)


def oracle_pi(n, k):
    """All tuples (j_1..j_{n-k+1}) with sum k and weighted sum n."""
    if k > n:
        return set()
    length = n - k + 1
    found = set()
    for j in itertools.product(range(k + 1), repeat=length):
        if sum(j) == k and sum(i * v for i, v in enumerate(j, start=1)) == n:
            found.add(j)
    return found


def oracle_lambda(n, k, rho):
    """All trimmed pairs (k_part, r_part) with the paired weight constraint.

    k_part has sum k, r_part has sum rho, and the block weights satisfy
    sum(i * k_i, i >= 1) + sum(i * r_i, i >= 1) == n where r_i weights
    position i in a zero-based r_part.
    """
    if k > n:
        return set()

    def trim(t):
        t = list(t)
        while t and t[-1] == 0:
            t.pop()
        return tuple(t)

    r_by_weight = {}
    for rp in itertools.product(range(rho + 1), repeat=n + 1):
        if sum(rp) != rho:
            continue
        w = sum(i * v for i, v in enumerate(rp))
        if w <= n:
            r_by_weight.setdefault(w, []).append(trim(rp))
    found = set()
    for kp in itertools.product(range(k + 1), repeat=n):
        if sum(kp) != k:
            continue
        w = sum(i * v for i, v in enumerate(kp, start=1))
        if w > n:
            continue
        for rp in r_by_weight.get(n - w, []):
            found.add((trim(kp), rp))
    return found


def test_pi_matches_exhaustive_oracle():
    for n in range(10):
        for k in range(n + 2):
            got = list(enumerate_pi(n, k))
            assert len(got) == len(set(got))
            assert set(got) == oracle_pi(n, k), (n, k)


def test_pi_known_witness_lists():
    assert list(enumerate_pi(3, 2)) == [(1, 1)]
    assert list(enumerate_pi(4, 2)) == [(1, 0, 1), (0, 2, 0)]
    assert list(enumerate_pi(0, 0)) == [(0,)]
    assert list(enumerate_pi(2, 3)) == []


def test_pi_witness_shape():
    for n in range(8):
        for k in range(n + 1):
            for j in enumerate_pi(n, k):
                assert type(j) is tuple
                assert len(j) == n - k + 1
                assert sum(j) == k
                assert sum(i * v for i, v in enumerate(j, start=1)) == n


def test_pi_order_is_descending_lexicographic():
    for n in range(9):
        for k in range(n + 1):
            got = list(enumerate_pi(n, k))
            assert got == sorted(got, reverse=True), (n, k)


def test_pi_count_matches_partition_numbers():
    # partitions of n into exactly k parts, by the standard two-case split
    table = {(0, 0): 1}
    for n in range(1, 13):
        table[n, 0] = 0
        for k in range(1, n + 1):
            table[n, k] = table.get((n - 1, k - 1), 0) + table.get((n - k, k), 0)
    for (n, k), count in table.items():
        assert sum(1 for _ in enumerate_pi(n, k)) == count


def test_lambda_matches_exhaustive_oracle():
    for n in range(6):
        for k in range(n + 1):
            for rho in range(4):
                got = list(enumerate_lambda(n, k, rho))
                assert len(got) == len(set(got))
                assert set(got) == oracle_lambda(n, k, rho), (n, k, rho)


def test_lambda_known_witness_lists():
    assert list(enumerate_lambda(1, 1, 0)) == [((1,), ())]
    assert list(enumerate_lambda(2, 1, 2)) == [
        ((1,), (1, 1)),
        ((0, 1), (2,)),
    ]
    assert list(enumerate_lambda(0, 0, 2)) == [((), (2,))]
    assert list(enumerate_lambda(2, 3, 1)) == []


def test_lambda_parts_end_in_a_nonzero_entry():
    """Equal witnesses must be equal tuples, so no part carries a trailing zero."""
    for n in range(19):
        for k in range(n + 1):
            for rho in range(5):
                for k_part, r_part in enumerate_lambda(n, k, rho):
                    assert not k_part or k_part[-1], (n, k, rho, k_part)
                    assert not r_part or r_part[-1], (n, k, rho, r_part)


def test_lambda_order_is_descending_lexicographic():
    for n in range(6):
        for k in range(n + 1):
            for rho in range(4):
                dense = []
                for k_part, r_part in enumerate_lambda(n, k, rho):
                    kp = k_part + (0,) * (n - len(k_part))
                    rp = r_part + (0,) * (n + 1 - len(r_part))
                    dense.append(kp + rp)
                assert dense == sorted(dense, reverse=True), (n, k, rho)


def test_enumeration_is_deterministic():
    first = list(enumerate_lambda(5, 2, 3))
    second = list(enumerate_lambda(5, 2, 3))
    assert first == second


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        list(enumerate_pi(-1, 0))
    with pytest.raises(ValueError):
        list(enumerate_lambda(2, -1, 0))
    with pytest.raises(ValueError):
        list(enumerate_lambda(2, 1, -1))


def test_witness_sum_rebuilds_lah_triangle():
    for n in range(13):
        for k in range(n + 1):
            assert lah_via_pi(n, k) == lah(n, k), (n, k)


def test_paired_witness_sum_rebuilds_rlah_triangle():
    for n in range(9):
        for k in range(n + 1):
            for r in range(4):
                assert rlah_via_lambda(n, k, r) == rlah(n, k, r), (n, k, r)


def test_witness_routes_agree_in_and_out_of_a_reuse_scope():
    """Inside a scope the routes walk kept runs and kept r-part sums, over
    streams that calls of other sizes kept before them; the values must be
    those of a fresh enumeration and of the closed form."""
    grid = [(n, k) for n in range(15) for k in range(n + 2)]
    fresh_pi = {(n, k): lah_via_pi(n, k) for n, k in grid}
    fresh_lambda = {(n, k, r): rlah_via_lambda(n, k, r) for n, k in grid for r in range(4)}
    with _reuse():
        for _ in range(2):
            assert {(n, k): lah_via_pi(n, k) for n, k in grid} == fresh_pi
            scoped = {(n, k, r): rlah_via_lambda(n, k, r) for n, k in grid for r in range(4)}
            assert scoped == fresh_lambda
    assert fresh_pi == {(n, k): lah(n, k) for n, k in grid}
    assert fresh_lambda == {(n, k, r): rlah(n, k, r) for n, k, r in fresh_lambda}


def test_lambda_streams_agree_in_and_out_of_a_reuse_scope(monkeypatch):
    """Inside a scope each (rho, weight) r-part list is made once and kept in
    rho's own table; every stream must still be the fresh one, whatever order
    the calls come in."""
    grid = [(n, k, rho) for n in range(15) for k in range(n + 2) for rho in range(7)]
    fresh = {key: list(enumerate_lambda(*key)) for key in grid}
    listed = Counter()
    r_parts = partitions._r_parts

    def counted(rho, weight):
        listed[rho, weight] += 1
        return r_parts(rho, weight)

    monkeypatch.setattr(partitions, "_r_parts", counted)
    list(enumerate_lambda(6, 2, 2))
    list(enumerate_lambda(6, 2, 2))
    assert listed[2, 4] == 2, "outside a scope the lists are made per call"
    high_rho_first = sorted(grid, key=lambda key: (-key[2], key[0] % 2, key[0], key[1]))
    for order in (high_rho_first, grid[::-1]):
        listed.clear()
        with _reuse():
            for key in order:
                assert list(enumerate_lambda(*key)) == fresh[key], key
            tables = {key[1]: table for key, table in _MEMO.get().items() if key[0] == "r-parts"}
            assert set(tables) == set(range(1, 7))
            for rho, table in tables.items():
                for weight, parts in table.items():
                    assert parts == r_parts(rho, weight), (rho, weight)
            with pytest.raises(TypeError, match="^rho must be an int, got bool"):
                list(enumerate_lambda(3, 1, True))
        assert set(listed.values()) == {1}


# -- streams pinned against a brute-force reference -------------------------
#
# The reference filters itertools.product over the slot ranges and sorts the
# survivors into the documented order: descending lexicographic on the dense
# tuple, k-part before r-part.  The enumerators prune their recursion, so
# equal lists here, order included, show that pruning dropped nothing.

STREAM_N_MAX = 12
STREAM_RHO_MAX = 4


def _slot_vectors(first, cap):
    """Every vector over slots first..STREAM_N_MAX with at most cap units and
    weight sum(i * v_i) <= STREAM_N_MAX, as (units, weight, vector) triples.

    The product runs over the slots above `first`; slot `first` (weight 0 or
    1) then takes each value the unit and weight budgets leave room for.
    """
    n = STREAM_N_MAX
    slots = tuple(range(first + 1, n + 1))
    ranges = [range(min(cap, n // i) + 1) for i in slots]
    found = []
    for rest in itertools.product(*ranges):
        weight = sum(map(operator.mul, slots, rest))
        units = sum(rest)
        if weight > n or units > cap:
            continue
        room = cap - units if first == 0 else min(cap - units, n - weight)
        for v in range(room + 1):
            found.append((units + v, weight + first * v, (v,) + rest))
    return found


def _trim(t):
    end = len(t)
    while end and t[end - 1] == 0:
        end -= 1
    return t[:end]


def reference_streams(n, k_vectors, r_vectors):
    """pi, lambda and weight-n vector streams for one n, by brute force."""
    k_side = {}
    for units, weight, vec in k_vectors:
        if weight <= n:  # so the slots above n are zero
            k_side.setdefault((units, weight), []).append(vec[:n])
    r_side = {}
    for units, weight, vec in r_vectors:
        if weight <= n:
            r_side.setdefault((units, weight), []).append(vec[: n + 1])
    pi = {}
    lam = {}
    for k in range(n + 2):
        # dense length n - k + 1, which exceeds n only for the (0, 0) witness
        pi[k] = sorted(
            ((vec + (0,))[: n - k + 1] for vec in k_side.get((k, n), [])), reverse=True
        )
        for rho in range(STREAM_RHO_MAX + 1):
            dense = [
                kv + rv
                for weight in range(n + 1)
                for kv in k_side.get((k, weight), [])
                for rv in r_side.get((rho, n - weight), [])
            ]
            lam[k, rho] = [
                (_trim(d[:n]), _trim(d[n:])) for d in sorted(dense, reverse=True)
            ]
    vectors = sorted(
        (vec for (units, weight), vecs in k_side.items() if weight == n for vec in vecs),
        reverse=True,
    )
    return pi, lam, vectors


def test_streams_match_brute_force_reference():
    k_vectors = _slot_vectors(1, STREAM_N_MAX)
    r_vectors = _slot_vectors(0, STREAM_RHO_MAX)
    for n in range(STREAM_N_MAX + 1):
        pi, lam, vectors = reference_streams(n, k_vectors, r_vectors)
        assert list(_exponent_vectors(n)) == vectors, n
        for k in range(n + 2):
            assert list(enumerate_pi(n, k)) == pi[k], (n, k)
            for rho in range(STREAM_RHO_MAX + 1):
                got = list(enumerate_lambda(n, k, rho))
                assert got == lam[k, rho], (n, k, rho)


# sha256 over the text "PiWitness(j=...)" of every enumerate_pi(n, k) witness
# and, after it, "LambdaWitness(k_part=..., r_part=...)" of every
# enumerate_lambda(n, k, rho) witness for rho = 0..4, for n <= 18, k <= n + 1:
# about 68k witnesses, recorded from enumerators with separate recursions,
# which yielded wrapper objects with that repr.  It reaches sizes where the
# n - k + 1 slot cap prunes far more than at n <= 12.
STREAM_DIGEST = "5c6a3046071d27ea4c13188e85a94aca6b0cbf6a02d692cf0409572194c60a6e"


def test_streams_match_recorded_digest():
    digest = hashlib.sha256()
    for n in range(19):
        for k in range(n + 2):
            for j in enumerate_pi(n, k):
                digest.update(f"PiWitness(j={j!r})".encode())
            for rho in range(5):
                for kp, rp in enumerate_lambda(n, k, rho):
                    digest.update(f"LambdaWitness(k_part={kp!r}, r_part={rp!r})".encode())
    assert digest.hexdigest() == STREAM_DIGEST


# sha256 over the repr of every _exponent_vectors(n) vector for n <= 26 and,
# after them, of every enumerate_lambda(22, k, rho) witness for k <= 23 and
# rho <= 6: 11,732 vectors and 131,557 witnesses, recorded from enumerators
# that recursed one generator frame per slot.  These are the sizes of the
# large benchmark poly calls, where the slot cap and the feasibility bounds
# prune deeper than the brute-force and digest tests above reach.
LARGE_STREAM_DIGEST = "c09c7f01d301b7600fe39f8b585d4ed7576588a4d3a776ed560224650c08c491"


def test_large_streams_match_recorded_digest():
    digest = hashlib.sha256()
    for n in range(27):
        for vector in _exponent_vectors(n):
            digest.update(repr(vector).encode())
    for k in range(24):
        for rho in range(7):
            for witness in enumerate_lambda(22, k, rho):
                digest.update(repr(witness).encode())
    assert digest.hexdigest() == LARGE_STREAM_DIGEST
