from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listlab.galois import DEFAULT_POLY, Field, field_new, is_irreducible_gf2, poly_mod_gf2, poly_mul_gf2

SMALL_FIELDS = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 4, 8, 16, 32, 64]


def test_prime_field_basics():
    f = field_new(7)
    assert f.mul(3, 5) == 1
    assert f.inv(1) == 1
    assert f.add(4, 5) == 2
    assert f.sub(2, 5) == 4
    assert f.pow(3, 6) == 1


def test_composite_order_rejected():
    for q in (6, 12, 15, 100):
        with pytest.raises(ValueError):
            field_new(q)


def test_out_of_range_and_zero_inverse():
    f = field_new(5)
    with pytest.raises(ValueError):
        f.add(5, 0)
    with pytest.raises(ValueError):
        f.mul(-1, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_reducible_polynomial_rejected():
    # x^4 + 1 = (x+1)^4 over GF(2)
    with pytest.raises(ValueError):
        field_new(16, poly=0b10001)


def test_gf16_inverse_of_2_is_9():
    # Independent oracle: brute-force polynomial multiplication mod x^4+x+1.
    poly = 0b10011
    inverses = [
        b for b in range(1, 16) if poly_mod_gf2(poly_mul_gf2(2, b), poly) == 1
    ]
    assert inverses == [9]
    f = field_new(16, poly=poly)
    assert f.inv(2) == 9
    assert f.mul(2, 9) == 1


def test_default_polynomials_irreducible():
    for m, poly in DEFAULT_POLY.items():
        assert poly.bit_length() - 1 == m
        assert is_irreducible_gf2(poly)


def test_largest_supported_field():
    f = field_new(1 << 16)
    a = 0x1234
    assert f.mul(a, f.inv(a)) == 1
    assert f.pow(3, f.q - 1) == 1
    assert f.pow(3, (f.q - 1) << 70 | 1) == 3  # exponents past int64
    with pytest.raises(ValueError):
        field_new(1 << 17)


# every default modulus up to degree 12, and two irreducible moduli that are
# not primitive: GF(16) on x^4+x^3+x^2+x+1 and GF(256) on 0x11B (generator 3)
TABLE_FIELDS = [(1 << m, DEFAULT_POLY[m]) for m in range(2, 17)] + [(16, 0b11111), (256, 0x11B)]


@pytest.mark.parametrize("q, poly", TABLE_FIELDS)
def test_log_tables_match_polynomial_arithmetic(q, poly):
    f = field_new(q, poly)
    ref = lambda a, b: poly_mod_gf2(poly_mul_gf2(a, b), poly)
    # exp[:q-1] are the powers of g, listing each nonzero element once
    exp = f._exp_np.tolist()
    assert sorted(exp[: q - 1]) == list(range(1, q))
    assert exp[q - 1 :] == exp[: q - 1]
    g = exp[1]
    assert all(exp[i + 1] == ref(exp[i], g) for i in range(q - 2))
    # g is the smallest generator: every smaller candidate has order < q - 1
    for h in range(2, g):
        x, order = h, 1
        while x != 1:
            x, order = ref(x, h), order + 1
        assert order < q - 1
    if q <= 16:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = np.random.default_rng(q)
        pairs = rng.integers(0, q, size=(2000, 2)).tolist() + [(0, q - 1), (q - 1, 1)]
    assert all(f.mul(a, b) == ref(a, b) for a, b in pairs)
    # scalar results are Python ints, as for prime fields
    assert {type(v) for v in (f.mul(q - 1, q - 1), f.inv(q - 1), f.pow(q - 1, 3))} == {int}


def test_table_generators():
    # x = 2 generates under every (primitive) default modulus
    assert all(field_new(1 << m)._exp_np[1] == 2 for m in range(2, 17))
    assert field_new(16, 0b11111)._exp_np[1] == 3
    assert field_new(256, 0x11B)._exp_np[1] == 3


def _axioms_exhaustive(f: Field) -> None:
    q = f.q
    idx = np.arange(q)
    M = np.array([[f.mul(a, b) for b in idx] for a in idx])
    A = np.array([[f.add(a, b) for b in idx] for a in idx])
    # additive group: 0 is identity, rows are permutations (cancellation)
    assert np.array_equal(A[0], idx)
    assert np.array_equal(np.sort(A, axis=1), np.broadcast_to(idx, (q, q)))
    # commutativity
    assert np.array_equal(A, A.T)
    assert np.array_equal(M, M.T)
    # multiplicative identity and annihilator
    assert np.array_equal(M[1], idx)
    assert np.array_equal(M[0], np.zeros(q, dtype=M.dtype))
    # associativity
    t1 = M[M[:, :, None], idx[None, None, :]]
    t2 = M[idx[:, None, None], M[None, :, :]]
    assert np.array_equal(t1, t2)
    a1 = A[A[:, :, None], idx[None, None, :]]
    a2 = A[idx[:, None, None], A[None, :, :]]
    assert np.array_equal(a1, a2)
    # distributivity
    lhs = M[idx[:, None, None], A[None, :, :]]
    rhs = A[M[:, :, None], M[:, None, :]]
    assert np.array_equal(lhs, rhs)
    # multiplicative inverses
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_field_axioms_exhaustive(q):
    _axioms_exhaustive(field_new(q))


def test_fermat_lagrange_up_to_256():
    for q in [q for q in range(2, 257) if _constructible(q)]:
        f = field_new(q)
        for a in range(1, q):
            assert f.pow(a, q - 1) == 1


def _constructible(q: int) -> bool:
    try:
        field_new(q)
        return True
    except ValueError:
        return False


@given(
    qi=st.integers(min_value=0, max_value=len(SMALL_FIELDS) - 1),
    a=st.integers(min_value=0, max_value=63),
    b=st.integers(min_value=0, max_value=63),
    c=st.integers(min_value=0, max_value=63),
)
@settings(max_examples=200, deadline=None)
def test_axiom_triples_property(qi, a, b, c):
    f = field_new(SMALL_FIELDS[qi])
    a, b, c = a % f.q, b % f.q, c % f.q
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.add(a, f.sub(0, a)) == 0
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1
