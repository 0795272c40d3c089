from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listlab.galois import DEFAULT_POLY, Field, field_new, is_irreducible_gf2, poly_mod_gf2, poly_mul_gf2

SMALL_FIELDS = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 4, 8, 16, 32, 64]


def _ref_mul(f: Field, a, b):
    """Product by the definition, independent of the field's tables."""
    if f.kind == "prime":
        return a * b % f.q
    return np.vectorize(lambda x, y: poly_mod_gf2(poly_mul_gf2(int(x), int(y)), f.poly))(a, b)


def _ref_add(f: Field, a, b):
    return (a + b) % f.q if f.kind == "prime" else a ^ b


def _pow_array(f: Field, x: np.ndarray, e: int) -> np.ndarray:
    """x^e elementwise by square-and-multiply on the array ops."""
    out, base = np.ones_like(x), x
    while e:
        if e & 1:
            out = f.scale_array(out, base)
        base, e = f.scale_array(base, base), e >> 1
    return out


def test_prime_field_basics():
    f = field_new(7)
    assert f.scale_array(3, np.array([5, 0, 6])).tolist() == [1, 0, 4]
    assert f.inv(1) == 1
    assert f.add_array(np.array([4, 0]), np.array([5, 6])).tolist() == [2, 6]
    assert f.sub_array(np.array([2, 6]), np.array([5, 6])).tolist() == [4, 0]
    assert f.scale_array(np.array([3, 2]), np.array([[1], [5]])).tolist() == [[3, 2], [1, 3]]
    assert _pow_array(f, np.array([3]), 6).tolist() == [1]


def test_composite_order_rejected():
    for q in (6, 12, 15, 100):
        with pytest.raises(ValueError):
            field_new(q)


def test_out_of_range_and_zero_inverse():
    f = field_new(5)
    with pytest.raises(ValueError):
        f.inv(5)
    with pytest.raises(ValueError):
        f.inv(-1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        field_new(8).inv(0)


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
    assert f.scale_array(2, np.array([9])).tolist() == [1]


def test_default_polynomials_irreducible():
    for m, poly in DEFAULT_POLY.items():
        assert poly.bit_length() - 1 == m
        assert is_irreducible_gf2(poly)


def test_largest_supported_field():
    f = field_new(1 << 16)
    a = 0x1234
    assert f.scale_array(a, np.array([f.inv(a)])).tolist() == [1]
    units = np.arange(1, f.q)
    assert (_pow_array(f, units, f.q - 1) == 1).all()
    assert (f.sub_array(units, units) == 0).all()
    with pytest.raises(ValueError):
        field_new(1 << 17)


# every default modulus up to degree 12, and two irreducible moduli that are
# not primitive: GF(16) on x^4+x^3+x^2+x+1 and GF(256) on 0x11B (generator 3)
TABLE_FIELDS = [(1 << m, DEFAULT_POLY[m]) for m in range(2, 17)] + [(16, 0b11111), (256, 0x11B)]


@pytest.mark.parametrize("q, poly", TABLE_FIELDS)
def test_log_tables_match_polynomial_arithmetic(q, poly):
    f = field_new(q, poly)
    ref = lambda a, b: poly_mod_gf2(poly_mul_gf2(a, b), poly)
    # exp[:q-1] are the powers of g, listing each nonzero element once, then
    # again; past them, at log[0], one 0
    exp = f._exp_np.tolist()
    assert sorted(exp[: q - 1]) == list(range(1, q))
    assert exp[q - 1 : 2 * q - 2] == exp[: q - 1]
    assert exp[2 * q - 2 :] == [0] and f._log_np[0] == 2 * q - 2
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
    a, b = np.array(pairs).T
    assert f.scale_array(a, b).tolist() == [ref(x, y) for x, y in pairs]
    assert f.scale_array(a[:, None], b[None, :5]).tolist() == [
        [ref(x, y) for y in b[:5].tolist()] for x in a.tolist()
    ]
    # the one scalar op returns a Python int, as for prime fields
    assert type(f.inv(q - 1)) is int


def test_table_generators():
    # x = 2 generates under every (primitive) default modulus
    assert all(field_new(1 << m)._exp_np[1] == 2 for m in range(2, 17))
    assert field_new(16, 0b11111)._exp_np[1] == 3
    assert field_new(256, 0x11B)._exp_np[1] == 3


def _axioms_exhaustive(f: Field) -> None:
    q = f.q
    idx = np.arange(q)
    M = f.scale_array(idx[:, None], idx[None, :])
    A = f.add_array(idx[:, None], idx[None, :])
    # the tables agree with arithmetic by the definition
    assert np.array_equal(M, _ref_mul(f, idx[:, None], idx[None, :]))
    assert np.array_equal(A, _ref_add(f, idx[:, None], idx[None, :]))
    # subtraction undoes addition
    assert np.array_equal(f.sub_array(A, idx[None, :]), np.broadcast_to(idx[:, None], (q, q)))
    # additive group: 0 is identity, rows are permutations (cancellation)
    assert np.array_equal(A[0], idx)
    assert np.array_equal(np.sort(A, axis=1), np.broadcast_to(idx, (q, q)))
    # commutativity
    assert np.array_equal(A, A.T)
    assert np.array_equal(M, M.T)
    # multiplicative identity and annihilator
    assert np.array_equal(M[1], idx)
    assert np.array_equal(M[0], np.zeros(q, dtype=M.dtype))
    # associativity and distributivity over all triples
    a, b, c = np.indices((q, q, q))
    assert np.array_equal(f.scale_array(f.scale_array(a, b), c), f.scale_array(a, f.scale_array(b, c)))
    assert np.array_equal(f.add_array(f.add_array(a, b), c), f.add_array(a, f.add_array(b, c)))
    assert np.array_equal(
        f.scale_array(a, f.add_array(b, c)), f.add_array(f.scale_array(a, b), f.scale_array(a, c))
    )
    # multiplicative inverses
    units = idx[1:]
    assert (f.scale_array(units, np.array([f.inv(u) for u in units.tolist()])) == 1).all()


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_field_axioms_exhaustive(q):
    _axioms_exhaustive(field_new(q))


def test_fermat_lagrange_up_to_256():
    for q in [q for q in range(2, 257) if _constructible(q)]:
        f = field_new(q)
        units = np.arange(1, q)
        assert (_pow_array(f, units, q - 1) == 1).all()
        # a^(q-1) = 1 by the definition too, one unit at a time
        x = units
        for _ in range(q - 2):
            x = _ref_mul(f, x, units)
        assert (x == 1).all()


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
    a, b, c = (np.array([v % f.q]) for v in (a, b, c))
    mul, add = f.scale_array, f.add_array
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c)) == _ref_mul(f, a, _ref_add(f, b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert add(a, f.sub_array(0, a)) == 0
    assert f.sub_array(add(a, b), b) == a
    if a != 0:
        assert mul(a, f.inv(int(a[0]))) == 1
