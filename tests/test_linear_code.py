from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listlab.errors import InfeasibleError
from listlab.galois import Field, field_new, poly_mod_gf2, poly_mul_gf2
from listlab.linear_code import (
    LinearCode,
    _row_reduce,
    code_from_json,
    code_to_json,
    full_rs_code,
    hadamard_code,
    lex_digits,
    puncture_code,
    rs_code,
    sample_code,
)


def test_rs_encode_direct_evaluation():
    f = field_new(5)
    c = rs_code(f, 2, [0, 1, 2])
    words = c.encode_all([(1, 1), (0, 0), (0, 1)]).tolist()
    assert words[0] == [1, 2, 3]  # f(x) = 1 + x
    assert words[1] == [0, 0, 0]
    assert words[2] == [0, 1, 2]  # basis message -> generator row


def test_rs_distance_on_distinct_points():
    f = field_new(5)
    c = rs_code(f, 2, [0, 1, 2, 3])
    assert c.rank() == 2
    assert c.min_distance_exact() == Fraction(3, 4)


def test_rs_rejects_k_above_q():
    with pytest.raises(ValueError):
        rs_code(field_new(5), 6, [0, 1, 2])


def test_rs_repeated_evaluation_points():
    f = field_new(5)
    c = rs_code(f, 2, [1, 1, 2, 3])
    # a + bx with root at 1 is zero on two coordinates at once
    assert c.min_distance_exact() == Fraction(1, 2)
    distinct = rs_code(f, 2, [0, 1, 2, 3])
    assert c.min_distance_exact() <= distinct.min_distance_exact()


def test_hadamard_enumeration_order():
    c = hadamard_code(field_new(2), 2)
    assert c.n == 4
    cols = [tuple(row[j] for row in c.generator) for j in range(4)]
    assert cols == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for q, k in ((3, 1), (3, 3), (4, 2), (5, 2), (8, 2)):
        cols = list(zip(*hadamard_code(field_new(q), k).generator))
        assert cols == list(itertools.product(range(q), repeat=k))


@functools.cache
def _product_table(q: int, width: int) -> np.ndarray:
    """(q^width, width) array of itertools.product(range(q), repeat=width)."""
    flat = itertools.chain.from_iterable(itertools.product(range(q), repeat=width))
    return np.fromiter(flat, dtype=np.int8, count=q**width * width).reshape(q**width, width)


@settings(max_examples=120, deadline=None)
@given(q=st.sampled_from([2, 3, 5, 8, 16]), width=st.integers(0, 5), data=st.data())
def test_lex_digits_match_itertools_product(q, width, data):
    table = _product_table(q, width)
    idxs = data.draw(st.lists(st.integers(0, len(table) - 1), max_size=30))
    digits = lex_digits(q, width, idxs)
    assert digits.shape == (width, len(idxs)) and digits.dtype == np.int64
    assert digits.T.tolist() == table[idxs].tolist()


def test_lex_digits_wide_indices_do_not_overflow():
    q, width = 65536, 5
    idxs = [0, 1, q - 1, q, q**2 + 7, 2**62 - 1, 2**62, 2**62 + 12345]
    expected = [[i // q ** (width - 1 - j) % q for j in range(width)] for i in idxs]
    assert lex_digits(q, width, idxs).T.tolist() == expected
    assert lex_digits(q, width, np.array(idxs, dtype=np.int64)).T.tolist() == expected


def test_hadamard_distance():
    assert hadamard_code(field_new(3), 1).min_distance_exact() == Fraction(2, 3)
    assert hadamard_code(field_new(3), 2).min_distance_exact() == Fraction(2, 3)


def test_hadamard_budget():
    with pytest.raises(InfeasibleError):
        hadamard_code(field_new(2), 21)


def test_vandermonde_rank_all_gf7_subsets():
    f = field_new(7)
    for r in range(1, 8):
        for points in itertools.combinations(range(7), r):
            for k in range(1, 8):
                c = rs_code(f, k, list(points))
                assert c.rank() == min(k, len(points))


def test_sample_code_seed_reproducible():
    parent = full_rs_code(field_new(7), 2)
    a = sample_code(parent, 5, seed=42)
    b = sample_code(parent, 5, seed=42)
    assert a.generator == b.generator
    assert a.provenance == b.provenance
    c = sample_code(parent, 5, seed=43)
    assert a.generator != c.generator


def test_sample_code_allows_repeats():
    parent = full_rs_code(field_new(5), 2)
    seen_repeat = any(
        len(set(sample_code(parent, 5, seed=s).provenance["columns"])) < 5 for s in range(20)
    )
    assert seen_repeat


def test_puncture_full_length_is_permutation():
    parent = full_rs_code(field_new(7), 2)
    p = puncture_code(parent, 7, seed=3)
    assert sorted(p.provenance["columns"]) == list(range(7))
    with pytest.raises(ValueError):
        puncture_code(parent, 8, seed=0)


def test_puncture_column_frequency():
    parent = full_rs_code(field_new(5), 2)
    n, trials = 3, 4000
    hits = sum(0 in puncture_code(parent, n, seed=s).provenance["columns"] for s in range(trials))
    p = n / parent.n
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * se


def test_sample_preserves_expected_pairwise_distance():
    parent = full_rs_code(field_new(5), 2)
    x, y = (1, 2), (3, 1)
    cx, cy = parent.encode_all([x, y])
    p_parent = sum(a != b for a, b in zip(cx, cy)) / parent.n
    n, trials = 4, 10_000
    total = 0
    for s in range(trials):
        c = sample_code(parent, n, seed=s)
        sx, sy = c.encode_all([x, y])
        total += sum(a != b for a, b in zip(sx, sy)) / n
    se = math.sqrt(p_parent * (1 - p_parent) / n / trials)
    assert abs(total / trials - p_parent) <= 3 * se


# scalar arithmetic by the definitions, independent of the field's array ops


def _ref_add(f: Field, a: int, b: int) -> int:
    return (a + b) % f.q if f.kind == "prime" else a ^ b


def _ref_sub(f: Field, a: int, b: int) -> int:
    return (a - b) % f.q if f.kind == "prime" else a ^ b


def _ref_mul(f: Field, a: int, b: int) -> int:
    return a * b % f.q if f.kind == "prime" else poly_mod_gf2(poly_mul_gf2(a, b), f.poly)


def _ref_inv(f: Field, a: int) -> int:
    """a^(q-2) by square-and-multiply."""
    out, e = 1, f.q - 2
    while e:
        if e & 1:
            out = _ref_mul(f, out, a)
        a, e = _ref_mul(f, a, a), e >> 1
    return out


def test_encode_linearity():
    rng = np.random.default_rng(7)
    for q in (5, 4):
        f = field_new(q)
        c = rs_code(f, 3, list(rng.integers(0, q, size=6)))
        for _ in range(100):
            x = [int(v) for v in rng.integers(0, q, size=3)]
            y = [int(v) for v in rng.integers(0, q, size=3)]
            a = int(rng.integers(0, q))
            xy = [_ref_add(f, u, v) for u, v in zip(x, y)]
            ax = [_ref_mul(f, a, u) for u in x]
            cx, cy, cxy, cax = c.encode_all([x, y, xy, ax]).tolist()
            assert cxy == [_ref_add(f, u, v) for u, v in zip(cx, cy)]
            assert cax == [_ref_mul(f, a, u) for u in cx]


def _encode_reference(code, message):
    """x^T G with scalar field arithmetic, one symbol at a time."""
    f = code.field
    word = [0] * code.n
    for xi, row in zip(message, code.generator):
        for j, gij in enumerate(row):
            word[j] = _ref_add(f, word[j], _ref_mul(f, xi, gij))
    return tuple(word)


# prime fields, GF(2^m) on default moduli, and GF(16) on x^4+x^3+x^2+x+1,
# irreducible but not primitive
ENCODE_FIELDS = [(2, None), (5, None), (101, None), (4, None), (16, None), (256, None),
                 (16, 0b11111)]


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(ENCODE_FIELDS), data=st.data())
def test_encode_all_matches_scalar_reference(field, data):
    f = field_new(*field)
    k, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 7))
    sym = st.integers(0, f.q - 1)
    gen = data.draw(st.lists(st.lists(sym, min_size=n, max_size=n), min_size=k, max_size=k))
    msgs = data.draw(st.lists(st.lists(sym, min_size=k, max_size=k), min_size=1, max_size=10))
    code = LinearCode(f, gen)
    words = code.encode_all(msgs)
    assert words.shape == (len(msgs), n) and words.dtype == np.int64
    assert [tuple(w) for w in words.tolist()] == [_encode_reference(code, m) for m in msgs]
    assert tuple(code.encode_all([msgs[0]])[0].tolist()) == _encode_reference(code, msgs[0])
    # the row-space enumeration is the encoder applied to the reduced basis
    r = code.rank()
    if r and f.q**r <= 512:
        coeffs = list(itertools.product(range(f.q), repeat=r))
        expected = LinearCode(f, code.basis()).encode_all(coeffs)
        assert np.array_equal(code.codeword_matrix(), expected)


@pytest.mark.parametrize("message", [(0, 5), (0, -1), (2**70, 0), (2**63, 0), (1.5, 0),
                                     (1, 2, 3), (1,)])
def test_encode_rejects_symbols_outside_the_field(message):
    code = rs_code(field_new(5), 2, [0, 1, 2])
    with pytest.raises(ValueError):
        code.encode_all([message])
    with pytest.raises(ValueError):
        code.encode_all([(0, 0), message])


def test_codeword_matrix_is_exact_row_space():
    f = field_new(3)
    c = LinearCode(f, [[1, 0, 2, 1], [2, 0, 1, 2], [0, 1, 1, 0]])  # rank 2
    assert c.rank() == 2
    mat = c.codeword_matrix()
    assert mat.shape == (9, 4)
    brute = {
        tuple(w) for w in c.encode_all(list(itertools.product(range(3), repeat=3))).tolist()
    }
    assert {tuple(int(v) for v in row) for row in mat} == brute
    assert len({tuple(int(v) for v in row) for row in mat}) == 9


def test_min_distance_budget_and_degenerate():
    f = field_new(2)
    eye = [[1 if i == j else 0 for j in range(23)] for i in range(23)]
    big = LinearCode(f, eye)
    with pytest.raises(InfeasibleError):
        big.min_distance_exact()
    zero = LinearCode(f, [[0, 0, 0]])
    with pytest.raises(ValueError):
        zero.min_distance_exact()
    # rank-0 row space still enumerates: it is exactly the zero codeword
    mat = zero.codeword_matrix()
    assert mat.shape == (1, 3)
    assert not mat.any()


def _min_weight_reference(code):
    """Smallest nonzero row weight of the full row space."""
    weights = np.count_nonzero(code.codeword_matrix(), axis=1)
    return Fraction(int(weights[weights > 0].min()), code.n)


# small prime and binary fields, and GF(16) on a non-primitive modulus
DISTANCE_FIELDS = [(2, None), (3, None), (4, None), (5, None), (7, None), (8, None),
                   (16, 0b11111)]


@settings(max_examples=120, deadline=None)
@given(field=st.sampled_from(DISTANCE_FIELDS), data=st.data())
def test_min_distance_matches_full_enumeration(field, data):
    f = field_new(*field)
    k = data.draw(st.integers(1, 4 if f.q <= 5 else 3))
    n = data.draw(st.integers(1, 8))
    sym = st.integers(0, f.q - 1)
    gen = data.draw(st.lists(st.lists(sym, min_size=n, max_size=n), min_size=k, max_size=k))
    if data.draw(st.booleans()):  # a repeated row: rank < k
        gen.append(list(gen[data.draw(st.integers(0, k - 1))]))
    for j in data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):  # zero columns
        for row in gen:
            row[j] = 0
    gen[0][data.draw(st.integers(0, n - 1))] = data.draw(st.integers(1, f.q - 1))
    code = LinearCode(f, gen)
    assert code.min_distance_exact() == _min_weight_reference(code)


def test_min_distance_reads_every_chunk():
    # [I_16 | P] over GF(2) with P_0 = P_1 and every other P_i distinct and of
    # weight >= 2: the only weight-2 codeword is row 0 + row 1, at index
    # 2^15 + 2^14, in the last quarter of the scan and far past its first block
    tails = [t for t in itertools.product((0, 1), repeat=5) if sum(t) >= 2]
    parity = [tails[0]] + tails[:15]
    gen = [[int(i == j) for j in range(16)] + list(parity[i]) for i in range(16)]
    code = LinearCode(field_new(2), gen)
    assert code.min_distance_exact() == Fraction(2, 21) == _min_weight_reference(code)


@pytest.mark.parametrize(
    "q, gen",
    [
        (2, [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]]),
        (5, [[1, 2, 3, 4, 0], [2, 4, 1, 3, 0], [0, 1, 1, 2, 3]]),  # rank 2 of 3 rows
        (4, [[1, 2, 3], [3, 1, 2]]),
        (7, [[0, 0, 0], [1, 2, 3]]),  # rank 1
        (101, [[1, 1, 1, 1], [0, 1, 2, 3], [0, 1, 4, 9]]),
    ],
)
def test_min_distance_encodes_one_word_per_scalar_class(q, gen, monkeypatch):
    code = LinearCode(field_new(q), gen)
    encoded = []
    inner = LinearCode._codewords_at

    def counting(self, ranges, chunk):
        for block in inner(self, ranges, chunk):
            encoded.append(len(block))
            yield block

    monkeypatch.setattr(LinearCode, "_codewords_at", counting)
    code.min_distance_exact()
    r = code.rank()
    assert sum(encoded) == (q**r - 1) // (q - 1)


def _rref_reference(f: Field, rows) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon form, one scalar operation at a time."""
    mat, r = [list(row) for row in rows], 0
    for col in range(len(mat[0])):
        sel = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = _ref_inv(f, mat[r][col])
        mat[r] = [_ref_mul(f, inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r:
                c = mat[i][col]
                mat[i] = [_ref_sub(f, x, _ref_mul(f, c, p)) for x, p in zip(mat[i], mat[r])]
        r += 1
    return tuple(tuple(row) for row in mat[:r])


# prime fields, GF(2^m) on default moduli, and the irreducible but not
# primitive moduli x^4+x^3+x^2+x+1 (GF(16)) and 0x11B (GF(256))
REDUCE_FIELDS = [(2, None), (3, None), (5, None), (7, None), (101, None), (65521, None),
                 (4, None), (8, None), (256, None), (65536, None), (16, 0b11111), (256, 0x11B)]


def _random_generators(f: Field, rng, count: int):
    """Random k-by-n generators over f: full, rank-deficient (rows combined
    from fewer rows), with a zero row and a zero column, and all zero."""
    for i in range(count):
        k, n = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        gen = rng.integers(0, f.q, size=(k, n)).tolist()
        if i % 4 == 1:
            few = gen[: max(1, k - 2)]
            coeffs = rng.integers(0, f.q, size=(k, len(few))).tolist()
            gen = [list(_encode_reference(LinearCode(f, few), c)) for c in coeffs]
        elif i % 4 == 2:
            gen[int(rng.integers(0, k))] = [0] * n
            for row in gen:
                row[int(rng.integers(0, n))] = 0
        elif i % 8 == 7:
            gen = [[0] * n for _ in range(k)]
        yield gen


@pytest.mark.parametrize("q, poly", REDUCE_FIELDS)
def test_row_reduce_matches_scalar_reference(q, poly):
    f = field_new(q, poly)
    rng = np.random.default_rng(q + (poly or 0))
    ranks = set()
    for gen in _random_generators(f, rng, 30):
        basis = _row_reduce(f, gen)
        assert basis == _rref_reference(f, gen)
        assert all(type(x) is int for row in basis for x in row)
        ranks.add(len(basis) == min(len(gen), len(gen[0])))
    assert ranks == {True, False}  # full-rank and rank-deficient draws both ran


@pytest.mark.parametrize("q, poly", [(2, None), (3, None), (5, None), (4, None), (8, None),
                                     (16, 0b11111)])
def test_contains_matches_brute_force_membership(q, poly):
    f = field_new(q, poly)
    rng = np.random.default_rng(q)
    codes = [LinearCode(f, gen) for gen in [[[0, 0, 0]], *_random_generators(f, rng, 40)]]
    codes = [code for code in codes if code.size <= 1024][:24]
    assert len(codes) == 24 and codes[0].rank() == 0
    for code in codes:
        members = {tuple(w) for w in code.codeword_matrix().tolist()}
        if q**code.n <= 1024:
            words = itertools.product(range(q), repeat=code.n)
        else:  # every codeword, and as many random words
            words = [*members, *map(tuple, rng.integers(0, q, size=(len(members), code.n)).tolist())]
        for w in words:
            assert code.contains(w) == (w in members)


def test_contains_membership():
    f = field_new(5)
    c = rs_code(f, 2, [0, 1, 2, 3])
    assert c.contains(c.encode_all([(3, 4)])[0])
    assert c.contains((0, 0, 0, 0))
    assert not c.contains((1, 0, 0, 0))  # constant-term mismatch with slope
    assert not c.contains((1, 1, 1))  # wrong length
    zero = LinearCode(f, [[0, 0]])
    assert zero.contains((0, 0))
    assert not zero.contains((0, 1))


def test_serialization_roundtrip():
    parent = hadamard_code(field_new(4), 2)
    sampled = sample_code(parent, 6, seed=9)
    for code in (parent, sampled, rs_code(field_new(7), 3, [1, 5, 2, 2])):
        doc = code_to_json(code)
        back = code_from_json(doc)
        assert back.generator == code.generator
        assert back.field == code.field
        assert back.provenance == code.provenance
        assert code_to_json(back) == doc
