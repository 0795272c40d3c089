from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listlab.config import Budgets
from listlab.errors import InfeasibleError
from listlab.galois import field_new
from listlab.linear_code import LinearCode, full_rs_code, hadamard_code, lex_digits, sample_code
from listlab.plurality import (
    CodeFamily,
    MassResult,
    MessageSet,
    _batch_size,
    _distinct_draws,
    _mass_by_subsets,
    agreement,
    agreement_block,
    candidate_message_sets,
    iter_received_blocks,
    max_agreement_sum,
    plurality_counts_array,
    plurality_mass,
    plurality_profile,
    top_agreement_scan,
)
from listlab.seeds import child_seed, rng_for


def _random_code(rng, q, k, n):
    f = field_new(q)
    while True:
        gen = rng.integers(0, q, size=(k, n))
        code = LinearCode(f, gen.tolist())
        if code.rank() > 0:
            return code


def _brute_force_max_agreement(code, lam):
    words = code.encode_all(lam.messages)
    best, best_z = -1, None
    for start, block in iter_received_blocks(code.field.q, code.n, chunk=4096):
        sums = agreement_block(block, words).sum(axis=1)
        i = int(sums.argmax())
        if int(sums[i]) > best:
            best, best_z = int(sums[i]), tuple(int(v) for v in block[i])
    return best, best_z


def test_agreement_basics():
    assert agreement((0, 0, 1), (0, 1, 1)) == 2
    assert agreement((1, 2, 3), (1, 2, 3)) == 3
    with pytest.raises(ValueError):
        agreement((0, 1), (0, 1, 2))


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_agreement_complements_hamming_distance(pairs):
    x = tuple(p[0] for p in pairs)
    y = tuple(p[1] for p in pairs)
    hamming = sum(a != b for a, b in zip(x, y))
    assert agreement(x, y) + hamming == len(x)


@pytest.mark.parametrize("q,n", [(2, 1), (3, 4), (4, 3), (5, 2)])
@pytest.mark.parametrize("chunk", [1, 3, 7, 16, 25, 64, 1 << 14])
def test_received_blocks_enumerate_lexicographically(q, n, chunk):
    # copied as drawn: a block is valid only until the next one is drawn
    blocks = [(s, b.copy()) for s, b in iter_received_blocks(q, n, chunk)]
    assert [s for s, _ in blocks] == list(range(0, q**n, chunk))
    words = np.concatenate([b for _, b in blocks])
    assert words.dtype == np.int64
    assert words.tolist() == [list(w) for w in itertools.product(range(q), repeat=n)]


class _CountingNumpy:
    """numpy as seen by one module, counting that module's np.empty calls."""

    def __init__(self):
        self.empties = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        self.empties += 1
        return np.empty(*args, **kwargs)


def test_received_blocks_are_views_of_one_buffer(monkeypatch):
    # 3^4 = 81 words: one word per block, 54 + 27, one whole block, and a
    # chunk past q^n
    q, n = 3, 4
    blocks, empties = [], []
    for chunk in (1, 54, 81, 100):
        counting = _CountingNumpy()
        monkeypatch.setattr("listlab.plurality.np", counting)
        previous = None
        for count, (start, block) in enumerate(iter_received_blocks(q, n, chunk), 1):
            expected = lex_digits(q, n, np.arange(start, start + len(block))).T
            assert block.dtype == np.int64 and block.strides[0] == block.itemsize
            assert np.array_equal(block, expected)
            assert previous is None or np.shares_memory(block, previous)
            previous = block
        blocks.append(count)
        empties.append(counting.empties)
    assert blocks == [81, 2, 1, 1]
    assert empties == [empties[0]] * 4


def test_message_set_from_indices_is_lexicographic():
    for q, k in ((2, 3), (3, 2), (4, 2), (5, 1)):
        words = list(itertools.product(range(q), repeat=k))
        assert MessageSet.from_indices(q, k, range(q**k)).messages == tuple(words)
        picks = [q**k - 1, 0, q**k // 2]
        assert MessageSet.from_indices(q, k, picks).messages == tuple(words[i] for i in picks)
        assert MessageSet.from_indices(q, k, np.array(picks)) == MessageSet.from_indices(
            q, k, picks
        )


def test_message_set_validation():
    with pytest.raises(ValueError):
        MessageSet(((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        MessageSet(())
    with pytest.raises(ValueError):
        MessageSet(((0, 1), (0, 1, 2)))


def test_profile_frozen_binary_example():
    code = LinearCode(field_new(2), [[1, 0], [0, 1]])
    lam = MessageSet(((0, 0), (0, 1), (1, 1)))
    prof = plurality_profile(code, lam)
    assert prof.pl == (Fraction(2, 3), Fraction(2, 3))
    assert prof.maximizers == (0, 1)
    value, witness = max_agreement_sum(code, lam)
    assert value == 4
    assert witness == (0, 1)


def test_profile_singleton():
    code = full_rs_code(field_new(5), 2)
    lam = MessageSet(((2, 3),))
    prof = plurality_profile(code, lam)
    assert all(p == 1 for p in prof.pl)
    value, witness = max_agreement_sum(code, lam)
    assert value == code.n
    assert witness == tuple(code.encode_all([(2, 3)])[0].tolist())


def test_profile_full_hadamard_gf3():
    code = hadamard_code(field_new(3), 2)
    lam = MessageSet.from_indices(3, 2, range(9))
    prof = plurality_profile(code, lam)
    assert prof.counts[0] == 9  # zero column
    assert all(c == 3 for c in prof.counts[1:])
    assert Fraction(sum(prof.counts), prof.size) == Fraction(9 + 8 * 3, 9)


def test_identity_against_full_enumeration():
    rng = np.random.default_rng(123)
    for _ in range(60):
        q = int(rng.choice([2, 3, 4, 5]))
        n = int(rng.integers(2, {2: 9, 3: 6, 4: 5, 5: 5}[q] + 1))
        k = int(rng.integers(1, 4))
        code = _random_code(rng, q, k, n)
        L = int(rng.integers(1, 6))
        total = q**k
        idxs = rng.choice(total, size=min(L, total), replace=False)
        lam = MessageSet.from_indices(q, k, idxs)
        value, witness = max_agreement_sum(code, lam)
        brute, _ = _brute_force_max_agreement(code, lam)
        assert value == brute
        # witness attains the maximum
        assert sum(agreement(w, witness) for w in code.encode_all(lam.messages).tolist()) == value
        prof = plurality_profile(code, lam)
        for p in prof.pl:
            assert Fraction(1, min(q, len(lam))) <= p <= 1


def test_count_monotonicity_under_restriction():
    rng = np.random.default_rng(5)
    for _ in range(40):
        q = int(rng.choice([2, 3, 5]))
        code = _random_code(rng, q, 2, 4)
        total = q**2
        size = int(rng.integers(2, min(6, total) + 1))
        idxs = list(rng.choice(total, size=size, replace=False))
        msgs = MessageSet.from_indices(q, 2, idxs).messages
        sub = msgs[: int(rng.integers(1, size))]
        big = plurality_profile(code, MessageSet(tuple(msgs)))
        small = plurality_profile(code, MessageSet(tuple(sub)))
        for j in range(code.n):
            assert small.counts[j] <= big.counts[j]


def _counts_reference(words):
    """(plurality counts, smallest maximizing symbols) from Counter tallies."""
    counts, maximizers = [], []
    for j in range(len(words[0])):
        tally = Counter(w[j] for w in words)
        best = max(tally.values())
        counts.append(best)
        maximizers.append(min(s for s, c in tally.items() if c == best))
    return counts, maximizers


@settings(max_examples=100, deadline=None)
@given(q=st.sampled_from([2, 3, 5, 16, 1 << 16]), data=st.data())
def test_plurality_counts_match_counter_reference(q, data):
    n = data.draw(st.integers(1, 8))
    # a few symbols per coordinate, so ties are common
    pool = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=4))
    words = data.draw(st.lists(
        st.lists(st.sampled_from(pool), min_size=n, max_size=n), min_size=1, max_size=10
    ))
    counts, maximizers = plurality_counts_array(np.array(words, dtype=np.int64), q)
    assert (counts.tolist(), maximizers.tolist()) == _counts_reference(words)


def test_plurality_counts_over_gf_2_16():
    words = [[65535, 0, 7], [0, 65535, 7], [65535, 9, 65535]]
    counts, maximizers = plurality_counts_array(np.array(words), 1 << 16)
    assert counts.tolist() == [2, 1, 2] and maximizers.tolist() == [65535, 0, 7]
    assert (counts.tolist(), maximizers.tolist()) == _counts_reference(words)


def _greedy_reference(words, L):
    """The greedy L-set built with per-coordinate Counter tallies: start from
    row 0, then add the first row with the largest plurality-count sum."""
    n = words.shape[1]
    chosen = [0]
    tallies = [Counter([int(words[0, j])]) for j in range(n)]
    while len(chosen) < L:
        best_gain, best_row = -1, None
        for i in range(len(words)):
            if i in chosen:
                continue
            gain = 0
            for j, t in enumerate(tallies):
                gain += max(max(t.values()), t[int(words[i, j])] + 1)
            if gain > best_gain:
                best_gain, best_row = gain, i
        chosen.append(best_row)
        for j in range(n):
            tallies[j][int(words[best_row, j])] += 1
    witness = tuple(tuple(int(v) for v in words[i]) for i in sorted(chosen))
    counts, maximizers = _counts_reference(witness)
    return Fraction(sum(counts), L), witness, tuple(maximizers)


def test_greedy_mass_matches_counter_reference():
    rng = np.random.default_rng(31)
    for _ in range(40):
        q = int(rng.choice([2, 3, 4, 5, 8]))
        code = _random_code(rng, q, int(rng.integers(1, 4)), int(rng.integers(2, 7)))
        if code.size > 200:
            continue
        L = int(rng.integers(1, min(code.size, 8) + 1))
        res = plurality_mass(code, L, "greedy")
        ref = _greedy_reference(code.codeword_matrix(), L)
        assert (res.value, res.witness_codewords, res.witness_received) == ref
        assert not res.exact and res.lower_bound


def test_mass_list_size_one_is_block_length():
    code = full_rs_code(field_new(5), 2)
    for mode in ("exact", "greedy", "sampled"):
        res = plurality_mass(code, 1, mode=mode, trials=5, seed=1)
        assert res.value == code.n


def test_mass_whole_hadamard_gf2():
    code = hadamard_code(field_new(2), 2)
    res = plurality_mass(code, 4, mode="exact")
    # zero column contributes 1, the three nonzero columns 1/2 each
    assert res.value == Fraction(5, 2)
    assert res.exact and not res.lower_bound


def test_mass_routes_agree():
    rng = np.random.default_rng(77)
    for _ in range(10):
        q = int(rng.choice([2, 3]))
        code = _random_code(rng, q, 2, 4)
        L = int(rng.integers(2, min(4, code.size) + 1))
        subsets = plurality_mass(code, L, budgets=Budgets(max_received_words=1))
        assert subsets.route == "subsets"
        if math.comb(code.size, L) > 1:
            scan = plurality_mass(code, L, budgets=Budgets(max_subsets=1))
            assert scan.route == "scan"
            assert scan.value == subsets.value
        else:
            # a single subset fits every budget, so no budget forces the scan
            best, _ = top_agreement_scan(code.codeword_matrix(), q, L)
            assert Fraction(best, L) == subsets.value


def _first_lex_maximizer(words, q, L):
    """First L-set in itertools.combinations order with the largest
    plurality-count sum."""
    best, best_rows = -1, None
    for rows in itertools.combinations(range(len(words)), L):
        total = int(plurality_counts_array(words[list(rows)], q)[0].sum())
        if total > best:
            best, best_rows = total, list(rows)
    return best_rows


@st.composite
def _word_arrays(draw):
    """(words, q, L): up to 12 rows over GF(q) drawn from a smaller pool, so
    duplicate rows are common, and L = 1, L = N or anything between."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8]))
    n = draw(st.integers(1, 8))
    n_words = draw(st.integers(1, 12))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    pool = draw(st.lists(row, min_size=1, max_size=n_words))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_words, max_size=n_words))
    L = draw(st.one_of(st.just(1), st.just(n_words), st.integers(1, n_words)))
    return np.array([pool[i] for i in picks], dtype=np.int64), q, L


@settings(max_examples=150, deadline=None)
@given(case=_word_arrays())
def test_subset_route_witness_is_first_lex_maximizer(case):
    words, q, L = case
    assert _mass_by_subsets(words, q, L) == _first_lex_maximizer(words, q, L)


@settings(max_examples=60, deadline=None)
@given(
    q_k=st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1), (7, 1), (8, 1)]),
    data=st.data(),
)
def test_subset_route_mass_result(q_k, data):
    q, k = q_k
    n = data.draw(st.integers(1, 8))
    gen = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                             min_size=k, max_size=k))
    code = LinearCode(field_new(q), gen)
    words = code.codeword_matrix()
    L = data.draw(st.one_of(st.just(1), st.just(len(words)), st.integers(1, len(words))))
    rows = _first_lex_maximizer(words, q, L)
    counts, z = plurality_counts_array(words[rows], q)
    assert plurality_mass(code, L, budgets=Budgets(max_received_words=1)) == MassResult(
        L, Fraction(int(counts.sum()), L), True, False, "exact", "subsets",
        tuple(tuple(w) for w in words[rows].tolist()), tuple(z.tolist()),
    )


def test_mass_lower_bounds_below_exact():
    rng = np.random.default_rng(99)
    for i in range(20):
        q = int(rng.choice([2, 3, 5]))
        code = _random_code(rng, q, 2, 4)
        L = int(rng.integers(1, min(5, code.size) + 1))
        exact = plurality_mass(code, L)
        sampled = plurality_mass(code, L, mode="sampled", trials=10, seed=i)
        greedy = plurality_mass(code, L, mode="greedy")
        assert sampled.lower_bound and greedy.lower_bound
        assert sampled.value <= exact.value
        assert greedy.value <= exact.value


def _sampled_mass_reference(code, L, trials, seed):
    """Trial-by-trial sampled mass: (value, witness) of the first best draw."""
    words = code.codeword_matrix()
    rng = rng_for(seed, 0)
    best, best_rows = -1, None
    for _ in range(trials):
        rows = np.sort(rng.choice(len(words), size=L, replace=False))
        total = int(plurality_counts_array(words[rows], code.field.q)[0].sum())
        if total > best:
            best, best_rows = total, rows
    return Fraction(best, L), tuple(tuple(w) for w in words[best_rows].tolist())


@pytest.mark.parametrize("q, k, n, L", [(2, 3, 5, 3), (7, 2, 6, 4), (7, 2, 6, 1), (16, 2, 7, 5)])
def test_sampled_mass_matches_trial_by_trial_reference(q, k, n, L):
    # small codes tie often, and at L = 1 every draw ties, so the first-maximum
    # rule is exercised within and across the side-by-side chunks
    code = _random_code(np.random.default_rng(q), q, k, n)
    chunk = _batch_size(q, n, L)
    assert chunk > 2
    for trials in (1, chunk - 1, chunk, chunk + 1):
        for seed in (0, 5):
            got = plurality_mass(code, L, mode="sampled", trials=trials, seed=seed)
            assert (got.value, got.witness_codewords) == _sampled_mass_reference(
                code, L, trials, seed
            )
            assert got.lower_bound and not got.exact


def test_candidate_sets_deterministic_and_valid():
    f = field_new(3)
    a = candidate_message_sets(f, 3, L=5, count=7, seed=42)
    b = candidate_message_sets(f, 3, L=5, count=7, seed=42)
    assert [tuple(s) for s in a] == [tuple(s) for s in b]
    assert len(a) == 7
    for s in a:
        assert len(s) == 5
    # first candidate is the low-index box
    assert a[0].messages[0] == (0, 0, 0)
    c = candidate_message_sets(f, 3, L=5, count=7, seed=43)
    assert [tuple(s) for s in a] != [tuple(s) for s in c]


def test_candidate_sets_match_per_set_choice():
    # the box, two shifts each drawn by one rng.integers call, then random
    # sets each drawn by one sorted rng.choice call, in turn from one stream
    f = field_new(3)
    for seed in range(20):
        got = candidate_message_sets(f, 3, L=5, count=9, seed=seed)
        rng = rng_for(seed, 0xC0DE)
        box = np.array(got[0].messages)
        shifts = [lex_digits(3, 3, int(rng.integers(0, 27)))[:, 0] for _ in range(2)]
        want = [MessageSet(f.add_array(box, s).tolist()) for s in shifts]
        want += [MessageSet.from_indices(3, 3, np.sort(rng.choice(27, size=5, replace=False)))
                 for _ in range(6)]
        assert got[1:] == want


# (N, L, T): L = 1 and L = N; T across several side-by-side chunks; bounds
# past 2^32 with frequent rejections, and on the 64-bit path; the longest sets
# drawn column by column and the shortest left to choice; numpy's tail shuffle
DISTINCT_SHAPES = [
    (9, 1, 4), (7, 7, 4), (1, 1, 2),
    (256, 6, 2 * _batch_size(16, 12, 6) + 1),
    (3 * 10**9, 5, 20), (2**33, 4, 20),
    (1000, 64, 5), (4096, 65, 3), (10001, 201, 3), (20000, 500, 3),
]


@pytest.mark.parametrize("N, L, T", DISTINCT_SHAPES)
def test_distinct_draws_match_per_trial_choice(N, L, T):
    for seed in range(100):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _distinct_draws(rng, N, L, T)
        want = [np.sort(ref.choice(N, size=L, replace=False)) for _ in range(T)]
        assert got.shape == (T, L) and (got == np.array(want)).all()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_family_columns_reproducible():
    # a sampled family's draw i is sample_code's draw under child_seed(seed, i),
    # and its code is that draw of the whole parent, whether drawn alone or
    # in a batch; a fixed family always draws all of its code's columns
    for kind, parent in (("sampled-rs", full_rs_code(field_new(3), 2)),
                         ("sampled-hadamard", hadamard_code(field_new(3), 2))):
        fam = CodeFamily(kind, field=field_new(3), k=2, n=7)
        assert fam.parent_n == parent.n
        for seed in (5, 0):
            batch = [cols.tolist() for cols in fam.columns(seed, range(14))]
            assert len(batch) == 14 and {len(cols) for cols in batch} == {7}
            for index, cols in enumerate(batch):
                assert cols == next(fam.columns(seed, [index])).tolist()
                code = sample_code(parent, 7, seed=child_seed(seed, index))
                assert cols == code.provenance["columns"]
                assert fam.code_on(cols).generator == code.generator
        assert next(fam.columns(5, [2])).tolist() != next(fam.columns(5, [3])).tolist()
        assert list(fam.columns(5, [])) == []
        assert iter(lazy := fam.columns(5, range(3))) is lazy  # one draw held at a time
    fixed = CodeFamily("fixed", code=full_rs_code(field_new(5), 2))
    assert [cols.tolist() for cols in fixed.columns(5, [2, 3])] == [list(range(5))] * 2
    assert fixed.code_on([4, 0]).generator == ((1, 1), (4, 0))


def test_family_hadamard_cap_and_bad_k_refused_up_front():
    with pytest.raises(InfeasibleError, match="hadamard code needs 2097152 columns, budget"):
        CodeFamily("sampled-hadamard", field=field_new(2), k=21, n=4)
    with pytest.raises(ValueError):
        CodeFamily("sampled-rs", field=field_new(3), k=4, n=4)
    with pytest.raises(ValueError):
        CodeFamily("sampled-hadamard", field=field_new(3), k=0, n=4)
