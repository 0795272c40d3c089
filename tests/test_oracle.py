"""Oracle tests: frozen verdicts, witness re-verification, profile values.

Frozen expectations for the Reed-Solomon instance (GF(5), k=2, evaluation
points 0,1,2,3) come from an independent plain-Python sweep over all 625
received words: at radius 1/2 the largest ball holds 6 codewords, the
lexicographically first word with more than 2 codewords in its ball is
(0,0,0,1), and that ball is {(0,0,0,0),(0,2,4,1),(2,0,3,1),(3,4,0,1)}.
"""

import dataclasses
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import listlab.plurality as plurality
from listlab.config import MAX_SCAN_LENGTH, Budgets
from listlab.errors import InfeasibleError
from listlab.galois import field_new, poly_mod_gf2, poly_mul_gf2
from listlab.linear_code import LinearCode, hadamard_code, lex_digits, rs_code, sample_code
from listlab.oracle import (
    AVERAGE_RADIUS,
    BOUNDED,
    DECODABLE,
    EXHAUSTIVE,
    STANDARD,
    VIOLATED,
    Certificate,
    ListDecQuery,
    certificate_from_json,
    certificate_to_json,
    decoding_radius_profile,
    is_avg_radius_list_decodable,
    is_list_decodable,
)
from listlab.plurality import (
    agreement_block,
    plurality_mass,
    top_agreement_scan,
)

RS5 = rs_code(field_new(5), 2, [0, 1, 2, 3])
RS5_BALL_AT_0001 = {(0, 0, 0, 0), (0, 2, 4, 1), (2, 0, 3, 1), (3, 4, 0, 1)}


def test_query_validation():
    q = ListDecQuery(Fraction(1, 2), 2)
    assert q.mode == STANDARD and q.radius == Fraction(1, 2)
    assert ListDecQuery(0, 0, AVERAGE_RADIUS).radius == 0
    assert ListDecQuery(1, 3).agreement_threshold(4) == 0
    assert ListDecQuery(Fraction(1, 2), 1).agreement_threshold(5) == 3
    with pytest.raises(ValueError):
        ListDecQuery(Fraction(3, 2), 1)
    with pytest.raises(ValueError):
        ListDecQuery(Fraction(-1, 2), 1)
    with pytest.raises(ValueError):
        ListDecQuery(Fraction(1, 2), -1)
    with pytest.raises(ValueError):
        ListDecQuery(Fraction(1, 2), 1, "typical")


def test_most_agreement_matches_the_average_distance_definition():
    # L+1 codewords with total agreement A sit at total distance (L+1) * n - A,
    # and violate the query iff that is below (L+1) * n * rho, the Fraction
    # comparison Certificate.verify() makes; on every total A of this grid,
    # A > most_agreement(n) must say the same
    cases = 0
    for n in range(1, 13):
        for bound in range(6):
            size = bound + 1
            for d in range(1, 2 * n + 1):
                for m in range(d + 1):
                    query = ListDecQuery(Fraction(m, d), bound, AVERAGE_RADIUS)
                    most, reach = query.most_agreement(n), size * n * query.radius
                    assert all(
                        (a > most) == (size * n - a < reach) for a in range(size * n + 1)
                    ), (n, bound, query.radius)
                    cases += size * n + 1
    assert cases == 305_682
    assert ListDecQuery(Fraction(1, 3), 2, AVERAGE_RADIUS).most_agreement(4) == 8
    assert ListDecQuery(0, 0, AVERAGE_RADIUS).most_agreement(5) == 5


def test_standard_trivial_verdicts():
    for code in (RS5, LinearCode(field_new(2), [[1, 1, 0], [0, 1, 1]])):
        cert = is_list_decodable(code, ListDecQuery(0, 1))
        assert cert.verdict == DECODABLE and cert.search == EXHAUSTIVE
        assert cert.verify()
    tiny = rs_code(field_new(3), 1, [0, 1])  # constants code, N = 3
    cert = is_list_decodable(tiny, ListDecQuery(1, tiny.size - 1))
    assert cert.verdict == VIOLATED
    assert cert.witness_received == (0, 0)  # lex-first received word violates
    assert len(cert.witness_codewords) == tiny.size
    assert cert.verify()


def test_standard_rs_frozen_instance():
    cert = is_list_decodable(RS5, ListDecQuery(Fraction(1, 2), 2))
    assert cert.verdict == VIOLATED and cert.search == EXHAUSTIVE
    assert cert.witness_received == (0, 0, 0, 1)
    assert len(cert.witness_codewords) == 3
    assert set(cert.witness_codewords) <= RS5_BALL_AT_0001
    assert cert.verify()
    # the largest radius-1/2 ball holds exactly 6 codewords
    assert is_list_decodable(RS5, ListDecQuery(Fraction(1, 2), 6)).verdict == DECODABLE
    assert is_list_decodable(RS5, ListDecQuery(Fraction(1, 2), 5)).verdict == VIOLATED
    assert (agreement_block(np.array([[0, 0, 1, 1]]), RS5.codeword_matrix()) >= 2).sum() == 6


def test_avg_single_codeword_threshold():
    one = LinearCode(field_new(3), [[0, 0, 0]])  # rank 0: just the zero word
    assert is_avg_radius_list_decodable(one, ListDecQuery(0, 0, AVERAGE_RADIUS)).verdict == DECODABLE
    cert = is_avg_radius_list_decodable(one, ListDecQuery(Fraction(1, 3), 0, AVERAGE_RADIUS))
    assert cert.verdict == VIOLATED
    assert cert.witness_codewords == ((0, 0, 0),)
    assert cert.witness_received == (0, 0, 0)
    assert cert.verify()
    # vacuous when the code has fewer than L+1 codewords
    assert is_avg_radius_list_decodable(one, ListDecQuery(0, 3, AVERAGE_RADIUS)).verdict == DECODABLE


def test_avg_decodable_implies_standard_decodable():
    # radii with non-integer rho*n: at integer boundaries the two modes may
    # legitimately disagree by one distance step, so draw odd/(2n) radii
    rng = np.random.default_rng(1234)
    avg_dec = avg_vio = 0
    for _ in range(50):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 3))
        code = LinearCode(field_new(q), rng.integers(0, q, size=(k, n)).tolist())
        rho = Fraction(2 * int(rng.integers(0, n)) + 1, 2 * n)
        bound = int(rng.integers(1, 3))
        avg = is_avg_radius_list_decodable(code, ListDecQuery(rho, bound, AVERAGE_RADIUS))
        if avg.verdict == DECODABLE:
            avg_dec += 1
            std = is_list_decodable(code, ListDecQuery(rho, bound))
            assert std.verdict == DECODABLE, (q, n, code.generator, rho, bound)
        else:
            avg_vio += 1
            assert avg.verify()
    assert avg_dec >= 10 and avg_vio >= 10  # both branches genuinely exercised


def test_avg_verdict_flips_at_mass_threshold():
    rng = np.random.default_rng(99)
    for _ in range(20):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 5))
        code = LinearCode(field_new(q), rng.integers(0, q, size=(2, n)).tolist())
        bound = 1 if code.size >= 2 else 0
        mass = plurality_mass(code, bound + 1, "exact")
        rho_eq = 1 - mass.value / n  # largest decodable radius, attained
        assert 0 <= rho_eq < 1
        at = is_avg_radius_list_decodable(code, ListDecQuery(rho_eq, bound, AVERAGE_RADIUS))
        assert at.verdict == DECODABLE
        nudge = (1 - rho_eq) / 2
        above = is_avg_radius_list_decodable(
            code, ListDecQuery(rho_eq + nudge, bound, AVERAGE_RADIUS)
        )
        assert above.verdict == VIOLATED
        assert above.verify()


def test_certificate_roundtrip_and_tamper():
    cert = is_list_decodable(RS5, ListDecQuery(Fraction(1, 2), 2))
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert back.verify()
    assert back.as_dict() == cert.as_dict()
    assert back.query == cert.query
    # decodable certificates round-trip too
    ok = is_list_decodable(RS5, ListDecQuery(0, 1))
    assert certificate_from_json(certificate_to_json(ok)).verify()

    doc = json.loads(text)
    doc["witness_received"] = [4, 4, 4, 4]  # far from the witness ball
    assert not certificate_from_json(json.dumps(doc)).verify()
    doc = json.loads(text)
    doc["witness_codewords"][0] = [1, 0, 0, 0]  # not a codeword
    assert not certificate_from_json(json.dumps(doc)).verify()
    doc = json.loads(text)
    doc["witness_codewords"] = doc["witness_codewords"][:2]  # too few to violate
    assert not certificate_from_json(json.dumps(doc)).verify()
    doc = json.loads(text)
    doc["query"]["list_bound"] = 6  # ball actually holds 4 words at rho=1/2
    assert not certificate_from_json(json.dumps(doc)).verify()

    avg = is_avg_radius_list_decodable(RS5, ListDecQuery(Fraction(4, 5), 1, AVERAGE_RADIUS))
    assert avg.verdict == VIOLATED and avg.verify()
    doc = avg.as_dict()
    doc["witness_codewords"] = doc["witness_codewords"][:1]  # wrong set size
    assert not certificate_from_json(json.dumps(doc)).verify()


def _forged(edit):
    doc = is_list_decodable(RS5, ListDecQuery(Fraction(1, 2), 2)).as_dict()
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "doc, match",
    [
        (_forged(lambda d: d.update(search="bogus")), "search"),
        (_forged(lambda d: d.update(verdict="bogus")), "verdict"),
        (_forged(lambda d: d.update(verdict=None)), "verdict"),
        (_forged(lambda d: d.pop("search")), "search"),
        (_forged(lambda d: d.pop("code")), "code"),
        (_forged(lambda d: d.pop("query")), "query"),
        (_forged(lambda d: d["query"].pop("radius")), "radius"),
        (_forged(lambda d: d["query"].pop("mode")), "mode"),
        (_forged(lambda d: d.update(query=[1, 2, "standard"])), "query"),
        ([1, 2], "certificate"),
        ("violated", "certificate"),
        (_forged(lambda d: d["query"].update(radius=[1])), "radius"),
        (_forged(lambda d: d["query"].update(radius={})), "radius"),
        (_forged(lambda d: d["query"].update(radius=True)), "radius"),
        (_forged(lambda d: d["query"].update(radius=0.5)), "radius"),
        (_forged(lambda d: d["query"].update(radius="1/0")), "radius"),
        (_forged(lambda d: d["query"].update(radius="half")), "radius"),
        (_forged(lambda d: d["query"].update(list_bound=True)), "list_bound"),
        (_forged(lambda d: d["query"].update(list_bound=2.0)), "list_bound"),
        (_forged(lambda d: d["query"].update(list_bound="2")), "list_bound"),
        (_forged(lambda d: d["query"].update(list_bound=[2])), "list_bound"),
        (_forged(lambda d: d.update(witness_received="0000")), "witness_received"),
        (_forged(lambda d: d["witness_received"].__setitem__(0, True)), "witness_received"),
        (_forged(lambda d: d["witness_received"].__setitem__(0, 1.0)), "witness_received"),
        (_forged(lambda d: d.update(witness_codewords=5)), "witness_codewords"),
        (_forged(lambda d: d["witness_codewords"].__setitem__(0, 7)), "witness_codewords"),
        (_forged(lambda d: d["witness_codewords"][0].__setitem__(0, "1")), "witness_codewords"),
    ],
)
def test_forged_certificates_are_rejected(doc, match):
    with pytest.raises(ValueError, match=match):
        certificate_from_json(json.dumps(doc))


def test_certificate_rejects_unknown_verdict_and_search():
    query = ListDecQuery(Fraction(1, 2), 2)
    with pytest.raises(ValueError, match="verdict"):
        Certificate(RS5, query, "undecided", EXHAUSTIVE)
    with pytest.raises(ValueError, match="search"):
        Certificate(RS5, query, DECODABLE, "sampled")


def test_profile_rs_frozen():
    rows = decoding_radius_profile(RS5, 5)
    assert [r.standard_radius for r in rows] == [Fraction(1, 4)] * 5
    assert [r.average_radius for r in rows] == [
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 2),
    ]
    # monotone nondecreasing in the list size, both modes
    for a, b in zip(rows, rows[1:]):
        assert a.standard_radius <= b.standard_radius
        assert a.average_radius <= b.average_radius
    # list size 1 is the unique-decoding radius floor((d_abs - 1)/2)/n with d_abs = 3
    assert rows[0].standard_radius == Fraction((3 - 1) // 2, 4)


def test_profile_cross_checks_oracles():
    for ell in (1, 2, 3):
        row = decoding_radius_profile(RS5, 3)[ell - 1]
        at = is_list_decodable(RS5, ListDecQuery(row.standard_radius, ell))
        assert at.verdict == DECODABLE
        beyond = is_list_decodable(RS5, ListDecQuery(row.standard_radius + Fraction(1, 4), ell))
        assert beyond.verdict == VIOLATED
        at = is_avg_radius_list_decodable(RS5, ListDecQuery(row.average_radius, ell, AVERAGE_RADIUS))
        assert at.verdict == DECODABLE
        beyond = is_avg_radius_list_decodable(
            RS5, ListDecQuery(row.average_radius + Fraction(1, 4), ell, AVERAGE_RADIUS)
        )
        assert beyond.verdict == VIOLATED


def test_profile_small_code_and_boundary_tie():
    # rank-1 binary code {000, 110}: at list size 1 the average-radius value
    # exceeds the standard one by a single distance step (integer boundary)
    code = LinearCode(field_new(2), [[1, 1, 0]])
    rows = decoding_radius_profile(code, 3)
    assert rows[0].standard_radius == 0
    assert rows[0].average_radius == Fraction(1, 3)
    # list sizes >= N decode at radius 1 in both modes
    assert rows[1] == rows[1].__class__(2, Fraction(1), Fraction(1))
    assert rows[2].standard_radius == Fraction(1) and rows[2].average_radius == Fraction(1)


def test_sampled_is_subset_of_exhaustive():
    q = ListDecQuery(Fraction(1, 2), 2)
    sampled = is_list_decodable(RS5, q, sample_received=500, seed=5)
    assert sampled.search == BOUNDED
    if sampled.verdict == VIOLATED:  # deterministic under the fixed seed
        assert sampled.verify()
        assert is_list_decodable(RS5, q).verdict == VIOLATED
    clean = is_list_decodable(RS5, ListDecQuery(0, 1), sample_received=50, seed=5)
    assert clean.verdict == DECODABLE and clean.search == BOUNDED


def test_small_max_agreement_implies_downgraded_decodability():
    # whenever the best top-L agreement sum over received words stays below
    # n*L*(eps + 1/q), the code is standard (1 - 1/q - eps, L-1) decodable
    f = field_new(2)
    rng = np.random.default_rng(7)
    confirmed = 0
    for _ in range(40):
        code = LinearCode(f, rng.integers(0, 2, size=(3, 4)).tolist())
        words = code.codeword_matrix()
        best, _ = top_agreement_scan(words, 2, 2)
        for eps in (Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)):
            if best < 4 * 2 * (eps + Fraction(1, 2)):
                cert = is_list_decodable(code, ListDecQuery(Fraction(1, 2) - eps, 1))
                assert cert.verdict == DECODABLE, (code.generator, eps)
                confirmed += 1
    assert confirmed >= 20


def test_budget_and_mode_errors():
    big = LinearCode(field_new(2), [[1 if i == j else 0 for j in range(15)] for i in range(15)])
    with pytest.raises(InfeasibleError):
        is_list_decodable(big, ListDecQuery(Fraction(1, 3), 2))
    with pytest.raises(InfeasibleError):
        decoding_radius_profile(big, 2)
    with pytest.raises(InfeasibleError):
        is_avg_radius_list_decodable(
            RS5,
            ListDecQuery(Fraction(1, 3), 2, AVERAGE_RADIUS),
            budgets=Budgets(max_subsets=1, max_received_words=1),
        )
    with pytest.raises(ValueError):
        is_list_decodable(RS5, ListDecQuery(Fraction(1, 3), 2, AVERAGE_RADIUS))
    with pytest.raises(ValueError):
        is_avg_radius_list_decodable(RS5, ListDecQuery(Fraction(1, 3), 2))
    with pytest.raises(ValueError):
        decoding_radius_profile(RS5, 0)


# -- exhaustive scans against a brute-force reference --------------------------


@st.composite
def small_codes(draw):
    """Random small linear codes, rank-deficient ones and n = 1 included."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8]))
    k = draw(st.integers(1, 3))
    n_max = max(n for n in range(1, 7) if n == 1 or q ** (n + k) <= 1 << 15)
    n = draw(st.integers(1, n_max))
    rows = [draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)) for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        rows[-1] = rows[0]  # a repeated row: rank below k
    return LinearCode(field_new(q), rows)


def _reference_agreements(code):
    """Codewords, all q^n received words in lexicographic order, and their
    (q^n, N) agreement matrix."""
    words = code.codeword_matrix()
    received = lex_digits(code.field.q, code.n, np.arange(code.field.q**code.n)).T
    return words, received, agreement_block(received, words)


def _reference_profile(code, max_list_size):
    words, _, agr = _reference_agreements(code)
    n = code.n
    ordered = -np.sort(-agr, axis=1)
    rows = []
    for ell in range(1, max_list_size + 1):
        if ell >= len(words):
            rows.append((ell, Fraction(1), Fraction(1)))
            continue
        crowd = int(ordered[:, ell].max())
        total = int(ordered[:, : ell + 1].sum(axis=1).max())
        rows.append((ell, Fraction(n - 1 - crowd, n), Fraction(n - (-(-total // (ell + 1))), n)))
    return rows


def _reference_check(code, query):
    words, received, agr = _reference_agreements(code)
    t = query.agreement_threshold(code.n)
    bad = np.nonzero((agr >= t).sum(axis=1) > query.list_bound)[0]
    if not bad.size:
        return DECODABLE, None, None
    z = int(bad[0])
    inside = np.nonzero(agr[z] >= t)[0][: query.list_bound + 1]
    return (
        VIOLATED,
        tuple(int(v) for v in received[z]),
        tuple(tuple(int(v) for v in words[i]) for i in inside),
    )


@given(small_codes(), st.integers(1, 5), st.booleans(), st.data())
@settings(max_examples=120, deadline=None)
def test_exhaustive_scans_match_brute_force(code, max_list_size, tiny_parts, data):
    if tiny_parts:  # one codeword per part and one prefix per block
        with (
            mock.patch.object(plurality, "_F64_EXACT", 1 << code.n),
            mock.patch.object(plurality, "_BLOCK_ROWS", 1),
        ):
            assert plurality._part_size(code.n) == 1
            _check_scans(code, max_list_size, data)
    else:
        _check_scans(code, max_list_size, data)


def _check_scans(code, max_list_size, data):
    n = code.n
    rows = decoding_radius_profile(code, max_list_size)
    assert [(r.list_size, r.standard_radius, r.average_radius) for r in rows] == (
        _reference_profile(code, max_list_size)
    )
    for radius in (Fraction(0), Fraction(1), Fraction(data.draw(st.integers(0, n)), n)):
        query = ListDecQuery(radius, data.draw(st.integers(0, 3)))
        cert = is_list_decodable(code, query)
        assert cert.search == EXHAUSTIVE
        assert (cert.verdict, cert.witness_received, cert.witness_codewords) == (
            _reference_check(code, query)
        )
    words, _, agr = _reference_agreements(code)
    top = data.draw(st.integers(1, len(words)))
    sums = -np.sort(-agr, axis=1)[:, :top].sum(axis=1)
    assert top_agreement_scan(words, code.field.q, top) == (int(sums.max()), int(sums.argmax()))


def _check_scans_at_thresholds(code, max_list_size):
    """Checks at agreement thresholds 0, 3 and n with list bounds 0..2 and
    N - 1, the profile and top scans at 1, 3 and N, each against brute force."""
    n = code.n
    verdicts = set()
    for t in (0, 3, n):
        for bound in (0, 1, 2, code.size - 1):
            query = ListDecQuery(Fraction(n - t, n), bound)
            assert query.agreement_threshold(n) == t
            cert = is_list_decodable(code, query)
            expected = _reference_check(code, query)
            assert (cert.verdict, cert.witness_received, cert.witness_codewords) == expected
            verdicts.add(cert.verdict)
    assert verdicts == {DECODABLE, VIOLATED}
    rows = decoding_radius_profile(code, max_list_size)
    assert [(r.list_size, r.standard_radius, r.average_radius) for r in rows] == (
        _reference_profile(code, max_list_size)
    )
    words, _, agr = _reference_agreements(code)
    ordered = -np.sort(-agr, axis=1)
    for top in (1, 3, len(words)):
        sums = ordered[:, :top].sum(axis=1)
        assert top_agreement_scan(words, code.field.q, top) == (int(sums.max()), int(sums.argmax()))


def test_exhaustive_scans_over_several_codeword_parts(monkeypatch):
    # RS over GF(5), n = 5, with the float64 limit lowered to 7 * 2^15: its 25
    # codewords split into parts of 7, 7, 7 and 4, and 40-prefix blocks cut
    # the 125 prefixes into 40, 40, 40 and 5
    monkeypatch.setattr(plurality, "_F64_EXACT", 7 << 15)
    monkeypatch.setattr(plurality, "_BLOCK_ROWS", 40 * 25)
    assert plurality._part_size(5) == 7
    _check_scans_at_thresholds(rs_code(field_new(5), 2, [0, 1, 2, 3, 4]), 4)


@pytest.mark.parametrize("code, part, block_rows", [
    # RS over GF(5), n = 5: 25 codewords in parts of 7, 7, 7, 4; 4 blocks
    (rs_code(field_new(5), 2, [0, 1, 2, 3, 4]), 7 << 15, 40 * 25),
    # a sampled Hadamard code over GF(3), n = 6: 9 codewords in parts of 3,
    # 27 blocks of one prefix each
    (sample_code(hadamard_code(field_new(3), 2), 6, seed=4), 3 << 18, 1),
])
def test_top_sum_maxima_several_ks_match_brute_force(monkeypatch, code, part, block_rows):
    monkeypatch.setattr(plurality, "_F64_EXACT", part)
    monkeypatch.setattr(plurality, "_BLOCK_ROWS", block_rows)
    assert plurality._part_size(code.n) < code.size
    words, _, agr = _reference_agreements(code)
    ordered = -np.sort(-agr, axis=1)
    ks = [3, 1, len(words), 2, 5]
    best, first, tails = plurality._top_sum_maxima(words, code.field.q, ks)
    for k, value, index in zip(ks, best.tolist(), first.tolist()):
        sums = ordered[:, :k].sum(axis=1)
        assert (value, index) == (int(sums.max()), int(sums.argmax()))
    assert tails.tolist() == [int((agr >= a).sum(axis=1).max()) for a in range(1, code.n + 1)]


@st.composite
def rs_codes(draw):
    """Reed-Solomon codes over GF(2)..GF(8) on points drawn with replacement."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8]))
    k = draw(st.integers(1, min(q, 3)))
    n_max = max(n for n in range(1, 7) if n == 1 or q ** (n + k) <= 1 << 15)
    points = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=n_max))
    return rs_code(field_new(q), k, points)


@given(rs_codes(), st.integers(1, 4), st.booleans(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_top_sum_maxima_match_sorted_agreements(code, part, one_prefix, wide, data):
    # `part` codewords per packed part (several parts once the code is
    # larger), one prefix per block or the default block, int32 or int64 sums
    n = code.n
    with (
        mock.patch.object(plurality, "_F64_EXACT", part << (part.bit_length() * n)),
        mock.patch.object(plurality, "_BLOCK_ROWS", 1 if one_prefix else plurality._BLOCK_ROWS),
        mock.patch.object(plurality, "_I32_LIMIT", 0 if wide else plurality._I32_LIMIT),
    ):
        assert plurality._part_size(n) == part
        words, _, agr = _reference_agreements(code)
        _, tails = next(plurality._agreement_tails(words, code.field.q, [1]))
        assert tails.dtype == (np.int64 if wide else np.int32)
        N = len(words)
        # unsorted and repeated, with k = 1 and k > N
        ks = data.draw(st.lists(st.integers(1, N + 2), min_size=1, max_size=5))
        ks += [ks[0], 1, N + 1]
        best, first, best_tail = plurality._top_sum_maxima(words, code.field.q, ks)
    ordered = -np.sort(-agr, axis=1)
    for k, value, index in zip(ks, best.tolist(), first.tolist()):
        sums = ordered[:, :k].sum(axis=1)
        assert (value, index) == (int(sums.max()), int(sums.argmax())), k
    assert best_tail.tolist() == [int((agr >= a).sum(axis=1).max()) for a in range(1, n + 1)]


def test_top_sum_maxima_on_blocks_with_every_level_settled(monkeypatch):
    # GF(2)^2 as a code, two received words per block: every word is a
    # codeword, so each block's tails at levels 1, 2 are exactly (3, 1), and
    # for every k below all levels add k (k = 1), their tails (k = 5) or both
    monkeypatch.setattr(plurality, "_BLOCK_ROWS", 1)
    code = rs_code(field_new(2), 2, [0, 1])
    words = code.codeword_matrix()
    blocks = [tails.tolist() for _, tails in plurality._agreement_tails(words, 2, [1, 2])]
    assert blocks == [[[3, 1], [3, 1]]] * 2
    best, first, best_tail = plurality._top_sum_maxima(words, 2, [5, 5, 1, 3, 2])
    assert best.tolist() == [4, 4, 2, 4, 3] and first.tolist() == [0] * 5
    assert best_tail.tolist() == [3, 1]


def _packed_exact(m, n):
    """The part-size rule: with b = m.bit_length(), a packed histogram of m
    codewords is an exact float64 sum and its read-off fits int64."""
    b = m.bit_length()
    return m * 2 ** (b * n) <= 2**53 and m * 2 ** (b * (n + 1)) < 2**63


def test_part_size_is_the_largest_exact_one():
    for n in range(1, 41):
        m = plurality._part_size(n)
        assert _packed_exact(m, n) and not _packed_exact(m + 1, n), n
        assert all(_packed_exact(k, n) for k in range(1, min(m, 300))), n
    assert [plurality._part_size(n) for n in (1, 5, 6, 7, 12)] == [(1 << 21) - 1, 256, 127, 63, 15]


def test_exhaustive_scans_of_a_code_that_needs_several_parts():
    # a sampled Hadamard code over GF(2), k = 4, n = 12: its 16 codewords are
    # past the part size 15 at n = 12, so they scan as two parts of 8
    code = sample_code(hadamard_code(field_new(2), 4), 12, seed=5)
    assert code.size == 16 and plurality._part_size(code.n) == 15
    _check_scans_at_thresholds(code, 5)


def test_exhaustive_scans_pull_q_to_the_n_received_words(monkeypatch):
    pulled = []
    original = plurality.iter_received_blocks

    def counting(q, n, chunk=1 << 14):
        for start, block in original(q, n, chunk):
            assert start == sum(pulled)
            pulled.append(len(block))
            yield start, block

    monkeypatch.setattr(plurality, "iter_received_blocks", counting)
    code = rs_code(field_new(7), 2, [0, 1, 2, 3, 4])  # d = 4: radius 1/5 balls hold one codeword
    cert = is_list_decodable(code, ListDecQuery(Fraction(1, 5), 1))
    assert cert.verdict == DECODABLE and cert.search == EXHAUSTIVE
    assert sum(pulled) == 7**5
    pulled.clear()
    decoding_radius_profile(code, 3)
    assert sum(pulled) == 7**5
    for profiled, max_list_size in ((code, 50), (LinearCode(field_new(3), [[0, 0, 0]]), 2)):
        # list sizes at and past N = 49, and a one-codeword code whose every
        # row is past N, so it asks for no top-k sum: each still scans q^n words
        pulled.clear()
        rows = decoding_radius_profile(profiled, max_list_size)
        assert sum(pulled) == profiled.field.q ** profiled.n
        assert [(r.list_size, r.standard_radius, r.average_radius) for r in rows] == (
            _reference_profile(profiled, max_list_size)
        )
    pulled.clear()
    assert plurality_mass(code, 5, "exact").route == "scan"  # C(49, 5) > 7^5 * 49
    assert sum(pulled) == 7**5


@pytest.mark.parametrize(
    "query, symbol",
    [
        (ListDecQuery(Fraction(1, 2), 2), 99),
        (ListDecQuery(Fraction(1, 2), 2), -1),
        (ListDecQuery(Fraction(4, 5), 1, AVERAGE_RADIUS), 99),
        (ListDecQuery(Fraction(4, 5), 1, AVERAGE_RADIUS), -1),
    ],
)
def test_out_of_range_witness_symbols_fail_verification(query, symbol):
    check = is_list_decodable if query.mode == STANDARD else is_avg_radius_list_decodable
    cert = check(RS5, query)
    assert cert.verdict == VIOLATED and cert.verify()
    bad = ((symbol, 0, 0, 0), *cert.witness_codewords[1:])
    assert dataclasses.replace(cert, witness_codewords=bad).verify() is False
    assert dataclasses.replace(cert, witness_received=(0, 0, 0, symbol)).verify() is False


def test_violation_past_the_enumeration_budget_verifies_from_witnesses():
    field = field_new(65536)
    points = [0, 1, 2, 3]
    code = rs_code(field, 2, points)
    assert code.size > Budgets().max_codewords
    z = (0, 0, 1, 1)

    def mul(a, b):
        return poly_mod_gf2(poly_mul_gf2(a, b), field.poly)

    def line(i, j):
        # the codeword of the line through (points[i], z[i]) and (points[j], z[j]);
        # in characteristic 2, subtraction is addition is xor
        slope = mul(z[j] ^ z[i], field.inv(points[j] ^ points[i]))
        offset = z[i] ^ mul(slope, points[i])
        return tuple(offset ^ mul(slope, x) for x in points)

    witnesses = (line(0, 1), line(2, 3), line(0, 2))
    assert witnesses[:2] == ((0, 0, 0, 0), (1, 1, 1, 1))
    cert = Certificate(code, ListDecQuery(Fraction(1, 2), 2), VIOLATED, EXHAUSTIVE, z, witnesses)
    with mock.patch.object(LinearCode, "iter_codeword_chunks", side_effect=AssertionError):
        assert cert.verify()
        forged = ((1, 0, 0, 0), *witnesses[1:])
        assert not dataclasses.replace(cert, witness_codewords=forged).verify()


@pytest.mark.parametrize(
    "query",
    [ListDecQuery(Fraction(1, 2), 2), ListDecQuery(Fraction(4, 5), 1, AVERAGE_RADIUS)],
)
def test_forged_decodable_certificate_fails_verification(query):
    # a violated certificate edited to decodable, with its witnesses nulled
    check = is_list_decodable if query.mode == STANDARD else is_avg_radius_list_decodable
    doc = check(RS5, query).as_dict()
    assert doc["verdict"] == VIOLATED
    doc.update(verdict=DECODABLE, witness_received=None, witness_codewords=None)
    forged = certificate_from_json(json.dumps(doc))
    with mock.patch.object(plurality, "_agreement_tails", side_effect=AssertionError):
        assert forged.verify() is False
    # a bounded decodable verdict only claims its sample held no violation:
    # nothing to recompute, so it passes on structure alone
    assert dataclasses.replace(forged, search=BOUNDED).verify()


def test_decodable_certificates_reverify_by_a_plain_scan():
    rng = np.random.default_rng(7)
    checked = {STANDARD: 0, AVERAGE_RADIUS: 0}
    tightened = set()
    for _ in range(40):
        q = int(rng.choice([2, 3, 4, 5]))
        n = int(rng.integers(1, 5))
        code = LinearCode(field_new(q), rng.integers(0, q, size=(2, n)).tolist())
        radius = Fraction(int(rng.integers(0, n + 1)), n)
        for mode, check in ((STANDARD, is_list_decodable),
                            (AVERAGE_RADIUS, is_avg_radius_list_decodable)):
            cert = check(code, ListDecQuery(radius, int(rng.integers(0, 3)), mode))
            assert cert.verify()
            if cert.verdict == DECODABLE:
                checked[mode] += 1
                # the next list bound down is decodable exactly when the oracle says so
                if cert.query.list_bound:
                    tighter = dataclasses.replace(
                        cert.query, list_bound=cert.query.list_bound - 1
                    )
                    truth = check(code, tighter).verdict == DECODABLE
                    assert dataclasses.replace(cert, query=tighter).verify() is truth
                    tightened.add((mode, truth))
    assert min(checked.values()) >= 10 and len(tightened) == 4


def test_decodable_reverification_is_charged_to_the_scan_budget():
    cert = is_list_decodable(RS5, ListDecQuery(0, 1))
    assert cert.verdict == DECODABLE and cert.search == EXHAUSTIVE
    cost = Budgets().scan_cost(RS5)
    assert cert.verify(budgets=Budgets(max_received_words=cost))
    with pytest.raises(InfeasibleError):
        cert.verify(budgets=Budgets(max_received_words=cost - 1))


# -- average-radius verdicts proved from the minimum distance ---------------------


def _mass_verdict(code, query):
    """The average-radius verdict read off the exact plurality mass alone."""
    size = query.list_bound + 1
    if code.size < size:
        return DECODABLE
    mass = plurality_mass(code, size, "exact", budgets=Budgets(max_subsets=1))  # scan route
    return DECODABLE if mass.value <= code.n * (1 - query.radius) else VIOLATED


def test_distance_proof_matches_the_mass_on_random_codes(monkeypatch):
    searched = []
    monkeypatch.setattr(
        "listlab.oracle.plurality_mass",
        lambda *a, **kw: searched.append(1) or plurality_mass(*a, **kw),
    )
    rng = np.random.default_rng(2024)
    proved = compared = rank_deficient = 0
    for _ in range(320):
        q = int(rng.choice([2, 3, 4, 5, 7]))
        k = int(rng.integers(1, 3))
        n_max = max(n for n in range(1, 7) if n == 1 or q ** (n + k) <= 1 << 13)
        rows = rng.integers(0, q, size=(k, int(rng.integers(1, n_max + 1))))
        if k == 2 and rng.random() < 0.25:
            rows[1] = rows[0]  # a repeated row: rank below k
        code = LinearCode(field_new(q), rows.tolist())
        rank_deficient += code.rank() < k
        bound, n = int(rng.integers(0, 4)), code.n
        for radius in {Fraction(0), Fraction(int(rng.integers(0, 2 * n + 1)), 2 * n)}:
            query = ListDecQuery(radius, bound, AVERAGE_RADIUS)
            before = len(searched)
            cert = is_avg_radius_list_decodable(code, query, budgets=Budgets(max_subsets=1))
            assert cert.verdict == _mass_verdict(code, query), (q, rows.tolist(), query)
            assert cert.search == EXHAUSTIVE
            proved += code.size > bound and len(searched) == before
            compared += 1
    assert compared >= 300 and rank_deficient >= 20
    assert proved >= 100 and len(searched) >= 100  # both paths genuinely exercised


@pytest.mark.parametrize("radius, bound", [(Fraction(1, 4), 1), (0, 1), (0, 0)])
def test_distance_proved_query_runs_no_search(monkeypatch, radius, bound):
    # RS5 has d = 3/4: a pair of codewords agrees with any word in at most
    # 4 + 1 = 5 places, and the root bound gives < 6, so radius 1/4 (violating
    # total 7) is decided without a search, as is every radius-0 query
    monkeypatch.setattr(
        "listlab.oracle.plurality_mass", mock.Mock(side_effect=AssertionError("searched"))
    )
    query = ListDecQuery(radius, bound, AVERAGE_RADIUS)
    cert = is_avg_radius_list_decodable(RS5, query)
    assert cert == Certificate(RS5, query, DECODABLE, EXHAUSTIVE)
    assert cert.verify()


def test_distance_proof_charges_the_budgets_of_the_search():
    query = ListDecQuery(0, 2, AVERAGE_RADIUS)  # decided by the proof once charged
    with pytest.raises(InfeasibleError) as exc:
        is_avg_radius_list_decodable(
            RS5, query, budgets=Budgets(max_subsets=1, max_received_words=1)
        )
    assert str(exc.value) == (
        "exact mass needs a scan of 15625 comparisons or 2300 subsets; budgets are 1 and 1"
    )
    with pytest.raises(InfeasibleError) as exc:
        is_avg_radius_list_decodable(RS5, query, budgets=Budgets(max_codewords=24))
    assert str(exc.value) == "row space has 25 codewords, budget 24"
    # either route within budget is enough, as for the search
    cert = is_avg_radius_list_decodable(RS5, query, budgets=Budgets(max_subsets=2300))
    assert cert.verdict == DECODABLE


def test_scan_past_the_histogram_limit_refused_or_rerouted(monkeypatch):
    # a scan that built its tables before checking the length would ask for
    # q^(n/2) = 2^27 suffix words here: refuse those instead
    def small_tables_only(q, width, indices):
        assert np.size(indices) <= 1 << 16, f"lex_digits table of {np.size(indices)} words"
        return lex_digits(q, width, indices)

    monkeypatch.setattr(plurality, "lex_digits", small_tables_only)
    assert plurality._part_size(MAX_SCAN_LENGTH) >= 1
    with pytest.raises(InfeasibleError, match="no exact packed histogram at length 54"):
        plurality._part_size(MAX_SCAN_LENGTH + 1)
    code = sample_code(hadamard_code(field_new(2), 3), MAX_SCAN_LENGTH + 1, seed=1)
    words = code.codeword_matrix()
    with pytest.raises(InfeasibleError, match="at length 54"):
        next(plurality._agreement_tails(words, 2, [1]))
    # q^n * N = 2^57 fits this scan budget, yet the scan is past the limit
    wide = Budgets(max_received_words=1 << 60, max_subsets=1)
    assert wide.mass_route(code, 3, sampled=True) == "sampled"
    with pytest.raises(InfeasibleError, match="comparisons at length 54 > 53 or 56 subsets"):
        wide.mass_route(code, 3)
    assert dataclasses.replace(wide, max_subsets=56).mass_route(code, 3) == "subsets"
    exact = plurality_mass(code, 3, "exact", budgets=dataclasses.replace(wide, max_subsets=56))
    assert exact.route == "subsets" and exact.exact
    # a shorter code keeps the scan route; tests/test_cli.py runs the checks
    short = sample_code(hadamard_code(field_new(2), 3), 12, seed=1)
    assert wide.mass_route(short, 3) == "scan"
