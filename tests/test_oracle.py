"""Oracle tests: frozen verdicts, witness re-verification, profile values.

Frozen expectations for the Reed-Solomon instance (GF(5), k=2, evaluation
points 0,1,2,3) come from an independent plain-Python sweep over all 625
received words: at radius 1/2 the largest ball holds 6 codewords, the
lexicographically first word with more than 2 codewords in its ball is
(0,0,0,1), and that ball is {(0,0,0,0),(0,2,4,1),(2,0,3,1),(3,4,0,1)}.
"""

import itertools
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import listlab.plurality as plurality
from listlab.config import Budgets
from listlab.errors import InfeasibleError
from listlab.galois import field_new
from listlab.linear_code import LinearCode, rs_code
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
    list_at,
)
from listlab.plurality import (
    agreement_block,
    iter_received_blocks,
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


def test_list_at_trivial_radii():
    z = tuple(RS5.encode_all([(2, 3)])[0].tolist())
    assert list_at(RS5, z, 0) == (z,)
    whole = list_at(RS5, (0, 0, 0, 0), 1)
    assert len(whole) == 25 and len(set(whole)) == 25


def test_list_at_matches_distance_loop():
    q = 5
    all_words = {
        tuple(w) for w in RS5.encode_all(list(itertools.product(range(q), repeat=2))).tolist()
    }
    rng = np.random.default_rng(42)
    for _ in range(20):
        z = tuple(int(x) for x in rng.integers(0, q, size=4))
        rho = Fraction(int(rng.integers(0, 5)), 4)
        got = set(list_at(RS5, z, rho))
        want = {
            c for c in all_words if sum(1 for u, v in zip(z, c) if u != v) <= rho * 4
        }
        assert got == want


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
    assert len(list_at(RS5, (0, 0, 1, 1), Fraction(1, 2))) == 6


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
    received = np.concatenate([b for _, b in iter_received_blocks(code.field.q, code.n, 97)])
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
def test_exhaustive_scans_match_brute_force(code, max_list_size, tiny_tables, data):
    if tiny_tables:  # one prefix per block and one codeword per table
        with mock.patch.object(plurality, "_TABLE_CELLS", 1):
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


def test_exhaustive_scans_over_several_codeword_parts(monkeypatch):
    # RS over GF(5), n = 5, with 400-cell tables: the check splits its 25
    # codewords into 7 parts over 5 blocks, the profile and the top scan into
    # 25 parts over 2 blocks, and every block rebuilds its suffix tables
    monkeypatch.setattr(plurality, "_TABLE_CELLS", 400)
    code = rs_code(field_new(5), 2, [0, 1, 2, 3, 4])
    n = code.n
    verdicts = set()
    for t in (0, 3, n):
        for bound in (0, 1, 2):
            query = ListDecQuery(Fraction(n - t, n), bound)
            assert query.agreement_threshold(n) == t
            cert = is_list_decodable(code, query)
            expected = _reference_check(code, query)
            assert (cert.verdict, cert.witness_received, cert.witness_codewords) == expected
            verdicts.add(cert.verdict)
    assert verdicts == {DECODABLE, VIOLATED}
    rows = decoding_radius_profile(code, 4)
    assert [(r.list_size, r.standard_radius, r.average_radius) for r in rows] == (
        _reference_profile(code, 4)
    )
    words, _, agr = _reference_agreements(code)
    ordered = -np.sort(-agr, axis=1)
    for top in (1, 3, len(words)):
        sums = ordered[:, :top].sum(axis=1)
        assert top_agreement_scan(words, 5, top) == (int(sums.max()), int(sums.argmax()))


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
