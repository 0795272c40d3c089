"""Exhaustive list-decodability oracles with re-verifiable certificates.

Ground truth for everything else in the package: a code is probed either in
the standard sense (no Hamming ball of relative radius rho holds more than L
codewords) or in the average-radius sense (no set of L+1 codewords sits at
average relative distance below rho from any received word). Verdicts come
with witnesses that re-verify by direct recomputation, independently of the
search that found them, and serialize to JSON for offline re-checking.

All radius comparisons are exact: radii are rationals, distances are integer
counts, and every threshold test is an integer or Fraction comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import Budgets
from .linear_code import LinearCode, _is_int, code_from_json_dict
from .plurality import (
    _agreement_tails,
    _TopSums,
    agreement,
    agreement_block,
    iter_received_blocks,
    plurality_mass,
)
from .reports import Record, require_keys
from .seeds import rng_for

STANDARD = "standard"
AVERAGE_RADIUS = "average-radius"

DECODABLE = "decodable"
VIOLATED = "violated"

EXHAUSTIVE = "exhaustive"
BOUNDED = "bounded"


@dataclass(frozen=True)
class ListDecQuery(Record):
    """A decodability question: relative radius, list bound, and mode.

    The list bound may be zero: average-radius questions about single
    codewords and downgraded standard questions both need it.
    """

    radius: Fraction
    list_bound: int
    mode: str = STANDARD

    def __post_init__(self):
        r = Fraction(self.radius)
        if not (0 <= r <= 1):
            raise ValueError(f"radius must lie in [0, 1], got {r}")
        object.__setattr__(self, "radius", r)
        lb = int(self.list_bound)
        if lb != self.list_bound or lb < 0:
            raise ValueError(f"list bound must be an integer >= 0, got {self.list_bound!r}")
        object.__setattr__(self, "list_bound", lb)
        if self.mode not in (STANDARD, AVERAGE_RADIUS):
            raise ValueError(f"mode must be {STANDARD!r} or {AVERAGE_RADIUS!r}, got {self.mode!r}")

    def agreement_threshold(self, n: int) -> int:
        """Smallest agreement count that puts a word inside the radius ball."""
        return n - math.floor(self.radius * n)


def query_from_json_dict(doc: dict) -> ListDecQuery:
    """Rebuild a query: the radius is an integer or a fraction string, the list
    bound an integer; anything else is a ValueError naming the field."""
    require_keys(doc, ("radius", "list_bound", "mode"), "query")
    radius, bound = doc["radius"], doc["list_bound"]
    if not (_is_int(radius) or isinstance(radius, str)):
        raise ValueError(f"query radius must be an integer or a fraction string, got {radius!r}")
    try:
        radius = Fraction(radius)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"query radius {radius!r} is not a fraction") from None
    if not _is_int(bound):
        raise ValueError(f"query list_bound must be an integer, got {bound!r}")
    return ListDecQuery(radius, bound, doc["mode"])


@dataclass(frozen=True)
class Certificate(Record):
    """A decodability verdict plus everything needed to re-check it.

    `search` records how the verdict was reached: "exhaustive" verdicts cover
    the whole space; "bounded" ones only the sampled part, so a bounded
    "decodable" is merely "no violation found".
    """

    code: LinearCode
    query: ListDecQuery
    verdict: str
    search: str
    witness_received: tuple[int, ...] | None = None
    witness_codewords: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        for name, values in (("verdict", (DECODABLE, VIOLATED)), ("search", (EXHAUSTIVE, BOUNDED))):
            if getattr(self, name) not in values:
                raise ValueError(f"{name} must be one of {values}, got {getattr(self, name)!r}")

    def verify(self, *, budgets: Budgets = Budgets()) -> bool:
        """Re-check the verdict without trusting the search that reached it.

        Violations are re-proved from the stored witness alone: in standard
        mode, more than `list_bound` distinct codewords each agreeing with the
        received word in at least the threshold count; in average-radius
        mode, an exact average-distance comparison. Decodable verdicts carry
        no witness. An exhaustive one is re-derived by a plain
        `agreement_block` pass over every received word, charged to `budgets`
        (InfeasibleError over budget). A bounded one claims only that its
        sample held no violation, so for it this checks structure alone.
        """
        if self.verdict == DECODABLE:
            if self.witness_received is not None or self.witness_codewords is not None:
                return False
            return self.search == BOUNDED or _decodable_by_plain_scan(self.code, self.query, budgets)
        code, query = self.code, self.query
        n, q = code.n, code.field.q
        z = self.witness_received
        lam = self.witness_codewords
        if z is None or lam is None or len(set(lam)) != len(lam):
            return False
        for w in (z, *lam):
            if len(w) != n or any(not (0 <= int(x) < q) for x in w):
                return False
        if not all(code.contains(c) for c in lam):
            return False
        if query.mode == STANDARD:
            t = query.agreement_threshold(n)
            return len(lam) > query.list_bound and all(agreement(z, c) >= t for c in lam)
        size = query.list_bound + 1
        if len(lam) != size:
            return False
        total_distance = sum(n - agreement(z, c) for c in lam)
        return Fraction(total_distance) < size * n * query.radius

    def as_dict(self) -> dict:
        return {"schema": 1, "kind": "list-decodability-certificate", **super().as_dict()}


def _decodable_by_plain_scan(code: LinearCode, query: ListDecQuery, budgets: Budgets) -> bool:
    """Whether no received word violates the query, from the (m, N) agreement
    matrices of every block of received words.

    Standard mode: no word has more than `list_bound` codewords at or above
    the agreement threshold. Average-radius mode: no word's top-(L+1)
    agreement sum exceeds (L+1) * n * (1 - rho), so no L+1 codewords sit at
    average relative distance below rho from it; fewer than L+1 codewords
    cannot.
    """
    n, size = code.n, query.list_bound + 1
    budgets.check_scan(code, "decodable re-check")
    words = code.codeword_matrix(budgets=budgets)
    if query.mode == AVERAGE_RADIUS and len(words) < size:
        return True
    t = query.agreement_threshold(n)
    most = math.floor(size * n * (1 - query.radius))
    for _, block in iter_received_blocks(code.field.q, n, _received_chunk_rows(len(words))):
        agr = agreement_block(block, words)
        if query.mode == STANDARD:
            bad = (agr >= t).sum(axis=1) > query.list_bound
        else:
            bad = np.partition(agr, len(words) - size, axis=1)[:, -size:].sum(axis=1) > most
        if bad.any():
            return False
    return True


def certificate_from_json_dict(doc: dict) -> Certificate:
    require_keys(doc, ("code", "query", "verdict", "search"), "certificate")
    wr = doc.get("witness_received")
    wc = doc.get("witness_codewords")
    if wr is not None and not _is_word(wr):
        raise ValueError("certificate witness_received must be a list of integers or null")
    if wc is not None and not (isinstance(wc, list) and all(_is_word(c) for c in wc)):
        raise ValueError("certificate witness_codewords must be a list of integer lists or null")
    return Certificate(
        code=code_from_json_dict(doc["code"]),
        query=query_from_json_dict(doc["query"]),
        verdict=doc["verdict"],
        search=doc["search"],
        witness_received=tuple(wr) if wr is not None else None,
        witness_codewords=tuple(tuple(c) for c in wc) if wc is not None else None,
    )


def _is_word(v) -> bool:
    return isinstance(v, list) and all(_is_int(x) for x in v)


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(cert.as_dict(), sort_keys=True)


def certificate_from_json(text: str) -> Certificate:
    return certificate_from_json_dict(json.loads(text))


# -- standard-mode oracle ------------------------------------------------------


def _received_chunk_rows(n_codewords: int) -> int:
    # cap the (chunk, N) agreement buffer at ~2^23 int32 entries
    return max(1, min(1 << 13, (1 << 23) // max(1, n_codewords)))


def is_list_decodable(
    code: LinearCode,
    query: ListDecQuery,
    *,
    budgets: Budgets = Budgets(),
    sample_received: int | None = None,
    seed: int = 0,
) -> Certificate:
    """Standard-mode verdict by scanning received words.

    With `sample_received=None` the scan is exhaustive over all q^n received
    words (requires q^n * N within `budgets.max_received_words` elementary
    comparisons) and a violation reports the lexicographically first bad
    received word. Otherwise `sample_received` uniform words are tried and
    the certificate is marked "bounded".
    """
    if query.mode != STANDARD:
        raise ValueError(f"standard-mode oracle got a {query.mode!r} query")
    q, n = code.field.q, code.n
    if sample_received is None:
        budgets.check_scan(code, "exhaustive scan")
    words = code.codeword_matrix(budgets=budgets)
    t = query.agreement_threshold(n)
    bound = query.list_bound

    def violation(z: np.ndarray, agr: np.ndarray):
        inside = np.nonzero(agr >= t)[0][: bound + 1]
        return (
            tuple(int(v) for v in z),
            tuple(tuple(int(v) for v in words[i]) for i in inside),
        )

    if sample_received is None:
        for _, block, tails in _agreement_tails(words, q, [t]):
            bad = np.nonzero(tails[:, 0] > bound)[0]
            if bad.size:
                z = block[int(bad[0])]
                hit = violation(z, agreement_block(z[None, :], words)[0])
                return Certificate(code, query, VIOLATED, EXHAUSTIVE, hit[0], hit[1])
        return Certificate(code, query, DECODABLE, EXHAUSTIVE)

    if sample_received < 1:
        raise ValueError("sample_received must be >= 1 when given")
    rng = rng_for(seed)
    remaining = sample_received
    chunk = _received_chunk_rows(len(words))
    while remaining > 0:
        take = min(chunk, remaining)
        block = rng.integers(0, q, size=(take, n), dtype=np.int64)
        agr = agreement_block(block, words)
        bad = np.nonzero((agr >= t).sum(axis=1) > bound)[0]
        if bad.size:
            hit = violation(block[int(bad[0])], agr[int(bad[0])])
            return Certificate(code, query, VIOLATED, BOUNDED, hit[0], hit[1])
        remaining -= take
    return Certificate(code, query, DECODABLE, BOUNDED)


# -- average-radius oracle -----------------------------------------------------


def is_avg_radius_list_decodable(
    code: LinearCode,
    query: ListDecQuery,
    *,
    budgets: Budgets = Budgets(),
) -> Certificate:
    """Average-radius verdict via the largest plurality mass at size L+1.

    Decodable iff every set of L+1 distinct codewords keeps its maximal total
    agreement at or below (L+1) * n * (1 - rho); by the plurality identity the
    inner maximum over received words needs no word-by-word search. Fewer
    than L+1 codewords in the whole code makes the question vacuously
    decodable.
    """
    if query.mode != AVERAGE_RADIUS:
        raise ValueError(f"average-radius oracle got a {query.mode!r} query")
    size = query.list_bound + 1
    if code.size < size:
        return Certificate(code, query, DECODABLE, EXHAUSTIVE)
    mass = plurality_mass(code, size, mode="exact", budgets=budgets)
    threshold = Fraction(code.n) * (1 - query.radius)
    if mass.value <= threshold:
        return Certificate(code, query, DECODABLE, EXHAUSTIVE)
    return Certificate(
        code, query, VIOLATED, EXHAUSTIVE, mass.witness_received, mass.witness_codewords
    )


# -- radius profile -------------------------------------------------------------


@dataclass(frozen=True)
class ProfileRow(Record):
    """Largest decodable radius at one list size, both modes."""

    list_size: int
    standard_radius: Fraction
    average_radius: Fraction


def decoding_radius_profile(
    code: LinearCode,
    max_list_size: int,
    *,
    budgets: Budgets = Budgets(),
) -> tuple[ProfileRow, ...]:
    """For each list size up to `max_list_size`, the largest decodable m/n.

    One exhaustive pass over received words reads, per word, the top
    agreement counts off its tail counts at levels 1..n; the per-list-size
    maxima determine both radii exactly. List sizes at or above the code
    size decode at radius 1 in both modes (no ball and no codeword set can
    overfill).
    """
    if max_list_size < 1:
        raise ValueError("max_list_size must be >= 1")
    q, n = code.field.q, code.n
    budgets.check_scan(code, "profile scan")
    words = code.codeword_matrix(budgets=budgets)
    n_words = len(words)
    top = min(max_list_size + 1, n_words)
    ks = np.arange(1, top + 1)
    best_tail = np.zeros(n, dtype=np.int64)
    best_topsum = np.zeros(top, dtype=np.int64)
    top_sums = _TopSums(ks)
    for _, _, tails in _agreement_tails(words, q, range(1, n + 1)):
        best_tail = np.maximum(best_tail, tails.max(axis=0))
        best_topsum = np.maximum(best_topsum, top_sums(tails).max(axis=1))
    # the largest k-th agreement over all words is #{a >= 1 : max tail_a >= k}
    best_kth = (best_tail[:, None] >= ks).sum(axis=0)
    rows = []
    for ell in range(1, max_list_size + 1):
        if ell >= n_words:
            rows.append(ProfileRow(ell, Fraction(1), Fraction(1)))
            continue
        crowd = int(best_kth[ell])  # largest (ell+1)-th agreement over all words
        total = int(best_topsum[ell])  # largest top-(ell+1) agreement sum
        m_standard = n - 1 - crowd
        m_average = n - (-(-total // (ell + 1)))
        rows.append(ProfileRow(ell, Fraction(m_standard, n), Fraction(m_average, n)))
    return tuple(rows)
