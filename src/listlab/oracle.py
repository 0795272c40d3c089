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

from .bounds import root_bound_exceeded
from .config import Budgets
from .linear_code import LinearCode, _is_int, code_from_json_dict, lex_digits
from .plurality import (
    _agreement_tails,
    _top_sum_maxima,
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

    def most_agreement(self, n: int) -> int:
        """floor((L+1) * n * (1 - rho)): the largest total agreement of L+1
        codewords with one word at average relative distance >= rho from it."""
        return math.floor((self.list_bound + 1) * n * (1 - self.radius))


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
    """Whether no received word violates the query, by the plain violation loop
    over every block of received words."""
    budgets.check_scan(code, "decodable re-check")
    words = code.codeword_matrix(budgets=budgets)
    if query.mode == AVERAGE_RADIUS and len(words) <= query.list_bound:
        return True
    blocks = iter_received_blocks(code.field.q, code.n, _received_chunk_rows(len(words)))
    return _first_violation((block for _, block in blocks), words, query) is None


def _first_violation(blocks, words: np.ndarray, query: ListDecQuery):
    """(word, its agreements with the rows of `words`) for the first word of the
    blocks that violates the query, or None, from each block's agreement matrix.

    Standard mode: more than `list_bound` rows agree in at least the threshold
    count. Average-radius mode: the top-(L+1) agreement sum exceeds
    `query.most_agreement(n)`, so L+1 rows (`words` must have them) sit at
    average relative distance below rho.
    """
    n, size = words.shape[1], query.list_bound + 1
    t = query.agreement_threshold(n)
    most = query.most_agreement(n)
    for block in blocks:
        agr = agreement_block(block, words)
        if query.mode == STANDARD:
            bad = (agr >= t).sum(axis=1) > query.list_bound
        else:
            bad = np.partition(agr, len(words) - size, axis=1)[:, -size:].sum(axis=1) > most
        hit = np.flatnonzero(bad)
        if hit.size:
            return block[hit[0]], agr[hit[0]]
    return None


def _violated(code, query, words, search: str, z, agr) -> Certificate:
    """Standard-mode violation at word z, witnessed by its first list_bound + 1
    rows of `words` at or above the agreement threshold."""
    inside = np.flatnonzero(agr >= query.agreement_threshold(code.n))[: query.list_bound + 1]
    lam = tuple(tuple(int(v) for v in words[i]) for i in inside)
    return Certificate(code, query, VIOLATED, search, tuple(int(v) for v in z), lam)


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

    if sample_received is None:
        for start, tails in _agreement_tails(words, q, [query.agreement_threshold(n)]):
            bad = np.flatnonzero(tails[:, 0] > query.list_bound)
            if bad.size:  # the plain loop re-finds the first bad word and its agreements
                hit = _first_violation([lex_digits(q, n, start + bad[:1]).T], words, query)
                return _violated(code, query, words, EXHAUSTIVE, *hit)
        return Certificate(code, query, DECODABLE, EXHAUSTIVE)

    if sample_received < 1:
        raise ValueError("sample_received must be >= 1 when given")
    rng = rng_for(seed)
    chunk = _received_chunk_rows(len(words))
    blocks = (
        rng.integers(0, q, size=(min(chunk, sample_received - lo), n), dtype=np.int64)
        for lo in range(0, sample_received, chunk)
    )
    hit = _first_violation(blocks, words, query)
    if hit is not None:
        return _violated(code, query, words, BOUNDED, *hit)
    return Certificate(code, query, DECODABLE, BOUNDED)


# -- average-radius oracle -----------------------------------------------------


def is_avg_radius_list_decodable(
    code: LinearCode,
    query: ListDecQuery,
    *,
    budgets: Budgets = Budgets(),
) -> Certificate:
    """Average-radius verdict: decided from the minimum distance when the
    Johnson bound settles it, else via the largest plurality mass at size L+1.

    Decodable iff every set of L+1 distinct codewords keeps its maximal total
    agreement at or below (L+1) * n * (1 - rho); by the plurality identity the
    inner maximum over received words needs no word-by-word search. Fewer
    than L+1 codewords in the whole code makes the question vacuously
    decodable.

    The budgets are charged first, as the mass would charge them:
    `max_codewords` >= N, then `Budgets.mass_route` (InfeasibleError when
    both routes are over budget). Then the exact Johnson test: L+1 codewords
    at pairwise relative distance >= d have ordered-pair distances summing to
    at least (L+1) * L * d, and `root_bound_exceeded` on that sum and the
    smallest violating total `query.most_agreement(n) + 1` proves that no
    set and no received word reach it. At radius 0 it always holds. That
    verdict covers every set and every word, so it is "exhaustive" like the
    search's, and `verify()` re-derives it by the plain scan. Otherwise the
    searched mass decides: decodable iff (L+1) * mass <= most_agreement(n).
    """
    if query.mode != AVERAGE_RADIUS:
        raise ValueError(f"average-radius oracle got a {query.mode!r} query")
    size = query.list_bound + 1
    if code.size < size:
        return Certificate(code, query, DECODABLE, EXHAUSTIVE)
    budgets.check_codewords(code.size)
    budgets.mass_route(code, size)
    pair_sum = size * (size - 1) * code.min_distance_exact(budgets=budgets) if size > 1 else 0
    most = query.most_agreement(code.n)
    if root_bound_exceeded(code.n, size, pair_sum, most + 1):
        return Certificate(code, query, DECODABLE, EXHAUSTIVE)
    mass = plurality_mass(code, size, mode="exact", budgets=budgets)
    if mass.value * size <= most:
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
    agreement counts off its tail counts at levels 1..n. The row at list
    size ell reads the largest top-(ell+1) sum, so the scan asks for
    k = 2..min(max_list_size + 1, N), and the largest (ell+1)-th agreement,
    the number of levels whose largest tail is at least ell + 1. These
    maxima determine both radii exactly. List sizes at or above the code size decode at
    radius 1 in both modes (no ball and no codeword set can overfill); the
    scan runs even when every row is one of them. A `max_list_size` above
    `budgets.max_codewords` is refused (ValueError) before the scan: no code
    within that budget has more codewords, so no further row could differ
    from radius 1.
    """
    if max_list_size < 1:
        raise ValueError("max_list_size must be >= 1")
    if max_list_size > budgets.max_codewords:
        raise ValueError(
            f"max_list_size {max_list_size} exceeds the codeword budget {budgets.max_codewords}: "
            "every longer list decodes at radius 1"
        )
    q, n = code.field.q, code.n
    budgets.check_scan(code, "profile scan")
    words = code.codeword_matrix(budgets=budgets)
    n_words = len(words)
    ks = range(2, min(max_list_size + 1, n_words) + 1)
    best_topsum, _, best_tail = _top_sum_maxima(words, q, ks)
    rows = []
    for ell in range(1, max_list_size + 1):
        if ell >= n_words:
            rows.append(ProfileRow(ell, Fraction(1), Fraction(1)))
            continue
        crowd = int((best_tail >= ell + 1).sum())  # largest (ell+1)-th agreement over all words
        total = int(best_topsum[ell - 1])  # largest top-(ell+1) agreement sum
        m_standard = n - 1 - crowd
        m_average = n - (-(-total // (ell + 1)))
        rows.append(ProfileRow(ell, Fraction(m_standard, n), Fraction(m_average, n)))
    return tuple(rows)
