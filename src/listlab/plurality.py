"""Agreement counts and per-coordinate plurality calculus over codeword sets.

For a set of codewords, the plurality at coordinate j is the largest
fraction sharing one symbol there. The coordinate-wise plurality word
maximizes the total agreement with the set over all received words, which
turns several otherwise-exponential maxima into per-coordinate counts.
Counts stay exact integers; fractions are rationals; floats appear only in
report payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, eq

import numpy as np

from .config import MAX_SCAN_LENGTH, Budgets
from .errors import InfeasibleError
from .galois import Field
from .linear_code import MAX_HADAMARD_COLUMNS, LinearCode, lex_digits, rs_code
from .reports import Record
from .seeds import child_seeds, rng_for, streams


def agreement(x, y) -> int:
    """Number of coordinates where two equal-length words agree."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(a == b for a, b in zip(x, y))


@dataclass(frozen=True)
class MessageSet:
    """An ordered, duplicate-free set of messages."""

    messages: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        msgs = tuple(tuple(int(v) for v in m) for m in self.messages)
        object.__setattr__(self, "messages", msgs)
        if not msgs:
            raise ValueError("message set must be non-empty")
        if len(set(msgs)) != len(msgs):
            raise ValueError("duplicate messages")
        if len({len(m) for m in msgs}) != 1:
            raise ValueError("messages of mixed length")

    @classmethod
    def from_indices(cls, q: int, k: int, indices) -> MessageSet:
        """The length-k messages over [0, q) at these lexicographic indices, in order."""
        return cls(lex_digits(q, k, indices).T.tolist())

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages)


@dataclass(frozen=True)
class PluralityProfile:
    """Per-coordinate plurality data for a fixed codeword set of size L.

    counts[j] is the plurality count at coordinate j; maximizers[j] is the
    smallest symbol attaining it.
    """

    size: int
    counts: tuple[int, ...]
    maximizers: tuple[int, ...]

    @property
    def pl(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.size) for c in self.counts)


def plurality_profile(code: LinearCode, lam: MessageSet) -> PluralityProfile:
    """Plurality profile of the codewords of a message set."""
    counts, maximizers = plurality_counts_array(code.encode_all(lam.messages), code.field.q)
    return PluralityProfile(len(lam), tuple(counts.tolist()), tuple(maximizers.tolist()))


def plurality_counts_array(words: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(plurality counts, smallest maximizing symbol) per coordinate of the (L, n) words."""
    symbol_counts = _symbol_counts(words, q)
    return symbol_counts.max(axis=1), symbol_counts.argmax(axis=1)


def _symbol_counts(words: np.ndarray, q: int) -> np.ndarray:
    """(n, q) count of each symbol at each coordinate of the (L, n) words: one
    bincount over words[i, j] + q*j, in O(L*n + q*n) memory."""
    n = words.shape[1]
    return np.bincount((words + q * np.arange(n)).ravel(), minlength=q * n).reshape(n, q)


# side-by-side batches of codeword sets keep their temporaries (words, keys and
# symbol counts) under about _BATCH_CELLS entries
_BATCH_CELLS = 1 << 16


def _batch_size(q: int, n: int, L: int) -> int:
    """Sets of L length-n words over [0, q) per side-by-side counter call."""
    return max(1, _BATCH_CELLS // (n * (q + L)))


def _counts_side_by_side(sets: np.ndarray, q: int) -> np.ndarray:
    """(m, n) plurality counts of m codeword sets given as an (m, L, n) array.

    The sets are laid side by side as one (L, m*n) word array, so one
    bincount counts them all: column block i holds set i.
    """
    m, L, n = sets.shape
    return _symbol_counts(sets.transpose(1, 0, 2).reshape(L, m * n), q).max(axis=1).reshape(m, n)


def max_agreement_sum(code: LinearCode, lam: MessageSet) -> tuple[int, tuple[int, ...]]:
    """Maximum over received words z of the summed agreement with the set.

    The maximum is attained by the coordinate-wise plurality word, so the
    value equals the sum of plurality counts (size L times the plurality
    mass). Returns (value, witness z).
    """
    prof = plurality_profile(code, lam)
    return sum(prof.counts), prof.maximizers


# -- received-word enumeration helpers (shared with the oracle) --------------


def iter_received_blocks(q: int, n: int, chunk: int = 1 << 14):
    """Yield (start_index, block) over all q^n received words in lexicographic
    order, first coordinate most significant, as column-major views of one
    buffer per call: each block is valid until the next one is drawn."""
    total = q**n
    # with chunk a multiple of q^r, blocks are whole runs of the last r
    # coordinates: those columns repeat one table, written once, the others
    # are constant along a run
    r = 0
    while r < n and chunk % q ** (r + 1) == 0:
        r += 1
    run = q**r
    # coordinate-major, so the two kinds of column take one broadcast each
    buf = np.empty((n, min(chunk, total) // run, run), dtype=np.int64)
    buf[n - r :] = lex_digits(q, r, np.arange(run))[:, None, :]
    for start in range(0, total, chunk):
        runs = np.arange(start // run, min(start + chunk, total) // run)
        buf[: n - r, : len(runs)] = lex_digits(q, n - r, runs)[:, :, None]
        yield start, buf[:, : len(runs)].reshape(n, -1).T


def agreement_block(received: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(m, N) agreement counts between m received words and N codewords."""
    acc = np.zeros((received.shape[0], words.shape[0]), dtype=np.int32)
    for j in range(received.shape[1]):
        acc += received[:, j : j + 1] == words[None, :, j]
    return acc


# float64 holds every integer up to 2^53 exactly, int64 every one below 2^63
# and int32 every one below 2^31; a tail block spans about _BLOCK_ROWS received
# words, and its prefix power table about _BLOCK_ROWS cells
_F64_EXACT = 1 << MAX_SCAN_LENGTH
_I64_LIMIT = 1 << 63
_I32_LIMIT = 1 << 31
_BLOCK_ROWS = 1 << 13


def _part_size(n: int) -> int:
    """Largest number m of codewords whose packed length-n histograms stay exact.

    With b = m.bit_length(), so 2^b > m, a histogram of m codewords in base
    2^b is a sum of m powers 2^(b*a), a <= n. It is an exact float64 integer
    when m * 2^(b*n) <= 2^53, and its read-off intermediate 2^b * H stays an
    int64 when m * 2^(b*(n+1)) < 2^63. Both bounds grow with m, so every
    smaller m meets them too. Past MAX_SCAN_LENGTH even m = 1 is not exact.
    """
    if n > MAX_SCAN_LENGTH:
        raise InfeasibleError(f"no exact packed histogram at length {n}")
    best = 0
    for b in range(1, 64):
        cap = min((1 << b) - 1, _F64_EXACT >> (b * n), (_I64_LIMIT - 1) >> (b * (n + 1)))
        if cap < 1 << (b - 1):
            break
        best = cap
    return best


def _agreement_tails(words: np.ndarray, q: int, levels):
    """Yield (start, tails) over all q^n received words in lexicographic order;
    tails[i, j] counts the rows of `words` agreeing with received word
    start + i in at least levels[j] coordinates.

    A word (p, s) agrees with codeword c in A_pre(p, c) + A_suf(s, c) places,
    prefix p its first ceil(n/2) coordinates and suffix s the rest. So
    H = sum_c 2^(b*A_pre) * 2^(b*A_suf), one float64 product of a (prefix,
    codeword) and a (codeword, suffix) power table, is the word's agreement
    histogram in base 2^b, and G = (2^b*H - m)/(2^b - 1) has the tail counts
    as digits: digit a is the number of the m codewords agreeing in >= a
    places. Each level is one shift and one mask of G. The codewords are cut
    into equal parts of at most _part_size(n), so every sum is exact; each
    part's suffix table is built once per scan and the parts' tails add.

    `tails` is one column-major buffer reused for every block: it is valid
    until the next block is drawn. Its integers are int32 when n * N < 2^31,
    else int64: a tail is at most N and a sum of n tails, as the top-k
    reducer forms, at most n * N.
    """
    n_words, n = words.shape
    n_parts = -(-n_words // _part_size(n))  # first: it refuses a length past the limit
    pre = n - n // 2
    n_suf = q ** (n // 2)
    suffixes = lex_digits(q, n // 2, np.arange(n_suf)).T
    m = -(-n_words // n_parts)
    b = m.bit_length()
    digit = (1 << b) - 1
    # each part's (codeword, suffix) table carries one more factor 2^b, so
    # its product with the (prefix, codeword) table is 2^b * H
    parts = [(lo, np.ldexp(1.0, b * (agreement_block(words[lo : lo + m, pre:], suffixes) + 1)))
             for lo in range(0, n_words, m)]
    shifts = b * np.asarray(levels, dtype=np.int64)
    n_pre = min(q**pre, max(1, _BLOCK_ROWS // max(n_suf, n_words)))
    hist = np.empty((n_pre, n_suf))
    packed = np.empty(n_pre * n_suf, dtype=np.int64)
    width = np.int32 if n * n_words < _I32_LIMIT else np.int64
    tails_buf = np.empty((n_pre * n_suf, len(shifts)), dtype=width, order="F")
    digits_buf = np.empty_like(tails_buf) if n_parts > 1 else None
    for start, block in iter_received_blocks(q, n, n_pre * n_suf):
        prefixes = block[::n_suf, :pre]
        rows = len(block)
        h, g, tails = hist[: len(prefixes)], packed[:rows], tails_buf[:rows]
        left = np.ldexp(1.0, b * agreement_block(prefixes, words[:, :pre]))
        for lo, right in parts:
            np.matmul(left[:, lo : lo + len(right)], right, out=h)
            np.copyto(g, h.reshape(-1), casting="unsafe")
            g -= len(right)
            g //= digit  # G, exactly: 2^b * H - m is a multiple of 2^b - 1
            out = tails if lo == 0 else digits_buf[:rows]
            # an int32 `out` keeps the low 32 bits of each shifted G, and the
            # mask below keeps only the low b of those: digit < 2^21 fits
            np.right_shift(g[:, None], shifts, out=out)
            out &= digit
            if lo:
                tails += out
        yield start, tails


def _top_sum_maxima(words: np.ndarray, q: int, ks):
    """Per k in ks, the largest top-k agreement sum over all q^n received words
    and the first word (lexicographic index) attaining it; per level a = 1..n,
    the largest number of rows agreeing with one word in >= a coordinates.

    With tail_a that number for one word, its k-th largest agreement is
    #{a >= 1 : tail_a >= k} and its top-k sum is the sum over a of
    min(tail_a, k). Tails fall as the level rises, so per block and k the
    levels split at two cuts: below a_lo every tail of the block is >= k and
    the level adds exactly k, from a_hi on every tail is <= k and the level
    adds its tail. Only the levels in between take a minimum; the constant
    k * a_lo leaves each block's first maximum where it was. The sums keep
    the tails' integer width, and their buffers are allocated by the first
    block, the largest, and reused by the next ones.
    """
    n = words.shape[1]
    ks = np.asarray(ks, dtype=np.int64)
    best_sum = np.full(len(ks), -1, dtype=np.int64)
    best_idx = np.zeros(len(ks), dtype=np.int64)
    best_tail = np.zeros(n, dtype=np.int64)
    sums = scratch = None
    for start, tails in _agreement_tails(words, q, range(1, n + 1)):
        if sums is None:
            sums, scratch = np.empty((2, len(tails)), dtype=tails.dtype)
        s, t = sums[: len(tails)], scratch[: len(tails)]
        most, least = tails.max(axis=0), tails.min(axis=0)
        np.maximum(best_tail, most, out=best_tail)
        cuts_lo = (least >= ks[:, None]).sum(axis=1)
        cuts_hi = np.maximum((most > ks[:, None]).sum(axis=1), cuts_lo)
        for i, (k, a_lo, a_hi) in enumerate(zip(ks.tolist(), cuts_lo.tolist(), cuts_hi.tolist())):
            np.add.reduce(tails[:, a_hi:], axis=1, dtype=s.dtype, out=s)
            for a in range(a_lo, a_hi):
                s += np.minimum(tails[:, a], k, out=t)
            pos = int(s.argmax())  # the block's first maximum
            top = k * a_lo + int(s[pos])
            if top > best_sum[i]:
                best_sum[i], best_idx[i] = top, start + pos
    return best_sum, best_idx, best_tail


# -- plurality mass (max over codeword sets) ---------------------------------


@dataclass(frozen=True)
class MassResult(Record):
    """Result of a plurality-mass computation at list size L."""

    list_size: int
    value: Fraction
    exact: bool
    lower_bound: bool
    mode: str
    route: str | None
    witness_codewords: tuple[tuple[int, ...], ...]
    witness_received: tuple[int, ...] | None

    def as_dict(self) -> dict:
        return {**super().as_dict(), "value_float": float(self.value)}


def top_agreement_scan(words: np.ndarray, q: int, top: int):
    """Exact max over all received words of the top-`top` agreement sum.

    Returns (best_sum, best_z_index); the received-word index is the first
    attaining the maximum in lexicographic order. The top-`top` sum of each
    word is read off its tail counts at levels 1..n.
    """
    best, best_idx, _ = _top_sum_maxima(words, q, [top])
    return int(best[0]), int(best_idx[0])


def _scan_witness(words: np.ndarray, q: int, top: int, z_index: int) -> np.ndarray:
    """Sorted rows of the `top` codewords agreeing most with received word
    z_index, ties to the lower row.

    When z_index is the lexicographically first maximizer, their
    smallest-symbol plurality word is z_index itself: that word maximizes
    too, and it is coordinatewise no larger than z_index, which agrees with
    a plurality symbol at every coordinate.
    """
    z = lex_digits(q, words.shape[1], z_index).T
    agr = agreement_block(z, words)[0]
    return np.sort(np.argsort(-agr, kind="stable")[:top])


def _mass_by_subsets(words: np.ndarray, q: int, L: int) -> list[int]:
    """Rows of the first L-set, in DFS order, with the largest plurality-count sum.

    counts[s + q*j] tallies symbol s at coordinate j over the chosen rows and
    top[j] is their plurality count there. Adding a row raises top[j] by one
    exactly where its count equals top[j], so each node passes down a running
    total, and a last-level row scores that total plus its number of ties.
    """
    n_words, n = words.shape
    keys = (words + q * np.arange(n)).tolist()
    counts = [0] * (q * n)
    count_of = counts.__getitem__
    best = [-1, None]

    def visit(chosen: list[int], start: int, top: list[int], total: int) -> None:
        if len(chosen) == L - 1:
            for i in range(start, n_words):
                score = total + sum(map(eq, map(count_of, keys[i]), top))
                if score > best[0]:
                    best[:] = score, (*chosen, i)
            return
        for i in range(start, n_words - (L - len(chosen)) + 1):
            ties = list(map(eq, map(count_of, keys[i]), top))
            for key in keys[i]:
                counts[key] += 1
            chosen.append(i)
            visit(chosen, i + 1, list(map(add, top, ties)), total + ties.count(True))
            chosen.pop()
            for key in keys[i]:
                counts[key] -= 1

    visit([], 0, [0] * n, 0)
    return list(best[1])


def _greedy_rows(words: np.ndarray, q: int, L: int) -> np.ndarray:
    """Sorted rows of a greedy L-set: start from row 0, then add the first row
    whose addition gives the largest plurality-count sum."""
    n_words, n = words.shape
    cols = np.arange(n)
    counts = np.zeros((n, q), dtype=np.int64)
    counts[cols, words[0]] = 1
    taken = np.zeros(n_words, dtype=bool)
    taken[0] = True
    for _ in range(L - 1):
        gains = np.maximum(counts.max(axis=1), counts[cols, words] + 1).sum(axis=1)
        gains[taken] = -1
        best = int(gains.argmax())
        taken[best] = True
        counts[cols, words[best]] += 1
    return np.nonzero(taken)[0]


def _distinct_draws(rng: np.random.Generator, N: int, L: int, T: int) -> np.ndarray:
    """(T, L) rows equal to T successive np.sort(rng.choice(N, L, replace=False)),
    rng left in the same state: one integers call makes choice's Floyd draws,
    from [0, j] for j = N - L .. N - 1 and then (for its shuffle) from [0, i]
    for i = L - 1 .. 1, and Floyd's rule, a taken draw becomes j, runs per column."""
    if L > 64 or (N > 10_000 and L > N // 50):  # long sets, or numpy's tail shuffle
        return np.sort([rng.choice(N, size=L, replace=False) for _ in range(T)])
    draws = rng.integers(0, np.r_[N - L + 1 : N + 1, L:1:-1], size=(T, 2 * L - 1))[:, :L]
    for c in range(1, L):
        taken = (draws[:, :c] == draws[:, c, None]).any(axis=1)
        draws[taken, c] = N - L + c
    return np.sort(draws)


def _mass_result(words, rows, q, exact, mode, route) -> MassResult:
    """MassResult of the codeword set words[rows], with its plurality word as
    the witness received word."""
    counts, z = plurality_counts_array(words[rows], q)
    witness = tuple(tuple(w) for w in words[rows].tolist())
    L = len(witness)
    return MassResult(
        L, Fraction(int(counts.sum()), L), exact, not exact, mode, route, witness, tuple(z.tolist())
    )


def plurality_mass(
    code: LinearCode,
    L: int,
    mode: str = "exact",
    *,
    trials: int = 200,
    seed: int = 0,
    budgets: Budgets = Budgets(),
) -> MassResult:
    """Largest plurality mass over sets of L distinct codewords.

    exact mode is a true maximum (via either a received-word scan using the
    plurality identity, or subset enumeration, whichever is feasible);
    greedy and sampled modes return flagged lower bounds.
    """
    if L < 1:
        raise ValueError("list size must be >= 1")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    words = code.codeword_matrix(budgets=budgets)
    n_words = words.shape[0]
    if L > n_words:
        raise ValueError(f"list size {L} exceeds code size {n_words}")
    q = code.field.q

    if mode == "exact":
        if budgets.mass_route(code, L) == "scan":
            rows = _scan_witness(words, q, L, top_agreement_scan(words, q, L)[1])
            return _mass_result(words, rows, q, True, mode, "scan")
        return _mass_result(words, _mass_by_subsets(words, q, L), q, True, mode, "subsets")

    if mode == "greedy":
        return _mass_result(words, _greedy_rows(words, q, L), q, False, mode, None)

    if mode == "sampled":
        rng = rng_for(seed, 0)
        chunk = _batch_size(q, words.shape[1], L)
        best_val, best_rows = -1, None
        for lo in range(0, trials, chunk):
            draws = _distinct_draws(rng, n_words, L, min(chunk, trials - lo))
            totals = _counts_side_by_side(words[draws], q).sum(axis=1)
            # argmax is the chunk's first maximum; a later chunk must beat it strictly
            t = int(totals.argmax())
            if totals[t] > best_val:
                best_val, best_rows = int(totals[t]), draws[t]
        return _mass_result(words, best_rows, q, False, mode, None)

    raise ValueError(f"unknown mode {mode!r}")


# -- randomized code families and candidate message sets ---------------------


class CodeFamily:
    """A randomized code construction: i.i.d. uniformly sampled columns of a
    fixed parent (Reed-Solomon on all field elements, or Hadamard), or a
    fixed code for zero-variance baselines."""

    def __init__(self, kind: str, *, field: Field | None = None, k: int | None = None,
                 n: int | None = None, code: LinearCode | None = None):
        if kind == "fixed":
            if code is None:
                raise ValueError("fixed family needs a code")
            field, k, n, self._fixed = code.field, code.k, code.n, code
        elif kind not in ("sampled-rs", "sampled-hadamard"):
            raise ValueError(f"unknown family kind {kind!r}")
        elif field is None or k is None or n is None or n < 1:
            raise ValueError("sampled families need field, k, and n >= 1")
        self.kind, self.field, self.k, self.n = kind, field, k, n
        self.parent_n = {"sampled-rs": field.q, "sampled-hadamard": field.q**k}.get(kind, n)
        if kind == "sampled-hadamard" and self.parent_n > MAX_HADAMARD_COLUMNS:
            raise InfeasibleError(f"hadamard code needs {self.parent_n} columns, "
                                  f"budget {MAX_HADAMARD_COLUMNS}")
        self.code_on([0])  # a bad k raises here, as building the whole parent did

    def code_on(self, cols) -> LinearCode:
        """The code on the parent columns `cols`, in order, built without the rest."""
        if self.kind == "sampled-rs":
            return rs_code(self.field, self.k, cols)
        if self.kind == "sampled-hadamard":
            return LinearCode(self.field, lex_digits(self.field.q, self.k, cols).tolist())
        return LinearCode(self.field, np.array(self._fixed.generator)[:, cols].tolist())

    def columns(self, seed: int, indices):
        """Iterate, one draw at a time, over the n parent columns per index i
        that sample_code(parent, n, child_seed(seed, i)) keeps."""
        if self.kind == "fixed":
            return (np.arange(self.n) for _ in indices)
        rngs = streams((c,) for c in child_seeds((seed, i) for i in indices))
        return (rng.integers(0, self.parent_n, size=self.n) for rng in rngs)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "q": self.field.q, "poly": self.field.poly,
                "k": self.k, "n": self.n}


def _distinct_by_rejection(rng: np.random.Generator, total: int, count: int) -> list[int]:
    picked: set[int] = set()
    while len(picked) < count:
        picked.add(int(rng.integers(0, total)))
    return sorted(picked)


def candidate_message_sets(field: Field, k: int, L: int, count: int, seed: int) -> list[MessageSet]:
    """Uniform random message sets plus structured near-maximizer candidates.

    Structured candidates are "boxes": the lexicographically first L messages
    supported on the leading coordinates (for Reed-Solomon messages these are
    the low-degree polynomials, for Hadamard messages a subgroup), plus a few
    random additive shifts of that box (cosets).
    """
    if count < 1:
        raise ValueError(f"candidates must be >= 1, got {count}")
    q = field.q
    total = q**k
    if total - 1 > 2**63 - 1:
        raise ValueError(
            f"--q {q} and --k {k} give message indices up to q^k - 1, "
            f"past the 2^63 - 1 limit of sampled message sets"
        )
    if L > total:
        raise ValueError(f"L = {L} exceeds message count {total}")
    rng = rng_for(seed, 0xC0DE)
    out: list[MessageSet] = []

    j = 1
    while q**j < L:
        j += 1
    box = np.zeros((L, k), dtype=np.int64)
    box[:, :j] = lex_digits(q, j, np.arange(L)).T
    out.append(MessageSet(box.tolist()))
    for shift in lex_digits(q, k, rng.integers(0, total, size=min(2, count - 1))).T:
        out.append(MessageSet(field.add_array(box, shift).tolist()))

    rows = (_distinct_draws(rng, total, L, count - len(out)) if total <= 1 << 22
            else [_distinct_by_rejection(rng, total, L) for _ in range(count - len(out))])
    return out + [MessageSet.from_indices(q, k, r) for r in rows]
