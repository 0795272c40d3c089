"""Linear codes as generator matrices over small finite fields.

Constructors for Reed-Solomon codes in the monomial basis, Hadamard codes,
and randomized column sampling/puncturing. Rank, exact minimum distance,
and row-space enumeration are computed on the actual matrix, never assumed
from construction formulas (repeated evaluation points are legal and do
change the answers).
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .config import Budgets
from .errors import InfeasibleError
from .galois import Field, field_new
from .reports import require_keys

# a fixed size cap on hadamard_code, which builds all q^k columns
MAX_HADAMARD_COLUMNS = 1 << 20


class LinearCode:
    """A code given by a k-by-n generator matrix; immutable after construction."""

    def __init__(self, field: Field, generator, provenance: dict | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in generator)
        if not rows or not rows[0]:
            raise ValueError("generator must have at least one row and one column")
        n = len(rows[0])
        for row in rows:
            if len(row) != n:
                raise ValueError("ragged generator matrix")
            field._check(*row)
        self.field = field
        self.generator = rows
        self.k = len(rows)
        self.n = n
        self.provenance = provenance or {"kind": "explicit"}
        self._basis: tuple[tuple[int, ...], ...] | None = None

    # -- structure --------------------------------------------------------

    def basis(self) -> tuple[tuple[int, ...], ...]:
        """Reduced row-echelon basis of the row space (deterministic)."""
        if self._basis is None:
            self._basis = _row_reduce(self.field, self.generator)
        return self._basis

    def rank(self) -> int:
        return len(self.basis())

    def contains(self, word) -> bool:
        """True iff `word` lies in the row space of the generator."""
        w = tuple(int(x) for x in word)
        if len(w) != self.n:
            return False
        self.field._check(*w)
        return len(_row_reduce(self.field, self.basis() + (w,))) == self.rank()

    @property
    def size(self) -> int:
        """Number of distinct codewords, q^rank."""
        return self.field.q ** self.rank()

    # -- encoding ---------------------------------------------------------

    def encode_all(self, messages) -> np.ndarray:
        """(m, n) codewords of m length-k messages, one row per message.

        A symbol that is not an integer in [0, q), or a message of the wrong
        length, is a ValueError.
        """
        msgs = np.asarray(messages)
        if msgs.dtype.kind not in "iu" or msgs.ndim != 2 or msgs.shape[1] != self.k:
            raise ValueError(f"messages must be length-k integer vectors, k = {self.k}")
        symbols, digits = np.unique(msgs, return_inverse=True)
        self.field._check(*symbols.tolist())
        rows = np.array(self.generator, dtype=np.int64)
        tables = _scaled_rows(self.field, rows, symbols.astype(np.int64))
        return _combine(self.field, tables, digits.reshape(msgs.shape).T)

    # -- row-space enumeration ---------------------------------------------

    def codeword_matrix(self, *, budgets: Budgets = Budgets()) -> np.ndarray:
        """All N = q^rank distinct codewords as an (N, n) array.

        Rows are ordered by the coefficient tuple over the reduced basis,
        first coefficient most significant.
        """
        return next(self.iter_codeword_chunks(chunk=self.size, budgets=budgets))

    def iter_codeword_chunks(self, chunk: int = 1 << 14, *, budgets: Budgets = Budgets()):
        """Yield the row space in order as arrays of up to `chunk` rows."""
        budgets.check_codewords(self.size)
        if self.rank() == 0:
            yield np.zeros((1, self.n), dtype=np.int64)
            return
        yield from self._codewords_at([(0, self.size)], chunk)

    def min_distance_exact(self, *, budgets: Budgets = Budgets()) -> Fraction:
        """Exact relative minimum distance over one codeword per scalar class (a*c
        has the weight of c): first nonzero coefficient 1, indices [q^j, 2 q^j) for
        j < rank, (q^rank - 1)/(q - 1) words; the budget is charged at N = q^rank."""
        r, q = self.rank(), self.field.q
        if r == 0:
            raise ValueError("degenerate code: all-zero generator (rank 0)")
        budgets.check_codewords(q**r)
        chunk = max(1, (1 << 14) // self.n)  # <= 128 KiB blocks: under glibc's mmap threshold
        blocks = self._codewords_at([(q**j, 2 * q**j) for j in range(r)], chunk)
        return Fraction(min(int(np.count_nonzero(b, axis=1).min()) for b in blocks), self.n)

    def _codewords_at(self, ranges, chunk: int):
        """Yield in chunks the codewords whose coefficients over the reduced
        basis are the base-q digits of the indices in each [lo, hi) of `ranges`."""
        q = self.field.q
        tables = _scaled_rows(self.field, np.array(self.basis(), dtype=np.int64), np.arange(q))
        for lo, hi in ranges:
            for start in range(lo, hi, chunk):
                idx = np.arange(start, min(start + chunk, hi))
                yield _combine(self.field, tables, lex_digits(q, len(tables), idx))

    # -- serialization ------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "field": {"q": self.field.q, "poly": self.field.poly},
            "k": self.k,
            "n": self.n,
            "generator": [x for row in self.generator for x in row],
            "provenance": self.provenance,
        }

    def __repr__(self) -> str:
        return f"LinearCode(q={self.field.q}, k={self.k}, n={self.n}, {self.provenance.get('kind')})"


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def code_from_json_dict(doc: dict) -> LinearCode:
    """Rebuild a code from its JSON document; a malformed one is a ValueError."""
    require_keys(doc, ("field", "k", "n", "generator"), "code document")
    fdoc = doc["field"]
    if not isinstance(fdoc, dict) or not _is_int(fdoc.get("q")):
        raise ValueError("code field must be an object with an integer q")
    poly = fdoc.get("poly")
    if poly is not None and not _is_int(poly):
        raise ValueError("code field poly must be an integer or null")
    k, n, flat = doc["k"], doc["n"], doc["generator"]
    if not (_is_int(k) and _is_int(n) and k >= 1 and n >= 1):
        raise ValueError("code k and n must be positive integers")
    if not isinstance(flat, list) or not all(_is_int(x) for x in flat):
        raise ValueError("code generator must be a list of integers")
    if len(flat) != k * n:
        raise ValueError("generator length does not match k*n")
    provenance = doc.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise ValueError("code provenance must be an object or null")
    rows = [flat[i * n : (i + 1) * n] for i in range(k)]
    return LinearCode(field_new(fdoc["q"], poly), rows, provenance=provenance)


def code_to_json(code: LinearCode) -> str:
    return json.dumps(code.as_dict(), sort_keys=True)


def code_from_json(text: str) -> LinearCode:
    return code_from_json_dict(json.loads(text))


def lex_digits(q: int, width: int, indices) -> np.ndarray:
    """(width, m) base-q digits of m indices, first row most significant.

    Column i is the indices[i]-th length-`width` word over [0, q) in
    lexicographic order: every index -> word mapping (received words, codeword
    coefficients, Hadamard columns, message sets, subset bitmaps) reads its
    words here. Digits come off by repeated divmod, so no q**width is formed.
    """
    rem = np.asarray(indices, dtype=np.int64).reshape(-1)
    out = np.empty((width, len(rem)), dtype=np.int64)
    for j in range(width - 1, -1, -1):
        rem, out[j] = np.divmod(rem, q)
    return out


def _scaled_rows(field: Field, rows: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """(r, len(symbols), n) table whose entry [i, s] is symbols[s] * rows[i]."""
    return field.scale_array(symbols[None, :, None], rows[:, None, :])


def _combine(field: Field, tables: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """(m, n) sums over i of tables[i][digits[i]]: the linear combinations of
    the tabled rows whose coefficient indices are the columns of digits."""
    acc = tables[0].take(digits[0], axis=0)
    for i in range(1, len(tables)):
        acc = field.add_array(acc, tables[i].take(digits[i], axis=0))
    return acc


def _row_reduce(field: Field, rows) -> tuple[tuple[int, ...], ...]:
    mat = [list(r) for r in rows]
    n = len(mat[0])
    pivot_row = 0
    for col in range(n):
        sel = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = field.inv(mat[pivot_row][col])
        mat[pivot_row] = [field.mul(inv, x) for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [field.sub(x, field.mul(c, p)) for x, p in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(row) for row in mat[:pivot_row])


# -- constructors -----------------------------------------------------------


def rs_code(field: Field, k: int, evals) -> LinearCode:
    """Reed-Solomon code in the monomial basis: G[i][j] = evals[j]^i.

    Messages are coefficient vectors of polynomials of degree < k; the
    codeword of f is its value at each evaluation point. Duplicate points
    are allowed (they model sampling with replacement).
    """
    points = [int(a) for a in evals]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > field.q:
        raise ValueError(f"k = {k} exceeds field size {field.q}")
    if not points:
        raise ValueError("need at least one evaluation point")
    field._check(*points)
    gen = [[field.pow(a, i) for a in points] for i in range(k)]
    return LinearCode(field, gen, provenance={"kind": "rs", "k": k, "evals": points})


def full_rs_code(field: Field, k: int) -> LinearCode:
    """Reed-Solomon code evaluated at every field element in canonical order."""
    return rs_code(field, k, list(range(field.q)))


def hadamard_code(field: Field, k: int) -> LinearCode:
    """Code whose columns enumerate all of F_q^k in canonical order (n = q^k)."""
    q = field.q
    n = q**k
    if n > MAX_HADAMARD_COLUMNS:
        raise InfeasibleError(f"hadamard code needs {n} columns, budget {MAX_HADAMARD_COLUMNS}")
    gen = lex_digits(q, k, np.arange(n)).tolist()
    return LinearCode(field, gen, provenance={"kind": "hadamard", "k": k})


def sample_code(parent: LinearCode, n: int, seed: int) -> LinearCode:
    """Keep n generator columns chosen independently uniformly WITH replacement."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, parent.n, size=n)
    return _keep_columns(parent, idx, "sampled", seed)


def puncture_code(parent: LinearCode, n: int, seed: int) -> LinearCode:
    """Keep n distinct generator columns chosen uniformly WITHOUT replacement."""
    if not 1 <= n <= parent.n:
        raise ValueError(f"n must be in [1, {parent.n}]")
    rng = np.random.default_rng(seed)
    idx = rng.choice(parent.n, size=n, replace=False)
    return _keep_columns(parent, idx, "punctured", seed)


def _keep_columns(parent: LinearCode, idx, kind: str, seed: int) -> LinearCode:
    """The code on the parent's generator columns idx, in that order; its
    provenance records the draw."""
    gen = [[row[j] for j in idx] for row in parent.generator]
    prov = {
        "kind": kind,
        "seed": int(seed),
        "columns": [int(j) for j in idx],
        "parent": parent.provenance,
    }
    return LinearCode(parent.field, gen, provenance=prov)
