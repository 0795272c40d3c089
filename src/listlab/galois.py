"""Exact arithmetic over small finite fields GF(q), q <= 2^16.

Prime fields use modular arithmetic; binary extension fields GF(2^m) use
log/antilog tables built over an irreducible polynomial. Elements are plain
integers in [0, q); for extension fields the integer is the coefficient
bitmask of the residue polynomial. The canonical integer encoding gives a
total order used for deterministic tie-breaking elsewhere in the package.
"""

from __future__ import annotations

import numpy as np

# Irreducible (in fact primitive) polynomials over GF(2), one per degree.
# Bitmask includes the leading x^m term, e.g. 19 = 0b10011 = x^4 + x + 1.
DEFAULT_POLY = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def poly_mul_gf2(a: int, b: int) -> int:
    """Carry-less product of two GF(2) coefficient bitmasks."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly_mod_gf2(a: int, mod: int) -> int:
    """Remainder of bitmask polynomial division over GF(2)."""
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def _mul_const_gf2(a: np.ndarray, c: int, high: np.ndarray, m: int, out: np.ndarray) -> None:
    """out = a * c elementwise, for residues a (array) and c of degree < m;
    high[h] is the residue of h * x^m, which folds the product's top bits back.
    Works in place, so at most two temporaries the size of a are alive."""
    out[...] = 0
    for b in range(c.bit_length()):
        if c >> b & 1:
            out ^= a << b
    top = out >> m
    out &= (1 << m) - 1
    out ^= high[top]


def is_irreducible_gf2(poly: int) -> bool:
    """Brute-force irreducibility test: trial division by every lower-degree factor."""
    m = poly.bit_length() - 1
    if m < 1:
        return False
    for f in range(2, 1 << (m // 2 + 1)):
        if f.bit_length() - 1 < 1:
            continue
        if poly_mod_gf2(poly, f) == 0:
            return False
    return True


class Field:
    """A finite field of order q, either prime or a power of 2.

    Immutable after construction; all tables are built eagerly so the
    arithmetic methods are safe in hot loops and across threads.
    """

    def __init__(self, q: int, poly: int | None = None):
        check_field_order(q)
        if is_prime(q):
            if poly is not None:
                raise ValueError("prime fields take no modulus polynomial")
            self.q = q
            self.kind = "prime"
            self.poly = None
            self.characteristic = q
            self.degree = 1
        elif q & (q - 1) == 0:
            m = q.bit_length() - 1
            if poly is None:
                poly = DEFAULT_POLY[m]
            if poly < 1:
                raise ValueError(f"modulus polynomial bitmask must be positive, got {poly}")
            if poly.bit_length() - 1 != m:
                raise ValueError(f"modulus polynomial degree {poly.bit_length() - 1} != {m}")
            if not is_irreducible_gf2(poly):
                raise ValueError(f"polynomial bitmask {poly} is reducible over GF(2)")
            self.q = q
            self.kind = "binary-extension"
            self.poly = poly
            self.characteristic = 2
            self.degree = m
            self._build_tables()
        else:
            raise ValueError(f"{q} is neither prime nor a power of 2")

    def _build_tables(self) -> None:
        q, poly, m = self.q, self.poly, self.degree
        mul = lambda a, b: poly_mod_gf2(poly_mul_gf2(a, b), poly)
        # The powers of each candidate g fill exp by doubling: with g^0..g^(s-1)
        # in place, exp[s:2s] = exp[:s] * g^s is one vectorized multiply by a
        # constant. g is dropped if 1 recurs among g^1..g^(q-2). 2 = "x"
        # generates under the primitive default polynomials; the search serves
        # other moduli. high[h] = h * x^m mod poly is linear in h, so it too
        # fills by doubling, one bit of h at a time. log[0] is the index of
        # exp's one trailing 0, past every sum of two logs of nonzero elements,
        # so a product with a zero factor reads that 0 (clipped, for two zeros).
        high = np.zeros(1, dtype=np.int64)
        for b in range(m - 1):
            high = np.concatenate((high, high ^ poly_mod_gf2(1 << (m + b), poly)))
        zero_log = 2 * (q - 1)
        exp_np = np.zeros(zero_log + 1, dtype=np.int64)
        exp = exp_np[: q - 1]
        exp[0] = 1
        for g in range(2, q):
            s, c = 1, g
            while s < q - 1:
                t = min(s, q - 1 - s)
                _mul_const_gf2(exp[:t], c, high, m, exp[s : s + t])
                s, c = s + t, mul(c, c)
            if not (exp[1:] == 1).any():
                break
        else:  # pragma: no cover - every GF(2^m) has a generator
            raise ValueError("no multiplicative generator found")
        exp_np[q - 1 : zero_log] = exp
        log = np.full(q, zero_log, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._exp_np = exp_np
        self._log_np = log

    # -- arithmetic -------------------------------------------------------

    def _check(self, *els: int) -> None:
        for a in els:
            if not 0 <= a < self.q:
                raise ValueError(f"{a} is not an element of GF({self.q})")

    def inv(self, a: int) -> int:
        """The one scalar operation: the inverse of a nonzero element, as an int."""
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.kind == "prime":
            return pow(a, self.q - 2, self.q)
        return self._exp_np.item(self.q - 1 - self._log_np.item(a))

    # The array operations take elements (ints or integer arrays, broadcasting
    # together) without range checks: they serve trusted internal paths.

    def add_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.kind == "prime":
            return (x + y) % self.q
        return np.bitwise_xor(x, y)

    def sub_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.kind == "prime":
            return (x - y) % self.q
        return np.bitwise_xor(x, y)

    def scale_array(self, s, x: np.ndarray) -> np.ndarray:
        """s * x elementwise; s is one element or an array broadcasting with x."""
        if self.kind == "prime":
            return (s * x) % self.q
        return self._exp_np.take(self._log_np[s] + self._log_np[x], mode="clip")

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and (self.q, self.poly) == (other.q, other.poly)

    def __hash__(self) -> int:
        return hash((self.q, self.poly))

    def __repr__(self) -> str:
        if self.kind == "prime":
            return f"GF({self.q})"
        return f"GF({self.q}, poly={bin(self.poly)})"


def check_field_order(q: int) -> None:
    """ValueError unless q lies in the supported range [2, 2^16]."""
    if q < 2 or q > 1 << 16:
        raise ValueError(f"field order {q} out of supported range [2, 2^16]")


def field_new(q: int, poly: int | None = None) -> Field:
    """Construct GF(q). q must be prime or a power of 2 up to 2^16."""
    return Field(q, poly)
