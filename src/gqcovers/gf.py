"""Finite field arithmetic for GF(p^h), p in {2,3,5,7}, p^h <= 81.

Elements are encoded as integers in [0, p^h): the integer's base-p digits
are the coefficients of the residue polynomial, lowest degree first.
Arithmetic goes through precomputed q x q tables, so element operations are
plain table lookups and vectorize over numpy arrays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7)
MAX_ORDER = 81

# Monic irreducible modulus per (p, h), coefficients lowest degree first,
# leading coefficient included.  Conway polynomials.
MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}


@dataclass(frozen=True)
class FiniteFieldSpec:
    """Field descriptor: characteristic, extension degree, modulus coefficients."""

    p: int
    h: int
    modulus: tuple[int, ...]

    def to_json(self):
        return {"p": self.p, "h": self.h}


def _poly_mul_mod(a, b, modulus, p):
    """Multiply two coefficient tuples mod (modulus, p)."""
    h = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by the monic modulus
    for d in range(len(prod) - 1, h - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for k in range(h):
                prod[d - h + k] = (prod[d - h + k] - c * modulus[k]) % p
    return tuple(prod[:h]) + (0,) * (h - len(prod[:h]))


def _poly_is_irreducible(modulus, p):
    """Brute-force irreducibility test for small degrees (h <= 6)."""
    h = len(modulus) - 1
    if h == 1:
        return True
    # no roots
    for r in range(p):
        val = sum(c * pow(r, i, p) for i, c in enumerate(modulus)) % p
        if val == 0:
            return False
    # no monic factor of degree 2..h//2 (trial division)
    for d in range(2, h // 2 + 1):
        for code in range(p**d):
            div = [0] * d + [1]
            x = code
            for i in range(d):
                div[i] = x % p
                x //= p
            if _poly_divides(div, modulus, p):
                return False
    return True


def _poly_divides(div, poly, p):
    rem = list(poly)
    dd = len(div) - 1
    for d in range(len(rem) - 1, dd - 1, -1):
        c = rem[d]
        if c:
            for k in range(dd + 1):
                rem[d - dd + k] = (rem[d - dd + k] - c * div[k]) % p
    return not any(rem)


class GF:
    """GF(p^h) with table-based arithmetic."""

    def __init__(self, p, h=1):
        if p not in SUPPORTED_PRIMES:
            raise ValueError(f"unsupported characteristic {p}")
        q = p**h
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds supported maximum {MAX_ORDER}")
        if h == 1:
            modulus = (0, 1)
        else:
            try:
                modulus = MODULI[(p, h)]
            except KeyError:
                raise ValueError(f"no modulus table entry for GF({p}^{h})") from None
            assert _poly_is_irreducible(modulus, p), (p, h)
        self.p = p
        self.h = h
        self.q = q
        self.spec = FiniteFieldSpec(p, h, modulus)

        decode = [self._decode(a) for a in range(q)]
        add = np.zeros((q, q), dtype=np.int16)
        mul = np.zeros((q, q), dtype=np.int16)
        for a in range(q):
            for b in range(a, q):
                s = self._encode(tuple((x + y) % p for x, y in zip(decode[a], decode[b])))
                add[a, b] = add[b, a] = s
                m = self._encode(_poly_mul_mod(decode[a], decode[b], modulus, p))
                mul[a, b] = mul[b, a] = m
        self.add_table = add
        self.mul_table = mul
        neg = np.zeros(q, dtype=np.int16)
        inv = np.zeros(q, dtype=np.int16)
        for a in range(q):
            neg[a] = self._encode(tuple((-x) % p for x in decode[a]))
            if a:
                row = mul[a]
                inv[a] = int(np.nonzero(row == 1)[0][0])
        self.neg_table = neg
        self.inv_table = inv
        self._squares = frozenset(int(mul[a, a]) for a in range(q))
        self._verify_axioms()

    def _decode(self, a):
        digits = []
        for _ in range(self.h):
            digits.append(a % self.p)
            a //= self.p
        return tuple(digits)

    def _encode(self, digits):
        a = 0
        for d in reversed(digits):
            a = a * self.p + d
        return a

    # -- element operations ------------------------------------------------

    def add(self, a, b):
        return int(self.add_table[a, b])

    def sub(self, a, b):
        return int(self.add_table[a, self.neg_table[b]])

    def mul(self, a, b):
        return int(self.mul_table[a, b])

    def neg(self, a):
        return int(self.neg_table[a])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self.inv_table[a])

    def power(self, a, e):
        if e < 0:
            return self.power(self.inv(a), -e)
        r = 1
        base = a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def frobenius(self, a, e=1):
        """a -> a^(p^e)."""
        return self.power(a, pow(self.p, e % self.h if self.h > 1 else 1))

    def is_square(self, a):
        return a in self._squares

    def nonsquare(self):
        """Smallest non-square element; only defined for odd q."""
        if self.q % 2 == 0:
            raise ValueError("every element of a characteristic-2 field is a square")
        for a in range(1, self.q):
            if a not in self._squares:
                return a
        raise AssertionError("odd field without non-squares")

    def elements(self):
        return range(self.q)

    # -- vector helpers ----------------------------------------------------

    def dot(self, u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = self.add(acc, self.mul(x, y))
        return acc

    def rank(self, rows):
        """Row rank of a matrix (iterable of coordinate tuples) over the field."""
        rows = [list(r) for r in rows if any(r)]
        rank = 0
        ncols = len(rows[0]) if rows else 0
        col = 0
        while rank < len(rows) and col < ncols:
            pivot = None
            for i in range(rank, len(rows)):
                if rows[i][col]:
                    pivot = i
                    break
            if pivot is None:
                col += 1
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            pinv = self.inv(rows[rank][col])
            rows[rank] = [self.mul(pinv, x) for x in rows[rank]]
            for i in range(len(rows)):
                if i != rank and rows[i][col]:
                    c = rows[i][col]
                    rows[i] = [self.sub(x, self.mul(c, y)) for x, y in zip(rows[i], rows[rank])]
            rank += 1
            col += 1
        return rank

    # -- self-check ----------------------------------------------------------

    def _verify_axioms(self):
        """Exhaustive field-axiom check for q <= 16, seeded spot check otherwise."""
        q = self.q
        if q <= 16:
            triples = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
        else:
            rng = random.Random(0)
            triples = [
                (rng.randrange(q), rng.randrange(q), rng.randrange(q)) for _ in range(2000)
            ]
        for a, b, c in triples:
            assert self.add(a, b) == self.add(b, a)
            assert self.mul(a, b) == self.mul(b, a)
            assert self.add(self.add(a, b), c) == self.add(a, self.add(b, c))
            assert self.mul(self.mul(a, b), c) == self.mul(a, self.mul(b, c))
            assert self.mul(a, self.add(b, c)) == self.add(self.mul(a, b), self.mul(a, c))
        for a in range(q):
            assert self.add(a, 0) == a and self.mul(a, 1) == a
            assert self.add(a, self.neg(a)) == 0
            if a:
                assert self.mul(a, self.inv(a)) == 1


_FIELD_CACHE: dict[tuple[int, int], GF] = {}


def field(p, h=1):
    """Cached field constructor (fields are immutable)."""
    key = (p, h)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = GF(p, h)
    return _FIELD_CACHE[key]


def field_of_order(q):
    for p in SUPPORTED_PRIMES:
        h = 0
        n = q
        while n % p == 0:
            n //= p
            h += 1
        if n == 1 and h >= 1:
            return field(p, h)
    raise ValueError(f"{q} is not a supported prime power")
