"""Exact arithmetic in the prime field F_p and binomial coefficients mod p.

Residues are canonical integers in {0, ..., p-1}.  The modulus must be a
prime strictly greater than 3 and small enough that a product of two
residues fits in a machine double-word (we cap p below 2**31 so that
int64 intermediates never overflow in the numpy kernels).
"""

from __future__ import annotations

from .errors import DimensionError, ParameterError

MAX_PRIME = 2**31 - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """Arithmetic context for F_p, p prime > 3."""

    def __init__(self, p: int):
        if not isinstance(p, int) or p <= 3:
            raise ParameterError(f"modulus must be a prime > 3, got {p!r}")
        if p > MAX_PRIME:
            raise ParameterError(f"modulus {p} exceeds machine-word cap {MAX_PRIME}")
        if not is_prime(p):
            raise ParameterError(f"modulus {p} is not prime")
        self.p = p
        # Pascal triangle for single-digit binomials C(a,b), 0 <= b <= a < p.
        # Kept small: rows are built lazily only up to what Lucas needs.
        self._pascal_rows: list[list[int]] = [[1]]

    def __repr__(self):
        return f"Fp({self.p})"

    def __eq__(self, other):
        return isinstance(other, Fp) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def normalize(self, a: int) -> int:
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in F_p")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return (a * self.inv(b)) % self.p

    def _digit_binom(self, a: int, b: int) -> int:
        # a, b < p; plain integer Pascal value reduced mod p
        if b < 0 or b > a:
            return 0
        while len(self._pascal_rows) <= a:
            prev = self._pascal_rows[-1]
            row = [1] + [(prev[i] + prev[i + 1]) % self.p for i in range(len(prev) - 1)] + [1]
            self._pascal_rows.append(row)
        return self._pascal_rows[a][b]

    def binom(self, n: int, k: int) -> int:
        """C(n, k) mod p by Lucas' theorem; 0 when k > n or k < 0."""
        if k < 0 or k > n:
            return 0
        p = self.p
        out = 1
        while n or k:
            out = out * self._digit_binom(n % p, k % p) % p
            if out == 0:
                return 0
            n //= p
            k //= p
        return out

    def multi_binom(self, alpha, beta) -> int:
        """Product over coordinates of C(alpha_i, beta_i) mod p."""
        if len(alpha) != len(beta):
            raise DimensionError(
                f"multi-index length mismatch: {len(alpha)} vs {len(beta)}"
            )
        out = 1
        for a, b in zip(alpha, beta):
            out = out * self.binom(a, b) % self.p
            if out == 0:
                return 0
        return out


def binom_mod_p(fp: Fp, alpha, beta) -> int:
    """Multi-index binomial C(alpha, beta) = prod_i C(alpha_i, beta_i) mod p."""
    return fp.multi_binom(alpha, beta)


def unit_multi(m: int, i: int):
    """The multi-index with 1 in (1-based) coordinate i and 0 elsewhere."""
    if not 1 <= i <= m:
        raise IndexError(f"coordinate {i} outside 1..{m}")
    return tuple(1 if j == i - 1 else 0 for j in range(m))
