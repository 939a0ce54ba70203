"""Basis and multiplication of the truncated tensor superalgebra.

The algebra is a divided-power algebra on m even variables x_1..x_m,
with exponent i capped at p**h_i - 1 for a tuple of positive heights h,
tensored with an exterior algebra on n odd variables x_{m+1}..x_{m+n}.

A monomial is a pair (alpha, umask): alpha is the m-tuple of divided
powers, umask a bitmask over the odd variables (bit j <-> x_{m+1+j}).
Products of divided powers pick up multi-index binomial coefficients;
odd variables anticommute, with all signs derived from the ascending
canonical order of the bitmask.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional, Tuple

from .errors import ParameterError
from .ffield import Fp


class Monomial(NamedTuple):
    alpha: Tuple[int, ...]
    umask: int


class GradeInfo(NamedTuple):
    parity: int      # |u| mod 2
    w_degree: int    # |alpha| + |u| - 1  (degree carried as a vector-field coefficient)
    k_degree: int    # |alpha| + |u| + alpha_m - 2  (contact grading)


def _merge_sign(ua: int, ub: int) -> int:
    """Sign of sorting the concatenation of two disjoint ascending masks."""
    inversions = 0
    b = ub
    while b:
        low = b & -b
        j = low.bit_length() - 1
        inversions += (ua >> (j + 1)).bit_count()
        b ^= low
    return -1 if inversions & 1 else 1


class Space:
    """Ambient parameters and monomial arithmetic for one (m, n, heights, p)."""

    def __init__(self, m: int, n: int, heights, p: int):
        if m < 3 or m % 2 == 0:
            raise ParameterError(f"m must be odd and >= 3, got {m}")
        if n < 2 or n % 2 == 1:
            raise ParameterError(f"n must be even and >= 2, got {n}")
        heights = tuple(int(h) for h in heights)
        if len(heights) != m or any(h < 1 for h in heights):
            raise ParameterError(f"heights must be {m} positive integers, got {heights}")
        self.fp = Fp(p)
        self.p = p
        self.m = m
        self.n = n
        self.heights = heights
        self.s = m + n
        self.r = (m - 1) // 2
        self.half_odd = n // 2
        self.pi = tuple(p**h - 1 for h in heights)
        self.dim = 2**n
        for b in self.pi:
            self.dim *= b + 1
        self.unit = Monomial((0,) * m, 0)
        self.i0 = range(1, m + 1)
        self.i1 = range(m + 1, self.s + 1)

    def __repr__(self):
        return f"Space(m={self.m}, n={self.n}, heights={self.heights}, p={self.p})"

    # -- construction helpers ------------------------------------------------

    def variable(self, i: int) -> Monomial:
        """The monomial x_i for i in 1..m+n."""
        if 1 <= i <= self.m:
            return Monomial(tuple(1 if j == i - 1 else 0 for j in range(self.m)), 0)
        if self.m < i <= self.s:
            return Monomial((0,) * self.m, 1 << (i - self.m - 1))
        raise IndexError(f"variable index {i} outside 1..{self.s}")

    def monomial(self, alpha, umask: int = 0) -> Monomial:
        alpha = tuple(alpha)
        if len(alpha) != self.m:
            raise ParameterError(f"alpha must have length {self.m}")
        if any(a < 0 or a > b for a, b in zip(alpha, self.pi)):
            raise ParameterError(f"exponent {alpha} outside bounds {self.pi}")
        if umask < 0 or umask >> self.n:
            raise ParameterError(f"odd mask {umask:#x} outside 0..{(1 << self.n) - 1:#x}")
        return Monomial(alpha, umask)

    def basis(self) -> Iterator[Monomial]:
        """All monomials, lexicographic in (alpha_1..alpha_m, umask)."""
        for alpha in itertools.product(*(range(b + 1) for b in self.pi)):
            for umask in range(1 << self.n):
                yield Monomial(alpha, umask)

    # -- grading -------------------------------------------------------------

    def parity(self, mono: Monomial) -> int:
        return mono.umask.bit_count() & 1

    def k_degree(self, mono: Monomial) -> int:
        return sum(mono.alpha) + mono.umask.bit_count() + mono.alpha[-1] - 2

    def grade(self, mono: Monomial) -> GradeInfo:
        wt = sum(mono.alpha) + mono.umask.bit_count()
        return GradeInfo(mono.umask.bit_count() & 1, wt - 1, wt + mono.alpha[-1] - 2)

    # -- products and derivatives ---------------------------------------------

    def mono_mul(self, a: Monomial, b: Monomial) -> Optional[Tuple[int, Monomial]]:
        """Product of two monomials: (coefficient, monomial), or None if zero."""
        if a.umask & b.umask:
            return None
        alpha = tuple(x + y for x, y in zip(a.alpha, b.alpha))
        for x, bound in zip(alpha, self.pi):
            if x > bound:
                return None
        coeff = self.fp.multi_binom(alpha, a.alpha)
        if coeff == 0:
            return None
        if _merge_sign(a.umask, b.umask) < 0:
            coeff = self.p - coeff
        return coeff, Monomial(alpha, a.umask | b.umask)

    def mono_partial(self, i: int, mono: Monomial) -> Optional[Tuple[int, Monomial]]:
        """d/dx_i of a monomial: (coefficient, monomial), or None if zero."""
        if 1 <= i <= self.m:
            if mono.alpha[i - 1] == 0:
                return None
            alpha = list(mono.alpha)
            alpha[i - 1] -= 1
            return 1, Monomial(tuple(alpha), mono.umask)
        if self.m < i <= self.s:
            bit = 1 << (i - self.m - 1)
            if not mono.umask & bit:
                return None
            below = (mono.umask & (bit - 1)).bit_count()
            coeff = self.p - 1 if below & 1 else 1
            return coeff, Monomial(mono.alpha, mono.umask ^ bit)
        raise IndexError(f"derivative index {i} outside 1..{self.s}")


# -- sparse linear combinations ---------------------------------------------


class Element:
    """Sparse F_p-linear combination of monomials of one ambient Space."""

    __slots__ = ("space", "terms")

    def __init__(self, space: Space, terms=None):
        self.space = space
        self.terms: dict = dict(terms) if terms else {}

    @classmethod
    def from_monomial(cls, space: Space, mono: Monomial, coeff: int = 1):
        coeff %= space.p
        return cls(space, {mono: coeff} if coeff else {})

    @classmethod
    def one(cls, space: Space):
        return cls(space, {space.unit: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Element is not hashable")

    def __repr__(self):
        if not self.terms:
            return "Element(0)"
        bits = [f"{c}*x{mono.alpha}|{mono.umask:b}" for mono, c in sorted(self.terms.items())]
        return "Element(" + " + ".join(bits) + ")"

    def add_term(self, mono: Monomial, coeff: int):
        c = (self.terms.get(mono, 0) + coeff) % self.space.p
        if c:
            self.terms[mono] = c
        else:
            self.terms.pop(mono, None)

    def __add__(self, other):
        out = Element(self.space, self.terms)
        for mono, c in other.terms.items():
            out.add_term(mono, c)
        return out

    def __sub__(self, other):
        out = Element(self.space, self.terms)
        for mono, c in other.terms.items():
            out.add_term(mono, -c)
        return out

    def scaled(self, c: int) -> "Element":
        c %= self.space.p
        if c == 0:
            return Element(self.space)
        return Element(self.space, {m: v * c % self.space.p for m, v in self.terms.items()})

    def __mul__(self, other: "Element") -> "Element":
        out = Element(self.space)
        mul = self.space.mono_mul
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                hit = mul(ma, mb)
                if hit is not None:
                    out.add_term(hit[1], ca * cb * hit[0])
        return out

    def parity(self) -> Optional[int]:
        """Common parity of all terms, or None if mixed or zero."""
        parities = {m.umask.bit_count() & 1 for m in self.terms}
        if len(parities) == 1:
            return parities.pop()
        return None


def elem_mul(a: Element, b: Element) -> Element:
    return a * b


def partial(i: int, f: Element) -> Element:
    """Linear extension of d/dx_i."""
    out = Element(f.space)
    dmono = f.space.mono_partial
    for mono, c in f.terms.items():
        hit = dmono(i, mono)
        if hit is not None:
            out.add_term(hit[1], c * hit[0])
    return out
