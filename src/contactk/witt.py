"""Vector fields on the truncated superalgebra and the contact map.

Elements are sparse sums of terms f * d_r with f a monomial and r a
direction index in 1..m+n.  The direction d_r is even for r <= m and odd
otherwise; a term's parity is parity(f) + parity(d_r).

The index involution i -> i' pairs the even directions 1..r with
r+1..2r (fixing m) and the odd directions m+1..m+t with m+t+1..m+n;
sigma carries the sign -1 exactly on r < i <= 2r.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .superspace import Element, Monomial, Space

WittKey = Tuple[Monomial, int]


def index_conjugate(space: Space, i: int) -> Tuple[int, int]:
    """(i', sigma(i)) for i in 1..m+n."""
    m, r, t, s = space.m, space.r, space.half_odd, space.s
    if not 1 <= i <= s:
        raise IndexError(f"index {i} outside 1..{s}")
    if i <= r:
        return i + r, 1
    if i <= 2 * r:
        return i - r, -1
    if i == m:
        return m, 1
    if i <= m + t:
        return i + t, 1
    return i - t, 1


def sigma(space: Space, i: int) -> int:
    """The sign sigma(i): -1 on r < i <= 2r, +1 elsewhere."""
    return index_conjugate(space, i)[1]


class WittElement:
    """Sparse vector field: map (monomial, direction) -> coefficient."""

    __slots__ = ("space", "terms")

    def __init__(self, space: Space, terms=None):
        self.space = space
        self.terms: Dict[WittKey, int] = dict(terms) if terms else {}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, WittElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "WittElement(0)"
        bits = [
            f"{c}*x{mono.alpha}|{mono.umask:b}*d{r}"
            for (mono, r), c in sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        ]
        return "WittElement(" + " + ".join(bits) + ")"

    def add_term(self, mono: Monomial, r: int, coeff: int):
        key = (mono, r)
        c = (self.terms.get(key, 0) + coeff) % self.space.p
        if c:
            self.terms[key] = c
        else:
            self.terms.pop(key, None)

    def __add__(self, other):
        out = WittElement(self.space, self.terms)
        for (mono, r), c in other.terms.items():
            out.add_term(mono, r, c)
        return out

    def __sub__(self, other):
        out = WittElement(self.space, self.terms)
        for (mono, r), c in other.terms.items():
            out.add_term(mono, r, -c)
        return out

    def scaled(self, c: int) -> "WittElement":
        c %= self.space.p
        if c == 0:
            return WittElement(self.space)
        return WittElement(
            self.space, {k: v * c % self.space.p for k, v in self.terms.items()}
        )


def term_parity(space: Space, mono: Monomial, r: int) -> int:
    return (mono.umask.bit_count() + (1 if r > space.m else 0)) & 1


def term_k_degree(space: Space, mono: Monomial, r: int) -> int:
    """Contact grading: x_m counts twice and direction m counts -2."""
    return (
        sum(mono.alpha)
        + mono.alpha[space.m - 1]
        + mono.umask.bit_count()
        - (2 if r == space.m else 1)
    )


def witt_apply(d: WittElement, g: Element) -> Element:
    """Apply the vector field: sum_r f_r * d_r(g)."""
    space = d.space
    out = Element(space)
    dmono = space.mono_partial
    mul = space.mono_mul
    for (mono, r), c in d.terms.items():
        for gm, gc in g.terms.items():
            hit = dmono(r, gm)
            if hit is None:
                continue
            prod = mul(mono, hit[1])
            if prod is None:
                continue
            out.add_term(prod[1], c * gc * hit[0] * prod[0])
    return out


def witt_bracket(a: WittElement, b: WittElement) -> WittElement:
    """[f d_i, g d_j] = f d_i(g) d_j - (-1)^{p(f d_i) p(g d_j)} g d_j(f) d_i."""
    space = a.space
    out = WittElement(space)
    dmono = space.mono_partial
    mul = space.mono_mul
    m = space.m
    for (fa, i), ca in a.terms.items():
        pa = (fa.umask.bit_count() + (1 if i > m else 0)) & 1
        for (fb, j), cb in b.terms.items():
            pb = (fb.umask.bit_count() + (1 if j > m else 0)) & 1
            c = ca * cb
            hit = dmono(i, fb)
            if hit is not None:
                prod = mul(fa, hit[1])
                if prod is not None:
                    out.add_term(prod[1], j, c * hit[0] * prod[0])
            hit = dmono(j, fa)
            if hit is not None:
                prod = mul(fb, hit[1])
                if prod is not None:
                    sign = -1 if pa & pb else 1
                    out.add_term(prod[1], i, -sign * c * hit[0] * prod[0])
    return out


def d_k_monomial(
    space: Space, mono: Monomial, use_display_reading: bool = False
) -> WittElement:
    """Image of one monomial under the contact map.

    The last coefficient is 2f - sum_{i != m} x_i d_i(f); with
    use_display_reading=True it is 2f - sum_{i != m} x_i d_m(f) instead,
    a variant kept only so the test suite can show it breaks the bracket
    homomorphism.
    """
    m, s = space.m, space.s
    p = space.p
    pf = mono.umask.bit_count() & 1
    dmono = space.mono_partial
    mul = space.mono_mul
    out = WittElement(space)
    dm = dmono(m, mono)
    for i in range(1, s + 1):
        if i == m:
            continue
        sign = -1 if pf and i > m else 1
        if dm is not None:
            xi = space.variable(i)
            prod = mul(xi, dm[1])
            if prod is not None:
                out.add_term(prod[1], i, sign * dm[0] * prod[0])
        ip, _ = index_conjugate(space, i)
        hit = dmono(ip, mono)
        if hit is not None:
            out.add_term(hit[1], i, sign * sigma(space, ip) * hit[0])
    out.add_term(mono, m, 2)
    for i in range(1, s + 1):
        if i == m:
            continue
        xi = space.variable(i)
        hit = dm if use_display_reading else dmono(i, mono)
        if hit is None:
            continue
        prod = mul(xi, hit[1])
        if prod is not None:
            out.add_term(prod[1], m, (-hit[0] * prod[0]) % p)
    return out


def d_k(f: Element, use_display_reading: bool = False) -> WittElement:
    """Linear extension of the contact map over a sparse element."""
    out = WittElement(f.space)
    for mono, c in f.terms.items():
        img = d_k_monomial(f.space, mono, use_display_reading)
        for (mm, r), v in img.terms.items():
            out.add_term(mm, r, c * v)
    return out


# ---------------------------------------------------------------------------
# exhaustive sweeps for the contact map
# ---------------------------------------------------------------------------


def _hom_chunk(ctx, bounds) -> dict:
    space, basis, dk_list, use_display = ctx
    lo, hi = bounds
    p = space.p
    m = space.m
    dmono = space.mono_partial
    mul = space.mono_mul
    index = {mono: i for i, mono in enumerate(basis)}
    failures = 0
    checked = 0
    witness = None
    for i in range(lo, hi):
        dk_i = dk_list[i]
        dm_i = dmono(m, basis[i])
        for j in range(i, len(basis)):
            checked += 1
            # <f_i, f_j> as a sparse element
            br: dict = {}
            for (fm, r), c in dk_i.terms.items():
                hit = dmono(r, basis[j])
                if hit is None:
                    continue
                prod = mul(fm, hit[1])
                if prod is None:
                    continue
                br[prod[1]] = (br.get(prod[1], 0) + c * hit[0] * prod[0]) % p
            if dm_i is not None:
                prod = mul(dm_i[1], basis[j])
                if prod is not None:
                    br[prod[1]] = (br.get(prod[1], 0) - 2 * dm_i[0] * prod[0]) % p
            # image of the bracket under the contact map, by linearity
            lhs: dict = {}
            for mono, c in br.items():
                if not c:
                    continue
                for key, v in dk_list[index[mono]].terms.items():
                    lhs[key] = (lhs.get(key, 0) + c * v) % p
            rhs = witt_bracket(dk_i, dk_list[j])
            lhs = {k: v for k, v in lhs.items() if v}
            if lhs != rhs.terms:
                failures += 1
                if witness is None:
                    witness = (i, j)
    return {"checked": checked, "failures": failures, "witness": witness}


def homomorphism_check(space: Space, use_display_reading: bool = False,
                       workers: int = 1, chunk: int = 16) -> dict:
    """Exhaustively verify that the contact map turns the contact bracket
    into the vector-field bracket, over all unordered basis pairs."""
    from .parallel import chunk_ranges, merge_checks, parallel_map

    basis = list(space.basis())
    dk_list = [d_k_monomial(space, mono, use_display_reading) for mono in basis]
    ctx = (space, basis, dk_list, use_display_reading)
    return merge_checks(
        parallel_map(ctx, _hom_chunk, chunk_ranges(len(basis), chunk), workers)
    )


def _single_term_bracket(space, fa, i, fb, j, c):
    """[c * fa d_i, fb d_j] as a list of ((mono, dir), coeff)."""
    out = []
    m = space.m
    dmono = space.mono_partial
    mul = space.mono_mul
    pa = (fa.umask.bit_count() + (1 if i > m else 0)) & 1
    pb = (fb.umask.bit_count() + (1 if j > m else 0)) & 1
    hit = dmono(i, fb)
    if hit is not None:
        prod = mul(fa, hit[1])
        if prod is not None:
            out.append(((prod[1], j), c * hit[0] * prod[0]))
    hit = dmono(j, fa)
    if hit is not None:
        prod = mul(fb, hit[1])
        if prod is not None:
            sign = -1 if pa & pb else 1
            out.append(((prod[1], i), -sign * c * hit[0] * prod[0]))
    return out


def _witt_jacobi_chunk(ctx, bounds):
    space, basis, pair_table = ctx
    lo, hi = bounds
    p = space.p
    m = space.m
    nb = len(basis)
    failures = 0
    checked = 0
    witness = None
    for ai in range(lo, hi):
        fa, da = basis[ai]
        pa = (fa.umask.bit_count() + (1 if da > m else 0)) & 1
        for bi in range(nb):
            fb, db = basis[bi]
            pb = (fb.umask.bit_count() + (1 if db > m else 0)) & 1
            sgn = -1 if pa and pb else 1
            ab = pair_table[ai * nb + bi]
            for ci in range(nb):
                fc, dc = basis[ci]
                checked += 1
                acc: Dict[WittKey, int] = {}
                for (fm, r), v in pair_table[bi * nb + ci]:
                    for key, w in _single_term_bracket(space, fa, da, fm, r, v):
                        acc[key] = acc.get(key, 0) + w
                for (fm, r), v in ab:
                    for key, w in _single_term_bracket(space, fm, r, fc, dc, v):
                        acc[key] = acc.get(key, 0) - w
                for (fm, r), v in pair_table[ai * nb + ci]:
                    for key, w in _single_term_bracket(space, fb, db, fm, r, v):
                        acc[key] = acc.get(key, 0) - sgn * w
                if any(x % p for x in acc.values()):
                    failures += 1
                    if witness is None:
                        witness = (basis[ai], basis[bi], basis[ci])
    return {"checked": checked, "failures": failures, "witness": witness}


def witt_jacobi_sweep(space: Space, cap: int = 3, workers: int = 1) -> dict:
    """Super-antisymmetry and super-Jacobi, exhaustive over all basis
    triples of vector-field terms with |alpha| + |u| <= cap."""
    from .parallel import chunk_ranges, merge_checks, parallel_map

    basis = [
        (mono, r)
        for mono in space.basis()
        if sum(mono.alpha) + mono.umask.bit_count() <= cap
        for r in range(1, space.s + 1)
    ]
    nb = len(basis)
    p = space.p
    pair_table = []
    anti_failures = 0
    for fa, da in basis:
        for fb, db in basis:
            ent = {}
            for key, w in _single_term_bracket(space, fa, da, fb, db, 1):
                ent[key] = (ent.get(key, 0) + w) % p
            pair_table.append(tuple((k, v) for k, v in ent.items() if v))
    m = space.m
    for ai in range(nb):
        pa = (basis[ai][0].umask.bit_count() + (1 if basis[ai][1] > m else 0)) & 1
        for bi in range(nb):
            pb = (basis[bi][0].umask.bit_count() + (1 if basis[bi][1] > m else 0)) & 1
            sign = -1 if not (pa and pb) else 1
            fwd = dict(pair_table[ai * nb + bi])
            rev = {k: sign * v % p for k, v in pair_table[bi * nb + ai]}
            if fwd != rev:
                anti_failures += 1
    ctx = (space, basis, pair_table)
    results = parallel_map(ctx, _witt_jacobi_chunk, chunk_ranges(nb, 8), workers)
    return {"basis": nb, "antisymmetry_failures": anti_failures, **merge_checks(results)}


def d_k_matrix_rank(space: Space) -> Tuple[int, int]:
    """(rank, dim of the domain) of the contact map on the monomial basis."""
    import numpy as np

    from .linalg import Echelon

    basis = list(space.basis())
    windex: Dict[WittKey, int] = {}
    cols = []
    for mono in basis:
        img = d_k_monomial(space, mono)
        col = {}
        for key, v in img.terms.items():
            if key not in windex:
                windex[key] = len(windex)
            col[windex[key]] = v
        cols.append(col)
    rows = np.zeros((len(basis), len(windex)), dtype=np.int64)
    for i, col in enumerate(cols):
        for r, v in col.items():
            rows[i, r] = v
    ech = Echelon(len(windex), space.p)
    ech.add_rows(rows)
    return ech.nrows, len(basis)
