"""Contact bracket, the finite-dimensional algebra it generates, and the
torus/weight/grading machinery used by every verification.

The algebra is realized as a structure-constant table over an indexed
monomial basis: a sparse map (i, j) -> [(k, c), ...] for i <= j, with the
other half recovered from super-antisymmetry.  Weights are the joint
eigenvalues of the commuting products x_i x_{i'}; the integer grading
gives x_m weight 2 and the constants weight -2, which makes the bracket
degree-additive.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .linalg import Echelon, rref
from .parallel import chunk_ranges, merge_checks, mix_seed
from .superspace import Element, Monomial, Space, partial
from .witt import d_k, d_k_monomial, index_conjugate, witt_apply

Weight = Tuple[int, ...]


def contact_bracket(f: Element, g: Element) -> Element:
    """<f, g> on sparse elements of the ambient superalgebra."""
    space = f.space
    return witt_apply(d_k(f), g) - partial(space.m, f).scaled(2) * g


class StructureConstantAlgebra:
    """Finite-dimensional superalgebra given by an indexed sparse bracket table.

    table holds entries for i <= j only; parity, degree and weight are
    per-basis-index.  Weights are tuples (possibly empty for algebras
    without a torus).  Additivity of parity, degree and weight over every
    stored entry is validated at construction.
    """

    def __init__(
        self,
        name: str,
        p: int,
        parity: Sequence[int],
        degree: Sequence[int],
        weight: Sequence[Weight],
        table: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]],
        labels: Optional[Sequence[str]] = None,
        validate: bool = True,
    ):
        self.name = name
        self.p = p
        self.dim = len(parity)
        self.parity = list(parity)
        self.degree = list(degree)
        self.weight = [tuple(w) for w in weight]
        self.wlen = len(self.weight[0]) if self.weight else 0
        self.labels = list(labels) if labels else [f"e{i}" for i in range(self.dim)]
        self.table = {}
        for (i, j), ent in table.items():
            if i > j:
                raise ParameterError(f"table key ({i},{j}) not canonical")
            ent = tuple((k, c % p) for k, c in ent if c % p)
            if ent:
                self.table[(i, j)] = ent
        self._ordered: Optional[list] = None
        self._tensor = None
        self._classes: Optional[dict] = None
        if validate:
            self.validate_table()

    def __repr__(self):
        return f"<{self.name}: dim {self.dim} over F_{self.p}>"

    # -- table access ---------------------------------------------------------

    def bracket_indices(self, i: int, j: int) -> Tuple[Tuple[int, int], ...]:
        """<e_i, e_j> as ((k, c), ...), any order of i, j."""
        if i <= j:
            return self.table.get((i, j), ())
        ent = self.table.get((j, i), ())
        if not ent:
            return ()
        sign = -1 if not (self.parity[i] and self.parity[j]) else 1
        if sign < 0:
            p = self.p
            return tuple((k, (-c) % p) for k, c in ent)
        return ent

    def ordered_table(self) -> list:
        """Flat list over ordered pairs: entry at i*dim+j, () when zero."""
        if self._ordered is None:
            n = self.dim
            flat: list = [()] * (n * n)
            p = self.p
            for (i, j), ent in self.table.items():
                flat[i * n + j] = ent
                if i != j:
                    if self.parity[i] and self.parity[j]:
                        flat[j * n + i] = ent
                    else:
                        flat[j * n + i] = tuple((k, (-c) % p) for k, c in ent)
            self._ordered = flat
        return self._ordered

    def tensor(self):
        """Ordered structure constants as numpy arrays (I, J, K, V)."""
        if self._tensor is None:
            flat = self.ordered_table()
            n = self.dim
            ii: List[int] = []
            jj: List[int] = []
            kk: List[int] = []
            vv: List[int] = []
            for pid, ent in enumerate(flat):
                if not ent:
                    continue
                i, j = divmod(pid, n)
                for k, c in ent:
                    ii.append(i)
                    jj.append(j)
                    kk.append(k)
                    vv.append(c)
            self._tensor = (
                np.array(ii, dtype=np.int32),
                np.array(jj, dtype=np.int32),
                np.array(kk, dtype=np.int32),
                np.array(vv, dtype=np.int64),
            )
        return self._tensor

    def bracket_vectors(self, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
        """Bilinear extension of the bracket to dense coefficient vectors."""
        out = np.zeros(self.dim, dtype=np.int64)
        flat = self.ordered_table()
        n = self.dim
        for i in np.flatnonzero(va):
            ca = int(va[i])
            base = i * n
            for j in np.flatnonzero(vb):
                ent = flat[base + j]
                if not ent:
                    continue
                c = ca * int(vb[j])
                for k, v in ent:
                    out[k] += c * v
        return out % self.p

    def ad_rows(self, vec: np.ndarray) -> np.ndarray:
        """Matrix whose row i is <e_i, vec>, for a dense coefficient vector."""
        ti, tj, tk, tv = self.tensor()
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        w = tv * vec[tj]
        np.add.at(out, (ti, tk), w)
        return out % self.p

    # -- gradings ---------------------------------------------------------------

    def classes(self) -> dict:
        """(weight, degree, parity) -> sorted basis-index array."""
        if self._classes is None:
            buckets: dict = {}
            for i in range(self.dim):
                buckets.setdefault(
                    (self.weight[i], self.degree[i], self.parity[i]), []
                ).append(i)
            self._classes = {
                key: np.array(v, dtype=np.int32) for key, v in buckets.items()
            }
        return self._classes

    def wt_add(self, a: Weight, b: Weight) -> Weight:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def wt_sub(self, a: Weight, b: Weight) -> Weight:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def validate_table(self):
        """Parity, weight and degree additivity over every stored entry."""
        for (i, j), ent in self.table.items():
            pij = (self.parity[i] + self.parity[j]) & 1
            wij = self.wt_add(self.weight[i], self.weight[j])
            dij = self.degree[i] + self.degree[j]
            for k, c in ent:
                if self.parity[k] != pij:
                    raise ParameterError(
                        f"parity violation at <e{i},e{j}> -> e{k}"
                    )
                if self.weight[k] != wij:
                    raise ParameterError(
                        f"weight violation at <e{i},e{j}> -> e{k}"
                    )
                if self.degree[k] != dij:
                    raise ParameterError(
                        f"degree violation at <e{i},e{j}> -> e{k}"
                    )


class ContactAlgebra(StructureConstantAlgebra):
    """The contact algebra on the truncated superalgebra's monomial basis."""

    def __init__(self, space: Space, basis, table, torus_pairs, torus_idx):
        self.space = space
        self.basis: List[Monomial] = list(basis)
        self.index = {mono: i for i, mono in enumerate(self.basis)}
        self.torus_pairs: List[Tuple[int, int]] = torus_pairs
        self.torus_idx: List[int] = torus_idx
        parity = [space.parity(mo) for mo in self.basis]
        degree = [space.k_degree(mo) for mo in self.basis]
        weight = [weight_of(space, mo, torus_pairs) for mo in self.basis]
        labels = [f"x{mo.alpha}|{mo.umask:0{space.n}b}" for mo in self.basis]
        super().__init__(
            f"K(m={space.m},n={space.n},heights={space.heights},p={space.p})",
            space.p,
            parity,
            degree,
            weight,
            table,
            labels,
        )
        self.params = (space.m, space.n, space.heights, space.p)

    def monomial_index(self, mono: Monomial) -> int:
        return self.index[mono]


def torus_pair_list(space: Space) -> List[Tuple[int, int]]:
    """Index pairs (i, i') generating the torus, one per conjugate pair."""
    pairs = [(i, index_conjugate(space, i)[0]) for i in range(1, space.r + 1)]
    pairs += [
        (j, index_conjugate(space, j)[0])
        for j in range(space.m + 1, space.m + space.half_odd + 1)
    ]
    return pairs


def weight_of(space: Space, mono: Monomial, torus_pairs=None) -> Weight:
    """Torus eigenvalue tuple of a monomial."""
    if torus_pairs is None:
        torus_pairs = torus_pair_list(space)
    p = space.p
    vals = []
    for i, ip in torus_pairs:
        if i <= space.m:
            vals.append((mono.alpha[ip - 1] - mono.alpha[i - 1]) % p)
        else:
            bi = 1 << (i - space.m - 1)
            bip = 1 << (ip - space.m - 1)
            d = (1 if mono.umask & bip else 0) - (1 if mono.umask & bi else 0)
            vals.append(d % p)
    return tuple(vals)


def _monomial_brackets(space: Space, basis, index):
    """Structure constants <e_i, e_j> for i <= j, as target-index maps."""
    m = space.m
    p = space.p
    mono_partial = space.mono_partial
    mono_mul = space.mono_mul
    dk_terms = []
    dm_terms = []
    for mono in basis:
        img = d_k_monomial(space, mono)
        dk_terms.append(tuple((r, mm, c) for (mm, r), c in img.terms.items()))
        dm_terms.append(mono_partial(m, mono))
    table: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}
    n = len(basis)
    for i in range(n):
        terms_i = dk_terms[i]
        dm_i = dm_terms[i]
        for j in range(i, n):
            mono_j = basis[j]
            acc: Dict[int, int] = {}
            for r, fm, c in terms_i:
                hit = mono_partial(r, mono_j)
                if hit is None:
                    continue
                prod = mono_mul(fm, hit[1])
                if prod is None:
                    continue
                k = index[prod[1]]
                acc[k] = acc.get(k, 0) + c * hit[0] * prod[0]
            if dm_i is not None:
                prod = mono_mul(dm_i[1], mono_j)
                if prod is not None:
                    k = index[prod[1]]
                    acc[k] = acc.get(k, 0) - 2 * dm_i[0] * prod[0]
            ent = tuple(
                (k, v % p) for k, v in sorted(acc.items()) if v % p
            )
            if ent:
                table[(i, j)] = ent
    return table


def build_contact_algebra(
    m: int, n: int, heights, p: int, dim_cap: int = 4096
) -> ContactAlgebra:
    """Construct the derived contact algebra at the given parameters.

    Enumerates the monomial basis, computes every pairwise bracket,
    restricts to the span of all bracket values (the derived subalgebra),
    and attaches parity, degree and weight per basis element.
    """
    space = Space(m, n, heights, p)
    if space.dim > dim_cap:
        raise ResourceLimitError(
            f"dimension {space.dim} exceeds cap {dim_cap}"
        )
    basis = list(space.basis())
    index = {mono: i for i, mono in enumerate(basis)}
    table = _monomial_brackets(space, basis, index)

    # span of all bracket values = derived subalgebra
    ech = Echelon(len(basis), p)
    batch: List[np.ndarray] = []
    for ent in table.values():
        row = np.zeros(len(basis), dtype=np.int64)
        for k, c in ent:
            row[k] = c
        batch.append(row)
        if len(batch) >= 2048:
            ech.add_rows(np.array(batch))
            batch = []
            if ech.nrows == len(basis):
                break
    if batch and ech.nrows < len(basis):
        ech.add_rows(np.array(batch))

    if ech.nrows < len(basis):
        # keep only monomials spanning the derived subalgebra; this is only
        # possible when the span is coordinate-aligned
        mat = ech.mat
        aligned = all(
            np.count_nonzero(mat[r]) == 1 and mat[r, ech.pivots[r]] == 1
            for r in range(ech.nrows)
        )
        if not aligned:
            raise ParameterError(
                "derived subalgebra is not spanned by monomials; "
                f"rank {ech.nrows} of {len(basis)}"
            )
        keep = list(ech.pivots)
        keep_set = set(keep)
        remap = {old: new for new, old in enumerate(keep)}
        new_basis = [basis[i] for i in keep]
        new_table = {}
        for (i, j), ent in table.items():
            if i in keep_set and j in keep_set:
                if any(k not in keep_set for k, _ in ent):
                    raise ParameterError("bracket value escapes the derived span")
                new_table[(remap[i], remap[j])] = tuple(
                    (remap[k], c) for k, c in ent
                )
        basis, table = new_basis, new_table
        index = {mono: i for i, mono in enumerate(basis)}

    torus_pairs = torus_pair_list(space)
    torus_idx = []
    for i, ip in torus_pairs:
        hit = space.mono_mul(space.variable(i), space.variable(ip))
        if hit is None or hit[0] != 1:
            raise ParameterError(f"torus product x_{i} x_{ip} degenerate")
        if hit[1] not in index:
            raise ParameterError(f"torus element x_{i}x_{ip} outside the algebra")
        torus_idx.append(index[hit[1]])

    alg = ContactAlgebra(space, basis, table, torus_pairs, torus_idx)

    # torus must be abelian
    for a in range(len(torus_idx)):
        for b in range(a, len(torus_idx)):
            if alg.bracket_indices(torus_idx[a], torus_idx[b]):
                raise ParameterError("torus generators fail to commute")
    return alg


# -- weight machinery ----------------------------------------------------------


def weight_decomposition(alg: ContactAlgebra) -> Dict[Weight, List[int]]:
    """Partition of the basis by weight, with the eigen-equation checked."""
    blocks: Dict[Weight, List[int]] = {}
    for i in range(alg.dim):
        blocks.setdefault(alg.weight[i], []).append(i)
    for pos, h in enumerate(alg.torus_idx):
        for e in range(alg.dim):
            ent = alg.bracket_indices(h, e)
            lam = alg.weight[e][pos]
            expected = ((e, lam),) if lam else ()
            if ent != expected:
                raise ParameterError(
                    f"eigen-equation fails at torus {pos}, basis {e}: "
                    f"{ent} != {expected}"
                )
    return blocks


def _even_pairs(space: Space) -> List[Tuple[int, int]]:
    return [(i, i + space.r) for i in range(1, space.r + 1)]


def _odd_pairs(space: Space) -> List[Tuple[int, int]]:
    t = space.half_odd
    return [(j, j + t) for j in range(space.m + 1, space.m + t + 1)]


def weight_space_predicates(alg: ContactAlgebra) -> dict:
    """Check the three weight-space membership patterns over every monomial.

    statement 1: zero weight <=> every conjugate exponent pair is congruent
    and every odd pair is jointly present or absent;
    statement 2: the weight of a pure power x^{(q e_i)} (i != m) <=> the
    same pattern with the distinguished pair offset by -q;
    statement 3: the weight of a single odd variable x_j <=> the balanced
    pattern with exactly x_j displaced.
    """
    space = alg.space
    p = space.p
    epairs = _even_pairs(space)
    opairs = _odd_pairs(space)

    def balanced_even(mono, skip=None):
        for a, b in epairs:
            if skip == (a, b):
                continue
            if (mono.alpha[b - 1] - mono.alpha[a - 1]) % p:
                return False
        return True

    def balanced_odd(mono, skip=None):
        for a, b in opairs:
            if skip == (a, b):
                continue
            in_a = bool(mono.umask & (1 << (a - space.m - 1)))
            in_b = bool(mono.umask & (1 << (b - space.m - 1)))
            if in_a != in_b:
                return False
        return True

    counts = {1: [0, 0], 2: [0, 0], 3: [0, 0]}  # [checked, mismatched]
    zero_w = (0,) * alg.wlen

    for mono in alg.basis:
        w = weight_of(space, mono, alg.torus_pairs)
        pat = balanced_even(mono) and balanced_odd(mono)
        counts[1][0] += 1
        if pat != (w == zero_w):
            counts[1][1] += 1

    for i in range(1, space.m):
        pair = next(pr for pr in epairs if i in pr)
        a, b = pair
        for q in range(1, space.pi[i - 1] + 1):
            target = weight_of(
                space, space.monomial(tuple(q if c == i - 1 else 0 for c in range(space.m))),
                alg.torus_pairs,
            )
            for mono in alg.basis:
                w = weight_of(space, mono, alg.torus_pairs)
                off = (mono.alpha[b - 1] - mono.alpha[a - 1]) % p
                want = (-q) % p if i == a else q % p
                pat = (
                    off == want
                    and balanced_even(mono, skip=pair)
                    and balanced_odd(mono)
                )
                counts[2][0] += 1
                if pat != (w == target):
                    counts[2][1] += 1

    for j in range(space.m + 1, space.s + 1):
        pair = next(pr for pr in opairs if j in pr)
        target = weight_of(space, space.variable(j), alg.torus_pairs)
        for mono in alg.basis:
            w = weight_of(space, mono, alg.torus_pairs)
            in_j = bool(mono.umask & (1 << (j - space.m - 1)))
            jp = pair[1] if j == pair[0] else pair[0]
            in_jp = bool(mono.umask & (1 << (jp - space.m - 1)))
            pat = (
                in_j
                and not in_jp
                and balanced_even(mono)
                and balanced_odd(mono, skip=pair)
            )
            counts[3][0] += 1
            if pat != (w == target):
                counts[3][1] += 1

    return {
        "statement_1": {"checked": counts[1][0], "mismatches": counts[1][1]},
        "statement_2": {"checked": counts[2][0], "mismatches": counts[2][1]},
        "statement_3": {"checked": counts[3][0], "mismatches": counts[3][1]},
        "all_match": all(c[1] == 0 for c in counts.values()),
    }


def generators(alg: ContactAlgebra) -> List[int]:
    """Basis indices of the generating set: pure powers and odd variables."""
    space = alg.space
    out = [alg.index[space.unit]]
    for i in range(1, space.m + 1):
        for q in range(1, space.pi[i - 1] + 1):
            mono = space.monomial(
                tuple(q if c == i - 1 else 0 for c in range(space.m))
            )
            out.append(alg.index[mono])
    for j in range(space.m + 1, space.s + 1):
        out.append(alg.index[space.variable(j)])
    return out


def generation_closure(
    alg: StructureConstantAlgebra, gens: Sequence[int], max_rounds: int = 64
) -> Tuple[bool, int]:
    """Close span(gens) under bracket with gens and with itself.

    Returns (whether the closure is the whole algebra, rounds used).
    """
    n = alg.dim
    ech = Echelon(n, alg.p)
    rows = np.zeros((len(gens), n), dtype=np.int64)
    for r, g in enumerate(gens):
        rows[r, g] = 1
    ech.add_rows(rows)
    if ech.nrows == n:
        return True, 0
    gen_vecs = rows
    rounds = 0
    frontier = ech.mat.copy()
    # phase 1: bracket with the generators only
    while rounds < max_rounds and ech.nrows < n and frontier.shape[0]:
        rounds += 1
        produced = []
        for g in gen_vecs:
            for v in frontier:
                produced.append(alg.bracket_vectors(g, v))
        before = ech.nrows
        old = ech.mat.copy()
        ech.add_rows(np.array(produced))
        if ech.nrows == before:
            break
        frontier = _new_rows(ech, old)
    # phase 2: bracket the span with itself (needed only if phase 1 stalls)
    while rounds < max_rounds and ech.nrows < n:
        rounds += 1
        vecs = ech.mat
        produced = []
        for a in range(vecs.shape[0]):
            for b in range(a, vecs.shape[0]):
                produced.append(alg.bracket_vectors(vecs[a], vecs[b]))
        before = ech.nrows
        ech.add_rows(np.array(produced))
        if ech.nrows == before:
            break
    return ech.nrows == n, rounds


def _new_rows(ech: Echelon, old_mat: np.ndarray) -> np.ndarray:
    """Rows of ech.mat that are new relative to a previous snapshot."""
    if old_mat.shape[0] == 0:
        return ech.mat.copy()
    prev = {tuple(r) for r in old_mat.tolist()}
    fresh = [r for r in ech.mat.tolist() if tuple(r) not in prev]
    return np.array(fresh, dtype=np.int64) if fresh else np.zeros((0, ech.ncols), np.int64)


def centralizer(
    alg: StructureConstantAlgebra,
    s_rows: Optional[np.ndarray] = None,
    within_rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """{x in within : <x, s> = 0 for all s in span(s_rows)}, as canonical rows.

    None for either subspace means the whole algebra.
    """
    n = alg.dim
    p = alg.p
    full_within = within_rows is None
    if full_within:
        within = np.eye(n, dtype=np.int64)
    else:
        within, _ = rref(np.asarray(within_rows, dtype=np.int64) % p, p)
    w = within.shape[0]
    if w == 0:
        return within
    ech = Echelon(w, p)

    if s_rows is None and full_within:
        # centralizer of the whole algebra: constraint rows indexed by (j, k)
        # are row[i] = c_{ijk}, grouped out of the structure tensor
        ti, tj, tk, tv = alg.tensor()
        order = np.lexsort((tk, tj))
        ti, tj, tk, tv = ti[order], tj[order], tk[order], tv[order]
        key = tj.astype(np.int64) * n + tk
        bounds = np.flatnonzero(np.diff(key)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(key)]])
        batch = []
        for s0, s1 in zip(starts, ends):
            row = np.zeros(n, dtype=np.int64)
            np.add.at(row, ti[s0:s1], tv[s0:s1])
            batch.append(row % p)
            if len(batch) >= 4096:
                ech.add_rows(np.array(batch))
                batch = []
                if ech.kernel_dim == 0:
                    break
        if batch and ech.kernel_dim > 0:
            ech.add_rows(np.array(batch))
    else:
        s_mat = (
            np.eye(n, dtype=np.int64)
            if s_rows is None
            else np.asarray(s_rows, dtype=np.int64) % p
        )
        for s_vec in s_mat:
            if full_within:
                block = alg.ad_rows(s_vec)  # row r = <e_r, s>
            else:
                block = np.zeros((w, n), dtype=np.int64)
                for r in range(w):
                    block[r] = alg.bracket_vectors(within[r], s_vec)
            # constraint per coordinate k: sum_r c_r block[r, k] = 0
            ech.add_rows(block.T)
            if ech.kernel_dim == 0:
                break

    coeffs = ech.kernel_basis()
    if coeffs.shape[0] == 0:
        return np.zeros((0, n), dtype=np.int64)
    out = coeffs if full_within else coeffs @ within % p
    canon, _ = rref(out, p)
    return canon


def graded_component(alg: StructureConstantAlgebra, d: int) -> List[int]:
    return [i for i in range(alg.dim) if alg.degree[i] == d]


def ideal_closure_spans(alg: StructureConstantAlgebra, start: int,
                        max_rounds: int = 64, chunk: int = 8) -> bool:
    """Whether the ideal generated by one basis element is the whole algebra."""
    n = alg.dim
    ech = Echelon(n, alg.p)
    seed = np.zeros((1, n), dtype=np.int64)
    seed[0, start] = 1
    ech.add_rows(seed)
    frontier = ech.mat.copy()
    rounds = 0
    while rounds < max_rounds and ech.nrows < n and frontier.shape[0]:
        rounds += 1
        old = ech.mat.copy()
        for lo in range(0, frontier.shape[0], chunk):
            stack = [alg.ad_rows(v) for v in frontier[lo : lo + chunk]]
            rows = np.concatenate(stack, axis=0)
            rows = rows[rows.any(axis=1)]
            if rows.shape[0]:
                ech.add_rows(rows)
            if ech.nrows == n:
                return True
        if ech.nrows == old.shape[0]:
            break
        frontier = _new_rows(ech, old)
    return ech.nrows == n


# -- exhaustive / sampled validity sweeps ---------------------------------------


def _antisym_chunk(alg, bounds) -> dict:
    lo, hi = bounds
    n = alg.dim
    checked = 0
    failures = 0
    witness = None
    if isinstance(alg, ContactAlgebra):
        space = alg.space
        basis = alg.basis
        index = alg.index
        for i in range(lo, hi):
            for j in range(i, n):
                fj = Element.from_monomial(space, basis[j])
                fi = Element.from_monomial(space, basis[i])
                back = contact_bracket(fj, fi)
                ent_rev = tuple(
                    sorted((index[mo], c) for mo, c in back.terms.items())
                )
                sign = -1 if not (alg.parity[i] and alg.parity[j]) else 1
                fwd = alg.bracket_indices(i, j)
                expect = tuple((k, (sign * c) % alg.p) for k, c in fwd)
                checked += 1
                if ent_rev != expect:
                    failures += 1
                    if witness is None:
                        witness = (i, j)
    else:
        for i in range(lo, hi):
            for j in range(i, n):
                fwd = alg.bracket_indices(i, j)
                rev = alg.bracket_indices(j, i)
                sign = -1 if not (alg.parity[i] and alg.parity[j]) else 1
                expect = tuple((k, (sign * c) % alg.p) for k, c in fwd)
                checked += 1
                if rev != expect:
                    failures += 1
                    if witness is None:
                        witness = (i, j)
    return {"checked": checked, "failures": failures, "witness": witness}


def antisymmetry_exhaustive(alg: StructureConstantAlgebra, workers: int = 1) -> dict:
    """Recompute <e_j, e_i> for every pair and compare against the sign rule.

    For the contact algebra the recomputation goes through the raw
    bracket of monomials, which makes this an independent check of the
    stored table rather than a tautology.
    """
    from .parallel import parallel_map  # late-bound: tracers may wrap it

    alg.ordered_table()  # materialize before forking
    return merge_checks(
        parallel_map(alg, _antisym_chunk, chunk_ranges(alg.dim, 16), workers)
    )


def jacobi_triple_defect(alg: StructureConstantAlgebra, a: int, b: int, c: int):
    """Defect vector of the graded Jacobi identity on basis indices (a, b, c)."""
    p = alg.p
    flat = alg.ordered_table()
    n = alg.dim
    acc: Dict[int, int] = {}

    def add_nested(x: int, yz_pairs, sign: int):
        # accumulate sign * <e_x, sum v e_l>
        for l, v in yz_pairs:
            for k, w in flat[x * n + l]:
                acc[k] = acc.get(k, 0) + sign * v * w

    # <a, <b, c>> - <<a, b>, c> - (-1)^{p(a)p(b)} <b, <a, c>>
    add_nested(a, flat[b * n + c], 1)
    for l, v in flat[a * n + b]:
        for k, w in flat[l * n + c]:
            acc[k] = acc.get(k, 0) - v * w
    sgn = -1 if alg.parity[a] and alg.parity[b] else 1
    add_nested(b, flat[a * n + c], -sgn)
    return {k: v % p for k, v in acc.items() if v % p}


def _jacobi_triples(alg, triples) -> dict:
    n = alg.dim
    flat = alg.ordered_table()
    par = alg.parity
    p = alg.p
    checked = 0
    failures = 0
    witness = None
    for a, b, c in triples:
        checked += 1
        acc: Dict[int, int] = {}
        get = acc.get
        for l, v in flat[b * n + c]:
            for k, w in flat[a * n + l]:
                acc[k] = get(k, 0) + v * w
        for l, v in flat[a * n + b]:
            for k, w in flat[l * n + c]:
                acc[k] = get(k, 0) - v * w
        s = -1 if par[a] and par[b] else 1
        for l, v in flat[a * n + c]:
            for k, w in flat[b * n + l]:
                acc[k] = get(k, 0) - s * v * w
        if acc and any(x % p for x in acc.values()):
            failures += 1
            if witness is None:
                witness = (a, b, c)
    return {"checked": checked, "failures": failures, "witness": witness}


_JACOBI_CHUNK = 50_000


def _jacobi_chunk_task(ctx, payload) -> dict:
    alg, seed = ctx
    chunk_no, count = payload
    rng = random.Random(mix_seed(seed, 7, chunk_no))
    n = alg.dim
    triples = [
        (rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(count)
    ]
    return _jacobi_triples(alg, triples)


def jacobi_check(
    alg: StructureConstantAlgebra,
    strategy: str = "auto",
    samples: int = 0,
    seed: int = 0,
    exhaustive_limit: int = 30,
    workers: int = 1,
) -> dict:
    """Super-antisymmetry on all pairs, super-Jacobi exhaustively or sampled.

    Sampling is chunk-seeded: the triples drawn depend on (seed, chunk)
    only, so results are identical for any worker count.
    """
    from .parallel import parallel_map

    anti = antisymmetry_exhaustive(alg, workers=workers)
    n = alg.dim
    if strategy == "auto":
        strategy = "exhaustive" if n <= exhaustive_limit else "sampled"
    if strategy == "exhaustive":
        res = _jacobi_triples(alg, itertools.product(range(n), repeat=3))
    else:
        alg.ordered_table()
        payloads = []
        left = samples
        chunk_no = 0
        while left > 0:
            take = min(_JACOBI_CHUNK, left)
            payloads.append((chunk_no, take))
            left -= take
            chunk_no += 1
        res = merge_checks(
            parallel_map((alg, seed), _jacobi_chunk_task, payloads, workers)
        )
    verdict = "pass" if not res["failures"] and not anti["failures"] else "fail"
    return {
        "antisymmetry": anti,
        "jacobi": {
            "strategy": strategy,
            "checked": res["checked"],
            "failures": res["failures"],
            "witness": res["witness"],
            "seed": seed if strategy == "sampled" else None,
        },
        "verdict": verdict,
    }


def _probe_task(ctx, start: int) -> bool:
    return ideal_closure_spans(ctx, start)


def simplicity_probes(
    alg: StructureConstantAlgebra, count: int = 20, seed: int = 0, workers: int = 1
) -> dict:
    """Ideal-closure probes from seeded pseudo-random basis elements."""
    from .parallel import parallel_map

    rng = random.Random(seed)
    starts = [rng.randrange(alg.dim) for _ in range(count)]
    alg.tensor()
    results = parallel_map(alg, _probe_task, starts, workers)
    failures = [s for s, ok in zip(starts, results) if not ok]
    return {
        "probes": starts,
        "failures": len(failures),
        "failed_elements": failures,
        "seed": seed,
    }
