"""Superderivations and skew-symmetric super-biderivations of a
structure-constant superalgebra, by exact kernel computation over F_p.

Every solver imposes one law, the super-derivation law

    D([x, y]) = s_left [D x, y] + s_right [x, D y],

through one row generator, law_rows().  A superderivation of parity g is
the law with signs (1, (-1)^{g p_x}).  A skew-symmetric bilinear map phi
is a biderivation when both of its slots obey it: D = phi(a, .) is a
superderivation of parity g + p_a (second slot), and E = phi(., c)
satisfies it on [a, b] with signs ((-1)^{p_b p_c}, (-1)^{g p_a}) (first
slot).  The unknowns differ per solver and enter only through D:

* raw derivation unknowns (l, k), the coefficient of e_k in D(e_l);
* raw pair unknowns c_{ij}^k (i <= j, parity-consistent, skew-symmetry
  built into the storage), solved exhaustively: the second-slot identity
  on every ordered basis triple, the first-slot identity checked on the
  returned kernel (imposed too if the check fails).  Blocked mode splits
  the unknowns by (weight offset, degree offset), since the equations
  never couple different offsets; full mode is the same solve with one
  block;
* for large algebras, a derivation scaffold (see derblocks): rows
  phi(e_i, .) expressed in a computed basis of superderivations.

law_defect() evaluates the same law on known maps; the identity checkers
use it as the oracle that solver output is compared against.

Every equation ever imposed is satisfied by every true biderivation, so
a computed kernel always CONTAINS the true solution space of its block.
A kernel that reaches the floor spanned by independently verified
solutions (multiples of the bracket, or zero) is therefore exact; a
kernel that stays larger is reported as such and never silently
accepted.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .contact import StructureConstantAlgebra
from .errors import ParameterError, ResourceLimitError
from .linalg import Echelon, rref
from .parallel import mix_seed

Key = Tuple[Tuple[int, ...], int]  # (weight offset, degree offset)


# ---------------------------------------------------------------------------
# fan indexes over the structure tensor
# ---------------------------------------------------------------------------


def fan_indexes(alg: StructureConstantAlgebra):
    """(left, right): left[(b,k)] lists (v, w) with <e_b, e_v> ->* w e_k;
    right[(c,k)] lists (u, w) with <e_u, e_c> ->* w e_k."""
    cached = getattr(alg, "_fans", None)
    if cached is not None:
        return cached
    left: Dict[Tuple[int, int], list] = {}
    right: Dict[Tuple[int, int], list] = {}
    n = alg.dim
    flat = alg.ordered_table()
    for pid, ent in enumerate(flat):
        if not ent:
            continue
        x, y = divmod(pid, n)
        for k, v in ent:
            left.setdefault((x, k), []).append((y, v))
            right.setdefault((y, k), []).append((x, v))
    alg._fans = (left, right)
    return alg._fans


# ---------------------------------------------------------------------------
# bilinear tables
# ---------------------------------------------------------------------------


class BilinearTable:
    """Sparse skew-symmetric bilinear map phi(e_i, e_j) = sum c_{ij}^k e_k.

    Entries are stored canonically for i <= j; the i > j values follow
    from phi(y, x) = -(-1)^{p(x)p(y)} phi(x, y).  z2_degree is the parity
    shift gamma: nonzero c_{ij}^k requires p(k) = p(i)+p(j)+gamma.
    """

    def __init__(self, alg: StructureConstantAlgebra, z2: int = 0,
                 block_key: Optional[Key] = None):
        self.alg = alg
        self.z2 = z2 & 1
        self.block_key = block_key
        self.coeffs: Dict[Tuple[int, int], Dict[int, int]] = {}

    def set_entry(self, i: int, j: int, k: int, c: int):
        p = self.alg.p
        c %= p
        if i > j:
            i, j = j, i
            if not (self.alg.parity[i] and self.alg.parity[j]):
                c = (-c) % p
        if i == j and not self.alg.parity[i]:
            if c:
                raise ParameterError("even diagonal entry must vanish")
            return
        cell = self.coeffs.setdefault((i, j), {})
        if c:
            cell[k] = c
        else:
            cell.pop(k, None)
        if not cell:
            self.coeffs.pop((i, j), None)

    def add_entry(self, i: int, j: int, k: int, c: int):
        cur = self.value(i, j).get(k, 0)
        if i > j:
            sign = 1 if (self.alg.parity[i] and self.alg.parity[j]) else -1
            self.set_entry(j, i, k, sign * (cur + c))
        else:
            self.set_entry(i, j, k, cur + c)

    def value(self, i: int, j: int) -> Dict[int, int]:
        """phi(e_i, e_j) as {k: c}, any index order."""
        if i <= j:
            return self.coeffs.get((i, j), {})
        cell = self.coeffs.get((j, i))
        if not cell:
            return {}
        if self.alg.parity[i] and self.alg.parity[j]:
            return cell
        p = self.alg.p
        return {k: (-c) % p for k, c in cell.items()}

    def is_zero(self) -> bool:
        return not self.coeffs

    def scaled(self, lam: int) -> "BilinearTable":
        out = BilinearTable(self.alg, self.z2, self.block_key)
        p = self.alg.p
        lam %= p
        if lam:
            for ij, cell in self.coeffs.items():
                out.coeffs[ij] = {k: c * lam % p for k, c in cell.items()}
        return out

    def minus(self, other: "BilinearTable") -> "BilinearTable":
        out = BilinearTable(self.alg, self.z2, self.block_key)
        p = self.alg.p
        keys = set(self.coeffs) | set(other.coeffs)
        for ij in keys:
            a = self.coeffs.get(ij, {})
            b = other.coeffs.get(ij, {})
            cell = {}
            for k in set(a) | set(b):
                c = (a.get(k, 0) - b.get(k, 0)) % p
                if c:
                    cell[k] = c
            if cell:
                out.coeffs[ij] = cell
        return out

    def nnz(self) -> int:
        return sum(len(cell) for cell in self.coeffs.values())

    def validate_parity(self):
        par = self.alg.parity
        for (i, j), cell in self.coeffs.items():
            want = (par[i] + par[j] + self.z2) & 1
            for k in cell:
                if par[k] != want:
                    raise ParameterError(
                        f"parity-inconsistent entry ({i},{j})->{k}"
                    )


def inner_biderivation(alg: StructureConstantAlgebra, lam: int) -> BilinearTable:
    """The table lam * <.,.> (z2-degree 0)."""
    out = BilinearTable(alg, 0)
    p = alg.p
    lam %= p
    if lam:
        for (i, j), ent in alg.table.items():
            out.coeffs[(i, j)] = {k: c * lam % p for k, c in ent}
    return out


def project_inner(alg: StructureConstantAlgebra, phi: BilinearTable):
    """(lam, residual): lam read off the first bracket-support position."""
    lam = 0
    for (i, j) in sorted(alg.table):
        ent = alg.table[(i, j)]
        k0, v0 = ent[0]
        c = phi.value(i, j).get(k0, 0)
        lam = c * pow(v0, alg.p - 2, alg.p) % alg.p
        break
    residual = phi.minus(inner_biderivation(alg, lam))
    return lam, residual


# ---------------------------------------------------------------------------
# the derivation law: one row generator, one evaluator
# ---------------------------------------------------------------------------


def derivation_signs(d: int, px: int) -> Tuple[int, int]:
    """(s_left, s_right) for a superderivation of parity d on [x, .]."""
    return 1, (-1 if d & 1 and px else 1)


def first_slot_signs(g: int, pa: int, pb: int, pc: int) -> Tuple[int, int]:
    """(s_left, s_right) for E = phi(., c) on [a, b], phi of z2-degree g:
    (-1)^{p_b p_c} on [E a, b] and (-1)^{g p_a} on [a, E b]."""
    return (-1 if pb and pc else 1), (-1 if g and pa else 1)


def law_rows(
    alg: StructureConstantAlgebra,
    x: int,
    y: int,
    ks: Iterable[int],
    D: Callable[[int, int], Iterable[Tuple[int, int]]],
    s_left: int,
    s_right: int,
) -> List[Dict[int, int]]:
    """Equation rows of D([x,y]) - s_left [D x, y] - s_right [x, D y] = 0.

    D(l, k) yields the (column, coefficient) pairs that make up the
    coefficient of e_k in D(e_l).  One row {column: residue} per target
    k in ks, in ks order; rows that vanish are dropped.
    """
    left, right = fan_indexes(alg)
    p = alg.p
    ent = alg.ordered_table()[x * alg.dim + y]
    out = []
    for k in ks:
        row: Dict[int, int] = {}
        for l, v in ent:
            for cc, w in D(l, k):
                row[cc] = row.get(cc, 0) + v * w
        for u, w in right.get((y, k), ()):
            for cc, w2 in D(x, u):
                row[cc] = row.get(cc, 0) - s_left * w * w2
        for u, w in left.get((x, k), ()):
            for cc, w2 in D(y, u):
                row[cc] = row.get(cc, 0) - s_right * w * w2
        row = {cc: r for cc, v in row.items() if (r := v % p)}
        if row:
            out.append(row)
    return out


def law_defect(
    alg: StructureConstantAlgebra,
    x: int,
    y: int,
    D: Callable[[int], Dict[int, int]],
    s_left: int,
    s_right: int,
) -> Dict[int, int]:
    """D([x,y]) - s_left [D x, y] - s_right [x, D y] for a known map D,
    given as D(l) = {k: coefficient of e_k in D(e_l)}; {} when the law holds.

    Kept apart from law_rows on purpose: it is the oracle that solver
    output is checked against.
    """
    flat = alg.ordered_table()
    n = alg.dim
    acc: Dict[int, int] = {}
    for l, v in flat[x * n + y]:
        for k, w in D(l).items():
            acc[k] = acc.get(k, 0) + v * w
    for u, w in D(x).items():
        for k, w2 in flat[u * n + y]:
            acc[k] = acc.get(k, 0) - s_left * w * w2
    for u, w in D(y).items():
        for k, w2 in flat[x * n + u]:
            acc[k] = acc.get(k, 0) - s_right * w * w2
    p = alg.p
    return {k: r for k, v in acc.items() if (r := v % p)}


def raw_derivation_map(col: Dict[Tuple[int, int], int]):
    """D over raw derivation unknowns: col[(l, k)] is the coefficient of
    e_k in D(e_l)."""
    get = col.get

    def D(l: int, k: int):
        cc = get((l, k))
        return () if cc is None else ((cc, 1),)

    return D


def raw_pair_map(alg, col: Dict[Tuple[int, int, int], int]):
    """phi(i, j, k) over skew-stored pair unknowns col[(i, j, k)], i <= j:
    the (column, sign) pairs making up the coefficient of e_k in
    phi(e_i, e_j), for either order of i and j."""
    par = alg.parity

    def phi(i: int, j: int, k: int):
        sign = 1
        if i > j:
            i, j = j, i
            if not (par[i] and par[j]):
                sign = -1
        elif i == j and not par[i]:
            return ()  # skew forces even diagonals to zero
        cc = col.get((i, j, k))
        return () if cc is None else ((cc, sign),)

    return phi


def slot_rows(alg, g: int, phi, slot: int, a: int, b: int, c: int, ks) -> List[Dict[int, int]]:
    """Rows of the second-slot (slot=2) or first-slot (slot=1) biderivation
    identity at (a, b, c), targets ks, for unknowns given by phi(i, j, k)."""
    par = alg.parity
    if slot == 2:
        return law_rows(
            alg, b, c, ks, lambda l, k: phi(a, l, k),
            *derivation_signs(g + par[a], par[b]),
        )
    return law_rows(
        alg, a, b, ks, lambda l, k: phi(l, c, k),
        *first_slot_signs(g, par[a], par[b], par[c]),
    )


def second_slot_defect(phi: BilinearTable, a: int, b: int, c: int) -> Dict[int, int]:
    """phi(a,[b,c]) - [phi(a,b),c] - (-1)^{(g+p_a)p_b} [b, phi(a,c)]."""
    par = phi.alg.parity
    return law_defect(
        phi.alg, b, c, lambda l: phi.value(a, l),
        *derivation_signs(phi.z2 + par[a], par[b]),
    )


def first_slot_defect(phi: BilinearTable, a: int, b: int, c: int) -> Dict[int, int]:
    """phi([a,b],c) - (-1)^{g p_a}[a, phi(b,c)] - (-1)^{p_b p_c}[phi(a,c), b]."""
    par = phi.alg.parity
    return law_defect(
        phi.alg, a, b, lambda l: phi.value(l, c),
        *first_slot_signs(phi.z2, par[a], par[b], par[c]),
    )


# ---------------------------------------------------------------------------
# derived identities (exact evaluation on a table)
# ---------------------------------------------------------------------------


def _bracket_dict_dict(alg, a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    flat = alg.ordered_table()
    n = alg.dim
    acc: Dict[int, int] = {}
    for x, vx in a.items():
        for y, vy in b.items():
            for k, w in flat[x * n + y]:
                acc[k] = acc.get(k, 0) + vx * vy * w
    return {k: v % alg.p for k, v in acc.items() if v % alg.p}


def _dict_combine(p, *parts) -> Dict[int, int]:
    acc: Dict[int, int] = {}
    for sign, d in parts:
        for k, v in d.items():
            acc[k] = acc.get(k, 0) + sign * v
    return {k: v % p for k, v in acc.items() if v % p}


def quadruple_defect(phi: BilinearTable, x: int, y: int, u: int, v: int) -> Dict[int, int]:
    """[phi(x,y),[u,v]] - (-1)^{g(p_x+p_y)}[[x,y], phi(u,v)]."""
    alg = phi.alg
    buv = dict(alg.bracket_indices(u, v))
    bxy = dict(alg.bracket_indices(x, y))
    t1 = _bracket_dict_dict(alg, phi.value(x, y), buv)
    t2 = _bracket_dict_dict(alg, bxy, phi.value(u, v))
    s = -1 if phi.z2 and ((alg.parity[x] + alg.parity[y]) & 1) else 1
    return _dict_combine(alg.p, (1, t1), (-s, t2))


def check_biderivation(
    alg: StructureConstantAlgebra,
    phi: BilinearTable,
    strategy: str = "auto",
    samples: int = 2000,
    seed: int = 0,
    simple: bool = False,
    exhaustive_limit: int = 16,
) -> dict:
    """Verify skew storage consistency and the defining/derived identities.

    Exhaustive over all triples/quadruples for small algebras, seeded
    samples otherwise.  Report-only: returns per-identity counts.
    """
    n = alg.dim
    if strategy == "auto":
        strategy = "exhaustive" if n <= exhaustive_limit else "sampled"
    rng = random.Random(mix_seed(seed, n, phi.z2))
    report = {"strategy": strategy, "seed": seed, "checks": {}, "verdict": "pass"}

    def record(name, checked, failures, witness):
        report["checks"][name] = {
            "checked": checked,
            "failures": failures,
            "witness": witness,
        }
        if failures:
            report["verdict"] = "fail"

    phi.validate_parity()

    # skew-symmetry via the value() accessor on both index orders
    checked = failures = 0
    witness = None
    pair_iter = (
        itertools.combinations_with_replacement(range(n), 2)
        if strategy == "exhaustive"
        else ((rng.randrange(n), rng.randrange(n)) for _ in range(samples))
    )
    p = alg.p
    for i, j in pair_iter:
        checked += 1
        fwd = phi.value(i, j)
        rev = phi.value(j, i)
        sign = 1 if alg.parity[i] and alg.parity[j] else -1
        if {k: sign * c % p for k, c in fwd.items()} != rev:
            failures += 1
            witness = witness or (i, j)
    record("skew_symmetry", checked, failures, witness)

    for name, defect in (
        ("second_slot", second_slot_defect),
        ("first_slot", first_slot_defect),
    ):
        checked = failures = 0
        witness = None
        triples = (
            itertools.product(range(n), repeat=3)
            if strategy == "exhaustive"
            else (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(samples)
            )
        )
        for a, b, c in triples:
            checked += 1
            if defect(phi, a, b, c):
                failures += 1
                witness = witness or (a, b, c)
        record(name, checked, failures, witness)

    checked = failures = 0
    witness = None
    quads = (
        itertools.product(range(n), repeat=4)
        if strategy == "exhaustive"
        else (
            tuple(rng.randrange(n) for _ in range(4)) for _ in range(samples)
        )
    )
    for x, y, u, v in quads:
        checked += 1
        if quadruple_defect(phi, x, y, u, v):
            failures += 1
            witness = witness or (x, y, u, v)
    record("quadruple", checked, failures, witness)

    # [phi(x,y), [x,y]] = 0 for even-parity pairs
    checked = failures = 0
    witness = None
    pair_iter = (
        itertools.product(range(n), repeat=2)
        if strategy == "exhaustive"
        else ((rng.randrange(n), rng.randrange(n)) for _ in range(samples))
    )
    for x, y in pair_iter:
        if (alg.parity[x] + alg.parity[y]) & 1:
            continue
        checked += 1
        d = _bracket_dict_dict(alg, phi.value(x, y), dict(alg.bracket_indices(x, y)))
        if d:
            failures += 1
            witness = witness or (x, y)
    record("self_pair", checked, failures, witness)

    if simple:
        checked = failures = 0
        witness = None
        pair_iter = (
            itertools.product(range(n), repeat=2)
            if strategy == "exhaustive"
            else ((rng.randrange(n), rng.randrange(n)) for _ in range(samples))
        )
        for x, y in pair_iter:
            if alg.bracket_indices(x, y):
                continue
            checked += 1
            if phi.value(x, y):
                failures += 1
                witness = witness or (x, y)
        record("vanishing_on_zero_brackets", checked, failures, witness)

    return report


# ---------------------------------------------------------------------------
# superderivation spaces (full system)
# ---------------------------------------------------------------------------


def superderivation_space(
    alg: StructureConstantAlgebra,
    z2_degree: int = 0,
    unknown_cap: int = 20000,
) -> List[np.ndarray]:
    """Exact basis of superderivations of one parity, as dense matrices.

    Matrix rows are sources: D(e_l) = sum_k M[l, k] e_k.  The derivation
    law is imposed on every ordered basis pair; every returned matrix is
    re-checked against the law afterwards.
    """
    n = alg.dim
    par = alg.parity
    g = z2_degree & 1
    unknowns = [
        (l, k) for l in range(n) for k in range(n) if par[k] == (par[l] + g) & 1
    ]
    if len(unknowns) > unknown_cap:
        raise ResourceLimitError(
            f"{len(unknowns)} derivation unknowns exceed cap {unknown_cap}"
        )
    D = raw_derivation_map({u: c for c, u in enumerate(unknowns)})
    targets = {q: [k for k in range(n) if par[k] == q] for q in (0, 1)}
    ech = Echelon(len(unknowns), alg.p)
    rows: List[Dict[int, int]] = []
    for b in range(n):
        for c in range(n):
            ks = targets[(par[b] + par[c] + g) & 1]
            rows.extend(law_rows(alg, b, c, ks, D, *derivation_signs(g, par[b])))
            if len(rows) >= 4096:
                ech.add_row_dicts(rows)
                rows = []
    ech.add_row_dicts(rows)
    out = []
    for vec in ech.kernel_basis():
        mat = np.zeros((n, n), dtype=np.int64)
        for cc, u in enumerate(unknowns):
            if vec[cc]:
                mat[u] = vec[cc]
        _assert_derivation(alg, mat, g)
        out.append(mat)
    return out


def _assert_derivation(alg, mat: np.ndarray, g: int):
    images = [
        {int(k): int(mat[l, k]) for k in np.flatnonzero(mat[l])} for l in range(alg.dim)
    ]
    par = alg.parity
    for b in range(alg.dim):
        for c in range(alg.dim):
            if law_defect(alg, b, c, images.__getitem__, *derivation_signs(g, par[b])):
                raise ParameterError(f"returned kernel vector fails the law at ({b},{c})")


# ---------------------------------------------------------------------------
# biderivation solving
# ---------------------------------------------------------------------------


@dataclass
class SolveOptions:
    mode: str = "full"             # "full" | "blocked"
    z2_degree: int = 0
    impose: str = "second"         # "second" (post-check first slot) | "both"
    seed: int = 0
    unknown_cap: int = 200_000
    scaffold_threshold: int = 60   # dim above which blocked mode uses the scaffold
    max_batches: int = 60
    stable_batches: int = 3
    workers: int = 1
    check_samples: int = 2000


@dataclass
class BlockReport:
    key: Key
    unknowns: int
    dim: int
    status: str                    # "exact" | "floor" | "above_floor" | "unsolved"
    equations: int = 0


@dataclass
class BiderResult:
    z2_degree: int
    tables: List[BilinearTable] = field(default_factory=list)
    blocks: List[BlockReport] = field(default_factory=list)
    status: str = "exact"          # "exact" | "inconclusive"
    note: str = ""
    der_reports: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.tables)


def _pair_unknowns(alg, g: int):
    """Canonical unknown list for raw tables: (i, j, k), i <= j, parity ok;
    even diagonals excluded (skew forces them to zero)."""
    n = alg.dim
    par = alg.parity
    out = []
    for i in range(n):
        for j in range(i, n):
            if i == j and not par[i]:
                continue
            want = (par[i] + par[j] + g) & 1
            for k in range(n):
                if par[k] == want:
                    out.append((i, j, k))
    return out


def _tables_from_kernel(alg, g, unknowns, kernel, block_key=None):
    out = []
    for vec in kernel:
        t = BilinearTable(alg, g, block_key)
        for cc in np.flatnonzero(vec):
            i, j, k = unknowns[cc]
            t.set_entry(i, j, k, int(vec[cc]))
        out.append(t)
    return out


def biderivation_exhaustive(alg, opts: SolveOptions) -> BiderResult:
    """Exact solve on the raw unknowns with every identity instance.

    Blocked mode splits unknowns and equations by (weight offset, degree
    offset); full mode is the single block ((), 0).  The first-slot
    identity is post-checked on the kernel and imposed too when it fails
    (always with impose="both").
    """
    g = opts.z2_degree & 1
    n = alg.dim
    par, wt, deg = alg.parity, alg.weight, alg.degree
    blocked = opts.mode == "blocked"
    unknowns = _pair_unknowns(alg, g)
    if not blocked and len(unknowns) > opts.unknown_cap:
        raise ResourceLimitError(
            f"{len(unknowns)} biderivation unknowns exceed cap {opts.unknown_cap}"
        )

    def offset(k: int, idx: Sequence[int]) -> Key:
        if not blocked:
            return ((), 0)
        w = wt[k]
        for i in idx:
            w = alg.wt_sub(w, wt[i])
        return (w, deg[k] - sum(deg[i] for i in idx))

    block_cols: Dict[Key, List[int]] = {}
    for cc, (i, j, k) in enumerate(unknowns):
        block_cols.setdefault(offset(k, (i, j)), []).append(cc)
    phi = raw_pair_map(alg, {u: c for c, u in enumerate(unknowns)})

    def solve(impose_both: bool) -> BiderResult:
        # route every equation instance to its block
        rows: Dict[Key, List[Dict[int, int]]] = {key: [] for key in block_cols}
        for slot in (2, 1) if impose_both else (2,):
            for a, b, c in itertools.product(range(n), repeat=3):
                want = (par[a] + par[b] + par[c] + g) & 1
                targets: Dict[Key, List[int]] = {}
                for k in range(n):
                    if par[k] == want:
                        targets.setdefault(offset(k, (a, b, c)), []).append(k)
                for key, ks in targets.items():
                    # rows of a key without unknowns vanish identically
                    if key in rows:
                        rows[key].extend(slot_rows(alg, g, phi, slot, a, b, c, ks))
        res = BiderResult(z2_degree=g)
        for key in sorted(block_cols, key=lambda kv: (kv[1], kv[0])):
            cols = block_cols[key]
            if len(cols) > opts.unknown_cap:
                res.blocks.append(
                    BlockReport(key=key, unknowns=len(cols), dim=-1, status="unsolved")
                )
                res.status = "inconclusive"
                continue
            local = {cc: i for i, cc in enumerate(cols)}
            ech = Echelon(len(cols), alg.p)
            block_rows = rows[key]
            for lo in range(0, len(block_rows), 2048):
                batch = []
                for row in block_rows[lo : lo + 2048]:
                    if not row.keys() <= local.keys():
                        # a cross-block coefficient would contradict equivariance
                        raise ParameterError("equation crosses block boundary")
                    batch.append({local[cc]: v for cc, v in row.items()})
                ech.add_row_dicts(batch)
            subunknowns = [unknowns[cc] for cc in cols]
            tables = _tables_from_kernel(
                alg, g, subunknowns, ech.kernel_basis(), block_key=key if blocked else None
            )
            res.tables.extend(tables)
            res.blocks.append(
                BlockReport(
                    key=key,
                    unknowns=len(cols),
                    dim=len(tables),
                    status="exact",
                    equations=len(block_rows),
                )
            )
        return res

    res = solve(impose_both=opts.impose == "both")
    if opts.impose != "both" and any(
        first_slot_defect(t, a, b, c)
        for t in res.tables
        for a, b, c in itertools.product(range(n), repeat=3)
    ):
        res = solve(impose_both=True)
        res.note = "first-slot identity imposed after post-check failure"
    return res


def biderivation_space(alg, opts: Optional[SolveOptions] = None) -> BiderResult:
    """Skew-symmetric super-biderivation space of one z2-degree."""
    opts = opts or SolveOptions()
    if opts.mode not in ("full", "blocked"):
        raise ParameterError(f"unknown mode {opts.mode!r}")
    if opts.mode == "full" or alg.dim <= opts.scaffold_threshold:
        return biderivation_exhaustive(alg, opts)
    from .derblocks import biderivation_blocked_scaffold

    return biderivation_blocked_scaffold(alg, opts)


# ---------------------------------------------------------------------------
# built-in oracle corpus
# ---------------------------------------------------------------------------


def make_abelian(dim: int = 2, p: int = 5) -> StructureConstantAlgebra:
    return StructureConstantAlgebra(
        f"abelian{dim}", p,
        parity=[0] * dim,
        degree=[0] * dim,
        weight=[()] * dim,
        table={},
    )


def make_heisenberg(p: int = 5) -> StructureConstantAlgebra:
    # [x, y] = z, z central
    return StructureConstantAlgebra(
        "heisenberg3", p,
        parity=[0, 0, 0],
        degree=[1, 1, 2],
        weight=[(), (), ()],
        table={(0, 1): ((2, 1),)},
    )


def make_sl2(p: int = 5) -> StructureConstantAlgebra:
    # basis e, h, f; [h,e]=2e, [h,f]=-2f, [e,f]=h; weights from ad h
    return StructureConstantAlgebra(
        "sl2", p,
        parity=[0, 0, 0],
        degree=[1, 0, -1],
        weight=[(2 % p,), (0,), ((-2) % p,)],
        table={
            (0, 1): ((0, (-2) % p),),   # <e,h> = -[h,e] = -2e
            (0, 2): ((1, 1),),          # <e,f> = h
            (1, 2): ((2, (-2) % p),),   # <h,f> = -2f
        },
    )


def make_super_heisenberg(p: int = 5) -> StructureConstantAlgebra:
    # one odd generator pair x, y with <x,y> = z, z even central
    return StructureConstantAlgebra(
        "superheis(2|1)", p,
        parity=[1, 1, 0],
        degree=[1, 1, 2],
        weight=[(), (), ()],
        table={(0, 1): ((2, 1),)},
    )


def oracle_corpus(p: int = 5) -> List[StructureConstantAlgebra]:
    return [make_abelian(2, p), make_heisenberg(p), make_sl2(p), make_super_heisenberg(p)]


# ---------------------------------------------------------------------------
# end-to-end verification
# ---------------------------------------------------------------------------


def _waypoint_replay(alg, phi: BilinearTable, lam: int) -> dict:
    """Replay the proportionality waypoints on a computed solution table.

    Checks, with a single global lambda: phi(h, x^{(q e_m)}) = 0 for all
    torus h and exponents q; phi(h, x^{(q e_i)}) proportional to the
    bracket for i != m; phi(h, x_j) for odd j; phi(1, x^{(q e_m)})
    proportional to the bracket.
    """
    space = alg.space
    p = alg.p
    unit = alg.index[space.unit]
    lambdas = set()
    report = {}

    def pure_power(i, q):
        return alg.index[
            space.monomial(tuple(q if c == i - 1 else 0 for c in range(space.m)))
        ]

    def compare(name, a, b):
        rec = report.setdefault(name, {"checked": 0, "failures": 0, "witness": None})
        rec["checked"] += 1
        bracket = dict(alg.bracket_indices(a, b))
        val = phi.value(a, b)
        if not bracket:
            ok = not val
        else:
            want = {k: c * lam % p for k, c in bracket.items() if c * lam % p}
            ok = val == want
            # record the per-position proportionality constant as well
            k0, v0 = next(iter(bracket.items()))
            lambdas.add(val.get(k0, 0) * pow(v0, p - 2, p) % p)
        if not ok:
            rec["failures"] += 1
            if rec["witness"] is None:
                rec["witness"] = (a, b)

    for h in alg.torus_idx:
        for q in range(space.pi[space.m - 1] + 1):
            a, b = h, (unit if q == 0 else pure_power(space.m, q))
            rec = report.setdefault(
                "torus_vs_center_powers", {"checked": 0, "failures": 0, "witness": None}
            )
            rec["checked"] += 1
            if phi.value(a, b) or alg.bracket_indices(a, b):
                rec["failures"] += 1
                if rec["witness"] is None:
                    rec["witness"] = (a, b)

    for h in alg.torus_idx:
        for i in range(1, space.m):
            for q in range(1, space.pi[i - 1] + 1):
                compare("torus_vs_pure_powers", h, pure_power(i, q))
        for j in range(space.m + 1, space.s + 1):
            compare("torus_vs_odd_variables", h, alg.index[space.variable(j)])

    for q in range(1, space.pi[space.m - 1] + 1):
        compare("unit_vs_center_powers", unit, pure_power(space.m, q))

    report["global_lambda"] = {
        "lambda": str(lam),
        "observed": sorted(str(v) for v in lambdas),
        "consistent": lambdas <= {lam},
    }
    report["verdict"] = (
        "pass"
        if lambdas <= {lam}
        and all(
            rec["failures"] == 0
            for name, rec in report.items()
            if isinstance(rec, dict) and "failures" in rec
        )
        else "fail"
    )
    return report


def verify_theorem(alg, opts: Optional[SolveOptions] = None) -> dict:
    """Verify that every skew-symmetric super-biderivation is inner.

    Solves the blocked biderivation space for both z2-degrees and checks:
    every block with nonzero offset has kernel 0, the zero-offset even
    block is one-dimensional with zero residual against the bracket, and
    the odd space vanishes.  Any unsolved or above-floor block makes the
    verdict "inconclusive"; exact oversized solutions give "not inner-only".
    """
    opts = opts or SolveOptions()
    zero_key = ((0,) * alg.wlen, 0)
    per_gamma = {}
    unsolved = []
    oversized = []
    zero_table = None
    total_dim = 0
    for g in (0, 1):
        gopts = SolveOptions(**{**opts.__dict__, "mode": "blocked", "z2_degree": g})
        res = biderivation_space(alg, gopts)
        blocks = []
        for rep in res.blocks:
            blocks.append(
                {
                    "key": [list(map(int, rep.key[0])), int(rep.key[1])],
                    "unknowns": rep.unknowns,
                    "dim": rep.dim,
                    "status": rep.status,
                }
            )
            if rep.status in ("unsolved", "above_floor", "anomaly"):
                unsolved.append((g, rep.key, rep.status))
            elif rep.dim > (1 if (g == 0 and rep.key == zero_key) else 0):
                oversized.append((g, rep.key, rep.dim))
        total_dim += res.dimension
        per_gamma[g] = {"result": res, "blocks": blocks}
        if g == 0:
            for t in res.tables:
                if t.block_key == zero_key or t.block_key is None:
                    if not t.is_zero():
                        zero_table = t
                        break

    lam = 0
    residual_zero = False
    waypoints = None
    if zero_table is not None:
        lam, residual = project_inner(alg, zero_table)
        residual_zero = residual.is_zero()
        if hasattr(alg, "torus_idx") and residual_zero:
            waypoints = _waypoint_replay(alg, zero_table, lam)

    odd_dim = per_gamma[1]["result"].dimension
    even_dim = per_gamma[0]["result"].dimension

    if unsolved:
        verdict = "inconclusive"
    elif oversized or odd_dim > 0 or even_dim != 1 or not residual_zero:
        verdict = "not inner-only"
    elif waypoints is not None and waypoints["verdict"] != "pass":
        verdict = "not inner-only"
    else:
        verdict = "verified"

    # degenerate special case: a zero bracket has no inner line at all
    if verdict == "not inner-only" and even_dim == 0 and odd_dim == 0 and not alg.table:
        verdict = "verified"  # BDer = 0 = IBDer for the zero bracket

    return {
        "verdict": verdict,
        "dim_bder_even": even_dim,
        "dim_bder_odd": odd_dim,
        "lambda": str(lam),
        "residual_zero": residual_zero,
        "unsolved_blocks": [
            {"z2": g, "key": [list(map(int, k[0])), int(k[1])], "status": s}
            for g, k, s in unsolved
        ],
        "oversized_blocks": [
            {"z2": g, "key": [list(map(int, k[0])), int(k[1])], "dim": d}
            for g, k, d in oversized
        ],
        "blocks": {str(g): per_gamma[g]["blocks"] for g in (0, 1)},
        "waypoints": waypoints,
        "seed": opts.seed,
    }


def span_rows_from_tables(alg, g, tables: Sequence[BilinearTable]) -> np.ndarray:
    """Coefficient rows of tables over the canonical unknown list (for span
    comparisons)."""
    unknowns = _pair_unknowns(alg, g)
    col = {u: c for c, u in enumerate(unknowns)}
    rows = np.zeros((len(tables), len(unknowns)), dtype=np.int64)
    for r, t in enumerate(tables):
        for (i, j), cell in t.coeffs.items():
            for k, c in cell.items():
                rows[r, col[(i, j, k)]] = c
    return rows


def spans_equal(alg, g, t1: Sequence[BilinearTable], t2: Sequence[BilinearTable]) -> bool:
    r1 = span_rows_from_tables(alg, g, t1)
    r2 = span_rows_from_tables(alg, g, t2)
    m1, p1 = rref(r1, alg.p)
    m2, p2 = rref(r2, alg.p)
    return p1 == p2 and np.array_equal(m1, m2)
