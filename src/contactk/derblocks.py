"""Blocked biderivation solving for large algebras via a derivation scaffold.

Route, per z2-degree gamma:

1. Solve the superderivation space per (weight offset, degree offset)
   block, with equation rows from derlab.law_rows.  Inner derivations
   ad(e_x) give each block a certified floor (they are independent
   because the center is zero); a block whose kernel reaches that floor
   is solved exactly, a larger kernel is kept as a sound
   over-approximation.

2. Express candidate rows phi(e_i, .) in the computed derivation basis
   (this imposes the second-slot identity on every triple at once), and
   accumulate skew-symmetry equations per block, escalating to explicit
   identity instances when a kernel refuses to drop.  A block is
   finished when its kernel hits the floor spanned by independently
   certified solutions: zero, or the bracket itself in the offset-(0,0)
   even block (certified by an exact residual after projection).

Every imposed equation holds for every true biderivation, so kernels
always contain the true block solution space; floors make the result
exact, and any block stuck above its floor is reported unsolved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .contact import StructureConstantAlgebra
from .derlab import (
    BiderResult,
    BilinearTable,
    BlockReport,
    Key,
    derivation_signs,
    law_rows,
    project_inner,
    raw_derivation_map,
    slot_rows,
)
from .errors import ParameterError
from .linalg import Echelon
from .parallel import mix_seed


def _key_ints(key: Key) -> List[int]:
    mu, d = key
    return [*mu, d & 0xFFFFFFF]


def anchor_indices(alg: StructureConstantAlgebra) -> List[int]:
    """Distinguished basis indices that pin solutions quickly: the unit,
    the torus, the grading element and the generating set when known."""
    out: List[int] = []
    if hasattr(alg, "torus_idx"):
        from .contact import generators

        space = alg.space
        out.append(alg.index[space.unit])
        out.extend(alg.torus_idx)
        out.append(alg.index[space.variable(space.m)])
        out.extend(generators(alg))
    else:
        out.extend(range(min(alg.dim, 8)))
    seen = set()
    uniq = []
    for i in out:
        if i not in seen:
            seen.add(i)
            uniq.append(i)
    return uniq


# ---------------------------------------------------------------------------
# stage 1: blocked superderivation spaces
# ---------------------------------------------------------------------------


@dataclass
class DerVector:
    idx: int
    gp: int                      # z2-degree of the derivation
    key: Key                     # (weight offset, degree offset)
    rows: Dict[int, Tuple[Tuple[int, int], ...]]  # source l -> ((k, v), ...)


@dataclass
class DerBlockReport:
    key: Key
    unknowns: int
    dim: int
    floor: int
    status: str                  # "floor" | "above_floor"
    equations: int


def fill_batch(target: int, draw: Callable[[], list]) -> list:
    """Rows from repeated draw() calls until target rows are pending.

    Gives up after 50 * target draws, so a block whose random draws yield
    no equation ends its random pass instead of spinning.
    """
    pending: list = []
    for _ in range(50 * target):
        if len(pending) >= target:
            break
        pending.extend(draw())
    return pending


def derivation_blocks(
    alg: StructureConstantAlgebra,
    gp: int,
    seed: int,
    anchors: Sequence[int],
    max_batches: int = 40,
    stable_batches: int = 3,
):
    """Sound per-block superderivation bases (exact when floors are hit)."""
    n = alg.dim
    p = alg.p
    par = alg.parity
    wt = alg.weight
    deg = alg.degree
    classes = alg.classes()

    blocks: Dict[Key, List[Tuple[int, int]]] = {}
    for l in range(n):
        want = (par[l] + gp) & 1
        for (w, d, pp), idxs in classes.items():
            if pp != want:
                continue
            key = (alg.wt_sub(w, wt[l]), d - deg[l])
            lst = blocks.setdefault(key, [])
            for k in idxs.tolist():
                lst.append((l, k))

    vectors: List[DerVector] = []
    reports: List[DerBlockReport] = []

    for key in sorted(blocks, key=lambda kv: (kv[1], kv[0])):
        unknowns = sorted(blocks[key])
        U = len(unknowns)
        D = raw_derivation_map({u: c for c, u in enumerate(unknowns)})
        mu, dd = key
        floor = len(classes.get((mu, dd, gp & 1), ()))
        ech = Echelon(U, p)
        rng = random.Random(mix_seed(seed, 11, gp, *_key_ints(key)))
        stable = 0
        batches = 0
        equations = 0
        status = "above_floor"

        def rows_for_pair(b, c):
            nonlocal equations
            kcls = classes.get(
                (
                    alg.wt_add(alg.wt_add(wt[b], wt[c]), mu),
                    deg[b] + deg[c] + dd,
                    (par[b] + par[c] + gp) & 1,
                ),
                None,
            )
            if kcls is None:
                return []
            rows = law_rows(alg, b, c, kcls.tolist(), D, *derivation_signs(gp, par[b]))
            equations += len(rows)
            return rows

        if floor > U:
            raise ParameterError("derivation floor exceeds block size")
        if U and ech.kernel_dim > floor:
            # structured pass: anchors against everything, with early exit
            flush_at = 2 * U + 512
            pending = []
            done = False
            for b in anchors:
                for c in range(n):
                    pending.extend(rows_for_pair(b, c))
                    pending.extend(rows_for_pair(c, b))
                    if len(pending) >= flush_at:
                        ech.add_row_dicts(pending)
                        pending = []
                        if ech.kernel_dim <= floor:
                            done = True
                            break
                if done:
                    break
            if not done:
                ech.add_row_dicts(pending)
            # random passes until the floor or stability
            batch_target = max(128, U // 2)
            while ech.kernel_dim > floor and batches < max_batches and stable < stable_batches:
                batches += 1
                before = ech.kernel_dim
                ech.add_row_dicts(fill_batch(
                    batch_target, lambda: rows_for_pair(rng.randrange(n), rng.randrange(n))
                ))
                stable = stable + 1 if ech.kernel_dim == before else 0
        if ech.kernel_dim < floor:
            raise ParameterError(
                f"derivation kernel below its inner floor in block {key}"
            )
        if ech.kernel_dim == floor:
            status = "floor"
        kern = ech.kernel_basis()
        for vec in kern:
            rows: Dict[int, Dict[int, int]] = {}
            for cc in np.flatnonzero(vec):
                l, k = unknowns[cc]
                rows.setdefault(l, {})[k] = int(vec[cc])
            vectors.append(
                DerVector(
                    idx=-1,
                    gp=gp & 1,
                    key=key,
                    rows={l: tuple(sorted(cell.items())) for l, cell in rows.items()},
                )
            )
        reports.append(
            DerBlockReport(
                key=key,
                unknowns=U,
                dim=kern.shape[0],
                floor=floor,
                status=status,
                equations=equations,
            )
        )
    return vectors, reports


# ---------------------------------------------------------------------------
# stage 2: biderivation blocks over the scaffold
# ---------------------------------------------------------------------------


def _build_context(alg, opts):
    anchors = anchor_indices(alg)
    ders: List[DerVector] = []
    der_reports = {}
    for gp in (0, 1):
        vecs, reps = derivation_blocks(
            alg, gp, opts.seed, anchors,
            max_batches=opts.max_batches, stable_batches=opts.stable_batches,
        )
        ders.extend(vecs)
        der_reports[gp] = reps
    for a, dv in enumerate(ders):
        dv.idx = a
    der_fan: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for dv in ders:
        for l, ent in dv.rows.items():
            for k, v in ent:
                der_fan.setdefault((l, k), []).append((dv.idx, v))
    return {
        "alg": alg,
        "anchors": anchors,
        "ders": ders,
        "der_fan": der_fan,
        "der_reports": der_reports,
    }


def _x_unknown_blocks(ctx, g: int) -> Dict[Key, List[Tuple[int, int]]]:
    alg = ctx["alg"]
    blocks: Dict[Key, List[Tuple[int, int]]] = {}
    par = alg.parity
    wt = alg.weight
    deg = alg.degree
    by_par = {0: [], 1: []}
    for i in range(alg.dim):
        by_par[par[i]].append(i)
    for dv in ctx["ders"]:
        want = (g + dv.gp) & 1
        mu_a, d_a = dv.key
        for i in by_par[want]:
            key = (alg.wt_sub(mu_a, wt[i]), d_a - deg[i])
            blocks.setdefault(key, []).append((i, dv.idx))
    return {key: sorted(v) for key, v in blocks.items()}


def _reconstruct_table(ctx, g, unknowns, vec):
    """Ordered reconstruction + skew fold; returns (table, consistent)."""
    alg = ctx["alg"]
    ders = ctx["ders"]
    p = alg.p
    par = alg.parity
    ordered: Dict[Tuple[int, int], Dict[int, int]] = {}
    for cc in np.flatnonzero(vec):
        i, a = unknowns[cc]
        x = int(vec[cc])
        for l, ent in ders[a].rows.items():
            cell = ordered.setdefault((i, l), {})
            for k, v in ent:
                nv = (cell.get(k, 0) + x * v) % p
                if nv:
                    cell[k] = nv
                else:
                    cell.pop(k, None)
    table = BilinearTable(alg, g)
    consistent = True
    seen = set()
    for (i, l), cell in ordered.items():
        if not cell:
            continue
        a, b = min(i, l), max(i, l)
        if (a, b) in seen:
            continue
        seen.add((a, b))
        fwd = ordered.get((a, b), {})
        rev = ordered.get((b, a), {})
        sign = 1 if par[a] and par[b] else -1
        if a == b:
            if not par[a]:
                if any(v % p for v in fwd.values()):
                    consistent = False
                continue
        elif {k: sign * c % p for k, c in fwd.items()} != {
            k: c % p for k, c in rev.items()
        }:
            consistent = False
        for k, c in fwd.items():
            table.set_entry(a, b, k, c)
    return table, consistent


def _scaffold_pair_map(der_fan, col):
    """phi(i, j, k) over scaffold unknowns col[(i, t)], phi(e_i, .) =
    sum_t x_{i,t} D_t: the (column, coefficient) pairs making up the
    coefficient of e_k in phi(e_i, e_j)."""

    def phi(i: int, j: int, k: int):
        return [
            (cc, w) for t, w in der_fan.get((j, k), ())
            if (cc := col.get((i, t))) is not None
        ]

    return phi


def _solve_x_block(ctx, opts, g: int, key: Key, unknowns) -> tuple:
    """Solve one biderivation block; returns (report_dict, tables)."""
    alg = ctx["alg"]
    p = alg.p
    n = alg.dim
    par = alg.parity
    wt = alg.weight
    deg = alg.degree
    classes = alg.classes()
    der_fan = ctx["der_fan"]
    anchors = ctx["anchors"]
    mu, dd = key
    U = len(unknowns)
    col = {u: c for c, u in enumerate(unknowns)}
    phi = _scaffold_pair_map(der_fan, col)
    rows_of = sorted({i for i, _ in unknowns})
    zero_key = ((0,) * alg.wlen, 0)
    # the bracket is weight/degree-additive, so it lives entirely in the
    # zero-offset even block; it spans a line there iff it is nonzero
    floor = 1 if (g == 0 and key == zero_key and alg.table) else 0
    rng = random.Random(mix_seed(opts.seed, 23, g, *_key_ints(key)))
    ech = Echelon(U, p)
    equations = 0

    def targets(*idx):
        """Block targets k of phi applied to basis indices idx."""
        w, d, pp = mu, dd, g
        for i in idx:
            w = alg.wt_add(wt[i], w)
            d += deg[i]
            pp += par[i]
        kcls = classes.get((w, d, pp & 1))
        return () if kcls is None else kcls.tolist()

    def skew_rows(i, j):
        nonlocal equations
        out = []
        s = -1 if par[i] and par[j] else 1
        for k in targets(i, j):
            row: Dict[int, int] = {}
            if i == j:
                if par[i]:
                    continue  # odd diagonal unconstrained by skew
                for a, v in der_fan.get((i, k), ()):
                    cc = col.get((i, a))
                    if cc is not None:
                        row[cc] = (row.get(cc, 0) + v) % p
            else:
                for a, v in der_fan.get((j, k), ()):
                    cc = col.get((i, a))
                    if cc is not None:
                        row[cc] = (row.get(cc, 0) + s * v) % p
                for a, v in der_fan.get((i, k), ()):
                    cc = col.get((j, a))
                    if cc is not None:
                        row[cc] = (row.get(cc, 0) + v) % p
            row = {cc: v for cc, v in row.items() if v}
            if row:
                out.append(row)
                equations += 1
        return out

    def identity_rows(slot, a, b, c):
        nonlocal equations
        rows = slot_rows(alg, g, phi, slot, a, b, c, targets(a, b, c))
        equations += len(rows)
        return rows

    def finished():
        return ech.kernel_dim <= floor

    # structured skew pass: every block row against the anchors, then
    # the diagonal rows; early exit once the floor is reached
    flush_at = 2 * U + 512
    pending = []
    for i in rows_of:
        for j in anchors:
            pending.extend(skew_rows(i, j))
        pending.extend(skew_rows(i, i))
        if len(pending) >= flush_at:
            ech.add_row_dicts(pending)
            pending = []
            if finished():
                break
    ech.add_row_dicts(pending)

    # randomized escalation, one stage per stall: skew rows (stage 0),
    # then second-slot identity instances (1), then first-slot ones (2)
    stage = 0
    batches = 0
    stable = 0
    batch_target = max(96, U // 2)

    def draw():
        out = []
        if stage == 0:
            i = rows_of[rng.randrange(len(rows_of))]
            out.extend(skew_rows(i, rng.randrange(n)))
        elif stage == 1:
            a = rows_of[rng.randrange(len(rows_of))]
            out.extend(identity_rows(2, a, rng.randrange(n), rng.randrange(n)))
            i = rows_of[rng.randrange(len(rows_of))]
            out.extend(skew_rows(i, rng.randrange(n)))
        else:
            out.extend(
                identity_rows(1, rng.randrange(n), rng.randrange(n), rng.randrange(n))
            )
            a = rows_of[rng.randrange(len(rows_of))]
            out.extend(identity_rows(2, a, rng.randrange(n), rng.randrange(n)))
        return out

    while not finished() and batches < opts.max_batches:
        batches += 1
        before = ech.kernel_dim
        ech.add_row_dicts(fill_batch(batch_target, draw))
        if ech.kernel_dim == before:
            stable += 1
            if stable >= opts.stable_batches:
                if stage < 2:
                    stage += 1
                    stable = 0
                else:
                    break
        else:
            stable = 0

    kern = ech.kernel_basis()
    tables = []
    status = "above_floor"
    if kern.shape[0] == 0:
        status = "floor" if floor == 0 else "anomaly"
    else:
        ok_all = True
        for vec in kern:
            table, consistent = _reconstruct_table(ctx, g, unknowns, vec)
            ok_all = ok_all and consistent
            tables.append(table)
        if kern.shape[0] == floor == 1 and ok_all:
            lam, residual = project_inner(alg, tables[0])
            status = "floor" if (lam and residual.is_zero()) else "anomaly"
        elif kern.shape[0] <= floor:
            status = "anomaly" if kern.shape[0] < floor else status

    report = {
        "key": key,
        "unknowns": U,
        "dim": int(kern.shape[0]),
        "floor": floor,
        "status": status,
        "equations": equations,
    }
    return report, tables


def _block_task(shared, key):
    ctx, opts, g, xblocks = shared
    return _solve_x_block(ctx, opts, g, key, xblocks[key])


def biderivation_blocked_scaffold(alg, opts) -> BiderResult:
    """Blocked biderivation space of one z2-degree via the scaffold."""
    from .parallel import parallel_map

    g = opts.z2_degree & 1
    # the scaffold depends on the seed and on the batch limits, nothing else
    cache_key = (opts.seed, opts.max_batches, opts.stable_batches)
    cached = getattr(alg, "_scaffold_ctx", None)
    if cached is None or cached[0] != cache_key:
        cached = (cache_key, _build_context(alg, opts))
        alg._scaffold_ctx = cached
    ctx = cached[1]
    xblocks = _x_unknown_blocks(ctx, g)
    over_cap = {
        key: v for key, v in xblocks.items() if len(v) > opts.unknown_cap
    }
    keys = sorted(
        (key for key in xblocks if key not in over_cap),
        key=lambda kv: (kv[1], kv[0]),
    )
    results = parallel_map((ctx, opts, g, xblocks), _block_task, keys, opts.workers)

    res = BiderResult(z2_degree=g)
    for key, (report, tables) in zip(keys, results):
        # above-floor tables are kept too: they are the sound
        # over-approximation showing what remained unresolved
        res.tables.extend(tables)
        if report["status"] in ("above_floor", "anomaly"):
            res.status = "inconclusive"
        res.blocks.append(
            BlockReport(
                key=key,
                unknowns=report["unknowns"],
                dim=report["dim"],
                status=report["status"],
                equations=report["equations"],
            )
        )
    for key, v in sorted(over_cap.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        res.status = "inconclusive"
        res.blocks.append(
            BlockReport(key=key, unknowns=len(v), dim=-1, status="unsolved")
        )
    res.der_reports = ctx["der_reports"]
    return res
