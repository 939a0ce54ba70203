"""Exact dense elimination and kernels over F_p.

Everything is integer arithmetic on canonical residues; no floating
point enters any result.  (One fast path multiplies residue matrices
inside float64 BLAS, which is exact as long as an inner product cannot
reach 2**53; the guard is explicit.)

Every solver block in this project has well under 2,000 columns, so
dense row reduction serves them all: a one-shot rref(), and Echelon,
which absorbs equation batches incrementally.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DimensionError


def _as_residues(a, p: int) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64) % p
    return arr


def rref(a, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form mod p. Returns (nonzero rows, pivot columns)."""
    mat = _as_residues(a, p).copy()
    if mat.ndim != 2:
        raise DimensionError("rref expects a 2-d matrix")
    rows, cols = mat.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = mat[r:, c]
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            mat[[r, i]] = mat[[i, r]]
        inv = pow(int(mat[r, c]), p - 2, p)
        if inv != 1:
            mat[r] = mat[r] * inv % p
        hits = np.flatnonzero(mat[:, c])
        hits = hits[hits != r]
        if hits.size:
            mat[hits] = (mat[hits] - np.outer(mat[hits, c], mat[r])) % p
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def kernel_from_rref(red: np.ndarray, pivots: Sequence[int], cols: int, p: int) -> np.ndarray:
    """Canonical kernel basis (rows, leading coefficient 1) from an RREF."""
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for row, f in enumerate(free):
        basis[row, f] = 1
        for j, c in enumerate(pivots):
            basis[row, c] = (-int(red[j, f])) % p
    canon, _ = rref(basis, p)
    return canon


def rank(a, p: int) -> int:
    return len(rref(a, p)[1])


class Echelon:
    """Incrementally maintained RREF over a fixed column count.

    add_rows() reduces a batch against the current pivots (BLAS fast
    path when the modulus allows an exact float64 inner product),
    row-reduces the remainder, and merges.  Deterministic given the
    order in which rows arrive.
    """

    def __init__(self, ncols: int, p: int):
        self.ncols = ncols
        self.p = p
        self.mat = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: List[int] = []
        # float64 dot products of residue rows stay exact below 2**53
        self._blas_ok = (p - 1) ** 2 * max(ncols, 1) < 2**53

    @property
    def nrows(self) -> int:
        return self.mat.shape[0]

    @property
    def kernel_dim(self) -> int:
        return self.ncols - self.nrows

    def reduce_rows(self, batch: np.ndarray) -> np.ndarray:
        """Batch reduced modulo the current row space (batch unchanged)."""
        batch = _as_residues(batch, self.p)
        if self.nrows == 0 or batch.size == 0:
            return batch.copy()
        factors = batch[:, self.pivots]
        if self._blas_ok:
            prod = factors.astype(np.float64) @ self.mat.astype(np.float64)
            prod = prod.astype(np.int64) % self.p
        else:
            prod = (factors @ self.mat) % self.p
        return (batch - prod) % self.p

    def add_rows(self, batch: np.ndarray) -> int:
        """Absorb a batch of rows; returns the rank increase."""
        reduced = self.reduce_rows(batch)
        live = reduced.any(axis=1)
        if not live.any():
            return 0
        reduced = reduced[live]
        new, new_piv = rref(reduced, self.p)
        if not new_piv:
            return 0
        # eliminate new pivot columns from the old rows, then merge sorted
        if self.nrows:
            factors = self.mat[:, new_piv]
            if factors.any():
                self.mat = (self.mat - factors @ new) % self.p
        merged = np.concatenate([self.mat, new], axis=0)
        pivs = self.pivots + new_piv
        order = np.argsort(pivs, kind="stable")
        self.mat = merged[order]
        self.pivots = [pivs[i] for i in order]
        return len(new_piv)

    def add_row_dicts(self, rows: Sequence[Dict[int, int]]) -> int:
        """add_rows() for sparse rows given as {column: residue} dicts."""
        if not rows:
            return 0
        dense = np.zeros((len(rows), self.ncols), dtype=np.int64)
        for r, row in enumerate(rows):
            for cc, v in row.items():
                dense[r, cc] = v
        return self.add_rows(dense)

    def kernel_basis(self) -> np.ndarray:
        return kernel_from_rref(self.mat, self.pivots, self.ncols, self.p)

    def contains(self, row) -> bool:
        """Whether a vector lies in the row space."""
        red = self.reduce_rows(np.asarray(row, dtype=np.int64)[None, :])
        return not red.any()
