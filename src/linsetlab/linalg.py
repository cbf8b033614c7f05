"""Exact dense linear algebra over a field tower.

Matrices are sequences of rows of packed element integers (see gf); all
arithmetic goes through the tower kernel, so entries confined to a subfield
stay in that subfield.  Pivot choice is deterministic: the first nonzero
entry scanning rows top to bottom, columns left to right.
"""

from __future__ import annotations

from typing import Optional, Sequence


def det(tower, rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square matrix, as a packed element (0/1 are themselves)."""
    mat = [list(r) for r in rows]
    n = len(mat)
    if n == 0:
        return 1
    mul, sub, div = tower.mul, tower.sub, tower.div
    result = 1
    negate = False
    for col in range(n):
        piv = None
        for r in range(col, n):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            negate = not negate
        prow = mat[col]
        pval = prow[col]
        result = mul(result, pval)
        for r in range(col + 1, n):
            row = mat[r]
            if row[col]:
                c = div(row[col], pval)
                for k in range(col, n):
                    if prow[k]:
                        row[k] = sub(row[k], mul(c, prow[k]))
    return tower.neg(result) if negate else result


def rref(tower, rows: Sequence[Sequence[int]]):
    """Reduced row echelon form; returns (pivot_columns, nonzero_rows)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    mul, sub, inv = tower.mul, tower.sub, tower.inv
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        c = inv(mat[r][col])
        if c != 1:
            mat[r] = [mul(c, v) for v in mat[r]]
        prow = mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                row = mat[i]
                mat[i] = [sub(a, mul(f, b)) for a, b in zip(row, prow)]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return pivots, [tuple(row) for row in mat[:r]]


def rank(tower, rows: Sequence[Sequence[int]]) -> int:
    """Rank of a matrix over the entry field."""
    pivots, _ = rref(tower, rows)
    return len(pivots)


def nullspace(tower, rows: Sequence[Sequence[int]], ncols: int):
    """Basis of the right kernel {v : M v = 0}, one vector per free column."""
    pivots, red = rref(tower, rows)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = tower.neg(red[r][free])
        basis.append(tuple(vec))
    return basis


def solve(tower, rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Optional[tuple]:
    """One solution of M x = rhs with free variables set to 0, or None."""
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots, red = rref(tower, aug)
    if any(pc == ncols for pc in pivots):
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)

