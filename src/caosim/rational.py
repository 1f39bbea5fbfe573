"""Exact integer linear algebra: the left null space of an integer matrix.

One fraction-free Gauss–Jordan elimination on the transpose (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968): a row is combined with the pivot row
as a·row − b·pivot and divided by the gcd of its entries, so every entry
stays an integer and small. Pivoting is deterministic — first nonzero entry
in the current column — and the reduced row echelon form is unique, so the
basis is the one that exact rational elimination would give, scaled to
primitive integer rows.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence


def left_null_space(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Basis of {w : wᵀM = 0}, one row per free column of Mᵀ, in column order.

    Each row is primitive: its entries are coprime integers and its leading
    nonzero entry is positive. An empty matrix (no rows) has no dimension.
    """
    if not matrix:
        raise ValueError("cannot infer dimension from an empty matrix")
    width = len(matrix[0])
    if any(len(row) != width for row in matrix):
        raise ValueError("ragged matrix")
    m = len(matrix)
    rows = [list(col) for col in zip(*matrix) if any(col)]
    pivots: list[int] = []
    for c in range(m):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot = rows[r]
        for i, row in enumerate(rows):
            if row[c] and i != r:
                g = gcd(pivot[c], row[c])
                a, b = pivot[c] // g, row[c] // g
                row = [a * x - b * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    # Row r now reads d_r·x_{c_r} + Σ_f a[r][f]·x_f = 0 over the free columns
    # f; x_f = L, the lcm of the pivots d_r, makes every x_{c_r} an integer.
    scale = lcm(*(row[c] for row, c in zip(rows, pivots)))
    factors = [scale // row[c] for row, c in zip(rows, pivots)]
    basis = []
    for f in sorted(set(range(m)).difference(pivots)):
        vec = [0] * m
        vec[f] = scale
        for c, row, k in zip(pivots, rows, factors):
            vec[c] = -row[f] * k
        g = gcd(*vec)
        if next(x for x in vec if x) < 0:
            g = -g
        basis.append(tuple(x // g for x in vec))
    return tuple(basis)
