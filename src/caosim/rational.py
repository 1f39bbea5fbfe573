"""Exact integer linear algebra: the left null space of an integer matrix.

One fraction-free Gauss–Jordan elimination, :func:`_eliminate` (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968): a row is combined with the pivot row
as a·row − b·pivot and divided by the gcd of its entries, so every entry
stays an integer and small. Pivoting is deterministic — first nonzero entry
in the current column — and the reduced row echelon form is unique, so the
basis is the one that exact rational elimination would give, scaled to
primitive integer rows.

:func:`left_null_space` runs it on the transpose, over the columns in
order. :func:`canonical_basis` runs it on a basis of a null space found
some other way, over the columns in reverse order, and so gives the rows
:func:`left_null_space` would give for that space.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence


def _eliminate(rows: list[list[int]], columns: Iterable[int]) -> list[int]:
    """Reduce ``rows`` in place to reduced row echelon form, visiting
    ``columns`` in the order given; returns the pivot column of each leading
    row. A combined row is divided by the gcd of its entries."""
    pivots: list[int] = []
    for c in columns:
        r = len(pivots)
        if r == len(rows):
            break
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
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
    return pivots


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """``vec`` divided by the gcd of its entries, signed so that its first
    nonzero entry is positive."""
    g = gcd(*vec)
    if next(filter(None, vec)) < 0:
        g = -g
    return tuple(vec) if g == 1 else tuple(x // g for x in vec)


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
    pivots = _eliminate(rows, range(m))
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
        basis.append(_primitive(vec))
    return tuple(basis)


def canonical_basis(rows: Sequence[Sequence[int]], width: int) -> tuple[tuple[int, ...], ...]:
    """The basis :func:`left_null_space` gives for the span of ``rows``.

    ``rows`` must be linearly independent integer vectors of length
    ``width`` spanning a whole left null space. :func:`left_null_space`'s
    row for a free column f is the null vector that is nonzero at f and
    zero at every other free column, and its free columns are the pivots of
    the null space's reduced echelon form taken over the columns in reverse
    order (the complement of the first basis of a matroid, read from the
    left, is the last basis of its dual, read from the right). So the rows
    are reduced over the columns in reverse order, each made primitive with
    a positive leading entry, and sorted by their pivot column.
    """
    reduced = [list(row) for row in rows]
    pivots = _eliminate(reduced, range(width - 1, -1, -1))
    return tuple(_primitive(row) for _, row in sorted(zip(pivots, reduced)))
