"""The integer left null space, checked against exact Fraction elimination
and sympy.

The Fraction code below is the rational elimination that ``caosim.rational``
replaced with a fraction-free one. It stays here, unchanged, as the oracle:
the tests after it check it against sympy, and the new elimination against it.
"""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from caosim import derive, parse, rational
from conftest import GROWING_CYCLE_TEXT, package_imports


# --- The oracle: exact rational elimination ----------------------------------


Vector = tuple[Fraction, ...]
Matrix = Sequence[Sequence[int | Fraction]]


def _to_rows(matrix: Matrix) -> list[list[Fraction]]:
    rows = [[Fraction(x) for x in row] for row in matrix]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
    return rows


def rref(matrix: Matrix) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form.

    Returns (rows, pivot_columns). Pivot selection is the first row with a
    nonzero entry in the current column.
    """
    rows = _to_rows(matrix)
    if not rows:
        return (), ()
    n_cols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def null_space(matrix: Matrix) -> tuple[Vector, ...]:
    """Basis of {x : M x = 0}, one vector per free column, in column order.

    An empty matrix (no rows) has no constraints; callers must pass at least
    one row to fix the dimension.
    """
    rows = _to_rows(matrix)
    if not rows:
        raise ValueError("cannot infer dimension from an empty matrix")
    n_cols = len(rows[0])
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis: list[Vector] = []
    for f in free_cols:
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            # row r reads x_c + sum(reduced[r][j] * x_j for free j) = 0
            vec[c] = -reduced[r][f]
        basis.append(tuple(vec))
    return tuple(basis)


def left_null_space(matrix: Matrix) -> tuple[Vector, ...]:
    """Basis of {w : w^T M = 0}."""
    rows = _to_rows(matrix)
    if not rows:
        raise ValueError("cannot infer dimension from an empty matrix")
    transposed = [list(col) for col in zip(*rows)]
    return null_space(transposed)


def primitive(vec: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers with positive leading sign."""
    fracs = [Fraction(x) for x in vec]
    if not any(fracs):
        raise ValueError("the zero vector has no primitive representative")
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def dot(a: Sequence[int | Fraction], b: Sequence[int | Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


# --- The oracle, and the oracle against sympy --------------------------------


def test_rref_of_identity_is_identity():
    eye = [[1, 0], [0, 1]]
    rows, pivots = rref(eye)
    assert rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert pivots == (0, 1)


def test_rref_handles_rectangular_and_dependent_rows():
    rows, pivots = rref([[2, 4, 6], [1, 2, 3], [0, 0, 5]])
    assert pivots == (0, 2)
    assert rows[0] == (1, 2, 0)
    assert rows[1] == (0, 0, 1)


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        rref([[1, 2], [3]])


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        null_space([])


def test_null_space_of_simple_projection():
    # x + 2y = 0 has the one-dimensional solution space spanned by (-2, 1)
    basis = null_space([[1, 2]])
    assert len(basis) == 1
    assert basis[0][0] / basis[0][1] == Fraction(-2)


def test_primitive_clears_denominators_and_signs():
    assert primitive((Fraction(-1, 2), Fraction(3, 4), Fraction(0))) == (2, -3, 0)
    assert primitive((Fraction(4), Fraction(6))) == (2, 3)
    with pytest.raises(ValueError):
        primitive((Fraction(0), Fraction(0)))


def test_dot_is_exact():
    assert dot((Fraction(1, 3), 3), (3, Fraction(1, 3))) == 2


def _random_int_matrix(rng: random.Random, rows: int, cols: int):
    return [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
def test_null_space_vectors_annihilate(seed, rows, cols):
    rng = random.Random(seed)
    matrix = _random_int_matrix(rng, rows, cols)
    for vec in null_space(matrix):
        assert any(vec), "basis vectors must be nonzero"
        for row in matrix:
            assert dot(row, vec) == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
def test_left_null_space_annihilates_from_the_left(seed, rows, cols):
    rng = random.Random(seed)
    matrix = _random_int_matrix(rng, rows, cols)
    for w in left_null_space(matrix):
        for j in range(cols):
            assert sum(Fraction(w[i]) * matrix[i][j] for i in range(rows)) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
def test_null_space_dimension_matches_sympy(seed, rows, cols):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    matrix = _random_int_matrix(rng, rows, cols)
    ours = null_space(matrix)
    theirs = sympy.Matrix(matrix).nullspace()
    assert len(ours) == len(theirs)
    # and our vectors lie in sympy's span: rank doesn't grow when appended
    if ours:
        stacked = sympy.Matrix([[*map(sympy.Rational, v)] for v in ours])
        reference = sympy.Matrix([list(v.T) for v in theirs])
        combined = reference.col_join(stacked)
        assert combined.rank() == reference.rank()


# --- The integer elimination against the oracle and sympy --------------------


def oracle_left_null_space(matrix: Matrix) -> tuple[tuple[int, ...], ...]:
    """The rows ``conserved_weights`` returned before elimination went
    fraction-free."""
    return tuple(primitive(v) for v in left_null_space(matrix))


def check_left_null_space(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """``rational.left_null_space(matrix)``, after checking that it equals the
    oracle row for row and that every row is primitive and annihilates."""
    basis = rational.left_null_space(matrix)
    assert basis == oracle_left_null_space(matrix)
    for w in basis:
        assert all(type(x) is int for x in w)
        assert gcd(*w) == 1 and next(x for x in w if x) > 0
        for column in zip(*matrix):
            assert sum(wi * x for wi, x in zip(w, column)) == 0
    return basis


def sympy_nullity(matrix: Sequence[Sequence[int]]) -> int:
    """The dimension of sympy's basis of {w : wᵀM = 0}."""
    sympy = pytest.importorskip("sympy")
    return len(sympy.Matrix(matrix).T.nullspace())


@st.composite
def integer_matrices(draw):
    """Integer matrices with entries up to 10**12, with zero rows, zero
    columns and rows that are combinations of other rows mixed in."""
    n_rows, n_cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**12), 10**12))
    m = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero row", "zero column", "combination"]))
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
        if kind == "zero row":
            m[i] = [0] * n_cols
        elif kind == "zero column":
            for row in m:
                row[j] = 0
        else:
            p, q = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_rows - 1))
            a, b = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
            m[i] = [a * x + b * y for x, y in zip(m[p], m[q])]
    return m


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_left_null_space_matches_the_oracle_and_sympy(matrix):
    assert len(check_left_null_space(matrix)) == sympy_nullity(matrix)


@settings(max_examples=200, deadline=None)
@given(integer_matrices(), st.randoms(use_true_random=False))
def test_canonical_basis_recovers_the_basis_from_any_other(matrix, rng):
    basis = rational.left_null_space(matrix)
    # another basis of the same space: each row scaled, then added to
    # multiples of the rows before it, then all shuffled
    mixed = []
    for w in basis:
        scale = rng.choice([-3, -2, -1, 1, 2, 5])
        row = [scale * x for x in w]
        for other in mixed:
            k = rng.randint(-4, 4)
            row = [x + k * y for x, y in zip(row, other)]
        mixed.append(row)
    rng.shuffle(mixed)
    assert rational.canonical_basis(mixed, len(matrix)) == basis


def test_canonical_basis_of_corner_cases():
    assert rational.canonical_basis([], 3) == ()
    # pivots at the last nonzero column, sorted, signed by the first entry
    assert rational.canonical_basis([[0, -2, 4], [3, 0, 0]], 3) == ((1, 0, 0), (0, 1, -2))
    assert rational.canonical_basis([[1, 1], [1, 2]], 2) == ((1, 0), (0, 1))


def test_left_null_space_of_corner_cases():
    assert check_left_null_space([[0]]) == ((1,),)
    assert check_left_null_space([[5]]) == ()
    assert check_left_null_space([[0, 0], [0, 0]]) == ((1, 0), (0, 1))
    assert check_left_null_space([[2, 4, 6], [1, 2, 3], [0, 0, 5]]) == ((1, -2, 0),)
    assert check_left_null_space([[-3], [2]]) == ((2, 3),)


def test_left_null_space_rejects_empty_and_ragged_matrices():
    with pytest.raises(ValueError, match="empty"):
        rational.left_null_space([])
    with pytest.raises(ValueError, match="ragged"):
        rational.left_null_space([[1, 2], [3]])


def test_transitions_of_random_caos_match_the_oracle(fuzz_corpus):
    for n, (spec, _) in enumerate(fuzz_corpus):
        transition = derive(spec).transition()
        basis = check_left_null_space(transition)
        if n % 50 == 0:
            assert len(basis) == sympy_nullity(transition)


# two entities passing parts back and forth: a + b never changes
CONSERVATIVE_CYCLE_TEXT = """\
cao swing {
  initial a
  intermediate b
  L (a:2) -> (b:2)
  L (b:3) -> (a:3)
}
"""


@pytest.mark.parametrize(
    "text, weights",
    [(GROWING_CYCLE_TEXT, ()), (CONSERVATIVE_CYCLE_TEXT, ((1, 1),))],
    ids=["growing", "conservative"],
)
def test_transitions_of_cyclic_caos_match_the_oracle(text, weights):
    transition = derive(parse(text, allow_cycles=True)).transition()
    basis = check_left_null_space(transition)
    assert len(basis) == sympy_nullity(transition)
    assert basis == weights


def test_rational_imports_no_fractions_and_no_other_caosim_module():
    # the elimination stays in integers, and stands on its own
    assert package_imports("rational") == set()
    tree = ast.parse(Path(rational.__file__).read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    imported |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in {name.split(".")[0] for name in imported}
