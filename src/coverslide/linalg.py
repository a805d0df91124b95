"""Exact linear algebra over the rationals.

Vectors are plain lists and matrices are lists of rows.  Entries are Python
ints or :class:`fractions.Fraction`; mixed arithmetic stays exact, and integer
entries stay integers (which keeps the hot paths fast).  Rank is computed by
fraction-free (Bareiss) elimination after clearing denominators row by row, so
there are no tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence, Union

Rational = Union[int, Fraction]
Vector = list
Matrix = list


def vec_add(u: Sequence, v: Sequence) -> Vector:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: Sequence, v: Sequence) -> Vector:
    return [a - b for a, b in zip(u, v)]


def vec_scale(c: Rational, v: Sequence) -> Vector:
    return [c * a for a in v]


def vec_is_zero(v: Sequence) -> bool:
    return all(a == 0 for a in v)


def mat_identity(k: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_zero(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [vec_sub(ra, rb) for ra, rb in zip(a, b)]


def mat_scale(c: Rational, a: Matrix) -> Matrix:
    return [vec_scale(c, row) for row in a]


def mat_is_zero(a: Matrix) -> bool:
    return all(vec_is_zero(row) for row in a)


def mat_trace(a: Matrix) -> Rational:
    return sum(a[i][i] for i in range(len(a)))


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    out = []
    for row in a:
        acc = 0
        for x, y in zip(row, v):
            if x != 0 and y != 0:
                acc += x * y
        out.append(acc)
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    # zero-skipping triple loop; the matrices here are small but often sparse
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai, oi = a[i], out[i]
        for k in range(inner):
            x = ai[k]
            if x == 0:
                continue
            bk = b[k]
            for j in range(cols):
                y = bk[j]
                if y != 0:
                    oi[j] = oi[j] + x * y
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Clear denominators row by row (rank is unchanged)."""
    cleared = []
    for row in rows:
        den = 1
        for x in row:
            if isinstance(x, Fraction):
                den = den * x.denominator // gcd(den, x.denominator)
        if den == 1:
            cleared.append([int(x) for x in row])
        else:
            cleared.append([int(x * den) for x in row])
    return cleared


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank of the row span, via fraction-free Bareiss elimination."""
    if not rows:
        return 0
    m = _integer_rows(rows)
    nrows, ncols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            mrc = m[r][c]
            mi, mr = m[i], m[r]
            for j in range(c + 1, ncols):
                mi[j] = (mi[j] * mrc - mic * mr[j]) // prev
            mi[c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def format_rational(x: Rational) -> str:
    """Render ``3`` or ``-3/4``; integers never pick up a denominator."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


def parse_rational(s: str) -> Rational:
    f = Fraction(s.strip())
    return int(f) if f.denominator == 1 else f


def vector_to_json(v: Sequence) -> list[str]:
    return [format_rational(x) for x in v]


def matrix_to_json(a: Matrix) -> list[list[str]]:
    return [vector_to_json(row) for row in a]
