"""Exact linear algebra over the rationals.

Vectors are plain lists and matrices are lists of rows.  Entries are Python
ints or :class:`fractions.Fraction`; mixed arithmetic stays exact, and integer
entries stay integers (which keeps the hot paths fast).  Rank is computed by
sparse integer elimination after clearing denominators row by row: rows are
kept as dicts of their nonzero entries, so the cost follows the nonzeros
rather than the matrix size, and there are no tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

Rational = Union[int, Fraction]
# the types whose arithmetic is exact; a subclass is not one of them
EXACT_TYPES = frozenset({int, Fraction})
Vector = list
Matrix = list


def vec_sub(u: Sequence, v: Sequence) -> Vector:
    return [a - b for a, b in zip(u, v)]


def vec_scale(c: Rational, v: Sequence) -> Vector:
    return [c * a for a in v]


def vec_is_zero(v: Sequence) -> bool:
    return all(a == 0 for a in v)


def mat_identity(k: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [vec_sub(ra, rb) for ra, rb in zip(a, b)]


def mat_is_zero(a: Matrix) -> bool:
    return all(vec_is_zero(row) for row in a)


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


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank over Q of the row span of a matrix given as a list of rows."""
    return sparse_rank({c: x for c, x in enumerate(row) if x} for row in rows)


def sparse_rank(rows: Iterable[Mapping[int, Rational]]) -> int:
    """Exact rank over Q of rows given as ``col -> value`` maps, via sparse
    integer elimination.

    Each row's denominators are cleared, and the resulting dict of nonzero
    ints is reduced against the pivot row of its leading column
    (``v <- a*v - b*p``, then divided by its content gcd) until it is zero or
    becomes a new pivot.  The input rows are not modified."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        den = lcm(*(x.denominator for x in row.values()))
        v = {c: int(x * den) for c, x in row.items() if x}
        while v:
            lead = min(v)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = v
                break
            g = gcd(p[lead], v[lead])
            a, b = p[lead] // g, v[lead] // g
            if a != 1:
                v = {c: a * x for c, x in v.items()}
            for c, x in p.items():
                y = v.get(c, 0) - b * x
                if y:
                    v[c] = y
                else:
                    del v[c]
            g = gcd(*v.values())
            if g > 1:
                v = {c: x // g for c, x in v.items()}
    return len(pivots)


def format_rational(x: Rational) -> str:
    """Render ``3`` or ``-3/4`` with ``str``: an int or a Fraction with
    denominator 1 never picks up a denominator, and a float keeps its digits."""
    return str(x)


def int_if_integral(x: Rational) -> Rational:
    """An int for an integral int or Fraction; any other Fraction unchanged."""
    return x.numerator if x.denominator == 1 else x


def parse_rational(s: str) -> Rational:
    return int_if_integral(Fraction(s.strip()))


def vector_to_json(v: Sequence) -> list[str]:
    # format_rational, with the call inlined for speed
    return list(map(str, v))


def matrix_to_json(a: Matrix) -> list[list[str]]:
    """``str`` of every entry, row by row.

    A row whose entries are all exactly int or Fraction starts as a copy of
    ``["0"] * len(row)``, and only its nonzeros are rendered (a zero int or
    Fraction prints as ``0``).  Their texts are shared by object id: the
    matrix keeps every entry alive, so an id names one value throughout.  Any
    other row (bool, float, an int subclass, ``None``, str) is
    ``list(map(str, row))``."""
    texts: dict[int, str] = {}
    out = []
    for row in a:
        if set(map(type, row)) <= EXACT_TYPES:
            line = ["0"] * len(row)
            for c in compress(range(len(row)), row):
                x = row[c]
                text = texts.get(id(x))
                if text is None:
                    text = texts[id(x)] = str(x)
                line[c] = text
        else:
            line = list(map(str, row))
        out.append(line)
    return out
