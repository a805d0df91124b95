"""Exact linear algebra over the rationals.

Vectors are plain lists and matrices are lists of rows, or, for a square
matrix with few nonzeros, a :class:`ColumnMatrix` of column nonzeros.
Entries are Python ints or :class:`fractions.Fraction`; mixed arithmetic
stays exact, and integer entries stay integers (which keeps the hot paths
fast).  There are no matrix products: a matrix only ever acts on a vector
(:func:`mat_vec`, :func:`column_products`).  Rank is computed by sparse
integer elimination after clearing denominators row by row: rows are kept as
dicts of their nonzero entries, so the cost follows the nonzeros rather than
the matrix size, and there are no tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

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


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    out = []
    for row in a:
        acc = 0
        for x, y in zip(row, v):
            if x != 0 and y != 0:
                acc += x * y
        out.append(acc)
    return out


def column_rows(columns: Sequence[Mapping[int, Rational]]) -> list[list[tuple[int, Rational]]]:
    """The rows of the square matrix whose columns are these ``row -> value``
    maps: row i's ``(col, value)`` pairs, in column order."""
    rows: list = [[] for _ in columns]
    for c, col in enumerate(columns):
        for i, x in col.items():
            rows[i].append((c, x))
    return rows


def column_products(columns: Sequence[Mapping[int, Rational]], w: Sequence) -> Vector:
    """``M w`` for the r x r matrix with these ``row -> value`` columns, as
    :func:`mat_vec`: the sum of ``w[c] * columns[c]`` over w's nonzeros."""
    out = [0] * len(columns)
    for col, y in zip(columns, w):
        if y:
            for i, x in col.items():
                out[i] += x * y
    return out


class ColumnMatrix:
    """A read-only square matrix held as its column nonzeros: ``columns[c]``
    maps row -> nonzero entry of column c, so a column that is a single
    diagonal 1 costs one dict item.  The deck action ``rho(g)``, a lifted
    slide's action and a move certificate's matrix are held this way; the
    products read the columns (:func:`column_products`), and the JSON renders
    them row by row (:func:`columns_to_json`).  A lifted slide's columns are
    read-only mappings, and a move certificate's matrix is a fresh list of
    those same objects, shared with the slide memo; the verifier recognises
    them by identity.

    It reads as dense rows: ``len``, iteration and indexing (slices too) give
    a fresh list per row, ``==`` compares by value with dense rows or another
    such matrix, and ``repr`` is that of the rows."""

    __slots__ = ("columns",)

    def __init__(self, columns: list) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[list]:
        return map(self._dense, column_rows(self.columns))

    def __getitem__(self, i):
        columns = self.columns
        rows = range(len(columns))[i]
        if isinstance(i, slice):
            return [[col.get(k, 0) for col in columns] for k in rows]
        return [col.get(rows, 0) for col in columns]

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnMatrix):
            return self.columns == other.columns
        return list(self) == other

    def __repr__(self) -> str:
        return repr(list(self))

    def _dense(self, nonzeros: list) -> list:
        row = [0] * len(self.columns)
        for c, x in nonzeros:
            row[c] = x
        return row


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank over Q of the row span of a matrix given as a list of rows."""
    return sparse_rank({c: x for c, x in enumerate(row) if x} for row in rows)


def sparse_rank(rows: Iterable[Mapping[int, Rational]], *, stop_on_dependent: bool = False) -> int:
    """Exact rank over Q of rows given as ``col -> value`` maps, via sparse
    integer elimination.

    Each row's denominators are cleared, and the resulting dict of nonzero
    ints is reduced against the pivot row of its leading column
    (``v <- a*v - b*p``, then divided by its content gcd) until it is zero or
    becomes a new pivot.  The input rows are not modified.

    With ``stop_on_dependent``, the first row that reduces to zero ends the
    elimination, and no later row is drawn from ``rows``: the answer is the
    number of rows exactly when they are independent, and smaller otherwise."""
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
        else:
            if stop_on_dependent:
                break
    return len(pivots)


def int_if_integral(x: Rational) -> Rational:
    """An int for an integral int or Fraction; any other Fraction unchanged."""
    return x.numerator if x.denominator == 1 else x


def parse_rational(s: str) -> Rational:
    """The int or Fraction that ``s`` spells, as ``Fraction(s.strip())``
    reads it.  An ASCII token ``-?digits`` goes straight to ``int``; every
    other token, and each error message, is ``Fraction``'s."""
    s = s.strip()
    digits = s[1:] if s[:1] == "-" else s
    if digits.isascii() and digits.isdigit():
        return int(s)
    return int_if_integral(Fraction(s))


def vector_to_json(v: Sequence) -> list[str]:
    return list(map(str, v))


def matrix_to_json(a: Matrix) -> list[list[str]]:
    """``str`` of every entry, row by row.

    A row whose entries are all exactly int or Fraction is a copy of
    ``["0"] * len(row)`` with only its nonzeros rendered (a zero int or
    Fraction prints as ``0``), with one text per entry object for the whole
    matrix: the matrix keeps every entry alive, so an id names one value
    throughout.  Any other row (bool, float, an int subclass, ``None``, str)
    is ``list(map(str, row))``."""
    texts: dict[int, str] = {}
    out = []
    for row in a:
        if not set(map(type, row)) <= EXACT_TYPES:
            out.append(list(map(str, row)))
            continue
        line = ["0"] * len(row)
        for c in compress(range(len(row)), row):
            x = row[c]
            text = texts.get(id(x))
            if text is None:
                text = texts[id(x)] = str(x)
            line[c] = text
        out.append(line)
    return out


def columns_to_json(columns: Sequence[Mapping[int, Rational]]) -> list[list[str]]:
    """:func:`matrix_to_json` of the square matrix whose columns are these
    ``row -> value`` maps of ints and Fractions, read from the maps through
    :func:`column_rows` without building dense rows: the same texts."""
    return list(column_texts(columns))


def column_texts(columns: Sequence[Mapping[int, Rational]]) -> Iterator[list[str]]:
    """The rows of :func:`columns_to_json`, one at a time, so a caller that
    writes each row holds one row's texts, not the matrix's."""
    r = len(columns)
    texts: dict[int, str] = {}
    for row in column_rows(columns):
        line = ["0"] * r
        for c, x in row:
            text = texts.get(id(x))
            if text is None:
                text = texts[id(x)] = str(x)
            line[c] = text
        yield line
