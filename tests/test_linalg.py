from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coverslide import Word, builtin_group, cycle_basis, linalg, make_cover, standard_images
from coverslide.cwcheck import elevation_rank_obstruction
from coverslide.linalg import (
    ColumnMatrix,
    column_rows,
    int_if_integral,
    columns_to_json,
    matrix_to_json,
    parse_rational,
    rank,
    sparse_rank,
    vector_to_json,
)

from helpers import mat_mul


def naive_rank(rows):
    """Textbook Gauss elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def bareiss_rank(rows):
    """Fraction-free (Bareiss) elimination on denominator-cleared rows."""
    if not rows:
        return 0
    m = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row))
        m.append([int(x * den) for x in row])
    nrows, ncols = len(m), len(m[0])
    r, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            mic, mrc = m[i][c], m[r][c]
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * mrc - mic * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


entries = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)


@st.composite
def matrices(draw):
    """Low-rank products, padded with zero rows and duplicated rows, in wide
    and tall shapes; sparse entries are common."""
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 8))
    inner = draw(st.integers(1, 8))
    sparse = st.one_of(st.just(0), entries)
    a = draw(st.lists(st.lists(sparse, min_size=inner, max_size=inner), min_size=nrows, max_size=nrows))
    b = draw(st.lists(st.lists(sparse, min_size=ncols, max_size=ncols), min_size=inner, max_size=inner))
    rows = mat_mul(a, b)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    for _ in range(draw(st.integers(0, 2))):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    return rows


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_gauss_and_bareiss(rows):
    expected = naive_rank(rows)
    assert rank(rows) == expected
    assert bareiss_rank(rows) == expected
    transposed = [list(col) for col in zip(*rows)]
    assert rank(transposed) == expected
    # sparse rows: nonzeros only, and with explicit zeros kept
    assert sparse_rank({c: x for c, x in enumerate(row) if x} for row in rows) == expected
    assert sparse_rank([dict(enumerate(row)) for row in transposed]) == expected


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_stop_on_dependent_stops_at_the_first_dependent_row(rows):
    """The rows before the first one in the span of those before it are
    ranked, and no later row is drawn; with no such row, the full rank."""
    first = next((k for k in range(len(rows)) if naive_rank(rows[: k + 1]) == k), None)
    drawn = []

    def sparse_rows():
        for row in rows:
            drawn.append(row)
            yield {c: x for c, x in enumerate(row) if x}

    stop = sparse_rank(sparse_rows(), stop_on_dependent=True)
    if first is None:
        assert stop == naive_rank(rows) == len(rows) == len(drawn)
    else:
        assert stop == first < len(rows)
        assert len(drawn) == first + 1


@st.composite
def column_matrices(draw):
    r = draw(st.integers(0, 7))
    sparse = st.one_of(st.just(0), st.just(0), entries)
    dense = draw(st.lists(st.lists(sparse, min_size=r, max_size=r), min_size=r, max_size=r))
    columns = [{i: dense[i][c] for i in range(r) if dense[i][c]} for c in range(r)]
    return dense, ColumnMatrix(columns)


@settings(max_examples=200, deadline=None)
@given(column_matrices(), st.data())
def test_column_matrix_rows_match_the_dense_rows(matrix, data):
    """Indexing, slicing (negative bounds and steps too) and iteration read
    the dense rows; an index reads only its own row, without the all-rows
    pass that iteration makes."""
    dense, m = matrix
    r = len(dense)
    assert list(m) == dense
    bound = st.none() | st.integers(-r - 2, r + 2)
    step = st.none() | st.integers(-3, 3).filter(bool)
    k = slice(data.draw(bound), data.draw(bound), data.draw(step))
    with mock.patch.object(linalg, "column_rows", side_effect=AssertionError("all rows built")):
        assert [m[i] for i in range(-r, r)] == dense + dense
        assert m[k] == dense[k]
        for i in (r, -r - 1):
            with pytest.raises(IndexError):
                m[i]


def test_rank_edge_shapes():
    assert rank([]) == 0
    assert rank([[]]) == 0
    assert rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert rank([[Fraction(1, 3), Fraction(2, 3)], [1, 2]]) == 1
    assert rank([[1, 0, 0, 5], [2, 0, 0, 10], [0, 0, 7, 0]]) == 2
    assert rank([[x] for x in (0, 3, Fraction(-1, 2))]) == 1


def test_rank_leaves_rows_unchanged():
    rows = [[2, 4, Fraction(1, 2)], [1, 2, Fraction(1, 4)], [0, 0, 1]]
    copy = [list(r) for r in rows]
    assert rank(rows) == 2
    assert rows == copy
    sparse = [{0: 2, 1: 4, 2: Fraction(1, 2)}, {0: 1, 1: 2, 2: Fraction(1, 4)}, {2: 1}]
    sparse_copy = [dict(r) for r in sparse]
    assert sparse_rank(sparse) == 2
    assert sparse == sparse_copy


def test_cyclic512_elevation_orbit_rank():
    # a 512 x 1025 orbit matrix with about one nonzero a row, the shape the
    # sparse elimination is built for
    G = builtin_group("cyclic", 512)
    Y = make_cover(G, standard_images(G, 3))
    B = cycle_basis(Y)
    assert elevation_rank_obstruction(Y, B, Word.from_string("a3")).orbit_rank == 512


def test_one_text_for_a_rational():
    values = [0, 3, -3, Fraction(-3, 4), Fraction(6, 2), 0.5, -2.75]
    text = ["0", "3", "-3", "-3/4", "3", "0.5", "-2.75"]
    assert [str(x) for x in values] == text
    assert vector_to_json(values) == text
    assert matrix_to_json([values, values]) == [text, text]
    parsed = [parse_rational(t) for t in text[:5]]
    assert parsed == values[:5]
    assert [type(x) for x in parsed] == [int, int, int, Fraction, int]


DIGITS = st.text(st.sampled_from("0123456789"), min_size=1, max_size=30)
# what int() or Fraction() may read differently from a plain -?digits token:
# signs, underscores, non-ASCII digits, spaces, points and slashes (no
# exponent: "1e" and 30 digits would build a number of 10**30 digits)
TOKEN_PARTS = st.sampled_from(["-", "+", "_", " ", "\t", "\n", ".", "/", "x", "٣", "²", "０", "Ⅳ"])


def parse_or_error(parse, token):
    try:
        x = parse(token)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(x), x


@settings(max_examples=500, deadline=None)
@given(
    st.builds(lambda sign, d: sign + d, st.sampled_from(["", "-"]), DIGITS)
    | st.lists(DIGITS | TOKEN_PARTS, max_size=6).map("".join)
    | st.text(max_size=8)
)
def test_parse_rational_is_fraction_on_every_token(token):
    # same value and type, or the same exception and message, as the route
    # through Fraction for every token, also the ones the int fast path skips
    expected = parse_or_error(lambda t: int_if_integral(Fraction(t.strip())), token)
    assert parse_or_error(parse_rational, token) == expected


def test_parse_rational_fixed_tokens():
    # int() refuses over 4,300 digits; the message must still be Fraction's
    tokens = ["7" * 4300, "-" + "7" * 4300, "7" * 4301, "-" + "7" * 4301, " 7" + "0" * 4300,
              "+3", "1_0", "٣", "3.0", "1/2", "-0", "007", "--3", "-", "", "1e3", "-2E-2", "1/0"]
    for token in tokens:
        expected = parse_or_error(lambda t: int_if_integral(Fraction(t.strip())), token)
        assert parse_or_error(parse_rational, token) == expected


class Int(int):
    pass


EXACT_ENTRIES = (
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(3, 1), Fraction(-7, 3)])
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.fractions()
)
OTHER_ENTRIES = st.sampled_from([0.0, -0.0, 0.5, True, False, None, Int(0), Int(5), "0", ""])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(EXACT_ENTRIES, max_size=8) | st.lists(EXACT_ENTRIES | OTHER_ENTRIES, max_size=8),
                max_size=6))
def test_matrix_text_is_str_of_each_entry(rows):
    # ragged and empty rows, rows of ints and Fractions only, and rows mixing
    # in floats, bools, None, an int subclass and strings
    assert matrix_to_json(rows) == [list(map(str, row)) for row in rows]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7).flatmap(lambda r: st.lists(
    st.dictionaries(st.integers(0, max(r - 1, 0)), EXACT_ENTRIES.filter(bool), max_size=r),
    min_size=r, max_size=r)))
def test_column_text_is_the_dense_text(columns):
    """Square matrices held as column nonzeros render as their dense rows
    do, and their rows are the transposed nonzeros in column order."""
    r = len(columns)
    dense = [[columns[c].get(i, 0) for c in range(r)] for i in range(r)]
    rows = column_rows(columns)
    assert rows == [[(c, x) for c, x in enumerate(row) if x] for row in dense]
    assert columns_to_json(columns) == matrix_to_json(dense)
