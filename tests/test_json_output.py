"""The CLI's JSON writer against ``json.dumps(indent=2, sort_keys=True)``, and
pinned ``--json`` bytes of a few commands."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coverslide import cli, linalg

KEYS = st.sampled_from(["10", "2", "1", "", "a", "B", "é", '"', "\\"]) | st.text(max_size=6)
TEXT = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "😀", "/"]) | st.text()
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(
    st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=5)
        | st.lists(TEXT, max_size=5)
        | st.tuples(inner, inner)
        | st.dictionaries(KEYS, inner, max_size=5),
        max_leaves=30,
    )
)
def test_writer_matches_json_dumps(obj):
    assert cli._dumps(obj) == dumps(obj)


PRINTABLE = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(PRINTABLE, max_size=8) | st.lists(PRINTABLE | TEXT, max_size=8), st.integers(0, 2))
def test_string_lists_match_json_dumps(strings, depth):
    # lists of printable ASCII, quotes and backslashes included, and lists
    # that mix in control characters, DEL, non-ASCII text and ""
    obj = strings
    for _ in range(depth):
        obj = {"k": [obj, strings]}
    assert cli._dumps(obj) == dumps(obj)
    assert cli._dumps(tuple(strings)) == dumps(strings)


ESCAPED = st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "😀"])
NEAR_PLAIN = st.lists(PRINTABLE | ESCAPED, max_size=4).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(NEAR_PLAIN | PRINTABLE, min_size=1, max_size=8), st.integers(0, 2))
def test_quoted_join_is_kept_only_without_escapes(strings, depth):
    # mostly plain lists in which a few items carry a quote, a backslash, a
    # newline, a control character or non-ASCII text: the writer's one
    # quoted join must not be kept for them
    obj = strings
    for _ in range(depth):
        obj = [obj, {"k": strings}]
    assert cli._dumps(obj) == dumps(obj)


def test_one_list_at_two_depths_and_many_times_at_one():
    # the writer keeps a list's text by (id, indent): the same object at two
    # depths must be indented at each, and repeats reuse the text
    row = ["1/2", "0", "-3"]
    obj = {"a": row, "b": [row, [row, row]], "c": [row] * 5, "d": {"e": [[row], row]}}
    assert cli._dumps(obj) == dumps(obj)
    rows = [["0", "1"], ["2"]]
    obj = [rows[i % 2] for i in range(9)]
    assert cli._dumps(obj) == dumps(obj)
    assert cli._dumps([obj, obj]) == dumps([obj, obj])


def test_tuple_and_list_with_the_same_strings():
    strings = ["a", "b", "é"]
    obj = {"l": strings, "t": tuple(strings), "n": [strings, tuple(strings), [tuple(strings)]]}
    assert cli._dumps(obj) == dumps(obj)


def test_escaped_strings_in_a_shared_list():
    row = ["é", '"', "\\", "\n", "😀", "\x7f", "\x00", "a", ""]
    obj = {"x": [row, row], "y": row, "z": {"w": [[row], row]}}
    assert cli._dumps(obj) == dumps(obj)


@st.composite
def aliased_payloads(draw):
    """Nested dicts and lists whose leaves are drawn from a few string lists
    and tuples, and from lists of those, so the same objects recur at one
    depth and at several."""
    pool = draw(st.lists(st.lists(TEXT, max_size=4) | st.lists(PRINTABLE, min_size=1, max_size=4),
                         min_size=1, max_size=3))
    pool += [tuple(pool[0]), [pool[-1], pool[0]]]
    leaves = st.sampled_from(pool) | SCALARS
    return draw(st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=3),
        max_leaves=20,
    ))


@settings(max_examples=300, deadline=None)
@given(aliased_payloads())
def test_writer_matches_json_dumps_on_shared_lists(obj):
    assert cli._dumps(obj) == dumps(obj)


def test_writer_edge_values():
    for obj in ({}, [], [[]], {"a": {}}, [[], {}], ["x", 1], [1, "x"], {"10": 1, "2": [True, None]}):
        assert cli._dumps(obj) == dumps(obj)


def test_writer_raises_rather_than_diverging():
    # what json.dumps rejects, and non-str keys, which it would convert
    for obj in ([object()], ["a", Fraction(1, 2)], {"a": {"b": object()}}, {1: "a"}, [{2: 0}]):
        with pytest.raises(TypeError):
            cli._dumps(obj)


class IntSub(int):
    pass


class NamedInt(int):
    def __str__(self):
        return "named"


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers() | st.sampled_from([0, -1, 1, 10**30, -(10**30)]), min_size=1, max_size=8),
    st.sampled_from([None, True, IntSub(3), NamedInt(3), 1.0, "1"]),
    st.integers(0, 2),
)
def test_int_lists_match_json_dumps(ints, other, depth):
    """A list of exact ints is one join of their texts; a bool, an int
    subclass, a float or a string among them takes the item-by-item route."""
    for obj in (ints, tuple(ints), ints + [other], [other] + ints):
        for _ in range(depth):
            obj = {"k": [obj, ints]}
        assert cli._dumps(obj) == dumps(obj)


def test_int_lists_are_written_without_json_dumps(monkeypatch):
    obj = {"characters": [[1, 1, -1, -1], [1, -1, 1, -1]], "dims": [5, 4]}
    expected = dumps(obj)

    def per_item(*args, **kwargs):
        raise AssertionError("json.dumps called on an item of an int list")

    monkeypatch.setattr(cli.json, "dumps", per_item)
    assert cli._dumps(obj) == expected


# entry objects a matrix may share between cells: ints of every sign and
# size, non-integral and negative Fractions, and zeros of both types
ENTRY_POOL = st.lists(
    st.integers(-12, 12) | st.integers() | st.integers(10**20, 10**30).map(lambda x: -x)
    | st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))
    | st.sampled_from([0, Fraction(0), Fraction(-1, 2), Fraction(22, 7)]),
    min_size=1, max_size=6,
)


@st.composite
def column_matrices(draw):
    """A ColumnMatrix of size 0..12 whose columns, empty ones included, hold
    entries drawn from a small pool, so one object recurs in many cells."""
    pool = draw(ENTRY_POOL)
    r = draw(st.integers(0, 12))
    cells = st.dictionaries(st.integers(0, r - 1), st.sampled_from(pool), max_size=r) if r else st.just({})
    return linalg.ColumnMatrix(draw(st.lists(cells, min_size=r, max_size=r)))


@st.composite
def matrix_payloads(draw):
    """One or two matrices nested 0..3 deep in dicts and lists, next to
    string lists that the payload holds more than once."""
    strings = draw(st.lists(PRINTABLE | TEXT, max_size=4))
    obj = draw(column_matrices())
    for kind in draw(st.lists(st.sampled_from(["dict", "list", "pair"]), max_size=3)):
        if kind == "dict":
            obj = {"matrix": obj, "rows": [strings, strings], "a": strings}
        elif kind == "list":
            obj = [strings, obj, strings]
        else:
            obj = {"m": obj, "n": [draw(column_matrices()), strings]}
    return obj


@settings(max_examples=300, deadline=None)
@given(matrix_payloads())
@example({"m": linalg.ColumnMatrix([{0: -1, 2: -2}, {}, {1: Fraction(-1, 2), 2: -1}])})  # hash(-1) == hash(-2)
def test_column_matrices_match_their_dense_rows(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2, sort_keys=True, default=dense_rows)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "3", IntSub(3)], ids=repr)
def test_column_matrix_entry_of_another_type_writes_nothing(bad):
    m = linalg.ColumnMatrix([{0: 1, 1: Fraction(1, 2)}, {0: 2, 1: bad}])
    writes = []
    with pytest.raises(TypeError):
        cli._dump(m, "", writes.append, {})
    assert writes == []
    with pytest.raises(TypeError):
        cli._dumps({"a": ["x"], "matrix": m})


def dense_rows(obj):
    if type(obj) is linalg.ColumnMatrix:
        return linalg.columns_to_json(obj.columns)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


PAYLOAD_RUNS = {
    "build": ["build", "--group", "dihedral:4", "--n", "2"],
    "verify-cw": ["verify-cw", "--group", "elementary_abelian:2,3", "--n", "3"],
    "verify-cw cyclic": ["verify-cw", "--group", "cyclic:12", "--n", "3"],
    "move": ["move", "--group", "elementary_abelian:2,2", "--n", "3",
             "--vector=-1/2,0,3/4,0,0,0,0,0,7"],
    "slide": ["slide", "--group", "elementary_abelian:2,2", "--n", "3", "--petal", "1",
              "--ell", "a2.a2"],
}


@pytest.mark.parametrize("argv", PAYLOAD_RUNS.values(), ids=PAYLOAD_RUNS.keys())
def test_cli_payloads_match_json_dumps(argv, capsys, monkeypatch):
    payloads = []
    emit = cli._emit

    def recording_emit(args, payload, human_lines):
        payloads.append(payload)
        emit(args, payload, human_lines)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    assert cli.main([*argv, "--json"]) == 0
    (payload,) = payloads
    # move and slide hand the writer their matrix as columns; the stdlib still
    # writes every reference byte, from the dense str rows of those columns
    reference = json.dumps(payload, indent=2, sort_keys=True, default=dense_rows)
    assert capsys.readouterr().out == reference + "\n"
    if argv[0] == "verify-cw" and "elementary_abelian" in argv[2]:
        assert payload["isotypic"]["projectors"]


def test_move_out_file_is_stdout(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    argv = ["move", "--group", "cyclic:5", "--n", "3", "--vector-word", "a3", "--json"]
    assert cli.main([*argv, "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("}\n")
    assert out_path.read_bytes() == out[:-1].encode()


# stdout sha256 of --json runs, recorded before the lifted slide action was
# held as column nonzeros; a speed-up must leave these bytes alone
PINNED_RUNS = {
    "move dihedral fractional": (
        ["move", "--group", "dihedral:8", "--n", "3",
         "--vector=1/2,0,-3/4,0,0,2,0,0,0,0,0,0,0,0,0,0,5/3,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,-7"],
        "587e5fe15c6e13e65a3c48c3c9f9b42bf228dad7aef6c2ed0131a417c84ffb53",
    ),
    "move symmetric": (
        ["move", "--group", "symmetric:3", "--n", "3", "--vector-word", "a3"],
        "d853bede98e3e2839a8121de7d2cf7e65e26c4c3b78bea425e584c14acc712af",
    ),
    "slide": (
        ["slide", "--group", "symmetric:3", "--n", "3", "--petal", "1", "--ell", "a2.a3.a2^-1"],
        "b64c26f7ab148c5f4f83db6e00fb0cb0b2745510c9fc3c18158902afb7c16bc9",
    ),
    "verify-cw": (
        ["verify-cw", "--group", "elementary_abelian:2,3", "--n", "4"],
        "6a4967eaa557d0eec229327d21f1502148219c91d2f4accb826e4fe6c3a69bde",
    ),
}


@pytest.mark.parametrize("argv, digest", PINNED_RUNS.values(), ids=PINNED_RUNS.keys())
def test_json_bytes_pinned(argv, digest, capsys):
    assert cli.main([*argv, "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
