"""Command-line interface.

Commands: ``build``, ``verify-cw``, ``move``, ``slide``, ``selftest``.
Covers are specified by ``--group`` (a builtin family like ``cyclic:5`` or a
JSON file with a multiplication table), ``--n`` and ``--images`` (element
indices or labels).  Output is human-readable by default, JSON with
``--json``; all runs are deterministic given the flags and ``--seed``.  The
JSON payload is built only when it is written, with ``--json`` or ``--out``,
and it is written as it is rendered, a piece at a time, never held whole: a
matrix goes out row by row from its column nonzeros.

``move --vector`` takes comma-separated rationals, also with a negative
first coordinate (``--vector -1,0,...``).  ``--depth`` must be in
1..``mover.MAX_ITERATE_DEPTH``.  A cover may have at most
:data:`MAX_COVER_EDGES` edges (|G| times the petal count).

Exit codes: 0 success, 1 failed verification or selftest (for ``move``: the
certificate failed self-verification, and the failed checks are named on
stderr), 2 invalid configuration (also an output file that cannot be
written), 3 disconnected cover, 4 zero vector, 5 rose rank too small, 6 loop
search exhausted, 7 out of memory, 8 stdout closed (a reader such as ``head``
stopped reading).  Exits 7 and 8 can follow a partial JSON document on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import random
import re
import sys
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from . import linalg
from .cover import (
    CoverGraph,
    Disconnected,
    Word,
    build_cover,
    lift_word,
    path_end,
    petal_complement_components,
    standard_images,
    to_dot,
)
from .cwcheck import (
    UnsupportedGroup,
    character_report_to_json,
    isotypic_decomposition,
    isotypic_report_to_json,
    verify_chevalley_weil,
)
from .groups import (
    FiniteGroup,
    NotAGroup,
    UnsupportedFamily,
    builtin_group_from_string,
    element_order,
    group_from_json,
    left_cosets,
    subgroup_generated,
)
from .homology import (
    HomologyBasis,
    chain_of_path,
    chain_to_class,
    cycle_basis,
    deck_action_matrix,
)
from .mover import (
    MAX_ITERATE_DEPTH,
    CertificateFailed,
    RankTooSmall,
    SearchExhausted,
    ZeroVector,
    certificate_to_json,
    loop_word,
    move_vector,
    verify_certificate,
)
from .slides import (
    DoesNotLift,
    PetalInLoop,
    lifted_action_formula,
    lifted_action_oracle,
    make_slide,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_DISCONNECTED = 3
EXIT_ZERO_VECTOR = 4
EXIT_RANK_TOO_SMALL = 5
EXIT_SEARCH_EXHAUSTED = 6
EXIT_OUT_OF_MEMORY = 7
EXIT_STDOUT_CLOSED = 8
# the most edges, |G| * n, a cover may have: about 1.6 times the 10,240 of
# elementary_abelian:2,10 with n = 10, the largest cover of the ladder
MAX_COVER_EDGES = 1 << 14
_PLAIN = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')  # what JSON leaves unescaped


class ConfigError(ValueError):
    pass


def _load_group(spec: str) -> FiniteGroup:
    path = Path(spec)
    if spec.endswith(".json") or path.is_file():
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read group file {spec!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON in group file {spec!r}: {exc}") from exc
        try:
            return group_from_json(data)
        except (NotAGroup, ValueError) as exc:
            raise ConfigError(f"group file {spec!r}: {exc}") from exc
    try:
        return builtin_group_from_string(spec)
    except UnsupportedFamily as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_images(group: FiniteGroup, images_arg: str | None, n: int | None) -> tuple[int, ...]:
    if images_arg is None:
        if n is None:
            raise ConfigError("--images or --n is required")
        images = standard_images(group, n)
        if images is None:
            raise ConfigError(f"group of order {group.order} is not generated by {n} elements")
        return images
    tokens = [tok.strip() for tok in images_arg.split(",")]
    label_index = {label: i for i, label in enumerate(group.labels)}
    out = []
    for tok in tokens:
        if tok in label_index:
            out.append(label_index[tok])
            continue
        try:
            idx = int(tok)
        except ValueError:
            raise ConfigError(f"image {tok!r} is neither an element index nor a label")
        if not 0 <= idx < group.order:
            raise ConfigError(f"image index {idx} out of range 0..{group.order - 1}")
        out.append(idx)
    if n is not None and n != len(out):
        raise ConfigError(f"--n {n} disagrees with {len(out)} images")
    return tuple(out)


def _cover_from_args(args: argparse.Namespace) -> tuple[CoverGraph, HomologyBasis]:
    """The cover named by --group/--n/--images and its cycle basis.  A cover
    of more than ``MAX_COVER_EDGES`` edges, |G| times the petal count of
    ``--images`` or else ``--n``, is refused before anything is built."""
    if args.group is None:
        raise ConfigError("--group is required")
    group = _load_group(args.group)
    petals = args.n if args.images is None else args.images.count(",") + 1
    if petals is not None and group.order * petals > MAX_COVER_EDGES:
        raise ConfigError(
            f"{petals} petals over a group of order {group.order} make "
            f"{group.order * petals} edges, more than {MAX_COVER_EDGES}"
        )
    Y = build_cover(group, _resolve_images(group, args.images, args.n))
    return Y, cycle_basis(Y)


def _parse_vector(args: argparse.Namespace, Y: CoverGraph, B: HomologyBasis) -> list:
    if args.vector is not None and args.vector_word is not None:
        raise ConfigError("give only one of --vector and --vector-word")
    if args.vector is not None:
        try:
            v = [linalg.parse_rational(tok) for tok in args.vector.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad --vector: {exc}") from exc
        if len(v) != B.rank:
            raise ConfigError(f"--vector has {len(v)} coordinates, rank is {B.rank}")
        return v
    if args.vector_word is not None:
        try:
            w = Word.from_string(args.vector_word)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if w.max_petal() > Y.n:
            raise ConfigError(f"--vector-word uses petal {w.max_petal()}, rose has {Y.n}")
        p = lift_word(Y, w, 0)
        if path_end(Y, p) != 0:
            raise ConfigError(f"--vector-word {args.vector_word!r} does not lift closed")
        return chain_to_class(B, chain_of_path(p))
    raise ConfigError("a vector is required: --vector or --vector-word")


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for dicts with str keys,
    lists, tuples, str and JSON scalars, without the pure-Python encoder that
    ``indent`` selects; a :class:`~coverslide.linalg.ColumnMatrix` of ints
    and Fractions is written as the dense rows of ``str`` texts that
    :func:`~coverslide.linalg.columns_to_json` gives.  This is the string
    form of ``_dump``, which the CLI writes piece by piece as it renders.

    A list is first tried as one join with the quotes in the separator,
    which fails on an item that is not a string.  That text is kept when the
    items add no character the C string encoder escapes (see ``_dump``),
    since on such items the encoder only adds quotes; any other list of
    strings is one join of that encoder, and scalars go through
    ``json.dumps``.  The text of a list of strings is kept under
    ``(id(list), indent)`` for the rest of the call, so a list that the
    payload holds many times (the rows of an isotypic projector) is rendered
    once per depth.  An id names one object only while it lives; the payload
    keeps every list alive until the call returns."""
    parts: list[str] = []
    _dump(obj, "", parts.append, {})
    return "".join(parts)


def _dump(obj, indent: str, write, memo: dict) -> None:
    """Pass the text of ``obj`` at ``indent`` to ``write``, a piece at a time
    (see ``_dumps``).  No piece is longer than one matrix row or one list of
    strings, so the whole document is never held.

    A ColumnMatrix's rows are cut from one all-``"0"`` row text for its size
    and indent: every entry has the same width there, so the entry of
    column c starts at a known offset, and a row is slices of that text with
    the ``str`` of each nonzero between its quotes.  Each distinct entry
    object is rendered once.  An entry that is not exactly an int or a
    Fraction raises TypeError before the matrix writes anything."""
    if isinstance(obj, str):
        write(_encode_str(obj))
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = indent + "  "
        lead = "{\n" + inner
        for key in sorted(obj):
            write(f"{lead}{_encode_str(key)}: ")
            _dump(obj[key], inner, write, memo)
            lead = ",\n" + inner
        write("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        text = memo.get((id(obj), indent))
        if text is not None:
            write(text)
            return
        inner = indent + "  "
        sep = ",\n" + inner
        try:
            body = '"' + ('"' + sep + '"').join(obj) + '"'
        except TypeError:  # not a list of strings
            if set(map(type, obj)) == {int}:  # the texts json.dumps gives exact ints
                write("[\n" + inner + sep.join(map(str, obj)) + "\n" + indent + "]")
                return
            lead = "[\n" + inner
            for x in obj:
                write(lead)
                _dump(x, inner, write, memo)
                lead = sep
            write("\n" + indent + "]")
            return
        # the bytes that are not plain are the separators' 3k - 1 quotes and
        # newlines (sep is ",\n" and spaces), plus those of every character
        # of the items that the encoder escapes, non-ASCII ones included
        if len(body.encode().translate(None, _PLAIN)) != 3 * len(obj) - 1:
            body = sep.join(map(_encode_str, obj))
        text = memo[id(obj), indent] = "[\n" + inner + body + "\n" + indent + "]"
        write(text)
    elif type(obj) is linalg.ColumnMatrix:
        columns = obj.columns
        if not columns:
            write("[]")
            return
        entries = {id(x): x for col in columns for x in col.values()}
        if not set(map(type, entries.values())) <= linalg.EXACT_TYPES:
            raise TypeError("a ColumnMatrix entry is not an int or a Fraction")
        texts = {k: str(x) for k, x in entries.items()}
        inner = indent + "  "
        cell = ",\n" + inner + '  "0"'
        blank = "[" + cell[1:] + cell * (len(columns) - 1) + "\n" + inner + "]"
        start, width = len(cell) - 2, len(cell)  # where column 0's "0" is
        lead = "[\n" + inner
        for row in linalg.column_rows(columns):
            pieces = [lead]
            at = 0
            for c, x in row:
                cut = start + c * width
                pieces += blank[at:cut], texts[id(x)]
                at = cut + 1
            pieces.append(blank[at:])
            write("".join(pieces))
            lead = ",\n" + inner
        write("\n" + indent + "]")
    else:
        write(json.dumps(obj))


def _write(path: str, dump) -> None:
    """Open ``path`` for writing and call ``dump(write)`` with its ``write``;
    an OSError is a ConfigError."""
    try:
        with open(path, "w") as f:
            dump(f.write)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _writes_json(args: argparse.Namespace) -> bool:
    """True iff the command writes JSON: ``--json`` or ``move --out``."""
    return bool(args.json or args.out)


def _emit(args: argparse.Namespace, payload: dict | None, human_lines: Iterable[str]) -> None:
    """Print the payload's JSON with ``--json``, else the human lines, each
    as it is drawn from ``human_lines``; with ``move --out``, first write the
    same JSON text to that file.  The JSON is written as it is rendered, a
    piece at a time, and never held whole; with both ``--out`` and
    ``--json`` it is rendered once for each.  The payload is ``None`` when
    no JSON is written."""
    if args.out:
        _write(args.out, lambda write: _dump(payload, "", write, {}))
    if args.json:
        write = sys.stdout.write
        _dump(payload, "", write, {})
        write("\n")
    else:
        for line in human_lines:
            print(line)


def cmd_build(args: argparse.Namespace) -> int:
    Y, B = _cover_from_args(args)
    if args.dot:
        _write(args.dot, lambda write: write(to_dot(Y)))
    _emit(
        args,
        {"vertices": Y.vertex_count, "edges": Y.edge_count, "rank": B.rank},
        [f"V={Y.vertex_count} E={Y.edge_count} rank={B.rank}"],
    )
    return EXIT_OK


def cmd_verify_cw(args: argparse.Namespace) -> int:
    Y, B = _cover_from_args(args)
    report = verify_chevalley_weil(Y, B)
    payload = character_report_to_json(report) if _writes_json(args) else None
    traces = " ".join(f"{Y.group.labels[g]}:{t}" for g, t in report.traces.items())
    lines = [f"order={report.order} rank={report.rank}", f"traces: {traces}"]
    try:
        iso = isotypic_decomposition(Y, B)
        if payload is not None:
            payload["isotypic"] = isotypic_report_to_json(iso)
        dims = ",".join(str(iso.dims[chi]) for chi in iso.characters)
        lines.append(f"isotypic dims: {dims}")
    except UnsupportedGroup:
        pass
    lines.append(f"verdict: {'ok' if report.verdict else 'FAILED'}")
    _emit(args, payload, lines)
    return EXIT_OK if report.verdict else EXIT_FAILED


def cmd_move(args: argparse.Namespace) -> int:
    if not 1 <= args.depth <= MAX_ITERATE_DEPTH:
        raise ConfigError(f"--depth must be in 1..{MAX_ITERATE_DEPTH}, got {args.depth}")
    Y, B = _cover_from_args(args)
    v = _parse_vector(args, Y, B)
    # move_vector verifies the certificate and raises CertificateFailed otherwise
    cert = move_vector(
        Y, B, v, max_candidates=args.max_candidates, seed=args.seed, depth=args.depth
    )
    payload = None
    if _writes_json(args):  # the writer renders the matrix key from the columns
        bare = certificate_to_json(dataclasses.replace(cert, matrix=[]), Y)
        payload = {**bare, "matrix": cert.matrix, "verified": True}
    _emit(
        args,
        payload,
        [
            f"petal={cert.petal} ell={cert.ell.to_string()}",
            f"orbit_rank={cert.orbit_rank_value} of {Y.group.order}",
            f"increment nonzero: {not linalg.vec_is_zero(cert.increment)}",
            f"iterates checked: {cert.iterates_checked}",
            "verified: True",
        ],
    )
    return EXIT_OK


def cmd_slide(args: argparse.Namespace) -> int:
    Y, B = _cover_from_args(args)
    if args.petal is None:
        raise ConfigError("--petal is required for slide")
    try:
        ell = Word.from_string(args.ell if args.ell is not None else "")
        s = make_slide(Y.n, args.petal, ell)
    except (ValueError, PetalInLoop) as exc:
        raise ConfigError(str(exc)) from exc
    try:
        L = lifted_action_formula(s, Y, B)
    except DoesNotLift as exc:
        raise ConfigError(str(exc)) from exc
    lines = [f"petal={s.j} ell={ell.to_string()!r} rank={B.rank}"]
    payload = None
    if args.json:  # lifted_slide_to_json's keys, with the matrix as columns for the writer
        payload = {"petal": s.j, "ell": ell.to_string(), "ell_class": linalg.vector_to_json(L.ell_class),
                   "matrix": linalg.ColumnMatrix(L.columns)}
    else:  # the JSON rows' texts, joined and printed a row at a time
        lines = itertools.chain(lines, map(" ".join, linalg.column_texts(L.columns)))
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


class SelftestFailure(Exception):
    """An invariant checked by a selftest suite did not hold."""


def _check(ok: bool, what: str) -> None:
    # an explicit check, so that the suites still run under ``python -O``
    if not ok:
        raise SelftestFailure(what)


def _selftest_covers(quick: bool) -> list[tuple[str, CoverGraph]]:
    specs = [
        ("cyclic:2", 2),
        ("elementary_abelian:2,2", 2),
        ("cyclic:3", 3),
        ("elementary_abelian:2,2", 3),
        ("dihedral:4", 3),
    ]
    if not quick:
        specs += [
            ("symmetric:3", 3),
            ("cyclic:6", 4),
            ("elementary_abelian:2,3", 3),
            ("symmetric:4", 3),
        ]
    covers = []
    for spec, n in specs:
        group = builtin_group_from_string(spec)
        images = standard_images(group, n)
        if images is None:
            continue
        covers.append((f"{spec} n={n}", build_cover(group, images)))
    return covers


def _suite_groups(covers, rng) -> str:
    for _, Y in covers:
        G = Y.group
        for x in G.elements():
            _check(G.mul[0][x] == x and G.mul[x][0] == x, "identity law")
            _check(G.mul[x][G.inv[x]] == 0, "inverse law")
            _check(G.order % element_order(G, x) == 0, "element order divides |G|")
        sub = subgroup_generated(G, [G.inv[Y.images[0]]])
        blocks = left_cosets(G, sub)
        _check(sorted(x for b in blocks for x in b) == list(G.elements()), "cosets partition G")
        _check(len({len(b) for b in blocks}) == 1, "cosets of equal size")
    return f"{len(covers)} groups"


def _suite_covers(covers, rng) -> str:
    checked = 0
    for _, Y in covers:
        _check(Y.vertex_count == Y.group.order, "vertex count")
        _check(Y.edge_count == Y.n * Y.group.order, "edge count")
        for _ in range(5):
            w = Word(
                tuple(
                    (rng.randint(1, Y.n), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 6))
                )
            )
            start = rng.randrange(Y.group.order)
            p = lift_word(Y, w, start)
            _check(path_end(Y, p) == Y.group.mul[start][Y.image_of(w)], "lift endpoint law")
            checked += 1
        comps = petal_complement_components(Y, 1)
        vertices = sorted(v for c in comps for v in c.vertices)
        _check(vertices == list(Y.vertices()), "components cover the vertices")
    return f"{checked} lifted words"


def _suite_homology(covers, rng) -> str:
    for _, Y in covers:
        B = cycle_basis(Y)
        _check(B.rank == (Y.n - 1) * Y.group.order + 1, "rank (n-1)|G| + 1")
        _check(verify_chevalley_weil(Y, B).verdict, "character identity failed")
    return f"{len(covers)} character tables"


def _random_slide(Y, B, rng) -> Word | None:
    from .homology import component_basis

    j = rng.randint(1, Y.n)
    comps = petal_complement_components(Y, j)
    B0 = component_basis(comps[0])
    if B0.rank == 0:
        return None
    word = loop_word(B0, [rng.randint(-1, 1) for _ in B0.cotree])
    return (j, word) if len(word) else None


def _suite_slides(covers, rng) -> str:
    checked = 0
    for _, Y in covers:
        B = cycle_basis(Y)
        for _ in range(3):
            jw = _random_slide(Y, B, rng)
            if jw is None:
                continue
            j, ell = jw
            s = make_slide(Y.n, j, ell)
            L = lifted_action_formula(s, Y, B)
            _check(lifted_action_oracle(s, Y, B) == L.columns, "formula != oracle")
            # (F - I)^2 = 0: each column of F - I, pushed through F - I, vanishes
            delta = [{**col, k: col.get(k, 0) - 1} for k, col in enumerate(L.columns)]
            for d in delta:
                column = [d.get(i, 0) for i in range(B.rank)]
                _check(not any(linalg.column_products(delta, column)), "slide action not unipotent")
            checked += 1
    return f"{checked} slides formula==oracle"


def _suite_klein(covers, rng) -> str:
    from .groups import builtin_group

    group = builtin_group("elementary_abelian", 2, 2)
    Y = build_cover(group, (1, 2))
    B = cycle_basis(Y)
    _check(B.rank == 5, "rank 5")
    iso = isotypic_decomposition(Y, B)
    _check(sorted(iso.dims.values(), reverse=True) == [2, 1, 1, 1], "isotypic dims 2+1+1+1")
    a2 = Word.from_string("a1.a1")
    clsA = chain_to_class(B, chain_of_path(lift_word(Y, a2, 0)))
    rho_b = deck_action_matrix(Y, B, 2)
    eig = linalg.vec_sub(clsA, linalg.mat_vec(rho_b, clsA))
    _check(not linalg.vec_is_zero(eig), "eigenvector nonzero")
    rho_a = deck_action_matrix(Y, B, 1)
    _check(linalg.mat_vec(rho_a, eig) == eig, "a fixes the eigenvector")
    _check(linalg.mat_vec(rho_b, eig) == linalg.vec_scale(-1, eig), "b negates the eigenvector")
    from .homology import orbit_rank

    x = chain_to_class(
        B, chain_of_path(lift_word(Y, Word.from_string("a1.a1.a1.a2^-1.a1.a2"), 0))
    )
    _check(orbit_rank(Y, B, x) == 4, "full regular orbit")
    return "rank 5, dims 2+1+1+1, full regular orbit"


def _suite_mover(covers, rng) -> str:
    checked = 0
    for name, Y in covers:
        if Y.n < 3 or Y.group.order > 8:
            continue
        B = cycle_basis(Y)
        v = [0] * B.rank
        v[0] = 1
        cert = move_vector(Y, B, v)
        _check(verify_certificate(Y, B, v, cert).ok, f"certificate on {name}")
        checked += 1
    return f"{checked} certificates verified"


_SUITES = [
    ("groups", _suite_groups),
    ("covers", _suite_covers),
    ("homology", _suite_homology),
    ("slides", _suite_slides),
    ("klein-example", _suite_klein),
    ("mover", _suite_mover),
]


def cmd_selftest(args: argparse.Namespace) -> int:
    covers = _selftest_covers(args.quick)
    failed = []
    for name, fn in _SUITES:
        rng = random.Random(args.seed)
        try:
            if args.inject_fault == name:
                raise SelftestFailure("injected fault")
            detail = fn(covers, rng)
            print(f"ok    {name}: {detail}")
        except (SelftestFailure, CertificateFailed) as exc:
            print(f"FAIL  {name}: {exc}")
            failed.append(name)
    if failed:
        print(f"selftest failed: {', '.join(failed)}")
        return EXIT_FAILED
    print("selftest passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_cover_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", help="builtin family (e.g. cyclic:5, elementary_abelian:2,2, dihedral:4, symmetric:3) or a JSON file")
    p.add_argument("--n", type=int, help=f"rose rank (petal count); |G| * n at most {MAX_COVER_EDGES}")
    p.add_argument("--images", help="comma-separated petal images: element indices or labels")
    p.add_argument("--json", action="store_true", help="emit JSON on stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverslide",
        description="Finite covers of roses: exact homology, deck actions, and edge slides that move homology classes.",
    )
    parser.set_defaults(out=None)  # only move takes --out
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a cover and print its size and H1 rank")
    _add_cover_options(p)
    p.add_argument("--dot", help="write a GraphViz DOT file of the cover")

    p = sub.add_parser("verify-cw", help="verify the regular-representation character identity")
    _add_cover_options(p)

    p = sub.add_parser("move", help="produce and verify a class-moving certificate")
    _add_cover_options(p)
    p.add_argument("--vector", help="class coordinates, comma-separated rationals p/q")
    p.add_argument("--vector-word", help="word whose closed lift's class is moved")
    p.add_argument("--seed", type=int, default=0, help="loop search seed (default 0)")
    p.add_argument("--max-candidates", type=int, default=10_000, help="loop search bound")
    p.add_argument("--depth", type=int, default=10, help=f"iterates checked in the certificate (1..{MAX_ITERATE_DEPTH})")
    p.add_argument("--out", help="write the certificate JSON to a file")

    p = sub.add_parser("slide", help="apply a given edge slide and print its lifted matrix")
    _add_cover_options(p)
    p.add_argument("--petal", type=int, help="petal being slid")
    p.add_argument("--ell", help="slide loop word, e.g. a2.a3^-1")

    p = sub.add_parser("selftest", help="run the built-in invariant battery")
    p.add_argument("--quick", action="store_true", help="restrict to groups of order <= 8")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", metavar="SUITE", help=argparse.SUPPRESS)

    return parser


_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _attach_vector_values(argv: list[str]) -> list[str]:
    """Rewrite ``--vector -1,0,...`` as ``--vector=-1,0,...``: argparse takes
    a value that starts with ``-`` and is not a plain number for an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--vector" and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"--vector={tok}"
        else:
            out.append(tok)
    return out


# the first match gives the exit code; the first three kinds are ValueErrors too
_EXIT_CODES = (
    (Disconnected, EXIT_DISCONNECTED),
    (ZeroVector, EXIT_ZERO_VECTOR),
    (RankTooSmall, EXIT_RANK_TOO_SMALL),
    (SearchExhausted, EXIT_SEARCH_EXHAUSTED),
    (CertificateFailed, EXIT_FAILED),
    (ValueError, EXIT_CONFIG),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The parser is built once per process, on the first call rather than at
    import, and reused by every later call.  The command runs through the
    module's ``cmd_<command>`` function as it is named at call time."""
    args = _parser().parse_args(_attach_vector_values(sys.argv[1:] if argv is None else argv))
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY
    except (ValueError, SearchExhausted, CertificateFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send the interpreter's last flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_STDOUT_CLOSED
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
