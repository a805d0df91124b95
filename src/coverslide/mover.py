"""Move a nonzero homology class on an infinite orbit via one edge slide.

Given a cover of a rose with at least three petals and a nonzero class v,
the mover produces a slide loop ``ell`` with three properties:

1. ``ell`` avoids the slid petal j (chosen so that some petal-j edge cocycle
   pairs nontrivially with v);
2. ``ell`` lifts to a closed loop at the identity vertex;
3. the deck translates of the lifted loop's class are linearly independent.

The lifted slide then satisfies ``F^d(v) = v + d * increment`` with a nonzero
increment, so the iterates are pairwise distinct and the orbit is infinite.
Everything is packaged in a :class:`MoveCertificate` that can be re-verified
from scratch, independently of the code that produced it.

The loop search runs inside the identity component of the petal complement:
candidate integer combinations of its fundamental cycles are enumerated
deterministically (unit vectors, then small 0/1 combinations, then seeded
random vectors with entry bounds doubling up to a fixed cap) and the first
candidate whose deck orbit has full rank wins.

Moving many classes on one cover repeats one slide per petal, so the values
that depend only on (cover, basis, petal, loop) and not on v or on the
certificate are computed once per basis and kept in ``B.slide_memo``, one
entry per petal: the formula's :class:`LiftedSlide` (the loop's lifted chain
and class, the columns and the translate classes), the orbit rank of the
loop's class and the oracle's columns (kept as the formula's own list once
they are found equal).  Every check of :func:`verify_certificate` still runs
on every call, against the certificate's own fields.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from math import lcm

from . import linalg
from .cover import CoverGraph, Edge, Word, free_reduce, lift_word, petal_complement_components
from .homology import (
    Chain1,
    HomologyBasis,
    chain_add_scaled,
    chain_of_path,
    chain_to_class,
    class_to_chain,
    component_basis,
    orbit_rank_of_chain,
    tree_path_steps,
)
from .slides import (
    LiftedSlide,
    SlideAutomorphism,
    lifted_action_formula,
    lifted_action_oracle,
    make_slide,
    slide_increment,
)

DEFAULT_MAX_CANDIDATES = 10_000
DEFAULT_ITERATE_DEPTH = 10
# a range check only: the iterate check costs two row products at any depth
MAX_ITERATE_DEPTH = 10_000
_RANDOM_ROUND = 64
# keeps the exponents of a late random success, and so the loop word, bounded
_MAX_RANDOM_BOUND = 1 << 10


class ZeroVector(ValueError):
    """The zero class cannot be moved."""


class RankTooSmall(ValueError):
    """Roses with fewer than three petals admit no full-rank slide loop."""


class SearchExhausted(RuntimeError):
    """The candidate bound was hit; existence is guaranteed, so this
    indicates a bug or an unreasonably small bound."""


class CertificateFailed(RuntimeError):
    """A constructed certificate failed its own verification; ``failures``
    names the checks that did not hold."""

    def __init__(self, failures: Sequence[str]):
        self.failures = tuple(failures)
        super().__init__(f"certificate failed self-verification: {', '.join(self.failures)}")


@dataclass
class MoveCertificate:
    """Everything needed to recheck that the slide moves v on an infinite orbit.

    ``matrix`` is the lifted slide's action as dense rows, the form the
    ``matrix`` JSON key carries, so that a certificate can be re-checked from
    its JSON alone; the library itself holds the action as column nonzeros
    (:attr:`LiftedSlide.columns`) and builds these rows once per move."""

    petal: int
    pairing_edge: Edge
    ell: Word
    ell_class: list
    orbit_rank_value: int
    increment: list
    matrix: list
    iterates_checked: int


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _lifted_slide(
    Y: CoverGraph, B: HomologyBasis, j: int, ell: Word
) -> tuple[LiftedSlide, int, list]:
    """The slide of petal j along ell on this basis: the formula's
    :class:`LiftedSlide`, the orbit rank of the loop's class and the oracle's
    columns.  Read from ``B.slide_memo`` when its petal-j entry is for this
    cover object and loop, else computed and stored in place of it.  Raises
    what :func:`make_slide`, the formula or the oracle raise, storing nothing."""
    entry = B.slide_memo.get(j)
    if entry is None or entry[0].cover is not Y or entry[0].slide.ell != ell:
        L = lifted_action_formula(make_slide(Y.n, j, ell), Y, B)
        oracle = lifted_action_oracle(L.slide, Y, B)
        if oracle == L.columns:
            oracle = L.columns
        entry = B.slide_memo[j] = (L, orbit_rank_of_chain(Y, B, L.ell_chain), oracle)
    return entry


def find_pairing_edge(
    Y: CoverGraph, B: HomologyBasis, v: Sequence, *, chain: Chain1 | None = None
) -> tuple[int, int]:
    """Smallest (petal, vertex) whose edge carries a nonzero coefficient of
    v's canonical cycle; exists for every nonzero class.  ``chain`` is that
    cycle, or a positive multiple of it, when the caller already has it."""
    if linalg.vec_is_zero(v):
        raise ZeroVector("cannot pair with the zero class")
    z = class_to_chain(B, v) if chain is None else chain
    for j in range(1, Y.n + 1):
        for g in range(Y.group.order):
            if z.get((g, j), 0) != 0:
                return j, g
    raise AssertionError("nonzero class with empty support")


def fundamental_loop_word(B0: HomologyBasis, e: Edge) -> Word:
    """Spell the based loop of a non-tree edge of a component: tree path from
    the root to the tail, the edge, tree path back.  Its lift at the root is
    closed with class equal to the fundamental cycle of e."""
    if e not in B0.cotree_index:
        raise ValueError(f"edge {e} is not a cotree edge of this component basis")
    letters = [(i, d) for (_, i), d in tree_path_steps(B0, e[0])]
    letters.append((e[1], 1))
    head = B0.cover.edge_head(e)
    letters.extend((i, -d) for (_, i), d in reversed(tree_path_steps(B0, head)))
    return Word(tuple(letters))


def _candidate_vectors(m: int, seed: int) -> Iterator[tuple[int, ...]]:
    # deterministic prefix: unit vectors, then 0/1 supports of weight 2 and 3
    for k in range(m):
        yield tuple(1 if t == k else 0 for t in range(m))
    for weight in (2, 3):
        for support in combinations(range(m), weight):
            yield tuple(1 if t in support else 0 for t in range(m))
    rng = random.Random(seed)
    bound = 1
    while True:
        for _ in range(_RANDOM_ROUND):
            yield tuple(rng.randint(-bound, bound) for _ in range(m))
        bound = min(2 * bound, _MAX_RANDOM_BOUND)


def find_slide_loop(
    Y: CoverGraph,
    B: HomologyBasis,
    j: int,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    seed: int = 0,
) -> Word:
    """A loop avoiding petal j, lifting closed at the identity vertex and
    staying in its component, whose lifted class has deck orbit of full rank
    |G|.  Deterministic given the seed: candidates are tested in a fixed
    order and the first success is returned."""
    if Y.n < 3:
        raise RankTooSmall(
            f"rose rank {Y.n} < 3: the identity component carries no class "
            "with a full-rank deck orbit"
        )
    comps = petal_complement_components(Y, j)
    B0 = component_basis(comps[0])
    m = B0.rank
    order = Y.group.order
    tested = 0
    for c in _candidate_vectors(m, seed):
        if tested >= max_candidates:
            break
        tested += 1
        if all(x == 0 for x in c):
            continue
        z: dict = {}
        for ck, zk in zip(c, B0.cycles):
            chain_add_scaled(z, zk, ck)
        if orbit_rank_of_chain(Y, B, z) == order:
            word = Word()
            for ck, e in zip(c, B0.cotree):
                if ck != 0:
                    word = word * (fundamental_loop_word(B0, e) ** ck)
            word = free_reduce(word)
            if Y.image_of(word) != 0:
                raise CertificateFailed(["property 2"])
            return word
    raise SearchExhausted(f"no full-rank loop among {tested} candidates (petal {j})")


def move_vector(
    Y: CoverGraph,
    B: HomologyBasis,
    v: Sequence,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    seed: int = 0,
    depth: int = DEFAULT_ITERATE_DEPTH,
    loop_cache: dict | None = None,
) -> MoveCertificate:
    """Produce a verified certificate that some lifted edge slide moves v on
    an infinite orbit.

    Runs the pairing-edge scan, the slide-loop search and the action formula,
    then re-checks every certificate invariant with :func:`verify_certificate`
    before returning; if any check fails it raises :class:`CertificateFailed`
    naming them.  The optional ``loop_cache`` maps petal -> found loop and
    only short-circuits the (v-independent) search, so results are identical
    with or without it.  The formula's columns come from the basis's slide
    memo (see the module docstring); the certificate gets its own copies.
    A :class:`ValueError` names a bad depth, or an entry of v that is not an
    int or a Fraction.
    """
    if not 1 <= depth <= MAX_ITERATE_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_ITERATE_DEPTH}, got {depth}")
    den, w = _scaled(v)
    if linalg.vec_is_zero(v):
        raise ZeroVector("cannot move the zero class")
    if Y.n < 3:
        raise RankTooSmall(f"rose rank {Y.n} < 3")
    chain_w = class_to_chain(B, w)
    j, g_star = find_pairing_edge(Y, B, v, chain=chain_w)
    if loop_cache is not None and j in loop_cache:
        ell = loop_cache[j]
    else:
        ell = find_slide_loop(Y, B, j, max_candidates=max_candidates, seed=seed)
        if loop_cache is not None:
            loop_cache[j] = ell
    L = _lifted_slide(Y, B, j, ell)[0]
    increment = _unscaled(slide_increment(L, chain_w), den)
    cert = MoveCertificate(
        petal=j,
        pairing_edge=(g_star, j),
        ell=ell,
        ell_class=list(L.ell_class),
        # the search accepts only full rank; the self-check recomputes it
        orbit_rank_value=Y.group.order,
        increment=increment,
        matrix=L.matrix,
        iterates_checked=depth,
    )
    check = verify_certificate(Y, B, v, cert)
    if not check:
        raise CertificateFailed(check.failures)
    return cert


def verify_certificate(
    Y: CoverGraph, B: HomologyBasis, v: Sequence, cert: MoveCertificate
) -> CertificateCheck:
    """Recheck every certificate invariant from scratch.

    Returns ok=False with the list of failed checks rather than raising, so
    tampered certificates can be diagnosed: a field of the wrong type (a
    scalar that is not exactly an int, so not a bool or a float, an ``ell``
    that is not a :class:`Word`, a nonzero that is not an int or a Fraction)
    fails the check that reads it.
    One pass over the certificate's matrix gives its column nonzeros,
    compared with the formula's and the oracle's columns (a matrix that is
    not r lists of r entries fails both), and its row nonzeros for the two
    row products of :func:`_iterate_failure` on ``den * v`` in ints, as are
    v's cycle and the increment.  An entry of v that is not an int or a
    Fraction raises :class:`ValueError`.

    The values that depend only on the cover, the basis, the petal and the
    loop are computed once per basis and read from ``B.slide_memo`` on later
    calls: the loop's lifted class, its orbit rank, the formula's and the
    oracle's columns and the translate classes behind the increment.  Every
    check still runs on every call, against the certificate's own fields.
    """
    failures: list[str] = []
    order = Y.group.order
    r = B.rank
    j = cert.petal
    v = list(v)
    den, w = scaled = _scaled(v)
    ell, is_word = cert.ell, isinstance(cert.ell, Word)

    property1 = type(j) is int and 1 <= j <= Y.n and is_word and all(i != j for i, _ in ell)
    if not property1:
        failures.append("property 1")

    closed = is_word and ell.max_petal() <= Y.n and Y.image_of(ell) == 0
    if not closed:
        failures.append("property 2")

    chain_w = class_to_chain(B, w)
    columns, rows = _matrix_nonzeros(cert.matrix, r)
    pe = cert.pairing_edge
    is_edge = isinstance(pe, (tuple, list)) and len(pe) == 2 and all(type(x) is int for x in pe)
    if not (is_edge and pe[1] == j and chain_w.get(tuple(pe), 0) != 0):
        failures.append("pairing edge")

    lifted = _lifted_slide(Y, B, j, ell) if property1 and closed else None
    if closed:
        if lifted is not None:
            L, rank_value, oracle = lifted
            ell_class = L.ell_class
        else:
            ell_chain = chain_of_path(lift_word(Y, ell, 0))
            ell_class = chain_to_class(B, ell_chain)
            rank_value = orbit_rank_of_chain(Y, B, ell_chain)
        if ell_class != _exact(cert.ell_class):
            failures.append("loop class mismatch")
        claimed = cert.orbit_rank_value
        if rank_value != order or type(claimed) is not int or claimed != rank_value:
            failures.append("property 3")
    else:
        failures.append("property 3")

    increment = _exact(cert.increment)
    if increment is None or linalg.vec_is_zero(increment):
        failures.append("increment nonzero")

    if lifted is not None:
        differs = columns is None or columns != L.columns
        if differs:
            failures.append("matrix vs formula")
        if oracle is not L.columns:
            differs = columns is None or columns != oracle
        if differs:
            failures.append("matrix vs oracle")
        if _unscaled(slide_increment(L, chain_w), den) != increment:
            failures.append("increment consistent")
    else:
        failures.append("matrix vs formula")

    depth = cert.iterates_checked
    if type(depth) is int and 1 <= depth <= MAX_ITERATE_DEPTH and len(rows or ()) == r:
        failure = _iterate_failure(cert, v, rows, scaled)
        if failure:
            failures.append(failure)
    else:
        failures.append("iterate closed form")

    return CertificateCheck(ok=not failures, failures=tuple(failures))


def _exact(x) -> list | None:
    """``list(x)``, or None unless the certificate field x is an iterable of
    ints and Fractions."""
    x = list(x) if isinstance(x, Iterable) else [None]
    return x if set(map(type, x)) <= linalg.EXACT_TYPES else None


def _scaled(v: list) -> tuple[int, list]:
    """``(den, den * v)`` in ints, den the lcm of v's denominators.  Raises
    ValueError naming the first entry of v that is not an int or a Fraction."""
    if not set(map(type, v)) <= linalg.EXACT_TYPES:
        k, a = next((k, a) for k, a in enumerate(v) if type(a) not in linalg.EXACT_TYPES)
        raise ValueError(f"v[{k}] is a {type(a).__name__}, not an int or a Fraction")
    den = lcm(*(a.denominator for a in v))
    return den, [a.numerator * (den // a.denominator) for a in v]


def _unscaled(w: list, den: int) -> list:
    """``w / den``, divided at w's nonzeros only, each an int when integral."""
    return [linalg.int_if_integral(Fraction(x, den)) if x else 0 for x in w]


def _matrix_nonzeros(matrix: list, r: int) -> tuple[list | None, list | None]:
    """One pass over a certificate matrix: its columns as ``row -> value``
    maps (None unless it is a list of r lists of r entries), and each row's
    ``(col, value)`` nonzeros among its first r entries.  Both are None
    unless the matrix and its rows are lists or tuples whose nonzeros are
    ints or Fractions: an entry equal to 0 is a zero whatever its type, and
    a row whose truthy entries and entries equal to 0 do not add up holds
    something else, such as None."""
    if not isinstance(matrix, (list, tuple)):
        return None, None
    square = isinstance(matrix, list) and len(matrix) == r
    columns: list[dict] = [{} for _ in range(r)]
    rows = []
    for i, row in enumerate(matrix):
        if not (isinstance(row, list) and len(row) == r):
            if not isinstance(row, (list, tuple)):
                return None, None
            square, row = False, row[:r]
        nonzeros = [(c, row[c]) for c in compress(range(r), row)]
        if len(nonzeros) + row.count(0) != len(row):
            return None, None
        rows.append(nonzeros)
        if square:
            for c, x in nonzeros:
                columns[c][i] = x
    if not {type(x) for row in rows for _, x in row} <= linalg.EXACT_TYPES:
        return None, None
    return (columns if square else None), rows


def _row_products(rows: list, w: list) -> list:
    """``M w`` along the row nonzeros of :func:`_matrix_nonzeros`, as ``mat_vec``."""
    out = []
    for row in rows:
        acc = 0
        for c, x in row:
            if y := w[c]:
                acc += x * y
        out.append(acc)
    return out


def _iterate_failure(cert: MoveCertificate, v: list, rows: list, scaled: tuple) -> str | None:
    """The first failed check (``"iterate closed form"`` or ``"iterates
    distinct"``) of ``M^d v = v + d * increment`` for d in 1..D, with M the
    ``rows`` and D ``iterates_checked``, or None.

    ``scaled`` is ``(den, b = den * v)``, and with ``s = den * increment``
    the check is two row products: by induction ``M^d b = b + d s`` for d in
    1..D iff ``M b = b + s`` and (if D >= 2) ``M s = s``, and those iterates
    are distinct iff s != 0.  The increment is read through ``zip``: trimmed
    to r, failing if short or if an entry is not an int or a Fraction.  v is
    unread, there for a dense reference check to stand in for this one."""
    den, b = scaled
    step = _exact(cert.increment)
    if step is None:
        return "iterate closed form"
    # ints, not Fractions with denominator 1: den * Fraction is a Fraction
    s = [linalg.int_if_integral(den * x) for x in step[: len(b)]]
    if _row_products(rows, b) != [x + y for x, y in zip(b, s)]:
        return "iterate closed form"
    if cert.iterates_checked >= 2 and _row_products(rows, s) != s:
        return "iterate closed form"
    return None if any(s) else "iterates distinct"


def certificate_to_json(cert: MoveCertificate, Y: CoverGraph | None = None) -> dict:
    data = {
        "petal": cert.petal,
        "pairing_edge": list(cert.pairing_edge),
        "ell": cert.ell.to_string(),
        "ell_class": linalg.vector_to_json(cert.ell_class),
        "orbit_rank": cert.orbit_rank_value,
        "increment": linalg.vector_to_json(cert.increment),
        "matrix": linalg.matrix_to_json(cert.matrix),
        "iterates_checked": cert.iterates_checked,
    }
    if Y is not None:
        data["cover"] = {
            "group_order": Y.group.order,
            "n": Y.n,
            "images": list(Y.images),
        }
    return data
