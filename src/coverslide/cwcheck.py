"""Representation-level checks on the deck action.

The deck group acts on the cover's rational H1 as (n-1) copies of the
regular representation plus one trivial summand.  Over Q this is fully
captured by the character: trace (n-1)|G| + 1 at the identity and trace 1
everywhere else, which :func:`verify_chevalley_weil` tests exactly.

For deck groups of exponent 2 (all characters rational, +-1 valued) the
isotypic decomposition is computed explicitly via the averaging projectors
P_chi = (1/|G|) sum chi(g) rho(g).  Since g = g^-1, the row of P_chi at the
cotree edge (u, i) is chi(u)/|G| * W_i, with W_i[k] = sum_h chi(h) z_k[(h, i)]
over the basis cycles z_k: n petal rows, filled as dense int lists from the
cycles' nonzeros, give every row, and each dimension is the exact sparse
rank of those n integer rows.  The report holds the petal rows; its
projector rows (2n distinct Fraction rows per character, equal rows one
list) and dense projectors are built only when first read, and JSON output
renders each distinct row once, from the petal rows.

Elevations — closed lifts of w^k where k is the order of w's image — and the
rank obstruction they satisfy are also provided: the preimage of a loop with
nontrivial image has fewer than |G| components, so its elevation classes can
never span a full-rank orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress

from . import linalg
from .cover import CoverGraph, Word, commutator_word, lift_word
from .groups import element_order, subgroup_generated
from .homology import (
    HomologyBasis,
    chain_of_path,
    chain_to_class,
    character,
    orbit_rank_of_chain,
)


class UnsupportedGroup(ValueError):
    """Isotypic decomposition is only offered for exponent-2 abelian groups."""


class WrongRank(ValueError):
    """The commutator check only makes sense on a 2-petal rose."""


@dataclass(frozen=True)
class CharacterReport:
    order: int
    rank: int
    traces: dict
    verdict: bool


def verify_chevalley_weil(Y: CoverGraph, B: HomologyBasis) -> CharacterReport:
    """Exact character test of the regular-plus-trivial structure of H1."""
    n, order = Y.n, Y.group.order
    traces = {g: character(Y, B, g) for g in Y.group.elements()}
    expected_identity = (n - 1) * order + 1
    verdict = traces[0] == expected_identity and all(
        traces[g] == 1 for g in range(1, order)
    )
    return CharacterReport(order=order, rank=B.rank, traces=traces, verdict=verdict)


class _Memo(dict):
    """``x -> make(x)``, each value made on its first lookup."""

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, x):
        value = self[x] = self.make(x)
        return value


@dataclass(frozen=True)
class IsotypicReport:
    """``petal_rows`` holds, for each character, its n petal rows
    W_1..W_n as dense int lists, which must not be modified: the projector's
    row at cotree edge (u, i) is chi(u)/|G| * W_i.  ``rows`` and
    ``projectors`` are built on first read, and JSON output renders each
    distinct row once, from the petal rows."""

    characters: tuple  # each character as its +-1 value tuple over all elements
    dims: dict  # character -> dimension of its isotypic component
    petal_rows: dict  # character -> [W_1, ..., W_n], dense int lists
    cotree: tuple  # the basis's cotree edges (u, i), one per coordinate
    order: int  # |G|

    @cached_property
    def rows(self) -> dict:
        """character -> projector rows, where equal rows are one list that
        must not be modified: the row at cotree edge (u, i) is the list for
        (chi(u), i).  Entries are Fractions, except that zeros are int 0."""
        # one Fraction per value, shared by every cell that holds it
        entry = _Memo(lambda x: Fraction(x, self.order) if x else 0).__getitem__
        return self._shared_rows(lambda sign, w: list(map(entry, map(sign.__mul__, w))))

    def _shared_rows(self, line) -> dict:
        """character -> one row per cotree edge (u, i): ``line(chi(u), W_i)``,
        made once per sign and petal and shared by the rows that take it."""
        heads = [u for u, _ in self.cotree]
        petals = [i for _, i in self.cotree]
        out = {}
        for chi, petal_rows in self.petal_rows.items():
            keys = list(zip(map(chi.__getitem__, heads), petals))
            lines = {(sign, i): line(sign, petal_rows[i - 1]) for sign, i in set(keys)}
            out[chi] = list(map(lines.__getitem__, keys))
        return out

    @cached_property
    def projectors(self) -> dict:
        """character -> averaging projector matrix"""
        return {chi: [row[:] for row in rows] for chi, rows in self.rows.items()}


def _exponent_two_characters(Y: CoverGraph) -> list[tuple[int, ...]]:
    """The +-1 characters, chi_s(g) = (-1)^(popcount(s & code[g])) for s
    ascending over the codes of ``involution_cosets``, whose subgroup is the
    whole group exactly when the group has exponent 2."""
    G = Y.group
    code, _, reps = G.involution_cosets
    if len(reps) > 1:
        x = next(x for x in G.elements() if element_order(G, x) > 2)
        raise UnsupportedGroup(
            f"element {x} has order {element_order(G, x)} > 2; "
            "isotypic decomposition needs an exponent-2 abelian deck group"
        )
    return [tuple(-1 if (s & a).bit_count() & 1 else 1 for a in code) for s in range(G.order)]


def isotypic_decomposition(Y: CoverGraph, B: HomologyBasis) -> IsotypicReport:
    """Averaging projectors and isotypic dimensions, one per character.

    The characters are ordered with the trivial one first, then by the sign
    pattern on a fixed greedy basis of the group; each is reported as its
    value tuple over all group elements.  Projector entries are Fractions,
    except that zero entries are int 0.
    """
    chars = _exponent_two_characters(Y)
    n, r = Y.n, B.rank
    # cotree petals run 1..n
    terms = [(k, i - 1, h, c) for k, zk in enumerate(B.cycles) for (h, i), c in zk.items()]
    dims = {}
    petal_rows = {}
    for chi in chars:
        W = [[0] * r for _ in range(n)]
        for k, i, h, c in terms:
            W[i][k] += chi[h] * c
        dims[chi] = linalg.sparse_rank(dict(compress(enumerate(w), w)) for w in W)
        petal_rows[chi] = W
    return IsotypicReport(
        characters=tuple(chars), dims=dims, petal_rows=petal_rows, cotree=B.cotree, order=Y.group.order
    )


def elevation_class(Y: CoverGraph, B: HomologyBasis, w: Word, start: int) -> list:
    """Class of the closed lift of w^k at the start vertex, where k is the
    order of w's image in the deck group."""
    k = element_order(Y.group, Y.image_of(w))
    path = lift_word(Y, w**k, start)
    return chain_to_class(B, chain_of_path(path))


@dataclass(frozen=True)
class ObstructionReport:
    component_count: int
    orbit_rank: int
    obstructed: bool


def elevation_rank_obstruction(Y: CoverGraph, B: HomologyBasis, w: Word) -> ObstructionReport:
    """Rank obstruction for using (a power of) w as a slide loop.

    The preimage of the loop w has [G : <image(w)>] components, and the deck
    orbit of any elevation class is confined to the span of one class per
    component; when the image is nontrivial the component count is < |G| and
    property 3 can never hold for w.
    """
    if len(w) == 0:
        raise ValueError("w must be a nonempty word")
    qw = Y.image_of(w)
    sub = subgroup_generated(Y.group, [qw])
    component_count = Y.group.order // len(sub)
    k = element_order(Y.group, qw)
    chain = chain_of_path(lift_word(Y, w**k, 0))
    rank_value = orbit_rank_of_chain(Y, B, chain)
    if rank_value > component_count:
        raise AssertionError(
            f"elevation orbit rank {rank_value} exceeds component count {component_count}"
        )
    return ObstructionReport(
        component_count=component_count,
        orbit_rank=rank_value,
        obstructed=component_count < Y.group.order,
    )


@dataclass(frozen=True)
class CommutatorReport:
    lifts: bool
    class_nonzero: bool


def commutator_lift_check(Y: CoverGraph, B: HomologyBasis) -> CommutatorReport:
    """On a 2-petal rose: does the generators' commutator lift closed, and is
    the lift homologically nontrivial?"""
    if Y.n != 2:
        raise WrongRank(f"commutator check needs n = 2, got {Y.n}")
    w = commutator_word(1, 2)
    if Y.image_of(w) != 0:
        return CommutatorReport(lifts=False, class_nonzero=False)
    cls = chain_to_class(B, chain_of_path(lift_word(Y, w, 0)))
    return CommutatorReport(lifts=True, class_nonzero=not linalg.vec_is_zero(cls))


def character_report_to_json(report: CharacterReport) -> dict:
    return {
        "order": report.order,
        "rank": report.rank,
        "traces": {str(g): str(t) for g, t in report.traces.items()},
        "verdict": report.verdict,
    }


def isotypic_report_to_json(report: IsotypicReport) -> dict:
    """The report's JSON payload.  Each petal row W_i is rendered once per
    sign that its cotree edges take, by one ``map`` over its ints, and every
    projector row for that sign and petal gets the same list of texts; each
    distinct value x has one text per sign, ``str(Fraction(sign * x, |G|))``."""
    order = report.order
    texts = {1: _Memo(lambda x: str(Fraction(x, order))), -1: _Memo(lambda x: str(Fraction(-x, order)))}
    rendered = report._shared_rows(lambda sign, w: list(map(texts[sign].__getitem__, w)))
    return {
        "characters": [list(chi) for chi in report.characters],
        "dims": [report.dims[chi] for chi in report.characters],
        "projectors": [rendered[chi] for chi in report.characters],
    }
