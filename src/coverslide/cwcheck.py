"""Representation-level checks on the deck action.

The deck group acts on the cover's rational H1 as (n-1) copies of the
regular representation plus one trivial summand.  Over Q this is fully
captured by the character: trace (n-1)|G| + 1 at the identity and trace 1
everywhere else, which :func:`verify_chevalley_weil` tests exactly.

For deck groups of exponent 2 (all characters rational, +-1 valued) the
isotypic decomposition is computed explicitly via the averaging projectors
(1/|G|) sum chi(g) rho(g).  Elevations — closed lifts of w^k where k is the
order of w's image — and the rank obstruction they satisfy are also provided:
the preimage of a loop with nontrivial image has fewer than |G| components,
so its elevation classes can never span a full-rank orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import linalg
from .cover import CoverGraph, Word, commutator_word, lift_word
from .groups import element_order, subgroup_generated
from .homology import (
    HomologyBasis,
    chain_of_path,
    chain_to_class,
    character,
    deck_action_matrix,
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


@dataclass(frozen=True)
class IsotypicReport:
    characters: tuple  # each character as its +-1 value tuple over all elements
    dims: dict  # character -> dimension of its isotypic component
    projectors: dict  # character -> averaging projector matrix


def _exponent_two_characters(Y: CoverGraph) -> list[tuple[int, ...]]:
    G = Y.group
    for x in G.elements():
        if element_order(G, x) > 2:
            raise UnsupportedGroup(
                f"element {x} has order {element_order(G, x)} > 2; "
                "isotypic decomposition needs an exponent-2 abelian deck group"
            )
    # greedy F2 basis of the group
    basis: list[int] = []
    span = {0}
    while len(span) < G.order:
        nxt = min(x for x in G.elements() if x not in span)
        basis.append(nxt)
        span = set(subgroup_generated(G, basis).members)
    # coordinates of every element over that basis
    coords: dict[int, tuple[int, ...]] = {}
    for bits in product(range(2), repeat=len(basis)):
        g = 0
        for b, bit in zip(basis, bits):
            if bit:
                g = G.mul[g][b]
        coords[g] = bits
    if len(coords) != G.order:
        raise AssertionError(f"greedy basis reaches {len(coords)} of {G.order} elements")
    chars = []
    for signs in product(range(2), repeat=len(basis)):
        chars.append(
            tuple(
                -1 if sum(s * c for s, c in zip(signs, coords[g])) % 2 else 1
                for g in G.elements()
            )
        )
    return chars


def isotypic_decomposition(Y: CoverGraph, B: HomologyBasis) -> IsotypicReport:
    """Averaging projectors and isotypic dimensions, one per character.

    The characters are ordered with the trivial one first, then by the sign
    pattern on a fixed greedy basis of the group; each is reported as its
    value tuple over all group elements.
    """
    chars = _exponent_two_characters(Y)
    order = Y.group.order
    rho = {g: deck_action_matrix(Y, B, g) for g in Y.group.elements()}
    scale = Fraction(1, order)
    dims = {}
    projectors = {}
    for chi in chars:
        acc = linalg.mat_zero(B.rank, B.rank)
        for g in Y.group.elements():
            coef = chi[g]
            m = rho[g]
            for row in range(B.rank):
                ar = acc[row]
                mr = m[row]
                for col in range(B.rank):
                    if mr[col] != 0:
                        ar[col] = ar[col] + coef * mr[col]
        proj = linalg.mat_scale(scale, acc)
        projectors[chi] = proj
        dims[chi] = linalg.rank(proj)
    return IsotypicReport(characters=tuple(chars), dims=dims, projectors=projectors)


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
        "traces": {str(g): linalg.format_rational(t) for g, t in report.traces.items()},
        "verdict": report.verdict,
    }


def isotypic_report_to_json(report: IsotypicReport) -> dict:
    return {
        "characters": [list(chi) for chi in report.characters],
        "dims": [report.dims[chi] for chi in report.characters],
        "projectors": [linalg.matrix_to_json(report.projectors[chi]) for chi in report.characters],
    }
