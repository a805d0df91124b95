"""Edge-slide automorphisms and the action of their lifts on homology.

An edge slide drags the initial point of one petal ``a_j`` around a loop
``ell`` that avoids that petal; on the free group it maps ``a_j`` to
``ell * a_j`` and fixes the other generators.  The slide admits a lift fixing
every vertex of the cover exactly when ``ell`` maps to the group identity.

The induced map on homology is computed by two deliberately independent
routes that must agree:

* the cocycle formula: ``F(w) = w + sum_g xi_{(g,j)}(w) * [g . ell~]`` where
  ``ell~`` is the lift of ``ell`` at the identity vertex and ``xi_{(g,j)}``
  reads off the coefficient of the petal-j edge at vertex g;
* the chain-map oracle: lift the substituted word of every edge the slide
  moves by path lifting and push basis cycles through the resulting chain
  map, which is the identity on every other edge.

Because ``ell`` avoids petal j, no translate of ``ell~`` meets a petal-j
edge, so the difference F - I squares to zero and iterates follow the closed
form ``F^d(w) = w + d * (F(w) - w)``.

Both routes give the action as the columns of a
:class:`~coverslide.linalg.ColumnMatrix`, one per basis cycle: column k
differs from ``e_k`` only when the cycle crosses petal j, so most columns
are a single diagonal 1.  Column k of the formula is ``e_k`` plus the
petal-j increment of basis cycle k, so by linearity the increment of a class
w, :func:`slide_increment` of its canonical cycle, is also ``M w - w`` for
the formula's matrix M: a mover takes it from w's cycle, and its verifier
from the columns and w's coordinates, with no cycle built.
A :class:`LiftedSlide` is plain data in one basis's coordinates and does not
hold the basis, so the basis can keep it (``HomologyBasis.slide_memo``).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from . import linalg
from .cover import CoverGraph, Word, free_reduce, lift_word
from .homology import (
    Chain1,
    HomologyBasis,
    NotACycle,
    _sparse_coords,
    chain_add,
    chain_of_path,
    chain_to_class,
    translate_chain,
)


class PetalInLoop(ValueError):
    """The slide loop uses the petal being slid."""


class DoesNotLift(ValueError):
    """The slide loop does not map to the group identity, so no lift exists."""


@dataclass(frozen=True)
class SlideAutomorphism:
    """a_j -> ell * a_j, all other generators fixed; ell avoids petal j."""

    n: int
    j: int
    ell: Word

    def __post_init__(self) -> None:
        if not 1 <= self.j <= self.n:
            raise ValueError(f"petal {self.j} out of range 1..{self.n}")
        if self.ell.max_petal() > self.n:
            raise ValueError(f"loop uses petal {self.ell.max_petal()} but n = {self.n}")
        if any(i == self.j for i, _ in self.ell):
            raise PetalInLoop(f"loop {self.ell.to_string()!r} uses the slid petal a{self.j}")


def make_slide(n: int, j: int, ell: Word) -> SlideAutomorphism:
    return SlideAutomorphism(n=n, j=j, ell=ell)


def apply_automorphism(s: SlideAutomorphism, w: Word) -> Word:
    """Substitute and freely reduce: a_j -> ell*a_j, a_j^-1 -> a_j^-1*ell^-1."""
    ell_inv = s.ell.inverse()
    letters: list[tuple[int, int]] = []
    for i, sign in w.letters:
        if i == s.j and sign == 1:
            letters.extend(s.ell.letters)
            letters.append((i, 1))
        elif i == s.j and sign == -1:
            letters.append((i, -1))
            letters.extend(ell_inv.letters)
        else:
            letters.append((i, sign))
    return free_reduce(Word(tuple(letters)))


def lifts_to_cover(s: SlideAutomorphism, Y: CoverGraph) -> bool:
    """True iff the loop maps to the identity, i.e. lifts closed at every
    vertex (the slide then lifts to a map fixing all vertices)."""
    if s.n != Y.n:
        raise ValueError(f"slide is on {s.n} petals, cover on {Y.n}")
    return Y.image_of(s.ell) == 0


@dataclass(eq=False)
class LiftedSlide:
    """A slide's lift to one cover and its action on H1, in the coordinates
    of one basis.

    ``columns[k]`` maps row -> nonzero entry of the image of basis cycle k,
    a read-only :class:`types.MappingProxyType` that the formula alone can
    write; ``matrix`` is the :class:`~coverslide.linalg.ColumnMatrix` over
    them.  A move certificate's matrix holds these same column objects (a
    fresh list of them, shared, never copied), and the verifier recognises
    them by identity.
    ``translate_classes`` maps each vertex g at which a basis cycle crosses
    petal j to the nonzero coordinates of [g . ell~]; a class's canonical
    cycle is a combination of basis cycles, so it crosses petal j at no other
    vertex."""

    slide: SlideAutomorphism
    cover: CoverGraph
    ell_chain: Chain1
    ell_class: list
    columns: list
    translate_classes: dict

    @property
    def matrix(self) -> linalg.ColumnMatrix:
        return linalg.ColumnMatrix(self.columns)


def _lift_chain_or_raise(s: SlideAutomorphism, Y: CoverGraph) -> Chain1:
    if not lifts_to_cover(s, Y):
        raise DoesNotLift(
            f"loop {s.ell.to_string()!r} maps to element {Y.image_of(s.ell)}, not the identity"
        )
    return chain_of_path(lift_word(Y, s.ell, 0))


def lifted_action_formula(s: SlideAutomorphism, Y: CoverGraph, B: HomologyBasis) -> LiftedSlide:
    """Action of the lifted slide on H1 by the cocycle formula.

    Column k is ``e_k + sum_g xi_{(g,j)}(z_k) * [g . ell~]``, summing only
    over the petal-j edges in the support of the basis cycle ``z_k``, held
    read-only; the class of each translate it visits fills
    ``translate_classes``.
    """
    ell_chain = _lift_chain_or_raise(s, Y)
    L = LiftedSlide(
        slide=s,
        cover=Y,
        ell_chain=ell_chain,
        ell_class=chain_to_class(B, ell_chain),
        columns=[],
        translate_classes={},
    )
    translates = L.translate_classes
    for k, zk in enumerate(B.cycles):
        for g, i in zk:
            if i == s.j and g not in translates:
                translates[g] = _sparse_coords(B, translate_chain(Y, g, ell_chain))
        col = _petal_increment(L, zk)
        chain_add(col, k, 1)
        L.columns.append(MappingProxyType(col))
    return L


def lifted_action_oracle(s: SlideAutomorphism, Y: CoverGraph, B: HomologyBasis) -> list:
    """The same columns by brute force, with no cocycles anywhere.

    The lift fixes every vertex, so it induces a chain map: each edge (g, i)
    is sent to the lift, at g, of the substituted generator word.  Each edge
    image must have the boundary head - tail of its edge (else
    :class:`NotACycle`), so by linearity the image of every cycle is a cycle
    and its coordinates are its cotree coefficients.

    Only the edges of the generators the slide moves are lifted.  Where the
    substituted word of ``a_i`` is ``a_i`` itself (every i but j, for a
    nonempty loop), the lift at g is the edge (g, i): it maps to itself and
    adds only its own cotree coordinate.  So column k is
    ``e_k + sum c * coords(img(e) - e)`` over the moved edges e of the basis
    cycle ``z_k`` with coefficient c, the same column as pushing every edge
    through the map.  Each moved edge, in edge order, is checked to have an
    image ending at the edge's head, the lift of the word at g ending at g
    times the word's image (else :class:`NotACycle` at the smaller of the
    two vertices, where ``img(e) - e`` has its boundary), then lifted by path
    lifting and checked to stay in the basis's graph (else
    :class:`ValueError`).
    """
    _lift_chain_or_raise(s, Y)
    images = {i: apply_automorphism(s, Word.generator(i)) for i in range(1, Y.n + 1)}
    moved = {i: w for i, w in images.items() if w != Word.generator(i)}
    # the lift of a word at g ends at g times the word's image
    ends = {i: Y.image_of(w) for i, w in moved.items()}
    mul = Y.group.mul
    displacement: dict = {}
    for e in B.edges:
        if e[1] not in moved:
            continue
        # img(e) - e: a cycle exactly when img(e) ends at e's head, its
        # boundary being end - head, and in the basis's graph exactly when
        # img(e) is, since e is
        end, head = mul[e[0]][ends[e[1]]], Y.edge_head(e)
        if end != head:
            raise NotACycle(min(end, head))
        moved_by = chain_of_path(lift_word(Y, moved[e[1]], e[0]))
        chain_add(moved_by, e, -1)
        if not moved_by.keys() <= B.edge_set:
            raise ValueError(f"image of edge {e} leaves the graph of this basis")
        displacement[e] = _sparse_coords(B, moved_by)
    cols = []
    for k, zk in enumerate(B.cycles):
        col = {k: 1}
        for e, c in zk.items():
            for row, x in displacement.get(e, {}).items():
                col[row] = col.get(row, 0) + c * x
        cols.append({row: x for row, x in col.items() if x})
    return cols


def _petal_increment(L: LiftedSlide, z: Chain1) -> dict:
    """``sum_g xi_{(g,j)}(z) * [g . ell~]``, as row -> nonzero value: the
    displacement the lifted slide adds to the cycle z, summed over the petal-j
    edges in its support."""
    j, translates = L.slide.j, L.translate_classes
    delta: dict = {}
    for (g, i), c in z.items():
        if i == j and c != 0:
            for row, x in translates[g].items():
                delta[row] = delta.get(row, 0) + c * x
    return {row: x for row, x in delta.items() if x}


def slide_increment(L: LiftedSlide, chain: Chain1) -> list:
    """The per-iterate displacement ``F(w) - w`` of a class w, from the closed
    form ``F^d(w) = w + d * (F(w) - w)``, summed over the petal-j edges of
    w's cycle (not from the matrix).  ``chain`` is w's canonical cycle,
    ``class_to_chain(B, w)`` in the basis of L.  By linearity it equals
    ``column_products(L.columns, w) - w``, the route a verifier takes from
    w's coordinates without the cycle."""
    delta = _petal_increment(L, chain)
    return [delta.get(k, 0) for k in range(len(L.columns))]


def lifted_slide_to_json(L: LiftedSlide) -> dict:
    return {
        "petal": L.slide.j,
        "ell": L.slide.ell.to_string(),
        "ell_class": linalg.vector_to_json(L.ell_class),
        "matrix": linalg.columns_to_json(L.columns),
    }
