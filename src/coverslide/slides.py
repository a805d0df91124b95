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
* the chain-map oracle: lift the substituted word of every single edge by
  path lifting and push basis cycles through the resulting chain map.

Because ``ell`` avoids petal j, no translate of ``ell~`` meets a petal-j
edge, so the difference F - I squares to zero and iterates follow the closed
form ``F^d(w) = w + d * (F(w) - w)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .cover import CoverGraph, Word, free_reduce, lift_word
from .homology import (
    Chain1,
    HomologyBasis,
    chain_add_scaled,
    chain_of_path,
    chain_to_class,
    class_to_chain,
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
    """A slide together with its lift's action matrix on the cover's H1."""

    slide: SlideAutomorphism
    cover: CoverGraph
    basis: HomologyBasis
    ell_chain: Chain1
    ell_class: list
    matrix: list
    _translate_classes: dict = field(default_factory=dict, repr=False)

    def translate_class(self, g: int) -> list:
        """Coordinates of [g . ell~], cached per deck element."""
        cls = self._translate_classes.get(g)
        if cls is None:
            z = translate_chain(self.cover, g, self.ell_chain)
            cls = [z.get(e, 0) for e in self.basis.cotree]
            self._translate_classes[g] = cls
        return cls


def _lift_chain_or_raise(s: SlideAutomorphism, Y: CoverGraph) -> Chain1:
    if not lifts_to_cover(s, Y):
        raise DoesNotLift(
            f"loop {s.ell.to_string()!r} maps to element {Y.image_of(s.ell)}, not the identity"
        )
    return chain_of_path(lift_word(Y, s.ell, 0))


def lifted_action_formula(s: SlideAutomorphism, Y: CoverGraph, B: HomologyBasis) -> LiftedSlide:
    """Action of the lifted slide on H1 by the cocycle formula.

    Column k is ``e_k + sum_g xi_{(g,j)}(z_k) * [g . ell~]``, summing only
    over the petal-j edges in the support of the basis cycle ``z_k``.
    """
    ell_chain = _lift_chain_or_raise(s, Y)
    ell_class = chain_to_class(B, ell_chain)
    L = LiftedSlide(
        slide=s,
        cover=Y,
        basis=B,
        ell_chain=ell_chain,
        ell_class=ell_class,
        matrix=[],
    )
    cols = []
    for k, zk in enumerate(B.cycles):
        col = _petal_increment(L, zk)
        col[k] += 1
        cols.append(col)
    L.matrix = linalg.transpose(cols)
    return L


def lifted_action_oracle(s: SlideAutomorphism, Y: CoverGraph, B: HomologyBasis) -> list:
    """The same matrix by brute force, with no cocycles anywhere.

    The lift fixes every vertex, so it induces a chain map: each edge (g, i)
    is sent to the lift, at g, of the substituted generator word.  The map is
    computed on every edge of the cover, then pushed through the basis cycles
    and re-expressed in coordinates.
    """
    _lift_chain_or_raise(s, Y)
    edge_image: dict = {}
    for e in Y.edges():
        g, i = e
        wi = apply_automorphism(s, Word.generator(i))
        edge_image[e] = chain_of_path(lift_word(Y, wi, g))
    cols = []
    for zk in B.cycles:
        img: Chain1 = {}
        for e, c in zk.items():
            chain_add_scaled(img, edge_image[e], c)
        cols.append(chain_to_class(B, img))
    return linalg.transpose(cols)


def _petal_increment(L: LiftedSlide, z: Chain1) -> list:
    """``sum_g xi_{(g,j)}(z) * [g . ell~]``: the displacement the lifted slide
    adds to the cycle z, summed over the petal-j edges in its support."""
    r = L.basis.rank
    delta = [0] * r
    for (g, i), c in z.items():
        if i == L.slide.j and c != 0:
            cls = L.translate_class(g)
            for row in range(r):
                if cls[row] != 0:
                    delta[row] = delta[row] + c * cls[row]
    return delta


def slide_increment(L: LiftedSlide, w: list) -> list:
    """The per-iterate displacement ``F(w) - w`` of a class, from the closed
    form (not from the matrix)."""
    return _petal_increment(L, class_to_chain(L.basis, w))


def iterate_closed_form(L: LiftedSlide, d: int, w: list) -> list:
    """``F^d(w) = w + d * (F(w) - w)``, valid for any integer d because no
    translate of the slide loop crosses the slid petal's edges."""
    delta = slide_increment(L, w)
    return [a + d * b for a, b in zip(w, delta)]


def lifted_slide_to_json(L: LiftedSlide) -> dict:
    return {
        "petal": L.slide.j,
        "ell": L.slide.ell.to_string(),
        "ell_class": linalg.vector_to_json(L.ell_class),
        "matrix": linalg.matrix_to_json(L.matrix),
    }
