"""Finite normal covers of a rose, modeled as Cayley graphs.

The base rose has one vertex and ``n`` oriented petals, identified with free
generators ``a1..an``.  A surjection onto a finite group (given by the petal
images) determines the cover: vertices are the group elements, and for each
vertex ``g`` and petal ``i`` there is one directed edge ``(g, i)`` running
from ``g`` to ``g * images[i]``.  The deck group acts by left multiplication,
so incidence, path lifting and deck translation are all table lookups.

Petal indices are 1-based throughout.  Loops (petals mapping to the identity)
and multiple edges are allowed and need no special handling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .groups import (
    FiniteGroup,
    closure,
    generator_count_lower_bound,
    left_cosets,
    subgroup_generated,
)

Letter = tuple[int, int]  # (petal index, +1 or -1)
Edge = tuple[int, int]  # (tail vertex = group element index, petal index)


class Disconnected(ValueError):
    """The petal images do not generate the deck group."""


_LETTER_RE = re.compile(r"^a([1-9][0-9]*)(\^-1)?$")


@dataclass(frozen=True)
class Word:
    """A word in the free generators, as (petal, exponent) letters."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        for i, s in self.letters:
            if i < 1 or s not in (1, -1):
                raise ValueError(f"bad letter ({i}, {s})")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else self.inverse()
        return Word(base.letters * abs(k))

    def inverse(self) -> "Word":
        return Word(tuple((i, -s) for i, s in reversed(self.letters)))

    def max_petal(self) -> int:
        return max((i for i, _ in self.letters), default=0)

    def to_string(self) -> str:
        return ".".join(f"a{i}" if s == 1 else f"a{i}^-1" for i, s in self.letters)

    @classmethod
    def from_string(cls, text: str) -> "Word":
        text = text.strip()
        if not text:
            return cls()
        letters = []
        for tok in text.split("."):
            m = _LETTER_RE.match(tok.strip())
            if m is None:
                raise ValueError(f"bad word letter {tok!r} (expected e.g. 'a2' or 'a2^-1')")
            letters.append((int(m.group(1)), -1 if m.group(2) else 1))
        return cls(tuple(letters))

    @classmethod
    def generator(cls, i: int, s: int = 1) -> "Word":
        return cls(((i, s),))


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[Letter] = []
    for i, s in w.letters:
        if out and out[-1] == (i, -s):
            out.pop()
        else:
            out.append((i, s))
    return Word(tuple(out))


def commutator_word(i: int, j: int) -> Word:
    return Word(((i, 1), (j, 1), (i, -1), (j, -1)))


@dataclass(frozen=True)
class CoverGraph:
    """The cover of the n-petal rose given by the petal images in the group,
    as a Cayley graph; immutable, incidence computed on demand."""

    group: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.images) < 2:
            raise ValueError("a rose needs at least 2 petals")
        for g in self.images:
            if not 0 <= g < self.group.order:
                raise ValueError(f"petal image {g} out of range")

    @property
    def n(self) -> int:
        return len(self.images)

    @property
    def vertex_count(self) -> int:
        return self.group.order

    @property
    def edge_count(self) -> int:
        return self.n * self.group.order

    def vertices(self) -> range:
        return range(self.group.order)

    def edges(self) -> Iterator[Edge]:
        """All edges in canonical order: tail ascending, petal ascending."""
        for g in range(self.group.order):
            for i in range(1, self.n + 1):
                yield (g, i)

    def edge_tail(self, e: Edge) -> int:
        return e[0]

    def edge_head(self, e: Edge) -> int:
        g, i = e
        return self.group.mul[g][self.images[i - 1]]

    def letter_image(self, letter: Letter) -> int:
        i, s = letter
        img = self.images[i - 1]
        return img if s == 1 else self.group.inv[img]

    def image_of(self, w: Word) -> int:
        """The group element the word maps to (the quotient homomorphism)."""
        acc = 0
        mul = self.group.mul
        for letter in w.letters:
            acc = mul[acc][self.letter_image(letter)]
        return acc


def build_cover(group: FiniteGroup, images: Sequence[int]) -> CoverGraph:
    """Build the cover; rejects images that do not generate the deck group."""
    Y = CoverGraph(group, tuple(images))
    generated = subgroup_generated(group, Y.images)
    if len(generated) != group.order:
        raise Disconnected(f"images generate a subgroup of order {len(generated)} < {group.order}")
    return Y


def make_cover(group: FiniteGroup, images: Sequence[int]) -> CoverGraph:
    return build_cover(group, images)


@dataclass(frozen=True)
class EdgePath:
    """An edge path: a start vertex plus (edge, direction) steps."""

    start: int
    steps: tuple[tuple[Edge, int], ...] = ()


def path_end(Y: CoverGraph, p: EdgePath) -> int:
    v = p.start
    for e, d in p.steps:
        v = Y.edge_head(e) if d == 1 else Y.edge_tail(e)
    return v


def lift_word(Y: CoverGraph, w: Word, start: int) -> EdgePath:
    """The unique lift of the word starting at the given vertex.

    A letter ``(i, +1)`` at vertex ``g`` traverses edge ``(g, i)`` forward; a
    letter ``(i, -1)`` traverses the petal-i edge ending at ``g`` backward.
    The endpoint is always ``start * image_of(w)``.
    """
    if not 0 <= start < Y.vertex_count:
        raise ValueError(f"start vertex {start} out of range")
    mul, inv = Y.group.mul, Y.group.inv
    steps: list[tuple[Edge, int]] = []
    v = start
    for i, s in w.letters:
        if not 1 <= i <= Y.n:
            raise ValueError(f"word uses petal {i} but the rose has {Y.n}")
        img = Y.images[i - 1]
        if s == 1:
            steps.append(((v, i), 1))
            v = mul[v][img]
        else:
            u = mul[v][inv[img]]
            steps.append(((u, i), -1))
            v = u
    return EdgePath(start, tuple(steps))


@dataclass(frozen=True)
class ComponentSubgraph:
    """One connected component of the cover minus a petal's open edges.

    The vertex set is a left coset of the subgroup generated by the remaining
    petal images; the component of the identity vertex comes first in
    :func:`petal_complement_components`.
    """

    cover: CoverGraph
    coset_rep: int
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]


def petal_complement_components(Y: CoverGraph, j: int) -> list[ComponentSubgraph]:
    """Components of the cover after deleting the interiors of all petal-j
    edges (vertices stay).  Component vertex sets are the left cosets of the
    subgroup generated by the other petal images; the identity's component is
    first and each component is labeled by its smallest vertex."""
    if not 1 <= j <= Y.n:
        raise ValueError(f"petal {j} out of range 1..{Y.n}")
    other_petals = [i for i in range(1, Y.n + 1) if i != j]
    gens = [Y.images[i - 1] for i in other_petals]
    sub = subgroup_generated(Y.group, gens)
    comps = []
    for block in left_cosets(Y.group, sub):
        edges = tuple((g, i) for g in block for i in other_petals)
        comps.append(
            ComponentSubgraph(
                cover=Y,
                coset_rep=block[0],
                vertices=block,
                edges=edges,
            )
        )
    return comps


def standard_images(group: FiniteGroup, n: int) -> tuple[int, ...] | None:
    """A canonical surjective images tuple for an n-petal rose, or None.

    The answer is the lexicographically first generating set of the smallest
    size k <= n, padded with the identity, so the choice is deterministic.  It
    is found by a depth-first search over increasing elements, for k = b,
    b + 1, ..., that grows the subgroup ``H`` generated by the chosen prefix
    one element at a time.  b is :func:`generator_count_lower_bound`: no
    smaller k can succeed, and when b > n the answer is None at once.  Each
    prune skips only branches that hold no generating set of size k
    lexicographically before the first one, so the answer is that of a scan
    over all k-subsets:

    * an element of ``H`` is skipped: a smallest generating set is irredundant;
    * an element of ``<H, g'>`` for an earlier sibling ``g'`` whose branch
      failed is skipped: any completion of it would also complete ``g'``;
    * a ``(H, budget)`` pair met before is skipped: a completion of the new
      prefix would also complete the earlier prefix, or a shorter one, to a
      generating set that comes first.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    m = group.order
    if m == 1:
        return (0,) * n
    mul = group.mul
    seen: set[tuple[frozenset, int]] = set()

    def search(H: frozenset, gens: list[int], start: int, budget: int) -> list[int] | None:
        # the first increasing T in start..m-1 with |T| = budget and <H, T> = G
        if (H, budget) in seen:
            return None
        seen.add((H, budget))
        covered = set(H)
        for g in range(start, m - budget + 1):
            if g in covered:
                continue
            extended = gens + [g]
            K = closure(mul, extended, H)
            if budget == 1:
                if len(K) == m:
                    return [g]
            else:
                found = search(frozenset(K), extended, g + 1, budget - 1)
                if found is not None:
                    return [g] + found
            covered |= K
        return None

    for k in range(max(generator_count_lower_bound(group), 1), n + 1):
        found = search(frozenset((0,)), [], 1, k)
        if found is not None:
            return tuple(found) + (0,) * (n - k)
    return None


_PETAL_COLORS = (
    "#e41a1c",
    "#377eb8",
    "#4daf4a",
    "#984ea3",
    "#ff7f00",
    "#a65628",
    "#f781bf",
    "#999999",
)


def to_dot(Y: CoverGraph) -> str:
    """GraphViz DOT export: vertices carry group labels, edge colors encode
    the petal, arrows show orientation."""
    lines = ["digraph cover {"]
    for g in Y.vertices():
        lines.append(f'  v{g} [label="{Y.group.labels[g]}"];')
    for g, i in Y.edges():
        color = _PETAL_COLORS[(i - 1) % len(_PETAL_COLORS)]
        head = Y.edge_head((g, i))
        lines.append(f'  v{g} -> v{head} [label="a{i}", color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
