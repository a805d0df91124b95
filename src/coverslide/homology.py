"""Exact rational 1-chains and first homology of a cover.

A 1-chain is a sparse dict ``edge -> coefficient`` (int or Fraction, never
float).  Since a graph has no 2-cells, first homology is the cycle space: the
kernel of the boundary map.  A deterministic spanning tree fixes a basis of
fundamental cycles, one per non-tree edge, and a cycle's coordinates are just
its coefficients on those cotree edges.  That makes the edge-dual cocycles
well defined on homology and keeps every computation reproducible.

Tree determinism: breadth-first from the root, scanning each vertex's
incident edges by ascending petal index, forward before backward.  The cotree
keeps the canonical edge order (tail ascending, then petal).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Sequence

from . import linalg
from .cover import ComponentSubgraph, CoverGraph, Edge, EdgePath
from .linalg import Rational

Chain1 = Dict[Edge, Rational]


class NotACycle(ValueError):
    """A chain with nonzero boundary was used where a cycle is required."""

    def __init__(self, vertex: int):
        super().__init__(f"chain has nonzero boundary at vertex {vertex}")
        self.vertex = vertex


def chain_add(dst: Chain1, e: Edge, c: Rational) -> None:
    """Accumulate in place, dropping zero entries."""
    v = dst.get(e, 0) + c
    if v == 0:
        dst.pop(e, None)
    else:
        dst[e] = v


def chain_add_scaled(dst: Chain1, src: Mapping[Edge, Rational], c: Rational = 1) -> None:
    if c == 0:
        return
    for e, x in src.items():
        chain_add(dst, e, c * x)


def chain_of_path(p: EdgePath) -> Chain1:
    """Sum the path's steps with signs; backtracking cancels."""
    z: Chain1 = {}
    for e, d in p.steps:
        chain_add(z, e, d)
    return z


def translate_chain(Y: CoverGraph, g: int, z: Mapping[Edge, Rational]) -> Chain1:
    mul = Y.group.mul
    return {(mul[g][h], i): c for (h, i), c in z.items()}


def chain_boundary(Y: CoverGraph, z: Mapping[Edge, Rational]) -> dict[int, Rational]:
    bd: dict[int, Rational] = {}
    for e, c in z.items():
        if c == 0:
            continue
        h = Y.edge_head(e)
        t = e[0]
        bd[h] = bd.get(h, 0) + c
        bd[t] = bd.get(t, 0) - c
    return {v: c for v, c in bd.items() if c != 0}


@dataclass(eq=False)
class HomologyBasis:
    """Spanning tree, cotree, and fundamental cycle basis of a (sub)graph.

    ``slide_memo`` maps a petal to ``(L, orbit rank, oracle columns)`` for
    one lifted slide on this basis, which :mod:`coverslide.mover` computes
    once and reads on every later move and re-check (see
    ``mover._lifted_slide``).  ``L`` is a :class:`~coverslide.slides.LiftedSlide`,
    plain data that does not hold the basis, so the basis is freed by
    reference counting.  ``rank_memo`` is ``(cover, chain, rank)`` for the
    last whole-group :func:`orbit_rank_of_chain` answer on this basis."""

    cover: CoverGraph
    root: int
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    edge_set: frozenset
    parent: dict  # vertex -> (parent vertex, edge, traversal direction)
    tree: frozenset
    cotree: tuple[Edge, ...]
    cycles: tuple[Chain1, ...]
    cotree_index: dict
    slide_memo: dict = field(default_factory=dict, init=False, repr=False)
    rank_memo: tuple = field(default=(None, None, 0), init=False, repr=False)

    @property
    def rank(self) -> int:
        return len(self.cotree)


def _build_basis(Y: CoverGraph, vertices: Sequence[int], edges: Sequence[Edge], root: int) -> HomologyBasis:
    edge_set = frozenset(edges)
    mul, inv, images = Y.group.mul, Y.group.inv, Y.images
    parent: dict[int, tuple[int, Edge, int]] = {}
    depth = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        du = depth[u] + 1
        for i in range(1, Y.n + 1):
            img = images[i - 1]
            fwd = (u, i)
            if fwd in edge_set:
                v = mul[u][img]
                if v not in depth:
                    depth[v] = du
                    parent[v] = (u, fwd, 1)
                    queue.append(v)
            w = mul[u][inv[img]]
            bwd = (w, i)
            if bwd in edge_set and w not in depth:
                depth[w] = du
                parent[w] = (u, bwd, -1)
                queue.append(w)
    if len(depth) != len(vertices):
        raise ValueError("graph is not connected; no spanning tree exists")

    tree = frozenset(e for (_, e, _) in parent.values())
    cotree = tuple(e for e in edges if e not in tree)
    cycles = []
    for e in cotree:
        # walk both ends up the tree only until they meet; the cycle is the
        # tail branch (root side first), the edge, then the head branch
        t, h = e[0], mul[e[0]][images[e[1] - 1]]
        up_t: list[tuple[Edge, int]] = []
        up_h: list[tuple[Edge, int]] = []
        while depth[t] > depth[h]:
            t, e2, d = parent[t]
            up_t.append((e2, d))
        while depth[h] > depth[t]:
            h, e2, d = parent[h]
            up_h.append((e2, -d))
        while t != h:
            t, e2, d = parent[t]
            up_t.append((e2, d))
            h, e2, d = parent[h]
            up_h.append((e2, -d))
        z: Chain1 = dict(reversed(up_t))
        z[e] = 1
        z.update(reversed(up_h))
        cycles.append(z)
    return HomologyBasis(
        cover=Y,
        root=root,
        vertices=tuple(vertices),
        edges=tuple(edges),
        edge_set=edge_set,
        parent=parent,
        tree=tree,
        cotree=cotree,
        cycles=tuple(cycles),
        cotree_index={e: k for k, e in enumerate(cotree)},
    )


def cycle_basis(Y: CoverGraph) -> HomologyBasis:
    """Fundamental-cycle basis of the whole cover, rooted at the identity
    vertex.  The rank is always (n-1)|G| + 1."""
    return _build_basis(Y, list(Y.vertices()), list(Y.edges()), root=0)


def component_basis(comp: ComponentSubgraph) -> HomologyBasis:
    """Cycle basis of one petal-complement component, rooted at its coset
    representative (the identity vertex for the first component)."""
    return _build_basis(comp.cover, comp.vertices, comp.edges, root=comp.coset_rep)


def tree_path_steps(B: HomologyBasis, v: int) -> list[tuple[Edge, int]]:
    """The tree path from the root to v as (edge, direction) steps."""
    steps = []
    while v != B.root:
        par, e, d = B.parent[v]
        steps.append((e, d))
        v = par
    steps.reverse()
    return steps


def _coords(B: HomologyBasis, z: Mapping[Edge, Rational]) -> list:
    # valid for cycles supported on B's subgraph: a cycle equals the
    # cotree-coefficient combination of fundamental cycles
    return [z.get(e, 0) for e in B.cotree]


def _sparse_coords(B: HomologyBasis, z: Mapping[Edge, Rational]) -> dict[int, Rational]:
    # the nonzero entries of _coords(B, z), as cotree index -> coefficient
    index = B.cotree_index
    return {index[e]: c for e, c in z.items() if c and e in index}


def chain_to_class(B: HomologyBasis, z: Mapping[Edge, Rational]) -> list:
    """Coordinates of a cycle in the fundamental-cycle basis.

    Raises :class:`NotACycle` (with a witness vertex) on nonzero boundary,
    and ValueError if the chain leaves the basis' subgraph.
    """
    for e, c in z.items():
        if c != 0 and e not in B.edge_set:
            raise ValueError(f"chain uses edge {e} outside the graph of this basis")
    bd = chain_boundary(B.cover, z)
    if bd:
        raise NotACycle(min(bd))
    return _coords(B, z)


def class_to_chain(B: HomologyBasis, v: Sequence[Rational]) -> Chain1:
    """The canonical cycle representing a coordinate vector."""
    if len(v) != B.rank:
        raise ValueError(f"coordinate vector has length {len(v)}, expected {B.rank}")
    z: Chain1 = {}
    for c, zk in zip(v, B.cycles):
        if c:
            for e, x in zk.items():
                z[e] = z.get(e, 0) + c * x
    return {e: x for e, x in z.items() if x}


def deck_action_matrix(Y: CoverGraph, B: HomologyBasis, g: int) -> list:
    """Matrix of left translation by g on homology, columns indexed by the
    basis cycles.  Satisfies rho(e) = I and rho(g)rho(h) = rho(gh)."""
    return linalg.transpose([_coords(B, translate_chain(Y, g, zk)) for zk in B.cycles])


def character(Y: CoverGraph, B: HomologyBasis, g: int) -> Rational:
    """Trace of the deck action matrix of g, read off without building it:
    the k-th diagonal entry is the coefficient of the translated cycle on its
    own cotree edge."""
    mul, inv = Y.group.mul, Y.group.inv
    ginv = inv[g]
    total: Rational = 0
    for zk, (t, i) in zip(B.cycles, B.cotree):
        total += zk.get((mul[ginv][t], i), 0)
    return total


def orbit_rank_of_chain(
    Y: CoverGraph,
    B: HomologyBasis,
    z: Mapping[Edge, Rational],
    elements: Iterable[int] | None = None,
) -> int:
    """Rank of the span of the deck translates of a cycle's class.

    Over the whole group, a cycle on a basis of the whole cover is ranked in
    the edge space, where its class is the cycle itself, split over the +-1
    characters chi of the subgroup A of ``Y.group.involution_cosets``
    (Serre, *Linear Representations of Finite Groups*, 2.6): with R the
    right-coset representatives and e_chi = sum_a chi(a) a, the span of the
    g z is the direct sum over chi of the spans of the e_chi r z, r in R.
    A vector of the chi summand is fixed by its values on one edge (t, i)
    per A-orbit, t in R, so row (chi, r) is the Walsh-Hadamard transform
    over A of r z on those edges, and the rank is a sum of one elimination
    per chi over |R| rows; for |R| = 1 (exponent 2) it counts nonzero rows.
    The last whole-group answer is kept in ``B.rank_memo`` for its cover
    object and chain.  Any other call (``elements``, a component basis, a
    non-cycle, |A| = 1) eliminates the translates' cotree coordinates."""
    if elements is not None:
        return linalg.sparse_rank(_sparse_coords(B, translate_chain(Y, g, z)) for g in elements)
    cover, chain, value = B.rank_memo
    if cover is Y and chain == z:
        return value
    G = Y.group
    code, coset, reps = G.involution_cosets
    whole_cover = len(B.edges) == Y.n * G.order and B.edge_set.issuperset(z)
    if len(reps) < G.order and whole_cover and not chain_boundary(Y, z):
        value = _split_rank(Y, z, code, coset, reps)
    else:
        value = linalg.sparse_rank(_sparse_coords(B, translate_chain(Y, g, z)) for g in G.elements())
    B.rank_memo = (Y, dict(z), value)
    return value


def _split_rank(Y: CoverGraph, z: Mapping[Edge, Rational], code: list, coset: list, reps: list) -> int:
    # r z has c at (r h, i) = (a t, i): column (t, i), sign chi(a)
    n, mul = Y.n, Y.group.mul
    terms = [(h, i, c) for (h, i), c in z.items() if c]
    rows = [[(coset[mul[r][h]] * n + i, code[mul[r][h]], c) for h, i, c in terms] for r in reps]
    total = 0
    for s in range(Y.group.order // len(reps)):
        summand = []
        for row in rows:
            acc: dict[int, Rational] = {}
            for col, a, c in row:
                acc[col] = acc.get(col, 0) + (-c if (s & a).bit_count() & 1 else c)
            summand.append({col: x for col, x in acc.items() if x})
        total += linalg.sparse_rank(summand) if len(rows) > 1 else bool(summand[0])
    return total


def orbit_rank(
    Y: CoverGraph,
    B: HomologyBasis,
    v: Sequence[Rational],
    elements: Iterable[int] | None = None,
) -> int:
    """Rank over Q of span{rho(g) v}; |G| means the orbit is independent."""
    return orbit_rank_of_chain(Y, B, class_to_chain(B, v), elements)


@dataclass(frozen=True)
class InclusionReport:
    injective: bool
    component_ranks: tuple[int, ...]
    combined_rank: int


def inclusion_rank_test(
    Y: CoverGraph, B: HomologyBasis, components: Sequence[ComponentSubgraph]
) -> InclusionReport:
    """Check that the homology of the petal-complement components injects
    into the cover's homology: the images of all component basis cycles must
    span a subspace of dimension equal to the sum of component ranks."""
    ranks = []
    rows = []
    for comp in components:
        Bc = component_basis(comp)
        ranks.append(Bc.rank)
        for zk in Bc.cycles:
            rows.append(_sparse_coords(B, zk))
    combined = linalg.sparse_rank(rows)
    return InclusionReport(
        injective=combined == sum(ranks),
        component_ranks=tuple(ranks),
        combined_rank=combined,
    )
