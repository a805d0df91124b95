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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class EdgeCocycle:
    """The functional reading off one edge's coefficient in a chain."""

    edge: Edge


def cocycle_eval(xi: EdgeCocycle, z: Mapping[Edge, Rational]) -> Rational:
    return z.get(xi.edge, 0)


@dataclass(eq=False)
class HomologyBasis:
    """Spanning tree, cotree, and fundamental cycle basis of a (sub)graph."""

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

    @property
    def rank(self) -> int:
        return len(self.cotree)


def _build_basis(Y: CoverGraph, vertices: Sequence[int], edges: Sequence[Edge], root: int) -> HomologyBasis:
    edge_set = frozenset(edges)
    mul, inv, images = Y.group.mul, Y.group.inv, Y.images
    parent: dict[int, tuple[int, Edge, int]] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for i in range(1, Y.n + 1):
            img = images[i - 1]
            fwd = (u, i)
            if fwd in edge_set:
                v = mul[u][img]
                if v not in seen:
                    seen.add(v)
                    parent[v] = (u, fwd, 1)
                    queue.append(v)
            w = mul[u][inv[img]]
            bwd = (w, i)
            if bwd in edge_set and w not in seen:
                seen.add(w)
                parent[w] = (u, bwd, -1)
                queue.append(w)
    if len(seen) != len(vertices):
        raise ValueError("graph is not connected; no spanning tree exists")

    tree = frozenset(e for (_, e, _) in parent.values())
    cotree = tuple(e for e in edges if e not in tree)
    B = HomologyBasis(
        cover=Y,
        root=root,
        vertices=tuple(vertices),
        edges=tuple(edges),
        edge_set=edge_set,
        parent=parent,
        tree=tree,
        cotree=cotree,
        cycles=(),
        cotree_index={e: k for k, e in enumerate(cotree)},
    )

    cycles = []
    for e in cotree:
        z: Chain1 = {}
        for e2, d in tree_path_steps(B, e[0]):
            chain_add(z, e2, d)
        chain_add(z, e, 1)
        for e2, d in tree_path_steps(B, Y.edge_head(e)):
            chain_add(z, e2, -d)
        cycles.append(z)
    B.cycles = tuple(cycles)
    return B


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
        chain_add_scaled(z, zk, c)
    return z


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
    """Rank of the span of the deck translates of a cycle's class."""
    if elements is None:
        elements = Y.group.elements()
    rows = [_coords(B, translate_chain(Y, g, z)) for g in elements]
    return linalg.rank(rows)


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
            rows.append(_coords(B, zk))
    combined = linalg.rank(rows)
    return InclusionReport(
        injective=combined == sum(ranks),
        component_ranks=tuple(ranks),
        combined_rank=combined,
    )


def basis_to_json(B: HomologyBasis) -> dict:
    return {
        "root": B.root,
        "tree": [list(e) for e in sorted(B.tree)],
        "cotree": [list(e) for e in B.cotree],
    }
