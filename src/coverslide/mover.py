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
random vectors with doubling entry bounds) and the first candidate whose
deck orbit has full rank wins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from . import linalg
from .cover import CoverGraph, Edge, Word, free_reduce, lift_word, petal_complement_components
from .homology import (
    HomologyBasis,
    chain_add_scaled,
    chain_of_path,
    chain_to_class,
    class_to_chain,
    component_basis,
    orbit_rank_of_chain,
    tree_path_steps,
)
from .slides import lifted_action_formula, lifted_action_oracle, make_slide, slide_increment

DEFAULT_MAX_CANDIDATES = 10_000
DEFAULT_ITERATE_DEPTH = 10
_RANDOM_ROUND = 64


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
    """Everything needed to recheck that the slide moves v on an infinite orbit."""

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


def find_pairing_edge(Y: CoverGraph, B: HomologyBasis, v: Sequence) -> tuple[int, int]:
    """Smallest (petal, vertex) whose edge carries a nonzero coefficient of
    v's canonical cycle; exists for every nonzero class."""
    if linalg.vec_is_zero(v):
        raise ZeroVector("cannot pair with the zero class")
    z = class_to_chain(B, v)
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
        bound *= 2


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
    with or without it.
    """
    if linalg.vec_is_zero(v):
        raise ZeroVector("cannot move the zero class")
    if Y.n < 3:
        raise RankTooSmall(f"rose rank {Y.n} < 3")
    j, g_star = find_pairing_edge(Y, B, v)
    if loop_cache is not None and j in loop_cache:
        ell = loop_cache[j]
    else:
        ell = find_slide_loop(Y, B, j, max_candidates=max_candidates, seed=seed)
        if loop_cache is not None:
            loop_cache[j] = ell
    L = lifted_action_formula(make_slide(Y.n, j, ell), Y, B)
    increment = slide_increment(L, list(v))
    cert = MoveCertificate(
        petal=j,
        pairing_edge=(g_star, j),
        ell=ell,
        ell_class=L.ell_class,
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
    tampered certificates can be diagnosed.
    """
    failures: list[str] = []
    order = Y.group.order
    j = cert.petal
    v = list(v)

    property1 = 1 <= j <= Y.n and all(i != j for i, _ in cert.ell)
    if not property1:
        failures.append("property 1")

    closed = cert.ell.max_petal() <= Y.n and Y.image_of(cert.ell) == 0
    if not closed:
        failures.append("property 2")

    chain_v = class_to_chain(B, v)
    pe = tuple(cert.pairing_edge)
    if pe[1] != j or chain_v.get(pe, 0) == 0:
        failures.append("pairing edge")

    if closed:
        ell_chain = chain_of_path(lift_word(Y, cert.ell, 0))
        if chain_to_class(B, ell_chain) != list(cert.ell_class):
            failures.append("loop class mismatch")
        rank_value = orbit_rank_of_chain(Y, B, ell_chain)
        if rank_value != order or cert.orbit_rank_value != rank_value:
            failures.append("property 3")
    else:
        failures.append("property 3")

    if linalg.vec_is_zero(cert.increment):
        failures.append("increment nonzero")

    if property1 and closed:
        L = lifted_action_formula(make_slide(Y.n, j, cert.ell), Y, B)
        if L.matrix != cert.matrix:
            failures.append("matrix vs formula")
        if lifted_action_oracle(L.slide, Y, B) != cert.matrix:
            failures.append("matrix vs oracle")
        if slide_increment(L, v) != list(cert.increment):
            failures.append("increment consistent")
    else:
        failures.append("matrix vs formula")

    if len(cert.matrix) == B.rank and len(v) == B.rank:
        w = v
        seen = {tuple(w)}
        iterates_ok = True
        for d in range(1, cert.iterates_checked + 1):
            w = linalg.mat_vec(cert.matrix, w)
            expected = [a + d * b for a, b in zip(v, cert.increment)]
            if w != expected:
                iterates_ok = False
                break
            key = tuple(w)
            if key in seen:
                failures.append("iterates distinct")
                iterates_ok = False
                break
            seen.add(key)
        if not iterates_ok and "iterates distinct" not in failures:
            failures.append("iterate closed form")
    else:
        failures.append("iterate closed form")

    return CertificateCheck(ok=not failures, failures=tuple(failures))


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
