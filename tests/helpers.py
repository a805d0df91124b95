"""Shared test utilities: the standard cover battery and a few oracles."""

from __future__ import annotations

from coverslide import (
    NotACycle,
    Word,
    builtin_group,
    chain_of_path,
    cycle_basis,
    group_from_json,
    lift_word,
    linalg,
    make_cover,
    mover,
    slides,
    standard_images,
    translate_chain,
)
from coverslide.groups import _greedy_generators
from coverslide.homology import (
    _sparse_coords,
    chain_boundary,
    chain_to_class,
    class_to_chain,
    orbit_rank_of_chain,
)
from coverslide.linalg import sparse_rank, vec_is_zero, vec_sub

BATTERY_FAMILIES = (
    ("trivial", ()),
    ("cyclic", (2,)),
    ("cyclic", (3,)),
    ("cyclic", (4,)),
    ("cyclic", (5,)),
    ("cyclic", (6,)),
    ("elementary_abelian", (2, 2)),
    ("elementary_abelian", (2, 3)),
    ("dihedral", (4,)),
    ("symmetric", (3,)),
    ("symmetric", (4,)),
)

_group_cache: dict = {}
_cover_cache: dict = {}


def battery_group(family, params):
    key = (family, params)
    if key not in _group_cache:
        _group_cache[key] = builtin_group(family, *params)
    return _group_cache[key]


def battery_covers(n_values=(2, 3, 4)):
    """All (name, cover, basis) triples for the battery with canonical
    surjective images; (group, n) pairs with no surjection are skipped.
    Covers and bases are cached across tests."""
    out = []
    for family, params in BATTERY_FAMILIES:
        group = battery_group(family, params)
        for n in n_values:
            key = (family, params, n)
            if key not in _cover_cache:
                images = standard_images(group, n)
                if images is None:
                    _cover_cache[key] = None
                else:
                    Y = make_cover(group, images)
                    _cover_cache[key] = (Y, cycle_basis(Y))
            cached = _cover_cache[key]
            if cached is None:
                continue
            name = f"{family}{list(params)} n={n}"
            out.append((name, cached[0], cached[1]))
    return out


def unit_vector(rank: int, k: int) -> list:
    v = [0] * rank
    v[k] = 1
    return v


def relabeled(G, rng):
    """G with its non-identity elements renamed by a random permutation,
    read back through ``group_from_json``."""
    perm = [0] + rng.sample(range(1, G.order), G.order - 1)
    table = [[0] * G.order for _ in range(G.order)]
    for x in range(G.order):
        for y in range(G.order):
            table[perm[x]][perm[y]] = perm[G.mul[x][y]]
    return group_from_json({"mul": table})


def generating_images(G, rng, extra):
    """A shuffled tuple of images that generates G: its greedy generators
    plus ``extra`` random elements, at least two in all."""
    images = _greedy_generators(G.mul) + [rng.randrange(G.order) for _ in range(extra)]
    while len(images) < 2:
        images.append(rng.randrange(G.order))
    rng.shuffle(images)
    return tuple(images)


def reference_orbit_rank(Y, B, z, elements=None):
    """The orbit rank by one elimination of the translates' cotree
    coordinates, for any chain, basis and set of elements."""
    if elements is None:
        elements = Y.group.elements()
    return sparse_rank(_sparse_coords(B, translate_chain(Y, g, z)) for g in elements)


def reference_deck_action_matrix(Y, B, g):
    """The deck action of g as dense rows: the transpose of the rows of the
    translates' cotree coordinates, one row per basis cycle."""
    translates = [[translate_chain(Y, g, zk).get(e, 0) for e in B.cotree] for zk in B.cycles]
    return [list(col) for col in zip(*translates)]


def reference_lifted_action_oracle(s, Y, B):
    """The chain-map oracle that lifts every edge: each edge (g, i) goes to
    the lift at g of the substituted word of a_i, checked to have the
    boundary of the edge and to stay in B's graph, edge by edge in B's edge
    order, and each basis cycle is pushed through the map.  The substitution
    is read from ``slides.apply_automorphism`` at call time, as the package's
    oracle reads it."""
    slides._lift_chain_or_raise(s, Y)
    images = {i: slides.apply_automorphism(s, Word.generator(i)) for i in range(1, Y.n + 1)}
    edge_coords = {}
    for e in B.edges:
        img = chain_of_path(lift_word(Y, images[e[1]], e[0]))
        bd = chain_boundary(Y, {**img, e: img.get(e, 0) - 1})
        if bd:
            raise NotACycle(min(bd))
        if not img.keys() <= B.edge_set:
            raise ValueError(f"image of edge {e} leaves the graph of this basis")
        edge_coords[e] = _sparse_coords(B, img)
    cols = []
    for zk in B.cycles:
        col = {}
        for e, c in zk.items():
            for k, x in edge_coords[e].items():
                col[k] = col.get(k, 0) + c * x
        cols.append({k: x for k, x in col.items() if x})
    return cols


def reference_verify_certificate(Y, B, v, cert):
    """The verifier that builds v's canonical cycle with ``class_to_chain``:
    it reads the pairing edge's coefficient from that cycle and takes
    "increment consistent" from ``slide_increment`` on it, with the iterate
    check's two products taken afresh.  Same checks, in the same order, with
    the same failure names."""
    failures = []
    order = Y.group.order
    r = B.rank
    j = cert.petal
    v = list(v)
    den, w = mover._scaled(v)
    ell, is_word = cert.ell, isinstance(cert.ell, Word)

    property1 = type(j) is int and 1 <= j <= Y.n and is_word and all(i != j for i, _ in ell)
    if not property1:
        failures.append("property 1")

    closed = is_word and ell.max_petal() <= Y.n and Y.image_of(ell) == 0
    if not closed:
        failures.append("property 2")

    chain_w = class_to_chain(B, w)
    if type(cert.matrix) is linalg.ColumnMatrix:
        columns, square = cert.matrix.columns, True
        if not {type(x) for col in columns for x in col.values()} <= linalg.EXACT_TYPES:
            columns, square = None, False
    else:
        columns, square = mover._matrix_nonzeros(cert.matrix, r)
    pe = cert.pairing_edge
    is_edge = isinstance(pe, (tuple, list)) and len(pe) == 2 and all(type(x) is int for x in pe)
    if not (is_edge and pe[1] == j and chain_w.get(tuple(pe), 0) != 0):
        failures.append("pairing edge")

    lifted = mover._lifted_slide(Y, B, j, ell) if property1 and closed else None
    if closed:
        if lifted is not None:
            L, rank_value, oracle = lifted[:3]
            ell_class = L.ell_class
        else:
            ell_chain = chain_of_path(lift_word(Y, ell, 0))
            ell_class = chain_to_class(B, ell_chain)
            rank_value = orbit_rank_of_chain(Y, B, ell_chain)
        if ell_class != mover._exact(cert.ell_class):
            failures.append("loop class mismatch")
        claimed = cert.orbit_rank_value
        if rank_value != order or type(claimed) is not int or claimed != rank_value:
            failures.append("property 3")
    else:
        failures.append("property 3")

    increment = s = mover._exact(cert.increment)
    if increment is None or linalg.vec_is_zero(increment):
        failures.append("increment nonzero")
    if s is not None and (den != 1 or not set(map(type, s)) <= {int}):
        s = [linalg.int_if_integral(den * x) for x in s]

    if lifted is not None:
        differs = not square or columns != L.columns
        if differs:
            failures.append("matrix vs formula")
        if oracle is not L.columns:
            differs = not square or columns != oracle
        if differs:
            failures.append("matrix vs oracle")
        if slides.slide_increment(L, chain_w) != s:
            failures.append("increment consistent")
    else:
        failures.append("matrix vs formula")

    depth = cert.iterates_checked
    if type(depth) is int and 1 <= depth <= mover.MAX_ITERATE_DEPTH and len(columns or ()) == r:
        failure = mover._iterate_failure(cert, v, columns, w, s)
        if failure:
            failures.append(failure)
    else:
        failures.append("iterate closed form")

    return mover.CertificateCheck(ok=not failures, failures=tuple(failures))


# dense references: the package holds slide actions as sparse columns and
# never multiplies two matrices, so the tests keep these four of their own


def mat_identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_sub(a, b):
    return [vec_sub(ra, rb) for ra, rb in zip(a, b)]


def mat_is_zero(a):
    return all(vec_is_zero(row) for row in a)


def mat_mul(a, b):
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in a]
    for ai, oi in zip(a, out):
        for x, bk in zip(ai, b):
            if x != 0:
                for j, y in enumerate(bk):
                    if y != 0:
                        oi[j] = oi[j] + x * y
    return out
