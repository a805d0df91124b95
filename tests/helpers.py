"""Shared test utilities: the standard cover battery and a few oracles."""

from __future__ import annotations

from coverslide import builtin_group, cycle_basis, group_from_json, make_cover, standard_images, translate_chain
from coverslide.groups import _greedy_generators
from coverslide.homology import _sparse_coords
from coverslide.linalg import sparse_rank

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
