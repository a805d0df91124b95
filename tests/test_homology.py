import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from coverslide import (
    NotACycle,
    Word,
    builtin_group_from_string,
    chain_of_path,
    chain_to_class,
    character,
    class_to_chain,
    component_basis,
    cycle_basis,
    deck_action_matrix,
    inclusion_rank_test,
    lift_word,
    make_cover,
    orbit_rank,
    orbit_rank_of_chain,
    petal_complement_components,
    standard_images,
    subgroup_generated,
    translate_chain,
)
from coverslide.linalg import (
    mat_vec,
    matrix_to_json,
    rank,
    vec_is_zero,
    vec_scale,
    vec_sub,
    vector_to_json,
)

from coverslide import homology
from coverslide.homology import chain_add, tree_path_steps

from helpers import (
    battery_covers,
    generating_images,
    mat_identity,
    mat_mul,
    reference_deck_action_matrix,
    reference_orbit_rank,
    relabeled,
)


def lift_class(Y, B, text, start=0):
    return chain_to_class(B, chain_of_path(lift_word(Y, Word.from_string(text), start)))


# --- basis ------------------------------------------------------------------


def test_trivial_rose_basis(trivial_n3_cover):
    B = cycle_basis(trivial_n3_cover)
    assert B.rank == 3
    assert B.tree == frozenset()
    assert B.cotree == ((0, 1), (0, 2), (0, 3))
    assert B.cycles == ({(0, 1): 1}, {(0, 2): 1}, {(0, 3): 1})


def test_mod2_rank(mod2_basis):
    assert mod2_basis.rank == 5  # 8 - 4 + 1


def test_cyclic3_rank(cyclic3_cover):
    B = cycle_basis(cyclic3_cover)
    assert B.rank == 9 - 3 + 1 == 7


def test_rank_formula_battery():
    for name, Y, B in battery_covers():
        assert B.rank == (Y.n - 1) * Y.group.order + 1, name
        assert len(B.tree) == Y.group.order - 1
        assert set(B.cotree) | B.tree == set(Y.edges())


def test_tree_deterministic(mod2_cover):
    B1 = cycle_basis(mod2_cover)
    B2 = cycle_basis(mod2_cover)
    assert B1.tree == B2.tree
    assert B1.cotree == B2.cotree
    assert B1.cycles == B2.cycles


def test_fundamental_cycles_are_cycles_with_unit_coordinates():
    for name, Y, B in battery_covers((2, 3)):
        for k, (e, z) in enumerate(zip(B.cotree, B.cycles)):
            coords = chain_to_class(B, z)  # raises if not a cycle
            assert coords == [1 if t == k else 0 for t in range(B.rank)], name
            for e2 in B.cotree:
                assert z.get(e2, 0) == (1 if e2 == e else 0)


# --- chain/class conversions -------------------------------------------------


def test_zero_chain_class(mod2_basis):
    assert chain_to_class(mod2_basis, {}) == [0] * 5


def test_not_a_cycle_witness(mod2_cover, mod2_basis):
    with pytest.raises(NotACycle) as err:
        chain_to_class(mod2_basis, {(0, 1): 1})
    assert err.value.vertex in (0, 1)


def test_reconstruction_round_trip(mod2_cover, mod2_basis):
    Y, B = mod2_cover, mod2_basis
    z = chain_of_path(lift_word(Y, Word.from_string("a1.a1"), 0))
    v = chain_to_class(B, z)
    assert not vec_is_zero(v)
    assert class_to_chain(B, v) == z


def test_reconstruction_rational_coords(mod2_basis):
    v = [Fraction(1, 2), 0, Fraction(-2, 3), 1, 0]
    z = class_to_chain(mod2_basis, v)
    assert chain_to_class(mod2_basis, z) == v


# --- deck action ---------------------------------------------------------------


def test_deck_identity_matrix(mod2_cover, mod2_basis):
    assert deck_action_matrix(mod2_cover, mod2_basis, 0) == mat_identity(5)


def test_deck_homomorphism_klein(mod2_cover, mod2_basis):
    Y, B = mod2_cover, mod2_basis
    rho = {g: deck_action_matrix(Y, B, g) for g in range(4)}
    for g in range(4):
        for h in range(4):
            assert mat_mul(rho[g], rho[h]) == rho[Y.group.mul[g][h]]


def test_deck_action_matches_the_dense_transpose():
    """On the whole cover's basis and on every petal-complement component's,
    the columns of rho(g) read as the dense transpose of the translates'
    coordinates, for every g."""
    for name, Y, B in battery_covers((2, 3)):
        bases = [B]
        for j in range(1, Y.n + 1):
            bases += map(component_basis, petal_complement_components(Y, j))
        for basis in bases:
            for g in Y.group.elements():
                m = deck_action_matrix(Y, basis, g)
                want = reference_deck_action_matrix(Y, basis, g)
                assert m == want and list(m) == want, (name, g)
                assert all(x != 0 for col in m.columns for x in col.values()), (name, g)


def test_deck_matrices_invertible_battery():
    for name, Y, B in battery_covers((2,)):
        for g in Y.group.elements():
            assert rank(deck_action_matrix(Y, B, g)) == B.rank, name


def test_klein_eigenline(mod2_cover, mod2_basis):
    # class(A) - q(b)class(A) spans a line fixed by q(a) and negated by q(b)
    Y, B = mod2_cover, mod2_basis
    A = lift_class(Y, B, "a1.a1")
    rho_a = deck_action_matrix(Y, B, 1)
    rho_b = deck_action_matrix(Y, B, 2)
    qbA = mat_vec(rho_b, A)
    assert chain_to_class(
        B, translate_chain(Y, 2, chain_of_path(lift_word(Y, Word.from_string("a1.a1"), 0)))
    ) == qbA
    x = vec_sub(A, qbA)
    assert not vec_is_zero(x)
    assert mat_vec(rho_a, x) == x
    assert mat_vec(rho_b, x) == vec_scale(-1, x)


def test_character_values(mod2_cover, mod2_basis):
    assert character(mod2_cover, mod2_basis, 0) == 5
    for g in range(1, 4):
        assert character(mod2_cover, mod2_basis, g) == 1


def test_character_is_matrix_trace():
    for name, Y, B in battery_covers((2, 3)):
        if Y.group.order > 8:
            continue
        for g in Y.group.elements():
            m = deck_action_matrix(Y, B, g)
            assert character(Y, B, g) == sum(m[i][i] for i in range(B.rank)), name


def test_character_trivial_group(trivial_n3_cover):
    B = cycle_basis(trivial_n3_cover)
    assert character(trivial_n3_cover, B, 0) == 3


# --- orbit rank -----------------------------------------------------------------


def test_orbit_rank_zero(mod2_cover, mod2_basis):
    assert orbit_rank(mod2_cover, mod2_basis, [0] * 5) == 0


def test_orbit_rank_full(mod2_cover, mod2_basis):
    v = lift_class(mod2_cover, mod2_basis, "a1.a1.a1.a2^-1.a1.a2")
    assert orbit_rank(mod2_cover, mod2_basis, v) == 4


def test_orbit_rank_invariant_vector(mod2_cover, mod2_basis):
    # class(A) + class(q(b)A) is G-invariant, hence orbit rank 1
    Y, B = mod2_cover, mod2_basis
    A = lift_class(Y, B, "a1.a1")
    qbA = mat_vec(deck_action_matrix(Y, B, 2), A)
    v = [a + b for a, b in zip(A, qbA)]
    for g in range(4):
        assert mat_vec(deck_action_matrix(Y, B, g), v) == v
    assert orbit_rank(Y, B, v) == 1


# --- subgraph homology ------------------------------------------------------------


def test_component_basis_mod2(mod2_cover):
    comps = petal_complement_components(mod2_cover, 1)
    for comp in comps:
        Bc = component_basis(comp)
        assert Bc.rank == 1  # 2 vertices, 2 edges
        assert Bc.root == comp.coset_rep


def test_inclusion_rank_trivial(trivial_n3_cover):
    B = cycle_basis(trivial_n3_cover)
    comps = petal_complement_components(trivial_n3_cover, 1)
    report = inclusion_rank_test(trivial_n3_cover, B, comps)
    assert report.injective
    assert report.component_ranks == (2,)


def test_inclusion_rank_mod2(mod2_cover, mod2_basis):
    comps = petal_complement_components(mod2_cover, 1)
    report = inclusion_rank_test(mod2_cover, mod2_basis, comps)
    assert report.injective
    assert report.component_ranks == (1, 1)
    assert report.combined_rank == 2


def test_inclusion_rank_cyclic3(cyclic3_cover):
    B = cycle_basis(cyclic3_cover)
    comps = petal_complement_components(cyclic3_cover, 1)
    report = inclusion_rank_test(cyclic3_cover, B, comps)
    assert report.injective
    assert report.component_ranks == (4,)  # 6 - 3 + 1


def test_component_rank_formula_and_character(klein_n3_cover):
    # the identity component is itself a cover with deck group G0
    Y = klein_n3_cover
    for j in range(1, 4):
        comps = petal_complement_components(Y, j)
        B0 = component_basis(comps[0])
        gens = [Y.images[i - 1] for i in range(1, 4) if i != j]
        G0 = subgroup_generated(Y.group, gens)
        assert B0.rank == (Y.n - 2) * len(G0) + 1
        # character of G0 acting on the component's homology
        for g0 in G0:
            expected = B0.rank if g0 == 0 else 1
            assert character(Y, B0, g0) == expected


def test_orbit_rank_subgroup_elements(mod2_cover, mod2_basis):
    Y, B = mod2_cover, mod2_basis
    A_chain = chain_of_path(lift_word(Y, Word.from_string("a1.a1"), 0))
    assert orbit_rank_of_chain(Y, B, A_chain, elements=[0]) == 1
    assert orbit_rank_of_chain(Y, B, A_chain) <= 4


# --- JSON surfaces -------------------------------------------------------------


def test_matrix_json(mod2_cover, mod2_basis):
    m = deck_action_matrix(mod2_cover, mod2_basis, 1)
    encoded = matrix_to_json(m)
    assert all(isinstance(s, str) for row in encoded for s in row)


def test_class_json():
    assert vector_to_json([Fraction(1, 2), 3]) == ["1/2", "3"]


# --- fundamental cycles against the former builder ------------------------------


def former_basis(Y, vertices, edges, root):
    """The former builder: the same breadth-first tree, and each fundamental
    cycle from both full root paths, cancelled with ``chain_add``."""
    edge_set = frozenset(edges)
    mul, inv, images = Y.group.mul, Y.group.inv, Y.images
    parent = {}
    seen = {root}
    queue = [root]
    while queue:
        u = queue.pop(0)
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
    tree = frozenset(e for (_, e, _) in parent.values())
    cotree = tuple(e for e in edges if e not in tree)
    T = SimpleNamespace(root=root, parent=parent)  # what tree_path_steps reads
    cycles = []
    for e in cotree:
        z = {}
        for e2, d in tree_path_steps(T, e[0]):
            chain_add(z, e2, d)
        chain_add(z, e, 1)
        for e2, d in tree_path_steps(T, Y.edge_head(e)):
            chain_add(z, e2, -d)
        cycles.append(z)
    return parent, cotree, cycles


def _bases_and_former(Y):
    yield cycle_basis(Y), former_basis(Y, list(Y.vertices()), list(Y.edges()), 0)
    for j in range(1, Y.n + 1):
        for comp in petal_complement_components(Y, j):
            yield component_basis(comp), former_basis(Y, comp.vertices, comp.edges, comp.coset_rep)


@pytest.mark.parametrize(
    "spec, n, images",
    [
        ("cyclic:3", 3, (1, 1, 0)),  # loop edges
        ("cyclic:4", 3, (1, 1, 1)),  # parallel edges
        ("cyclic:64", 3, (1, 0, 0)),
        ("dihedral:16", 3, (1, 16, 0)),
        ("symmetric:4", 3, None),
        ("elementary_abelian:2,4", 5, None),
        ("elementary_abelian:3,2", 3, None),
    ],
)
def test_fundamental_cycles_match_former_builder(spec, n, images):
    """Cycles walked from the meeting vertex have the former cycles' items in
    the same order, on the cover basis and on every petal-complement
    component basis."""
    G = builtin_group_from_string(spec)
    Y = make_cover(G, images or standard_images(G, n))
    for B, (parent, cotree, cycles) in _bases_and_former(Y):
        assert B.parent == parent and B.cotree == cotree
        assert [list(z.items()) for z in B.cycles] == [list(z.items()) for z in cycles]


def test_battery_cycles_match_former_builder():
    for name, Y, _ in battery_covers():
        for B, (_, _, cycles) in _bases_and_former(Y):
            assert [list(z.items()) for z in B.cycles] == [list(z.items()) for z in cycles], name


# --- orbit rank split over an elementary abelian 2-subgroup -------------------------

SPLIT_SPECS = (
    "cyclic:4", "cyclic:6", "cyclic:8", "cyclic:9", "dihedral:3", "dihedral:4", "dihedral:6",
    "symmetric:3", "symmetric:4", "elementary_abelian:2,1", "elementary_abelian:2,2",
    "elementary_abelian:2,3", "elementary_abelian:2,4", "elementary_abelian:2,5",
    "elementary_abelian:3,2",
)
_COEFFICIENTS = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)))


def _random_cover(spec, seed, extra):
    rng = random.Random(seed)
    G = relabeled(builtin_group_from_string(spec), rng)
    Y = make_cover(G, generating_images(G, rng, extra))
    return Y, cycle_basis(Y), rng


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SPLIT_SPECS),
    st.integers(0, 2**32),
    st.integers(0, 2),
    st.lists(st.tuples(st.integers(0, 10**6), _COEFFICIENTS), min_size=1, max_size=4),
)
def test_split_route_matches_one_elimination(spec, seed, extra, terms):
    """On relabelled tables with random generating images, the rank of a
    cycle's deck orbit equals the elimination of all |G| translates."""
    Y, B, _ = _random_cover(spec, seed, extra)
    z = {}
    for k, c in terms:
        for e, x in B.cycles[k % B.rank].items():
            chain_add(z, e, c * x)
    assert orbit_rank_of_chain(Y, B, z) == reference_orbit_rank(Y, B, z)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SPLIT_SPECS), st.integers(0, 2**32), st.integers(0, 2))
def test_other_calls_keep_the_cotree_elimination(spec, seed, extra):
    """Non-cycles, explicit elements and component bases return what one
    elimination of the translates' cotree coordinates returns."""
    Y, B, rng = _random_cover(spec, seed, extra)
    edges = list(Y.edges())
    chain = {e: rng.choice((1, -1, Fraction(1, 3))) for e in rng.sample(edges, min(3, len(edges)))}
    assert orbit_rank_of_chain(Y, B, chain) == reference_orbit_rank(Y, B, chain)
    z = dict(B.cycles[rng.randrange(B.rank)])
    elements = rng.sample(range(Y.group.order), rng.randint(1, Y.group.order))
    assert orbit_rank_of_chain(Y, B, z, elements) == reference_orbit_rank(Y, B, z, elements)
    for j in range(1, Y.n + 1):
        Bc = component_basis(petal_complement_components(Y, j)[0])
        for zk in Bc.cycles[:2]:
            assert orbit_rank_of_chain(Y, Bc, zk) == reference_orbit_rank(Y, Bc, zk)


def test_rank_memo_answers_only_for_its_cover_and_chain(klein_n3_cover):
    Y = klein_n3_cover
    B = cycle_basis(Y)
    z, other = dict(B.cycles[0]), dict(B.cycles[1])
    value = orbit_rank_of_chain(Y, B, z)
    assert B.rank_memo == (Y, z, value)
    B.rank_memo = (Y, z, 99)  # a planted answer shows which calls read it
    assert orbit_rank_of_chain(Y, B, dict(z)) == 99
    twin = make_cover(Y.group, Y.images)
    assert twin == Y and twin is not Y
    assert orbit_rank_of_chain(twin, B, z) == value
    B.rank_memo = (Y, z, 99)
    assert orbit_rank_of_chain(Y, B, other) == reference_orbit_rank(Y, B, other)
    B.rank_memo = (Y, z, 99)
    assert orbit_rank_of_chain(Y, B, z, Y.group.elements()) == value
    # the memo holds a copy: changing the caller's chain does not change it
    orbit_rank_of_chain(Y, B, other)
    other.clear()
    assert orbit_rank_of_chain(Y, B, other) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(SPLIT_SPECS),
    st.integers(0, 2**32),
    st.integers(0, 2),
    st.lists(st.tuples(st.integers(0, 10**6), _COEFFICIENTS), min_size=1, max_size=4),
    st.sampled_from(("whole", "component", "elements")),
)
def test_free_only_answers_whether_the_orbit_is_free(spec, seed, extra, terms, basis):
    """On relabelled tables, ``free_only=True`` returns |G| (the number of
    elements, when given) exactly when the orbit rank is that, and never more
    than the rank.  A smaller answer is not kept, so a full call on the same
    basis and chain still ranks in full."""
    Y, B, rng = _random_cover(spec, seed, extra)
    if basis == "component":
        B = component_basis(rng.choice(petal_complement_components(Y, rng.randint(1, Y.n))))
    z = {}
    for k, c in terms:
        for e, x in B.cycles[k % B.rank].items():
            chain_add(z, e, c * x)
    elements = None
    if basis == "elements":
        elements = rng.sample(range(Y.group.order), rng.randint(1, Y.group.order))
    top = Y.group.order if elements is None else len(elements)
    full = reference_orbit_rank(Y, B, z, elements)
    free = orbit_rank_of_chain(Y, B, z, elements, free_only=True)
    assert free <= full
    assert (free == top) == (full == top)
    assert orbit_rank_of_chain(Y, B, z, elements) == full


@pytest.mark.parametrize(
    "spec, split",
    [("dihedral:4", True), ("elementary_abelian:2,3", True), ("symmetric:3", True),
     ("cyclic:9", False), ("elementary_abelian:3,2", False)],
)
def test_free_only_on_both_routes(spec, split, monkeypatch):
    """Free and non-free orbits of basis cycles and of their sums, on a
    group that splits its ranks over characters and on one that does not."""
    G = builtin_group_from_string(spec)
    Y = make_cover(G, standard_images(G, 3))
    B = cycle_basis(Y)
    splits = []
    split_rank = homology._split_rank

    def counted(*args):
        splits.append(args)
        return split_rank(*args)

    monkeypatch.setattr(homology, "_split_rank", counted)
    answers = set()
    for k in range(B.rank):
        z = dict(B.cycles[k])
        for e, x in B.cycles[(k + 1) % B.rank].items():
            chain_add(z, e, Fraction(x, 2) if k % 2 else x)
        for chain in (dict(B.cycles[k]), z):
            full = reference_orbit_rank(Y, B, chain)
            B.rank_memo = (None, None, 0)
            free = orbit_rank_of_chain(Y, B, chain, free_only=True)
            assert free <= full and (free == G.order) == (full == G.order), (k, chain)
            answers.add(full == G.order)
    assert answers == {True, False}
    assert bool(splits) == split
