from fractions import Fraction

import pytest

from coverslide import (
    EdgeCocycle,
    NotACycle,
    Word,
    basis_to_json,
    chain_of_path,
    chain_to_class,
    character,
    class_to_chain,
    cocycle_eval,
    component_basis,
    cycle_basis,
    deck_action_matrix,
    inclusion_rank_test,
    lift_word,
    orbit_rank,
    orbit_rank_of_chain,
    petal_complement_components,
    subgroup_generated,
    translate_chain,
)
from coverslide.linalg import (
    mat_identity,
    mat_mul,
    mat_trace,
    mat_vec,
    matrix_to_json,
    rank,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    vector_to_json,
)

from helpers import battery_covers


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
                assert cocycle_eval(EdgeCocycle(e2), z) == (1 if e2 == e else 0)


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


def test_cocycle_eval_linearity(mod2_cover, mod2_basis):
    Y, B = mod2_cover, mod2_basis
    xi = EdgeCocycle((0, 1))
    assert cocycle_eval(xi, {}) == 0
    assert cocycle_eval(xi, {(0, 1): 1}) == 1
    # loop A = lift of a^2 traverses both petal-1 edges once
    A = chain_of_path(lift_word(Y, Word.from_string("a1.a1"), 0))
    assert cocycle_eval(EdgeCocycle((0, 1)), A) == 1
    assert cocycle_eval(EdgeCocycle((1, 1)), A) == 1


# --- deck action ---------------------------------------------------------------


def test_deck_identity_matrix(mod2_cover, mod2_basis):
    assert deck_action_matrix(mod2_cover, mod2_basis, 0) == mat_identity(5)


def test_deck_homomorphism_klein(mod2_cover, mod2_basis):
    Y, B = mod2_cover, mod2_basis
    rho = {g: deck_action_matrix(Y, B, g) for g in range(4)}
    for g in range(4):
        for h in range(4):
            assert mat_mul(rho[g], rho[h]) == rho[Y.group.mul[g][h]]


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
            assert character(Y, B, g) == mat_trace(deck_action_matrix(Y, B, g)), name


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
    v = vec_add(A, qbA)
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


def test_basis_json(mod2_basis):
    data = basis_to_json(mod2_basis)
    assert data["root"] == 0
    assert len(data["tree"]) == 3
    assert len(data["cotree"]) == 5
