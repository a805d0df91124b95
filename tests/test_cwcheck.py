import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from coverslide import (
    UnsupportedGroup,
    character_report_to_json,
    Word,
    WrongRank,
    builtin_group,
    chain_of_path,
    chain_to_class,
    character_report_to_json,
    commutator_lift_check,
    cycle_basis,
    deck_action_matrix,
    elevation_class,
    elevation_rank_obstruction,
    isotypic_decomposition,
    lift_word,
    make_cover,
    verify_chevalley_weil,
)
from coverslide.cwcheck import _exponent_two_characters, isotypic_report_to_json
from coverslide.groups import _greedy_generators
from coverslide.linalg import (
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_vec,
    matrix_to_json,
    rank,
    vec_is_zero,
    vec_scale,
    vec_sub,
)

from helpers import battery_covers, generating_images, relabeled


def lift_class(Y, B, text, start=0):
    return chain_to_class(B, chain_of_path(lift_word(Y, Word.from_string(text), start)))


# --- character identity -----------------------------------------------------


def test_cw_trivial_rose(trivial_n3_cover):
    B = cycle_basis(trivial_n3_cover)
    report = verify_chevalley_weil(trivial_n3_cover, B)
    assert report.traces == {0: 3}
    assert report.verdict


def test_cw_mod2(mod2_cover, mod2_basis):
    report = verify_chevalley_weil(mod2_cover, mod2_basis)
    assert report.traces == {0: 5, 1: 1, 2: 1, 3: 1}
    assert report.verdict


def test_cw_symmetric3():
    Y = make_cover(builtin_group("symmetric", 3), (1, 2, 0))
    B = cycle_basis(Y)
    report = verify_chevalley_weil(Y, B)
    assert report.traces[0] == 13  # (3-1)*6 + 1
    assert all(report.traces[g] == 1 for g in range(1, 6))
    assert report.verdict


def test_cw_battery():
    for name, Y, B in battery_covers():
        assert verify_chevalley_weil(Y, B).verdict, name


# --- isotypic decomposition ----------------------------------------------------


def test_isotypic_dims_mod2(mod2_cover, mod2_basis):
    iso = isotypic_decomposition(mod2_cover, mod2_basis)
    assert [iso.dims[chi] for chi in iso.characters] == [2, 1, 1, 1]
    # characters come in the order: trivial, chi_a, chi_b, chi_ab
    assert iso.characters[0] == (1, 1, 1, 1)
    assert iso.characters[1] == (1, 1, -1, -1)
    assert iso.characters[2] == (1, -1, 1, -1)
    assert iso.characters[3] == (1, -1, -1, 1)


def test_isotypic_projector_properties(mod2_cover, mod2_basis):
    Y, B = mod2_cover, mod2_basis
    iso = isotypic_decomposition(Y, B)
    projs = [iso.projectors[chi] for chi in iso.characters]
    total = mat_identity(B.rank)
    acc = [[0] * B.rank for _ in range(B.rank)]
    for p in projs:
        assert mat_mul(p, p) == p  # idempotent
        for g in Y.group.elements():
            rho = deck_action_matrix(Y, B, g)
            assert mat_mul(p, rho) == mat_mul(rho, p)
        acc = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(acc, p)]
    for p1 in projs:
        for p2 in projs:
            if p1 is not p2:
                assert mat_is_zero(mat_mul(p1, p2))  # orthogonal
    assert acc == total  # sum to identity


def test_isotypic_projector_extracts_eigenline(mod2_cover, mod2_basis):
    # projector for chi_a maps class(A) onto a multiple of class(A) - q(b)A
    Y, B = mod2_cover, mod2_basis
    iso = isotypic_decomposition(Y, B)
    chi_a = (1, 1, -1, -1)
    A = lift_class(Y, B, "a1.a1")
    qbA = mat_vec(deck_action_matrix(Y, B, 2), A)
    x = vec_sub(A, qbA)
    projected = mat_vec(iso.projectors[chi_a], A)
    assert not vec_is_zero(projected)
    assert projected == vec_scale(Fraction(1, 2), x)


def test_isotypic_trivial_group(trivial_n3_cover):
    B = cycle_basis(trivial_n3_cover)
    iso = isotypic_decomposition(trivial_n3_cover, B)
    assert iso.characters == ((1,),)
    assert iso.dims[(1,)] == 3
    assert iso.projectors[(1,)] == mat_identity(3)


def test_isotypic_dims_formula_ea23():
    # nontrivial characters get n-1, the trivial one n
    Y = make_cover(builtin_group("elementary_abelian", 2, 3), (1, 2, 4))
    B = cycle_basis(Y)
    iso = isotypic_decomposition(Y, B)
    dims = [iso.dims[chi] for chi in iso.characters]
    assert dims[0] == 3
    assert dims[1:] == [2] * 7
    assert sum(dims) == B.rank


def dense_isotypic(Y, B, chars):
    """Projectors (1/|G|) sum chi(g) rho(g) summed cell by cell over dense
    deck matrices, and their ranks."""
    scale = Fraction(1, Y.group.order)
    rho = [deck_action_matrix(Y, B, g) for g in Y.group.elements()]
    dims, projectors = {}, {}
    for chi in chars:
        acc = [[0] * B.rank for _ in range(B.rank)]
        for g in Y.group.elements():
            for i in range(B.rank):
                for j in range(B.rank):
                    acc[i][j] += chi[g] * rho[g][i][j]
        projectors[chi] = [[scale * x for x in row] for row in acc]
        dims[chi] = rank(projectors[chi])
    return dims, projectors


def test_isotypic_matches_dense_accumulation():
    checked = 0
    for name, Y, B in battery_covers():
        try:
            iso = isotypic_decomposition(Y, B)
        except UnsupportedGroup:
            continue
        dims, projectors = dense_isotypic(Y, B, iso.characters)
        assert iso.dims == dims, name
        assert iso.projectors == projectors, name
        for chi in iso.characters:
            assert matrix_to_json(iso.projectors[chi]) == matrix_to_json(projectors[chi]), name
        checked += 1
    assert checked == 11


def product_characters(G):
    """The +-1 characters of an exponent-2 group by sign patterns over its
    greedy F2 basis, in ``itertools.product`` order."""
    basis = _greedy_generators(G.mul)
    coords = {}
    for bits in product(range(2), repeat=len(basis)):
        g = 0
        for b, bit in zip(basis, bits):
            if bit:
                g = G.mul[g][b]
        coords[g] = bits
    return [
        tuple(-1 if sum(s * c for s, c in zip(signs, coords[g])) % 2 else 1 for g in G.elements())
        for signs in product(range(2), repeat=len(basis))
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32))
def test_characters_from_the_coset_table_match_sign_patterns(k, seed):
    rng = random.Random(seed)
    G = relabeled(builtin_group("elementary_abelian", 2, k), rng)
    Y = make_cover(G, generating_images(G, rng, 0))
    assert _exponent_two_characters(Y) == product_characters(G)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32), st.integers(0, 1))
def test_isotypic_matches_dense_accumulation_on_relabeled_tables(k, seed, extra):
    rng = random.Random(seed)
    G = relabeled(builtin_group("elementary_abelian", 2, k), rng)
    Y = make_cover(G, generating_images(G, rng, extra))
    B = cycle_basis(Y)
    iso = isotypic_decomposition(Y, B)
    dims, projectors = dense_isotypic(Y, B, iso.characters)
    assert iso.dims == dims
    assert iso.projectors == projectors
    for chi in iso.characters:
        assert matrix_to_json(iso.projectors[chi]) == matrix_to_json(projectors[chi])
        rows = iso.projectors[chi]
        assert len({id(row) for row in rows}) == len(rows)
        assert {type(x) for row in rows for x in row if x == 0} <= {int}


def test_isotypic_unsupported(cyclic3_cover):
    B = cycle_basis(cyclic3_cover)
    with pytest.raises(UnsupportedGroup):
        isotypic_decomposition(cyclic3_cover, B)


# --- elevations -------------------------------------------------------------------


def test_elevation_of_kernel_word(mod2_cover, mod2_basis):
    # q(w) = e means k = 1: the elevation is the plain lift
    v1 = elevation_class(mod2_cover, mod2_basis, Word.from_string("a1.a1"), 0)
    v2 = lift_class(mod2_cover, mod2_basis, "a1.a1")
    assert v1 == v2


def test_elevation_of_a_is_loop_A(mod2_cover, mod2_basis):
    assert elevation_class(mod2_cover, mod2_basis, Word.from_string("a1"), 0) == lift_class(
        mod2_cover, mod2_basis, "a1.a1"
    )


def test_elevation_difference_spans_V_ab(mod2_cover, mod2_basis):
    Y, B = mod2_cover, mod2_basis
    C = elevation_class(Y, B, Word.from_string("a1.a2"), 0)
    C_prime = elevation_class(Y, B, Word.from_string("a2.a1"), 0)
    z = vec_sub(C, C_prime)
    assert not vec_is_zero(z)
    rho_a = deck_action_matrix(Y, B, 1)
    rho_b = deck_action_matrix(Y, B, 2)
    assert mat_vec(rho_a, z) == vec_scale(-1, z)
    assert mat_vec(rho_b, z) == vec_scale(-1, z)


# --- rank obstruction ----------------------------------------------------------------


def test_obstruction_kernel_word(mod2_cover, mod2_basis):
    rep = elevation_rank_obstruction(mod2_cover, mod2_basis, Word.from_string("a1.a1"))
    assert rep.component_count == 4
    assert not rep.obstructed


def test_obstruction_primitive_words(mod2_cover, mod2_basis):
    for text in ("a1", "a2", "a1.a2"):
        rep = elevation_rank_obstruction(mod2_cover, mod2_basis, Word.from_string(text))
        assert rep.component_count == 2
        assert rep.orbit_rank <= 2
        assert rep.obstructed


def test_obstruction_rejects_empty(mod2_cover, mod2_basis):
    with pytest.raises(ValueError):
        elevation_rank_obstruction(mod2_cover, mod2_basis, Word())


def test_obstruction_rank_bound_battery():
    for name, Y, B in battery_covers((2,)):
        if Y.group.order > 8:
            continue
        for text in ("a1", "a2", "a1.a2"):
            rep = elevation_rank_obstruction(Y, B, Word.from_string(text))
            assert rep.orbit_rank <= rep.component_count, name
            w_img = Y.image_of(Word.from_string(text))
            assert (rep.component_count == Y.group.order) == (w_img == 0), name


# --- commutator -------------------------------------------------------------------------


def test_commutator_mod2(mod2_cover, mod2_basis):
    rep = commutator_lift_check(mod2_cover, mod2_basis)
    assert rep.lifts
    assert rep.class_nonzero


def test_commutator_trivial_rose():
    Y = make_cover(builtin_group("cyclic", 1), (0, 0))
    rep = commutator_lift_check(Y, cycle_basis(Y))
    assert rep.lifts
    assert not rep.class_nonzero


def test_commutator_nonabelian_does_not_lift():
    G = builtin_group("symmetric", 3)
    # two transpositions generate S3 and do not commute
    transpositions = [x for x in G.elements() if G.mul[x][x] == 0 and x != 0]
    Y = make_cover(G, tuple(transpositions[:2]))
    rep = commutator_lift_check(Y, cycle_basis(Y))
    assert not rep.lifts


def test_commutator_wrong_rank(klein_n3_cover, klein_n3_basis):
    with pytest.raises(WrongRank):
        commutator_lift_check(klein_n3_cover, klein_n3_basis)


# --- serialization -----------------------------------------------------------------------


def test_character_report_json(mod2_cover, mod2_basis):
    report = verify_chevalley_weil(mod2_cover, mod2_basis)
    data = character_report_to_json(report)
    assert data == {
        "order": 4,
        "rank": 5,
        "traces": {"0": "5", "1": "1", "2": "1", "3": "1"},
        "verdict": True,
    }


def test_isotypic_report_json(mod2_cover, mod2_basis):
    iso = isotypic_decomposition(mod2_cover, mod2_basis)
    data = isotypic_report_to_json(iso)
    assert data["dims"] == [2, 1, 1, 1]
    assert data["characters"][0] == [1, 1, 1, 1]
    assert len(data["projectors"]) == 4
