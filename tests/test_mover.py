import dataclasses

import pytest

from coverslide import (
    CertificateFailed,
    RankTooSmall,
    SearchExhausted,
    Word,
    ZeroVector,
    builtin_group,
    certificate_to_json,
    chain_of_path,
    chain_to_class,
    class_to_chain,
    component_basis,
    cycle_basis,
    find_pairing_edge,
    find_slide_loop,
    fundamental_loop_word,
    lift_word,
    make_cover,
    move_vector,
    orbit_rank_of_chain,
    path_is_closed,
    petal_complement_components,
    verify_certificate,
)
from coverslide.linalg import mat_vec, vec_is_zero

from helpers import unit_vector


# --- pairing edge ------------------------------------------------------------


def test_pairing_zero_vector(mod2_cover, mod2_basis):
    with pytest.raises(ZeroVector):
        find_pairing_edge(mod2_cover, mod2_basis, [0] * 5)


def test_pairing_basis_vector(mod2_cover, mod2_basis):
    for k, e in enumerate(mod2_basis.cotree):
        j, g = find_pairing_edge(mod2_cover, mod2_basis, unit_vector(5, k))
        assert mod2_basis.cycles[k].get((g, j), 0) != 0


def test_pairing_loop_a_squared(mod2_cover, mod2_basis):
    v = chain_to_class(
        mod2_basis, chain_of_path(lift_word(mod2_cover, Word.from_string("a1.a1"), 0))
    )
    j, g = find_pairing_edge(mod2_cover, mod2_basis, v)
    assert j == 1
    assert g in (0, 1)  # A traverses the petal-1 edges at e and q(a)


def test_pairing_deterministic_smallest(klein_n3_cover, klein_n3_basis):
    B = klein_n3_basis
    v = [1] * B.rank
    j, g = find_pairing_edge(klein_n3_cover, B, v)
    chain = class_to_chain(B, v)
    for jj in range(1, j + 1):
        for gg in range(4):
            if (jj, gg) < (j, g):
                assert chain.get((gg, jj), 0) == 0


# --- fundamental loop words -----------------------------------------------------


def test_loop_word_trivial_rose(trivial_n3_cover):
    comps = petal_complement_components(trivial_n3_cover, 1)
    B0 = component_basis(comps[0])
    assert [fundamental_loop_word(B0, e) for e in B0.cotree] == [
        Word.from_string("a2"),
        Word.from_string("a3"),
    ]


def test_loop_word_mod2_b_squared(mod2_cover):
    comps = petal_complement_components(mod2_cover, 1)
    B0 = component_basis(comps[0])
    assert B0.cotree != ()
    words = [fundamental_loop_word(B0, e) for e in B0.cotree]
    assert words == [Word.from_string("a2.a2")]


def test_loop_word_round_trip():
    # lift of the loop word is closed and its class is the fundamental cycle
    covers = [
        make_cover(builtin_group("elementary_abelian", 2, 2), (1, 2, 0)),
        make_cover(builtin_group("symmetric", 3), (1, 2, 0)),
        make_cover(builtin_group("cyclic", 4), (1, 0, 1)),
    ]
    for Y in covers:
        for j in range(1, Y.n + 1):
            comps = petal_complement_components(Y, j)
            B0 = component_basis(comps[0])
            for k, e in enumerate(B0.cotree):
                w = fundamental_loop_word(B0, e)
                assert all(i != j for i, _ in w)
                p = lift_word(Y, w, 0)
                assert path_is_closed(Y, p)
                assert chain_of_path(p) == B0.cycles[k]


def test_loop_word_rejects_tree_edge(mod2_cover):
    comps = petal_complement_components(mod2_cover, 1)
    B0 = component_basis(comps[0])
    tree_edge = next(iter(B0.tree))
    with pytest.raises(ValueError):
        fundamental_loop_word(B0, tree_edge)


# --- slide loop search -----------------------------------------------------------


def test_find_loop_trivial_rose(trivial_n3_cover):
    B = cycle_basis(trivial_n3_cover)
    ell = find_slide_loop(trivial_n3_cover, B, 1)
    assert ell == Word.from_string("a2")


def test_find_loop_rank_too_small(mod2_cover, mod2_basis):
    with pytest.raises(RankTooSmall):
        find_slide_loop(mod2_cover, mod2_basis, 1)


def test_find_loop_klein_n3(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    for j in range(1, 4):
        ell = find_slide_loop(Y, B, j)
        assert all(i != j for i, _ in ell)
        assert Y.image_of(ell) == 0
        chain = chain_of_path(lift_word(Y, ell, 0))
        assert orbit_rank_of_chain(Y, B, chain) == 4
        # the lift stays in the identity component
        comp0 = petal_complement_components(Y, j)[0]
        assert all(e in set(comp0.edges) for e in chain)


def test_find_loop_search_exhausted(klein_n3_cover, klein_n3_basis):
    with pytest.raises(SearchExhausted):
        find_slide_loop(klein_n3_cover, klein_n3_basis, 1, max_candidates=0)


def test_find_loop_deterministic(klein_n3_cover, klein_n3_basis):
    a = find_slide_loop(klein_n3_cover, klein_n3_basis, 2)
    b = find_slide_loop(klein_n3_cover, klein_n3_basis, 2)
    assert a == b


# --- move_vector -------------------------------------------------------------------


def test_move_trivial_rose(trivial_n3_cover):
    B = cycle_basis(trivial_n3_cover)
    cert = move_vector(trivial_n3_cover, B, [1, 0, 0])
    assert cert.petal == 1
    assert cert.ell == Word.from_string("a2")
    assert cert.increment == [0, 1, 0]  # class of a2
    assert cert.orbit_rank_value == 1
    # iterates v, v+inc, v+2inc are distinct
    seen = set()
    w = [1, 0, 0]
    for _ in range(3):
        seen.add(tuple(w))
        w = mat_vec(cert.matrix, w)
    assert len(seen) == 3


def test_move_zero_vector(klein_n3_cover, klein_n3_basis):
    with pytest.raises(ZeroVector):
        move_vector(klein_n3_cover, klein_n3_basis, [0] * klein_n3_basis.rank)


def test_move_rank_too_small(mod2_cover, mod2_basis):
    with pytest.raises(RankTooSmall):
        move_vector(mod2_cover, mod2_basis, unit_vector(5, 0))


def test_move_klein_n3_all_basis_vectors(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    cache = {}
    for k in range(B.rank):
        v = unit_vector(B.rank, k)
        cert = move_vector(Y, B, v, loop_cache=cache)
        assert cert.orbit_rank_value == 4
        assert cert.iterates_checked == 10
        assert verify_certificate(Y, B, v, cert).ok


def test_move_cyclic3_loop_edge_class(cyclic3_cover):
    Y = cyclic3_cover
    B = cycle_basis(Y)
    v = chain_to_class(B, chain_of_path(lift_word(Y, Word.from_string("a3"), 0)))
    cert = move_vector(Y, B, v)
    assert verify_certificate(Y, B, v, cert).ok
    assert cert.orbit_rank_value == 3


def test_move_poisoned_cache_raises_certificate_failed(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 0)
    j, _ = find_pairing_edge(Y, B, v)
    k = 2 if j == 1 else 1
    # a_k has order 2 in the Klein group: a_k.a_k closes, but its deck orbit
    # spans only 2 of the 4 dimensions
    poisoned = Word.generator(k) * Word.generator(k)
    assert orbit_rank_of_chain(Y, B, chain_of_path(lift_word(Y, poisoned, 0))) < 4
    with pytest.raises(CertificateFailed, match="property 3") as info:
        move_vector(Y, B, v, loop_cache={j: poisoned})
    assert "property 3" in info.value.failures


def test_move_with_and_without_cache_identical(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 4)
    plain = move_vector(Y, B, v)
    cached = move_vector(Y, B, v, loop_cache={})
    assert plain == cached


def test_certificate_properties(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    # property 1: loop avoids the slid petal
    assert all(i != cert.petal for i, _ in cert.ell)
    # property 2: lifts closed
    assert Y.image_of(cert.ell) == 0
    # property 3: full orbit rank
    assert cert.orbit_rank_value == Y.group.order
    assert not vec_is_zero(cert.increment)
    # pairing edge pairs with v
    assert class_to_chain(B, v).get(tuple(cert.pairing_edge), 0) != 0


# --- verify_certificate ---------------------------------------------------------------


def test_verify_rejects_tampered_ell(cyclic3_cover):
    Y = cyclic3_cover
    B = cycle_basis(Y)
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    bad = dataclasses.replace(cert, ell=Word.from_string("a2"))
    check = verify_certificate(Y, B, v, bad)
    assert not check
    assert "property 2" in check.failures


def test_verify_rejects_zero_increment(cyclic3_cover):
    Y = cyclic3_cover
    B = cycle_basis(Y)
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    bad = dataclasses.replace(cert, increment=[0] * B.rank)
    check = verify_certificate(Y, B, v, bad)
    assert not check
    assert "increment nonzero" in check.failures


def test_verify_rejects_petal_in_loop(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    bad_word = Word.generator(cert.petal) * Word.generator(cert.petal, -1)
    bad = dataclasses.replace(cert, ell=cert.ell * bad_word)
    check = verify_certificate(Y, B, v, bad)
    assert not check
    assert "property 1" in check.failures


def test_verify_rejects_tampered_matrix(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    matrix = [row[:] for row in cert.matrix]
    matrix[0][0] += 1
    bad = dataclasses.replace(cert, matrix=matrix)
    check = verify_certificate(Y, B, v, bad)
    assert not check
    assert "matrix vs formula" in check.failures


def test_verify_rejects_wrong_orbit_rank_claim(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 1)
    cert = move_vector(Y, B, v)
    bad = dataclasses.replace(cert, orbit_rank_value=3)
    check = verify_certificate(Y, B, v, bad)
    assert not check
    assert "property 3" in check.failures


# --- certificate JSON ----------------------------------------------------------------


def test_certificate_json(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    v = unit_vector(B.rank, 0)
    cert = move_vector(Y, B, v)
    data = certificate_to_json(cert, Y)
    assert data["petal"] == cert.petal
    assert data["orbit_rank"] == 4
    assert data["cover"] == {"group_order": 4, "n": 3, "images": [1, 2, 0]}
    assert len(data["matrix"]) == B.rank
    assert Word.from_string(data["ell"]) == cert.ell
