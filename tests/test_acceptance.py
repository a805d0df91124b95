"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (tolerance zero): every number in the package is an int
or a Fraction.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines as they complete.
"""

import random
from contextlib import contextmanager

import pytest

from coverslide import (
    RankTooSmall,
    Word,
    chain_of_path,
    commutator_lift_check,
    component_basis,
    deck_action_matrix,
    elevation_rank_obstruction,
    find_slide_loop,
    free_reduce,
    fundamental_loop_word,
    inclusion_rank_test,
    isotypic_decomposition,
    lift_word,
    lifted_action_formula,
    lifted_action_oracle,
    make_slide,
    move_vector,
    orbit_rank,
    orbit_rank_of_chain,
    petal_complement_components,
    subgroup_generated,
    verify_certificate,
    verify_chevalley_weil,
)
from coverslide.homology import chain_to_class
from coverslide.linalg import (
    mat_vec,
    vec_is_zero,
    vec_scale,
    vec_sub,
)

from helpers import battery_covers, mat_identity, mat_is_zero, mat_mul, mat_sub, unit_vector


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {num} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE criterion {num} ({description}): PASS")


@pytest.fixture(scope="module")
def certificates():
    """One verified certificate per battery cover (n >= 3) per basis vector."""
    out = []
    for name, Y, B in battery_covers((3, 4)):
        cache = {}
        for k in range(B.rank):
            v = unit_vector(B.rank, k)
            cert = move_vector(Y, B, v, loop_cache=cache)
            out.append((name, Y, B, v, cert))
    return out


def test_criterion_1_character_identity():
    with criterion(1, "regular-representation character identity"):
        covers = battery_covers((2, 3, 4))
        assert len(covers) >= 30
        for name, Y, B in covers:
            report = verify_chevalley_weil(Y, B)
            n, order = Y.n, Y.group.order
            assert report.traces[0] == (n - 1) * order + 1, name
            for g in range(1, order):
                assert report.traces[g] == 1, name
            assert report.verdict, name


def test_criterion_2_klein_cover_goldens(mod2_cover, mod2_basis):
    with criterion(2, "mod-2 cover golden values"):
        Y, B = mod2_cover, mod2_basis
        assert B.rank == 5

        iso = isotypic_decomposition(Y, B)
        assert [iso.dims[chi] for chi in iso.characters] == [2, 1, 1, 1]

        def lift_class(text):
            return chain_to_class(B, chain_of_path(lift_word(Y, Word.from_string(text), 0)))

        rho = {g: deck_action_matrix(Y, B, g) for g in range(4)}
        qa, qb = 1, 2

        # V_a: class(A) - q(b)class(A) with q(a) -> +1, q(b) -> -1
        A = lift_class("a1.a1")
        x_a = vec_sub(A, mat_vec(rho[qb], A))
        assert not vec_is_zero(x_a)
        assert mat_vec(rho[qa], x_a) == x_a
        assert mat_vec(rho[qb], x_a) == vec_scale(-1, x_a)

        # V_b: class(B) - q(a)class(B) with q(a) -> -1, q(b) -> +1
        Bcls = lift_class("a2.a2")
        x_b = vec_sub(Bcls, mat_vec(rho[qa], Bcls))
        assert not vec_is_zero(x_b)
        assert mat_vec(rho[qa], x_b) == vec_scale(-1, x_b)
        assert mat_vec(rho[qb], x_b) == x_b

        # V_ab: elevation(ab) - elevation(ba) with both generators -> -1
        C = lift_class("a1.a2.a1.a2")
        C_prime = lift_class("a2.a1.a2.a1")
        x_ab = vec_sub(C, C_prime)
        assert not vec_is_zero(x_ab)
        assert mat_vec(rho[qa], x_ab) == vec_scale(-1, x_ab)
        assert mat_vec(rho[qb], x_ab) == vec_scale(-1, x_ab)

        # transfer part: A + q(b)A and B + q(a)B are invariant and independent
        t1 = [a + b for a, b in zip(A, mat_vec(rho[qb], A))]
        t2 = [a + b for a, b in zip(Bcls, mat_vec(rho[qa], Bcls))]
        for g in range(4):
            assert mat_vec(rho[g], t1) == t1
            assert mat_vec(rho[g], t2) == t2
        from coverslide.linalg import rank

        assert rank([t1, t2]) == 2

        # the lift of a^3 b^-1 a b spans a regular orbit
        assert orbit_rank(Y, B, lift_class("a1.a1.a1.a2^-1.a1.a2")) == 4


def _random_valid_slide(Y, rng):
    j = rng.randint(1, Y.n)
    B0 = component_basis(petal_complement_components(Y, j)[0])
    word = Word()
    for e in B0.cotree:
        c = rng.randint(-1, 1)
        if c:
            word = word * (fundamental_loop_word(B0, e) ** c)
    return j, free_reduce(word)


def test_criterion_3_formula_equals_oracle():
    with criterion(3, "lifted-action formula vs path-lifting oracle"):
        rng = random.Random(0)
        checked = 0
        for name, Y, B in battery_covers((2, 3, 4)):
            wanted = 3 if Y.group.order <= 8 else 1
            produced = 0
            attempts = 0
            while produced < wanted and attempts < 5 * wanted:
                attempts += 1
                j, ell = _random_valid_slide(Y, rng)
                if len(ell) == 0:
                    continue
                s = make_slide(Y.n, j, ell)
                L = lifted_action_formula(s, Y, B)
                assert lifted_action_oracle(s, Y, B) == L.columns, name
                for g in Y.group.elements():
                    rho = deck_action_matrix(Y, B, g)
                    assert mat_mul(L.matrix, rho) == mat_mul(rho, L.matrix), name
                delta = mat_sub(L.matrix, mat_identity(B.rank))
                assert mat_is_zero(mat_mul(delta, delta)), name
                produced += 1
            checked += produced
        assert checked >= 50, f"only {checked} random slides checked"


def test_criterion_4_iteration_closed_form(certificates):
    with criterion(4, "iterates follow the closed form and are distinct"):
        for name, Y, B, v, cert in certificates:
            w = list(v)
            seen = {tuple(w)}
            for d in range(1, 11):
                w = mat_vec(cert.matrix, w)
                assert w == [a + d * b for a, b in zip(v, cert.increment)], name
                key = tuple(w)
                assert key not in seen, name
                seen.add(key)
            assert len(seen) == 11, name


def test_criterion_5_main_theorem_end_to_end(certificates):
    with criterion(5, "every basis class is moved, n=2 fails loudly"):
        names = set()
        for name, Y, B, v, cert in certificates:
            names.add(name)
            check = verify_certificate(Y, B, v, cert)
            assert check.ok, (name, check.failures)
            assert all(i != cert.petal for i, _ in cert.ell), name
            assert Y.image_of(cert.ell) == 0, name
            assert cert.orbit_rank_value == Y.group.order, name
            assert not vec_is_zero(cert.increment), name
        assert len(names) == len(battery_covers((3, 4)))

        for name, Y, B in battery_covers((2,)):
            with pytest.raises(RankTooSmall):
                move_vector(Y, B, unit_vector(B.rank, 0))


def test_criterion_6_component_claims():
    with criterion(6, "component inclusion and orbit-rank claims"):
        for name, Y, B in battery_covers((3, 4)):
            for j in range(1, Y.n + 1):
                comps = petal_complement_components(Y, j)
                report = inclusion_rank_test(Y, B, comps)
                assert report.injective, (name, j)

                B0 = component_basis(comps[0])
                gens = [Y.images[i - 1] for i in range(1, Y.n + 1) if i != j]
                G0 = subgroup_generated(Y.group, gens)
                assert B0.rank == (Y.n - 2) * len(G0) + 1, (name, j)

                ell = find_slide_loop(Y, B, j)
                chain = chain_of_path(lift_word(Y, ell, 0))
                assert orbit_rank_of_chain(Y, B0, chain, elements=G0) == len(G0), (name, j)
                assert orbit_rank_of_chain(Y, B, chain) == Y.group.order, (name, j)


def test_criterion_7_rank_two_obstructions(mod2_cover, mod2_basis):
    with criterion(7, "elevation rank obstruction and commutator lift"):
        Y, B = mod2_cover, mod2_basis
        for text in ("a1", "a2", "a1.a2"):
            rep = elevation_rank_obstruction(Y, B, Word.from_string(text))
            assert rep.component_count == 2
            assert rep.orbit_rank <= 2
            assert rep.obstructed

        for text in ("a1.a1", "a1.a2.a1^-1.a2^-1"):
            rep = elevation_rank_obstruction(Y, B, Word.from_string(text))
            assert rep.component_count == 4
            assert not rep.obstructed

        comm = commutator_lift_check(Y, B)
        assert comm.lifts
        assert comm.class_nonzero
