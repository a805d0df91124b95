import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coverslide import (
    DoesNotLift,
    PetalInLoop,
    Word,
    apply_automorphism,
    chain_of_path,
    chain_to_class,
    class_to_chain,
    cycle_basis,
    deck_action_matrix,
    free_reduce,
    fundamental_loop_word,
    component_basis,
    lift_word,
    lifted_action_formula,
    lifted_action_oracle,
    lifts_to_cover,
    make_slide,
    petal_complement_components,
    slide_increment,
    translate_chain,
)
from coverslide import slides
from coverslide.homology import NotACycle, chain_add
from coverslide.linalg import mat_vec, vec_sub

from helpers import (
    battery_covers,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_sub,
    reference_lifted_action_oracle,
)

words3 = st.builds(
    Word,
    st.lists(
        st.tuples(st.integers(1, 3), st.sampled_from((1, -1))), max_size=10
    ).map(tuple),
)


def random_valid_slide(Y, B, rng):
    """A random slide loop built from fundamental loops of one petal
    complement component, so it always avoids the petal and lifts closed."""
    j = rng.randint(1, Y.n)
    comps = petal_complement_components(Y, j)
    B0 = component_basis(comps[0])
    word = Word()
    for e in B0.cotree:
        c = rng.randint(-1, 1)
        if c:
            word = word * (fundamental_loop_word(B0, e) ** c)
    return j, free_reduce(word)


# --- automorphism algebra ----------------------------------------------------


def test_make_slide_empty_loop_is_identity():
    s = make_slide(3, 1, Word())
    assert apply_automorphism(s, Word.from_string("a1.a2")) == Word.from_string("a1.a2")


def test_make_slide_basic():
    s = make_slide(3, 1, Word.from_string("a2"))
    assert apply_automorphism(s, Word.from_string("a1")) == Word.from_string("a2.a1")


def test_make_slide_rejects_petal_in_loop():
    with pytest.raises(PetalInLoop):
        make_slide(3, 1, Word.from_string("a1.a2"))


def test_apply_fixes_other_generators():
    s = make_slide(3, 1, Word.from_string("a2.a3^-1"))
    assert apply_automorphism(s, Word.from_string("a2")) == Word.from_string("a2")
    assert apply_automorphism(s, Word.from_string("a3")) == Word.from_string("a3")


def test_apply_inverse_letter():
    s = make_slide(3, 1, Word.from_string("a2"))
    assert apply_automorphism(s, Word.from_string("a1^-1")) == Word.from_string("a1^-1.a2^-1")
    assert apply_automorphism(s, Word.from_string("a1.a1^-1")) == Word()


@given(words3, words3)
def test_apply_is_homomorphism(u, v):
    s = make_slide(3, 2, Word.from_string("a1.a3^-1"))
    assert apply_automorphism(s, u * v) == free_reduce(
        apply_automorphism(s, u) * apply_automorphism(s, v)
    )


@given(words3)
def test_apply_preserves_group_image(klein_n3_cover, w):
    # the slide induces the identity on the deck group
    s = make_slide(3, 1, Word.from_string("a3.a2.a2.a3^-1"))
    Y = klein_n3_cover
    assert Y.image_of(apply_automorphism(s, w)) == Y.image_of(w)


# --- lifting predicate ---------------------------------------------------------


def test_lifts_empty(mod2_cover):
    assert lifts_to_cover(make_slide(2, 1, Word()), mod2_cover)


def test_lifts_b_squared(mod2_cover):
    assert lifts_to_cover(make_slide(2, 1, Word.from_string("a2.a2")), mod2_cover)


def test_does_not_lift_b(mod2_cover):
    assert not lifts_to_cover(make_slide(2, 1, Word.from_string("a2")), mod2_cover)
    with pytest.raises(DoesNotLift):
        lifted_action_formula(make_slide(2, 1, Word.from_string("a2")), mod2_cover, cycle_basis(mod2_cover))


# --- action matrix: formula and oracle -------------------------------------------


def test_empty_loop_gives_identity(mod2_cover, mod2_basis):
    s = make_slide(2, 1, Word())
    L = lifted_action_formula(s, mod2_cover, mod2_basis)
    assert L.matrix == mat_identity(mod2_basis.rank)
    assert lifted_action_oracle(s, mod2_cover, mod2_basis) == L.columns


def test_oracle_fixes_other_petal_edges(mod2_cover, mod2_basis):
    # chain map route: edges of other petals map to themselves
    Y, B = mod2_cover, mod2_basis
    s = make_slide(2, 1, Word.from_string("a2.a2"))
    for g in range(4):
        w = apply_automorphism(s, Word.generator(2))
        assert chain_of_path(lift_word(Y, w, g)) == {(g, 2): 1}


def test_chain_level_formula_on_slid_edges(mod2_cover, mod2_basis):
    # edge (g, j) maps to chain(g . ell~) + edge(g, j)
    Y, B = mod2_cover, mod2_basis
    s = make_slide(2, 1, Word.from_string("a2.a2"))
    ell_chain = chain_of_path(lift_word(Y, s.ell, 0))

    for g in range(4):
        w = apply_automorphism(s, Word.generator(1))
        img = chain_of_path(lift_word(Y, w, g))
        expected = dict(translate_chain(Y, g, ell_chain))
        chain_add(expected, (g, 1), 1)
        assert img == expected


def test_formula_equals_oracle_mod2(mod2_cover, mod2_basis):
    s = make_slide(2, 1, Word.from_string("a2.a2"))
    L = lifted_action_formula(s, mod2_cover, mod2_basis)
    assert lifted_action_oracle(s, mod2_cover, mod2_basis) == L.columns


def test_formula_equals_oracle_random_battery():
    rng = random.Random(7)
    checked = 0
    for name, Y, B in battery_covers((2, 3)):
        if Y.group.order > 8:
            continue
        for _ in range(2):
            j, ell = random_valid_slide(Y, B, rng)
            s = make_slide(Y.n, j, ell)
            L = lifted_action_formula(s, Y, B)
            assert lifted_action_oracle(s, Y, B) == L.columns, name
            checked += 1
    assert checked >= 10


def dense_formula_matrix(Y, B, s):
    """The cocycle formula as dense rows, the way the action was built before
    it was held as columns: a dense coordinate list per translate of the
    lifted loop, dense columns, then a transpose."""
    ell_chain = chain_of_path(lift_word(Y, s.ell, 0))
    translates = {}
    cols = []
    for k, zk in enumerate(B.cycles):
        col = [0] * B.rank
        for (g, i), c in zk.items():
            if i == s.j and c != 0:
                if g not in translates:
                    z = translate_chain(Y, g, ell_chain)
                    translates[g] = [z.get(e, 0) for e in B.cotree]
                for row, x in enumerate(translates[g]):
                    if x != 0:
                        col[row] += c * x
        col[k] += 1
        cols.append(col)
    return [list(row) for row in zip(*cols)]


SMALL_COVERS = [(name, Y, B) for name, Y, B in battery_covers((2, 3)) if Y.group.order <= 8]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_COVERS), st.randoms(use_true_random=False))
def test_formula_oracle_and_matrix_columns_agree(cover, rng):
    name, Y, B = cover
    j, ell = random_valid_slide(Y, B, rng)
    s = make_slide(Y.n, j, ell)
    L = lifted_action_formula(s, Y, B)
    r = B.rank
    assert all(x != 0 and 0 <= i < r for col in L.columns for i, x in col.items()), name
    assert lifted_action_oracle(s, Y, B) == L.columns, name
    dense = L.matrix
    assert [{i: dense[i][k] for i in range(r) if dense[i][k]} for k in range(r)] == L.columns, name
    assert dense == dense_formula_matrix(Y, B, s), name
    # the increment reads the translate classes the formula filled
    v = [rng.randint(-3, 3) for _ in range(r)]
    assert slide_increment(L, class_to_chain(B, v)) == vec_sub(mat_vec(dense, v), v), name


def test_oracle_checks_each_edge_image_boundary(mod2_cover, mod2_basis, monkeypatch):
    # an edge map that is not a chain map: a1 -> a2.a1 ends one b-step off
    s = make_slide(2, 1, Word.from_string("a2.a2"))

    def wrong(_, w):
        return Word.from_string("a2") * w if w == Word.generator(1) else w

    monkeypatch.setattr(slides, "apply_automorphism", wrong)
    with pytest.raises(NotACycle):
        lifted_action_oracle(s, mod2_cover, mod2_basis)


ORACLE_COVERS = battery_covers((2, 3, 4))


def _outcome(route, s, Y, B):
    """The columns a route returns, or the type and message of the
    ValueError (NotACycle among them) it raises."""
    try:
        return route(s, Y, B)
    except ValueError as exc:
        return type(exc), str(exc)


def _random_basis(Y, B, rng):
    """B, or the basis of a random component of a random petal complement."""
    if rng.random() < 0.5:
        return B
    return component_basis(rng.choice(petal_complement_components(Y, rng.randint(1, Y.n))))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ORACLE_COVERS), st.randoms(use_true_random=False))
def test_oracle_matches_the_chain_map_on_every_edge(cover, rng):
    """Lifting only the moved edges gives the columns, or the error, of
    pushing every edge through the chain map: on whole bases and on
    component bases, which a loop may leave."""
    name, Y, B = cover
    j, ell = random_valid_slide(Y, B, rng)
    s = make_slide(Y.n, j, ell)
    Bx = _random_basis(Y, B, rng)
    got = _outcome(lifted_action_oracle, s, Y, Bx)
    assert got == _outcome(reference_lifted_action_oracle, s, Y, Bx), name


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ORACLE_COVERS), st.randoms(use_true_random=False))
def test_oracle_matches_the_chain_map_on_wrong_substitutions(cover, rng):
    """With a substitution that also puts a random letter in front of a
    random generator, the oracle lifts that generator's edges too and raises
    the chain map's NotACycle, at the same vertex, or returns its columns."""
    name, Y, B = cover
    j, ell = random_valid_slide(Y, B, rng)
    s = make_slide(Y.n, j, ell)
    i0, letter = rng.randint(1, Y.n), (rng.randint(1, Y.n), rng.choice((1, -1)))
    apply = slides.apply_automorphism

    def wrong(slide, w):
        image = apply(slide, w)
        return free_reduce(Word((letter,)) * image) if w == Word.generator(i0) else image

    Bx = _random_basis(Y, B, rng)
    with mock.patch.object(slides, "apply_automorphism", wrong):
        got = _outcome(lifted_action_oracle, s, Y, Bx)
        assert got == _outcome(reference_lifted_action_oracle, s, Y, Bx), name


def test_oracle_lifts_only_the_moved_edges(klein_n3_cover, klein_n3_basis, monkeypatch):
    # a slide of petal 1 moves the |G| petal-1 edges and no other
    Y, B = klein_n3_cover, klein_n3_basis
    s = make_slide(3, 1, Word.from_string("a2.a2"))
    starts = []

    def counted(Y, w, start):
        starts.append((w, start))
        return lift_word(Y, w, start)

    monkeypatch.setattr(slides, "lift_word", counted)
    assert lifted_action_oracle(s, Y, B) == reference_lifted_action_oracle(s, Y, B)
    moved = [start for w, start in starts if w != s.ell]
    assert sorted(moved) == list(range(Y.group.order))


def test_both_routes_reject_a_basis_the_loop_leaves(klein_n3_cover):
    # the petal-2 complement's basis misses the a2 edges the loop runs along
    B0 = component_basis(petal_complement_components(klein_n3_cover, 2)[0])
    s = make_slide(3, 1, Word.from_string("a2.a2"))
    for route in (lifted_action_formula, lifted_action_oracle):
        with pytest.raises(ValueError, match="graph of this basis"):
            route(s, klein_n3_cover, B0)


def test_unipotent(mod2_cover, mod2_basis):
    s = make_slide(2, 1, Word.from_string("a2.a2"))
    L = lifted_action_formula(s, mod2_cover, mod2_basis)
    d = mat_sub(L.matrix, mat_identity(mod2_basis.rank))
    assert mat_is_zero(mat_mul(d, d))


def test_equivariance(klein_n3_cover, klein_n3_basis):
    # F commutes with every deck matrix
    Y, B = klein_n3_cover, klein_n3_basis
    s = make_slide(3, 1, Word.from_string("a2.a2"))
    L = lifted_action_formula(s, Y, B)
    for g in Y.group.elements():
        rho = deck_action_matrix(Y, B, g)
        assert mat_mul(L.matrix, rho) == mat_mul(rho, L.matrix)


def test_cocycle_stability(klein_n3_cover, klein_n3_basis):
    # petal-j cocycles are unchanged by the chain map
    Y, B = klein_n3_cover, klein_n3_basis
    s = make_slide(3, 1, Word.from_string("a2.a3.a2^-1.a3^-1"))
    L = lifted_action_formula(s, Y, B)
    for k, zk in enumerate(B.cycles):
        image_chain = class_to_chain(B, [L.matrix[r][k] for r in range(B.rank)])
        for g in Y.group.elements():
            assert image_chain.get((g, 1), 0) == zk.get((g, 1), 0)


def test_no_translate_crosses_slid_petal(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    s = make_slide(3, 1, Word.from_string("a2.a2"))
    L = lifted_action_formula(s, Y, B)

    for g in Y.group.elements():
        moved = translate_chain(Y, g, L.ell_chain)
        assert all(i != 1 for (_, i) in moved)


# --- closed-form iteration --------------------------------------------------------


def closed_form_iterate(L, B, d, w):
    """``F^d(w) = w + d * (F(w) - w)``, from the increment of w's canonical cycle."""
    delta = slide_increment(L, class_to_chain(B, w))
    return [a + d * b for a, b in zip(w, delta)]


def test_iterate_zero_is_identity(mod2_cover, mod2_basis):
    s = make_slide(2, 1, Word.from_string("a2.a2"))
    L = lifted_action_formula(s, mod2_cover, mod2_basis)
    w = chain_to_class(mod2_basis, chain_of_path(lift_word(mod2_cover, Word.from_string("a1.a1"), 0)))
    assert closed_form_iterate(L, mod2_basis, 0, w) == w


def test_iterate_one_matches_matrix(mod2_cover, mod2_basis):
    s = make_slide(2, 1, Word.from_string("a2.a2"))
    L = lifted_action_formula(s, mod2_cover, mod2_basis)
    for k in range(mod2_basis.rank):
        w = [1 if t == k else 0 for t in range(mod2_basis.rank)]
        assert closed_form_iterate(L, mod2_basis, 1, w) == mat_vec(L.matrix, w)


def test_iterate_matches_matrix_powers(klein_n3_cover, klein_n3_basis):
    Y, B = klein_n3_cover, klein_n3_basis
    s = make_slide(3, 2, Word.from_string("a1.a1"))
    L = lifted_action_formula(s, Y, B)
    w = [1 if t == 0 else 0 for t in range(B.rank)]
    power = list(w)
    for d in range(11):
        assert closed_form_iterate(L, B, d, w) == power
        power = mat_vec(L.matrix, power)


def test_increment_linear(mod2_cover, mod2_basis):
    s = make_slide(2, 1, Word.from_string("a2.a2"))
    L = lifted_action_formula(s, mod2_cover, mod2_basis)
    u = [1, 0, 2, 0, 0]
    v = [0, 1, 0, 0, 3]
    B = mod2_basis
    du = slide_increment(L, class_to_chain(B, u))
    dv = slide_increment(L, class_to_chain(B, v))
    dsum = slide_increment(L, class_to_chain(B, [a + b for a, b in zip(u, v)]))
    assert dsum == [a + b for a, b in zip(du, dv)]


# --- serialization ------------------------------------------------------------------


def test_lifted_slide_json(mod2_cover, mod2_basis):
    from coverslide import lifted_slide_to_json

    s = make_slide(2, 1, Word.from_string("a2.a2"))
    L = lifted_action_formula(s, mod2_cover, mod2_basis)
    data = lifted_slide_to_json(L)
    assert data["petal"] == 1
    assert data["ell"] == "a2.a2"
    assert len(data["matrix"]) == 5
