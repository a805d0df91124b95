from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from coverslide import (
    CoverGraph,
    Disconnected,
    EdgePath,
    Word,
    build_cover,
    builtin_group,
    builtin_group_from_string,
    chain_of_path,
    free_reduce,
    from_mul_table,
    lift_word,
    make_cover,
    path_end,
    petal_complement_components,
    standard_images,
    subgroup_generated,
    to_dot,
    translate_chain,
)
from coverslide.groups import generator_count_lower_bound

words = st.builds(
    Word,
    st.lists(
        st.tuples(st.integers(1, 3), st.sampled_from((1, -1))), max_size=12
    ).map(tuple),
)


def steps_are_connected(Y, p):
    """Each step's edge exists and leaves the vertex the previous one reached."""
    v = p.start
    for e, d in p.steps:
        g, i = e
        if not (0 <= g < Y.vertex_count and 1 <= i <= Y.n) or d not in (1, -1):
            return False
        if (Y.edge_tail(e) if d == 1 else Y.edge_head(e)) != v:
            return False
        v = Y.edge_head(e) if d == 1 else Y.edge_tail(e)
    return True


# --- words ----------------------------------------------------------------


def test_free_reduce_cancels_pair():
    assert free_reduce(Word.from_string("a1.a1^-1")) == Word()


def test_free_reduce_inner_pair():
    assert free_reduce(Word.from_string("a1.a2.a2^-1.a1")) == Word.from_string("a1.a1")


def test_free_reduce_already_reduced():
    w = Word.from_string("a1.a1.a1.a2^-1.a1.a2")
    assert free_reduce(w) == w


@given(words)
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert all(r.letters[k] != (r.letters[k + 1][0], -r.letters[k + 1][1]) for k in range(len(r) - 1))


@given(words)
def test_word_times_inverse_reduces_to_empty(w):
    assert free_reduce(w * w.inverse()) == Word()


def test_word_string_round_trip():
    w = Word.from_string("a2.a3^-1.a1")
    assert w.to_string() == "a2.a3^-1.a1"
    assert Word.from_string(w.to_string()) == w
    assert Word.from_string("") == Word()


def test_word_string_rejects_garbage():
    with pytest.raises(ValueError):
        Word.from_string("b2")
    with pytest.raises(ValueError):
        Word.from_string("a0")
    with pytest.raises(ValueError):
        Word.from_string("a2^2")


def test_word_power():
    w = Word.from_string("a1.a2")
    assert w**2 == Word.from_string("a1.a2.a1.a2")
    assert w**-1 == Word.from_string("a2^-1.a1^-1")
    assert w**0 == Word()


# --- cover construction ---------------------------------------------------


def test_trivial_rose():
    Y = make_cover(builtin_group("cyclic", 1), (0, 0, 0))
    assert Y.vertex_count == 1
    assert Y.edge_count == 3
    assert all(Y.edge_head(e) == 0 for e in Y.edges())


def test_mod2_cover_counts(mod2_cover):
    assert mod2_cover.vertex_count == 4
    assert mod2_cover.edge_count == 8


def test_cyclic3_loops(cyclic3_cover):
    Y = cyclic3_cover
    assert Y.vertex_count == 3
    assert Y.edge_count == 9
    loops = [e for e in Y.edges() if Y.edge_head(e) == Y.edge_tail(e)]
    assert loops == [(0, 3), (1, 3), (2, 3)]


def test_disconnected_rejected():
    G = builtin_group("cyclic", 3)
    with pytest.raises(Disconnected):
        build_cover(G, (0, 0))


def test_cover_rejects_an_image_out_of_range():
    with pytest.raises(ValueError, match="petal image 2 out of range"):
        CoverGraph(builtin_group("cyclic", 2), (1, 2))


def test_spec_needs_two_petals():
    with pytest.raises(ValueError, match="at least 2 petals"):
        CoverGraph(builtin_group("cyclic", 2), (1,))


# --- lifting --------------------------------------------------------------


def test_lift_empty_word(mod2_cover):
    p = lift_word(mod2_cover, Word(), 2)
    assert p.steps == ()
    assert path_end(mod2_cover, p) == 2


def test_lift_a_squared_closed(mod2_cover):
    p = lift_word(mod2_cover, Word.from_string("a1.a1"), 0)
    assert len(p.steps) == 2
    assert path_end(mod2_cover, p) == p.start
    assert steps_are_connected(mod2_cover, p)
    # it crosses both petal-1 edges once
    assert chain_of_path(p) == {(0, 1): 1, (1, 1): 1}


def test_lift_a_open(mod2_cover):
    p = lift_word(mod2_cover, Word.from_string("a1"), 0)
    assert path_end(mod2_cover, p) == 1  # q(a)


@given(words, st.integers(0, 3))
def test_lift_endpoint_law(klein_n3_cover, w, start):
    # endpoint = start * q(w), with q folded here independently of lift_word
    Y = klein_n3_cover
    acc = start
    for i, s in w.letters:
        img = Y.images[i - 1]
        acc = Y.group.mul[acc][img if s == 1 else Y.group.inv[img]]
    p = lift_word(Y, w, start)
    assert path_end(Y, p) == acc
    assert steps_are_connected(Y, p)


def test_lift_concatenation(klein_n3_cover):
    Y = klein_n3_cover
    u = Word.from_string("a1.a2^-1")
    v = Word.from_string("a3.a1")
    pu = lift_word(Y, u, 0)
    pv = lift_word(Y, v, path_end(Y, pu))
    assert EdgePath(0, pu.steps + pv.steps) == lift_word(Y, u * v, 0)


def test_deck_translate_identity(mod2_cover):
    z = chain_of_path(lift_word(mod2_cover, Word.from_string("a1.a2"), 1))
    assert translate_chain(mod2_cover, 0, z) == z


def test_deck_translate_of_lift(mod2_cover):
    # translating the lift of a^2 at the identity gives its lift at q(b)
    Y = mod2_cover
    A = chain_of_path(lift_word(Y, Word.from_string("a1.a1"), 0))
    assert translate_chain(Y, 2, A) == chain_of_path(lift_word(Y, Word.from_string("a1.a1"), 2))


def test_deck_translate_composition(mod2_cover):
    # translate by g then h equals translate by h*g, on all Klein pairs
    Y = mod2_cover
    z = chain_of_path(lift_word(Y, Word.from_string("a1.a2^-1.a1"), 3))
    for g in range(4):
        for h in range(4):
            twice = translate_chain(Y, h, translate_chain(Y, g, z))
            once = translate_chain(Y, Y.group.mul[h][g], z)
            assert twice == once


def test_lift_equivariance(klein_n3_cover):
    Y = klein_n3_cover
    w = Word.from_string("a1.a3.a2^-1")
    for g in range(4):
        for h in range(4):
            lhs = translate_chain(Y, g, chain_of_path(lift_word(Y, w, h)))
            rhs = chain_of_path(lift_word(Y, w, Y.group.mul[g][h]))
            assert lhs == rhs


# --- petal complement -----------------------------------------------------


def test_components_trivial_group(trivial_n3_cover):
    comps = petal_complement_components(trivial_n3_cover, 2)
    assert len(comps) == 1
    assert comps[0].vertices == (0,)
    assert comps[0].edges == ((0, 1), (0, 3))


def test_components_mod2(mod2_cover):
    comps = petal_complement_components(mod2_cover, 1)
    assert len(comps) == 2  # [G : <q(b)>] = 4/2
    for comp in comps:
        assert len(comp.vertices) == 2
        assert len(comp.edges) == 2
        assert all(i == 2 for _, i in comp.edges)
    assert 0 in comps[0].vertices
    assert comps[0].coset_rep == 0


def test_components_cyclic3(cyclic3_cover):
    comps = petal_complement_components(cyclic3_cover, 1)
    assert len(comps) == 1
    assert comps[0].vertices == (0, 1, 2)


def test_components_cover_all_edges(klein_n3_cover):
    Y = klein_n3_cover
    for j in range(1, 4):
        comps = petal_complement_components(Y, j)
        all_edges = sorted(e for c in comps for e in c.edges)
        assert all_edges == sorted(e for e in Y.edges() if e[1] != j)
        all_vertices = sorted(v for c in comps for v in c.vertices)
        assert all_vertices == list(Y.vertices())
        # vertex sets are the left cosets of the generated subgroup
        gens = [Y.images[i - 1] for i in range(1, 4) if i != j]
        sub = subgroup_generated(Y.group, gens)
        assert {c.vertices for c in comps} == {
            tuple(sorted(Y.group.mul[g][h] for h in sub)) for g in Y.vertices()
        }


# --- misc interfaces ------------------------------------------------------


def test_standard_images_trivial():
    G = builtin_group("cyclic", 1)
    assert standard_images(G, 3) == (0, 0, 0)


def test_standard_images_infeasible():
    G = builtin_group("elementary_abelian", 2, 3)
    assert standard_images(G, 2) is None
    assert standard_images(G, 3) is not None


def test_standard_images_symmetric4_pair():
    G = builtin_group("symmetric", 4)
    imgs = standard_images(G, 2)
    assert imgs is not None
    assert len(subgroup_generated(G, imgs)) == 24


def scan_standard_images(group, n):
    """The lexicographic scan over all k-subsets, k = 1, 2, ..., n."""
    if group.order == 1:
        return (0,) * n
    for k in range(1, n + 1):
        for combo in combinations(range(1, group.order), k):
            if len(subgroup_generated(group, combo)) == group.order:
                return combo + (0,) * (n - k)
    return None


def test_standard_images_matches_scan():
    specs = (
        "trivial", "cyclic:2", "cyclic:6", "cyclic:12", "elementary_abelian:2,2",
        "elementary_abelian:2,3", "elementary_abelian:2,4", "elementary_abelian:3,2",
        "elementary_abelian:3,3", "dihedral:3", "dihedral:4", "dihedral:6",
        "symmetric:3", "symmetric:4",
    )
    answers = []
    for spec in specs:
        G = builtin_group_from_string(spec)
        for n in range(2, 6):
            expected = scan_standard_images(G, n)
            assert standard_images(G, n) == expected, (spec, n)
            answers.append(expected)
    assert None in answers


def product_table(*specs):
    """The multiplication table of a direct product of builtin groups."""
    table = [[0]]
    for spec in specs:
        G = builtin_group_from_string(spec)
        m = G.order
        table = [
            [table[x1][y1] * m + G.mul[x2][y2] for y1 in range(len(table)) for y2 in range(m)]
            for x1 in range(len(table))
            for x2 in range(m)
        ]
    return table


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        (
            ("symmetric:4",),
            ("dihedral:6",),
            ("elementary_abelian:3,2",),
            ("dihedral:4", "cyclic:2"),
            ("cyclic:4", "elementary_abelian:2,2"),
            ("dihedral:3", "cyclic:4"),
        )
    ),
    st.randoms(use_true_random=False),
)
def test_standard_images_matches_scan_relabeled(specs, rng):
    # a random relabeling moves the lexicographically first generating set, so
    # the search meets failed siblings and repeated subgroups before it; the
    # products have minimal generating sets of size 2 or 3 that greedy choice
    # can miss
    table = product_table(*specs)
    m = len(table)
    perm = [0] + rng.sample(range(1, m), m - 1)
    relabeled = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            relabeled[perm[x]][perm[y]] = perm[table[x][y]]
    G = from_mul_table(relabeled)
    for n in range(2, 5):
        assert standard_images(G, n) == scan_standard_images(G, n), (specs, perm, n)


def test_standard_images_elementary_abelian_2_6():
    # a minimal generating set of size 6 among 63 elements; the scan over all
    # subsets of size <= 6 takes minutes
    G = builtin_group("elementary_abelian", 2, 6)
    assert standard_images(G, 6) == (1, 2, 4, 8, 16, 32)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        (
            ("symmetric:3",),
            ("symmetric:4",),
            ("dihedral:6",),
            ("cyclic:12",),
            ("elementary_abelian:3,2",),
            ("elementary_abelian:2,3",),
            ("dihedral:4", "cyclic:2"),
            ("cyclic:4", "elementary_abelian:2,2"),
            ("dihedral:3", "cyclic:4"),
            ("cyclic:6", "cyclic:6"),
            ("symmetric:3", "cyclic:3"),
        )
    ),
    st.randoms(use_true_random=False),
)
def test_generator_bound_never_exceeds_found_size(specs, rng):
    """The lower bound standard_images starts from is at most the size of the
    generating set it finds, on relabeled groups and products; on a group of
    prime-power order it is that size (Burnside's basis theorem)."""
    table = product_table(*specs)
    m = len(table)
    perm = [0] + rng.sample(range(1, m), m - 1)
    relabeled = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            relabeled[perm[x]][perm[y]] = perm[table[x][y]]
    G = from_mul_table(relabeled)
    bound = generator_count_lower_bound(G)
    found = None
    for n in range(2, 5):
        images = standard_images(G, n)
        if images is not None:
            found = sum(1 for x in images if x)
            assert bound <= found, (specs, perm, n)
    assert found is not None
    primes = {p for p in (2, 3, 5, 7) if m % p == 0}
    if len(primes) == 1:
        assert bound == found, (specs, perm)


def quotient_dim_bound(G):
    """The bound from its definition: [G, G] G^p is generated by every
    commutator and every p-th power."""
    m, mul, inv = G.order, G.mul, G.inv
    best = 0
    for p in (q for q in range(2, m + 1) if m % q == 0 and all(q % d for d in range(2, q))):
        gens = {mul[mul[a][b]][inv[mul[b][a]]] for a in range(m) for b in range(m)}
        gens |= {G.power(a, p) for a in range(m)}
        index, dim = m // len(subgroup_generated(G, gens)), 0
        while index > 1:
            assert index % p == 0
            index //= p
            dim += 1
        best = max(best, dim)
    return best


def relabeled_group(G, perm):
    """G with element x renamed perm[x] (perm[0] == 0), labels kept."""
    m = G.order
    table = [[0] * m for _ in range(m)]
    labels = [""] * m
    for x in range(m):
        labels[perm[x]] = G.labels[x]
        for y in range(m):
            table[perm[x]][perm[y]] = perm[G.mul[x][y]]
    return from_mul_table(table, labels)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("symmetric:3", "symmetric:4", "dihedral:6", "dihedral:4", "cyclic:12",
                     "elementary_abelian:3,2", "elementary_abelian:2,3")),
    st.randoms(use_true_random=False),
)
def test_generator_bound_matches_its_definition(spec, rng):
    G = builtin_group_from_string(spec)
    H = relabeled_group(G, [0] + rng.sample(range(1, G.order), G.order - 1))
    assert generator_count_lower_bound(H) == quotient_dim_bound(H)


def test_generator_bound_takes_the_normal_closure():
    # relabeled so that the greedy generating set is (04231, 12403): their
    # commutators and fifth powers generate a subgroup of order 4 that is not
    # normal, so only its normal closure (all of S5) gives the F_5 quotient
    perm = list(range(120))
    perm[1], perm[21], perm[2], perm[34] = 21, 1, 34, 2
    G = relabeled_group(builtin_group_from_string("symmetric:5"), perm)
    assert G.labels[1:3] == ("04231", "12403")
    assert generator_count_lower_bound(G) == quotient_dim_bound(G) == 1


def test_standard_images_refuses_below_the_bound_at_once():
    # the bound alone decides: 7 > 6 and 6 > 5 generators are needed, so no
    # subgroup is visited (these took 8.9 s and about 90 s by the full search)
    assert generator_count_lower_bound(builtin_group("elementary_abelian", 2, 7)) == 7
    assert standard_images(builtin_group("elementary_abelian", 2, 7), 6) is None
    assert standard_images(builtin_group("elementary_abelian", 3, 6), 5) is None
    assert generator_count_lower_bound(builtin_group("symmetric", 5)) == 1
    assert generator_count_lower_bound(builtin_group("trivial")) == 0


def test_dot_export(mod2_cover):
    dot = to_dot(mod2_cover)
    assert dot.startswith("digraph")
    assert dot.count("->") == 8
    assert 'label="a1"' in dot and 'label="a2"' in dot
    assert 'label="00"' in dot  # identity vertex label
